"""Motion-history temporal templates and action classification.

Pipeline: grayscale frames -> binary motion masks -> motion-history /
motion-energy templates -> moment-invariant features -> KNN or MLP
classifier. See the package README for the file formats and the ``mhi``
command-line interface.
"""

from .classify import (
    ConfusionMatrix,
    KnnModel,
    MlpConfig,
    MlpModel,
    SplitSpec,
    Standardizer,
    TrainedModel,
    evaluate,
    split_dataset,
    train_mlp,
)
from .diagnostics import BlobDiagnostic, detect_secondary_blob
from .imgio import (
    FrameSequence,
    SequenceRecord,
    load_manifest,
    load_manifest_file,
    load_sequence,
    read_frames,
    read_pgm,
    read_pgm_file,
    write_pgm,
    write_pgm_file,
)
from .imgproc import frame_diff, gaussian_smooth, morph_open
from .moments import (
    LabeledSample,
    MomentSet,
    feature_vector,
    flusser_i8,
    hu_moments,
    invariants,
    scale_invariant_moments,
)
from .synth import (
    SynthSpec,
    generate,
    parse_specs,
    render_clip,
    specs_to_json,
    three_class_specs,
)
from .temporal import (
    TemporalTemplate,
    build_template,
    mhi_step,
    motion_masks,
    normalize_mhi,
)

__version__ = "0.1.0"

__all__ = [
    "BlobDiagnostic",
    "ConfusionMatrix",
    "FrameSequence",
    "KnnModel",
    "LabeledSample",
    "MlpConfig",
    "MlpModel",
    "MomentSet",
    "SequenceRecord",
    "SplitSpec",
    "Standardizer",
    "SynthSpec",
    "TemporalTemplate",
    "TrainedModel",
    "build_template",
    "detect_secondary_blob",
    "evaluate",
    "feature_vector",
    "flusser_i8",
    "frame_diff",
    "gaussian_smooth",
    "generate",
    "hu_moments",
    "invariants",
    "load_manifest",
    "load_manifest_file",
    "load_sequence",
    "mhi_step",
    "morph_open",
    "motion_masks",
    "normalize_mhi",
    "parse_specs",
    "read_frames",
    "read_pgm",
    "read_pgm_file",
    "render_clip",
    "scale_invariant_moments",
    "specs_to_json",
    "split_dataset",
    "three_class_specs",
    "train_mlp",
    "write_pgm",
    "write_pgm_file",
]
