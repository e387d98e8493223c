"""Command-line interface: ``mhi extract|train|eval|predict|render|synth``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(diverged training). Every command is deterministic given its inputs, flags
and seeds: repeated runs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import math
import os
import sys

import numpy as np

from . import serialize
from .classify import (
    KnnModel,
    MlpConfig,
    SplitSpec,
    Standardizer,
    TrainedModel,
    evaluate,
    split_dataset,
    train_mlp,
)
from .diagnostics import detect_secondary_blobs
from .errors import (
    MhiError,
    NoMotionError,
    NonFiniteLossError,
    SingleClassError,
    SynthSpecError,
    TooFewFramesError,
    UnknownLabelError,
)
from .imgio import (
    FrameSequence,
    load_manifest_file,
    load_sequence,
    scan_frame_dir,
    write_pgm_file,
)
from .moments import FEATURE_DIM, LabeledSample, feature_vector, feature_vectors
from .synth import generate, parse_specs
from .temporal import build_template, normalize_mhi, require_theta, window_templates

log = logging.getLogger("mhi")

FEATURE_HEADER = "label,src," + ",".join(f"f{i}" for i in range(FEATURE_DIM))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for data
    # errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _window_size(value: str) -> int:
    size = int(value)
    if size < 2:
        raise argparse.ArgumentTypeError("window must be >= 2")
    return size


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return number


def _learning_rate(value: str) -> float:
    rate = float(value)
    if not 0 < rate < math.inf:
        raise argparse.ArgumentTypeError(f"learning rate must be finite and > 0, got {value}")
    return rate


def _theta(value: str) -> float:
    try:
        return require_theta(float(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- feature CSV ---

def features_to_csv(samples: list[LabeledSample]) -> str:
    return serialize.csv_text([
        FEATURE_HEADER.split(","),
        *([sample.label, sample.source, *map(serialize.format_float, sample.features)]
          for sample in samples),
    ])


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``, line endings kept; a decode
    error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MhiError(f"{path}: {exc}") from exc


def read_features_csv(path: str) -> list[LabeledSample]:
    samples = []
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    if next(reader, None) != FEATURE_HEADER.split(","):
        raise MhiError(f"{path}: not a feature CSV (bad header)")
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        if len(row) != 2 + FEATURE_DIM:
            raise MhiError(f"{where}: row has {len(row)} fields, expected {2 + FEATURE_DIM}")
        try:
            features = np.array([float(v) for v in row[2:]], dtype=np.float64)
        except ValueError as exc:
            raise MhiError(f"{where}: {exc}") from exc
        if not np.all(np.isfinite(features)):
            raise MhiError(f"{where}: non-finite feature value")
        samples.append(LabeledSample(features=features, label=row[0], source=row[1]))
    return samples


def extract_samples(manifest: str, theta: float, tau: int) -> list[LabeledSample]:
    """Features for every manifest sequence; motion-free ones are skipped with
    a warning. Pipeline errors are re-raised with the sequence directory."""
    try:
        records = load_manifest_file(manifest)
    except (MhiError, ValueError) as exc:
        raise MhiError(f"{manifest}: {exc}") from exc
    root = os.path.dirname(os.path.abspath(manifest))
    samples = []
    for record in records:
        try:
            seq = load_sequence(record, root=root)
            template = build_template(seq, theta=theta, tau=tau)
            features = feature_vector(template)
        except NoMotionError:
            log.warning("sequence %s: no motion, skipped", record.dir)
            continue
        except MhiError as exc:
            raise MhiError(f"sequence {record.dir}: {exc}") from exc
        first, last = template.frame_span
        samples.append(LabeledSample(
            features=features,
            label=record.label or "",
            source=f"{record.dir}:{first}-{last}",
        ))
    return samples


def cmd_extract(args) -> int:
    samples = extract_samples(args.manifest, args.theta, args.tau)
    _write_out(args.out, features_to_csv(samples))
    return 0


# --- training / evaluation ---

def _confusion_section(name: str, model: TrainedModel, samples) -> str:
    matrix, accuracy = evaluate(model, samples)
    return f"[{name}] accuracy {serialize.format_float(accuracy)}\n{matrix.to_csv()}"


def cmd_train(args) -> int:
    source = args.features or args.manifest
    if args.features:
        samples = read_features_csv(args.features)
    else:
        samples = extract_samples(args.manifest, args.theta, args.tau)
    labeled = [s for s in samples if s.label]
    if len(labeled) < len(samples):
        log.warning("ignoring %d unlabeled sample(s)", len(samples) - len(labeled))
    try:
        if len({s.label for s in labeled}) < 2:
            raise SingleClassError("training needs samples from >= 2 classes")
        train, val, test = split_dataset(labeled, SplitSpec(seed=args.seed))
    except MhiError as exc:
        raise MhiError(f"{source}: {exc}") from exc
    standardizer = Standardizer.fit(train)

    def standardized(part):
        return [
            LabeledSample(standardizer.apply(s.features), s.label, s.source)
            for s in part
        ]

    if args.classifier == "knn":
        std_train = standardized(train)
        try:
            classifier = KnnModel(
                k=args.k,
                vectors=np.stack([s.features for s in std_train]),
                labels=[s.label for s in std_train],
            )
        except ValueError as exc:
            raise MhiError(f"{source}: {exc}") from exc
    else:
        cfg = MlpConfig(
            hidden=args.hidden, lr=args.lr, epochs=args.epochs,
            batch=args.batch, seed=args.seed,
        )
        classifier = train_mlp(standardized(train), standardized(val), cfg)
    model = TrainedModel(tau=args.tau, theta=args.theta, standardizer=standardizer,
                         classifier=classifier)
    model.save(args.out)

    report = "".join(
        (
            f"classifier: {args.classifier}\n",
            f"labels: {','.join(model.label_set)}\n",
            f"samples: train={len(train)} val={len(val)} test={len(test)}\n\n",
            _confusion_section("train", model, train), "\n",
            _confusion_section("val", model, val), "\n",
            _confusion_section("test", model, test),
        )
    )
    report_path = args.report or os.path.splitext(args.out)[0] + ".report.txt"
    _write_out(report_path, report)
    log.info("model written to %s, report to %s", args.out, report_path)
    return 0


def cmd_eval(args) -> int:
    model = TrainedModel.load(args.model, FEATURE_DIM)
    samples = read_features_csv(args.features)
    if not samples:
        raise MhiError(f"{args.features}: no samples to evaluate, only the header")
    try:
        matrix, _ = evaluate(model, samples)
    except UnknownLabelError as exc:
        raise MhiError(f"{args.features}: {exc}") from exc
    _write_out(args.out, matrix.to_csv())
    return 0


# --- prediction / rendering ---

def predict_windows(
    model: TrainedModel,
    seq: FrameSequence,
    window: int | None = None,
    stride: int | None = None,
) -> list[dict]:
    """Sliding-window labeling of a frame sequence.

    Windows start every ``stride`` frames; the trailing full window is always
    included so the end of the sequence is covered. Windows without motion get
    label "none" with score 0. Each entry carries the secondary-blob
    diagnostic of its motion-energy image. Features and diagnostics are
    computed per block of windows; only the classifier runs window by window.
    """
    n = len(seq)
    if n < 2:
        raise MhiError(f"{seq.record.dir}: need >= 2 frames to predict, got {n}")
    size = min(window if window is not None else model.tau, n)
    size = max(size, 2)
    step = stride if stride is not None else max(1, size // 2)

    starts = list(range(0, n - size + 1, step))
    if starts[-1] != n - size:
        starts.append(n - size)

    entries = []
    for block in window_templates(seq, model.theta, model.tau, size, starts):
        features = feature_vectors(block.mhi, block.mei)
        blobs = detect_secondary_blobs(block.mei)
        for (_, end), vector, blob in zip(block.spans, features, blobs):
            label, score = ("none", 0.0) if vector is None else model.predict(vector)
            entries.append({
                "start_frame": end - size + 1,
                "end_frame": end,
                "label": label,
                "score": float(score),
                "diagnostic": {
                    "component_count": blob.component_count,
                    "warning": blob.warning,
                },
            })
    return entries


def cmd_predict(args) -> int:
    model = TrainedModel.load(args.model, FEATURE_DIM)
    seq = load_sequence(scan_frame_dir(args.frames))
    entries = predict_windows(model, seq, args.window, args.stride)
    _write_out(args.out, serialize.dumps(entries) + "\n")
    return 0


def cmd_render(args) -> int:
    seq = load_sequence(scan_frame_dir(args.frames))
    try:
        template = build_template(seq, theta=args.theta, tau=args.tau)
    except TooFewFramesError as exc:
        raise MhiError(f"{args.frames}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    write_pgm_file(os.path.join(args.out, "mei.pgm"), template.mei * np.uint8(255))
    write_pgm_file(os.path.join(args.out, "mhi.pgm"), normalize_mhi(template.mhi))
    return 0


def cmd_synth(args) -> int:
    try:
        specs = parse_specs(_read_text(args.spec))
    except SynthSpecError as exc:
        raise SynthSpecError(f"{args.spec}: {exc}") from exc
    records = generate(specs, args.out)
    log.info("wrote %d sequence(s) under %s", len(records), args.out)
    return 0


# --- parser wiring ---

def _add_pipeline_flags(parser):
    parser.add_argument("--theta", type=_theta, default=25.0,
                        help="frame-difference threshold")
    parser.add_argument("--tau", type=_positive, default=300,
                        help="history window length in frames")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mhi",
        description="Motion-history temporal templates and action classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("extract", formatter_class=fmt,
                       help="manifest of sequences -> feature CSV")
    p.add_argument("--manifest", required=True, help="JSON-lines sequence manifest")
    _add_pipeline_flags(p)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="split, standardize, train, report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--features", help="feature CSV from 'mhi extract'")
    source.add_argument("--manifest", help="sequence manifest (features extracted on the fly)")
    p.add_argument("--classifier", choices=("knn", "mlp"), required=True)
    _add_pipeline_flags(p)
    p.add_argument("--k", type=_positive, default=5, help="KNN neighbor count")
    p.add_argument("--lr", type=_learning_rate, default=MlpConfig.lr, help="MLP learning rate")
    p.add_argument("--epochs", type=_positive, default=MlpConfig.epochs,
                   help="MLP training epochs")
    p.add_argument("--batch", type=_positive, default=MlpConfig.batch,
                   help="MLP mini-batch size")
    p.add_argument("--hidden", type=_hidden_sizes, default=MlpConfig.hidden,
                   help="MLP hidden layer sizes, comma-separated")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the split shuffle and MLP training")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--report", default=None,
                   help="report path (default: model path with .report.txt)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a model on a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None, help="confusion CSV path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", formatter_class=fmt,
                       help="sliding-window labels for a frame directory")
    p.add_argument("--model", required=True)
    p.add_argument("--frames", required=True, help="directory of NNNNNN.pgm frames")
    p.add_argument("--window", type=_window_size, default=None,
                   help="window length in frames (default: model tau)")
    p.add_argument("--stride", type=_positive, default=None,
                   help="window step (default: window/2, min 1)")
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("render", formatter_class=fmt,
                       help="write mei.pgm / mhi.pgm for a frame directory")
    p.add_argument("--frames", required=True, help="directory of NNNNNN.pgm frames")
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate synthetic clips and a manifest")
    p.add_argument("--spec", required=True, help="JSON array of clip specs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def _hidden_sizes(value: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden sizes: {value!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad hidden sizes: {value!r}")
    return sizes


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        log.error("%s", exc)
        return 3
    except (MhiError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
