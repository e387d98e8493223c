"""Command-line interface: ``mhi extract|train|eval|predict|render|synth``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(diverged training). Every command is deterministic given its inputs, flags
and seeds: repeated runs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import logging
import math
import os
import stat
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
    saturated_layer,
    split_dataset,
    train_mlp,
)
from .diagnostics import blob_counts
from .errors import (
    FeatureOverflowError,
    ForwardOverflowError,
    MhiError,
    ModelSizeError,
    NonFiniteLossError,
    SingleClassError,
    SynthSpecError,
    TooFewFramesError,
    UnknownLabelError,
)
from .imgio import (
    FrameSequence,
    frame_index,
    load_manifest_file,
    read_frames,
    scan_frame_dir,
    write_pgm,
)
from .imgproc import require_theta
from .moments import FEATURE_DIM, LabeledSample, stack_features
from .synth import generate, parse_specs
from .temporal import (
    MAX_TAU,
    build_template,
    clip_history,
    fold_history,
    normalize_mhi,
    pack_templates,
)

log = logging.getLogger("mhi")

FEATURE_HEADER = "label,src," + ",".join(f"f{i}" for i in range(FEATURE_DIM))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for data
    # errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(low: int, high: int | None = None):
    """The argparse type of an integer flag bounded to ``[low, high]``; its
    name ``integer`` is what argparse shows for a value that is not one."""

    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}, got {value}")
        if high is not None and number > high:
            raise argparse.ArgumentTypeError(f"value must be <= {high}, got {value}")
        return number

    return integer


def _learning_rate(value: str) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}")
    if not 0 < rate < math.inf:
        raise argparse.ArgumentTypeError(f"learning rate must be finite and > 0, got {value}")
    return rate


def _theta(value: str) -> float:
    try:
        return require_theta(float(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _report_path(args) -> str:
    return args.report or os.path.splitext(args.out)[0] + ".report.txt"


def _identity(path: str):
    """What ``_write_files`` replaces at ``path``: an existing file's
    ``(st_dev, st_ino)``, symlinks followed; a missing one's real path; else None."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    except (OSError, ValueError):  # say an embedded NUL byte, which open() reports
        return None
    return st.st_dev, st.st_ino


def _clash(args) -> str | None:
    """The usage error for an output that is the same file, by ``_identity``,
    as a later output, an input file or a frame the command reads, or None.
    Outputs are ``--out`` and ``--report`` (``train``'s default included), or
    ``render``'s two images. Frames are listed only when some output exists,
    as a new output cannot be one: an ``os.scandir`` per record, and a
    ``stat`` only for an entry that is a symlink or has an output's inode
    number. Frames or a manifest that do not load are left to the command."""
    report = _report_path(args) if args.command == "train" else None
    paths = [("--out", args.out), ("--report", report)]
    if args.command == "render":
        paths = [("--out", os.path.join(args.out, name)) for name in ("mei.pgm", "mhi.pgm")]
    paths += [(f"--{name}", getattr(args, name, None))
              for name in ("features", "manifest", "model")]
    files = [(flag, path, _identity(path)) for flag, path in paths if path is not None]
    existing = {}
    for i, (flag, path, identity) in enumerate(files):
        if flag not in ("--out", "--report") or identity is None:
            continue
        for other, _, other_identity in files[i + 1:]:
            if identity == other_identity:
                return f"{flag} and {other} name the same file: {path}"
        if isinstance(identity, tuple):
            existing[identity] = f"{flag} names a frame the command reads: {path}"
    if not existing:
        return None
    try:
        records, root = [], ""
        if args.command in ("predict", "render"):
            records = [scan_frame_dir(args.frames)]
        elif getattr(args, "manifest", None) is not None:
            records = load_manifest_file(args.manifest)
            root = os.path.dirname(os.path.abspath(args.manifest))
        inodes = {inode for _, inode in existing}
        for record in records:
            with os.scandir(os.path.join(root, record.dir)) as entries:
                for entry in entries:
                    if ((entry.is_symlink() or entry.inode() in inodes)
                            and (index := frame_index(entry.name)) is not None
                            and record.start <= index <= record.end
                            and (clash := existing.get(_identity(entry.path)))):
                        return clash
    except (MhiError, OSError, ValueError):
        pass  # frames that cannot be listed, or a bad path or manifest: the command reports it
    return None


def _open_beside(target: str, path: str) -> tuple[int, str]:
    """A new file in ``target``'s directory, open for writing, and its name.
    Its mode is the one ``open`` gives a new file, ``0o666 & ~umask``; an
    error names ``path``, the target as the user spelled it."""
    while True:
        temp = os.path.join(os.path.dirname(target), f".mhi-{os.urandom(6).hex()}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc


def _write_files(*files: tuple[str, bytes]) -> None:
    """Write each ``(path, data)``, all or none: each goes to a new file
    beside its target, and ``os.replace`` moves them over their targets only
    once every write has succeeded, so a failed command leaves every output
    as it was. A symlinked output replaces the file it points to, and an
    existing output keeps its permission bits. An existing target that is
    not a regular file, such as ``/dev/null`` or a FIFO, is written in place
    after the others are staged: a rename would replace the node itself.
    """
    staged, in_place = [], []
    try:
        for path, data in files:
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                in_place.append((path, data))
                continue
            # A missing ``dir/`` stays an error, as in ``open``, not a file ``dir``.
            target = os.path.realpath(path) if os.path.lexists(path) else path
            fd, temp = _open_beside(target, path)
            staged.append((temp, target))
            with open(fd, "wb") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(data)
        for path, data in in_place:
            with open(path, "wb") as fh:
                fh.write(data)
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            if os.path.lexists(temp):
                os.remove(temp)
        raise


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files((path, text.encode("utf-8")))


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
    a warning. Errors are re-raised naming the manifest, and a sequence's
    errors also its directory.

    The whole-clip templates of consecutive same-shape sequences are packed
    into the blocks that ``predict`` uses, so the feature stage runs once per
    block. Each sequence's frames are read as its masks need them. A failing
    sequence ends the window stream, and its error is raised once the clips
    before it are done, so the warnings and the error come out in manifest order.
    """
    try:
        records = load_manifest_file(manifest)
    except (MhiError, ValueError) as exc:
        raise MhiError(f"{manifest}: {exc}") from exc
    root = os.path.dirname(os.path.abspath(manifest))
    failure = None

    def windows():
        nonlocal failure
        for record in records:
            try:
                seq = FrameSequence(read_frames(record, root), record)
                window = clip_history(seq, theta, tau)
            except (MhiError, OSError, ValueError) as exc:
                failure = MhiError(f"{manifest}: sequence {record.dir}: {exc}"), exc
                return
            yield window

    samples = []
    clips = iter(records)
    for block in pack_templates(windows(), tau):
        features, moving = stack_features(block.stack, tau)
        rows = iter(features)
        for (first, last), has_motion in zip(block.spans, moving):
            record = next(clips)
            if not has_motion:
                log.warning("sequence %s: no motion, skipped", record.dir)
                continue
            samples.append(LabeledSample(
                features=next(rows),
                label=record.label or "",
                source=f"{record.dir}:{first}-{last}",
            ))
    if failure is not None:
        raise failure[0] from failure[1]
    return samples


def cmd_extract(args) -> int:
    samples = extract_samples(args.manifest, args.theta, args.tau)
    _write_out(args.out, features_to_csv(samples))
    return 0


# --- training / evaluation ---

def _confusion_section(name: str, model: TrainedModel, samples) -> str:
    matrix, accuracy = evaluate(model, samples)
    return f"[{name}] accuracy {serialize.format_float(accuracy)}\n{matrix.to_csv()}"


def _labeled(samples: list[LabeledSample]) -> list[LabeledSample]:
    """The samples that have a label; the others are dropped with a warning."""
    labeled = [s for s in samples if s.label]
    if len(labeled) < len(samples):
        log.warning("ignoring %d unlabeled sample(s)", len(samples) - len(labeled))
    return labeled


def cmd_train(args) -> int:
    source = args.features or args.manifest
    if args.features:
        samples = read_features_csv(args.features)
    else:
        samples = extract_samples(args.manifest, args.theta, args.tau)
    labeled = _labeled(samples)
    try:
        if len({s.label for s in labeled}) < 2:
            raise SingleClassError("training needs samples from >= 2 classes")
        train, val, test = split_dataset(labeled, SplitSpec(seed=args.seed))
        standardizer = Standardizer.fit(train)
        standardizer.check(labeled)
    except MhiError as exc:
        raise MhiError(f"{source}: {exc}") from exc

    def standardized(part):
        """The standardized matrix of ``part``, and its samples on its rows."""
        matrix = standardizer.apply(np.stack([s.features for s in part]))
        return matrix, [LabeledSample(row, s.label, s.source) for row, s in zip(matrix, part)]

    train_matrix, std_train = standardized(train)
    if args.classifier == "knn":
        try:
            classifier = KnnModel(k=args.k, vectors=train_matrix,
                                  labels=[s.label for s in train])
        except ValueError as exc:
            raise MhiError(f"{source}: {exc}") from exc
    else:
        cfg = MlpConfig(
            hidden=args.hidden, lr=args.lr, epochs=args.epochs,
            batch=args.batch, seed=args.seed,
        )
        try:
            classifier = train_mlp(std_train, standardized(val)[1], cfg)
        except ModelSizeError as exc:
            hidden = ",".join(map(str, args.hidden))
            raise MhiError(f"{source}: --hidden {hidden}: {exc}") from exc
        epoch, history = classifier.selected_epoch, classifier.val_history
        log.info("mlp: selected epoch %d of %d, validation accuracy %.4f",
                 epoch, len(history), history[epoch - 1])
    model = TrainedModel(tau=args.tau, theta=args.theta, standardizer=standardizer,
                         classifier=classifier)
    # The report and the saturation check come first, so a model that cannot
    # classify its own samples is never written.
    try:
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
    except ForwardOverflowError as exc:
        raise NonFiniteLossError(f"{source}: training diverged: {exc}") from exc
    if args.classifier == "mlp":
        layer = saturated_layer(classifier, train_matrix)
        if layer is not None:
            raise NonFiniteLossError(f"{source}: training diverged: hidden layer {layer} "
                                     "reads +-1.0 in every unit on every training sample")
    report_path = _report_path(args)
    _write_files((args.out, model.to_bytes()), (report_path, report.encode("utf-8")))
    log.info("model written to %s, report to %s", args.out, report_path)
    return 0


def cmd_eval(args) -> int:
    model = TrainedModel.load(args.model, FEATURE_DIM)
    samples = read_features_csv(args.features)
    if not samples:
        raise MhiError(f"{args.features}: no samples to evaluate, only the header")
    samples = _labeled(samples)
    if not samples:
        raise MhiError(f"{args.features}: no labeled samples to evaluate")
    try:
        model.standardizer.check(samples)
        matrix, _ = evaluate(model, samples)
    except (UnknownLabelError, FeatureOverflowError) as exc:
        # The rows and the model disagree, and either file can be the wrong one.
        raise MhiError(f"{args.features}: {exc} (model {args.model})") from exc
    except ForwardOverflowError as exc:
        raise MhiError(f"{args.model}: {exc}") from exc
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
    diagnostic of its motion-energy image. Features, blob counts and the
    classifier run once per block of windows, each window with the bits it
    gets alone; with an MLP, the block's labels and scores come from one
    pass over its probability matrix. ``seq.frames`` may be a stream such as
    ``read_frames`` yields: the windows are laid out from the record's
    length, and frames are drawn as the windows reach them.
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
    windows = fold_history(seq, model.theta, model.tau, size, starts)
    for block in pack_templates(windows, model.tau):
        features, moving = stack_features(block.stack, model.tau)
        results = iter(model.predict_rows(features))
        counts, warnings = blob_counts(block.mei)
        for (_, end), has_motion, count, warning in zip(block.spans, moving, counts, warnings):
            label, score = next(results) if has_motion else ("none", 0.0)
            entries.append({
                "start_frame": end - size + 1,
                "end_frame": end,
                "label": label,
                "score": score,
                "diagnostic": {"component_count": count, "warning": warning},
            })
    return entries


# One timeline entry as ``serialize.dumps`` lays it out inside the list.
_TIMELINE_ENTRY = """  {
    "start_frame": %d,
    "end_frame": %d,
    "label": %s,
    "score": %s,
    "diagnostic": {
      "component_count": %d,
      "warning": %s
    }
  }"""


def timeline_to_json(entries: list[dict]) -> str:
    """The timeline JSON of ``predict_windows``' entries, with a trailing
    newline: the bytes of ``serialize.dumps(entries) + "\\n"``, one format
    string per entry. A non-finite score raises ``ValueError``."""
    if not entries:
        return "[]\n"
    return "[\n" + ",\n".join(
        _TIMELINE_ENTRY % (
            entry["start_frame"], entry["end_frame"], serialize._quote(entry["label"]),
            serialize.format_float(entry["score"]),
            entry["diagnostic"]["component_count"],
            "true" if entry["diagnostic"]["warning"] else "false",
        )
        for entry in entries
    ) + "\n]\n"


def _frame_stream(directory: str) -> FrameSequence:
    """The frames of ``directory``, read one at a time as they are drawn."""
    record = scan_frame_dir(directory)
    return FrameSequence(read_frames(record), record)


def cmd_predict(args) -> int:
    model = TrainedModel.load(args.model, FEATURE_DIM)
    try:
        entries = predict_windows(model, _frame_stream(args.frames), args.window, args.stride)
    except ForwardOverflowError as exc:
        raise MhiError(f"{args.model}: {exc}") from exc
    _write_out(args.out, timeline_to_json(entries))
    return 0


def cmd_render(args) -> int:
    try:
        template = build_template(_frame_stream(args.frames), theta=args.theta, tau=args.tau)
    except TooFewFramesError as exc:
        raise MhiError(f"{args.frames}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    _write_files(
        (os.path.join(args.out, "mei.pgm"), write_pgm(template.mei * np.uint8(255))),
        (os.path.join(args.out, "mhi.pgm"), write_pgm(normalize_mhi(template))),
    )
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
    parser.add_argument("--tau", type=_integer(1, MAX_TAU), default=300,
                        help="history window length in frames")


# Built once per process: argparse looks ``sys.stderr`` up when it reports an
# error, so a caller's capture still works.
@functools.cache
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
    p.add_argument("--k", type=_integer(1), default=5, help="KNN neighbor count")
    p.add_argument("--lr", type=_learning_rate, default=MlpConfig.lr, help="MLP learning rate")
    p.add_argument("--epochs", type=_integer(1), default=MlpConfig.epochs,
                   help="MLP training epochs")
    p.add_argument("--batch", type=_integer(1), default=MlpConfig.batch,
                   help="MLP mini-batch size")
    p.add_argument("--hidden", type=_hidden_sizes, default=MlpConfig.hidden,
                   help="MLP hidden layer sizes, comma-separated")
    p.add_argument("--seed", type=_integer(0), default=0,
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
    p.add_argument("--window", type=_integer(2), default=None,
                   help="window length in frames (default: model tau)")
    p.add_argument("--stride", type=_integer(1), default=None,
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

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _hidden_sizes(value: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in value.split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"bad hidden sizes: {value!r}")
    return sizes


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    clash = _clash(args)
    if clash is not None:
        build_parser().commands[args.command].error(clash)
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
