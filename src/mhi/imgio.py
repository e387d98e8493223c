"""Grayscale frame I/O: binary PGM codec, sequence manifests, frame reading.

A frame is a 2-D ``numpy.uint8`` array of shape ``(height, width)``; row-major
pixel order matches the PGM payload byte-for-byte. Only binary PGM ("P5") with
maxval <= 255 is supported, which keeps every raster bit-exact on disk. Pixels
keep their stored values, and a pixel above maxval is a decode error.

Manifests are UTF-8 JSON Lines: one object per line with keys ``dir`` (str),
``start`` (int), ``end`` (int) and optional ``label`` (str). Frame files are
named ``NNNNNN.pgm`` (zero-padded index, see ``frame_path``) inside ``dir``.

``read_frames`` is the one frame reader: it yields a record's frames in index
order, one file at a time, so a caller that folds them as they come holds
only the frames it still needs. ``load_sequence`` stacks what it yields.
Each file goes through ``read_pgm``, which returns a read-only view of the
file's pixel bytes rather than a copy, so a frame is copied once, by
whoever gathers it. The frames of a clip share one header, and
``read_pgm`` keeps the header of the last frame it decoded in full, so it
parses that header once per clip and still checks every frame's pixel
data. ``read_pgm_file`` sizes its read from that header, so a clip's
frames after the first need no ``fstat``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FrameRangeError,
    MalformedHeaderError,
    ManifestParseError,
    MhiError,
    MissingFrameError,
    PixelRangeError,
    TruncatedDataError,
    UnsupportedMaxvalError,
)

_WHITESPACE = b" \t\n\r\x0b\x0c"
# The four header tokens (magic, width, height, maxval), each after a run of
# whitespace and '#' comments, which run to end of line. In a bytes pattern
# ``\s`` is exactly ``_WHITESPACE``, so a token is empty only at the end of
# the data.
_HEADER = re.compile(rb"(?:\s|#[^\n\r]*)*([^\s#]*)" * 4)
# ``str.splitlines`` also breaks at U+0085, U+2028 and U+2029, which JSON
# allows raw inside strings.
_LINE_BREAK = re.compile(r"\r\n|[\r\n]")


@dataclass(frozen=True)
class SequenceRecord:
    """One manifest entry: a frame directory plus an inclusive index range."""

    dir: str
    start: int
    end: int
    label: str | None = None

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass
class FrameSequence:
    """Frames of one sequence, plus provenance.

    ``frames`` is an (N, H, W) uint8 stack, or an iterable that yields the
    record's frames one by one, as ``read_frames`` does. Its length is the
    record's, so a stream is not read to count it; an iterator is used up by
    the first pass over it. A stack must hold exactly the record's frames.
    """

    frames: np.ndarray | Iterable[np.ndarray]
    record: SequenceRecord

    def __post_init__(self):
        frames, n = self.frames, self.record.length
        if isinstance(frames, np.ndarray) and frames.shape[:1] != (n,):
            raise ValueError(
                f"{self.record.dir}: stack of shape {frames.shape} for a record of {n} frames"
            )

    def __len__(self) -> int:
        return self.record.length


def require_frame(frame: np.ndarray, stack: bool = False) -> np.ndarray:
    """Validate that ``frame`` is a nonempty 2-D uint8 array and return it.

    With ``stack`` an ``(N, H, W)`` stack of such frames passes as well.
    """
    frame = np.asarray(frame)
    if frame.ndim not in ((2, 3) if stack else (2,)) or 0 in frame.shape[-2:]:
        kind = "2-D frame or (N, H, W) stack" if stack else "2-D frame"
        raise ValueError(f"expected nonempty {kind}, got shape {frame.shape}")
    if frame.dtype != np.uint8:
        raise ValueError(f"expected uint8 frame, got {frame.dtype}")
    return frame


# The header of the last frame decoded in full, set only after its length and
# pixel checks pass: its bytes up to and including the one whitespace byte
# after maxval, then (pixel offset, height, width, maxval).
# It is a cache only: any data decodes as a fresh parse would decode it, so
# the callers and threads that share it see no difference but the time.
_last_header: tuple[bytes, int, int, int, int] | None = None


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (P5) byte stream into a uint8 frame.

    The frame is a view of ``data``'s pixel bytes, not a copy; for ``bytes``
    input it is read-only. The fields of the last header whose frame decoded
    in full are kept with its bytes, up to and including the whitespace byte
    after maxval. Data that starts with those bytes skips the header parse and
    its checks: the header pattern reads no byte past that whitespace byte, so
    the parse would give the same fields. The frames of one clip share a
    header, so it is parsed once per clip. The length and pixel checks run on
    every call.

    Raises ``MalformedHeaderError`` for a bad magic or header fields,
    ``UnsupportedMaxvalError`` for maxval > 255, ``TruncatedDataError``
    when fewer than width*height pixel bytes follow the header, and
    ``PixelRangeError`` for a pixel above maxval.
    """
    global _last_header
    last = _last_header
    if last is not None and data.startswith(last[0]):
        _, pos, height, width, maxval = last
    else:
        last = None
        pos, height, width, maxval = _header(data)
    size = width * height
    if len(data) - pos < size:
        raise TruncatedDataError(f"expected {size} pixel bytes, got {len(data) - pos}")
    frame = np.frombuffer(data, np.uint8, size, pos).reshape(height, width)
    if maxval < 255 and frame.max() > maxval:
        raise PixelRangeError(f"pixel value {frame.max()} > maxval {maxval}")
    if last is None:
        _last_header = (bytes(data[:pos]), pos, height, width, maxval)
    return frame


def _header(data: bytes) -> tuple[int, int, int, int]:
    """Parse and check a PGM header: the pixel offset, height, width and maxval."""
    header = _HEADER.match(data)
    magic, *fields = header.groups()
    if magic != b"P5":
        raise MalformedHeaderError(
            f"bad magic: {magic!r}" if magic else "unexpected end of header"
        )
    for token, what in zip(fields, ("width", "height", "maxval")):
        if not token.isdigit():
            raise MalformedHeaderError(
                f"bad {what} field: {token!r}" if token else "unexpected end of header"
            )
    try:
        width, height, maxval = map(int, fields)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits().
        what, token = max(zip(("width", "height", "maxval"), fields), key=lambda f: len(f[1]))
        raise MalformedHeaderError(f"{what} field too long: {len(token)} digits") from None
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions: {width}x{height}")
    if maxval < 1:
        raise MalformedHeaderError(f"bad maxval: {maxval}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} > 255")
    # Exactly one whitespace byte separates the header from the pixel data.
    pos = header.end()
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace after maxval")
    return pos + 1, height, width, maxval


def write_pgm(frame: np.ndarray) -> bytes:
    """Encode a uint8 frame as a canonical binary PGM stream.

    The header is always ``P5\\n{w} {h}\\n255\\n`` so output bytes are a pure
    function of the pixel data.
    """
    frame = require_frame(frame)
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(frame).tobytes()


def read_pgm_file(path: str | os.PathLike) -> np.ndarray:
    """Decode the PGM file at ``path``; decode and read errors name it.

    With a header in the memo, the file is first read with one ``os.read``
    of one byte more than that header's frame. A read that comes back short
    holds the whole file, so ``fstat`` sizes only the reads of a longer
    file, or of any file when the memo is empty. ``read_pgm`` decodes every
    file either way.
    """
    last = _last_header
    fd = os.open(path, os.O_RDONLY)
    try:
        size = 0 if last is None else last[1] + last[2] * last[3] + 1
        data = os.read(fd, size) if size else b""
        if len(data) == size:  # no memo, or a file longer than its frame
            if size:
                os.lseek(fd, 0, os.SEEK_SET)
            data = os.read(fd, os.fstat(fd).st_size)
    except OSError as exc:
        # os.read reports no filename, for example EISDIR for a directory.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        os.close(fd)
    try:
        return read_pgm(data)
    except MhiError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_pgm_file(path: str | os.PathLike, frame: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pgm(frame))


_MANIFEST_KEYS = {"dir", "label", "start", "end"}


def load_manifest(text: str) -> list[SequenceRecord]:
    """Parse JSON-Lines manifest text into records, preserving file order.

    Blank lines are ignored. Errors carry the 1-based line number:
    ``ManifestParseError`` for anything that is not a valid record object,
    ``FrameRangeError`` when ``end < start`` or the range holds more than
    ``sys.maxsize`` frames.
    """
    records = []
    for line_no, line in enumerate(_LINE_BREAK.split(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestParseError(line_no, f"invalid JSON: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise ManifestParseError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestParseError(line_no, "record is not a JSON object")
        unknown = set(obj) - _MANIFEST_KEYS
        if unknown:
            raise ManifestParseError(line_no, f"unknown keys: {sorted(unknown)}")
        for key in ("dir", "start", "end"):
            if key not in obj:
                raise ManifestParseError(line_no, f"missing key {key!r}")
        if not isinstance(obj["dir"], str) or not obj["dir"]:
            raise ManifestParseError(line_no, "dir must be a nonempty string")
        for key in ("start", "end"):
            if isinstance(obj[key], bool) or not isinstance(obj[key], int):
                raise ManifestParseError(line_no, f"{key} must be an integer")
        label = obj.get("label")
        if label is not None and (not isinstance(label, str) or not label):
            raise ManifestParseError(line_no, "label must be a nonempty string")
        if obj["start"] < 0:
            raise ManifestParseError(line_no, "start must be >= 0")
        if obj["end"] < obj["start"]:
            raise FrameRangeError(
                line_no, f"end {obj['end']} < start {obj['start']}"
            )
        if obj["end"] - obj["start"] >= sys.maxsize:  # a length must be an index
            raise FrameRangeError(line_no, f"start to end is more than {sys.maxsize} frames")
        records.append(
            SequenceRecord(dir=obj["dir"], start=obj["start"], end=obj["end"], label=label)
        )
    return records


def load_manifest_file(path: str | os.PathLike) -> list[SequenceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_manifest(fh.read())


def write_manifest_file(path: str | os.PathLike, records: list[SequenceRecord]) -> None:
    """Write ``records`` as manifest lines keyed ``dir, label, start, end``;
    ``load_manifest_file`` reads them back."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fields = {"dir": r.dir, "label": r.label, "start": r.start, "end": r.end}
            fh.write(json.dumps(fields, separators=(", ", ": ")) + "\n")


def frame_path(directory: str | os.PathLike, index: int) -> str:
    """Path of frame ``index`` inside ``directory`` (zero-padded to 6 digits)."""
    return os.path.join(directory, f"{index:06d}.pgm")


def scan_frame_dir(directory: str) -> SequenceRecord:
    """The record from the lowest to the highest frame index in ``directory``.

    A file counts only under the name ``frame_path`` gives its index, so
    ``1000000.pgm`` counts and ``0000001.pgm`` does not. The indices must
    run without a gap: ``MissingFrameError`` names the first absent frame,
    so a stray high index fails here rather than set the record's length.
    """
    indices = sorted(
        int(name[:-4])
        for name in os.listdir(directory)
        if name[:-4].isdecimal() and frame_path("", int(name[:-4])) == name
    )
    if not indices:
        raise MhiError(f"no NNNNNN.pgm frames in {directory}")
    start, end = indices[0], indices[-1]
    if len(indices) != end - start + 1:
        gap = next(start + i for i, index in enumerate(indices) if index != start + i)
        raise MissingFrameError(gap, frame_path(directory, gap))
    return SequenceRecord(dir=directory, start=start, end=end)


def read_frames(
    record: SequenceRecord, root: str | os.PathLike | None = None
) -> Iterator[np.ndarray]:
    """Yield the frames of ``record`` in index order, one file at a time.

    ``root``, when given, is prepended to ``record.dir`` (used for manifests
    whose paths are relative to the manifest file). Raises
    ``MissingFrameError`` for an absent file and ``DimensionMismatchError``
    when a frame's shape differs from the first frame's; both carry the
    index of the offending frame and name its file, as decode errors do.
    A frame is read only when it is drawn, so the frames before a bad one
    come out before the error.
    """
    directory = os.path.join(root, record.dir) if root is not None else record.dir
    # ``frame_path`` joined once: the directory with its separator, if any.
    prefix = os.path.join(directory, "")
    shape = None
    for index in range(record.start, record.end + 1):
        path = f"{prefix}{index:06d}.pgm"
        try:
            frame = read_pgm_file(path)
        except FileNotFoundError:
            raise MissingFrameError(index, path) from None
        shape = shape or frame.shape
        if frame.shape != shape:
            raise DimensionMismatchError(
                f"{path}: frame {index} is {frame.shape[1]}x{frame.shape[0]}, "
                f"expected {shape[1]}x{shape[0]}",
                index=index,
            )
        yield frame


def load_sequence(record: SequenceRecord, root: str | os.PathLike | None = None) -> FrameSequence:
    """Every frame ``read_frames`` yields for ``record``, in one (N, H, W) uint8 stack."""
    return FrameSequence(frames=np.stack(list(read_frames(record, root))), record=record)
