"""Grayscale frame I/O: binary PGM codec, sequence manifests, frame loading.

A frame is a 2-D ``numpy.uint8`` array of shape ``(height, width)``; row-major
pixel order matches the PGM payload byte-for-byte. Only binary PGM ("P5") with
maxval <= 255 is supported, which keeps every raster bit-exact on disk.

Manifests are UTF-8 JSON Lines: one object per line with keys ``dir`` (str),
``start`` (int), ``end`` (int) and optional ``label`` (str). Frame files are
named ``NNNNNN.pgm`` (zero-padded index, see ``frame_path``) inside ``dir``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FrameRangeError,
    MalformedHeaderError,
    ManifestParseError,
    MhiError,
    MissingFrameError,
    TruncatedDataError,
    UnsupportedMaxvalError,
)

_WHITESPACE = b" \t\n\r\x0b\x0c"
# In a bytes pattern ``\s`` is exactly ``_WHITESPACE``.
_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*([^\s#]*)")
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
    """Frames of one sequence as an (N, H, W) uint8 stack, plus provenance."""

    frames: np.ndarray
    record: SequenceRecord

    def __len__(self) -> int:
        return self.frames.shape[0]


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


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments (which run to end of line).
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise MalformedHeaderError("unexpected end of header")
    return match[1], match.end()


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise MalformedHeaderError(f"bad {what} field: {token!r}")
    return int(token), pos


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (P5) byte stream into a uint8 frame.

    Raises ``MalformedHeaderError`` for a bad magic or header fields,
    ``UnsupportedMaxvalError`` for maxval > 255, and ``TruncatedDataError``
    when fewer than width*height pixel bytes follow the header.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise MalformedHeaderError(f"bad magic: {magic!r}")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions: {width}x{height}")
    if maxval < 1:
        raise MalformedHeaderError(f"bad maxval: {maxval}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} > 255")
    # Exactly one whitespace byte separates the header from the pixel data.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace after maxval")
    pos += 1
    pixels = data[pos : pos + width * height]
    if len(pixels) < width * height:
        raise TruncatedDataError(
            f"expected {width * height} pixel bytes, got {len(pixels)}"
        )
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


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
    """Decode the PGM file at ``path``; decode errors are prefixed with it."""
    with open(path, "rb") as fh:
        data = fh.read()
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
    ``FrameRangeError`` when ``end < start``.
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
    ``1000000.pgm`` counts and ``0000001.pgm`` does not. ``load_sequence``
    reports the first gap.
    """
    indices = sorted(
        int(name[:-4])
        for name in os.listdir(directory)
        if name[:-4].isdecimal() and frame_path("", int(name[:-4])) == name
    )
    if not indices:
        raise MhiError(f"no NNNNNN.pgm frames in {directory}")
    return SequenceRecord(dir=directory, start=indices[0], end=indices[-1])


def load_sequence(record: SequenceRecord, root: str | os.PathLike | None = None) -> FrameSequence:
    """Load every frame of ``record`` into one (N, H, W) uint8 stack.

    ``root``, when given, is prepended to ``record.dir`` (used for manifests
    whose paths are relative to the manifest file). Raises
    ``MissingFrameError`` for an absent file and ``DimensionMismatchError``
    when a frame's shape differs from the first frame's; both carry the
    index of the offending frame and name its file.
    """
    directory = os.path.join(root, record.dir) if root is not None else record.dir
    frames = []
    for index in range(record.start, record.end + 1):
        path = frame_path(directory, index)
        try:
            frame = read_pgm_file(path)
        except FileNotFoundError:
            raise MissingFrameError(index, path) from None
        if frames and frame.shape != frames[0].shape:
            raise DimensionMismatchError(
                f"{path}: frame {index} is {frame.shape[1]}x{frame.shape[0]}, "
                f"expected {frames[0].shape[1]}x{frames[0].shape[0]}",
                index=index,
            )
        frames.append(frame)
    return FrameSequence(frames=np.stack(frames), record=record)
