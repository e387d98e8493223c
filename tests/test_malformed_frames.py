"""Malformed PGM frames through ``mhi extract``: reading with the header memo
and with it cleared before each file gives the same exit code, output and
error line."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhi import imgio
from mhi.cli import main
from mhi.imgio import SequenceRecord, frame_path, write_manifest_file, write_pgm_file

FRAMES, SIDE = 8, 24
HEADER = b"P5\n24 24\n255\n"


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    """Two 8-frame 24x24 clips of a moving square in one manifest."""
    root = tmp_path_factory.mktemp("malformed")
    records = []
    for name, offset in (("first", 2), ("second", 9)):
        (root / name).mkdir()
        for i in range(FRAMES):
            frame = np.full((SIDE, SIDE), 40, dtype=np.uint8)
            frame[offset : offset + 6, i + 2 : i + 8] = 200
            write_pgm_file(frame_path(root / name, i), frame)
        records.append(SequenceRecord(name, 0, FRAMES - 1, name))
    write_manifest_file(root / "manifest.jsonl", records)
    return root


def _mutate(data: bytes, draw) -> bytes:
    kind = draw(st.sampled_from(["flip", "delete", "swap", "truncate", "insert", "maxval"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    if kind == "swap":
        other = draw(st.integers(0, len(data) - 1))
        swapped = bytearray(data)
        swapped[at], swapped[other] = data[other], data[at]
        return bytes(swapped)
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        where = draw(st.integers(0, len(HEADER)))
        return data[:where] + draw(st.sampled_from([b"#", b" ", b"7", b"\n"])) + data[where:]
    maxval = draw(st.integers(1, max(data[len(HEADER) :]) - 1))
    return b"P5\n24 24\n%d\n" % maxval + data[len(HEADER) :]


def _extract(root, out):
    """Exit code of ``mhi extract`` on the manifest, and its log lines."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append((record.levelname, record.getMessage()))
    log = logging.getLogger("mhi")
    log.addHandler(handler)
    try:
        code = main(["extract", "--manifest", str(root / "manifest.jsonl"),
                     "--theta", "10", "--tau", str(FRAMES), "--out", str(out)])
    finally:
        log.removeHandler(handler)
    return code, lines


def _cold_read(read):
    def read_cold(path):
        imgio._last_header = None
        return read(path)

    return read_cold


def test_unmutated_clips_extract_two_rows(clips):
    code, lines = _extract(clips, clips / "plain.csv")
    assert (code, lines) == (0, [])
    assert len((clips / "plain.csv").read_text().splitlines()) == 3


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, FRAMES - 1), data=st.data())
def test_a_malformed_frame_fails_alike_with_and_without_the_header_memo(clips, index, data):
    # The first clip primes the header memo, so the second clip's frames are
    # read sized from it and decoded without a header parse unless the memo
    # is cleared.
    path = frame_path(clips / "second", index)
    with open(path, "rb") as fh:
        original = fh.read()
    mutated = _mutate(original, data.draw)
    try:
        with open(path, "wb") as fh:
            fh.write(mutated)
        warm = _extract(clips, clips / "warm.csv")
        with mock.patch.object(imgio, "read_pgm_file", _cold_read(imgio.read_pgm_file)):
            cold = _extract(clips, clips / "cold.csv")
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    assert warm == cold
    code, lines = warm
    assert code in (0, 2)
    if code == 0:
        assert (clips / "warm.csv").read_bytes() == (clips / "cold.csv").read_bytes()
    else:
        errors = [message for level, message in lines if level == "ERROR"]
        assert len(errors) == 1
        # A first frame read in another shape sets the clip's shape, so the
        # frame after it is the one that no longer matches.
        named = [path] if index else [path, frame_path(clips / "second", 1)]
        assert any(f"{name}:" in errors[0] or f"({name})" in errors[0] for name in named)
