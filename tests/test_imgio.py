"""PGM codec, manifest parsing, and sequence loading."""

import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mhi import imgio
from mhi.errors import (
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
from mhi.imgio import (
    _WHITESPACE,
    FrameSequence,
    SequenceRecord,
    frame_path,
    load_manifest,
    load_manifest_file,
    load_sequence,
    read_frames,
    read_pgm,
    read_pgm_file,
    scan_frame_dir,
    write_manifest_file,
    write_pgm,
    write_pgm_file,
)


def test_write_pgm_canonical_bytes():
    frame = np.array([[7, 9]], dtype=np.uint8)
    assert write_pgm(frame) == b"P5\n2 1\n255\n\x07\x09"


def test_write_pgm_rejects_bad_input():
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        write_pgm(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_pgm(np.zeros(4, dtype=np.uint8))


@settings(max_examples=100, deadline=None)
@given(arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=19)))
@example(np.arange(7, dtype=np.uint8).reshape(1, 7))
@example(np.arange(7, dtype=np.uint8).reshape(7, 1))
@example(np.full((1, 1), 10, dtype=np.uint8))
def test_read_pgm_round_trip_random(frame):
    again = read_pgm(write_pgm(frame))
    assert again.dtype == np.uint8
    np.testing.assert_array_equal(again, frame)


def _byte_loop_next_token(data, pos):
    # The byte-by-byte header scanner that came before the compiled header
    # pattern; kept here as the oracle for it.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in (b"#",):
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeaderError("unexpected end of header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _byte_loop_read_pgm(data):
    # ``read_pgm`` token by token on the byte-loop scanner, each check made
    # as soon as its token is read.
    def int_token(pos, what):
        token, pos = _byte_loop_next_token(data, pos)
        if not token.isdigit():
            raise MalformedHeaderError(f"bad {what} field: {token!r}")
        return int(token), pos

    magic, pos = _byte_loop_next_token(data, 0)
    if magic != b"P5":
        raise MalformedHeaderError(f"bad magic: {magic!r}")
    width, pos = int_token(pos, "width")
    height, pos = int_token(pos, "height")
    maxval, pos = int_token(pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions: {width}x{height}")
    if maxval < 1:
        raise MalformedHeaderError(f"bad maxval: {maxval}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} > 255")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace after maxval")
    pixels = data[pos + 1 : pos + 1 + width * height]
    if len(pixels) < width * height:
        raise TruncatedDataError(f"expected {width * height} pixel bytes, got {len(pixels)}")
    if max(pixels) > maxval:
        raise PixelRangeError(f"pixel value {max(pixels)} > maxval {maxval}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def _outcome(decode, data):
    # The decoded frame, or the type and message of the error that stopped it.
    try:
        frame = decode(data)
    except MhiError as exc:
        return type(exc), str(exc)
    return frame.dtype, frame.shape, frame.tobytes()


_SPACES = st.lists(st.sampled_from([bytes([b]) for b in _WHITESPACE]), min_size=1, max_size=4)
_COMMENT = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"").replace(b"\r", b""))

_HEADER_PIECES = st.one_of(
    _SPACES.map(b"".join),
    st.builds(lambda body, end: body + end, _COMMENT, st.sampled_from([b"\n", b"\r", b""])),
    st.from_regex(rb"\A[0-9]{1,4}\Z"),
    st.sampled_from([b"P5", b"P6", b"-2", b"x", b"1e3", b"\xff\x00", b"255"]),
)

# Headers with four well-formed tokens, whose prefixes and payloads reach the
# checks after the tokens.
_GAP = st.builds(
    lambda spaces, comment: b"".join(spaces) + comment,
    _SPACES, st.just(b"") | _COMMENT.map(lambda c: c + b"\n"),
)
_VALID_HEADER = st.builds(
    lambda width, height, maxval, gaps, end: b"P5%s%d%s%d%s%d%s" % (
        gaps[0], width, gaps[1], height, gaps[2], maxval, end),
    st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 15, 254, 255, 256]),
    st.tuples(_GAP, _GAP, _GAP), st.sampled_from([bytes([b]) for b in _WHITESPACE]),
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(_HEADER_PIECES, max_size=10).map(b"".join) | _VALID_HEADER,
    payload=st.binary(max_size=12) | st.sampled_from([bytes(9), b"\x0f" * 9, b"\x10" * 9]),
)
@example(header=b"P5 # comment\n# full line\n 3\t2 # widthxheight\n255\n", payload=bytes(6))
@example(header=b"P5\x0b2\x0c1\r#c\r255 #at eof", payload=b"")
@example(header=b"P5 2 1 15\n", payload=b"\x0f\x10")
def test_header_tokens_match_byte_loop(header, payload):
    data = header + payload
    for cut in range(len(data) + 1):
        assert _outcome(read_pgm, data[:cut]) == _outcome(_byte_loop_read_pgm, data[:cut])


def test_read_pgm_whitespace_valued_pixels():
    # A pixel byte equal to '\n' or ' ' must survive; only one separator byte
    # after maxval belongs to the header.
    frame = np.array([[10, 32, 0]], dtype=np.uint8)
    np.testing.assert_array_equal(read_pgm(write_pgm(frame)), frame)


def test_read_pgm_header_comments_and_padding():
    data = b"P5 # comment\n# full line\n 3\t2 # widthxheight\n255\n" + bytes(6)
    frame = read_pgm(data)
    assert frame.shape == (2, 3)
    assert not frame.any()


def test_read_pgm_small_maxval_accepted():
    frame = read_pgm(b"P5\n2 1\n15\n\x01\x02")
    np.testing.assert_array_equal(frame, [[1, 2]])


def test_read_pgm_pixel_above_maxval(tmp_path):
    with pytest.raises(PixelRangeError, match="pixel value 16 > maxval 15"):
        read_pgm(b"P5\n2 1\n15\n\x0f\x10")
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n2 1\n1\n\x01\xff")
    with pytest.raises(PixelRangeError, match="pixel value 255 > maxval 1") as info:
        read_pgm_file(path)
    assert str(path) in str(info.value)


def test_read_pgm_trailing_bytes_ignored():
    frame = read_pgm(b"P5\n2 1\n255\n\x01\x02extra")
    np.testing.assert_array_equal(frame, [[1, 2]])


def test_read_pgm_bad_magic():
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P2\n2 1\n255\n\x01\x02")
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"")


def test_read_pgm_bad_header_fields():
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P5\n-2 1\n255\n\x01\x02")
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P5\n2 x\n255\n\x01\x02")
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P5\n0 1\n255\n")
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P5\n2 1\n0\n\x01\x02")
    with pytest.raises(MalformedHeaderError):
        read_pgm(b"P5\n2 1\n255")  # nothing after maxval
    with pytest.raises(MalformedHeaderError, match="^width field too long: 5000 digits$"):
        read_pgm(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x01")


def test_read_pgm_maxval_too_large():
    with pytest.raises(UnsupportedMaxvalError):
        read_pgm(b"P5\n2 1\n65535\n\x00\x00\x00\x00")


def test_read_pgm_truncated_payload():
    with pytest.raises(TruncatedDataError):
        read_pgm(b"P5\n2 2\n255\n\x01\x02\x03")


def test_pgm_file_round_trip(tmp_path):
    frame = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "f.pgm"
    write_pgm_file(path, frame)
    np.testing.assert_array_equal(read_pgm_file(path), frame)


def test_frame_path_zero_padded():
    assert frame_path("clips", 7).endswith("000007.pgm")
    assert frame_path("clips", 123456).endswith("123456.pgm")
    assert frame_path("clips", 1234567).endswith("1234567.pgm")


def test_read_pgm_file_error_names_file(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P6\n2 1\n255\n\x01\x02")
    with pytest.raises(MalformedHeaderError, match="bad magic") as info:
        read_pgm_file(path)
    assert str(path) in str(info.value)


def test_scan_frame_dir_counts_only_frame_path_names(tmp_path):
    for name in ("999999.pgm", "1000000.pgm", "0000001.pgm", "000002.pgm.bak",
                 "12345.pgm", "abcdef.pgm", "٠٠٠٠٠٣.pgm", "notes.txt"):
        (tmp_path / name).write_bytes(b"")
    record = scan_frame_dir(str(tmp_path))
    assert (record.start, record.end) == (999999, 1000000)
    assert record.dir == str(tmp_path)


def test_scan_frame_dir_names_the_first_gap(tmp_path):
    for index in (4, 5, 7, 9, 9_999_999_999):
        (tmp_path / f"{index:06d}.pgm").write_bytes(b"")
    with pytest.raises(MissingFrameError) as info:
        scan_frame_dir(str(tmp_path))
    assert info.value.index == 6
    assert str(tmp_path / "000006.pgm") in str(info.value)


def test_frame_stack_must_match_its_record():
    stack = np.zeros((3, 2, 2), dtype=np.uint8)
    assert len(FrameSequence(stack, SequenceRecord("c", 5, 7))) == 3
    for end in (6, 8):
        with pytest.raises(ValueError, match=r"stack of shape \(3, 2, 2\) for a record of"):
            FrameSequence(stack, SequenceRecord("c", 5, end))
    # A stream is not read to check it.
    assert len(FrameSequence(iter([]), SequenceRecord("c", 5, 8))) == 4


def test_scan_frame_dir_without_frames(tmp_path):
    (tmp_path / "12345.pgm").write_bytes(b"")
    with pytest.raises(MhiError, match="no NNNNNN.pgm frames"):
        scan_frame_dir(str(tmp_path))


# --- manifests ---

def test_load_manifest_order_and_fields():
    text = (
        '{"dir": "a", "label": "walk", "start": 0, "end": 9}\n'
        "\n"
        '{"dir": "b", "start": 5, "end": 5}\n'
    )
    records = load_manifest(text)
    assert records == [
        SequenceRecord(dir="a", start=0, end=9, label="walk"),
        SequenceRecord(dir="b", start=5, end=5, label=None),
    ]
    assert records[0].length == 10
    assert records[1].length == 1


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1, 2]",
        '{"dir": "a", "start": 0}',
        '{"dir": "a", "start": 0, "end": 3, "extra": 1}',
        '{"dir": "", "start": 0, "end": 3}',
        '{"dir": "a", "start": true, "end": 3}',
        '{"dir": "a", "start": 0.5, "end": 3}',
        '{"dir": "a", "start": -1, "end": 3}',
        '{"dir": "a", "start": 0, "end": 3, "label": ""}',
    ],
)
def test_load_manifest_rejects_bad_records(line):
    with pytest.raises(ManifestParseError):
        load_manifest(line)


def test_load_manifest_error_carries_line_number():
    text = '{"dir": "a", "start": 0, "end": 1}\nbroken\n'
    with pytest.raises(ManifestParseError) as info:
        load_manifest(text)
    assert info.value.line_no == 2
    assert "line 2" in str(info.value)


_MANIFEST_TEXT = st.text(min_size=1) | st.sampled_from(
    ['a "quoted" dir', "com,ma", "naïve/clip", "行動", "tab\tand\nnewline", "\u2028"]
)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.builds(
        lambda d, label, start, extra: SequenceRecord(d, start, start + extra, label),
        _MANIFEST_TEXT, st.none() | _MANIFEST_TEXT,
        st.integers(0, 10**7), st.integers(0, 10**7),
    ),
    max_size=5,
))
def test_manifest_file_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.jsonl")
        write_manifest_file(path, records)
        assert load_manifest_file(path) == records


def test_write_manifest_file_bytes(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_manifest_file(path, [SequenceRecord("a", 0, 9, "walk"), SequenceRecord("b", 5, 5)])
    assert path.read_bytes() == (
        b'{"dir": "a", "label": "walk", "start": 0, "end": 9}\n'
        b'{"dir": "b", "label": null, "start": 5, "end": 5}\n'
    )


def test_load_manifest_reversed_range():
    with pytest.raises(FrameRangeError) as info:
        load_manifest('{"dir": "a", "start": 4, "end": 3}')
    assert info.value.line_no == 1


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_load_manifest_raw_unicode_line_separators(char):
    text = (
        f'{{"dir": "a{char}b", "label": "x{char}y", "start": 0, "end": 1}}\n'
        '{"dir": "c", "start": 2, "end": 3}\n'
    )
    assert load_manifest(text) == [
        SequenceRecord(f"a{char}b", 0, 1, f"x{char}y"),
        SequenceRecord("c", 2, 3),
    ]


_RECORD = {"dir": "clip", "label": "walk", "start": 0, "end": 9}


def _record_with(key, value):
    return json.dumps({**_RECORD, key: value})


_GOOD_OR_BLANK_LINE = st.sampled_from(["", "  ", "\t"]) | st.builds(
    lambda d, label, start, extra: json.dumps(
        {"dir": d, "label": label, "start": start, "end": start + extra}
    ),
    st.text(min_size=1), st.none() | st.text(min_size=1),
    st.integers(0, 10**7), st.integers(0, 10**7),
)

_BAD_LINE = st.one_of(
    # not JSON, or JSON that is not an object
    st.text(st.characters(exclude_characters="\r\n{")).filter(str.strip),
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.lists(st.integers(), max_size=3),
    ).map(json.dumps),
    # an unknown key, or a required key missing
    st.text().filter(lambda key: key not in _RECORD).map(lambda key: _record_with(key, 1)),
    st.sampled_from(["dir", "start", "end"]).map(
        lambda gone: json.dumps({k: v for k, v in _RECORD.items() if k != gone})
    ),
    # a bool, float or string start/end, a negative start, end < start
    st.builds(
        _record_with, st.sampled_from(["start", "end"]),
        st.booleans() | st.floats() | st.text(),
    ),
    st.integers(max_value=-1).map(lambda start: _record_with("start", start)),
    st.builds(
        lambda end, gap: json.dumps({**_RECORD, "start": end + gap, "end": end}),
        st.integers(0, 10**9), st.integers(1, 10**9),
    ),
    # an empty or non-string dir or label
    st.builds(_record_with, st.sampled_from(["dir", "label"]), st.sampled_from(["", 0, []])),
)


@settings(max_examples=300, deadline=None)
@given(
    before=st.lists(_GOOD_OR_BLANK_LINE, max_size=4),
    bad=_BAD_LINE,
    after=st.lists(_GOOD_OR_BLANK_LINE, max_size=4),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
)
@example(before=["", ""], bad="[" * 100_000, after=[], ending="\n")
# An integer too long for ``int()`` makes ``json.loads`` raise a plain ValueError.
@example(before=[], bad='{"dir": "a", "start": 0, "end": 1' + "0" * 5000 + "}", after=[],
         ending="\r")
def test_load_manifest_names_bad_line(before, bad, after, ending):
    text = ending.join([*before, bad, *after]) + ending
    with pytest.raises((ManifestParseError, FrameRangeError)) as info:
        load_manifest(text)
    assert info.value.line_no == len(before) + 1


# --- sequence loading ---

# --- the header memo: a repeated header is parsed once ---

_PAYLOAD = st.binary(max_size=12) | st.sampled_from(
    [bytes(9), b"\x0f" * 9, b"\x10" * 9, b" \t\n\r\x0b\x0c" * 2, b"#" * 9, b"5\n" * 5])


@st.composite
def _memo_pairs(draw):
    # ``a`` then ``b``: ``b`` shares all of ``a``'s header, a cut of ``a``,
    # ``a``'s header with a few bytes edited, or another header altogether.
    header = draw(_VALID_HEADER)
    a = header + draw(_PAYLOAD)
    kind = draw(st.sampled_from(["payload", "cut", "edit", "other"]))
    if kind == "payload":
        return a, header + draw(_PAYLOAD)
    if kind == "cut":
        return a, a[: draw(st.integers(0, len(a)))]
    if kind == "edit":
        at = draw(st.integers(0, len(header)))
        cut = draw(st.integers(0, 2))
        edited = header[:at] + draw(st.binary(max_size=3)) + header[at + cut :]
        return a, edited + draw(_PAYLOAD)
    return a, draw(_VALID_HEADER | st.lists(_HEADER_PIECES, max_size=10).map(b"".join)) \
        + draw(_PAYLOAD)


_MEMO_EXAMPLES = [
    (b"P5 # c\n2 1\n255\n\x01\x02", b"P5 # c\n2 1\n255\n\x03\x04"),  # comment
    (b"P5 # c\n2 1\n255\n\x01\x02", b"P5 # c2 1\n255\n\x03\x04"),  # it eats a token
    (b"P5\t 2 \r\n1\x0b255\x0c\x01\x02", b"P5\t 2 \r\n1\x0b255\x0c\xff"),  # padding
    (b"P5 2 1 15\n\x0f\x0f", b"P5 2 1 15\n\x0f\x10"),  # maxval below 255
    (b"P5 2 2 255\n" + bytes(4), b"P5 2 2 255\n" + bytes(3)),  # truncated payload
    (b"P5 3 1 255\n\n\t ", b"P5 3 1 255\n \r\x0b"),  # whitespace-valued pixels
    (b"P5 2 1 25\n\x01\x02", b"P5 2 1 255\n\x01\x02"),  # a header only as a prefix
    (b"P5 1 1 255\n\x01", b"P5 12 1 255\n" + bytes(12)),
    (b"P5 2 1 2\n\x01\x02", b"P5 2 1 2"),
]


def _memo_examples(test):
    for pair in reversed(_MEMO_EXAMPLES):
        test = example(pair)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(_memo_pairs())
@_memo_examples
def test_read_pgm_after_another_equals_read_pgm_alone(pair):
    """``read_pgm(b)`` decodes or fails alike whatever header it decoded before."""
    a, b = pair
    imgio._last_header = None
    alone = _outcome(read_pgm, b)
    imgio._last_header = None
    _outcome(read_pgm, a)
    assert _outcome(read_pgm, b) == alone


@settings(max_examples=300, deadline=None)
@given(_memo_pairs())
@_memo_examples
def test_read_pgm_file_after_another_equals_read_pgm_file_alone(pair):
    """File ``b`` read after file ``a`` decodes or fails as with no memo,
    whether the read sized from ``a``'s header or ``fstat`` serves it."""
    a, b = pair
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.pgm"), os.path.join(tmp, "b.pgm")
        for path, data in ((first, a), (second, b)):
            with open(path, "wb") as fh:
                fh.write(data)
        imgio._last_header = None
        alone = _outcome(read_pgm_file, second)
        imgio._last_header = None
        _outcome(read_pgm_file, first)
        assert _outcome(read_pgm_file, second) == alone


def test_read_pgm_parses_a_repeated_header_once():
    imgio._last_header = None
    with mock.patch.object(imgio, "_header", wraps=imgio._header) as parse:
        for pixels in (b"\x01\x02", b"\x03\x04", b"\x05\x06"):
            assert read_pgm(b"P5 2 1 255\n" + pixels).tobytes() == pixels
        assert parse.call_count == 1
        read_pgm(b"P5 2 1 254\n\x01\x02")
        assert parse.call_count == 2


def test_read_pgm_returns_a_view_and_load_sequence_a_stack(tmp_path):
    data = b"P5 2 1 255\n\x01\x02"
    frame = read_pgm(data)
    assert not frame.flags.writeable
    assert frame.base is not None
    _write_frames(tmp_path / "clip", 0, 3)
    stack = load_sequence(SequenceRecord(dir="clip", start=0, end=2), root=tmp_path).frames
    assert stack.flags.writeable
    stack[0, 0, 0] = 9


def _write_frames(directory, start, count, shape=(4, 5)):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(start, start + count):
        frame = np.full(shape, i % 256, dtype=np.uint8)
        write_pgm_file(frame_path(directory, i), frame)


def test_load_sequence_stacks_frames(tmp_path):
    _write_frames(tmp_path / "clip", 3, 4)
    record = SequenceRecord(dir="clip", start=3, end=6)
    seq = load_sequence(record, root=tmp_path)
    assert len(seq) == 4
    assert seq.frames.shape == (4, 4, 5)
    assert seq.frames.dtype == np.uint8
    assert seq.record == record
    assert seq.frames[1][0, 0] == 4


def test_load_sequence_missing_frame_absolute_index(tmp_path):
    _write_frames(tmp_path / "clip", 0, 3)
    (tmp_path / "clip" / "000001.pgm").unlink()
    with pytest.raises(MissingFrameError) as info:
        load_sequence(SequenceRecord(dir="clip", start=0, end=2), root=tmp_path)
    assert info.value.index == 1


def test_load_sequence_dimension_mismatch(tmp_path):
    _write_frames(tmp_path / "clip", 0, 2)
    write_pgm_file(frame_path(tmp_path / "clip", 2), np.zeros((9, 9), dtype=np.uint8))
    with pytest.raises(DimensionMismatchError) as info:
        load_sequence(SequenceRecord(dir="clip", start=0, end=2), root=tmp_path)
    assert info.value.index == 2


def test_read_frames_yields_the_frames_before_a_bad_one(tmp_path):
    _write_frames(tmp_path / "clip", 3, 5)
    (tmp_path / "clip" / "000006.pgm").unlink()
    frames = read_frames(SequenceRecord(dir="clip", start=3, end=7), root=tmp_path)
    assert [int(next(frames)[0, 0]) for _ in range(3)] == [3, 4, 5]
    with pytest.raises(MissingFrameError) as info:
        next(frames)
    assert info.value.index == 6
    assert str(tmp_path / "clip" / "000006.pgm") in str(info.value)


def test_load_sequence_stacks_what_read_frames_yields(tmp_path):
    _write_frames(tmp_path / "clip", 0, 5, shape=(3, 7))
    record = SequenceRecord(dir="clip", start=1, end=4)
    frames = list(read_frames(record, root=tmp_path))
    np.testing.assert_array_equal(load_sequence(record, root=tmp_path).frames, np.stack(frames))


@pytest.mark.parametrize("directory", ["", "d", "d/"])
@pytest.mark.parametrize("rooted", [False, True])
def test_read_frames_names_the_path_frame_path_gives(tmp_path, monkeypatch, directory, rooted):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "root" if rooted else None
    frames = read_frames(SequenceRecord(dir=directory, start=7, end=8), root=root)
    with pytest.raises(MissingFrameError) as info:
        next(frames)
    joined = os.path.join(root, directory) if rooted else directory
    assert str(info.value) == f"missing frame 7 ({frame_path(joined, 7)})"


def test_load_sequence_frame_entry_not_a_file(tmp_path):
    # Only an absent frame is a MissingFrameError; any other failed open
    # surfaces as an OSError that names the path.
    _write_frames(tmp_path / "clip", 0, 3)
    (tmp_path / "clip" / "000001.pgm").unlink()
    (tmp_path / "clip" / "000001.pgm").mkdir()
    with pytest.raises(OSError) as info:
        load_sequence(SequenceRecord(dir="clip", start=0, end=2), root=tmp_path)
    assert not isinstance(info.value, MhiError)
    assert "000001.pgm" in str(info.value)


# --- read_frames: headers that change from file to file ---

def _write_files(directory, files):
    """Write each ``bytes`` of ``files`` as the frame file of consecutive
    indices from 0; return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = [frame_path(directory, i) for i in range(len(files))]
    for path, data in zip(paths, files):
        with open(path, "wb") as fh:
            fh.write(data)
    return paths


def _clip_files(*headers, pixels=bytes(6)):
    return [header + pixels for header in headers]


def test_read_frames_header_change_mid_sequence(tmp_path):
    # A comment, then another maxval: every frame kept.
    canonical, comment, low = b"P5\n3 2\n255\n", b"P5\n#c\n3 2\n255\n", b"P5\n3 2\n200\n"
    pixels = bytes(range(0, 120, 20))
    _write_files(tmp_path / "clip", _clip_files(canonical, canonical, comment, low, low,
                                                canonical, pixels=pixels))
    frames = list(read_frames(SequenceRecord(dir="clip", start=0, end=5), root=tmp_path))
    assert [frame.tobytes() for frame in frames] == [pixels] * 6
    # Another size after a repeated header.
    paths = _write_files(tmp_path / "sized", _clip_files(canonical, canonical)
                         + [b"P5\n2 3\n255\n" + bytes(6)])
    frames = read_frames(SequenceRecord(dir="sized", start=0, end=2), root=tmp_path)
    assert len([next(frames), next(frames)]) == 2
    with pytest.raises(DimensionMismatchError) as info:
        next(frames)
    assert info.value.index == 2
    assert str(info.value).startswith(f"{paths[2]}: frame 2 is 2x3, expected 3x2")


@pytest.mark.parametrize("last, error, message", [
    (b"P5\n3 2\n200\n" + bytes(5), TruncatedDataError, "expected 6 pixel bytes, got 5"),
    (b"P5\n3 2\n200\n" + bytes(5) + b"\xc9", PixelRangeError, "pixel value 201 > maxval 200"),
])
def test_read_frames_checks_each_payload_after_a_repeated_header(tmp_path, last, error,
                                                                 message):
    paths = _write_files(tmp_path / "clip", _clip_files(b"P5\n3 2\n200\n",
                                                        b"P5\n3 2\n200\n") + [last])
    frames = read_frames(SequenceRecord(dir="clip", start=0, end=2), root=tmp_path)
    assert len([next(frames), next(frames)]) == 2
    with pytest.raises(error) as info:
        next(frames)
    assert str(info.value) == f"{paths[2]}: {message}"


def test_read_pgm_file_reads_a_repeated_header_without_fstat_or_a_parse(tmp_path):
    pixels = bytes(range(0, 120, 20))
    paths = _write_files(tmp_path / "clip", _clip_files(*[b"P5\n3 2\n200\n"] * 6,
                                                        pixels=pixels))
    imgio._last_header = None
    read_pgm_file(paths[0])
    with mock.patch.object(imgio.os, "fstat", wraps=os.fstat) as fstat, \
            mock.patch.object(imgio, "_header", wraps=imgio._header) as parse:
        frames = [read_pgm_file(path) for path in paths[1:]]
    assert (fstat.call_count, parse.call_count) == (0, 0)
    assert [(frame.shape, frame.tobytes()) for frame in frames] == [((2, 3), pixels)] * 5


def test_read_frames_decodes_every_file_through_read_pgm(tmp_path):
    # A traced run counts frames and bytes at ``read_pgm``.
    _write_files(tmp_path / "clip", _clip_files(*[b"P5\n3 2\n255\n"] * 4)
                 + [b"P5\n3 2\n255\n" + bytes(8)])  # the last one is longer than its frame
    imgio._last_header = None
    with mock.patch.object(imgio, "read_pgm", wraps=imgio.read_pgm) as decode:
        frames = list(read_frames(SequenceRecord(dir="clip", start=0, end=4), root=tmp_path))
    assert [len(call.args[0]) for call in decode.call_args_list] == [17] * 4 + [19]
    assert [frame.shape for frame in frames] == [(2, 3)] * 5


def test_a_header_whose_frame_fails_is_not_kept(tmp_path):
    # A header claiming 10**10 pixels over 4 bytes must not size the next read.
    good, huge = tmp_path / "good.pgm", tmp_path / "huge.pgm"
    write_pgm_file(good, np.arange(20, dtype=np.uint8).reshape(4, 5))
    huge.write_bytes(b"P5 100000 100000 255\n" + bytes(4))
    imgio._last_header = None
    read_pgm_file(good)
    kept = imgio._last_header
    with pytest.raises(TruncatedDataError):
        read_pgm_file(huge)
    assert imgio._last_header == kept
    tracemalloc.start()
    try:
        frame = read_pgm_file(good)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert frame.tobytes() == bytes(range(20))
