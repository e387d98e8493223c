"""MHI recurrence, template assembly, and display normalization."""

import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mhi import temporal
from mhi.errors import DimensionMismatchError, TooFewFramesError
from mhi.imgio import FrameSequence, SequenceRecord
from mhi.imgproc import frame_diff, gaussian_smooth, morph_open
from mhi.temporal import (
    _BLOCK,
    TemporalTemplate,
    build_template,
    mhi_step,
    motion_masks,
    normalize_mhi,
)


def window_templates(seq, theta, tau, size, starts):
    """The ``TemplateBlock``s of the ``size``-frame windows of ``seq`` at
    ``starts``, as ``predict`` makes them."""
    return temporal.pack_templates(temporal.fold_history(seq, theta, tau, size, starts), tau)


def fold(masks, tau):
    values = np.zeros(masks[0].shape)
    for mask in masks:
        values = mhi_step(values, mask, tau)
    return values


def last_activation_oracle(masks, tau):
    # Closed form: tau minus steps since the last activation, floored at 0.
    steps = len(masks)
    h, w = masks[0].shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            last = None
            for t, mask in enumerate(masks, start=1):
                if mask[y, x]:
                    last = t
            if last is not None:
                out[y, x] = max(0.0, tau - (steps - last))
    return out


def test_mhi_step_sets_and_decays():
    stepped = mhi_step(np.array([[5.0, 0.0, 1.0]]), np.array([[0, 1, 0]], dtype=np.uint8), 9)
    np.testing.assert_array_equal(stepped, [[4.0, 9.0, 0.0]])


def test_mhi_step_reachable_values_only():
    rng = np.random.Generator(np.random.PCG64(7))
    history = np.zeros((6, 6))
    for _ in range(30):
        mask = (rng.random((6, 6)) < 0.3).astype(np.uint8)
        prev = history.copy()
        history = mhi_step(history, mask, 12)
        expected_decay = np.maximum(prev - 1, 0)
        on_either = (history == 12) | (history == expected_decay)
        assert on_either.all()


def test_mhi_step_shape_check():
    with pytest.raises(DimensionMismatchError):
        mhi_step(np.zeros((2, 2)), np.zeros((3, 3), dtype=np.uint8), 5)


def test_fold_matches_closed_form():
    rng = np.random.Generator(np.random.PCG64(8))
    for tau in (5, 20, 300):
        for _ in range(20):
            masks = [(rng.random((8, 8)) < 0.3).astype(np.uint8) for _ in range(20)]
            np.testing.assert_array_equal(
                fold(masks, tau), last_activation_oracle(masks, tau)
            )


def make_translating_sequence(frames=20, size=32, rect=8, step=1, start=0):
    stack = np.zeros((frames, size, size), dtype=np.uint8)
    for t in range(frames):
        x = start + t * step
        stack[t, 12 : 12 + rect, x : x + rect] = 255
    return FrameSequence(stack, SequenceRecord("clip", 0, frames - 1))


def test_template_monotone_gradient_along_motion():
    seq = make_translating_sequence(frames=20, step=1)
    template = build_template(seq, theta=10.0, tau=20)
    values = template.mhi
    cols = np.nonzero(values.any(axis=0))[0]
    rightmost = values[:, cols[-1]]
    leftmost = values[:, cols[0]]
    assert rightmost.max() > leftmost.max()
    # Along the trailing-edge sweep the column maxima never decrease (the
    # smoothed edge lights a few columns at once, so ties occur). The
    # rightmost columns mix both edge tracks and are not cleanly ordered.
    maxima = [values[:, c].max() for c in cols[:20]]
    assert all(b >= a for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] > maxima[0]


def test_template_mei_is_mask_union():
    seq = make_translating_sequence(frames=10)
    template = build_template(seq, theta=10.0, tau=30)
    masks = motion_masks(seq.frames, 10.0)
    union = np.zeros_like(masks[0])
    for mask in masks:
        union = np.maximum(union, mask)
    np.testing.assert_array_equal(template.mei, union)
    # Window <= tau, so MHI and MEI share their support exactly.
    np.testing.assert_array_equal(template.mhi > 0, union > 0)


def test_template_trailing_window_only():
    # 12 frames -> 11 masks but tau=4: only the last 4 steps contribute.
    seq = make_translating_sequence(frames=12, step=2)
    template = build_template(seq, theta=10.0, tau=4)
    assert template.frame_span == (7, 11)
    full = build_template(seq, theta=10.0, tau=30)
    assert (template.mhi > 0).sum() < (full.mhi > 0).sum()
    assert template.mei.sum() < full.mei.sum()


def test_template_frame_span_offset_record():
    stack = make_translating_sequence(frames=6).frames
    seq = FrameSequence(stack, SequenceRecord("clip", start=100, end=105))
    template = build_template(seq, theta=10.0, tau=300)
    assert template.frame_span == (100, 105)


def test_reverse_time_same_mei_different_mhi():
    seq = make_translating_sequence(frames=12)
    reversed_seq = FrameSequence(seq.frames[::-1].copy(), seq.record)
    fwd = build_template(seq, theta=10.0, tau=12)
    bwd = build_template(reversed_seq, theta=10.0, tau=12)
    np.testing.assert_array_equal(fwd.mei, bwd.mei)
    assert not np.array_equal(fwd.mhi, bwd.mhi)


def test_build_template_needs_two_frames():
    seq = FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8), SequenceRecord("c", 0, 0))
    with pytest.raises(TooFewFramesError):
        build_template(seq, theta=10.0, tau=5)


def test_static_sequence_gives_empty_template():
    stack = np.full((5, 8, 8), 50, dtype=np.uint8)
    seq = FrameSequence(stack, SequenceRecord("c", 0, 4))
    template = build_template(seq, theta=10.0, tau=10)
    assert not template.mhi.any()
    assert not template.mei.any()


def template_of(mhi, tau):
    mhi = np.asarray(mhi, dtype=np.float64)
    return TemporalTemplate(mhi, (mhi > 0).astype(np.uint8), (0, 1), tau)


def test_normalize_mhi_rounding():
    template = template_of([[300.0, 150.0, 0.0]], tau=300)
    np.testing.assert_array_equal(normalize_mhi(template), [[255, 128, 0]])


def test_normalize_mhi_all_zero():
    assert not normalize_mhi(template_of(np.zeros((3, 3)), tau=7)).any()


def test_tau_validation():
    with pytest.raises(ValueError):
        template_of(np.zeros((2, 2)), tau=0)
    with pytest.raises(ValueError):
        build_template(make_translating_sequence(frames=4), theta=10.0, tau=0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8))
    .flatmap(lambda shape: arrays(np.uint8, shape)),
    st.floats(0, 300),
)
def test_motion_masks_match_per_frame_pipeline(frames, theta):
    smoothed = [gaussian_smooth(f) for f in frames]
    expected = [
        morph_open(frame_diff(smoothed[i], smoothed[i + 1], theta))
        for i in range(len(frames) - 1)
    ]
    got = motion_masks(frames, theta)
    assert got.shape == (len(frames) - 1, *frames.shape[1:])
    for mask, want in zip(got, expected):
        np.testing.assert_array_equal(mask, want)


def _peak_blocks(drain):
    """The ``tracemalloc`` peak of ``drain(seq)`` over a seeded 300-frame
    128x128 stream, ten mask blocks, in units of one block of ``_BLOCK``
    frames. It counts numpy's own allocations as ``tracemalloc`` sees them."""
    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 256, (128, 128), dtype=np.uint8) for _ in range(300)]
    seq = FrameSequence(iter(frames), SequenceRecord("c", 0, 299))
    tracemalloc.start()
    try:
        for _ in drain(seq):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (_BLOCK * 128 * 128)


def test_masks_of_a_long_stream_peak_at_a_few_frame_blocks():
    """Measured at 5.13 blocks on numpy 2.4.6. The peak passes 5.5 if the
    opening allocates its result rather than reusing its temporary, or if
    the smoothed stack is still held during the opening."""
    assert _peak_blocks(lambda seq: temporal._masks(seq, 10.0)) <= 5.5


def test_fold_releases_each_mask_block_before_the_next():
    """Stride-1 windows over the same stream: measured at 4.29 blocks on
    numpy 2.4.6, and at 5.29 when the fold holds the last block while the
    next one is made."""
    def windows(seq):
        return temporal.fold_history(seq, 10.0, 29, 30, range(271))

    assert _peak_blocks(windows) <= 4.75


def test_stream_shorter_than_its_record_is_an_error():
    frames = make_translating_sequence(frames=5).frames
    seq = FrameSequence(iter(list(frames[:3])), SequenceRecord("c", 0, 4))
    with pytest.raises(ValueError, match="frames ended after 3 of 5"):
        build_template(seq, theta=10.0, tau=5)


def test_stream_frame_of_another_shape_or_type_is_an_error():
    frames = list(make_translating_sequence(frames=5).frames)
    frames[3] = frames[3][:, :-1]
    seq = FrameSequence(iter(frames), SequenceRecord("c", 10, 14))
    with pytest.raises(DimensionMismatchError, match="frame 13") as info:
        build_template(seq, theta=10.0, tau=5)
    assert info.value.index == 13
    frames[3] = frames[2].astype(np.int16)
    with pytest.raises(ValueError, match="expected uint8 frame"):
        build_template(FrameSequence(iter(frames), seq.record), theta=10.0, tau=5)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -1.0])
def test_motion_masks_rejects_bad_theta(theta):
    frames = np.zeros((3, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="theta"):
        motion_masks(frames, theta)


def test_motion_masks_needs_a_stack():
    with pytest.raises(ValueError):
        motion_masks(np.zeros((4, 4), dtype=np.uint8), 10.0)


def blocky_frames(rng, n, h, w):
    # 3x3-pixel blocks, each redrawn with probability 0.2 per frame, so some
    # motion survives the opening and pixels go idle for varying spans.
    frames = np.empty((n, 3 * h, 3 * w), dtype=np.uint8)
    frame = rng.integers(0, 256, (h, w))
    for i in range(n):
        frame = np.where(rng.random((h, w)) < 0.2, rng.integers(0, 256, (h, w)), frame)
        frames[i] = np.kron(frame, np.ones((3, 3), dtype=np.int64))
    return frames


def window_oracle(frames, theta, tau, size, start, base):
    # The mhi_step fold and mask union over the window's trailing masks.
    steps = min(size - 1, tau)
    masks = motion_masks(frames[start : start + size], theta)[-steps:]
    end = base + start + size - 1
    return fold(masks, tau), np.bitwise_or.reduce(masks), (end - steps, end)


@st.composite
def window_cases(draw):
    n = draw(st.integers(2, 3 * _BLOCK))
    size = draw(st.integers(2, n))
    tau = draw(st.integers(1, 40))
    # Up to two mask blocks between window ends, so a run of masks can
    # cross a mask-block seam.
    stride = draw(st.one_of(st.integers(1, 5), st.integers(6, 2 * _BLOCK)))
    per_block = draw(st.one_of(st.none(), st.integers(1, 9)))  # None: the frame-area default
    return n, size, tau, stride, draw(st.integers(0, 2**32 - 1)), per_block


@settings(max_examples=40, deadline=None)
@given(window_cases())
@example((20, 15, 4, 1, 1, None))               # size - 1 > tau
@example((12, 6, 1, 1, 2, 3))                   # tau = 1, blocks of 3, 3 and 1
@example((20, 8, 10, 5, 3, 2))                  # stride 5, trailing window clamped to 12
@example((2 * _BLOCK + 15, 30, 12, 1, 4, 4))    # windows straddle mask and window-block seams
@example((2 * _BLOCK + 15, 30, 12, 1, 4, None))
@example((3 * _BLOCK, 3 * _BLOCK, 300, 1, 5, 1))
# Mask blocks span frames 0-31, 31-62 and 62-93; these videos end one frame
# before, at and after the end of the first and the second block.
@example((2, 2, 5, 1, 13, None))
@example((_BLOCK - 1, 12, 300, 6, 6, None))
@example((_BLOCK, _BLOCK, 300, 1, 7, None))      # the window is the whole video
@example((_BLOCK + 1, 2, 1, 1, 8, 3))
@example((2 * _BLOCK - 2, 30, 12, 100, 9, None))  # stride longer than the video
@example((2 * _BLOCK - 1, 12, 12, 6, 10, 2))
@example((2 * _BLOCK, 33, 40, 1, 11, None))
@example((2 * _BLOCK + 1, 2 * _BLOCK + 1, 20, 1, 12, None))
# Runs of masks between window ends that cross mask-block seams.
@example((2 * _BLOCK + 5, 2 * _BLOCK + 5, 300, 1, 14, None))  # one whole-clip run, two seams
@example((3 * _BLOCK, 10, 40, _BLOCK - 1, 15, None))
@example((3 * _BLOCK, 12, 40, 2 * _BLOCK, 16, 2))
@example((2 * _BLOCK + 7, 20, 5, 7, 17, 2))                  # tau < size - 1, stride 7
def test_window_templates_match_fold_oracle(case):
    n, size, tau, stride, seed, per_block = case
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = blocky_frames(rng, n, 4, 5)
    base = int(rng.integers(0, 100))
    record = SequenceRecord("clip", base, base + n - 1)
    starts = list(range(0, n - size + 1, stride))
    if starts[-1] != n - size:
        starts.append(n - size)
    values = temporal._BLOCK_VALUES if per_block is None else per_block * frames[0].size
    # A block is valid until the next one is drawn, so each is copied as drawn.
    with mock.patch.object(temporal, "_BLOCK_VALUES", values):
        blocks = [copy.deepcopy(b) for b in
                  window_templates(FrameSequence(frames, record), 10.0, tau, size, starts)]
        # The frames handed over one by one, as ``read_frames`` does.
        streamed = [copy.deepcopy(b) for b in
                    window_templates(FrameSequence(iter(list(frames)), record),
                                     10.0, tau, size, starts)]
    assert [b.spans for b in streamed] == [b.spans for b in blocks]
    for got, want in zip(streamed, blocks):
        np.testing.assert_array_equal(got.mhi, want.mhi)
        np.testing.assert_array_equal(got.mei, want.mei)
    # Every block but the last holds B windows, B following the frame area.
    full = max(1, min(temporal._BLOCK_WINDOWS, values // frames[0].size))
    assert [len(b.spans) for b in blocks] == [
        min(full, len(starts) - lo) for lo in range(0, len(starts), full)
    ]
    windows = []
    for block in blocks:
        assert block.mhi.shape == block.mei.shape == (len(block.spans), *frames.shape[1:])
        windows.extend(zip(block.mhi, block.mei, block.spans))
    assert len(windows) == len(starts)
    for start, (got_mhi, got_mei, got_span) in zip(starts, windows):
        mhi, mei, span = window_oracle(frames, 10.0, tau, size, start, base)
        assert got_mhi.dtype == mhi.dtype == np.float64
        assert got_mei.dtype == mei.dtype == np.uint8
        np.testing.assert_array_equal(got_mhi, mhi)
        # Bytes, so an idle pixel written as -0.0 fails too.
        assert got_mhi.tobytes() == mhi.tobytes()
        np.testing.assert_array_equal(got_mei, mei)
        assert got_span == span


def test_whole_clips_pack_into_blocks_as_extract_packs_them():
    """Whole-clip templates packed as ``extract`` packs them: clips of several
    lengths, so ``steps`` differs inside one block, a change of frame shape
    and back, and a partial last block, three windows per block. Each
    template equals its clip's ``build_template`` and the fold oracle, byte
    for byte, and each block's uint8 MEI stack equals its 0/1 MEI half."""
    rng = np.random.Generator(np.random.PCG64(21))
    tau = 9
    clips = [blocky_frames(rng, n, h, w) for n, h, w in
             [(5, 4, 5), (14, 4, 5), (2, 4, 5), (11, 4, 5), (9, 5, 4), (3, 5, 4), (12, 4, 5)]]
    seqs = [FrameSequence(frames, SequenceRecord(f"c{i}", 2 * i, 2 * i + len(frames) - 1))
            for i, frames in enumerate(clips)]
    with mock.patch.object(temporal, "_BLOCK_VALUES", 3 * 12 * 15):
        blocks = [copy.deepcopy(b) for b in temporal.pack_templates(
            (temporal.clip_history(seq, 10.0, tau) for seq in seqs), tau)]
    assert [len(b.spans) for b in blocks] == [3, 1, 2, 1]
    for block in blocks:
        count = len(block.spans)
        assert block.stack.shape == (2 * count, *block.mei.shape[1:])
        assert block.mei.dtype == np.uint8
        assert block.stack[count:].tobytes() == block.mei.astype(np.float64).tobytes()
    windows = [w for block in blocks for w in zip(block.mhi, block.mei, block.spans)]
    assert len(windows) == len(seqs)
    for seq, (mhi, mei, span) in zip(seqs, windows):
        alone = build_template(seq, 10.0, tau)
        assert mhi.tobytes() == alone.mhi.tobytes()
        assert mei.tobytes() == alone.mei.tobytes()
        assert span == alone.frame_span
        want_mhi, want_mei, want_span = window_oracle(seq.frames, 10.0, tau, len(seq), 0,
                                                      seq.record.start)
        assert mhi.tobytes() == want_mhi.tobytes()
        np.testing.assert_array_equal(mei, want_mei)
        assert span == want_span


@pytest.mark.parametrize("tau", [2**31 - 1, 2**31, 2**60])
def test_templates_of_a_tau_past_int32_match_fold_oracle(tau):
    # MHI values are formed in int32 up to 2**31 - 1 and in float64 above.
    frames = blocky_frames(np.random.Generator(np.random.PCG64(14)), 20, 4, 5)
    record = SequenceRecord("clip", 0, len(frames) - 1)
    starts = list(range(0, len(frames) - 8 + 1, 3))
    windows = [(mhi.copy(), mei.copy(), span)
               for block in window_templates(FrameSequence(frames, record), 10.0, tau, 8, starts)
               for mhi, mei, span in zip(block.mhi, block.mei, block.spans)]
    assert len(windows) == len(starts)
    for start, (got_mhi, got_mei, got_span) in zip(starts, windows):
        mhi, mei, span = window_oracle(frames, 10.0, tau, 8, start, 0)
        assert got_mhi.tobytes() == mhi.tobytes()
        np.testing.assert_array_equal(got_mei, mei)
        assert got_span == span


@pytest.mark.parametrize("shape, windows", [
    ((1, 1), 8), ((64, 64), 8), ((128, 128), 8), ((128, 129), 7), ((256, 256), 2),
    ((363, 363), 1), ((4000, 4000), 1),
])
def test_block_size_caps_windows_and_values(shape, windows):
    assert temporal.block_size(shape) == windows


def test_build_template_is_a_one_window_block():
    seq = make_translating_sequence(frames=12, step=2)
    template = build_template(seq, theta=10.0, tau=7)
    (block,) = window_templates(seq, 10.0, 7, 12, [0])
    assert template.tau == 7
    np.testing.assert_array_equal(template.mhi, block.mhi[0])
    np.testing.assert_array_equal(template.mei, block.mei[0])
    assert template.frame_span == block.spans[0] == (4, 11)


def test_an_error_drawing_a_window_leaves_the_packer_at_once():
    # One window and then an error: the first block drawn is the error, not
    # a one-window block that hides it.
    seq = make_translating_sequence(frames=6, step=2)

    def windows():
        yield temporal.clip_history(seq, 10.0, 5)
        raise ValueError("bad window")

    with pytest.raises(ValueError, match="bad window"):
        next(temporal.pack_templates(windows(), 5))
