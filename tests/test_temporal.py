"""MHI recurrence, template assembly, and display normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mhi.errors import DimensionMismatchError, TooFewFramesError
from mhi.imgio import FrameSequence, SequenceRecord
from mhi.imgproc import frame_diff, gaussian_smooth, morph_open
from mhi.temporal import (
    _BLOCK,
    MotionHistory,
    build_template,
    mhi_step,
    motion_masks,
    normalize_mhi,
    window_templates,
)


def fold(masks, tau):
    h, w = masks[0].shape
    history = MotionHistory.zeros(h, w, tau)
    for mask in masks:
        history = mhi_step(history, mask)
    return history


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
    history = MotionHistory(np.array([[5.0, 0.0, 1.0]]), tau=9)
    stepped = mhi_step(history, np.array([[0, 1, 0]], dtype=np.uint8))
    np.testing.assert_array_equal(stepped.values, [[4.0, 9.0, 0.0]])


def test_mhi_step_reachable_values_only():
    rng = np.random.Generator(np.random.PCG64(7))
    history = MotionHistory.zeros(6, 6, 12)
    for _ in range(30):
        mask = (rng.random((6, 6)) < 0.3).astype(np.uint8)
        prev = history.values.copy()
        history = mhi_step(history, mask)
        expected_decay = np.maximum(prev - 1, 0)
        on_either = (history.values == 12) | (history.values == expected_decay)
        assert on_either.all()


def test_mhi_step_shape_check():
    with pytest.raises(DimensionMismatchError):
        mhi_step(MotionHistory.zeros(2, 2, 5), np.zeros((3, 3), dtype=np.uint8))


def test_fold_matches_closed_form():
    rng = np.random.Generator(np.random.PCG64(8))
    for tau in (5, 20, 300):
        for _ in range(20):
            masks = [(rng.random((8, 8)) < 0.3).astype(np.uint8) for _ in range(20)]
            np.testing.assert_array_equal(
                fold(masks, tau).values, last_activation_oracle(masks, tau)
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
    values = template.mhi.values
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
    np.testing.assert_array_equal(template.mhi.values > 0, union > 0)


def test_template_trailing_window_only():
    # 12 frames -> 11 masks but tau=4: only the last 4 steps contribute.
    seq = make_translating_sequence(frames=12, step=2)
    template = build_template(seq, theta=10.0, tau=4)
    assert template.frame_span == (7, 11)
    full = build_template(seq, theta=10.0, tau=30)
    assert (template.mhi.values > 0).sum() < (full.mhi.values > 0).sum()
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
    assert not np.array_equal(fwd.mhi.values, bwd.mhi.values)


def test_build_template_needs_two_frames():
    seq = FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8), SequenceRecord("c", 0, 0))
    with pytest.raises(TooFewFramesError):
        build_template(seq, theta=10.0, tau=5)


def test_static_sequence_gives_empty_template():
    stack = np.full((5, 8, 8), 50, dtype=np.uint8)
    seq = FrameSequence(stack, SequenceRecord("c", 0, 4))
    template = build_template(seq, theta=10.0, tau=10)
    assert not template.mhi.values.any()
    assert not template.mei.any()


def test_normalize_mhi_rounding():
    history = MotionHistory(np.array([[300.0, 150.0, 0.0]]), tau=300)
    np.testing.assert_array_equal(normalize_mhi(history), [[255, 128, 0]])


def test_normalize_mhi_all_zero():
    assert not normalize_mhi(MotionHistory.zeros(3, 3, 7)).any()


def test_tau_validation():
    with pytest.raises(ValueError):
        MotionHistory.zeros(2, 2, 0)


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
    return fold(masks, tau).values, np.bitwise_or.reduce(masks), (end - steps, end)


@st.composite
def window_cases(draw):
    n = draw(st.integers(2, 3 * _BLOCK))
    size = draw(st.integers(2, n))
    tau = draw(st.integers(1, 40))
    stride = draw(st.integers(1, 5))
    return n, size, tau, stride, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(window_cases())
@example((20, 15, 4, 1, 1))               # size - 1 > tau
@example((12, 6, 1, 1, 2))                # tau = 1
@example((20, 8, 10, 5, 3))               # stride 5, trailing window clamped to 12
@example((2 * _BLOCK + 15, 30, 12, 1, 4))  # windows straddle the block seams
@example((3 * _BLOCK, 3 * _BLOCK, 300, 1, 5))
def test_window_templates_match_fold_oracle(case):
    n, size, tau, stride, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = blocky_frames(rng, n, 4, 5)
    base = int(rng.integers(0, 100))
    seq = FrameSequence(frames, SequenceRecord("clip", base, base + n - 1))
    starts = list(range(0, n - size + 1, stride))
    if starts[-1] != n - size:
        starts.append(n - size)
    templates = list(window_templates(seq, 10.0, tau, size, starts))
    assert len(templates) == len(starts)
    for start, got in zip(starts, templates):
        mhi, mei, span = window_oracle(frames, 10.0, tau, size, start, base)
        assert got.mhi.values.dtype == mhi.dtype == np.float64
        assert got.mei.dtype == mei.dtype == np.uint8
        np.testing.assert_array_equal(got.mhi.values, mhi)
        np.testing.assert_array_equal(got.mei, mei)
        assert got.mhi.tau == tau
        assert got.frame_span == span
