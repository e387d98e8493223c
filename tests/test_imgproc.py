"""Smoothing, differencing, and morphology against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mhi.errors import DimensionMismatchError
from mhi.imgproc import frame_diff, gaussian_smooth, morph_open


def smooth_oracle(frame):
    # Direct 3x3 binomial convolution with replicated edges and round-half-up,
    # all in exact integer arithmetic.
    kernel = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)
    padded = np.pad(frame.astype(np.int64), 1, mode="edge")
    h, w = frame.shape
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            out[y, x] = (np.sum(padded[y : y + 3, x : x + 3] * kernel) + 8) // 16
    return out.astype(np.uint8)


def erode_oracle(mask):
    padded = np.pad(mask, 1, mode="constant")
    h, w = mask.shape
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            out[y, x] = padded[y : y + 3, x : x + 3].min()
    return out


def dilate_oracle(mask):
    padded = np.pad(mask, 1, mode="constant")
    h, w = mask.shape
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            out[y, x] = padded[y : y + 3, x : x + 3].max()
    return out


def test_smooth_single_bright_pixel():
    frame = np.zeros((3, 3), dtype=np.uint8)
    frame[1, 1] = 16
    expected = [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
    np.testing.assert_array_equal(gaussian_smooth(frame), expected)


def test_smooth_preserves_constant_image():
    for value in (0, 1, 127, 254, 255):
        frame = np.full((5, 7), value, dtype=np.uint8)
        np.testing.assert_array_equal(gaussian_smooth(frame), frame)


def test_smooth_matches_oracle_random():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(40):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        frame = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        got = gaussian_smooth(frame)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, smooth_oracle(frame))


def test_frame_diff_strict_threshold():
    prev = np.array([[10, 10, 10]], dtype=np.uint8)
    curr = np.array([[35, 36, 10]], dtype=np.uint8)
    # |diff| = 25 is not > 25; 26 is.
    np.testing.assert_array_equal(frame_diff(prev, curr, 25.0), [[0, 1, 0]])


def test_frame_diff_symmetric_and_binary():
    rng = np.random.Generator(np.random.PCG64(4))
    a = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
    b = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
    mask = frame_diff(a, b, 40.0)
    np.testing.assert_array_equal(mask, frame_diff(b, a, 40.0))
    assert set(np.unique(mask)) <= {0, 1}


def test_frame_diff_zero_theta():
    prev = np.array([[5, 5]], dtype=np.uint8)
    curr = np.array([[5, 6]], dtype=np.uint8)
    np.testing.assert_array_equal(frame_diff(prev, curr, 0.0), [[0, 1]])


def test_frame_diff_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        frame_diff(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8), 10)


def test_open_removes_speck_keeps_block():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[1, 1] = 1                # isolated speck
    mask[3:7, 3:7] = 1            # 4x4 block
    opened = morph_open(mask)
    assert opened[1, 1] == 0
    np.testing.assert_array_equal(opened[3:7, 3:7], np.ones((4, 4), np.uint8))
    assert opened.sum() == 16


def test_open_matches_oracle_random():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(30):
        mask = (rng.random((10, 10)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(
            morph_open(mask), dilate_oracle(erode_oracle(mask))
        )


def test_open_anti_extensive_and_idempotent():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(50):
        mask = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        opened = morph_open(mask)
        assert np.all(opened <= mask)
        np.testing.assert_array_equal(morph_open(opened), opened)


# --- whole (N, H, W) stacks against the per-frame oracles ---

# Views that leave a stack nonempty but not C-contiguous.
_VIEWS = [
    lambda a: a[::2, ::-1, ::2],
    lambda a: a.transpose(0, 2, 1),
    lambda a: a.transpose(2, 0, 1)[:, ::-1],
    np.asfortranarray,
]


def stacks(max_frames=4, max_side=9, elements=None):
    shape = st.tuples(st.integers(1, max_frames), st.integers(1, max_side),
                      st.integers(1, max_side))
    base = shape.flatmap(lambda s: arrays(np.uint8, s, elements=elements))
    return base | st.tuples(base, st.sampled_from(_VIEWS)).map(lambda bv: bv[1](bv[0]))


# Thresholds at and just off integers, on both sides of 255.
_THETAS = (
    st.integers(0, 300).map(float)
    | st.builds(lambda k, d: k + d, st.integers(1, 256), st.sampled_from([-1e-9, 1e-9, 0.5]))
    | st.sampled_from([254.99, 255.0, 255.5, 1e9])
    | st.floats(0, 300)
)

_EDGE_STACKS = [
    (np.arange(1, np.prod(s) + 1) * 97 % 256).astype(np.uint8).reshape(s)
    for s in ((1, 1, 1), (1, 1, 6), (1, 6, 1), (3, 1, 1))
]


def _check_pure(stage, *inputs):
    # Run ``stage``: it must leave its inputs unchanged and share no memory with them.
    before = [np.array(a) for a in inputs]
    got = stage(*inputs)
    for a, b in zip(inputs, before):
        np.testing.assert_array_equal(a, b)
        assert not np.shares_memory(got, a)
    return got


@settings(max_examples=100, deadline=None)
@given(stacks())
@example(_EDGE_STACKS[0]).via("N = H = W = 1")
@example(_EDGE_STACKS[1]).via("H = 1")
@example(_EDGE_STACKS[2]).via("W = 1")
@example(_EDGE_STACKS[3]).via("H = W = 1")
def test_smooth_stack_matches_oracle(frames):
    got = _check_pure(gaussian_smooth, frames)
    assert got.shape == frames.shape and got.dtype == np.uint8
    for frame, smoothed in zip(frames, got):
        np.testing.assert_array_equal(smoothed, smooth_oracle(frame))


@settings(max_examples=100, deadline=None)
@given(stacks(), _THETAS)
@example(_EDGE_STACKS[3], 0.0).via("H = W = 1")
@example(np.array([[[0, 200, 0]], [[200, 0, 199]]], np.uint8), 199 - 1e-9)
@example(np.array([[[0, 255, 0]], [[255, 0, 254]]], np.uint8), 254.99)
@example(np.array([[[0, 255, 0]], [[255, 0, 254]]], np.uint8), 255.0)
def test_frame_diff_stack_matches_per_pixel(frames, theta):
    got = _check_pure(frame_diff, frames[:-1], frames[1:], theta)
    assert got.shape == (len(frames) - 1, *frames.shape[1:]) and got.dtype == np.uint8
    for i, mask in enumerate(got):
        prev, curr = frames[i].astype(int), frames[i + 1].astype(int)
        np.testing.assert_array_equal(mask, (abs(curr - prev) > theta).astype(np.uint8))


@settings(max_examples=100, deadline=None)
@given(stacks(elements=st.integers(0, 1)))
@example(_EDGE_STACKS[0] & 1).via("N = H = W = 1")
@example(_EDGE_STACKS[1] & 1).via("H = 1")
@example(_EDGE_STACKS[2] & 1).via("W = 1")
def test_open_stack_matches_oracle(masks):
    got = _check_pure(morph_open, masks)
    assert got.shape == masks.shape and got.dtype == np.uint8
    for mask, opened in zip(masks, got):
        np.testing.assert_array_equal(opened, dilate_oracle(erode_oracle(mask)))


def test_stack_shape_errors():
    with pytest.raises(ValueError):
        gaussian_smooth(np.zeros((2, 0, 3), np.uint8))
    with pytest.raises(ValueError):
        gaussian_smooth(np.zeros((1, 2, 2, 2), np.uint8))
    with pytest.raises(DimensionMismatchError):
        frame_diff(np.zeros((2, 3, 3), np.uint8), np.zeros((3, 3, 3), np.uint8), 10)
