"""Moments, Hu/Flusser invariants, and the 16-entry feature vector."""

import numpy as np
import pytest

from mhi.errors import NoMotionError, ZeroMassError
from mhi.imgio import FrameSequence, SequenceRecord
from mhi.moments import (
    FEATURE_DIM,
    MOMENT_ORDERS,
    LabeledSample,
    feature_vector,
    flusser_i8,
    hu_moments,
    invariants,
    scale_invariant_moments,
    signed_log,
)
from mhi.temporal import build_template


def moments_oracle(img):
    """Nested-loop raw, central, and scale-invariant moments, orders <= 3."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    raw = {}
    for i, j in MOMENT_ORDERS:
        total = 0.0
        for y in range(h):
            for x in range(w):
                total += (x**i) * (y**j) * img[y, x]
        raw[(i, j)] = total
    xbar = raw[(1, 0)] / raw[(0, 0)]
    ybar = raw[(0, 1)] / raw[(0, 0)]
    mu = {}
    for p, q in MOMENT_ORDERS:
        total = 0.0
        for y in range(h):
            for x in range(w):
                total += ((x - xbar) ** p) * ((y - ybar) ** q) * img[y, x]
        mu[(p, q)] = total
    nu = {
        (p, q): mu[(p, q)] / raw[(0, 0)] ** (1.0 + (p + q) / 2.0)
        for p, q in MOMENT_ORDERS
        if 2 <= p + q <= 3
    }
    return raw, (xbar, ybar), mu, nu


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_moment_orders_cover_degree_three():
    assert len(MOMENT_ORDERS) == 10
    assert all(i + j <= 3 for i, j in MOMENT_ORDERS)


def test_unit_square_hand_values():
    ms = scale_invariant_moments(np.ones((2, 2)))
    assert ms.raw[(0, 0)] == 4.0
    assert ms.raw[(1, 0)] == 2.0
    assert ms.raw[(0, 1)] == 2.0
    assert ms.centroid == (0.5, 0.5)
    assert ms.mu[(2, 0)] == 1.0
    assert ms.nu[(2, 0)] == 0.0625
    hu = hu_moments(ms)
    assert hu[0] == 0.125
    assert hu[1] == 0.0
    assert flusser_i8(ms) == 0.0


def test_moments_match_oracle_random():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(30):
        img = rng.random((8, 8))
        ms = scale_invariant_moments(img)
        raw, cent, mu, nu = moments_oracle(img)
        assert np.allclose(ms.centroid, cent, rtol=1e-12, atol=0)
        for key in MOMENT_ORDERS:
            assert rel_close(ms.raw[key], raw[key], 1e-12)
            assert rel_close(ms.mu[key], mu[key], 1e-12)
        for key in nu:
            assert rel_close(ms.nu[key], nu[key], 1e-12)


def test_zero_mass_raises():
    with pytest.raises(ZeroMassError):
        scale_invariant_moments(np.zeros((4, 4)))


def asymmetric_blob(size=24):
    img = np.zeros((size, size))
    img[4:16, 6:11] = 1.0
    img[10:19, 9:18] = 2.5
    img[5:8, 14:17] = 0.7
    return img


def test_invariants_translation_stable():
    img = asymmetric_blob()
    base = invariants(img)
    shifted = np.zeros((40, 40))
    shifted[9:33, 11:35] = img
    moved = invariants(shifted)
    np.testing.assert_allclose(moved, base, rtol=1e-9, atol=1e-30)


def test_invariants_rotation_stable():
    img = asymmetric_blob()
    base = invariants(img)
    for k in (1, 2, 3):
        rotated = invariants(np.rot90(img, k))
        np.testing.assert_allclose(rotated[:7], base[:7], rtol=1e-9, atol=1e-30)
        # I8 is invariant up to sign under reflection-like symmetries; 90
        # degree rotation preserves its magnitude.
        assert np.isclose(abs(rotated[7]), abs(base[7]), rtol=1e-9)


def test_hu1_scale_robust():
    img = asymmetric_blob()
    upsampled = np.kron(img, np.ones((2, 2)))
    h1_base = invariants(img)[0]
    h1_up = invariants(upsampled)[0]
    assert abs(h1_up - h1_base) / abs(h1_base) < 0.02


def test_signed_log_properties():
    values = np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])
    out = signed_log(values)
    assert out[2] == 0.0
    np.testing.assert_allclose(out, -out[::-1])
    assert np.all(np.diff(out) > 0)


def test_signed_log_compresses_decades():
    assert signed_log(np.array([1.0]))[0] == pytest.approx(12.0, abs=1e-9)
    assert signed_log(np.array([1e-6]))[0] == pytest.approx(6.0, abs=1e-6)


def make_moving_template(frames=10, tau=15):
    stack = np.zeros((frames, 24, 24), dtype=np.uint8)
    for t in range(frames):
        stack[t, 8:16, 2 + t : 10 + t] = 255
    seq = FrameSequence(stack, SequenceRecord("clip", 0, frames - 1))
    return build_template(seq, theta=10.0, tau=tau)


def test_feature_vector_shape_and_finiteness():
    features = feature_vector(make_moving_template())
    assert features.shape == (FEATURE_DIM,)
    assert np.all(np.isfinite(features))


def test_feature_vector_translation_invariant():
    template = make_moving_template()
    base = feature_vector(template)
    stack = np.zeros((10, 24, 24), dtype=np.uint8)
    for t in range(10):
        stack[t, 10:18, 4 + t : 12 + t] = 255
    seq = FrameSequence(stack, SequenceRecord("clip", 0, 9))
    shifted = feature_vector(build_template(seq, theta=10.0, tau=15))
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-9)


def test_feature_vector_no_motion():
    stack = np.full((4, 16, 16), 90, dtype=np.uint8)
    seq = FrameSequence(stack, SequenceRecord("clip", 0, 3))
    template = build_template(seq, theta=10.0, tau=10)
    with pytest.raises(NoMotionError):
        feature_vector(template)


def test_labeled_sample_defaults():
    sample = LabeledSample(features=np.zeros(FEATURE_DIM), label="walk")
    assert sample.source == ""
