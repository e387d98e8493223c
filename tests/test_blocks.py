"""Block-at-a-time features and blob diagnostics equal their per-window oracles.

``predict`` computes the moments and blob labels of B windows at once. These
tests hold every window of every block to oracles that see one window alone:
the literal ``yc[q] @ img @ xc[p]`` moment formulas and a pure-Python flood
fill. The kernel test reruns the comparison in child processes under other
BLAS and SIMD kernels.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mhi
from mhi import temporal
from mhi.diagnostics import detect_secondary_blobs
from mhi.imgio import FrameSequence, SequenceRecord
from mhi.moments import (
    MOMENT_ORDERS,
    MomentSet,
    feature_vectors,
    flusser_i8,
    hu_moments,
    signed_log,
    stack_moments,
)
from mhi.temporal import _BLOCK, motion_masks, window_templates
from test_diagnostics import _flood_fill_diagnostic
from test_temporal import blocky_frames

THETA = 10.0


def literal_invariants(img):
    """[h1..h7, i8] of one image from the literal moment formulas; None at zero mass."""
    img = np.asarray(img, dtype=np.float64)
    x = np.arange(img.shape[1], dtype=np.float64)
    y = np.arange(img.shape[0], dtype=np.float64)
    raw = {(i, j): float((y**j) @ img @ (x**i)) for i, j in MOMENT_ORDERS}
    m00 = raw[(0, 0)]
    if m00 == 0.0:
        return None
    xbar, ybar = raw[(1, 0)] / m00, raw[(0, 1)] / m00
    mu = {
        (p, q): float(((y - ybar) ** q) @ img @ ((x - xbar) ** p))
        for p, q in MOMENT_ORDERS
    }
    nu = {
        (p, q): mu[(p, q)] / m00 ** (1.0 + (p + q) / 2.0)
        for p, q in MOMENT_ORDERS
        if 2 <= p + q <= 3
    }
    ms = MomentSet(raw=raw, centroid=(xbar, ybar), mu=mu, nu=nu)
    return np.append(hu_moments(ms), flusser_i8(ms))


def literal_features(mhi, mei):
    on_mhi, on_mei = literal_invariants(mhi), literal_invariants(mei)
    if on_mhi is None or on_mei is None:
        return None
    return signed_log(np.concatenate([on_mhi, on_mei]))


def same_bits(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got.tobytes() == want.tobytes()
    )


def video_with_still(rng, n, h, w, still_from, still_len):
    """Blocky random frames with frames ``still_from..`` held still: windows
    inside that stretch record no motion."""
    frames = blocky_frames(rng, n, h, w)
    frames[still_from : still_from + still_len] = frames[still_from]
    return frames


def window_blocks(frames, size, tau, starts, per_block):
    seq = FrameSequence(frames, SequenceRecord("clip", 0, len(frames) - 1))
    with mock.patch.object(temporal, "_BLOCK_VALUES", per_block * frames[0].size):
        return list(window_templates(seq, THETA, tau, size, starts))


def block_mismatches(blocks):
    """Windows whose block features or blob diagnostic differ from the oracles."""
    bad = []
    for block in blocks:
        features = feature_vectors(block.mhi, block.mei)
        blobs = detect_secondary_blobs(block.mei)
        assert len(features) == len(blobs) == len(block.spans)
        for mhi, mei, span, got, blob in zip(block.mhi, block.mei, block.spans, features, blobs):
            if not same_bits(got, literal_features(mhi, mei)) or (
                blob != _flood_fill_diagnostic(mei)
            ):
                bad.append(span)
    return bad


def _case(n, size, tau, stride, per_block, h, w, still, seed):
    """Windows as ``predict`` tiles them; frames of ``3h x 3w`` px, ``still``
    a (first frame, length) stretch of unchanged frames."""
    starts = list(range(0, n - size + 1, stride))
    if starts[-1] != n - size:
        starts.append(n - size)
    return dict(n=n, size=size, tau=tau, starts=starts, per_block=per_block,
                h=h, w=w, still=still, seed=seed)


@st.composite
def block_cases(draw):
    n = draw(st.integers(2, 3 * _BLOCK))
    size = draw(st.integers(2, min(n, 40)))
    still_from = draw(st.integers(0, n - 1))
    return _case(
        n, size, tau=draw(st.integers(1, 40)), stride=draw(st.integers(1, 5)),
        per_block=draw(st.integers(1, 9)), h=draw(st.integers(1, 6)), w=draw(st.integers(1, 6)),
        still=(still_from, draw(st.integers(0, n - still_from))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(block_cases())
# 68 windows in blocks of 4 across both mask seams, 27 of them motion-free.
@example(_case(2 * _BLOCK + 15, 12, 9, 1, 4, 5, 4, (20, 36), 1))
# Every window motion-free; 7 windows in blocks of 3.
@example(_case(16, 10, 12, 1, 3, 2, 3, (0, 16), 2))
# One window per block, stride 7 with a clamped trailing window.
@example(_case(3 * _BLOCK, 20, 30, 7, 1, 3, 3, (40, 25), 3))
def test_blocks_match_per_window_oracles(case):
    rng = np.random.Generator(np.random.PCG64(case["seed"]))
    frames = video_with_still(rng, case["n"], case["h"], case["w"], *case["still"])
    blocks = window_blocks(frames, case["size"], case["tau"], case["starts"],
                           case["per_block"])
    assert sum(len(b.spans) for b in blocks) == len(case["starts"])
    assert block_mismatches(blocks) == []


@st.composite
def float_stacks(draw):
    count, h, w = draw(st.integers(1, 9)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.random((count, h, w)) * 10.0 ** draw(st.integers(-3, 3))
    stack[rng.random((count, h, w)) < draw(st.floats(0.0, 1.0))] = 0.0
    stack[rng.random(count) < 0.25] = 0.0   # some images of zero mass
    return stack


@settings(max_examples=60, deadline=None)
@given(float_stacks())
def test_stack_features_match_literal_formulas_on_real_images(stack):
    # Non-integer pixels make the raw sums round, so the order of every
    # addition shows in the bits.
    features = feature_vectors(stack, stack > 0.5)
    for img, got in zip(stack, features):
        assert same_bits(got, literal_features(img, img > 0.5))
    for img, ms in zip(stack, stack_moments(stack)):
        assert (ms is None) == (literal_invariants(img) is None)


# --- the same check under other BLAS and SIMD kernels ---

def kernel_probe() -> dict:
    """Digests of every stage of a fixed block run, and the oracle mismatches.

    Masks, MHI/MEI stacks, blob diagnostics and the raw moments of the
    integer MHIs and MEIs are exact whatever the kernel: each raw-moment
    partial sum is an integer below 2**53. Features are not, so for them only
    the block-versus-oracle comparison is returned.
    """
    rng = np.random.Generator(np.random.PCG64(11))
    frames = video_with_still(rng, 2 * _BLOCK + 15, 10, 12, 30, 20)
    starts = list(range(len(frames) - 14 + 1))
    blocks = window_blocks(frames, 14, 12, starts, 5)

    def digest(arrays):
        hasher = hashlib.sha256()
        for array in arrays:
            hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()

    def raw_moments(stack):
        return [np.array([ms.raw[k] for k in MOMENT_ORDERS]) for ms in stack_moments(stack)
                if ms is not None]

    blobs = [[d.component_count, d.warning] for b in blocks for d in detect_secondary_blobs(b.mei)]
    return {
        "mismatches": len(block_mismatches(blocks)),
        "masks": digest([motion_masks(frames, THETA)]),
        "mhi": digest(b.mhi for b in blocks),
        "mei": digest(b.mei for b in blocks),
        "blobs": hashlib.sha256(json.dumps(blobs).encode()).hexdigest(),
        "raw_mhi": digest(m for b in blocks for m in raw_moments(b.mhi)),
        "raw_mei": digest(m for b in blocks for m in raw_moments(b.mei)),
    }


KERNELS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}


def run_probe(overrides: dict) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(overrides)
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(mhi.__file__))]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    code = "import json, test_blocks; print(json.dumps(test_blocks.kernel_probe()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel names are x86 OpenBLAS and numpy dispatch targets")
def test_blocks_and_exact_stages_hold_under_other_kernels():
    results = {name: run_probe(overrides) for name, overrides in KERNELS.items()}
    assert {name: r["mismatches"] for name, r in results.items()} == dict.fromkeys(KERNELS, 0)
    for name, result in results.items():
        assert result == results["default"], name
