"""Block-at-a-time features and blob diagnostics equal their per-window oracles.

``predict`` computes the moments and blob labels of B windows at once, and
``extract`` packs the whole-clip templates of B clips into the same blocks.
The sliding windows are folded from frames handed over one by one, as
``predict`` reads them, and ``extract`` reads its clips' frames that way too.
These tests hold every window of every block to oracles that see one window
alone: the literal ``yc[q] @ img @ xc[p]`` moment formulas and a pure-Python
flood fill, every ``extract`` row to ``feature_vector(build_template(seq))``
of its clip alone, and every ``predict`` entry, whose block tail classifies a
block's windows in one call, to ``build_template`` -> ``feature_vector`` ->
``TrainedModel.predict`` / ``detect_secondary_blob`` on its window alone,
score bits included. The kernel test reruns the comparisons in child processes
under other BLAS and SIMD kernels, together with small ``train_mlp`` runs held
to the former training loop.
"""

import copy
import dataclasses
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mhi
from mhi import moments, temporal
from mhi.classify import KnnModel, MlpConfig, Standardizer, TrainedModel, train_mlp
from mhi.cli import extract_samples, predict_windows
from mhi.diagnostics import detect_secondary_blob, detect_secondary_blobs
from mhi.errors import NoMotionError, ZeroMassError
from mhi.imgio import (
    FrameSequence,
    SequenceRecord,
    frame_path,
    write_manifest_file,
    write_pgm_file,
)
from mhi.moments import (
    MOMENT_ORDERS,
    LabeledSample,
    MomentSet,
    feature_vector,
    flusser_i8,
    hu_moments,
    scale_invariant_moments,
    signed_log,
    stack_features,
)
from mhi.temporal import _BLOCK, build_template, motion_masks
from test_classify import dot_scan_mismatches, training_matches_former_loop, training_samples
from test_diagnostics import _flood_fill_diagnostic
from test_temporal import blocky_frames, window_templates

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


def stack_moments(imgs):
    """``scale_invariant_moments`` of each image of a stack, None at zero mass."""
    sets = []
    for img in imgs:
        try:
            sets.append(scale_invariant_moments(img))
        except ZeroMassError:
            sets.append(None)
    return sets


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
    # The frames are handed over one by one, as ``predict`` reads them. A
    # block is valid until the next one is drawn, so each is copied as drawn.
    seq = FrameSequence(iter(list(frames)), SequenceRecord("clip", 0, len(frames) - 1))
    with mock.patch.multiple(temporal, _BLOCK_WINDOWS=per_block,
                             _BLOCK_VALUES=per_block * frames[0].size):
        return [copy.deepcopy(b) for b in window_templates(seq, THETA, tau, size, starts)]


def block_features(stack, tau=None):
    """``stack_features`` of a block's stack, as ``predict`` calls it with its
    templates' ``tau``, with None for each window without motion."""
    features, moving = stack_features(stack, tau)
    rows = iter(features)
    return [next(rows) if has_motion else None for has_motion in moving]


def block_mismatches(blocks, tau):
    """Windows whose block features or blob diagnostic differ from the oracles;
    ``tau`` is the blocks' own."""
    bad = []
    for block in blocks:
        features = block_features(block.stack, tau)
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
# Videos that end one frame past the first and the second 32-frame mask
# block (frames 0-31 and 31-62), at the block edge and one frame before it.
@example(_case(_BLOCK + 1, 12, 12, 6, 8, 4, 4, (20, 13), 4))
@example(_case(2 * _BLOCK + 1, 2 * _BLOCK + 1, 300, 1, 8, 4, 4, (0, 0), 5))
@example(_case(2 * _BLOCK - 1, 30, 12, 100, 8, 4, 4, (50, 13), 6))
@example(_case(_BLOCK, 2, 1, 1, 9, 2, 2, (10, 5), 7))
def test_blocks_match_per_window_oracles(case):
    rng = np.random.Generator(np.random.PCG64(case["seed"]))
    frames = video_with_still(rng, case["n"], case["h"], case["w"], *case["still"])
    blocks = window_blocks(frames, case["size"], case["tau"], case["starts"],
                           case["per_block"])
    assert sum(len(b.spans) for b in blocks) == len(case["starts"])
    assert block_mismatches(blocks, case["tau"]) == []


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
    features = block_features(np.concatenate([stack, stack > 0.5], dtype=np.float64))
    for img, got in zip(stack, features):
        assert same_bits(got, literal_features(img, img > 0.5))
    for img, ms in zip(stack, stack_moments(stack)):
        assert (ms is None) == (literal_invariants(img) is None)


def exact_sums_limit(h, w):
    """The largest ``tau`` whose ``(h, w)`` templates take the exact centroid sums."""
    return (2**53 - 1) // (h * w * max(h, w))


def centroid_mismatches(stack, tau):
    """Images of an integer ``stack`` whose M00, M01 and M10 given ``tau``
    differ from the ``_moment_table`` columns, in bits."""
    fast = moments._moments(stack, tau)[0][:, :3]
    table = moments._moments(stack)[0][:, :3]
    return sum(a.tobytes() != b.tobytes() for a, b in zip(fast, table))


@st.composite
def integer_template_stacks(draw):
    """An integer stack with values in ``[0, tau]``, some images all zero and
    some all ``tau``, and a ``tau`` at, just past or anywhere around the
    largest that takes the exact sums."""
    count, h, w = draw(st.integers(1, 9)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    limit = exact_sums_limit(h, w)
    tau = draw(st.sampled_from([limit, limit + 1]) | st.integers(1, 2 * limit))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, tau, (count, h, w), endpoint=True).astype(np.float64)
    stack[rng.random((count, h, w)) < draw(st.floats(0.0, 1.0))] = 0.0
    stack[rng.random(count) < 0.25] = tau
    stack[rng.random(count) < 0.25] = 0.0
    return tau, stack


@settings(max_examples=60, deadline=None)
@given(integer_template_stacks())
@example((exact_sums_limit(40, 40), np.full((2, 40, 40), float(exact_sums_limit(40, 40)))))
@example((exact_sums_limit(7, 40), np.full((3, 7, 40), float(exact_sums_limit(7, 40)))))
def test_exact_centroid_sums_equal_the_moment_table(case):
    tau, stack = case
    count, h, w = stack.shape
    fast = moments._moments(stack, tau)
    table = moments._moments(stack)
    # The exact sums up to the limit and the full table past it.
    assert fast[0].shape == (count, 3 if tau <= exact_sums_limit(h, w) else 10)
    assert centroid_mismatches(stack, tau) == 0
    for got, want in zip(fast[1:], table[1:]):
        assert got.tobytes() == want.tobytes()


SIGNED_LOG_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda count: st.lists(
    st.one_of(st.sampled_from(SIGNED_LOG_SPECIALS),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=16 * count, max_size=16 * count)))
@example([*SIGNED_LOG_SPECIALS, *SIGNED_LOG_SPECIALS[::-1]] * 3)
def test_block_signed_log_matches_row_by_row(values):
    matrix = np.array(values, dtype=np.float64).reshape(-1, 16)
    # |f| / eps overflows to inf above about 1.8e296, in both paths alike.
    with np.errstate(over="ignore"):
        block = signed_log(matrix)
        rows = [signed_log(row) for row in matrix]
    for got, want in zip(block, rows):
        assert got.tobytes() == want.tobytes()


# --- predict: the block tail against one window at a time ---

@functools.lru_cache(maxsize=None)
def tail_models() -> dict:
    """An MLP and a KNN model fitted to the window features of one blocky
    video, labelled by window start, with a ``tau`` to be replaced."""
    rng = np.random.Generator(np.random.PCG64(21))
    frames = blocky_frames(rng, 40, 4, 4)
    samples = []
    for start in range(len(frames) - 7):
        window = FrameSequence(frames[start : start + 8], SequenceRecord("w", start, start + 7))
        try:
            features = feature_vector(build_template(window, THETA, 12))
        except NoMotionError:
            continue
        samples.append(LabeledSample(features, f"c{start % 3}"))
    standardizer = Standardizer.fit(samples)
    scaled = [LabeledSample(standardizer.apply(s.features), s.label) for s in samples]
    classifiers = {
        "mlp": train_mlp(scaled, [], MlpConfig(hidden=(8,), epochs=5, seed=1)),
        "knn": KnnModel(k=3, vectors=np.stack([s.features for s in scaled]),
                        labels=[s.label for s in scaled]),
    }
    return {kind: TrainedModel(tau=1, theta=THETA, standardizer=standardizer, classifier=c)
            for kind, c in classifiers.items()}


def window_entry(model, frames, size, start):
    """One window alone through build_template -> feature_vector -> predict."""
    end = start + size - 1
    template = build_template(FrameSequence(frames[start : end + 1],
                                            SequenceRecord("w", start, end)),
                              model.theta, model.tau)
    try:
        label, score = model.predict(feature_vector(template))
    except NoMotionError:
        label, score = "none", 0.0
    blob = detect_secondary_blob(template.mei)
    return {"start_frame": start, "end_frame": end, "label": label, "score": float(score),
            "diagnostic": {"component_count": blob.component_count, "warning": blob.warning}}


def tail_mismatches(frames, size, tau, starts, per_block):
    """``(model kind, start)`` of each ``predict`` entry of the MLP and KNN
    models that differs from its window alone, score bits included, or that
    is missing; frames are handed over one by one, in blocks of ``per_block``
    windows, to windows at ``starts`` as ``predict`` tiles them."""
    # The first step is the stride, or the clamp to the one trailing window.
    stride = starts[1] - starts[0] if len(starts) > 1 else 1
    bad = []
    for kind, model in tail_models().items():
        model = dataclasses.replace(model, tau=tau)
        seq = FrameSequence(iter(list(frames)), SequenceRecord("clip", 0, len(frames) - 1))
        with mock.patch.multiple(temporal, _BLOCK_WINDOWS=per_block,
                                 _BLOCK_VALUES=per_block * frames[0].size):
            entries = predict_windows(model, seq, size, stride)
        if [entry["start_frame"] for entry in entries] != starts:
            bad.append((kind, None))
        for entry in entries:
            want = window_entry(model, frames, size, entry["start_frame"])
            if entry != want or entry["score"].hex() != want["score"].hex():
                bad.append((kind, entry["start_frame"]))
    return bad


@settings(max_examples=30, deadline=None)
@given(block_cases())
# Blocks of 4 over 10 windows (the last block short); windows 3 and 4, the
# last slot of the first block and the first of the second, motion-free.
@example(_case(15, 6, 12, 1, 4, 5, 5, (3, 7), 8))
# Motion-free windows in the first slot of the first block and the last slot
# of the short last block (blocks of 3 over 8 windows).
@example(_case(13, 6, 12, 1, 3, 5, 5, (0, 6), 9))
@example(_case(13, 6, 12, 1, 3, 5, 5, (7, 6), 10))
# One window per block, and blocks of 9 with a clamped trailing window.
@example(_case(20, 5, 3, 1, 1, 4, 4, (8, 6), 11))
@example(_case(2 * _BLOCK + 15, 12, 9, 2, 9, 5, 4, (20, 36), 12))
def test_predict_entries_match_windows_alone(case):
    rng = np.random.Generator(np.random.PCG64(case["seed"]))
    frames = video_with_still(rng, case["n"], case["h"], case["w"], *case["still"])
    assert tail_mismatches(frames, case["size"], case["tau"], case["starts"],
                           case["per_block"]) == []


# --- extract: whole-clip templates packed into blocks ---

def clip_frames(seed, clips):
    """Frames of each ``(shape, length, still)`` clip: blocky random frames of
    ``3h x 3w`` px, all equal to the first when ``still``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for (h, w), length, still in clips:
        frames = blocky_frames(rng, length, h, w)
        if still:
            frames[:] = frames[0]
        out.append(frames)
    return out


def clip_records(clips):
    """One labelled record per clip, its first frame index varying with its position."""
    return [SequenceRecord(f"clip{i:02d}", i % 3, i % 3 + len(frames) - 1, label=f"c{i % 4}")
            for i, frames in enumerate(clips)]


def extract_rows(directory, clips, tau):
    """``(label, source, feature bytes)`` of each ``extract_samples`` row on the
    clips, written as PGM directories with a manifest."""
    records = clip_records(clips)
    for record, frames in zip(records, clips):
        os.mkdir(os.path.join(directory, record.dir))
        for index, frame in zip(range(record.start, record.end + 1), frames):
            write_pgm_file(frame_path(os.path.join(directory, record.dir), index), frame)
    manifest = os.path.join(directory, "manifest.jsonl")
    write_manifest_file(manifest, records)
    return [(s.label, s.source, s.features.tobytes())
            for s in extract_samples(manifest, THETA, tau)]


def per_clip_rows(clips, tau):
    """The per-clip oracle: ``feature_vector(build_template(seq))`` for each clip."""
    rows = []
    for record, frames in zip(clip_records(clips), clips):
        template = build_template(FrameSequence(frames, record), THETA, tau)
        try:
            features = feature_vector(template)
        except NoMotionError:
            continue
        first, last = template.frame_span
        rows.append((record.label, f"{record.dir}:{first}-{last}", features.tobytes()))
    return rows


@st.composite
def clip_cases(draw):
    """Clips of up to two shapes and of lengths 2 to ``tau + 4``, some of them
    motion-free, and up to 20 in all: more than one block of 8 holds."""
    tau = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1,
                           max_size=2))
    clips = draw(st.lists(
        st.tuples(st.sampled_from(shapes), st.integers(2, tau + 4), st.booleans()),
        min_size=1, max_size=20,
    ))
    return tau, clips, draw(st.integers(0, 2**32 - 1))


# One shape: blocks of 8 and 3, motion-free clips in the first and last slot
# of each; lengths 2 and past tau + 1.
@example((4, [((2, 2), n, i in (0, 7, 8, 10))
              for i, n in enumerate([2, 9, 3, 6, 2, 8, 5, 2, 7, 2, 9])], 5))
# Shape runs 2, 9 and 2 long: the second run's blocks start motion-free at
# its first and ninth clip and end motion-free at its eighth.
@example((3, [(shape, n, still) for shape, n, still in
              [((1, 2), 2, True), ((1, 2), 6, False)]
              + [((3, 1), 2 + i % 5, i in (0, 7, 8)) for i in range(9)]
              + [((1, 2), 7, False), ((1, 2), 2, True)]], 6))
@settings(max_examples=25, deadline=None)
@given(clip_cases())
def test_extract_rows_match_per_clip_oracle(case):
    tau, specs, seed = case
    clips = clip_frames(seed, specs)
    with tempfile.TemporaryDirectory() as directory:
        assert extract_rows(directory, clips, tau) == per_clip_rows(clips, tau)


# --- the same check under other BLAS and SIMD kernels ---

def kernel_probe() -> dict:
    """Digests of every stage of fixed block runs, and the oracle mismatches.

    The runs are sliding windows over one video and, as ``extract`` packs
    them, the whole-clip templates of 11 clips in blocks of 8 and 3. Masks,
    MHI/MEI stacks, blob diagnostics and the raw moments of the integer MHIs
    and MEIs are exact whatever the kernel: each raw-moment partial sum is an
    integer below 2**53. ``centroid_mismatches`` counts the images whose
    M00, M01 and M10 from the exact sums that ``predict`` and ``extract``
    take differ from the moment table's, on these blocks and on a stack of
    values up to the largest ``tau`` the sums allow. Features are not exact,
    so for them only the comparisons with the oracles are returned: block
    against literal formulas, each ``extract`` row against its per-clip row,
    and, in ``tail_mismatches``, the labels and score bits of each
    ``predict`` entry of an MLP and a KNN model against its window alone.
    Trained weights are not exact either, so ``train_mismatches`` counts the
    small ``train_mlp`` runs whose model or history differs from the former
    training loop's in this process, and ``dot_mismatches`` the seeded
    products, every dimension >= 2, on which ``np.dot`` and ``np.matmul``
    differ in a bit: the premise of the SGD step's ``np.dot`` products.
    """
    rng = np.random.Generator(np.random.PCG64(11))
    frames = video_with_still(rng, 2 * _BLOCK + 15, 10, 12, 30, 20)
    starts = list(range(len(frames) - 14 + 1))
    blocks = window_blocks(frames, 14, 12, starts, 5)
    clips = clip_frames(12, [((4, 4), length, i in (0, 7, 8, 10)) for i, length in
                             enumerate([5, 2, 9, 16, 3, 10, 7, 2, 15, 4, 20])])
    clip_blocks = [copy.deepcopy(b) for b in temporal.pack_templates(
        [temporal.clip_history(FrameSequence(f, r), THETA, 12)
         for f, r in zip(clips, clip_records(clips))], 12)]
    with tempfile.TemporaryDirectory() as directory:
        rows = extract_rows(directory, clips, 12)

    def digest(arrays):
        hasher = hashlib.sha256()
        for array in arrays:
            hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()

    def raw_moments(stack):
        return [np.array([ms.raw[k] for k in MOMENT_ORDERS]) for ms in stack_moments(stack)
                if ms is not None]

    blobs = [[d.component_count, d.warning] for b in blocks for d in detect_secondary_blobs(b.mei)]
    limit = exact_sums_limit(30, 40)
    near_limit = np.random.default_rng(13).integers(0, limit, (4, 30, 40), endpoint=True)
    return {
        "mismatches": len(block_mismatches(blocks, 12)),
        "centroid_mismatches": sum(centroid_mismatches(b.stack, 12) for b in blocks + clip_blocks)
        + centroid_mismatches(near_limit.astype(np.float64), limit),
        "tail_mismatches": len(tail_mismatches(frames, 14, 12, starts, 5))
        # Stride 4, with the trailing window clamped to the video's end.
        + len(tail_mismatches(frames, 9, 6, [*range(0, len(frames) - 9, 4), len(frames) - 9], 3)),
        "train_mismatches": sum(
            not training_matches_former_loop(
                *training_samples(3, n, 5, n_val, 2.0, seed),
                MlpConfig(hidden=hidden, lr=0.3, epochs=8, batch=batch, seed=seed),
            )
            for n, n_val, hidden, batch, seed in
            [(12, 4, (), 5, 1), (9, 0, (7,), 2, 2), (14, 3, (8, 6), 16, 3)]
        ),
        "dot_mismatches": dot_scan_mismatches(14, 2000),
        "clip_mismatches": len(block_mismatches(clip_blocks, 12))
        + (rows != per_clip_rows(clips, 12)),
        "masks": digest([motion_masks(frames, THETA)]),
        "mhi": digest(b.mhi for b in blocks),
        "mei": digest(b.mei for b in blocks),
        "blobs": hashlib.sha256(json.dumps(blobs).encode()).hexdigest(),
        "raw_mhi": digest(m for b in blocks for m in raw_moments(b.mhi)),
        "raw_mei": digest(m for b in blocks for m in raw_moments(b.mei)),
        "clip_blocks": [len(b.spans) for b in clip_blocks],
        "clip_mhi": digest(b.mhi for b in clip_blocks),
        "clip_mei": digest(b.mei for b in clip_blocks),
        "clip_raw_mhi": digest(m for b in clip_blocks for m in raw_moments(b.mhi)),
        "clip_raw_mei": digest(m for b in clip_blocks for m in raw_moments(b.mei)),
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
    for key in ("mismatches", "tail_mismatches", "clip_mismatches", "train_mismatches",
                "centroid_mismatches", "dot_mismatches"):
        assert {name: r[key] for name, r in results.items()} == dict.fromkeys(KERNELS, 0), key
    assert results["default"]["clip_blocks"] == [8, 3]
    for name, result in results.items():
        assert result == results["default"], name
