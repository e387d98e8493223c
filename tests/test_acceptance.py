"""Release gate: nine acceptance criteria, one test and one verdict line each.

Every test recomputes its expected values from scratch (closed forms, nested
loops, exhaustive sorts) so a regression in the library cannot hide inside a
shared helper. Run with ``pytest -v`` for the per-criterion lines, or ``-s``
to also see the printed verdicts with measured details.
"""

import math
import shutil
import time

import numpy as np
import pytest

from mhi.classify import KnnModel, mlp_init, mlp_loss_and_grads
from mhi.cli import main
from mhi.imgproc import morph_open
from mhi.moments import flusser_i8, hu_moments, scale_invariant_moments
from mhi.synth import specs_to_json, three_class_specs
from mhi.temporal import mhi_step


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} [{name}] failed{suffix}"


# --- criterion 1: MHI recurrence vs closed-form last-activation oracle ---

def test_criterion_1_mhi_recurrence_oracle():
    rng = np.random.Generator(np.random.PCG64(1001))
    taus = (5, 20, 300)
    ok = True
    start = time.perf_counter()
    for case in range(100):
        tau = taus[case % len(taus)]
        masks = rng.integers(0, 2, size=(20, 8, 8), dtype=np.uint8)

        history = np.zeros((8, 8))
        for mask in masks:
            history = mhi_step(history, mask, tau)

        # Closed form: a pixel last active at frame t ends at tau - (19 - t),
        # floored at zero; never-active pixels stay zero.
        ever = masks.any(axis=0)
        last = 19 - masks[::-1].argmax(axis=0)
        expected = np.where(ever, np.maximum(0, tau - (19 - last)), 0)
        ok = ok and np.array_equal(history, expected)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(1, "mhi recurrence oracle", ok, f"100 sequences, {elapsed:.3f}s")


# --- criterion 2: moments vs nested-loop brute force ---

def _brute_moments(img):
    h, w = img.shape
    orders = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    raw = {}
    for i, j in orders:
        total = 0.0
        for y in range(h):
            for x in range(w):
                total += (x**i) * (y**j) * img[y, x]
        raw[(i, j)] = total
    xbar = raw[(1, 0)] / raw[(0, 0)]
    ybar = raw[(0, 1)] / raw[(0, 0)]
    mu = {}
    for p, q in orders:
        total = 0.0
        for y in range(h):
            for x in range(w):
                total += ((x - xbar) ** p) * ((y - ybar) ** q) * img[y, x]
        mu[(p, q)] = total
    nu = {
        (p, q): mu[(p, q)] / raw[(0, 0)] ** (1.0 + (p + q) / 2.0)
        for p, q in orders
        if 2 <= p + q <= 3
    }
    return raw, mu, nu


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_2_moment_oracle():
    rng = np.random.Generator(np.random.PCG64(1002))
    ok = True
    start = time.perf_counter()
    for _ in range(100):
        img = rng.random((8, 8))
        ms = scale_invariant_moments(img)
        raw, mu, nu = _brute_moments(img)
        ok = ok and all(_rel_close(ms.raw[k], raw[k], 1e-12) for k in raw)
        ok = ok and all(_rel_close(ms.mu[k], mu[k], 1e-12) for k in mu)
        ok = ok and all(_rel_close(ms.nu[k], nu[k], 1e-12) for k in nu)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(2, "moment oracle", ok, f"100 rasters, {elapsed:.3f}s")


# --- criterion 3: invariance of Hu1-7 and |I8| ---

def _hu_and_i8(img):
    ms = scale_invariant_moments(img)
    return hu_moments(ms), flusser_i8(ms)


def test_criterion_3_invariance_suite():
    img = np.zeros((20, 20))
    img[3:15, 5:10] = 1.0
    img[9:18, 8:17] = 2.5
    img[4:7, 13:16] = 0.7
    hu, i8 = _hu_and_i8(img)

    shifted = np.zeros((33, 37))
    shifted[7:27, 11:31] = img
    hu_t, i8_t = _hu_and_i8(shifted)
    translation_ok = bool(
        np.allclose(hu_t, hu, rtol=1e-9, atol=0.0)
        and _rel_close(abs(i8_t), abs(i8), 1e-9)
    )

    hu_r, i8_r = _hu_and_i8(np.rot90(img))
    rotation_ok = bool(
        np.allclose(hu_r, hu, rtol=1e-9, atol=0.0)
        and _rel_close(abs(i8_r), abs(i8), 1e-9)
    )

    hu_s, _ = _hu_and_i8(np.kron(img, np.ones((2, 2))))
    scale_err = abs(hu_s[0] - hu[0]) / abs(hu[0])
    scale_ok = scale_err < 0.02

    ok = translation_ok and rotation_ok and scale_ok
    _verdict(3, "invariance suite", ok, f"hu1 upsample error {scale_err:.2%}")


# --- criterion 4: KNN vs exhaustive-sort oracle ---

def _knn_oracle(vectors, labels, query, k):
    dist = [math.sqrt(float(np.sum((v - query) ** 2))) for v in vectors]
    nearest = sorted(range(len(labels)), key=lambda i: (dist[i], i))[:k]
    votes = {}
    for i in nearest:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
    top = max(votes.values())
    contenders = [label for label, count in votes.items() if count == top]
    if len(contenders) == 1:
        return contenders[0]
    mean_dist = {
        label: float(np.mean([dist[i] for i in nearest if labels[i] == label]))
        for label in contenders
    }
    return min(contenders, key=lambda label: (mean_dist[label], label))


def test_criterion_4_knn_oracle():
    rng = np.random.Generator(np.random.PCG64(1004))
    vectors = rng.random((200, 5))
    labels = [("red", "green", "blue")[i] for i in rng.integers(0, 3, size=200)]
    queries = rng.random((50, 5))

    ok = True
    for k in (1, 3, 5):
        model = KnnModel(k=k, vectors=vectors, labels=labels)
        for query in queries:
            predicted, _ = model.predict(query)
            ok = ok and predicted == _knn_oracle(vectors, labels, query, k)

    # Constructed duplicated-distance cases: five points all at distance 1
    # from the origin, so selection and voting both hit the tie-break paths.
    tie_vectors = np.array([
        [1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ], dtype=np.float64)
    tie_labels = ["b", "a", "a", "b", "a"]
    origin = np.zeros(5)
    expected_by_k = {2: "a", 3: "a", 5: "a"}  # k=2 is a pure vote tie
    for k, expected in expected_by_k.items():
        model = KnnModel(k=k, vectors=tie_vectors, labels=tie_labels)
        predicted, _ = model.predict(origin)
        ok = ok and predicted == expected
        ok = ok and predicted == _knn_oracle(tie_vectors, tie_labels, origin, k)

    _verdict(4, "knn oracle", ok, "k in {1,3,5}, 50 queries, tie cases")


# --- criterion 5: MLP gradients vs central finite differences ---

def test_criterion_5_mlp_gradient_check():
    rng = np.random.Generator(np.random.PCG64(1005))
    sizes = [16, 10, 8, 3]
    weights, biases = mlp_init(sizes, rng)
    matrix = rng.standard_normal((5, 16))
    targets = rng.integers(0, 3, size=5)

    _, grads_w, grads_b = mlp_loss_and_grads(weights, biases, matrix, targets)

    h = 1e-5
    worst = 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for array, grad in zip(params, grads):
            flat, gflat = array.ravel(), grad.ravel()
            for idx in range(flat.size):
                saved = flat[idx]
                flat[idx] = saved + h
                up = mlp_loss_and_grads(weights, biases, matrix, targets)[0]
                flat[idx] = saved - h
                down = mlp_loss_and_grads(weights, biases, matrix, targets)[0]
                flat[idx] = saved
                numeric = (up - down) / (2.0 * h)
                scale = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / scale)

    ok = worst < 1e-4
    _verdict(5, "mlp gradient check", ok, f"worst relative error {worst:.2e}")


# --- criteria 6-8 share one synthetic pipeline run ---

THETA, TAU = "10", "30"


def _test_accuracy(report_path) -> float:
    for line in report_path.read_text().splitlines():
        if line.startswith("[test] accuracy "):
            return float(line.split()[-1])
    raise AssertionError(f"no [test] accuracy line in {report_path}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()

    spec = root / "spec.json"
    spec.write_text(
        specs_to_json(three_class_specs(frames=30, size=64, rect=12, count=20, seed=0))
    )
    clips = root / "clips"
    assert main(["synth", "--spec", str(spec), "--out", str(clips)]) == 0

    features = root / "features.csv"
    assert main([
        "extract", "--manifest", str(clips / "manifest.jsonl"),
        "--theta", THETA, "--tau", TAU, "--out", str(features),
    ]) == 0

    knn_model = root / "knn.json"
    mlp_model = root / "mlp.json"
    for classifier, out in (("knn", knn_model), ("mlp", mlp_model)):
        assert main([
            "train", "--features", str(features), "--classifier", classifier,
            "--theta", THETA, "--tau", TAU, "--out", str(out),
        ]) == 0

    return {
        "root": root, "spec": spec, "clips": clips, "features": features,
        "knn": knn_model, "mlp": mlp_model,
        "elapsed": time.perf_counter() - start,
        "knn_acc": _test_accuracy(root / "knn.report.txt"),
        "mlp_acc": _test_accuracy(root / "mlp.report.txt"),
    }


def test_criterion_6_end_to_end_synthetic(pipeline):
    knn_acc, mlp_acc = pipeline["knn_acc"], pipeline["mlp_acc"]
    ok = mlp_acc >= 0.90 and knn_acc >= 0.80 and pipeline["elapsed"] < 120.0
    _verdict(
        6, "end-to-end synthetic", ok,
        f"mlp={mlp_acc:.3f} knn={knn_acc:.3f}, {pipeline['elapsed']:.1f}s",
    )


def test_criterion_7_multi_action_labeling(pipeline, tmp_path):
    concat = tmp_path / "concat"
    concat.mkdir()
    for i in range(30):
        shutil.copy(pipeline["clips"] / "slide_000" / f"{i:06d}.pgm",
                    concat / f"{i:06d}.pgm")
        shutil.copy(pipeline["clips"] / "sway_000" / f"{i:06d}.pgm",
                    concat / f"{i + 30:06d}.pgm")

    out = tmp_path / "timeline.json"
    assert main([
        "predict", "--model", str(pipeline["knn"]), "--frames", str(concat),
        "--window", "30", "--stride", "15", "--out", str(out),
    ]) == 0
    import json

    entries = json.loads(out.read_text())
    spans = [(e["start_frame"], e["end_frame"]) for e in entries]
    first, last = entries[0], entries[-1]
    ok = (
        spans[0] == (0, 29)
        and spans[-1] == (30, 59)
        and first["label"] == "slide"
        and last["label"] == "sway"
    )
    _verdict(
        7, "multi-action labeling", ok,
        f"first={first['label']} last={last['label']}",
    )


def test_criterion_8_determinism(pipeline, tmp_path):
    clips2 = tmp_path / "clips"
    assert main(["synth", "--spec", str(pipeline["spec"]),
                 "--out", str(clips2)]) == 0
    frames_equal = all(
        (clips2 / name / "000017.pgm").read_bytes()
        == (pipeline["clips"] / name / "000017.pgm").read_bytes()
        for name in ("slide_000", "sway_010", "pulse_019")
    )
    manifest_equal = (
        (clips2 / "manifest.jsonl").read_bytes()
        == (pipeline["clips"] / "manifest.jsonl").read_bytes()
    )

    features2 = tmp_path / "features.csv"
    assert main([
        "extract", "--manifest", str(clips2 / "manifest.jsonl"),
        "--theta", THETA, "--tau", TAU, "--out", str(features2),
    ]) == 0
    csv_equal = features2.read_bytes() == pipeline["features"].read_bytes()

    models_equal = True
    for classifier, reference in (("knn", pipeline["knn"]), ("mlp", pipeline["mlp"])):
        retrained = tmp_path / f"{classifier}.json"
        assert main([
            "train", "--features", str(features2), "--classifier", classifier,
            "--theta", THETA, "--tau", TAU, "--out", str(retrained),
        ]) == 0
        models_equal = models_equal and (
            retrained.read_bytes() == reference.read_bytes()
        )

    renders = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main([
            "render", "--frames", str(pipeline["clips"] / "pulse_000"),
            "--theta", THETA, "--tau", TAU, "--out", str(out),
        ]) == 0
        renders.append(
            (out / "mei.pgm").read_bytes() + (out / "mhi.pgm").read_bytes()
        )
    renders_equal = renders[0] == renders[1]

    ok = frames_equal and manifest_equal and csv_equal and models_equal and renders_equal
    _verdict(
        8, "determinism", ok,
        "synth frames, manifest, feature csv, both models, rendered pgms",
    )


# --- criterion 9: morphological opening properties ---

def test_criterion_9_morphology_properties():
    rng = np.random.Generator(np.random.PCG64(1009))
    ok = True
    for _ in range(100):
        mask = (rng.random((16, 16)) < 0.45).astype(np.uint8)
        opened = morph_open(mask)
        ok = ok and bool(np.all(opened <= mask))
        ok = ok and np.array_equal(morph_open(opened), opened)
    _verdict(9, "morphology properties", ok, "anti-extensive and idempotent, 100 masks")
