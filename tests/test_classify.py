"""Splitting, standardization, KNN/MLP training, evaluation, persistence."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhi import classify
from mhi.classify import (
    ConfusionMatrix,
    KnnModel,
    MlpConfig,
    MlpModel,
    SplitSpec,
    Standardizer,
    TrainedModel,
    evaluate,
    mlp_init,
    mlp_loss_and_grads,
    split_dataset,
    train_mlp,
)
from mhi.errors import (
    EmptySplitError,
    EmptyTrainingError,
    FeatureOverflowError,
    ModelSizeError,
    NonFiniteLossError,
    SingleClassError,
    StratificationError,
    UnknownLabelError,
)
from mhi.moments import LabeledSample


def make_samples(counts, dim=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = []
    for label, count in counts.items():
        for i in range(count):
            samples.append(
                LabeledSample(rng.standard_normal(dim), label, f"{label}_{i}")
            )
    return samples


# --- splitting ---

def test_split_counts_and_stratification():
    samples = make_samples({"a": 20, "b": 20, "c": 20})
    train, val, test = split_dataset(samples, SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (30, 15, 15)
    for part in (train, val, test):
        labels = [s.label for s in part]
        assert labels.count("a") == labels.count("b") == labels.count("c")


def test_split_partition_is_exact():
    samples = make_samples({"a": 11, "b": 7})
    train, val, test = split_dataset(samples, SplitSpec(seed=3))
    ids = [s.source for s in train + val + test]
    assert sorted(ids) == sorted(s.source for s in samples)
    assert len(set(ids)) == len(ids)


def test_split_floor_rule_uneven_group():
    # 7 samples at 50/25/25: floor(3.5)=3 train, floor(1.75)=1 val, 3 test.
    samples = make_samples({"a": 7, "b": 8})
    train, val, test = split_dataset(samples, SplitSpec(seed=1))
    a_counts = tuple(sum(s.label == "a" for s in part) for part in (train, val, test))
    assert a_counts == (3, 1, 3)


def test_split_deterministic_and_seed_sensitive():
    samples = make_samples({"a": 12, "b": 12})
    first = split_dataset(samples, SplitSpec(seed=5))
    second = split_dataset(samples, SplitSpec(seed=5))
    assert [[s.source for s in part] for part in first] == [
        [s.source for s in part] for part in second
    ]
    other = split_dataset(samples, SplitSpec(seed=6))
    assert [s.source for s in first[0]] != [s.source for s in other[0]]


def test_split_errors():
    with pytest.raises(StratificationError):
        split_dataset(make_samples({"a": 2, "b": 1}), SplitSpec())
    with pytest.raises(StratificationError):
        split_dataset(make_samples({"a": 5, "b": 1}), SplitSpec())
    # Groups of 3 cut 1/0/2, so no sample reaches val.
    with pytest.raises(EmptySplitError):
        split_dataset(make_samples({"a": 3, "b": 3}), SplitSpec())


# --- standardization ---

def test_standardizer_zero_mean_unit_std():
    samples = make_samples({"a": 30}, dim=3, seed=9)
    std = Standardizer.fit(samples)
    matrix = np.stack([std.apply(s.features) for s in samples])
    np.testing.assert_allclose(matrix.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(matrix.std(axis=0), 1.0, rtol=1e-12)


def test_standardizer_constant_feature():
    samples = [LabeledSample(np.array([7.0, i * 1.0]), "a") for i in range(6)]
    std = Standardizer.fit(samples)
    assert std.std[0] == Standardizer.STD_FLOOR
    assert std.apply(np.array([7.0, 2.5]))[0] == 0.0


def test_standardizer_overflow_names_the_feature():
    # Any warning fails the test, so the overflow must stay inside.
    samples = make_samples({"a": 6}, dim=3, seed=11)
    for i, sample in enumerate(samples):
        sample.features[1] = 1e308 if i % 2 else -1e308
    with pytest.raises(FeatureOverflowError, match=r"^feature f1 overflows standardization"):
        Standardizer.fit(samples)

    std = Standardizer(mean=np.zeros(3), std=np.array([1.0, 1.0, 0.5]))
    wide = make_samples({"b": 3}, dim=3, seed=12)
    std.check(wide)
    wide[2].features[2] = 1e308
    with pytest.raises(FeatureOverflowError, match=r"^sample b_2: feature f2 value 1e\+308 "):
        std.check(wide)


def test_standardizer_empty():
    with pytest.raises(EmptyTrainingError):
        Standardizer.fit([])


# --- KNN ---

def knn_oracle(vectors, labels, k, query):
    dist = [float(np.linalg.norm(v - query)) for v in vectors]
    nearest = sorted(range(len(vectors)), key=lambda i: (dist[i], i))[:k]
    votes = {}
    for i in nearest:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
    top = max(votes.values())
    contenders = sorted(label for label, c in votes.items() if c == top)
    if len(contenders) == 1:
        return contenders[0]
    mean = {
        label: np.mean([dist[i] for i in nearest if labels[i] == label])
        for label in contenders
    }
    return min(contenders, key=lambda label: (mean[label], label))


def test_knn_matches_oracle_random():
    rng = np.random.Generator(np.random.PCG64(41))
    vectors = rng.standard_normal((100, 5))
    labels = [["u", "v", "w"][i] for i in rng.integers(0, 3, size=100)]
    for k in (1, 3, 5):
        model = KnnModel(k=k, vectors=vectors, labels=labels)
        for _ in range(20):
            query = rng.standard_normal(5)
            predicted, votes = model.predict(query)
            assert predicted == knn_oracle(vectors, labels, k, query)
            assert sum(votes.values()) == k


def test_knn_distance_tie_prefers_lower_index():
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    model = KnnModel(k=1, vectors=vectors, labels=["first", "second", "third"])
    predicted, _ = model.predict(np.array([0.0, 0.0]))
    assert predicted == "first"


def test_knn_vote_tie_mean_distance():
    vectors = np.array([[2.0, 0.0], [-1.0, 0.0]])
    model = KnnModel(k=2, vectors=vectors, labels=["far", "near"])
    predicted, votes = model.predict(np.array([0.0, 0.0]))
    assert votes == {"far": 1, "near": 1}
    assert predicted == "near"


def test_knn_vote_tie_lexicographic():
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    model = KnnModel(k=2, vectors=vectors, labels=["zeta", "alpha"])
    predicted, _ = model.predict(np.array([0.0, 0.0]))
    assert predicted == "alpha"


def test_knn_validation():
    with pytest.raises(ValueError):
        KnnModel(k=0, vectors=np.zeros((2, 2)), labels=["a", "b"])
    with pytest.raises(ValueError):
        KnnModel(k=3, vectors=np.zeros((2, 2)), labels=["a", "b"])


@pytest.mark.parametrize("row", [[1e200, 0.0], [0.0, -1e155], [1.7e308, 0.0]])
def test_knn_distance_overflow_raises(row):
    # Finite rows whose square, sum of squares or difference overflows.
    model = KnnModel(k=1, vectors=np.array([[0.0, 0.0], [-1.7e308, 1.0]]), labels=["a", "b"])
    with pytest.raises(FeatureOverflowError, match=r"feature f\d standardizes to"):
        model.predict(np.array(row))
    sample = LabeledSample(features=np.array(row), label="a", source="clip:0-9")
    with pytest.raises(FeatureOverflowError, match="^sample clip:0-9: feature"):
        evaluate(model, [sample])


# --- MLP ---

def blob_samples(n_per=20, dim=4, gap=6.0, seed=13):
    # Two Gaussian blobs 3 sigma either side of the midpoint.
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = []
    for label, center in (("neg", -gap / 2), ("pos", gap / 2)):
        for i in range(n_per):
            point = rng.standard_normal(dim)
            point[0] += center
            samples.append(LabeledSample(point, label, f"{label}_{i}"))
    return samples


def test_mlp_gradient_check():
    rng = np.random.Generator(np.random.PCG64(17))
    sizes = [4, 6, 5, 3]
    weights, biases = mlp_init(sizes, rng)
    matrix = rng.standard_normal((5, 4))
    targets = np.array([0, 2, 1, 2, 0])
    _, grads_w, grads_b = mlp_loss_and_grads(weights, biases, matrix, targets)

    h = 1e-5
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for layer, grad in zip(params, grads):
            flat = layer.ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up, _, _ = mlp_loss_and_grads(weights, biases, matrix, targets)
                flat[idx] = keep - h
                down, _, _ = mlp_loss_and_grads(weights, biases, matrix, targets)
                flat[idx] = keep
                numeric = (up - down) / (2 * h)
                analytic = grad.ravel()[idx]
                assert abs(analytic - numeric) <= 1e-4 * max(
                    1e-8, abs(analytic), abs(numeric)
                )


def test_mlp_separable_blobs_train_accuracy():
    samples = blob_samples()
    cfg = MlpConfig(hidden=(8,), lr=0.05, epochs=200, batch=8, seed=0)
    model = train_mlp(samples, [], cfg)
    _, accuracy = evaluate(model, samples)
    assert accuracy >= 0.95


def test_mlp_deterministic():
    samples = blob_samples(seed=19)
    cfg = MlpConfig(hidden=(6,), epochs=20, seed=7)
    first = train_mlp(samples, samples[:10], cfg)
    second = train_mlp(samples, samples[:10], cfg)
    for w1, w2 in zip(first.weights, second.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(first.biases, second.biases):
        np.testing.assert_array_equal(b1, b2)


def test_mlp_snapshot_is_best_epoch_prefix():
    # Because shuffling draws from one stream, training for argmax+1 epochs
    # reproduces the prefix and ends exactly at the snapshot epoch.
    train = blob_samples(seed=23)
    val = blob_samples(n_per=6, seed=29)
    cfg = MlpConfig(hidden=(6,), epochs=30, seed=3)
    full = train_mlp(train, val, cfg)
    best_epoch = int(np.argmax(full.val_history))
    truncated = train_mlp(
        train, val, MlpConfig(hidden=(6,), epochs=best_epoch + 1, seed=3)
    )
    assert truncated.val_history == full.val_history[: best_epoch + 1]
    for w1, w2 in zip(full.weights, truncated.weights):
        np.testing.assert_array_equal(w1, w2)


def test_mlp_records_history_length():
    model = train_mlp(blob_samples(), blob_samples(n_per=4, seed=31),
                      MlpConfig(hidden=(6,), epochs=12, seed=0))
    assert len(model.val_history) == 12
    assert all(0.0 <= acc <= 1.0 for acc in model.val_history)


def test_mlp_single_class():
    samples = [LabeledSample(np.zeros(3), "only", str(i)) for i in range(8)]
    with pytest.raises(SingleClassError):
        train_mlp(samples, [], MlpConfig())


def test_mlp_divergence_raises():
    samples = blob_samples(seed=37)
    with pytest.raises(NonFiniteLossError):
        train_mlp(samples, [], MlpConfig(hidden=(6,), lr=1e30, epochs=5, seed=0))


def test_mlp_glorot_bounds():
    rng = np.random.Generator(np.random.PCG64(43))
    weights, biases = mlp_init([10, 20, 3], rng)
    for w in weights:
        limit = math.sqrt(6.0 / sum(w.shape))
        assert np.all(np.abs(w) <= limit)
    for b in biases:
        assert not b.any()


def zero_mlp(labels, dim=4):
    sizes = [dim, 3, len(labels)]
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return MlpModel(sizes=sizes, weights=weights, biases=biases, labels=labels)


def test_mlp_predict_uniform_and_tie_break():
    model = zero_mlp(["b", "a", "c"])
    label, probs = model.predict(np.ones(4))
    np.testing.assert_allclose(probs, 1 / 3)
    assert label == "a"


@st.composite
def tied_mlp_blocks(draw):
    """An in-memory MLP with its labels in any order, a block of 1 to 6 rows,
    and the output columns that tie exactly: zero weights and one shared
    bias give those columns the same logit on every row. When every column
    ties, so does every row."""
    labels = draw(st.lists(st.text("abc\u00e9", min_size=1, max_size=2),
                           min_size=2, max_size=5, unique=True))
    classes, dim = len(labels), 3
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    weights = [rng.standard_normal((dim, 4)), rng.standard_normal((4, classes))]
    biases = [rng.standard_normal(4), rng.standard_normal(classes)]
    if draw(st.booleans()):
        tied = list(range(classes))
    else:
        tied = sorted(draw(st.sets(st.integers(0, classes - 1), min_size=2)))
    weights[1][:, tied] = 0.0
    # A large shared bias makes the tied columns the row maximum more often.
    biases[1][tied] = draw(st.sampled_from([0.0, -0.0, 3.0]))
    model = MlpModel(sizes=[dim, 4, classes], weights=weights, biases=biases, labels=labels)
    return model, rng.standard_normal((draw(st.integers(1, 6)), dim))


@settings(max_examples=200, deadline=None)
@given(tied_mlp_blocks())
def test_mlp_block_labels_and_scores_match_each_row_alone(case):
    """``predict_rows`` takes a block's labels from one argmax over the
    columns in label order; each row's label and score bits equal ``predict``
    on the row alone and the rule "the smallest label of the row maximum"."""
    mlp, rows = case
    model = TrainedModel(tau=1, theta=10.0, classifier=mlp,
                         standardizer=Standardizer(mean=np.zeros(3), std=np.ones(3)))
    for (label, score), row in zip(model.predict_rows(rows), rows, strict=True):
        alone_label, alone_score = model.predict(row)
        _, probs = mlp.predict(row)
        best = probs.max()
        smallest = min(l for l, p in zip(mlp.labels, probs) if p == best)
        assert label == alone_label == smallest
        assert score.hex() == alone_score.hex() == float(best).hex()


def test_mlp_probabilities_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(47))
    model = train_mlp(blob_samples(), [], MlpConfig(hidden=(6,), epochs=10, seed=0))
    for _ in range(100):
        _, probs = model.predict(rng.standard_normal(4))
        assert abs(probs.sum() - 1.0) < 1e-9


def test_mlp_bias_shift_invariance():
    model = train_mlp(blob_samples(), [], MlpConfig(hidden=(6,), epochs=10, seed=1))
    rng = np.random.Generator(np.random.PCG64(53))
    query = rng.standard_normal(4)
    before, _ = model.predict(query)
    model.biases[-1] = model.biases[-1] + 10.0
    after, _ = model.predict(query)
    assert before == after


def two_hidden_mlp(w1, b1, w2, b2):
    """An MLP of two inputs, two hidden layers of two units and two labels."""
    weights = [np.asarray(w1, dtype=np.float64), np.asarray(w2, dtype=np.float64), np.eye(2)]
    biases = [np.asarray(b1, dtype=np.float64), np.asarray(b2, dtype=np.float64), np.zeros(2)]
    return MlpModel(sizes=[2, 2, 2, 2], weights=weights, biases=biases, labels=["a", "b"])


def test_saturated_layer_needs_every_unit_on_every_row():
    # tanh rounds to exactly +-1.0 from about |z| >= 19; any warning fails the test.
    rows = np.array([[1.0, -1.0], [2.0, 3.0]])
    big = 100.0 * np.eye(2)
    assert classify.saturated_layer(two_hidden_mlp(big, [0, 0], big, [0, 0]), rows) == 1
    # One unit below saturation on one row keeps both layers unsaturated.
    assert classify.saturated_layer(two_hidden_mlp(big, [0, 0], big, [0, 0]),
                                    [[1.0, -1.0], [0.0, 3.0]]) is None
    # The second layer's first unit reads 1.0 on every row, its second never.
    assert classify.saturated_layer(two_hidden_mlp(np.eye(2), [0, 0], np.diag([100.0, 0.01]),
                                                   [0, 0]), rows) is None
    # Only the second layer saturates, through its biases.
    assert classify.saturated_layer(two_hidden_mlp(np.eye(2), [0, 0], np.zeros((2, 2)),
                                                   [50, -50]), rows) == 2
    # Pre-activations that overflow to +-inf read +-1.0, without a warning.
    huge = 1e308 * np.eye(2)
    assert classify.saturated_layer(two_hidden_mlp(huge, [0, 0], big, [0, 0]), rows * 10) == 1


def saturated_layer_before(model, matrix):
    """``saturated_layer`` as a hidden-layer loop of its own, which stops at
    the first saturated layer."""
    layer = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for index, (w, b) in enumerate(zip(model.weights[:-1], model.biases[:-1]), start=1):
            layer = np.tanh(layer @ w + b)
            if (np.abs(layer) == 1.0).all():
                return index
    return None


@st.composite
def saturation_cases(draw):
    """A net of 1-3 hidden layers, each scaled on its own so that some
    saturate and others do not, with weights near 1e307 that overflow the
    products of large rows, and the rows."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    sizes = [draw(st.integers(1, 3)), *draw(st.lists(st.integers(1, 4), min_size=1,
                                                     max_size=3)), draw(st.integers(2, 3))]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out))
                       * draw(st.sampled_from([0.5, 5.0, 100.0, 1e307])))
        biases.append(rng.standard_normal(fan_out) * draw(st.sampled_from([0.0, 1.0, 50.0])))
    rows = rng.standard_normal((draw(st.integers(1, 4)), sizes[0])) \
        * draw(st.sampled_from([0.1, 1.0, 30.0]))
    labels = [f"c{i}" for i in range(sizes[-1])]
    return MlpModel(sizes=sizes, weights=weights, biases=biases, labels=labels), rows


@settings(max_examples=300, deadline=None)
@given(case=saturation_cases())
def test_saturated_layer_matches_a_layer_loop(case):
    # Any numpy warning fails the test.
    model, rows = case
    assert classify.saturated_layer(model, rows) == saturated_layer_before(model, rows)


# --- evaluation ---

def test_evaluate_perfect_predictor_diagonal():
    samples = blob_samples(n_per=10, seed=59)
    model = KnnModel(
        k=1,
        vectors=np.stack([s.features for s in samples]),
        labels=[s.label for s in samples],
    )
    matrix, accuracy = evaluate(model, samples)
    assert accuracy == 1.0
    assert np.trace(matrix.counts) == matrix.total == len(samples)


def test_evaluate_constant_predictor_half():
    # Zero-weight MLP predicts the lexicographic first label for everything.
    samples = blob_samples(n_per=10, seed=61)
    model = zero_mlp(sorted({s.label for s in samples}))
    matrix, accuracy = evaluate(model, samples)
    assert accuracy == 0.5
    column = matrix.labels.index("neg")
    assert matrix.counts[:, column].sum() == len(samples)


def test_evaluate_unknown_label():
    model = zero_mlp(["a", "b"])
    with pytest.raises(UnknownLabelError):
        evaluate(model, [LabeledSample(np.zeros(4), "mystery")])
    with pytest.raises(ValueError):
        evaluate(model, [])


def test_confusion_csv_layout():
    matrix = ConfusionMatrix(
        labels=["a", "b"], counts=np.array([[3, 1], [0, 4]], dtype=np.int64)
    )
    lines = matrix.to_csv().splitlines()
    assert lines[0] == "true\\predicted,a,b"
    assert lines[1] == "a,3,1"
    assert lines[2] == "b,0,4"
    assert lines[3] == "accuracy,0.875"


@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(
        st.text(alphabet=st.sampled_from(',"\n\r aé\u00df\u2028\U0001f600'), min_size=1)
        | st.text(min_size=1),
        min_size=1, max_size=4, unique=True,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_confusion_csv_reads_back(labels, seed):
    # Commas, quotes, line breaks and non-ASCII text in labels must read back.
    counts = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 9, size=(len(labels), len(labels))
    )
    counts[0, 0] += 1
    matrix = ConfusionMatrix(labels=labels, counts=counts)
    rows = list(csv.reader(io.StringIO(matrix.to_csv(), newline="")))
    assert rows[0] == ["true\\predicted", *labels]
    assert rows[1:-1] == [[label, *map(str, row)] for label, row in zip(labels, counts)]
    assert rows[-1] == ["accuracy", format(matrix.accuracy, ".17g")]


# --- persistence ---

def fitted_pair(classifier, seed=67):
    samples = blob_samples(seed=seed)
    std = Standardizer.fit(samples)
    scaled = [LabeledSample(std.apply(s.features), s.label, s.source) for s in samples]
    if classifier == "knn":
        inner = KnnModel(
            k=3,
            vectors=np.stack([s.features for s in scaled]),
            labels=[s.label for s in scaled],
        )
    else:
        inner = train_mlp(scaled, [], MlpConfig(hidden=(6,), epochs=15, seed=0))
    return TrainedModel(30, 10.0, std, inner), samples


@pytest.mark.parametrize("classifier", ["knn", "mlp"])
def test_trained_model_round_trip(classifier, tmp_path):
    model, samples = fitted_pair(classifier)
    path = tmp_path / "model.json"
    path.write_bytes(model.to_bytes())
    loaded = TrainedModel.load(path)
    assert loaded.to_bytes() == model.to_bytes()
    for sample in samples[:8]:
        assert loaded.predict(sample.features) == model.predict(sample.features)


def test_trained_model_document_schema():
    model, _ = fitted_pair("knn")
    doc = json.loads(model.to_bytes())
    assert doc["version"] == 1
    assert doc["classifier"] == "knn"
    assert doc["tau"] == 30
    assert doc["theta"] == 10.0
    assert doc["labels"] == ["neg", "pos"]
    assert set(doc["standardizer"]) == {"mean", "std"}
    assert set(doc["knn"]) == {"k", "vectors", "labels"}
    assert "mlp" not in doc

    model, _ = fitted_pair("mlp")
    doc = json.loads(model.to_bytes())
    assert doc["classifier"] == "mlp"
    assert doc["labels"] == ["neg", "pos"]
    assert set(doc["mlp"]) == {"sizes", "weights", "biases"}
    assert doc["mlp"]["sizes"] == [4, 6, 2]
    assert "knn" not in doc


def test_trained_model_score_semantics():
    model, samples = fitted_pair("knn")
    _, score = model.predict(samples[0].features)
    assert score in (1 / 3, 2 / 3, 1.0)
    mlp_model, _ = fitted_pair("mlp")
    _, prob = mlp_model.predict(samples[0].features)
    assert 0.5 <= prob <= 1.0


def test_trained_model_bad_documents():
    model, _ = fitted_pair("knn")
    doc = json.loads(model.to_bytes())
    doc["version"] = 2
    with pytest.raises(ValueError):
        TrainedModel.from_document(doc)
    doc["version"] = 1
    doc["classifier"] = "svm"
    with pytest.raises(ValueError):
        TrainedModel.from_document(doc)


# --- equality with the rules the single code paths replaced ---
#
# Each oracle below is the earlier implementation, copied verbatim apart from
# its name and arguments.

def knn_rule_before(model, features):
    diffs = model.vectors - np.asarray(features, dtype=np.float64)
    dist = np.sqrt(np.sum(diffs * diffs, axis=1))
    nearest = np.argsort(dist, kind="stable")[: model.k]
    votes = Counter(model.labels[i] for i in nearest)
    top = max(votes.values())
    contenders = [label for label, count in votes.items() if count == top]
    if len(contenders) == 1:
        return contenders[0], dict(votes)
    mean_dist = {
        label: float(np.mean([dist[i] for i in nearest if model.labels[i] == label]))
        for label in contenders
    }
    winner = min(contenders, key=lambda label: (mean_dist[label], label))
    return winner, dict(votes)


@st.composite
def tie_heavy_knn(draw):
    # Small integer coordinates make equal distances, and so equal votes and
    # equal mean distances, common.
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    vectors = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float64)
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    queries = np.array(draw(st.lists(coords, min_size=1, max_size=8)), dtype=np.float64)
    return KnnModel(k=draw(st.integers(1, n)), vectors=vectors, labels=labels), queries


@settings(max_examples=400, deadline=None)
@given(tie_heavy_knn())
def test_knn_single_ranking_matches_former_tie_rule(case):
    model, queries = case
    for query in queries:
        winner, votes = model.predict(query)
        assert (winner, votes) == knn_rule_before(model, query)


def split_rule_before(samples, seed, ratios=(0.50, 0.25, 0.25)):
    groups = defaultdict(list)
    for sample in samples:
        groups[sample.label].append(sample)
    rng = np.random.Generator(np.random.PCG64(seed))
    train, val, test = [], [], []
    r_train, r_val, _ = ratios
    for label in sorted(groups):
        group = groups[label]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n_train = math.floor(len(group) * r_train + 1e-9)
        n_val = math.floor(len(group) * r_val + 1e-9)
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train : n_train + n_val])
        test.extend(shuffled[n_train + n_val :])
    return train, val, test


def test_split_cuts_equal_former_ratio_floors():
    for n in range(200_001):
        assert (n // 2, n // 4) == (
            math.floor(n * 0.5 + 1e-9), math.floor(n * 0.25 + 1e-9)
        )


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 200), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_partitions_match_former_ratio_rule(sizes, seed):
    samples = [
        LabeledSample(np.zeros(1), f"g{g}", f"g{g}_{i}")
        for g, size in enumerate(sizes)
        for i in range(size)
    ]
    expected = [[s.source for s in part] for part in split_rule_before(samples, seed)]
    if len(samples) < 4 or not all(expected):
        with pytest.raises((StratificationError, EmptySplitError)):
            split_dataset(samples, SplitSpec(seed=seed))
        return
    parts = split_dataset(samples, SplitSpec(seed=seed))
    assert [[s.source for s in part] for part in parts] == expected


def forward_loop_before(weights, biases, matrix):
    h = np.asarray(matrix, dtype=np.float64)
    activations = [h]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w + b)
        activations.append(h)
    logits = h @ weights[-1] + biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return activations, exp / exp.sum(axis=1, keepdims=True)


def loss_and_grads_before(weights, biases, matrix, target_idx):
    activations, probs = forward_loop_before(weights, biases, matrix)
    n = matrix.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), target_idx])))
    delta = probs.copy()
    delta[np.arange(n), target_idx] -= 1.0
    delta /= n
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grads_w, grads_b


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    batch=st.integers(1, 7),
    scale=st.sampled_from([0.1, 1.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_pass_matches_former_layer_loop(sizes, batch, scale, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = mlp_init(sizes, rng)
    weights = [w * scale for w in weights]
    biases = [rng.standard_normal(b.shape) for b in biases]
    matrix = rng.standard_normal((batch, sizes[0])) * scale
    targets = rng.integers(0, sizes[-1], size=batch)

    activations = classify._forward(weights, biases, matrix)
    hidden, probs = forward_loop_before(weights, biases, matrix)
    assert len(activations) == len(sizes)
    for got, want in zip(activations, hidden + [probs]):
        assert same_bits(got, want)

    loss, grads_w, grads_b = mlp_loss_and_grads(weights, biases, matrix, targets)
    loss_before, grads_w_before, grads_b_before = loss_and_grads_before(
        weights, biases, matrix, targets
    )
    assert same_bits(loss, loss_before)
    for got, want in zip(grads_w + grads_b, grads_w_before + grads_b_before):
        assert same_bits(got, want)


# --- the training loop against the former one ---

def train_mlp_before(train, val, cfg):
    labels = sorted({s.label for s in train})
    index = {label: i for i, label in enumerate(labels)}

    def encode(samples):
        return (np.stack([s.features for s in samples]).astype(np.float64),
                np.array([index[s.label] for s in samples]))

    x_train, y_train = encode(train)
    x_select, y_select = encode(val or train)

    sizes = [x_train.shape[1], *cfg.hidden, len(labels)]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    weights, biases = mlp_init(sizes, rng)

    best_acc = -1.0
    best_weights = [w.copy() for w in weights]
    best_biases = [b.copy() for b in biases]
    history = []

    n = x_train.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            batch = order[start : start + cfg.batch]
            loss, grads_w, grads_b = loss_and_grads_before(
                weights, biases, x_train[batch], y_train[batch]
            )
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged to {loss}")
            for layer in range(len(weights)):
                weights[layer] -= cfg.lr * grads_w[layer]
                biases[layer] -= cfg.lr * grads_b[layer]
        predicted = forward_loop_before(weights, biases, x_select)[1].argmax(axis=1)
        acc = float(np.mean(predicted == y_select))
        history.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_weights = [w.copy() for w in weights]
            best_biases = [b.copy() for b in biases]
    return best_weights, best_biases, history


def training_samples(classes, n, dim, n_val, scale, seed):
    """``n`` training samples cycling through ``classes`` labels, and
    ``n_val`` validation samples with random labels."""
    rng = np.random.Generator(np.random.PCG64(seed))
    train = [LabeledSample(rng.standard_normal(dim) * scale, f"c{i % classes}", str(i))
             for i in range(n)]
    val = [LabeledSample(rng.standard_normal(dim) * scale, f"c{rng.integers(classes)}", "v")
           for _ in range(n_val)]
    return train, val


def training_outcome(train_fn, train, val, cfg):
    """The shapes and bytes of the trained weights and biases with the
    validation history, or the type and message of the divergence error."""
    try:
        weights, biases, history = train_fn(train, val, cfg)
    except NonFiniteLossError as exc:
        return type(exc), str(exc)
    return [(a.shape, a.dtype, a.tobytes()) for a in weights + biases], history


def training_matches_former_loop(train, val, cfg) -> bool:
    def train_now(*args):
        model = train_mlp(*args)
        return model.weights, model.biases, model.val_history

    got = training_outcome(train_now, train, val, cfg)
    # The former loop's backprop copy has no errstate of its own.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want = training_outcome(train_mlp_before, train, val, cfg)
    return got == want


@st.composite
def training_cases(draw):
    classes = draw(st.integers(2, 4))
    n = draw(st.integers(classes, 12))
    samples = dict(classes=classes, n=n, dim=draw(st.integers(1, 5)),
                   n_val=draw(st.integers(0, 4)), scale=draw(st.sampled_from([0.5, 3.0])),
                   seed=draw(st.integers(0, 2**32 - 1)))
    cfg = MlpConfig(
        hidden=tuple(draw(st.lists(st.integers(1, 8), max_size=3))),
        # 1e3 tends to diverge after some steps, 1e30 at once.
        lr=draw(st.sampled_from([0.05, 0.5, 1e3, 1e30])),
        epochs=draw(st.integers(1, 15)),
        batch=draw(st.integers(1, n + 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return samples, cfg


_EXAMPLE_SAMPLES = dict(classes=3, n=10, dim=4, n_val=0, scale=3.0, seed=5)


@settings(max_examples=150, deadline=None)
@given(case=training_cases())
# Batches that do not divide n, a batch above n, no val, divergence.
@example(case=(_EXAMPLE_SAMPLES, MlpConfig(hidden=(5, 4), lr=0.5, epochs=15, batch=3, seed=1)))
@example(case=(_EXAMPLE_SAMPLES, MlpConfig(hidden=(), lr=0.05, epochs=7, batch=13, seed=2)))
@example(case=(_EXAMPLE_SAMPLES, MlpConfig(hidden=(6,), lr=1e30, epochs=3, batch=4, seed=3)))
# A one-row final batch (10 = 3 + 3 + 3 + 1) through no hidden layer.
@example(case=(_EXAMPLE_SAMPLES, MlpConfig(hidden=(), lr=0.5, epochs=6, batch=3, seed=4)))
def test_train_mlp_matches_former_loop(case):
    samples, cfg = case
    train, val = training_samples(**samples)
    assert training_matches_former_loop(train, val, cfg)


def test_train_mlp_divergence_matches_former_loop():
    train, val = training_samples(**_EXAMPLE_SAMPLES)
    cfg = MlpConfig(hidden=(6,), lr=1e30, epochs=3, batch=4, seed=3)
    with pytest.raises(NonFiniteLossError, match="^loss diverged to "):
        train_mlp(train, val, cfg)
    assert training_matches_former_loop(train, val, cfg)


# --- the step's reused buffers ---

def test_dirty_step_buffers_change_no_bit():
    """A step on buffers left holding an earlier step's data, or NaN, gives
    the loss and gradient bits of a step on fresh buffers, over batch sizes,
    weights and class counts, and on the leading rows of longer buffers."""
    rng = np.random.Generator(np.random.PCG64(61))
    for sizes, rows, spare in [([4, 6, 3], 5, 0), ([4, 6, 3], 1, 0), ([4, 6, 5], 5, 0),
                               ([3, 2], 4, 0), ([1, 1, 2], 1, 0), ([4, 7, 6, 3], 2, 0),
                               ([4, 6, 3], 2, 3), ([4, 7, 6, 3], 1, 4)]:
        dirty = classify._step_buffers(rows + spare, sizes)
        for call in range(3):
            if call == 1:
                outs, deltas, col = dirty
                for buffer in [*outs, *deltas, col]:
                    buffer.fill(np.nan)
            weights, biases = mlp_init(sizes, rng)
            biases = [rng.standard_normal(b.shape) for b in biases]
            matrix = rng.standard_normal((rows, sizes[0]))
            targets = rng.integers(0, sizes[-1], size=rows)
            mask = np.eye(sizes[-1], dtype=bool)[targets]
            grads_w = [np.full_like(w, np.nan) for w in weights]
            grads_b = [np.full_like(b, np.nan) for b in biases]
            plan = classify._step_plan(dirty, weights, biases, matrix,
                                       mask.astype(np.float64), mask, grads_w, grads_b)
            loss = classify._run_step(plan, loss=True)
            want_loss, want_w, want_b = mlp_loss_and_grads(weights, biases, matrix, targets)
            assert same_bits(loss, want_loss)
            for got, want in zip(grads_w + grads_b, want_w + want_b):
                assert same_bits(got, want)



def test_train_mlp_makes_one_set_of_step_buffers():
    """A shorter last batch uses the full batches' buffers: 10 = 3 + 3 + 3 + 1."""
    train, val = training_samples(3, 10, 4, 2, 1.0, 7)
    with mock.patch.object(classify, "_step_buffers",
                           wraps=classify._step_buffers) as buffers:
        train_mlp(train, val, MlpConfig(hidden=(5,), epochs=2, batch=3, seed=1))
    buffers.assert_called_once_with(3, [4, 5, 3])


def test_train_mlp_binds_each_batch_step_once():
    """One plan per batch for the whole run, not one per step."""
    train, val = training_samples(3, 9, 4, 2, 1.0, 7)
    with mock.patch.object(classify, "_step_plan", wraps=classify._step_plan) as plan:
        train_mlp(train, val, MlpConfig(hidden=(5,), epochs=5, batch=2, seed=1))
    assert plan.call_count == math.ceil(9 / 2)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    classes=st.integers(2, 5),
    rows=st.integers(1, 5),
    extra=st.integers(0, 3),
    runs=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_plan_bound_once_follows_its_arrays_in_place(sizes, classes, rows, extra, runs,
                                                       seed):
    """A plan bound once to views of epoch buffers and of the flat parameter
    buffer, then run after each in-place refill of the rows (as ``np.take``
    does) and each in-place update of the parameters, gives every run the
    loss and gradient bits of ``mlp_loss_and_grads`` on copies."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = [*sizes, classes]
    weights, biases = mlp_init(sizes, rng)
    params = np.concatenate([p.ravel() for layer in zip(weights, biases) for p in layer])
    weights, biases = classify._layer_views(params, sizes)
    grads = np.full_like(params, np.nan)
    grads_w, grads_b = classify._layer_views(grads, sizes)
    n = rows + extra
    x_epoch = np.full((n, sizes[0]), np.nan)
    onehot_epoch = np.full((n, classes), np.nan)
    mask_epoch = np.zeros((n, classes), dtype=bool)
    start = extra // 2
    batch = slice(start, start + rows)
    plan = classify._step_plan(classify._step_buffers(rows, sizes), weights, biases,
                               x_epoch[batch], onehot_epoch[batch], mask_epoch[batch],
                               grads_w, grads_b)
    for _ in range(runs):
        x_source = rng.standard_normal((n, sizes[0])) * 2.0
        mask_source = np.eye(classes, dtype=bool)[rng.integers(0, classes, size=n)]
        order = rng.permutation(n)
        for source, epoch in ((x_source, x_epoch), (mask_source.astype(np.float64), onehot_epoch),
                              (mask_source, mask_epoch)):
            np.take(source, order, axis=0, out=epoch)
        params -= rng.standard_normal(params.shape) * 0.1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            loss = classify._run_step(plan, loss=True)
        targets = mask_epoch[batch].argmax(axis=1)
        want_loss, want_w, want_b = mlp_loss_and_grads(
            [w.copy() for w in weights], [b.copy() for b in biases], x_epoch[batch].copy(),
            targets)
        assert same_bits(loss, want_loss)
        for got, want in zip(grads_w + grads_b, want_w + want_b):
            assert same_bits(got, want)

# --- the step's products: np.dot where it gives np.matmul's bits ---

#: Entries that round, overflow or turn a sum's sign: signed zeros, the least
#: subnormal, values whose products overflow, and NaN.
PRODUCT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e200, -1e200,
                    1e300, -1e300, np.nan]


def product_operand(rng, rows, cols, transposed, special):
    """A float64 ``(rows, cols)`` operand, C-contiguous or the transposed view
    of a C-contiguous array, with normals scaled from subnormal to 1e300, a
    ``special`` share of ``PRODUCT_SPECIALS`` and some rows of signed zeros."""
    shape = (cols, rows) if transposed else (rows, cols)
    values = rng.standard_normal(shape) * 10.0 ** rng.choice(
        [-320, -300, -160, 0, 0, 0, 160, 300], size=shape)
    picked = rng.random(shape) < special
    values[picked] = rng.choice(PRODUCT_SPECIALS, size=int(picked.sum()))
    values[rng.random(shape[0]) < 0.1] = rng.choice([0.0, -0.0])
    return values.T if transposed else values


def dot_matches_matmul(a, b) -> bool:
    """``np.dot`` and ``np.matmul`` write the same bytes into NaN-filled outputs."""
    by_dot, by_matmul = (np.full((a.shape[0], b.shape[1]), np.nan) for _ in range(2))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        np.dot(a, b, by_dot)
        np.matmul(a, b, by_matmul)
    return by_dot.tobytes() == by_matmul.tobytes()


def dot_scan_mismatches(seed, count) -> int:
    """Products of ``count`` seeded operand pairs, every dimension in 2-40,
    on which ``np.dot`` and ``np.matmul`` differ in a bit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bad = 0
    for _ in range(count):
        m, k, n = rng.integers(2, 41, size=3)
        special = rng.choice([0.0, 0.1, 0.5])
        a = product_operand(rng, m, k, rng.random() < 0.5, special)
        b = product_operand(rng, k, n, rng.random() < 0.5, special)
        bad += not dot_matches_matmul(a, b)
    return bad


@settings(max_examples=200, deadline=None)
@given(dims=st.tuples(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40)),
       transposed=st.tuples(st.booleans(), st.booleans()),
       special=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(dims=(2, 2, 2), transposed=(False, True), special=1.0, seed=0)
def test_dot_writes_the_bits_of_matmul_when_every_dimension_is_at_least_2(
        dims, transposed, special, seed):
    """The premise of ``classify._bind_product``: on 2-D float64 operands
    with every dimension >= 2, plain or transposed, both run one gemm."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m, k, n = dims
    a = product_operand(rng, m, k, transposed[0], special)
    b = product_operand(rng, k, n, transposed[1], special)
    assert dot_matches_matmul(a, b)


def test_dot_and_matmul_differ_on_a_zero_at_inner_dimension_1():
    """Why ``classify._bind_product`` keeps ``np.matmul`` at any dimension of 1."""
    a, b = np.array([[0.0]]), np.array([[-2.25]])
    assert math.copysign(1.0, np.dot(a, b)[0, 0]) == -1.0
    assert math.copysign(1.0, np.matmul(a, b)[0, 0]) == 1.0
    assert not dot_matches_matmul(a, b)


def bound_products(sizes, n, batch):
    """The function behind each matrix product of each batch's step in a
    one-epoch ``train_mlp`` run on ``n`` rows through layers of ``sizes``, in
    plan order: the forward products, then ``act.T @ delta`` and
    ``delta @ w.T`` per hidden layer from the last, then ``x.T @ delta``."""
    step_plan, plans = classify._step_plan, []

    def record(*args):
        plans.append(step_plan(*args))
        return plans[-1]

    train, val = training_samples(sizes[-1], n, sizes[0], 2, 1.0, 7)
    with mock.patch.object(classify, "_step_plan", record):
        train_mlp(train, val, MlpConfig(hidden=tuple(sizes[1:-1]), epochs=1, batch=batch))
    return [[call.func for call in (*forward, *backward) if call.func in (np.dot, np.matmul)]
            for forward, _, backward, *_ in plans]


def test_step_products_take_dot_only_when_every_dimension_is_at_least_2():
    dot, matmul = np.dot, np.matmul
    # The benchmark's net: 16 features, hidden (64, 32), 3 classes, batch 2.
    assert bound_products([16, 64, 32, 3], 30, 2) == [[dot] * 8] * 15
    # 1-row batches.
    assert bound_products([4, 5, 3], 6, 1) == [[matmul] * 5] * 6
    # 10 = 3 + 3 + 3 + 1: only the 1-row last batch stays on np.matmul.
    assert bound_products([4, 5, 3], 10, 3) == [[dot] * 5] * 3 + [[matmul] * 5]
    # A width-1 hidden layer touches every product.
    assert bound_products([4, 1, 3], 10, 3)[:3] == [[matmul] * 5] * 3
    assert bound_products([4, 6, 1, 3], 10, 3)[0] == [dot, *[matmul] * 6, dot]
    # A 1-feature input: the products on the input, x @ w0 and x.T @ delta.
    assert bound_products([1, 3], 10, 3)[0] == [matmul] * 2
    assert bound_products([1, 5, 3], 10, 3)[0] == [matmul, dot, dot, dot, matmul]


def test_mlp_size_bound_is_checked_before_any_weight(monkeypatch):
    train, val = training_samples(3, 9, 4, 2, 1.0, 7)
    cfg = MlpConfig(hidden=(5,), epochs=2, seed=1)
    count = 4 * 5 + 5 + 5 * 3 + 3
    monkeypatch.setattr(classify, "MLP_MAX_PARAMS", count)
    train_mlp(train, val, cfg)

    def refuse(*args):
        raise AssertionError("mlp_init called past the parameter bound")

    monkeypatch.setattr(classify, "MLP_MAX_PARAMS", count - 1)
    monkeypatch.setattr(classify, "mlp_init", refuse)
    with pytest.raises(ModelSizeError, match=r"layer sizes \[4, 5, 3\] need 43 weights"):
        train_mlp(train, val, cfg)


@pytest.mark.parametrize("batch, n_val, rows", [(100, 2, 9), (2, 20, 20)])
def test_mlp_layer_bound_is_checked_before_any_step_buffer(monkeypatch, batch, n_val, rows):
    """Rows are a batch's, or the selection set's when it is longer."""
    train, val = training_samples(3, 9, 4, n_val, 1.0, 7)
    cfg = MlpConfig(hidden=(5, 2), epochs=2, batch=batch, seed=1)
    monkeypatch.setattr(classify, "MLP_MAX_LAYER_VALUES", rows * 5)
    train_mlp(train, val, cfg)

    def refuse(*args):
        raise AssertionError("step buffers made past the layer bound")

    monkeypatch.setattr(classify, "MLP_MAX_LAYER_VALUES", rows * 5 - 1)
    monkeypatch.setattr(classify, "_step_buffers", refuse)
    monkeypatch.setattr(classify, "mlp_init", refuse)
    with pytest.raises(ModelSizeError, match=rf"layer sizes \[4, 5, 2, 3\] on {rows} rows "
                                             rf"per pass need {rows * 5} values"):
        train_mlp(train, val, cfg)


def trained_digest(hidden, batch) -> str:
    """sha256 of the weights, biases and validation history of a small run."""
    train, val = training_samples(3, 10, 4, 3, 2.0, 13)
    model = train_mlp(train, val, MlpConfig(hidden=hidden, lr=0.3, epochs=6,
                                            batch=batch, seed=5))
    hasher = hashlib.sha256(repr(model.val_history).encode())
    for array in model.weights + model.biases:
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def test_trained_bytes_agree_across_processes():
    """Guards against a step buffer read before it is written: fresh
    interpreters and a heap left by a model of another shape hold other
    garbage."""
    env = dict(os.environ)
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(classify.__file__))]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    code = "import test_classify; print(test_classify.trained_digest((5, 3), 4))"
    fresh = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120) for _ in range(2)]
    assert [done.returncode for done in fresh] == [0, 0], fresh[0].stderr
    trained_digest((9, 2, 7), 3)
    in_process = trained_digest((5, 3), 4)
    assert [done.stdout.strip() for done in fresh] == [in_process, in_process]
