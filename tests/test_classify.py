"""Splitting, standardization, KNN/MLP training, evaluation, persistence."""

import csv
import io
import json
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_standardizer_inverse_round_trip():
    samples = make_samples({"a": 10}, dim=5, seed=2)
    std = Standardizer.fit(samples)
    vector = samples[3].features
    np.testing.assert_allclose(std.inverse(std.apply(vector)), vector, rtol=1e-12)


def test_standardizer_constant_feature():
    samples = [LabeledSample(np.array([7.0, i * 1.0]), "a") for i in range(6)]
    std = Standardizer.fit(samples)
    assert std.std[0] == Standardizer.STD_FLOOR
    assert std.apply(np.array([7.0, 2.5]))[0] == 0.0


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
    model.save(path)
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
    model = MlpModel(sizes=sizes, weights=weights, biases=biases,
                     labels=[str(i) for i in range(sizes[-1])])
    assert same_bits(model.forward(matrix), probs)

    loss, grads_w, grads_b = mlp_loss_and_grads(weights, biases, matrix, targets)
    loss_before, grads_w_before, grads_b_before = loss_and_grads_before(
        weights, biases, matrix, targets
    )
    assert same_bits(loss, loss_before)
    for got, want in zip(grads_w + grads_b, grads_w_before + grads_b_before):
        assert same_bits(got, want)
