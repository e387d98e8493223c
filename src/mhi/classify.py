"""Dataset splitting, feature standardization, KNN/MLP classifiers, evaluation.

Both classifiers are implemented from scratch on numpy. Every operation that
consumes randomness (splitting, weight init, batch shuffling) draws from an
explicitly seeded PCG64 generator, never the process-global RNG, so a fixed
seed reproduces models bit-for-bit on any platform.

Trained models persist as a single JSON document (see ``TrainedModel``) with
floats written as 17-significant-digit decimals, which round-trip doubles
exactly.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import (
    EmptySplitError,
    EmptyTrainingError,
    ModelFormatError,
    NonFiniteLossError,
    SingleClassError,
    StratificationError,
    UnknownLabelError,
)
from .moments import LabeledSample
from .temporal import require_theta

#: Slack absorbing float representation error in ratio * count products.
_RATIO_SLACK = 1e-9


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios (must sum to 1) and the shuffle seed."""

    ratios: tuple[float, float, float] = (0.50, 0.25, 0.25)
    seed: int = 0

    def __post_init__(self):
        if any(r < 0 for r in self.ratios):
            raise ValueError(f"ratios must be >= 0: {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1: {self.ratios}")


def split_dataset(
    samples: list[LabeledSample], spec: SplitSpec
) -> tuple[list[LabeledSample], list[LabeledSample], list[LabeledSample]]:
    """Stratified deterministic split.

    Within each label group (taken in sorted label order) the samples are
    shuffled by a PCG64 generator seeded from ``spec.seed`` and cut at the
    ratio boundaries: floor for train, floor for val, remainder test. Raises
    ``StratificationError`` when there are fewer than 4 samples or any label
    appears fewer than 2 times, and ``EmptySplitError`` when a split ends up
    empty overall.
    """
    if len(samples) < 4:
        raise StratificationError(f"need >= 4 samples, got {len(samples)}")
    groups: dict[str, list[LabeledSample]] = defaultdict(list)
    for sample in samples:
        groups[sample.label].append(sample)
    for label, group in groups.items():
        if len(group) < 2:
            raise StratificationError(
                f"label {label!r} has {len(group)} sample(s), need >= 2"
            )

    rng = _rng(spec.seed)
    train: list[LabeledSample] = []
    val: list[LabeledSample] = []
    test: list[LabeledSample] = []
    r_train, r_val, _ = spec.ratios
    for label in sorted(groups):
        group = groups[label]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n_train = math.floor(len(group) * r_train + _RATIO_SLACK)
        n_val = math.floor(len(group) * r_val + _RATIO_SLACK)
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train : n_train + n_val])
        test.extend(shuffled[n_train + n_val :])
    for name, part in (("train", train), ("val", val), ("test", test)):
        if not part:
            raise EmptySplitError(f"{name} split received 0 samples")
    return train, val, test


@dataclass
class Standardizer:
    """Per-feature affine map to zero mean / unit variance, fit on train only."""

    mean: np.ndarray
    std: np.ndarray

    #: Degenerate (constant) features get their std floored to this value.
    STD_FLOOR = 1e-12

    @classmethod
    def fit(cls, samples: list[LabeledSample]) -> "Standardizer":
        if not samples:
            raise EmptyTrainingError("cannot fit a standardizer on no samples")
        matrix = np.stack([s.features for s in samples]).astype(np.float64)
        mean = matrix.mean(axis=0)
        std = np.maximum(matrix.std(axis=0), cls.STD_FLOOR)
        return cls(mean=mean, std=std)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def inverse(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) * self.std + self.mean


@dataclass
class KnnModel:
    """k-nearest-neighbors over stored standardized training vectors."""

    k: int
    vectors: np.ndarray
    labels: list[str]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > len(self.labels):
            raise ValueError(f"k={self.k} exceeds {len(self.labels)} stored samples")

    @property
    def label_set(self) -> list[str]:
        return sorted(set(self.labels))

    def predict(self, features: np.ndarray) -> tuple[str, dict[str, int]]:
        """Majority label among the k nearest by Euclidean distance.

        Tie-breaks, in order: equal distances prefer the lower stored-sample
        index; equal vote counts prefer the smaller mean neighbor distance,
        then the lexicographically smaller label.
        """
        diffs = self.vectors - np.asarray(features, dtype=np.float64)
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        nearest = np.argsort(dist, kind="stable")[: self.k]
        votes = Counter(self.labels[i] for i in nearest)
        top = max(votes.values())
        contenders = [label for label, count in votes.items() if count == top]
        if len(contenders) == 1:
            return contenders[0], dict(votes)
        mean_dist = {
            label: float(np.mean([dist[i] for i in nearest if self.labels[i] == label]))
            for label in contenders
        }
        winner = min(contenders, key=lambda label: (mean_dist[label], label))
        return winner, dict(votes)


@dataclass(frozen=True)
class MlpConfig:
    """Training hyperparameters; defaults match the CLI defaults."""

    hidden: tuple[int, ...] = (64, 32)
    lr: float = 0.05
    epochs: int = 300
    batch: int = 2
    seed: int = 0


@dataclass
class MlpModel:
    """Feed-forward net: tanh hidden layers, softmax output.

    ``weights[l]`` has shape (sizes[l], sizes[l+1]); ``biases[l]`` has shape
    (sizes[l+1],). ``val_history`` keeps per-epoch validation accuracy from
    training and is not serialized.
    """

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    labels: list[str]
    val_history: list[float] | None = field(default=None, repr=False)

    @property
    def label_set(self) -> list[str]:
        return list(self.labels)

    def forward(self, matrix: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of row vectors."""
        h = np.asarray(matrix, dtype=np.float64)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
        return _softmax(h @ self.weights[-1] + self.biases[-1])

    def predict(self, features: np.ndarray) -> tuple[str, np.ndarray]:
        """Label with the highest probability; ties go to the lexicographically
        smaller label. Returns the full probability row as well."""
        probs = self.forward(np.asarray(features, dtype=np.float64)[None, :])[0]
        best = probs.max()
        label = min(l for l, p in zip(self.labels, probs) if p == best)
        return label, probs


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def mlp_init(
    sizes: list[int], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Glorot-uniform weights, zero biases, drawn layer by layer from ``rng``."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def mlp_loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    matrix: np.ndarray,
    target_idx: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy of a batch plus gradients for every parameter.

    This is the single backprop implementation: the training loop consumes it
    directly, so a finite-difference check of this function validates the
    gradients the optimizer actually uses.
    """
    activations = [np.asarray(matrix, dtype=np.float64)]
    # Divergence shows up as inf/nan here and is reported through the loss
    # (train_mlp raises NonFiniteLossError), so numpy's warnings add nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w, b in zip(weights[:-1], biases[:-1]):
            activations.append(np.tanh(activations[-1] @ w + b))
        probs = _softmax(activations[-1] @ weights[-1] + biases[-1])

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
            # tanh'(z) expressed through the activation itself: 1 - a^2.
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grads_w, grads_b


def _accuracy(model: MlpModel, matrix: np.ndarray, target_idx: np.ndarray) -> float:
    if matrix.shape[0] == 0:
        return 0.0
    predicted = model.forward(matrix).argmax(axis=1)
    return float(np.mean(predicted == target_idx))


def train_mlp(
    train: list[LabeledSample],
    val: list[LabeledSample],
    cfg: MlpConfig = MlpConfig(),
) -> MlpModel:
    """Mini-batch SGD on softmax cross-entropy, deterministic per seed.

    Weights start Glorot-uniform, biases zero. Each epoch reshuffles the
    training set with the same generator that initialized the weights and
    records accuracy on ``val``; the returned model is the snapshot of the
    epoch with the best validation accuracy (earliest on ties). With an empty
    ``val`` the training accuracy is used for selection instead. Raises
    ``SingleClassError`` for fewer than two training classes and
    ``NonFiniteLossError`` if the loss diverges.
    """
    labels = sorted({s.label for s in train})
    if len(labels) < 2:
        raise SingleClassError(f"need >= 2 classes, got {labels}")
    index = {label: i for i, label in enumerate(labels)}

    x_train = np.stack([s.features for s in train]).astype(np.float64)
    y_train = np.array([index[s.label] for s in train])
    x_val = (
        np.stack([s.features for s in val]).astype(np.float64)
        if val
        else np.empty((0, x_train.shape[1]))
    )
    y_val = np.array([index[s.label] for s in val], dtype=int)

    sizes = [x_train.shape[1], *cfg.hidden, len(labels)]
    rng = _rng(cfg.seed)
    # One stream drives both init and epoch shuffling, consumed in fixed order.
    weights, biases = mlp_init(sizes, rng)

    model = MlpModel(sizes=sizes, weights=weights, biases=biases, labels=labels)
    best_acc = -1.0
    best_weights = [w.copy() for w in weights]
    best_biases = [b.copy() for b in biases]
    history: list[float] = []

    n = x_train.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            batch = order[start : start + cfg.batch]
            loss, grads_w, grads_b = mlp_loss_and_grads(
                weights, biases, x_train[batch], y_train[batch]
            )
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged to {loss}")
            for layer in range(len(weights)):
                weights[layer] -= cfg.lr * grads_w[layer]
                biases[layer] -= cfg.lr * grads_b[layer]
        if val:
            acc = _accuracy(model, x_val, y_val)
        else:
            acc = _accuracy(model, x_train, y_train)
        history.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_weights = [w.copy() for w in weights]
            best_biases = [b.copy() for b in biases]

    return MlpModel(
        sizes=sizes,
        weights=best_weights,
        biases=best_biases,
        labels=labels,
        val_history=history,
    )


@dataclass
class ConfusionMatrix:
    """C x C count table; rows are true labels, columns predicted labels."""

    labels: list[str]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def to_csv(self) -> str:
        lines = ["true\\predicted," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.counts):
            lines.append(label + "," + ",".join(str(int(c)) for c in row))
        lines.append("accuracy," + serialize.format_float(self.accuracy))
        return "\n".join(lines) + "\n"


def evaluate(model, samples: list[LabeledSample]) -> tuple[ConfusionMatrix, float]:
    """Confusion matrix and accuracy of ``model`` on labeled samples.

    ``model`` is anything with ``label_set`` and ``predict`` (KnnModel,
    MlpModel, TrainedModel). Raises ``UnknownLabelError`` for a sample label
    the model was not trained on.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    labels = model.label_set
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for sample in samples:
        if sample.label not in index:
            raise UnknownLabelError(f"label {sample.label!r} not in {labels}")
        predicted, _ = model.predict(sample.features)
        counts[index[sample.label], index[predicted]] += 1
    matrix = ConfusionMatrix(labels=labels, counts=counts)
    return matrix, matrix.accuracy


@dataclass
class TrainedModel:
    """Persistable bundle: classifier + preprocessing parameters.

    ``tau``/``theta`` record the pipeline settings the features were extracted
    with, so sliding-window prediction can rebuild templates consistently.
    Exactly one of ``knn``/``mlp`` is set, matching ``classifier``.
    """

    classifier: str
    tau: int
    theta: float
    standardizer: Standardizer
    knn: KnnModel | None = None
    mlp: MlpModel | None = None

    @property
    def inner(self):
        return self.knn if self.classifier == "knn" else self.mlp

    @property
    def label_set(self) -> list[str]:
        return self.inner.label_set

    def predict(self, raw_features: np.ndarray) -> tuple[str, float]:
        """Standardize raw features and classify; score is the vote fraction
        (KNN) or the predicted class probability (MLP)."""
        features = self.standardizer.apply(raw_features)
        if self.classifier == "knn":
            label, votes = self.knn.predict(features)
            return label, votes[label] / self.knn.k
        label, probs = self.mlp.predict(features)
        return label, float(probs.max())

    def to_document(self) -> dict:
        doc = {
            "version": 1,
            "classifier": self.classifier,
            "tau": self.tau,
            "theta": self.theta,
            "labels": self.label_set,
            "standardizer": {
                "mean": self.standardizer.mean,
                "std": self.standardizer.std,
            },
        }
        if self.classifier == "knn":
            doc["knn"] = {
                "k": self.knn.k,
                "vectors": self.knn.vectors,
                "labels": self.knn.labels,
            }
        else:
            doc["mlp"] = {
                "sizes": self.mlp.sizes,
                "weights": self.mlp.weights,
                "biases": self.mlp.biases,
            }
        return doc

    def to_bytes(self) -> bytes:
        return serialize.dump_bytes(self.to_document())

    @classmethod
    def from_document(cls, doc: dict, feature_dim: int | None = None) -> "TrainedModel":
        """Rebuild a model, checking every field's presence and shape.

        The feature width is ``feature_dim`` if given, else that of the
        standardizer mean; every other array must agree with it.
        """
        if _field(doc, "version") != 1:
            raise ModelFormatError(f"unsupported model version: {doc['version']}")
        kind = _field(doc, "classifier")
        if kind not in ("knn", "mlp"):
            raise ModelFormatError(f"unknown classifier type: {kind!r}")
        mean = _array(doc, "standardizer.mean", (feature_dim,))
        width = len(mean)
        standardizer = Standardizer(mean=mean, std=_array(doc, "standardizer.std", (width,)))
        labels = list(_field(doc, "labels"))
        if len(set(labels)) != len(labels):
            raise ModelFormatError(f"labels {labels} are not unique")
        knn = mlp = None
        if kind == "knn":
            stored = list(_field(doc, "knn.labels"))
            if labels != sorted(set(stored)):
                raise ModelFormatError(
                    f"labels {labels} differ from the sorted knn.labels {sorted(set(stored))}"
                )
            knn = KnnModel(
                k=int(_field(doc, "knn.k")),
                vectors=_array(doc, "knn.vectors", (len(stored), width)),
                labels=stored,
            )
        else:
            sizes = [int(s) for s in _field(doc, "mlp.sizes")]
            if len(sizes) < 2 or sizes[0] != width or sizes[-1] != len(labels):
                raise ModelFormatError(
                    f"mlp.sizes {sizes} must run from {width} inputs "
                    f"to {len(labels)} labels"
                )
            layers = range(len(sizes) - 1)
            mlp = MlpModel(
                sizes=sizes,
                weights=[_array(doc, f"mlp.weights.{l}", sizes[l : l + 2]) for l in layers],
                biases=[_array(doc, f"mlp.biases.{l}", sizes[l + 1 : l + 2]) for l in layers],
                labels=labels,
            )
        tau = int(_field(doc, "tau"))
        if tau < 1:
            raise ModelFormatError(f"tau must be >= 1, got {tau}")
        return cls(
            classifier=kind,
            tau=tau,
            theta=require_theta(float(_field(doc, "theta"))),
            standardizer=standardizer,
            knn=knn,
            mlp=mlp,
        )

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str | os.PathLike, feature_dim: int | None = None) -> "TrainedModel":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_document(json.load(fh), feature_dim)
            except (ValueError, TypeError, RecursionError) as exc:
                raise ModelFormatError(f"{path}: {exc}") from exc


def _field(doc, path: str):
    """The value at a dotted ``path`` of a model document; list indices are
    digits."""
    value = doc
    for key in path.split("."):
        if isinstance(value, list) and key.isdigit() and int(key) < len(value):
            value = value[int(key)]
        elif isinstance(value, dict) and key in value:
            value = value[key]
        else:
            raise ModelFormatError(f"model document lacks {path!r}")
    return value


def _array(doc, path: str, shape) -> np.ndarray:
    """A float64 array field of ``shape``, where ``None`` allows any length."""
    array = np.array(_field(doc, path), dtype=np.float64)
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise ModelFormatError(f"{path} has shape {array.shape}, expected {tuple(shape)}")
    return array
