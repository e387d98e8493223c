"""Dataset splitting, feature standardization, KNN/MLP classifiers, evaluation.

Both classifiers are implemented from scratch on numpy. Every operation that
consumes randomness (splitting, weight init, batch shuffling) draws from an
explicitly seeded PCG64 generator, never the process-global RNG, so a fixed
seed reproduces models bit for bit on one CPU and BLAS kernel. Across kernels
(another OpenBLAS core type, or numpy's SIMD dispatch at another level) the
float results, and so the model bytes, can differ in the last bits.

Trained models persist as a single JSON document (see ``TrainedModel``) with
floats written as 17-significant-digit decimals, which round-trip doubles
exactly.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
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
from .imgproc import require_theta
from .moments import LabeledSample


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SplitSpec:
    """The shuffle seed of ``split_dataset``; its per-label cuts are fixed."""

    seed: int = 0


def split_dataset(
    samples: list[LabeledSample], spec: SplitSpec
) -> tuple[list[LabeledSample], list[LabeledSample], list[LabeledSample]]:
    """Stratified deterministic 50/25/25 split.

    Within each label group of n samples (taken in sorted label order) the
    samples are shuffled by a PCG64 generator seeded from ``spec.seed``; the
    first ``n // 2`` go to train, the next ``n // 4`` to val and the rest to
    test. Raises ``StratificationError`` when there are fewer than 4 samples
    or any label appears fewer than 2 times, and ``EmptySplitError`` when a
    split ends up empty overall.
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
    for label in sorted(groups):
        group = groups[label]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n_train, n_val = len(group) // 2, len(group) // 4
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

        Equal distances prefer the lower stored-sample index. The winner ranks
        first by (most votes, smallest mean neighbor distance, lexicographically
        smallest label).
        """
        diffs = self.vectors - np.asarray(features, dtype=np.float64)
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        nearest = np.argsort(dist, kind="stable")[: self.k]
        near = defaultdict(list)
        for i in nearest:
            near[self.labels[i]].append(dist[i])

        def rank(label):
            # np.mean's sum and division, without its per-call overhead.
            mean_dist = np.add.reduce(near[label]) / len(near[label])
            return -len(near[label]), mean_dist, label

        return min(near, key=rank), {label: len(d) for label, d in near.items()}


@dataclass(frozen=True)
class MlpConfig:
    """Training hyperparameters. ``mhi train`` reads its ``--hidden``,
    ``--lr``, ``--epochs`` and ``--batch`` defaults from these."""

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
        return _forward(self.weights, self.biases, matrix)[-1]

    def predict(self, features: np.ndarray) -> tuple[str, np.ndarray]:
        """Label with the highest probability; ties go to the lexicographically
        smaller label. Returns the full probability row as well."""
        probs = self.forward(np.asarray(features, dtype=np.float64)[None, :])[0]
        best = probs.max()
        label = min(l for l, p in zip(self.labels, probs) if p == best)
        return label, probs


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], matrix: np.ndarray
) -> list[np.ndarray]:
    """Every layer's activations for a batch of row vectors: the float64
    input, each tanh hidden layer, and the softmax probabilities last."""
    activations = [np.asarray(matrix, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    logits = activations[-1] @ weights[-1] + biases[-1]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    activations.append(exp / exp.sum(axis=1, keepdims=True))
    return activations


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
    # Divergence shows up as inf/nan here and is reported through the loss
    # (train_mlp raises NonFiniteLossError), so numpy's warnings add nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        *activations, probs = _forward(weights, biases, matrix)
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

    def encode(samples):
        return (np.stack([s.features for s in samples]).astype(np.float64),
                np.array([index[s.label] for s in samples]))

    x_train, y_train = encode(train)
    x_select, y_select = encode(val or train)

    sizes = [x_train.shape[1], *cfg.hidden, len(labels)]
    rng = _rng(cfg.seed)
    # One stream drives both init and epoch shuffling, consumed in fixed order.
    weights, biases = mlp_init(sizes, rng)

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
        predicted = _forward(weights, biases, x_select)[-1].argmax(axis=1)
        acc = float(np.mean(predicted == y_select))
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
        return serialize.csv_text([
            ["true\\predicted", *self.labels],
            *([label, *(str(int(c)) for c in row)]
              for label, row in zip(self.labels, self.counts)),
            ["accuracy", serialize.format_float(self.accuracy)],
        ])


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
    The type of ``classifier`` is the one record of which classifier this is;
    the model JSON's ``"classifier"`` kind is read off it.
    """

    tau: int
    theta: float
    standardizer: Standardizer
    classifier: KnnModel | MlpModel

    @property
    def label_set(self) -> list[str]:
        return self.classifier.label_set

    def predict(self, raw_features: np.ndarray) -> tuple[str, float]:
        """Standardize raw features and classify; score is the vote fraction
        (KNN) or the predicted class probability (MLP)."""
        label, row = self.classifier.predict(self.standardizer.apply(raw_features))
        if isinstance(self.classifier, KnnModel):
            return label, row[label] / self.classifier.k
        return label, float(row.max())

    def to_document(self) -> dict:
        model = self.classifier
        if isinstance(model, KnnModel):
            kind, section = "knn", {"k": model.k, "vectors": model.vectors,
                                    "labels": model.labels}
        else:
            kind, section = "mlp", {"sizes": model.sizes, "weights": model.weights,
                                    "biases": model.biases}
        return {
            "version": 1,
            "classifier": kind,
            "tau": self.tau,
            "theta": self.theta,
            "labels": self.label_set,
            "standardizer": {
                "mean": self.standardizer.mean,
                "std": self.standardizer.std,
            },
            kind: section,
        }

    def to_bytes(self) -> bytes:
        return serialize.dump_bytes(self.to_document())

    @classmethod
    def from_document(cls, doc: dict, feature_dim: int | None = None) -> "TrainedModel":
        """Rebuild a model, checking every field's presence, type and shape.

        The feature width is ``feature_dim`` if given, else that of the
        standardizer mean; every other array must agree with it. Arrays hold
        finite JSON numbers, ``standardizer.std`` is positive, ``labels`` and
        ``knn.labels`` are lists of nonempty strings, ``tau``, ``knn.k`` and
        the entries of the ``mlp.sizes`` list are integers >= 1 and ``theta``
        is a finite number.
        """
        if _field(doc, "version") != 1:
            raise ModelFormatError(f"unsupported model version: {doc['version']}")
        kind = _field(doc, "classifier")
        if kind not in ("knn", "mlp"):
            raise ModelFormatError(f"unknown classifier type: {kind!r}")
        mean = _array(doc, "standardizer.mean", (feature_dim,))
        width = len(mean)
        std = _array(doc, "standardizer.std", (width,))
        if not (std > 0).all():
            raise ModelFormatError("standardizer.std must be > 0")
        labels = _labels(doc, "labels")
        if len(set(labels)) != len(labels):
            raise ModelFormatError(f"labels {labels} are not unique")
        if kind == "knn":
            stored = _labels(doc, "knn.labels")
            if labels != sorted(set(stored)):
                raise ModelFormatError(
                    f"labels {labels} differ from the sorted knn.labels {sorted(set(stored))}"
                )
            classifier = KnnModel(
                k=_count(doc, "knn.k"),
                vectors=_array(doc, "knn.vectors", (len(stored), width)),
                labels=stored,
            )
        else:
            depth = len(_list(doc, "mlp.sizes"))
            sizes = [_count(doc, f"mlp.sizes.{l}") for l in range(depth)]
            if len(sizes) < 2 or sizes[0] != width or sizes[-1] != len(labels):
                raise ModelFormatError(
                    f"mlp.sizes {sizes} must run from {width} inputs "
                    f"to {len(labels)} labels"
                )
            layers = range(len(sizes) - 1)
            classifier = MlpModel(
                sizes=sizes,
                weights=[_array(doc, f"mlp.weights.{l}", sizes[l : l + 2]) for l in layers],
                biases=[_array(doc, f"mlp.biases.{l}", sizes[l + 1 : l + 2]) for l in layers],
                labels=labels,
            )
        return cls(
            tau=_count(doc, "tau"),
            theta=require_theta(float(_array(doc, "theta", ()))),
            standardizer=Standardizer(mean=mean, std=std),
            classifier=classifier,
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


def _list(doc, path: str) -> list:
    """A field that is a JSON list."""
    value = _field(doc, path)
    if type(value) is not list:
        raise ModelFormatError(f"{path} must be a list, got {type(value).__name__}")
    return value


def _labels(doc, path: str) -> list[str]:
    """A list field of nonempty strings."""
    labels = _list(doc, path)
    if not all(type(label) is str and label for label in labels):
        raise ModelFormatError(f"{path} must hold nonempty strings only")
    return labels


def _count(doc, path: str) -> int:
    """An integer field >= 1; a JSON float or bool is not one."""
    value = _field(doc, path)
    if type(value) is not int or value < 1:
        raise ModelFormatError(f"{path} must be an integer >= 1, got {value!r}")
    return value


def _array(doc, path: str, shape) -> np.ndarray:
    """A float64 array field of ``shape``, where ``None`` allows any length,
    holding finite JSON numbers only (a bool or a string is not one)."""
    entries = np.array(_field(doc, path), dtype=object)
    if entries.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(entries.shape, shape)
    ):
        raise ModelFormatError(f"{path} has shape {entries.shape}, expected {tuple(shape)}")
    if not {int, float}.issuperset(map(type, entries.flat)):
        raise ModelFormatError(f"{path} must hold numbers only")
    try:
        array = entries.astype(np.float64)
        finite = np.isfinite(array).all()
    except OverflowError:  # an integer past the float64 range
        finite = False
    if not finite:
        raise ModelFormatError(f"{path} must hold finite numbers only")
    return array
