"""Dataset splitting, feature standardization, KNN/MLP classifiers, evaluation.

Both classifiers are implemented from scratch on numpy. Every operation that
consumes randomness (splitting, weight init, batch shuffling) draws from an
explicitly seeded PCG64 generator, never the process-global RNG, so a fixed
seed reproduces models bit for bit on one CPU and BLAS kernel. Across kernels
(another OpenBLAS core type, or numpy's SIMD dispatch at another level) the
float results, and so the model bytes, can differ in the last bits.

Inference runs on blocks of rows: ``TrainedModel.predict_rows`` standardizes
a block's rows at once and makes one classifier call for them, with the bits
each row gets alone. The MLP forward pass runs on an ``(N, 1, F)`` layout, so
every row takes the one-row matmuls of ``predict``, and the KNN ranks row by
row. ``TrainedModel.predict`` is the one-row case. An inference forward pass
that overflows float64 raises ``ForwardOverflowError``; none is silently
saturated. ``saturated_layer`` finds a finite net that is: one whose hidden
layer reads +-1.0 in every unit on every training row.

MLP training holds every weight and bias as a view into one flat float64
buffer and the gradients in a second buffer of the same layout, so an SGD
step updates all parameters with two numpy calls. Each parameter still sees
the same multiply and subtract, so the trained bits do not depend on it.
The step's backprop allocates nothing: it writes activations, deltas and
gradients into one set of buffers made once per run, takes one-hot targets
gathered once per epoch, and forms the loss only to report a divergence.
Its numpy calls are bound to those buffers once per run. Each of its numpy
calls is a float operation of ``_forward`` or of a backprop on fresh arrays,
so the bits are theirs: a product whose operands have every dimension >= 2
runs through ``np.dot``, the same gemm as ``np.matmul`` at about half the
call cost, and one with a dimension of 1 through ``np.matmul`` (see
``_bind_product``). A net of more than ``MLP_MAX_PARAMS`` weights and
biases is refused before any is drawn, and so is a pass whose widest layer
would hold more than ``MLP_MAX_LAYER_VALUES`` values: the step's buffers and
the selection pass grow with the rows, not with the parameters.

Trained models persist as a single JSON document (see ``TrainedModel``) with
floats written as 17-significant-digit decimals, which round-trip doubles
exactly.
"""

from __future__ import annotations

import functools
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
    FeatureOverflowError,
    ForwardOverflowError,
    ModelFormatError,
    ModelSizeError,
    NonFiniteLossError,
    SingleClassError,
    StratificationError,
    UnknownLabelError,
)
from .imgproc import require_theta
from .moments import LabeledSample
from .temporal import MAX_TAU


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
    """Per-feature affine map to zero mean / unit variance, fit on train only.

    Features are named ``f0``, ``f1``, ... as in the feature CSV header.
    ``fit`` and ``check`` raise ``FeatureOverflowError`` naming the feature
    whose mean, std or standardized value overflows float64.
    """

    mean: np.ndarray
    std: np.ndarray

    #: Degenerate (constant) features get their std floored to this value.
    STD_FLOOR = 1e-12

    @classmethod
    def fit(cls, samples: list[LabeledSample]) -> "Standardizer":
        if not samples:
            raise EmptyTrainingError("cannot fit a standardizer on no samples")
        matrix = np.stack([s.features for s in samples]).astype(np.float64)
        # Overflow is reported by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = matrix.mean(axis=0)
            std = np.maximum(matrix.std(axis=0), cls.STD_FLOOR)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            i = int(np.argmax(bad))
            raise FeatureOverflowError(
                f"feature f{i} overflows standardization: "
                f"mean {mean[i]}, std {std[i]} over {len(samples)} samples"
            )
        return cls(mean=mean, std=std)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def check(self, samples: list[LabeledSample]) -> None:
        """Raise ``FeatureOverflowError`` if a sample standardizes to a value
        that is not finite. Feature CSV rows can; the ``signed_log``
        features that ``predict`` computes stay within about +-330."""
        if not samples:
            return
        matrix = np.stack([s.features for s in samples]).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(self.apply(matrix))
        if bad.any():
            row, i = np.argwhere(bad)[0]
            raise FeatureOverflowError(
                f"sample {samples[row].source}: feature f{i} value "
                f"{matrix[row, i]} does not standardize to a finite value"
            )


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
        smallest label). Raises ``FeatureOverflowError`` when a distance is not
        finite, as for a finite row far enough out that its squares overflow.
        """
        features = np.asarray(features, dtype=np.float64)
        # Overflow is reported by the finiteness check below.
        with np.errstate(over="ignore"):
            diffs = self.vectors - features
            dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        if not np.isfinite(dist).all():
            i = int(np.argmax(np.abs(features)))
            raise FeatureOverflowError(
                f"feature f{i} standardizes to {features[i]:g}, too far from the "
                "stored vectors for a finite distance"
            )
        nearest = np.argsort(dist, kind="stable")[: self.k]
        near = defaultdict(list)
        for i in nearest:
            near[self.labels[i]].append(dist[i])

        def rank(label):
            # np.mean's sum and division, without its per-call overhead.
            mean_dist = np.add.reduce(near[label]) / len(near[label])
            return -len(near[label]), mean_dist, label

        return min(near, key=rank), {label: len(d) for label, d in near.items()}


#: The most weights and biases ``train_mlp`` builds: 1 GiB of float64 at
#: the bound, held three times (parameters, gradients, best snapshot).
MLP_MAX_PARAMS = 2**27

#: The most values one layer's outputs may take in one training pass: rows
#: times the widest layer after the input, 256 MiB of float64 at the bound.
#: The rows are a batch's, or the selection set's when it is longer, as each
#: epoch scores that set in one pass. A step holds each hidden layer twice.
MLP_MAX_LAYER_VALUES = 2**25


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
    training and ``selected_epoch`` the 1-based epoch whose snapshot the
    weights are; neither is serialized.
    """

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    labels: list[str]
    val_history: list[float] | None = field(default=None, repr=False)
    selected_epoch: int | None = field(default=None, repr=False)

    @property
    def label_set(self) -> list[str]:
        return list(self.labels)

    def predict(self, features: np.ndarray) -> tuple[str, np.ndarray]:
        """Label with the highest probability; ties go to the lexicographically
        smaller label. Returns the full probability row as well. This is the
        one-row ``predict_rows``."""
        labels, probs = self.predict_rows(np.asarray(features, dtype=np.float64)[None, :])
        return labels[0], probs[0]

    def predict_rows(self, matrix: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The ``predict`` label of each row of an ``(N, F)`` matrix and the
        ``(N, C)`` probability matrix, from one forward pass.

        The pass runs on the ``(N, 1, F)`` layout, so each row takes the same
        one-row matmuls, and gets the same bits, as alone; the softmax runs
        along the last axis. The labels come from one argmax over the columns
        put in ascending label order, whose first maximum is the smallest
        label of the row's highest probability, whatever order ``labels``
        has. Raises ``ForwardOverflowError`` when the pass overflows float64,
        which would saturate a tanh or turn a probability into NaN.
        """
        rows = np.asarray(matrix, dtype=np.float64)[:, None, :]
        try:
            with np.errstate(over="raise", invalid="raise"):
                probs = _forward(self.weights, self.biases, rows)[-1][:, 0]
        except FloatingPointError as exc:
            raise ForwardOverflowError(f"MLP forward pass overflows float64 ({exc})") from exc
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        best = probs[:, order].argmax(axis=1).tolist()
        return [self.labels[order[i]] for i in best], probs


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], matrix: np.ndarray
) -> list[np.ndarray]:
    """Every layer's activations for a batch of row vectors, along the last
    axis: the float64 input, each tanh hidden layer, and the softmax
    probabilities last."""
    activations = [np.asarray(matrix, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    logits = activations[-1] @ weights[-1] + biases[-1]
    # The reductions behind ``.max()`` and ``.sum()``, without their wrappers.
    exp = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    activations.append(exp / np.add.reduce(exp, axis=-1, keepdims=True))
    return activations


def saturated_layer(model: MlpModel, matrix: np.ndarray) -> int | None:
    """The 1-based index of the first hidden layer whose every unit reads
    exactly +-1.0 on every row of ``matrix``, or None.

    Such a layer passes on only the signs of its inputs, as a huge learning
    rate can leave it with every value finite. The layers are ``_forward``'s,
    and an overflow in the pass raises no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = _forward(model.weights, model.biases, matrix)[1:-1]
    return next((index for index, layer in enumerate(hidden, start=1)
                 if (np.abs(layer) == 1.0).all()), None)


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


def _layer_views(
    flat: np.ndarray, sizes: list[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's weight matrix and bias vector as C-contiguous views into
    one flat buffer laid out ``w0, b0, w1, b1, ...``."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def _step_buffers(rows: int, sizes: list[int]) -> tuple:
    """New buffers for backprop steps on up to ``rows`` rows through layers
    of ``sizes``: each layer's output (softmax probabilities last), a delta
    per hidden layer and a column for the softmax's row max and sum. A step
    writes every element of its rows before reading it, so the buffers can
    serve any number of steps.
    """
    outs = [np.empty((rows, width)) for width in sizes[1:]]
    return outs, [np.empty_like(out) for out in outs[:-1]], np.empty((rows, 1))


def _bind_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> functools.partial:
    """``a @ b`` into ``out``, bound: ``np.dot`` when every dimension of both
    2-D float64 operands is >= 2, else ``np.matmul``.

    On such operands, plain or transposed views, both call the same BLAS gemm
    with beta 0 into the same C-contiguous ``out`` (which ``np.dot``
    requires), so they write the same bits, and ``np.dot`` dispatches in
    about half the time. With an inner dimension of 1 they can differ on a
    zero: ``[[0.0]] @ [[-2.25]]`` is -0.0 by ``np.dot`` and +0.0 by
    ``np.matmul``, so any dimension of 1 keeps ``np.matmul``.
    """
    product = np.dot if min(a.shape) > 1 and min(b.shape) > 1 else np.matmul
    return functools.partial(product, a, b, out)


def _step_plan(buffers, weights, biases, matrix, onehot, mask, grads_w, grads_b) -> tuple:
    """A backprop step on the leading ``matrix.shape[0]`` rows of
    ``_step_buffers``, bound once and run by ``_run_step`` any number of
    times: the forward calls, the divergence check, the backward calls, and
    the ``probs``, ``mask`` and row count of the loss. The targets are
    float64 ``onehot`` and bool ``mask`` rows.

    Every operand, axis and output, ``.T`` views too, is bound positionally,
    so a run does no keyword parsing, indexing or slicing. The calls keep
    only views, so a run reads whatever the bound arrays hold at that moment.
    A buffer's leading rows are C-contiguous, as a buffer of that many rows
    is. Each numpy call is a float operation of ``_forward`` or of a
    backprop on fresh arrays, each product the same gemm as ``np.matmul``
    (see ``_bind_product``), so the bits are theirs; ``delta -= onehot`` is
    ``delta[target] -= 1.0``, as p - 0.0 = p.
    """
    bind = functools.partial
    n = matrix.shape[0]
    outs, deltas, col = buffers
    outs, deltas, col = [out[:n] for out in outs], [back[:n] for back in deltas], col[:n]
    forward, layer_in = [], matrix
    for w, b, out in zip(weights[:-1], biases[:-1], outs):
        forward += [_bind_product(layer_in, w, out), bind(np.add, out, b, out),
                    bind(np.tanh, out, out)]
        layer_in = out
    probs = outs[-1]
    forward += [_bind_product(layer_in, weights[-1], probs),
                bind(np.add, probs, biases[-1], probs),
                bind(np.maximum.reduce, probs, 1, None, col, True),
                bind(np.subtract, probs, col, probs), bind(np.exp, probs, probs),
                bind(np.add.reduce, probs, 1, None, col, True),
                bind(np.divide, probs, col, probs)]
    # The least target probability, 1.0 past the mask's one entry per row.
    check = bind(np.minimum.reduce, probs, None, None, None, False, 1.0, mask)
    # The probabilities are not needed past the loss, so they become delta.
    delta = probs
    backward = [bind(np.subtract, delta, onehot, delta), bind(np.divide, delta, n, delta)]
    for layer in range(len(weights) - 1, 0, -1):
        # tanh'(z) expressed through the activation itself: 1 - a^2, formed
        # in the activation's buffer, which nothing reads after this.
        act, back = outs[layer - 1], deltas[layer - 1]
        backward += [_bind_product(act.T, delta, grads_w[layer]),
                     bind(np.add.reduce, delta, 0, None, grads_b[layer]),
                     _bind_product(delta, weights[layer].T, back),
                     bind(np.square, act, act), bind(np.subtract, 1.0, act, act),
                     bind(np.multiply, back, act, back)]
        delta = back
    backward += [_bind_product(matrix.T, delta, grads_w[0]),
                 bind(np.add.reduce, delta, 0, None, grads_b[0])]
    return tuple(forward), check, tuple(backward), probs, mask, n


def _run_step(plan: tuple, loss: bool = False) -> float | None:
    """Run a ``_step_plan`` once. Returns the loss when ``loss`` is set or it
    is not finite, else None.

    With probabilities in [0, 1] and a NaN spreading to its whole row, the
    loss is not finite exactly when some target probability is not > 0.
    Overflow shows up as inf or NaN; the caller holds the ``errstate`` that
    silences numpy's warnings about it.
    """
    forward, check, backward, probs, mask, n = plan
    for call in forward:
        call()
    value = None
    if loss or not check() > 0:
        # np.mean's sum and division, without its wrapper; ``probs[mask]``
        # holds one target probability per row, in row order.
        value = float(-(np.add.reduce(np.log(probs[mask])) / n))
    for call in backward:
        call()
    return value


def mlp_loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    matrix: np.ndarray,
    target_idx: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy of a batch plus gradients for every parameter.

    This is the single backprop implementation: it builds one ``_step_plan``
    and runs it once with ``_run_step``, and ``train_mlp`` runs the same
    plans, bound once per batch, so a finite-difference check of this
    function validates the gradients the optimizer actually uses. A diverged
    batch returns an inf or NaN loss without a numpy warning.
    """
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    matrix = np.asarray(matrix, dtype=np.float64)
    sizes = [matrix.shape[1], *(w.shape[1] for w in weights)]
    mask = np.eye(sizes[-1], dtype=bool)[target_idx]
    plan = _step_plan(_step_buffers(matrix.shape[0], sizes), weights, biases, matrix,
                      mask.astype(np.float64), mask, grads_w, grads_b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        loss = _run_step(plan, loss=True)
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
    ``SingleClassError`` for fewer than two training classes,
    ``ModelSizeError`` before any weight is drawn when the net would have
    more than ``MLP_MAX_PARAMS`` weights and biases or a pass would hold
    more than ``MLP_MAX_LAYER_VALUES`` values in its widest layer, and
    ``NonFiniteLossError`` if the loss diverges.

    All weights and biases are views into one flat ``params`` buffer, and
    each step (``_run_step``) writes the gradients into views of a ``grads``
    buffer of the same layout, so its update ``p -= lr * g`` runs as two
    whole-buffer operations. It is the same multiply and subtract per
    element as a layer-by-layer update, so the model is the same to the bit.

    The step allocates nothing: each epoch gathers the shuffled rows and
    one-hot targets into fixed buffers that the batches view, and the
    activations and deltas of every batch go to one set of buffers, of
    which a shorter last batch uses the leading rows. It is sized by the
    rows a full batch holds, so a ``batch`` above the training set size
    allocates by that size. Each batch's step is bound once per run
    (``_step_plan``) and run as a tuple of calls with every operand in
    place: the calls of ``mlp_loss_and_grads``'s one plan, not a fusion.
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
    count = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if count > MLP_MAX_PARAMS:
        raise ModelSizeError(f"layer sizes {sizes} need {count} weights and biases, "
                             f"more than the {MLP_MAX_PARAMS} that training allows")
    n = x_train.shape[0]
    pass_rows = max(min(cfg.batch, n), x_select.shape[0])
    values = pass_rows * max(sizes[1:])
    if values > MLP_MAX_LAYER_VALUES:
        raise ModelSizeError(f"layer sizes {sizes} on {pass_rows} rows per pass need {values} "
                             f"values in the widest layer, more than the "
                             f"{MLP_MAX_LAYER_VALUES} that training allows")
    rng = _rng(cfg.seed)
    # One stream drives both init and epoch shuffling, consumed in fixed order.
    params = np.concatenate([p.ravel() for layer in zip(*mlp_init(sizes, rng)) for p in layer])
    weights, biases = _layer_views(params, sizes)
    grads = np.empty_like(params)
    grads_w, grads_b = _layer_views(grads, sizes)

    best_acc = -1.0
    best = params.copy()
    selected = 0
    history: list[float] = []

    mask_train = np.eye(len(labels), dtype=bool)[y_train]
    onehot_train = mask_train.astype(np.float64)
    x_epoch, onehot_epoch, mask_epoch = (np.empty_like(a) for a in
                                         (x_train, onehot_train, mask_train))
    rows = min(cfg.batch, n)
    buffers = _step_buffers(rows, sizes)
    # Each batch views the epoch buffers that ``np.take`` refills in place,
    # so its step is bound once and sees every epoch's rows.
    plans = [
        _step_plan(buffers, weights, biases, x_epoch[start:start + rows],
                   onehot_epoch[start:start + rows], mask_epoch[start:start + rows],
                   grads_w, grads_b)
        for start in range(0, n, rows)
    ]
    scale = functools.partial(np.multiply, grads, cfg.lr, grads)
    update = functools.partial(np.subtract, params, grads, params)
    # A huge learning rate can overflow the update or the backward pass; the
    # next step's loss then reports it, so numpy's warnings add nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for source, epoch in ((x_train, x_epoch), (onehot_train, onehot_epoch),
                                  (mask_train, mask_epoch)):
                np.take(source, order, axis=0, out=epoch)
            for plan in plans:
                loss = _run_step(plan)
                if loss is not None:
                    raise NonFiniteLossError(f"loss diverged to {loss}")
                scale()  # grads *= lr
                update()  # params -= grads
            predicted = _forward(weights, biases, x_select)[-1].argmax(axis=1)
            # np.mean of the matches: an exact count over the row count.
            acc = np.count_nonzero(predicted == y_select) / len(y_select)
            history.append(acc)
            if acc > best_acc:
                best_acc = acc
                best = params.copy()
                selected = len(history)

    best_weights, best_biases = _layer_views(best, sizes)
    return MlpModel(
        sizes=sizes,
        weights=best_weights,
        biases=best_biases,
        labels=labels,
        val_history=history,
        selected_epoch=selected,
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
    the model was not trained on, and passes on the model's
    ``FeatureOverflowError`` or ``ForwardOverflowError`` with the sample's
    source.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    labels = model.label_set
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for sample in samples:
        if sample.label not in index:
            raise UnknownLabelError(f"label {sample.label!r} not in {labels}")
        try:
            predicted, _ = model.predict(sample.features)
        except (FeatureOverflowError, ForwardOverflowError) as exc:
            raise type(exc)(f"sample {sample.source}: {exc}") from exc
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
        (KNN) or the predicted class probability (MLP). This is the one-row
        ``predict_rows``."""
        (result,) = self.predict_rows(np.asarray(raw_features, dtype=np.float64)[None, :])
        return result

    def predict_rows(self, raw_features: np.ndarray) -> list[tuple[str, float]]:
        """``predict`` of each row of an ``(N, F)`` matrix of raw features, in
        one call: the rows are standardized at once, and each gets the same
        bits as alone. The KNN ranks row by row; the MLP runs one forward pass
        (see ``MlpModel.predict_rows``), which raises ``ForwardOverflowError``
        if it overflows."""
        matrix = self.standardizer.apply(raw_features)
        model = self.classifier
        if isinstance(model, KnnModel):
            return [(label, votes[label] / model.k) for label, votes in map(model.predict, matrix)]
        labels, probs = model.predict_rows(matrix)
        return list(zip(labels, probs.max(axis=1).tolist()))

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
        ``knn.labels`` are lists of nonempty strings, ``labels`` is sorted and
        unique (an MLP's softmax columns follow it), ``tau``, ``knn.k`` and
        the entries of the ``mlp.sizes`` list are integers >= 1, ``tau`` at
        most ``MAX_TAU``, and ``theta`` is a finite number.
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
            # The softmax columns follow the sorted order ``train`` writes.
            if labels != sorted(labels):
                raise ModelFormatError(f"labels {labels} are not in sorted order")
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
        tau = _count(doc, "tau")
        if tau > MAX_TAU:
            raise ModelFormatError(f"tau must be <= {MAX_TAU}, got {tau}")
        return cls(
            tau=tau,
            theta=require_theta(float(_array(doc, "theta", ()))),
            standardizer=Standardizer(mean=mean, std=std),
            classifier=classifier,
        )

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
