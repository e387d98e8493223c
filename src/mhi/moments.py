"""Image moments and the moment-invariant feature vector.

Raw moments of a real-valued raster I are M_ij = sum_x sum_y x^i y^j I(x, y)
with x the zero-based column index and y the zero-based row index. Central
moments mu_pq are taken about the intensity centroid and are translation
invariant; scale-invariant moments nu_pq = mu_pq / mu_00^(1 + (p+q)/2) remove
spatial scale as well. The seven Hu invariants plus one independent
third-order invariant condense nu_pq into eight numbers stable under
translation, rotation and scaling.

The classifier feature vector concatenates those eight invariants for the MHI
(its recency values used directly as intensities) and for the binary MEI, 16
entries total, each passed through a signed log to tame the many decades the
raw invariants span.

Moments are computed for a ``(B, H, W)`` stack at once, in the float
operations and order of one image at a time, so a feature vector has the same
bits whatever block it was computed in; ``feature_vector`` is the one-window
case. Only the per-window scalar tail (nu, Hu, I8, signed log) runs window by
window, since numpy's array ``**`` can differ from Python's float ``**`` in
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoMotionError, ZeroMassError
from .temporal import TemporalTemplate

#: Orders used throughout: all (i, j) with i + j <= 3.
MOMENT_ORDERS = [(i, j) for s in range(4) for i in range(s + 1) for j in (s - i,)]

# The column and row power of each MOMENT_ORDERS entry.
_COLUMN_POWER = [i for i, _ in MOMENT_ORDERS]
_ROW_POWER = [j for _, j in MOMENT_ORDERS]

#: Feature vector length: 8 invariants for the MHI + 8 for the MEI.
FEATURE_DIM = 16

#: Scale of the signed-log conditioning applied to each invariant.
LOG_EPS = 1e-12


@dataclass
class MomentSet:
    """Raw, central and scale-invariant moments of one raster, orders <= 3."""

    raw: dict[tuple[int, int], float]
    centroid: tuple[float, float]
    mu: dict[tuple[int, int], float]
    nu: dict[tuple[int, int], float]


@dataclass
class LabeledSample:
    """A feature vector with its action label and provenance string."""

    features: np.ndarray
    label: str
    source: str = ""


def _grids(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    height, width = img.shape
    x = np.arange(width, dtype=np.float64)
    y = np.arange(height, dtype=np.float64)
    return x, y


def raw_moment(img: np.ndarray, i: int, j: int) -> float:
    """M_ij = sum over pixels of x^i y^j I(x, y)."""
    img = np.asarray(img, dtype=np.float64)
    x, y = _grids(img)
    return float((y**j) @ img @ (x**i))


def centroid(img: np.ndarray) -> tuple[float, float]:
    """Intensity centroid (M10/M00, M01/M00); raises ZeroMassError if M00 == 0."""
    m00 = raw_moment(img, 0, 0)
    if m00 == 0.0:
        raise ZeroMassError("image has zero intensity mass")
    return raw_moment(img, 1, 0) / m00, raw_moment(img, 0, 1) / m00


def central_moment(img: np.ndarray, p: int, q: int) -> float:
    """mu_pq = sum over pixels of (x - xbar)^p (y - ybar)^q I(x, y)."""
    img = np.asarray(img, dtype=np.float64)
    xbar, ybar = centroid(img)
    x, y = _grids(img)
    return float(((y - ybar) ** q) @ img @ ((x - xbar) ** p))


def _powers(v: np.ndarray) -> np.ndarray:
    """``v**0 .. v**3`` stacked on a new second-to-last axis."""
    return np.stack([v**k for k in range(4)], axis=-2)


def _moment_table(imgs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``ys[j] @ img @ xs[i]`` for each image and order ``(i, j)``, as ``(B, 10)``.

    ``xs`` (4, W) and ``ys`` (4, H) hold the powers 0..3 of the column and
    row coordinates, shared by every image or, with a leading B axis, one set
    per image. Each product is evaluated left to right: the 4 row products
    ``ys[j] @ img`` are formed once and dotted with every ``xs[i]``. Both
    steps are stacked one-image matmuls (vector @ matrix, then vector @
    vector), so every entry takes the same operations as for that image alone.
    """
    rows = ys[..., None, :] @ imgs[:, None]
    return (rows[:, _ROW_POWER] @ xs[..., _COLUMN_POWER, :, None])[:, :, 0, 0]


def stack_moments(imgs: np.ndarray) -> list[MomentSet | None]:
    """All moments of order <= 3 of each image of a ``(B, H, W)`` stack.

    An image of zero mass gets ``None``. ``nu`` holds nu_pq for
    2 <= p+q <= 3 only; first-order nu are identically zero by construction
    and order-zero is always 1.
    """
    imgs = np.asarray(imgs, dtype=np.float64)
    _, height, width = imgs.shape
    x = np.arange(width, dtype=np.float64)
    y = np.arange(height, dtype=np.float64)
    raw = _moment_table(imgs, _powers(x), _powers(y))
    m00 = raw[:, 0]
    mass = np.where(m00 != 0.0, m00, 1.0)  # a zero-mass image is dropped below
    xbar = raw[:, MOMENT_ORDERS.index((1, 0))] / mass
    ybar = raw[:, MOMENT_ORDERS.index((0, 1))] / mass
    mu = _moment_table(imgs, _powers(x - xbar[:, None]), _powers(y - ybar[:, None]))

    sets = []
    # Python floats from here on, so nu takes Python's scalar ``**``.
    for raw_row, cx, cy, mu_row in zip(raw.tolist(), xbar.tolist(), ybar.tolist(), mu.tolist()):
        m00 = raw_row[0]
        if m00 == 0.0:
            sets.append(None)
            continue
        mus = dict(zip(MOMENT_ORDERS, mu_row))
        nu = {
            (p, q): mus[(p, q)] / m00 ** (1.0 + (p + q) / 2.0)
            for p, q in MOMENT_ORDERS
            if 2 <= p + q <= 3
        }
        sets.append(MomentSet(raw=dict(zip(MOMENT_ORDERS, raw_row)), centroid=(cx, cy),
                              mu=mus, nu=nu))
    return sets


def scale_invariant_moments(img: np.ndarray) -> MomentSet:
    """All moments of order <= 3 of one image: the one-image ``stack_moments``.

    Raises ``ZeroMassError`` if the image has zero mass.
    """
    (ms,) = stack_moments(np.asarray(img, dtype=np.float64)[None])
    if ms is None:
        raise ZeroMassError("image has zero intensity mass")
    return ms


def hu_moments(ms: MomentSet) -> np.ndarray:
    """The seven Hu invariants, built from the scale-invariant moments."""
    n = ms.nu
    n20, n11, n02 = n[(2, 0)], n[(1, 1)], n[(0, 2)]
    n30, n21, n12, n03 = n[(3, 0)], n[(2, 1)], n[(1, 2)], n[(0, 3)]

    a = n30 + n12          # first-order x projection of third-order moments
    b = n21 + n03
    c = n30 - 3.0 * n12
    d = 3.0 * n21 - n03

    h1 = n20 + n02
    h2 = (n20 - n02) ** 2 + 4.0 * n11**2
    h3 = c**2 + d**2
    h4 = a**2 + b**2
    h5 = c * a * (a**2 - 3.0 * b**2) + d * b * (3.0 * a**2 - b**2)
    h6 = (n20 - n02) * (a**2 - b**2) + 4.0 * n11 * a * b
    h7 = d * a * (a**2 - 3.0 * b**2) - c * b * (3.0 * a**2 - b**2)
    return np.array([h1, h2, h3, h4, h5, h6, h7])


def flusser_i8(ms: MomentSet) -> float:
    """Independent third-order invariant that completes the Hu set."""
    n = ms.nu
    a = n[(3, 0)] + n[(1, 2)]
    b = n[(0, 3)] + n[(2, 1)]
    return n[(1, 1)] * (a**2 - b**2) - (n[(2, 0)] - n[(0, 2)]) * a * b


def signed_log(values: np.ndarray) -> np.ndarray:
    """Monotone, sign-preserving compression: sign(f) * log10(1 + |f|/eps)."""
    values = np.asarray(values, dtype=np.float64)
    return np.sign(values) * np.log10(1.0 + np.abs(values) / LOG_EPS)


def _invariants(ms: MomentSet) -> np.ndarray:
    return np.append(hu_moments(ms), flusser_i8(ms))


def invariants(img: np.ndarray) -> np.ndarray:
    """The eight raw invariants [h1..h7, i8] of one raster."""
    return _invariants(scale_invariant_moments(img))


def feature_vectors(mhi: np.ndarray, mei: np.ndarray) -> list[np.ndarray | None]:
    """16-entry feature vector of each window of a block of templates.

    ``mhi`` and ``mei`` are the block's ``(B, H, W)`` stacks. Layout:
    signed-log of [h1..h7, i8] on the MHI followed by the same eight on the
    MEI. A window that recorded no motion at all gets ``None``.
    """
    return [
        None if on_mhi is None or on_mei is None
        else signed_log(np.concatenate([_invariants(on_mhi), _invariants(on_mei)]))
        for on_mhi, on_mei in zip(stack_moments(mhi), stack_moments(mei))
    ]


def feature_vector(template: TemporalTemplate) -> np.ndarray:
    """16-entry feature vector of one template: the one-window ``feature_vectors``.

    Raises ``NoMotionError`` when the template recorded no motion at all;
    callers decide whether to skip the window or report it.
    """
    mhi, mei = np.asarray(template.mhi.values), np.asarray(template.mei)
    (features,) = feature_vectors(mhi[None], mei[None])
    if features is None:
        raise NoMotionError("template has no motion support")
    return features
