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

Moments are computed for a whole stack at once, in the float operations and
order of one image at a time, so a feature vector has the same bits whatever
block it was computed in. The feature stage takes a template block's one
``(2B, H, W)`` stack, its B MHIs followed by their B MEIs, and makes one raw
and one central ``_moment_table`` call over all ``2B`` images. Given the
templates' ``tau``, with ``tau * H * W * max(H, W) < 2**53``, the raw call
shrinks to the three sums the centroid needs, M00, M10 and M01, from one 2x2
product per image: the images hold integers in ``[0, tau]``, so every
partial sum is an integer below 2**53, exact in any order, and the sums
equal the table's on any BLAS kernel. ``feature_vector`` is the one-window
case. Only the per-window scalar tail (nu, Hu, I8) runs window by window, in
Python floats, since numpy's array ``**`` can differ from Python's float
``**`` in the last bit; the signed log then runs once on the block's
``(B', 16)`` matrix of windows with motion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoMotionError, ZeroMassError
from .temporal import TemporalTemplate

#: Orders used throughout: all (i, j) with i + j <= 3.
MOMENT_ORDERS = [(i, j) for s in range(4) for i in range(s + 1) for j in (s - i,)]

# The orders of nu and the invariants: 2 <= i + j <= 3, in MOMENT_ORDERS order.
_NU_ORDERS = MOMENT_ORDERS[3:]

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


def _powers(v: np.ndarray) -> np.ndarray:
    """``v**0 .. v**3`` stacked on a new second-to-last axis."""
    # ``v**3`` is slow on negative bases, but ``v*v*v`` and ``-((-v)**3)``
    # round differently (in 26% and 5% of entries), so the pins need ``**``.
    return np.stack([v**k for k in range(4)], axis=-2)


@functools.lru_cache(maxsize=8)
def _coordinate_powers(n: int) -> np.ndarray:
    """``_powers(arange(n))``, read-only: computed once per frame side."""
    powers = _powers(np.arange(n, dtype=np.float64))
    powers.flags.writeable = False
    return powers


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


def _moments(imgs: np.ndarray, tau: int | None = None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw moments ``(N, 10)``, centroid columns and rows ``(N,)`` each, and
    central moments ``(N, 10)`` of each image of a float64 ``(N, H, W)`` stack,
    in ``MOMENT_ORDERS`` order: one raw and one central ``_moment_table`` call.

    ``tau`` says that the images hold integers in ``[0, tau]``, as templates
    do. With ``tau * H * W * max(H, W) < 2**53``, the raw moments are only the
    first three, M00, M01 and M10 ``(N, 3)``, which the centroid needs, from
    one 2x2 product per image. Every partial sum of these is then an integer
    below that bound, so exact, and each equals its ``_moment_table`` column
    whatever order the BLAS kernel adds in.
    """
    _, height, width = imgs.shape
    xs, ys = _coordinate_powers(width), _coordinate_powers(height)
    if tau is not None and tau * height * width * max(height, width) < 2**53:
        # sums[n, j, i] is M_ij; MOMENT_ORDERS starts (0, 0), (0, 1), (1, 0).
        sums = (ys[:2] @ imgs) @ xs[:2].T
        raw = sums.reshape(-1, 4)[:, [0, 2, 1]]
    else:
        raw = _moment_table(imgs, xs, ys)
    m00 = raw[:, 0]
    mass = np.where(m00 != 0.0, m00, 1.0)  # a zero-mass image is dropped by the caller
    xbar = raw[:, MOMENT_ORDERS.index((1, 0))] / mass
    ybar = raw[:, MOMENT_ORDERS.index((0, 1))] / mass
    mu = _moment_table(imgs, _powers(xs[1] - xbar[:, None]), _powers(ys[1] - ybar[:, None]))
    return raw, xbar, ybar, mu


def _nu(m00: float, mu_row: list[float]) -> list[float]:
    """nu_pq of the orders ``_NU_ORDERS`` from Python-float moments, so each
    takes Python's scalar ``**``."""
    # The exponent 1 + (p+q)/2 is 2.0 for the three second-order moments and
    # 2.5 for the four third-order ones, so each power is taken once.
    mu02, mu11, mu20, mu03, mu12, mu21, mu30 = mu_row[3:]
    second, third = m00**2.0, m00**2.5
    return [mu02 / second, mu11 / second, mu20 / second,
            mu03 / third, mu12 / third, mu21 / third, mu30 / third]


def scale_invariant_moments(img: np.ndarray) -> MomentSet:
    """All moments of order <= 3 of one image, with the bits ``stack_features``
    gives it in any stack.

    ``nu`` holds nu_pq for 2 <= p+q <= 3 only; first-order nu are identically
    zero by construction and order-zero is always 1. Raises ``ZeroMassError``
    if the image has zero mass.
    """
    # Row 0 of each result as Python floats, so nu takes Python's scalar ``**``.
    raw, xbar, ybar, mu = (a.tolist()[0] for a in
                           _moments(np.asarray(img, dtype=np.float64)[None]))
    if raw[0] == 0.0:
        raise ZeroMassError("image has zero intensity mass")
    return MomentSet(raw=dict(zip(MOMENT_ORDERS, raw)), centroid=(xbar, ybar),
                     mu=dict(zip(MOMENT_ORDERS, mu)), nu=dict(zip(_NU_ORDERS, _nu(raw[0], mu))))


def _hu_i8(nu: list[float]) -> list[float]:
    """The seven Hu invariants and the Flusser I8 of the nu_pq of ``_NU_ORDERS``."""
    n02, n11, n20, n03, n12, n21, n30 = nu

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
    i8 = n11 * (a**2 - b**2) - (n20 - n02) * a * b
    return [h1, h2, h3, h4, h5, h6, h7, i8]


def _invariants(ms: MomentSet) -> list[float]:
    return _hu_i8([ms.nu[k] for k in _NU_ORDERS])


def hu_moments(ms: MomentSet) -> np.ndarray:
    """The seven Hu invariants, built from the scale-invariant moments."""
    return np.array(_invariants(ms)[:7])


def flusser_i8(ms: MomentSet) -> float:
    """Independent third-order invariant that completes the Hu set."""
    return _invariants(ms)[7]


def signed_log(values: np.ndarray) -> np.ndarray:
    """Monotone, sign-preserving compression: sign(f) * log10(1 + |f|/eps)."""
    values = np.asarray(values, dtype=np.float64)
    return np.sign(values) * np.log10(1.0 + np.abs(values) / LOG_EPS)


def invariants(img: np.ndarray) -> np.ndarray:
    """The eight raw invariants [h1..h7, i8] of one raster."""
    return np.array(_invariants(scale_invariant_moments(img)))


def stack_features(stack: np.ndarray, tau: int | None = None
                   ) -> tuple[np.ndarray, list[bool]]:
    """Feature vectors of the windows of a ``(2B, H, W)`` template stack.

    ``stack`` holds B MHIs followed by their B MEIs, as a ``TemplateBlock``'s
    stack does. ``tau``, the templates' own, lets the centroid come from
    exact sums (see ``_moments``); any stack may omit it. Returns the
    ``(B', 16)`` matrix of the B' windows with motion, in order, and for each
    of the B windows whether it has motion: a window whose MHI or MEI has zero
    mass has none and gets no row. Layout of a row: signed-log of [h1..h7, i8]
    on the MHI followed by the same eight on the MEI.
    """
    count = len(stack) // 2
    raw, _, _, mu = _moments(np.asarray(stack, dtype=np.float64), tau)
    # Python floats from here on, so nu takes Python's scalar ``**``.
    m00, mu = raw[:, 0].tolist(), mu.tolist()
    rows, moving = [], []
    for i in range(count):
        j = count + i  # the window's MEI
        moving.append(m00[i] != 0.0 and m00[j] != 0.0)
        if moving[-1]:
            rows.append(_hu_i8(_nu(m00[i], mu[i])) + _hu_i8(_nu(m00[j], mu[j])))
    return signed_log(np.array(rows, dtype=np.float64).reshape(-1, FEATURE_DIM)), moving


def feature_vector(template: TemporalTemplate) -> np.ndarray:
    """16-entry feature vector of one template: the one-window ``stack_features``.

    Raises ``NoMotionError`` when the template recorded no motion at all;
    callers decide whether to skip the window or report it.
    """
    stack = np.stack([template.mhi, template.mei], dtype=np.float64)
    features, (has_motion,) = stack_features(stack)
    if not has_motion:
        raise NoMotionError("template has no motion support")
    return features[0]
