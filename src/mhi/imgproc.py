"""Preprocessing that turns raw frames into clean binary motion masks.

Three stages, all bit-exact integer arithmetic so outputs are reproducible
across platforms:

1. ``gaussian_smooth`` -- 3x3 binomial blur to suppress compression noise.
2. ``frame_diff``      -- absolute difference of consecutive frames against a
                          threshold ``theta``, giving a {0,1} motion mask.
3. ``morph_open``      -- morphological opening (erode, then dilate) with a
                          3x3 square element to delete isolated specks.

Every stage works on the last two axes, so one call handles a single
``(H, W)`` frame or a whole ``(N, H, W)`` stack. Masks are uint8 arrays with
values in {0, 1}.

The 3x3 stages copy their input once into a contiguous ``(..., H+2, W+2)``
buffer whose one-pixel ring holds the border rule: edge replicas for the
smoothing, zeros for the opening. Each 3-tap pass then runs over the whole
buffer as one flat array, combining slices offset by 1 (along a row) or by
``W+2`` (along a column), so a handful of long numpy calls replace one short
call per row. A pass computes garbage on the ring, where it mixes adjacent
rows or frames, but every interior pixel only reads its own frame's pixels
and ring.

The absolute difference is an exact integer in [0, 255], so ``> theta``
equals ``> min(floor(theta), 255)``, which ``frame_diff`` compares in uint8.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .imgio import require_frame


def require_theta(theta: float) -> float:
    """Return ``theta`` if it is a usable difference threshold: finite, >= 0."""
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return theta


def _ringed(frames: np.ndarray, dtype, ring=None) -> tuple[np.ndarray, np.ndarray]:
    # A contiguous (..., H+2, W+2) copy of ``frames`` inside a ring of value
    # ``ring`` (unset for None), and the same buffer as one flat array.
    *lead, height, width = frames.shape
    buf = np.empty((*lead, height + 2, width + 2), dtype)
    if ring is not None:
        buf.fill(ring)
    buf[..., 1:-1, 1:-1] = frames
    return buf, buf.reshape(-1)


def gaussian_smooth(frames: np.ndarray) -> np.ndarray:
    """Smooth frames with the separable binomial kernel [1,2,1]x[1,2,1]/16.

    Borders are handled by edge replication. The division by 16 rounds to the
    nearest integer with ties rounding up, so a constant image is preserved
    exactly.
    """
    frames = require_frame(frames, stack=True)
    # The largest sum is 16 * 255 + 8, which fits uint16.
    buf, flat = _ringed(frames, np.uint16)
    buf[..., 0, 1:-1] = frames[..., 0, :]
    buf[..., -1, 1:-1] = frames[..., -1, :]
    buf[..., 0] = buf[..., 1]
    buf[..., -1] = buf[..., -2]
    # [1, 2, 1] is [1, 1] twice; along rows, then along columns. Each pair sum
    # runs in place, flat[i] += flat[i + step], which reads only values it has
    # not yet written, so numpy needs no temporary. The sum centred on a pixel
    # thus lands one row and one column before it.
    for step in (1, 1, buf.shape[-1], buf.shape[-1]):
        np.add(flat[:-step], flat[step:], out=flat[:-step])
    flat += 8
    out = np.empty(frames.shape, np.uint8)
    return np.right_shift(buf[..., :-2, :-2], 4, out=out, casting="unsafe")


def frame_diff(prev: np.ndarray, curr: np.ndarray, theta: float) -> np.ndarray:
    """Binary motion mask: 1 where |curr - prev| is strictly above ``theta``."""
    prev = require_frame(prev, stack=True)
    curr = require_frame(curr, stack=True)
    if prev.shape != curr.shape:
        raise DimensionMismatchError(
            f"frame shapes differ: {prev.shape} vs {curr.shape}"
        )
    limit = min(math.floor(require_theta(theta)), 255)
    diff = np.maximum(prev, curr)
    diff -= np.minimum(prev, curr)
    return np.greater(diff, np.uint8(limit), out=diff.view(bool)).view(np.uint8)


def morph_open(mask: np.ndarray) -> np.ndarray:
    """Morphological opening (erosion then dilation) with a 3x3 square element.

    Removes components too small to contain the element while leaving larger
    shapes intact; the result is always a pixelwise subset of the input.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    # Out-of-bounds neighbours count as 0, so border pixels always erode. A
    # minimum taken over a zero stays zero, so the ring is still all zeros
    # when the dilation reads it. Unlike np.add, np.minimum and np.maximum
    # leave their vector loops when the output overlaps an input, so these
    # passes go through a second buffer rather than run in place.
    buf, flat = _ringed(mask, np.uint8, ring=0)
    tmp = np.empty_like(flat)
    for op in (np.minimum, np.maximum):
        for step in (1, buf.shape[-1]):
            # flat[i] = op(flat[i - step], flat[i], flat[i + step]) for every
            # i at least ``step`` from both ends, as two pair passes.
            n = flat.size - step
            op(flat[:n], flat[step:], out=tmp[:n])
            op(tmp[: n - step], tmp[step:n], out=flat[step:n])
    # The temporary is free once the dilation ends; its front takes the result.
    out = tmp[: mask.size].reshape(mask.shape)
    np.copyto(out, buf[..., 1:-1, 1:-1])
    return out
