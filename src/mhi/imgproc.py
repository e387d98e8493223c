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
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .imgio import require_frame


def _pad_frame(frames: np.ndarray, mode: str) -> np.ndarray:
    # Pad one pixel around each frame, never along the stack axis.
    return np.pad(frames, [(0, 0)] * (frames.ndim - 2) + [(1, 1), (1, 1)], mode=mode)


def gaussian_smooth(frames: np.ndarray) -> np.ndarray:
    """Smooth frames with the separable binomial kernel [1,2,1]x[1,2,1]/16.

    Borders are handled by edge replication. The division by 16 rounds to the
    nearest integer with ties rounding up, so a constant image is preserved
    exactly.
    """
    frames = require_frame(frames, stack=True)
    # The largest sum is 16 * 255 + 8, which fits uint16.
    acc = _pad_frame(frames, "edge").astype(np.uint16)
    # Horizontal then vertical [1, 2, 1] pass; order does not matter.
    acc = acc[..., :-2] + 2 * acc[..., 1:-1] + acc[..., 2:]
    acc = acc[..., :-2, :] + 2 * acc[..., 1:-1, :] + acc[..., 2:, :]
    return ((acc + 8) >> 4).astype(np.uint8)


def frame_diff(prev: np.ndarray, curr: np.ndarray, theta: float) -> np.ndarray:
    """Binary motion mask: 1 where |curr - prev| is strictly above ``theta``."""
    prev = require_frame(prev, stack=True)
    curr = require_frame(curr, stack=True)
    if prev.shape != curr.shape:
        raise DimensionMismatchError(
            f"frame shapes differ: {prev.shape} vs {curr.shape}"
        )
    diff = np.abs(curr.astype(np.int16) - prev.astype(np.int16))
    return (diff > theta).astype(np.uint8)


def _square3(mask: np.ndarray, op) -> np.ndarray:
    # 3x3 square ``op`` (np.minimum: erosion, np.maximum: dilation) as a 3-tap
    # pass along rows, then along columns. Out-of-bounds neighbors count as 0,
    # so border pixels are always eroded.
    padded = _pad_frame(mask, "constant")
    rows = op(op(padded[..., :-2], padded[..., 1:-1]), padded[..., 2:])
    return op(op(rows[..., :-2, :], rows[..., 1:-1, :]), rows[..., 2:, :])


def morph_open(mask: np.ndarray) -> np.ndarray:
    """Morphological opening (erosion then dilation) with a 3x3 square element.

    Removes components too small to contain the element while leaving larger
    shapes intact; the result is always a pixelwise subset of the input.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    return _square3(_square3(mask, np.minimum), np.maximum)
