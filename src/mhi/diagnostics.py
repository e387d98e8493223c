"""Template quality diagnostics.

Shadows or reflections trailing the actor show up as a second sizeable blob in
the motion-energy image and silently corrupt the moment features. Prediction
proceeds regardless; the diagnostic is attached to the output so the caller
can discount suspect windows.

The masks of a block of windows are labelled in one pass: stacked as one tall
mask with a blank row after each, so that no component crosses from one
window into the next. The tall mask of a ``(B, H, W)`` block is
``B * (H + 1) * W`` booleans, bounded like the block itself by the frame area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Minimum blob size, as a fraction of image area, to count as substantial.
AREA_FRACTION = 0.01


@dataclass(frozen=True)
class BlobDiagnostic:
    component_count: int
    warning: bool


def _component_areas(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel counts of the 8-connected components of a 2-D boolean mask, and
    the flat index ``row * (W + 1) + column`` of each one's first pixel.

    The nodes are each row's runs of set pixels, so the cost grows with the
    number of runs, not of pixels. Runs on adjacent rows that touch are merged
    by hooking each root to the smallest root it touches and flattening.
    """
    width = mask.shape[1] + 1
    # Run boundaries as flat indices into the (H, W + 1) edge array: these
    # keys sort row-major, and adding ``width`` moves a key one row down.
    edges = np.flatnonzero(np.diff(mask, axis=1, prepend=False, append=False))
    start, end = edges[0::2], edges[1::2]
    # Run b on the next row touches run a, diagonals included, when
    # start_b <= end_a and end_b >= start_a (ends exclusive); both searches
    # stay inside the next row.
    lo = np.searchsorted(end, start + width)
    hi = np.searchsorted(start, end + width, side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(start.size), count)
    b = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    root = np.arange(start.size)
    root_a, root_b = a, b
    while (root_a != root_b).any():
        low = np.minimum(root_a, root_b)
        np.minimum.at(root, root_a, low)
        np.minimum.at(root, root_b, low)
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]
        root_a, root_b = root[a], root[b]
    areas = np.bincount(root, weights=end - start, minlength=start.size)
    first = root == np.arange(start.size)
    return areas[first], start[first]


def detect_secondary_blobs(masks: np.ndarray) -> list[BlobDiagnostic]:
    """``detect_secondary_blob`` of each mask of a ``(B, H, W)`` stack.

    All masks are labelled in one ``_component_areas`` call on the tall mask.
    A component's window is its first pixel's row over ``H + 1``, and two
    bincounts give each window's component count and substantial blobs.
    """
    masks = np.asarray(masks)
    count, height, width = masks.shape
    tall = np.zeros((count, height + 1, width), dtype=bool)
    np.greater(masks, 0, out=tall[:, :height])
    areas, firsts = _component_areas(tall.reshape(-1, width))
    window = firsts // ((width + 1) * (height + 1))
    components = np.bincount(window, minlength=count)
    substantial = np.bincount(window[areas > AREA_FRACTION * (height * width)],
                              minlength=count)
    return [BlobDiagnostic(component_count=n, warning=s >= 2)
            for n, s in zip(components.tolist(), substantial.tolist())]


def detect_secondary_blob(mask: np.ndarray) -> BlobDiagnostic:
    """Count 8-connected components of a binary mask and flag multi-blob masks.

    ``warning`` is set when at least two components each exceed 1% of the
    image area; smaller specks never trigger it. A mask that is not 2-D
    raises ``ValueError``. This is the one-mask ``detect_secondary_blobs``.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"blob mask must be 2-D, got shape {mask.shape}")
    return detect_secondary_blobs(mask[None])[0]
