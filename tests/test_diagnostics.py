import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhi.diagnostics import (
    AREA_FRACTION,
    BlobDiagnostic,
    blob_counts,
    detect_secondary_blob,
)


def test_empty_mask():
    assert detect_secondary_blob(np.zeros((10, 10), np.uint8)) == BlobDiagnostic(0, False)


def test_single_blob_no_warning():
    mask = np.zeros((20, 20), np.uint8)
    mask[5:15, 5:15] = 1
    assert detect_secondary_blob(mask) == BlobDiagnostic(1, False)


def test_two_large_blobs_warn():
    mask = np.zeros((20, 20), np.uint8)
    mask[2:8, 2:8] = 1
    mask[12:18, 12:18] = 1
    diagnostic = detect_secondary_blob(mask)
    assert diagnostic == BlobDiagnostic(2, True)


def test_speck_below_one_percent_no_warning():
    mask = np.zeros((100, 100), np.uint8)
    mask[10:40, 10:40] = 1
    mask[80, 80] = 1
    mask[80, 81] = 1    # 2 px on 10000: well under 1%
    assert detect_secondary_blob(mask) == BlobDiagnostic(2, False)


def test_exactly_one_percent_not_substantial():
    # The rule is strictly greater than 1% of image area.
    mask = np.zeros((100, 100), np.uint8)
    mask[0:10, 0:10] = 1      # 100 px == 1%
    mask[50:60, 50:60] = 1    # 100 px == 1%
    assert detect_secondary_blob(mask) == BlobDiagnostic(2, False)
    mask[50:60, 50:61] = 1    # grow one to 110 px; still only one > 1%
    assert detect_secondary_blob(mask) == BlobDiagnostic(2, False)


def test_diagonal_pixels_are_one_component():
    mask = np.zeros((8, 8), np.uint8)
    for i in range(5):
        mask[i, i] = 1
    assert detect_secondary_blob(mask).component_count == 1


@pytest.mark.parametrize("width, run", [(3, 1), (4, 1), (5, 2), (9, 3)])
def test_run_ending_in_the_last_column_stays_off_the_next_row(width, run):
    # The runs are laid out row after row in one flat buffer: a run that ends
    # in the last column must not continue into a run that starts in the
    # first column of the next row, nor of the next window's first row.
    mask = np.zeros((3, width), np.uint8)
    mask[0, -run:] = 1
    mask[1, :run] = 1
    assert detect_secondary_blob(mask).component_count == 2
    masks = np.zeros((2, 2, width), np.uint8)
    masks[0, -1, -run:] = 1
    masks[1, 0, :run] = 1
    assert blob_counts(masks)[0] == [1, 1]


def test_three_components_two_substantial():
    mask = np.zeros((50, 50), np.uint8)
    mask[1:11, 1:11] = 1      # 100 px, 4% of 2500
    mask[20:30, 20:30] = 1    # 100 px
    mask[45, 45] = 1          # speck
    diagnostic = detect_secondary_blob(mask)
    assert diagnostic.component_count == 3
    assert diagnostic.warning


def test_accepts_boolean_and_scaled_masks():
    mask = np.zeros((30, 30))
    mask[5:15, 5:15] = 255.0
    assert detect_secondary_blob(mask) == BlobDiagnostic(1, False)
    assert detect_secondary_blob(mask > 0) == BlobDiagnostic(1, False)


def test_mask_not_2d_raises_value_error():
    for shape in [(5,), (2, 3, 4)]:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            detect_secondary_blob(np.ones(shape, np.uint8))


def _flood_fill_diagnostic(mask):
    """Reference: 8-neighbour flood fill over every pixel, in pure Python."""
    h, w = mask.shape
    seen = [[False] * w for _ in range(h)]
    areas = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y][x]:
                continue
            seen[y][x] = True
            stack, area = [(y, x)], 0
            while stack:
                cy, cx = stack.pop()
                area += 1
                for ny in range(max(cy - 1, 0), min(cy + 2, h)):
                    for nx in range(max(cx - 1, 0), min(cx + 2, w)):
                        if mask[ny, nx] and not seen[ny][nx]:
                            seen[ny][nx] = True
                            stack.append((ny, nx))
            areas.append(area)
    substantial = sum(area > AREA_FRACTION * h * w for area in areas)
    return BlobDiagnostic(component_count=len(areas), warning=substantial >= 2)


def _snake(h, w):
    mask = np.zeros((h, w), bool)
    mask[::2] = True
    for row in range(1, h, 2):
        mask[row, w - 1 if row % 4 == 1 else 0] = True
    return mask


_CHECKERBOARD = np.add.outer(np.arange(24), np.arange(24)) % 2 == 0
_DIAGONAL_CHAIN = np.eye(24, dtype=bool) | np.eye(24, k=3, dtype=bool)[:, ::-1]
# Two 2 px blobs on 200 px: each exactly 1%, so neither is substantial.
_EXACT_PERCENT = np.zeros((10, 20), bool)
_EXACT_PERCENT[1, 1:3] = _EXACT_PERCENT[7, 10:12] = True


@st.composite
def _masks(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    fill = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((h, w)) < fill


@settings(max_examples=400, deadline=None)
@given(_masks())
@example(_CHECKERBOARD)
@example(_snake(23, 24))
@example(_snake(24, 23).T)
@example(_DIAGONAL_CHAIN)
@example(np.ones((24, 24), bool))
@example(np.ones((1, 24), bool))
@example(np.ones((24, 1), bool))
@example(_EXACT_PERCENT)
def test_matches_flood_fill(mask):
    assert detect_secondary_blob(mask) == _flood_fill_diagnostic(mask)
