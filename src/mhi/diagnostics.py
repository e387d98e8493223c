"""Template quality diagnostics.

Shadows or reflections trailing the actor show up as a second sizeable blob in
the motion-energy image and silently corrupt the moment features. Prediction
proceeds regardless; the diagnostic is attached to the output so the caller
can discount suspect windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

#: Minimum blob size, as a fraction of image area, to count as substantial.
AREA_FRACTION = 0.01

#: 8-connectivity: diagonal neighbors belong to the same component.
_STRUCTURE = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class BlobDiagnostic:
    component_count: int
    warning: bool


def detect_secondary_blob(mask: np.ndarray) -> BlobDiagnostic:
    """Count 8-connected components of a binary mask and flag multi-blob masks.

    ``warning`` is set when at least two components each exceed 1% of the
    image area; smaller specks never trigger it.
    """
    mask = np.asarray(mask)
    labeled, count = ndimage.label(mask > 0, structure=_STRUCTURE)
    areas = np.bincount(labeled.ravel())[1:]
    substantial = int(np.sum(areas > AREA_FRACTION * mask.size))
    return BlobDiagnostic(component_count=int(count), warning=substantial >= 2)
