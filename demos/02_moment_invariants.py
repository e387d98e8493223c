"""
Moment invariants: the same shape, wherever it sits
===================================================

Hu's seven moments and the Flusser I8 completion are functions of a shape
that ignore where it is, how it is rotated, and how big it is. That is what
lets a classifier trained on templates from one corner of the frame label
motion anywhere else. This script computes the eight invariants for an
asymmetric blob and then perturbs the blob to show which columns move.
"""

import numpy as np

from mhi import invariants

np.set_printoptions(precision=4, suppress=False)


# An L-shaped blob with unequal arm weights, so nothing cancels by symmetry.
blob = np.zeros((20, 20))
blob[3:15, 5:10] = 1.0
blob[9:18, 8:17] = 2.5
blob[4:7, 13:16] = 0.7

base = invariants(blob)

# Same blob pasted into a bigger canvas at an arbitrary offset.
shifted = np.zeros((33, 37))
shifted[7:27, 11:31] = blob

# Same blob rotated a quarter turn (an exact pixel permutation).
rotated = np.rot90(blob)

# Nearest-neighbor 2x upsample: the discrete stand-in for scaling.
scaled = np.kron(blob, np.ones((2, 2)))

# A genuinely different shape for contrast.
other = np.zeros((20, 20))
other[4:16, 4:16] = 1.0
other[7:13, 7:13] = 0.0  # hollow it out

rows = [
    ("original", base),
    ("translated", invariants(shifted)),
    ("rotated 90", invariants(rotated)),
    ("upsampled 2x", invariants(scaled)),
    ("hollow square", invariants(other)),
]

header = ["case"] + [f"h{i}" for i in range(1, 8)] + ["i8"]
print("  ".join(f"{name:>13}" for name in header))
for name, values in rows:
    cells = "  ".join(f"{v:>13.4e}" for v in values)
    print(f"{name:>13}  {cells}")

# Translation and rotation reproduce the originals to rounding error; the
# upsample moves h1 by well under a percent; the hollow square lands far away.
drift = np.abs(invariants(shifted) - base) / np.abs(base)
print(f"\nworst relative drift under translation: {drift.max():.2e}")
print(f"h1 change under 2x upsample: {abs(invariants(scaled)[0] - base[0]) / base[0]:.3%}")
print(f"h1 distance to the hollow square: {abs(invariants(other)[0] - base[0]) / base[0]:.1%}")
