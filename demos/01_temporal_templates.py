"""
Temporal templates from a moving square
=======================================

A motion history image (MHI) stamps tau wherever motion lands and fades by
one each frame, so brightness encodes recency. The motion energy image (MEI)
is the binary union of everything that ever moved. This script builds both
for a small synthetic clip and draws them as ASCII, then saves PGM files.
"""

import tempfile

import numpy as np

from mhi import (
    FrameSequence,
    SequenceRecord,
    SynthSpec,
    build_template,
    normalize_mhi,
    read_pgm_file,
    render_clip,
    write_pgm_file,
)

RAMP = " .:-=+*#%@"  # dark to bright


def ascii_panel(img, peak):
    img = np.asarray(img, dtype=np.float64)
    rows = []
    for row in img:
        idx = np.clip((row / peak) * (len(RAMP) - 1), 0, len(RAMP) - 1)
        rows.append("".join(RAMP[int(round(v))] for v in idx))
    return "\n".join(rows)


# A 10x10 square sliding right across a 32x32 canvas for 16 frames.
spec = SynthSpec(
    name="slide", program="translate", dx=2, dy=0,
    frames=16, size=32, rect=10, seed=7,
)
frames = render_clip(spec)
print(f"clip: {frames.shape[0]} frames of {frames.shape[1]}x{frames.shape[2]}")

# Threshold frame differences at theta, fold them into the templates. The
# window covers the whole clip, so tau matches the frame count.
seq = FrameSequence(
    frames=frames,
    record=SequenceRecord(dir="demo", start=0, end=len(frames) - 1, label="slide"),
)
template = build_template(seq, theta=10.0, tau=16)

print("\nMEI (where motion happened):")
print(ascii_panel(template.mei, peak=1))

print("\nMHI (when it happened; brighter is more recent):")
print(ascii_panel(template.mhi, peak=template.tau))

# The decay law in one line: per-pixel value is tau minus frames since the
# last activation, floored at zero. The template holds the MHI as a float64
# array, with the MEI, the frame span and tau beside it.
print(f"\ndistinct MHI levels: {sorted(int(v) for v in np.unique(template.mhi))}")
print(f"frames spanned by the window: {template.frame_span}")

# Save both as PGM and read them back; `mhi render` writes the same two files.
with tempfile.TemporaryDirectory(prefix="mhi_demo_") as out:
    for name, image in (("mei", (template.mei * 255).astype(np.uint8)),
                        ("mhi", normalize_mhi(template))):
        write_pgm_file(f"{out}/{name}.pgm", image)
        assert np.array_equal(read_pgm_file(f"{out}/{name}.pgm"), image)
print("\nmei.pgm and mhi.pgm read back unchanged")
