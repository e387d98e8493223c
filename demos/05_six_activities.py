"""
Six activities in one video
===========================

Builds six classes from the three synthetic motion programs: a slide to the
right, down and to the left, a sway along x and along y, and a pulse. Both
classifiers are trained on twenty clips of each, and their test confusion
matrices are printed. One clip of each class is then spliced into a
180-frame video, a 30-frame window walks over it one frame at a time, and a
table reports each seam between two activities: how many frames pass after
the seam before a window carries the new label, and how many of the windows
that straddle the seam carry a blob warning.

The slides collide with one another, and so do the two sways. The features
are Hu's seven moment invariants and Flusser's I8 of the MHI and the MEI,
and every one of them is invariant to rotation by design. A slide down is a
slide to the right turned by 90 degrees, a slide to the left is the same
slide turned by 180, and a sway along y is a sway along x turned by 90, so
each pair gives the same features up to the clips' jitter and start
positions. Only the pulse, whose MEI is an annulus, stands apart.

Run it with ``PYTHONPATH=src python demos/05_six_activities.py``.
"""

import json
import shutil
import tempfile
from pathlib import Path

from mhi import SynthSpec
from mhi.cli import main as mhi
from mhi.imgio import frame_path
from mhi.synth import specs_to_json

THETA, TAU, FRAMES = "10", "30", 30


def six_class_specs(count=20, seed=0):
    """The six classes, one ``SynthSpec`` each, 64x64 clips of 30 frames."""
    common = dict(frames=FRAMES, size=64, rect=12, count=count)
    kinds = [
        ("slide_right", dict(program="translate", dx=1, dy=0)),
        ("slide_down", dict(program="translate", dx=0, dy=1)),
        ("slide_left", dict(program="translate", dx=-1, dy=0)),
        ("sway_x", dict(program="oscillate", axis="x", period=10)),
        ("sway_y", dict(program="oscillate", axis="y", period=10)),
        ("pulse", dict(program="expand_contract", rate=2)),
    ]
    return [SynthSpec(name=name, seed=seed + i, **fields, **common)
            for i, (name, fields) in enumerate(kinds)]


def seam_table(timeline, segments):
    """Per-seam rows and the accuracy inside segments of a predict timeline.

    ``timeline`` is the list of entries that ``mhi predict`` writes, in
    order; ``segments`` lists each spliced clip as ``(label, first, last)``
    frames, one after the other. A seam is the first frame of a segment
    after the first. Each row holds the seam frame, the old and the new
    label, the lag (the frames from the seam to the end frame of the first
    window ending at or after it, inside the new segment, that carries the
    new label, or None if none does), and the number of windows that
    straddle the seam (start before it, end at or after it) and of those
    that carry a blob warning. The accuracy is the share of windows lying
    inside one segment that carry its label, or None if no window does.
    """
    rows = []
    for (old, _, _), (new, seam, last) in zip(segments, segments[1:]):
        lag = next((e["end_frame"] - seam for e in timeline
                    if seam <= e["end_frame"] <= last and e["label"] == new), None)
        straddling = [e for e in timeline if e["start_frame"] < seam <= e["end_frame"]]
        rows.append({
            "seam": seam, "old": old, "new": new, "lag": lag,
            "straddling": len(straddling),
            "warned": sum(e["diagnostic"]["warning"] for e in straddling),
        })
    inside = [e["label"] == label for e in timeline for label, first, last in segments
              if first <= e["start_frame"] and e["end_frame"] <= last]
    return rows, (sum(inside) / len(inside) if inside else None)


def main():
    with tempfile.TemporaryDirectory(prefix="mhi_demo_") as tmp:
        root = Path(tmp)
        specs = six_class_specs()
        spec = root / "spec.json"
        spec.write_text(specs_to_json(specs))

        def run(argv):
            print("$ mhi " + " ".join(argv), flush=True)
            assert mhi(argv) == 0

        run(["synth", "--spec", str(spec), "--out", str(root / "clips")])
        run(["extract", "--manifest", str(root / "clips" / "manifest.jsonl"),
             "--theta", THETA, "--tau", TAU, "--out", str(root / "features.csv")])
        for kind in ("knn", "mlp"):
            run(["train", "--features", str(root / "features.csv"), "--classifier", kind,
                 "--theta", THETA, "--tau", TAU, "--out", str(root / f"{kind}.json")])
            report = (root / f"{kind}.report.txt").read_text()
            print(f"\n{kind} test confusion matrix\n" + report[report.index("[test]"):])

        # Splice clip 000 of each class, in spec order, into one video.
        video = root / "video"
        video.mkdir()
        segments = []
        for i, s in enumerate(specs):
            for t in range(FRAMES):
                shutil.copy(frame_path(root / "clips" / f"{s.name}_000", t),
                            frame_path(video, i * FRAMES + t))
            segments.append((s.name, i * FRAMES, (i + 1) * FRAMES - 1))

        for kind in ("knn", "mlp"):
            timeline = root / f"{kind}_timeline.json"
            run(["predict", "--model", str(root / f"{kind}.json"), "--frames", str(video),
                 "--window", TAU, "--stride", "1", "--out", str(timeline)])
            rows, accuracy = seam_table(json.loads(timeline.read_text()), segments)
            print(f"\n{kind}: seams of the {len(segments) * FRAMES}-frame video "
                  f"(window {TAU}, stride 1)")
            print(f"{'seam':>5}  {'old':>11} -> {'new':<11}  {'lag':>5}  warned/straddling")
            for row in rows:
                lag = "never" if row["lag"] is None else row["lag"]
                print(f"{row['seam']:5d}  {row['old']:>11} -> {row['new']:<11}  {lag:>5}  "
                      f"{row['warned']:6d}/{row['straddling']}")
            print(f"accuracy of the windows inside a segment: {accuracy:.2f}")


if __name__ == "__main__":
    main()
