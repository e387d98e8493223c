"""
Labeling a video that changes activity midway
=============================================

Splices a sliding clip onto a swaying clip, then walks a 30-frame window
over the result with a trained model. Each window is reduced to a temporal
template and classified independently, so the printed timeline switches
label where the activity switches. Everything runs through the ``mhi``
command line, the same way it would from a shell.
"""

import json
import shutil
import tempfile
from pathlib import Path

from mhi import specs_to_json, three_class_specs
from mhi.cli import main
from mhi.imgio import frame_path

with tempfile.TemporaryDirectory(prefix="mhi_demo_") as tmp:
    root = Path(tmp)

    # One spec file drives both the dataset and the spliced clips.
    spec = root / "spec.json"
    spec.write_text(specs_to_json(three_class_specs(frames=30, size=64, rect=12, count=20, seed=0)))

    steps = [
        ["synth", "--spec", str(spec), "--out", str(root / "clips")],
        ["extract", "--manifest", str(root / "clips" / "manifest.jsonl"),
         "--theta", "10", "--tau", "30", "--out", str(root / "features.csv")],
        ["train", "--features", str(root / "features.csv"), "--classifier", "knn",
         "--theta", "10", "--tau", "30", "--out", str(root / "model.json")],
    ]
    for argv in steps:
        print("$ mhi " + " ".join(argv), flush=True)
        assert main(argv) == 0

    # Splice: frames 0-29 slide, frames 30-59 sway.
    video = root / "video"
    video.mkdir()
    for i in range(30):
        shutil.copy(frame_path(root / "clips" / "slide_000", i), frame_path(video, i))
        shutil.copy(frame_path(root / "clips" / "sway_000", i), frame_path(video, i + 30))

    argv = ["predict", "--model", str(root / "model.json"), "--frames", str(video),
            "--window", "30", "--stride", "10", "--out", str(root / "timeline.json")]
    print("$ mhi " + " ".join(argv), flush=True)
    assert main(argv) == 0

    print("\nframes     label   score  motion blobs")
    for entry in json.loads((root / "timeline.json").read_text()):
        span = f"{entry['start_frame']:3d}-{entry['end_frame']:3d}"
        blobs = entry["diagnostic"]["component_count"]
        note = "  <- possible second actor" if entry["diagnostic"]["warning"] else ""
        print(f"{span:>9}  {entry['label']:>6}  {entry['score']:.2f}  {blobs:6d}{note}")
