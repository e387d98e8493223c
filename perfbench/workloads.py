"""Workloads of the mhi benchmark: seeded inputs, timed commands, output checks.

Each workload is built in set-up from the seed alone and then run through the
public entry point ``mhi.cli.main`` one command at a time. Set-up is never
timed as work. The checks compare every pass with the first one, pin the
output digests at seed 0, and re-derive a sample of results through the
library's reference path, so any seed can be checked.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from mhi.classify import SplitSpec, TrainedModel, evaluate, split_dataset
from mhi.cli import main as cli_main
from mhi.cli import read_features_csv
from mhi.diagnostics import detect_secondary_blob
from mhi.errors import NoMotionError
from mhi.imgio import FrameSequence, SequenceRecord
from mhi.moments import feature_vector
from mhi.synth import generate, render_clip, three_class_specs
from mhi.temporal import build_template

THETA = "10"


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; smaller scales serve the self-test."""

    frames: int = 30        # frames per corpus clip and per video segment
    size: int = 64          # corpus frame side
    rect: int = 12
    count: int = 20         # corpus clips per class (three classes)
    segments: int = 10      # video segments, cycling slide/sway/pulse
    video_size: int = 128
    video_rect: int = 24
    tau: int = 30           # extract/train --tau, predict --window

    @property
    def corpus_frames(self) -> int:
        return 3 * self.count * self.frames

    @property
    def video_frames(self) -> int:
        return self.segments * self.frames


FULL = Scale()

# sha256 of every primary output at seed 0 and full scale.
PINNED = {
    "features.csv": "1a8682f7d4458ad4a264e2dc3698fb6c5451bf964f662a9b482d935ad783c5d7",
    "timeline.json": "6a70ed31cc1656589a1778b55f2a9eb38c7d7b380a8b55d62d7ade601508772e",
    "mlp.json": "db5ef150e52533ef23d933024d31c1f8cc1ef38f87345d8fbf02e50dbe7d487e",
    "mlp.report.txt": "64dc5d195ec5e79b6560033ec0b9bda7cdfd5ade1376661b1204b100cbb9ed45",
    "knn.json": "c3f22c9ad30acdfdbf7bb5e8c95cc936b92cac6aa170339be7a29d0889599e61",
    "knn.report.txt": "81a5168ee34b7bf5d37563cce9b6ef5ab34cffecb072313149992ff770c8d9e3",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_pgm(path: str, frame: np.ndarray) -> None:
    height, width = frame.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height) + frame.tobytes())


def _run(argv: list[str]) -> None:
    if cli_main(argv) != 0:
        raise RuntimeError(f"set-up command failed: mhi {' '.join(argv)}")


class Workload:
    """One workload's inputs, its timed commands and the checks on its outputs.

    A subclass builds its inputs in ``__init__`` and sets ``commands``,
    ``frames`` (input frames per pass) and ``ops``, the operations of one pass
    that the checks can fail: sequences, windows or commands. It defines
    ``compare(first, now)``, the failed operations of a pass against the
    warm-up pass, and ``verify(first)``, the attempted and failed checks of
    the warm-up pass's outputs against the pins and the reference path.
    """

    name = ""
    model: str | None = None
    outputs: tuple[str, ...] = ()

    def __init__(self, work: str, seed: int, scale: Scale):
        self.work, self.seed, self.scale = work, seed, scale
        self.manifest = os.path.join(work, "clips", "manifest.jsonl")
        self.features = os.path.join(work, "features.csv")
        generate(
            three_class_specs(frames=scale.frames, size=scale.size, rect=scale.rect,
                              count=scale.count, seed=seed),
            os.path.join(work, "clips"),
        )

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def read_outputs(self) -> dict[str, bytes]:
        result = {}
        for name in self.outputs:
            with open(self.path(name), "rb") as fh:
                result[name] = fh.read()
        return result

    def pinned_failures(self, outputs: dict[str, bytes]) -> int:
        """Operations failed by a digest mismatch; pins hold only at seed 0, full scale."""
        if self.seed != 0 or self.scale != FULL:
            return 0
        bad = [n for n, data in outputs.items() if _digest(data) != PINNED[n]]
        return self.ops if bad else 0

    def stats(self, outputs: dict[str, bytes]) -> dict[str, int]:
        """Output counts reported by the traced run."""
        return {}

    def _extract_features(self) -> None:
        _run(["extract", "--manifest", self.manifest, "--theta", THETA,
              "--tau", str(self.scale.tau), "--out", self.features])


class Extract(Workload):
    name = "extract"
    outputs = ("features.csv",)

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.commands = [["extract", "--manifest", self.manifest, "--theta", THETA,
                          "--tau", str(scale.tau), "--out", self.path("features.csv")]]
        self.frames = scale.corpus_frames
        self.ops = 3 * scale.count

    def compare(self, first, now) -> int:
        a = first["features.csv"].splitlines()
        b = now["features.csv"].splitlines()
        if len(a) != len(b) or a[:1] != b[:1]:
            return self.ops
        return sum(x != y for x, y in zip(a[1:], b[1:]))

    def verify(self, outputs) -> tuple[int, int]:
        return 0, self.pinned_failures(outputs)

    def stats(self, outputs) -> dict:
        return {"extract.skipped": self.ops - (len(outputs["features.csv"].splitlines()) - 1)}


class PredictDense(Workload):
    name = "predict_dense"
    outputs = ("timeline.json",)

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self._extract_features()
        self.model = self.path("model.json")
        _run(["train", "--features", self.features, "--classifier", "mlp", "--theta", THETA,
              "--tau", str(scale.tau), "--out", self.model])
        # Segment seeds (seed+3..seed+5) do not overlap the corpus's (seed..seed+2).
        specs = three_class_specs(frames=scale.frames, size=scale.video_size,
                                  rect=scale.video_rect, count=scale.segments, seed=seed + 3)
        self.video = np.concatenate(
            [render_clip(specs[i % 3], i // 3) for i in range(scale.segments)]
        )
        frames_dir = self.path("video")
        os.makedirs(frames_dir)
        for index, frame in enumerate(self.video):
            _write_pgm(os.path.join(frames_dir, f"{index:06d}.pgm"), frame)
        self.commands = [["predict", "--model", self.model, "--frames", frames_dir,
                          "--window", str(scale.tau), "--stride", "1",
                          "--out", self.path("timeline.json")]]
        self.frames = scale.video_frames
        self.ops = self.frames - scale.tau + 1

    def compare(self, first, now) -> int:
        a = json.loads(first["timeline.json"])
        b = json.loads(now["timeline.json"])
        if len(a) != len(b):
            return self.ops
        return sum(x != y for x, y in zip(a, b))

    def sample_starts(self) -> list[int]:
        """First and last window, plus three windows around every segment seam."""
        window, last = self.scale.tau, self.frames - self.scale.tau
        starts = {0, last}
        for seam in range(self.scale.frames, self.frames, self.scale.frames):
            starts.update({seam - window + 1, seam - window // 2, seam - 1})
        return sorted(s for s in starts if 0 <= s <= last)

    def reference_window(self, model: TrainedModel, start: int) -> dict:
        """One window through build_template -> feature_vector -> predict."""
        end = start + self.scale.tau - 1
        seq = FrameSequence(frames=self.video[start : end + 1],
                            record=SequenceRecord(dir="video", start=start, end=end))
        template = build_template(seq, theta=model.theta, tau=model.tau)
        try:
            label, score = model.predict(feature_vector(template))
        except NoMotionError:
            label, score = "none", 0.0
        blob = detect_secondary_blob(template.mei)
        return {
            "start_frame": start, "end_frame": end, "label": label, "score": float(score),
            "diagnostic": {"component_count": blob.component_count, "warning": blob.warning},
        }

    def verify(self, outputs) -> tuple[int, int]:
        timeline = json.loads(outputs["timeline.json"])
        if [w["start_frame"] for w in timeline] != list(range(self.ops)):
            return 0, self.ops
        model = TrainedModel.load(self.model)
        starts = self.sample_starts()
        failed = sum(self.reference_window(model, s) != timeline[s] for s in starts)
        return len(starts), failed + self.pinned_failures(outputs)

    def stats(self, outputs) -> dict:
        timeline = json.loads(outputs["timeline.json"])
        return {
            "predict.windows": len(timeline),
            "predict.blob_warnings": sum(w["diagnostic"]["warning"] for w in timeline),
        }


class Train(Workload):
    name = "train"
    outputs = ("mlp.json", "mlp.report.txt", "knn.json", "knn.report.txt")
    classifiers = ("mlp", "knn")

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self._extract_features()
        self.commands = [
            ["train", "--features", self.features, "--classifier", kind, "--theta", THETA,
             "--tau", str(scale.tau), "--epochs", "300", "--batch", "2",
             "--out", self.path(f"{kind}.json"), "--report", self.path(f"{kind}.report.txt")]
            for kind in self.classifiers
        ]
        # The corpus frames the feature CSV summarises.
        self.frames = scale.corpus_frames
        self.ops = len(self.classifiers)

    def compare(self, first, now) -> int:
        return sum(
            first[f"{k}.json"] != now[f"{k}.json"]
            or first[f"{k}.report.txt"] != now[f"{k}.report.txt"]
            for k in self.classifiers
        )

    def test_accuracy(self, outputs) -> dict[str, float]:
        result = {}
        for kind in self.classifiers:
            for line in outputs[f"{kind}.report.txt"].decode().splitlines():
                if line.startswith("[test] accuracy "):
                    result[kind] = float(line.split()[-1])
        return result

    def verify(self, outputs) -> tuple[int, int]:
        """Each saved model reloads and scores its report's test accuracy."""
        labeled = [s for s in read_features_csv(self.features) if s.label]
        _, _, test = split_dataset(labeled, SplitSpec(seed=0))
        reported = self.test_accuracy(outputs)
        failed = 0
        for kind in self.classifiers:
            _, accuracy = evaluate(TrainedModel.load(self.path(f"{kind}.json")), test)
            failed += reported.get(kind) != accuracy
        return self.ops, failed + self.pinned_failures(outputs)


WORKLOADS = {cls.name: cls for cls in (Extract, PredictDense, Train)}
