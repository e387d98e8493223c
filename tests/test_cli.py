"""End-to-end CLI behavior: commands, exit codes, file formats, determinism."""

import csv
import io
import itertools
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhi import classify, cli, imgio, serialize, temporal
from mhi.classify import MlpConfig, SplitSpec, Standardizer, TrainedModel, split_dataset, train_mlp
from mhi.cli import FEATURE_HEADER, features_to_csv, main, read_features_csv
from mhi.diagnostics import detect_secondary_blob
from mhi.errors import NoMotionError
from mhi.imgio import (
    FrameSequence,
    SequenceRecord,
    frame_path,
    load_sequence,
    read_pgm_file,
    write_pgm_file,
)
from mhi.moments import LabeledSample, feature_vector
from mhi.synth import specs_to_json, three_class_specs
from mhi.temporal import build_template


THETA, TAU = "10", "12"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset with models trained both ways."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(
        specs_to_json(three_class_specs(frames=12, size=48, rect=10, count=6, seed=0))
    )
    clips = root / "clips"
    assert main(["synth", "--spec", str(spec_path), "--out", str(clips)]) == 0

    feats = root / "feats.csv"
    assert main([
        "extract", "--manifest", str(clips / "manifest.jsonl"),
        "--theta", THETA, "--tau", TAU, "--out", str(feats),
    ]) == 0

    knn_model = root / "knn.json"
    assert main([
        "train", "--features", str(feats), "--classifier", "knn",
        "--theta", THETA, "--tau", TAU, "--out", str(knn_model),
    ]) == 0

    mlp_model = root / "mlp.json"
    assert main([
        "train", "--features", str(feats), "--classifier", "mlp",
        "--theta", THETA, "--tau", TAU, "--epochs", "40",
        "--out", str(mlp_model),
    ]) == 0

    return {
        "root": root, "spec": spec_path, "clips": clips, "feats": feats,
        "knn": knn_model, "mlp": mlp_model,
    }


def test_extract_csv_shape(workspace):
    lines = workspace["feats"].read_text().splitlines()
    assert lines[0] == FEATURE_HEADER
    assert len(lines) == 1 + 18  # 3 classes x 6 replicates
    first = lines[1].split(",")
    assert first[0] == "slide"
    assert first[1] == "slide_000:0-11"
    assert len(first) == 18


def test_extract_deterministic(workspace):
    out = workspace["root"] / "again.csv"
    manifest = str(workspace["clips"] / "manifest.jsonl")
    assert main(["extract", "--manifest", manifest, "--theta", THETA,
                 "--tau", TAU, "--out", str(out)]) == 0
    assert out.read_bytes() == workspace["feats"].read_bytes()


def test_extract_matches_library_pipeline(workspace):
    samples = read_features_csv(str(workspace["feats"]))
    target = samples[0]
    record = SequenceRecord(dir="slide_000", start=0, end=11, label="slide")
    seq = load_sequence(record, root=workspace["clips"])
    template = build_template(seq, theta=10.0, tau=12)
    np.testing.assert_array_equal(target.features, feature_vector(template))


def test_feature_csv_round_trip():
    rng = np.random.Generator(np.random.PCG64(71))
    samples = [
        LabeledSample(rng.standard_normal(16) * 10.0 ** rng.integers(-8, 8),
                      "walk", f"clip:{i}-{i + 9}")
        for i in range(5)
    ]
    text = features_to_csv(samples)
    back = read_features_csv_from_text(text)
    for original, parsed in zip(samples, back):
        assert parsed.label == original.label
        assert parsed.source == original.source
        np.testing.assert_array_equal(parsed.features, original.features)


def read_features_csv_from_text(text, tmp_dir=None):
    import tempfile

    with tempfile.NamedTemporaryFile(
        "w", suffix=".csv", dir=tmp_dir, delete=False, encoding="utf-8", newline=""
    ) as fh:
        fh.write(text)
        path = fh.name
    try:
        return read_features_csv(path)
    finally:
        os.unlink(path)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.tuples(st.text(), st.text()), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_feature_csv_round_trip_arbitrary_labels(labels, seed):
    # Commas, quotes and line breaks in labels or sources must read back.
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = [
        LabeledSample(rng.standard_normal(16) * 10.0 ** rng.integers(-8, 8), label, source)
        for label, source in labels
    ]
    back = read_features_csv_from_text(features_to_csv(samples))
    assert [(s.label, s.source) for s in back] == labels
    for original, parsed in zip(samples, back):
        np.testing.assert_array_equal(parsed.features, original.features)


def test_extract_label_with_comma_reads_back(workspace, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    clip = workspace["clips"] / "slide_000"
    manifest.write_text(json.dumps(
        {"dir": str(clip), "label": "sl,ide", "start": 0, "end": 11}) + "\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--manifest", str(manifest), "--theta", THETA,
                 "--tau", TAU, "--out", str(out)]) == 0
    (sample,) = read_features_csv(str(out))
    assert sample.label == "sl,ide"
    assert sample.source == f"{clip}:0-11"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
def test_non_finite_feature_csv_exit_two(workspace, tmp_path, caplog, bad):
    lines = workspace["feats"].read_text().splitlines()
    fields = lines[3].split(",")
    fields[5] = bad
    lines[3] = ",".join(fields)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--model", str(workspace["knn"]),
                 "--features", str(path)]) == 2
    assert f"{path}: line 4" in caplog.text
    assert main(["train", "--features", str(path), "--classifier", "knn",
                 "--out", str(tmp_path / "m.json")]) == 2


def _with_f0(workspace, path, values):
    """The workspace feature CSV with column f0 set row by row from ``values``."""
    rows = list(csv.reader(io.StringIO(workspace["feats"].read_text(), newline="")))
    for row, value in zip(rows[1:], values):
        row[2] = value
    path.write_text(serialize.csv_text(rows), newline="")
    return str(path)


@pytest.mark.parametrize("kind", ["knn", "mlp"])
def test_train_on_overflowing_feature_names_csv_and_column(workspace, tmp_path, caplog, kind):
    # The squared deviations of +-1e308 overflow; any warning fails the test.
    path = _with_f0(workspace, tmp_path / "feats.csv", itertools.cycle(["1e308", "-1e308"]))
    assert main(["train", "--features", path, "--classifier", kind, "--epochs", "3",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert f"{path}: feature f0 overflows standardization" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["feats.csv"]


@pytest.mark.parametrize("kind", ["knn", "mlp"])
def test_eval_on_overflowing_feature_names_csv_and_column(workspace, tmp_path, caplog, kind):
    # f0 spreads by about 0.005 in training, so 1e308 standardizes to inf.
    narrow = _with_f0(workspace, tmp_path / "narrow.csv", (f"{i / 1000}" for i in range(18)))
    model = str(tmp_path / "m.json")
    assert main(["train", "--features", narrow, "--classifier", kind, "--epochs", "3",
                 "--out", model]) == 0
    path = _with_f0(workspace, tmp_path / "eval.csv", ["0.001", "1e308"])
    out = tmp_path / "confusion.csv"
    assert main(["eval", "--model", model, "--features", path, "--out", str(out)]) == 2
    source = read_features_csv(path)[1].source
    assert (f"{path}: sample {source}: feature f0 value 1e+308 does not standardize "
            "to a finite value") in caplog.text
    assert not out.exists()


def test_eval_knn_distance_overflow_names_csv_and_sample(workspace, tmp_path, caplog):
    # 1e200 standardizes to a finite value, but its square overflows; any
    # warning fails the test.
    path = _with_f0(workspace, tmp_path / "eval.csv", ["0.001", "1e200"])
    out = tmp_path / "confusion.csv"
    assert main(["eval", "--model", str(workspace["knn"]), "--features", path,
                 "--out", str(out)]) == 2
    source = read_features_csv(path)[1].source
    assert f"{path}: sample {source}: feature f0 standardizes to" in caplog.text
    assert "for a finite distance" in caplog.text
    assert not out.exists()


# One SGD step whose loss is finite, but which leaves weights near 2e307: on
# the workspace features the first hidden layer then overflows (at 1e308 it
# stays just finite).
HUGE_LR = ["--lr", "1.5e308", "--epochs", "1", "--batch", "100"]


def test_train_with_overflowing_forward_exits_three(workspace, tmp_path, caplog):
    # Any warning fails the test.
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 *HUGE_LR, "--out", str(model)]) == 3
    assert f"{workspace['feats']}: training diverged: sample " in caplog.text
    assert "MLP forward pass overflows float64" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_train_with_saturated_mlp_exits_three(workspace, tmp_path, caplog):
    # At 1e308 the one SGD step leaves weights near 2e307 and every value
    # finite, but both tanh layers read +-1.0 in every unit on every sample.
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--lr", "1e308", "--epochs", "1", "--batch", "100", "--out", str(model)]) == 3
    assert (f"{workspace['feats']}: training diverged: hidden layer 1 reads +-1.0 in every "
            "unit on every training sample") in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_train_with_partly_saturated_mlp_writes_model(workspace, tmp_path):
    # At lr 5 some units read +-1.0 on every sample, but no sample saturates
    # a whole layer, so the model is kept.
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--lr", "5", "--epochs", "40", "--out", str(model)]) == 0
    assert model.exists()


def _diverged_mlp(workspace, path):
    """The model that ``train`` with ``HUGE_LR`` wrote before it checked the
    forward pass: the same split, standardization and one SGD step."""
    samples = read_features_csv(str(workspace["feats"]))
    train, val, _ = split_dataset(samples, SplitSpec(seed=0))
    standardizer = Standardizer.fit(train)

    def standardized(part):
        return [LabeledSample(standardizer.apply(s.features), s.label, s.source) for s in part]

    cfg = MlpConfig(lr=1.5e308, epochs=1, batch=100)
    classifier = train_mlp(standardized(train), standardized(val), cfg)
    assert max(float(np.abs(w).max()) for w in classifier.weights) > 1e306
    model = TrainedModel(tau=int(TAU), theta=float(THETA), standardizer=standardizer,
                         classifier=classifier)
    path.write_bytes(model.to_bytes())
    return str(path)


def test_eval_with_overflowing_forward_names_model(workspace, tmp_path, caplog):
    model = _diverged_mlp(workspace, tmp_path / "diverged.json")
    out = tmp_path / "confusion.csv"
    assert main(["eval", "--model", model, "--features", str(workspace["feats"]),
                 "--out", str(out)]) == 2
    assert f"{model}: sample " in caplog.text
    assert "MLP forward pass overflows float64" in caplog.text
    assert not out.exists()


def test_predict_with_overflowing_forward_names_model(workspace, tmp_path, caplog):
    model = _diverged_mlp(workspace, tmp_path / "diverged.json")
    out = tmp_path / "pred.json"
    # The whole clip as one window: the sample whose forward pass overflows.
    assert main(["predict", "--model", model, "--frames",
                 str(workspace["clips"] / "slide_000"), "--window", "12",
                 "--out", str(out)]) == 2
    assert f"{model}: MLP forward pass overflows float64" in caplog.text
    assert not out.exists()


def test_train_model_documents(workspace):
    knn_doc = json.loads(workspace["knn"].read_text())
    assert knn_doc["classifier"] == "knn"
    assert knn_doc["tau"] == 12
    assert knn_doc["theta"] == 10.0
    assert knn_doc["labels"] == ["pulse", "slide", "sway"]
    mlp_doc = json.loads(workspace["mlp"].read_text())
    assert mlp_doc["classifier"] == "mlp"
    assert mlp_doc["mlp"]["sizes"] == [16, 64, 32, 3]


def test_train_report_sections(workspace):
    report = (workspace["root"] / "knn.report.txt").read_text()
    for section in ("[train]", "[val]", "[test]"):
        assert section in report
    assert report.count("true\\predicted,pulse,slide,sway") == 3
    assert "samples: train=9 val=3 test=6" in report


def test_train_deterministic(workspace):
    again = workspace["root"] / "knn2.json"
    assert main([
        "train", "--features", str(workspace["feats"]), "--classifier", "knn",
        "--theta", THETA, "--tau", TAU, "--out", str(again),
    ]) == 0
    assert again.read_bytes() == workspace["knn"].read_bytes()


@pytest.mark.parametrize("kind, flags", [("knn", []), ("mlp", ["--epochs", "40"])])
def test_train_from_the_manifest_writes_the_bytes_of_extract_then_train(workspace, tmp_path,
                                                                       kind, flags):
    model = tmp_path / "m.json"
    assert main([
        "train", "--manifest", str(workspace["clips"] / "manifest.jsonl"), "--classifier", kind,
        "--theta", THETA, "--tau", TAU, *flags, "--out", str(model),
    ]) == 0
    assert model.read_bytes() == workspace[kind].read_bytes()
    report = workspace[kind].with_suffix(".report.txt")
    assert (tmp_path / "m.report.txt").read_bytes() == report.read_bytes()


def test_eval_confusion_csv(workspace, tmp_path):
    out = tmp_path / "confusion.csv"
    assert main(["eval", "--model", str(workspace["knn"]),
                 "--features", str(workspace["feats"]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "true\\predicted,pulse,slide,sway"
    assert lines[-1].startswith("accuracy,")
    total = sum(
        int(cell) for line in lines[1:4] for cell in line.split(",")[1:]
    )
    assert total == 18
    assert 0.0 <= float(lines[-1].split(",")[1]) <= 1.0


def test_eval_comma_label_reads_back(workspace, tmp_path):
    samples = [
        LabeledSample(s.features, "sl,ide" if s.label == "slide" else s.label, s.source)
        for s in read_features_csv(str(workspace["feats"]))
    ]
    feats, model, out = tmp_path / "f.csv", tmp_path / "m.json", tmp_path / "c.csv"
    feats.write_text(features_to_csv(samples), newline="")
    assert main(["train", "--features", str(feats), "--classifier", "knn",
                 "--out", str(model)]) == 0
    assert main(["eval", "--model", str(model), "--features", str(feats),
                 "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(), newline="")))
    assert rows[0] == ["true\\predicted", "pulse", "sl,ide", "sway"]
    assert [row[0] for row in rows[1:]] == ["pulse", "sl,ide", "sway", "accuracy"]
    assert sum(int(cell) for row in rows[1:4] for cell in row[1:]) == 18


def test_predict_single_window(workspace, tmp_path):
    out = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(workspace["knn"]),
        "--frames", str(workspace["clips"] / "slide_000"),
        "--window", "12", "--out", str(out),
    ]) == 0
    entries = json.loads(out.read_text())
    assert len(entries) == 1
    entry = entries[0]
    assert entry["start_frame"] == 0 and entry["end_frame"] == 11
    assert entry["label"] == "slide"
    assert 0.0 < entry["score"] <= 1.0
    assert set(entry["diagnostic"]) == {"component_count", "warning"}


def test_predict_window_tiling(workspace, tmp_path):
    out = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(workspace["knn"]),
        "--frames", str(workspace["clips"] / "sway_001"),
        "--window", "6", "--stride", "3", "--out", str(out),
    ]) == 0
    entries = json.loads(out.read_text())
    spans = [(e["start_frame"], e["end_frame"]) for e in entries]
    assert spans == [(0, 5), (3, 8), (6, 11)]


def test_predict_trailing_window_clamped(workspace, tmp_path):
    out = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(workspace["knn"]),
        "--frames", str(workspace["clips"] / "pulse_002"),
        "--window", "8", "--stride", "5", "--out", str(out),
    ]) == 0
    spans = [(e["start_frame"], e["end_frame"]) for e in json.loads(out.read_text())]
    assert spans == [(0, 7), (4, 11)]  # 5 would overrun; trailing start is 4


@pytest.mark.parametrize("kind", ["knn", "mlp"])
def test_predict_dense_splice_matches_library(workspace, tmp_path, kind):
    # Frames 0-11 slide, 12-23 sway; the 16-frame window exceeds the model's
    # tau of 12, so each template uses only its window's trailing masks.
    video = tmp_path / "video"
    video.mkdir()
    for i in range(12):
        shutil.copy(frame_path(workspace["clips"] / "slide_000", i), frame_path(video, i))
        shutil.copy(frame_path(workspace["clips"] / "sway_000", i), frame_path(video, 12 + i))
    out = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(workspace[kind]), "--frames", str(video),
        "--window", "16", "--stride", "1", "--out", str(out),
    ]) == 0
    entries = json.loads(out.read_text())
    assert [e["start_frame"] for e in entries] == list(range(9))

    model = TrainedModel.load(workspace[kind])
    frames = load_sequence(SequenceRecord(str(video), 0, 23)).frames
    assert entries == _reference_entries(model, frames, 16, range(9))
    assert {e["label"] for e in entries} >= {"slide", "sway"}


def _reference_entries(model, frames, size, starts):
    """Each window alone through build_template -> feature_vector -> predict."""
    entries = []
    for start in starts:
        end = start + size - 1
        window = FrameSequence(frames[start : end + 1], SequenceRecord("w", start, end))
        template = build_template(window, theta=model.theta, tau=model.tau)
        try:
            label, score = model.predict(feature_vector(template))
        except NoMotionError:
            label, score = "none", 0.0
        blob = detect_secondary_blob(template.mei)
        entries.append({
            "start_frame": start, "end_frame": end, "label": label, "score": float(score),
            "diagnostic": {"component_count": blob.component_count, "warning": blob.warning},
        })
    return entries


def test_predict_static_video_none(workspace, tmp_path):
    static = tmp_path / "static"
    static.mkdir()
    frame = np.full((48, 48), 120, dtype=np.uint8)
    for i in range(8):
        write_pgm_file(frame_path(static, i), frame)
    out = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(workspace["knn"]),
        "--frames", str(static), "--window", "4", "--out", str(out),
    ]) == 0
    entries = json.loads(out.read_text())
    assert entries
    assert all(e["label"] == "none" and e["score"] == 0.0 for e in entries)
    assert all(e["diagnostic"]["component_count"] == 0 for e in entries)


def test_render_outputs(workspace, tmp_path):
    out = tmp_path / "render"
    assert main([
        "render", "--frames", str(workspace["clips"] / "slide_000"),
        "--theta", THETA, "--tau", TAU, "--out", str(out),
    ]) == 0
    mei = read_pgm_file(out / "mei.pgm")
    mhi = read_pgm_file(out / "mhi.pgm")
    assert set(np.unique(mei)) <= {0, 255}
    assert mhi.max() == 255  # most recent motion at full brightness
    assert mei.shape == mhi.shape == (48, 48)
    support = mhi > 0
    assert np.all(mei[support] == 255)


def test_render_static_all_zero(workspace, tmp_path):
    static = tmp_path / "static"
    static.mkdir()
    frame = np.zeros((16, 16), dtype=np.uint8)
    for i in range(4):
        write_pgm_file(frame_path(static, i), frame)
    out = tmp_path / "render"
    assert main(["render", "--frames", str(static), "--theta", THETA,
                 "--tau", TAU, "--out", str(out)]) == 0
    assert not read_pgm_file(out / "mei.pgm").any()
    assert not read_pgm_file(out / "mhi.pgm").any()


def test_render_deterministic(workspace, tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for out in (first, second):
        assert main([
            "render", "--frames", str(workspace["clips"] / "pulse_000"),
            "--theta", THETA, "--tau", TAU, "--out", str(out),
        ]) == 0
    assert (first / "mhi.pgm").read_bytes() == (second / "mhi.pgm").read_bytes()
    assert (first / "mei.pgm").read_bytes() == (second / "mei.pgm").read_bytes()


def _render_into_blocked_mhi(workspace, out):
    # ``mhi.pgm`` is a directory, so the second output cannot be written.
    (out / "mhi.pgm").mkdir(parents=True)
    return main(["render", "--frames", str(workspace["clips"] / "slide_000"),
                 "--tau", "8", "--out", str(out)])


def test_a_failed_render_writes_neither_pgm(workspace, tmp_path):
    out = tmp_path / "render"
    assert _render_into_blocked_mhi(workspace, out) == 2
    assert sorted(p.name for p in out.iterdir()) == ["mhi.pgm"]


def test_a_failed_render_keeps_an_existing_mei(workspace, tmp_path):
    out = tmp_path / "render"
    out.mkdir()
    (out / "mei.pgm").write_bytes(b"earlier bytes")
    assert _render_into_blocked_mhi(workspace, out) == 2
    assert (out / "mei.pgm").read_bytes() == b"earlier bytes"
    assert sorted(p.name for p in out.iterdir()) == ["mei.pgm", "mhi.pgm"]


# --- exit codes ---

def test_usage_errors_exit_one(workspace):
    for argv in (
        [],
        ["bogus"],
        ["train", "--classifier", "knn"],          # no feature source
        ["extract"],                               # missing manifest
        ["predict", "--model", "m", "--frames", "f", "--window", "1"],
        ["train", "--features", "x", "--classifier", "forest", "--out", "m"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


@pytest.mark.parametrize("command", ["extract", "train", "predict"])
def test_jobs_flag_removed(command):
    argv = {
        "extract": ["extract", "--manifest", "m.jsonl"],
        "train": ["train", "--features", "f.csv", "--classifier", "knn", "--out", "m"],
        "predict": ["predict", "--model", "m", "--frames", "f"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--jobs", "2"])
    assert info.value.code == 1


@pytest.mark.parametrize("theta", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("command", ["extract", "train", "render"])
def test_bad_theta_is_usage_error(workspace, command, theta):
    argv = {
        "extract": ["extract", "--manifest", str(workspace["clips"] / "manifest.jsonl")],
        "train": ["train", "--features", str(workspace["feats"]), "--classifier", "knn",
                  "--out", "m.json"],
        "render": ["render", "--frames", str(workspace["clips"] / "slide_000"),
                   "--out", "r"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + [f"--theta={theta}"])
    assert info.value.code == 1


def _drop(doc, *path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _narrow_vectors(doc):
    doc["knn"]["vectors"] = [row[:5] for row in doc["knn"]["vectors"]]


def _narrow_standardizer(doc):
    doc["standardizer"]["mean"] = doc["standardizer"]["mean"][:15]


def _transpose_weights(doc):
    doc["mlp"]["weights"][1] = np.array(doc["mlp"]["weights"][1]).T.tolist()


def _short_bias(doc):
    doc["mlp"]["biases"][0] = doc["mlp"]["biases"][0][:-1]


def _missing_layer(doc):
    doc["mlp"]["weights"].pop()


def _set(*path, value):
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return corrupt


@pytest.mark.parametrize("kind, corrupt, field", [
    ("knn", lambda doc: _drop(doc, "theta"), "theta"),
    ("knn", lambda doc: _drop(doc, "knn", "k"), "knn.k"),
    ("mlp", lambda doc: _drop(doc, "standardizer", "std"), "standardizer.std"),
    ("knn", _narrow_vectors, "knn.vectors"),
    ("knn", _narrow_standardizer, "standardizer.mean"),
    ("mlp", _narrow_standardizer, "standardizer.mean"),
    ("mlp", _transpose_weights, "mlp.weights.1"),
    ("mlp", _short_bias, "mlp.biases.0"),
    ("mlp", _missing_layer, "mlp.weights.2"),
    ("mlp", lambda doc: doc.update(labels=["a", "b"]), "mlp.sizes"),
    ("knn", lambda doc: doc.update(theta=float("nan")), "theta"),
    ("mlp", lambda doc: doc.update(tau=0), "tau"),
    ("knn", lambda doc: doc.update(labels=["a", "b"]), "knn.labels"),
    ("mlp", lambda doc: doc.update(labels=["pulse", "pulse", "sway"]), "labels"),
    ("mlp", _set("standardizer", "std", 3, value=float("nan")), "standardizer.std"),
    ("knn", _set("standardizer", "std", 3, value=0.0), "standardizer.std"),
    ("knn", _set("standardizer", "std", 0, value=-1.0), "standardizer.std"),
    ("mlp", _set("standardizer", "mean", 0, value=float("inf")), "standardizer.mean"),
    ("mlp", _set("mlp", "weights", 1, 0, 0, value=float("-inf")), "mlp.weights.1"),
    ("knn", _set("knn", "vectors", 0, 0, value="1.5"), "knn.vectors"),
    ("knn", _set("knn", "vectors", 1, 2, value=True), "knn.vectors"),
    ("mlp", _set("mlp", "biases", 0, 0, value=False), "mlp.biases.0"),
    ("mlp", _set("tau", value=20.9), "tau"),
    ("knn", _set("tau", value=True), "tau"),
    ("knn", _set("knn", "k", value=2.5), "knn.k"),
    ("knn", _set("knn", "k", value=3.0), "knn.k"),
    ("knn", _set("knn", "k", value=0), "knn.k"),
    ("mlp", _set("mlp", "sizes", 1, value=float), "mlp.sizes.1"),
    ("mlp", _set("mlp", "sizes", 2, value=True), "mlp.sizes.2"),
    ("knn", _set("theta", value="10"), "theta"),
    ("mlp", _set("theta", value=None), "theta"),
    ("knn", _set("theta", value=10**400), "theta"),
    ("mlp", _set("standardizer", "mean", 2, value=-(10**400)), "standardizer.mean"),
    ("mlp", _set("labels", value="psw"), "labels"),
    ("mlp", _set("labels", value=[1, 2, 3]), "labels"),
    ("mlp", _set("labels", 0, value=""), "labels"),
    ("knn", _set("knn", "labels", 0, value=7), "knn.labels"),
    ("mlp", _set("mlp", "sizes", value=5), "mlp.sizes"),
    ("knn", _set("tau", value=2**53 + 1), "tau"),
    ("mlp", _set("tau", value=10**30), "tau"),
], ids=["no-theta", "no-k", "no-std", "knn-width", "knn-mean-width", "mlp-mean-width",
        "mlp-weight-shape", "mlp-bias-shape", "mlp-missing-layer", "mlp-label-count",
        "nan-theta", "zero-tau", "knn-labels", "mlp-duplicate-labels",
        "nan-std", "zero-std", "negative-std", "inf-mean", "inf-weight",
        "string-vector", "bool-vector", "bool-bias", "float-tau", "bool-tau",
        "fractional-k", "float-k", "zero-k", "float-size", "bool-size",
        "string-theta", "null-theta", "huge-int-theta", "huge-int-mean",
        "string-labels", "int-labels", "empty-label", "int-knn-label", "int-sizes",
        "tau-past-2-53", "huge-int-tau"])
def test_malformed_model_exit_two(workspace, tmp_path, caplog, kind, corrupt, field):
    doc = json.loads(workspace[kind].read_text())
    corrupt(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(model),
                 "--features", str(workspace["feats"])]) == 2
    assert str(model) in caplog.text
    assert field in caplog.text
    assert main(["predict", "--model", str(model),
                 "--frames", str(workspace["clips"] / "slide_000")]) == 2


def test_hidden_sizes_shape_the_net(workspace, tmp_path):
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--epochs", "2", "--hidden", "8,4", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["mlp"]["sizes"] == [16, 8, 4, 3]


def test_hidden_past_the_parameter_bound_exits_two(workspace, tmp_path, caplog, monkeypatch):
    def refuse(*args):
        raise AssertionError("mlp_init called past the parameter bound")

    monkeypatch.setattr(classify, "mlp_init", refuse)
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--hidden", "100000000", "--out", str(model)]) == 2
    assert f"{workspace['feats']}: --hidden 100000000: layer sizes [16, 100000000, 3]" \
        in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_rows_past_the_layer_bound_exit_two(workspace, tmp_path, caplog, monkeypatch):
    def refuse(*args):
        raise AssertionError("step buffers made past the layer bound")

    monkeypatch.setattr(classify, "MLP_MAX_LAYER_VALUES", 9 * 7 - 1)
    monkeypatch.setattr(classify, "_step_buffers", refuse)
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--hidden", "7", "--batch", "1000", "--out", str(model)]) == 2
    assert (f"{workspace['feats']}: --hidden 7: layer sizes [16, 7, 3] on 9 rows per pass "
            f"need 63 values") in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_train_logs_the_selected_epoch(workspace, tmp_path, caplog, monkeypatch):
    trained = []

    def keep(*args):
        trained.append(train_mlp(*args))
        return trained[-1]

    monkeypatch.setattr(cli, "train_mlp", keep)
    caplog.set_level(logging.INFO, logger="mhi")
    # At this rate the validation accuracy first peaks after some epochs and
    # then stays there, so the first of the tied epochs must be named.
    assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                 "--lr", "0.01", "--epochs", "40", "--out", str(tmp_path / "m.json")]) == 0
    history = trained[0].val_history
    best = int(np.argmax(history))
    assert 0 < best and history.count(history[best]) > 1
    assert trained[0].selected_epoch == best + 1
    found = re.findall(r"mlp: selected epoch (\d+) of (\d+), validation accuracy (\S+)",
                       caplog.text)
    assert found == [(str(best + 1), "40", f"{history[best]:.4f}")]


def test_batch_above_the_training_set_equals_batch_of_its_size(workspace, tmp_path):
    train, _, _ = split_dataset(read_features_csv(str(workspace["feats"])), SplitSpec(seed=0))
    written = []
    for batch in (str(len(train)), "1000000000"):
        model = tmp_path / f"m{batch}.json"
        assert main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
                     "--epochs", "5", "--batch", batch, "--out", str(model)]) == 0
        written.append(model.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("hidden", ["0", "a", "8,,4", "8,-1", ""])
def test_bad_hidden_sizes_are_usage_errors(workspace, tmp_path, hidden):
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as info:
        main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
              "--epochs", "2", "--out", str(model), f"--hidden={hidden}"])
    assert info.value.code == 1
    assert not model.exists()


@pytest.mark.parametrize("flag", ["--k", "--tau", "--epochs", "--batch", "--stride"])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_non_positive_counts_are_usage_errors(workspace, tmp_path, flag, value):
    if flag == "--stride":
        argv = ["predict", "--model", str(workspace["knn"]),
                "--frames", str(workspace["clips"] / "slide_000")]
    else:
        argv = ["train", "--features", str(workspace["feats"]), "--classifier", "knn",
                "--out", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as info:
        main(argv + [f"{flag}={value}"])
    assert info.value.code == 1
    assert not (tmp_path / "m.json").exists()


def _command(workspace, tmp_path, command):
    """A run of ``command`` on the workspace that writes under ``tmp_path``."""
    return {
        "extract": ["extract", "--manifest", str(workspace["clips"] / "manifest.jsonl"),
                    "--out", str(tmp_path / "f.csv")],
        "train": ["train", "--features", str(workspace["feats"]), "--classifier", "knn",
                  "--out", str(tmp_path / "m.json")],
        "render": ["render", "--frames", str(workspace["clips"] / "slide_000"),
                   "--out", str(tmp_path / "r")],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--seed", "-1"),
    ("train", "--tau", str(2**53 + 1)),
    ("extract", "--tau", "1" + "0" * 30),
    ("render", "--tau", str(2**60)),
])
def test_out_of_range_flags_are_usage_errors_naming_the_flag(workspace, tmp_path, capsys,
                                                             command, flag, value):
    with pytest.raises(SystemExit) as info:
        main(_command(workspace, tmp_path, command) + [flag, value])
    assert info.value.code == 1
    assert f"argument {flag}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", [
    "train_report_is_out", "train_out_is_features", "train_default_report_is_features",
    "train_out_is_a_hard_link", "train_paths_spelled_apart", "predict_out_is_model",
    "extract_out_is_manifest", "eval_out_is_model", "eval_out_is_features",
])
def test_an_output_that_is_one_of_the_commands_files_is_refused(workspace, tmp_path, capsys,
                                                                 case):
    feats, knn = str(tmp_path / "g.csv"), str(tmp_path / "k.json")
    shutil.copy(workspace["feats"], feats)
    shutil.copy(workspace["knn"], knn)
    manifest = shutil.copy(workspace["clips"] / "manifest.jsonl", tmp_path)
    (tmp_path / "d").mkdir()
    model, link, report = (str(tmp_path / name) for name in ("m.json", "l.csv", "m.report.txt"))
    os.link(feats, link)
    shutil.copy(feats, report)
    train = ["train", "--classifier", "knn", "--features"]
    argv, flags, path = {
        "train_report_is_out": (train + [feats, "--out", model, "--report", model],
                                ("--out", "--report"), model),
        "train_out_is_features": (train + [feats, "--out", feats], ("--out", "--features"), feats),
        "train_default_report_is_features": (train + [report, "--out", model],
                                             ("--report", "--features"), report),
        "train_out_is_a_hard_link": (train + [feats, "--out", link], ("--out", "--features"), link),
        "train_paths_spelled_apart": (
            train + [feats, "--out", str(tmp_path / "d" / ".." / "m.json"), "--report", model],
            ("--out", "--report"), str(tmp_path / "d" / ".." / "m.json")),
        "predict_out_is_model": (["predict", "--model", knn, "--frames",
                                  str(workspace["clips"] / "slide_000"), "--out", knn],
                                 ("--out", "--model"), knn),
        "extract_out_is_manifest": (["extract", "--manifest", manifest, "--out", manifest],
                                    ("--out", "--manifest"), manifest),
        "eval_out_is_model": (["eval", "--model", knn, "--features", feats, "--out", knn],
                              ("--out", "--model"), knn),
        "eval_out_is_features": (["eval", "--model", knn, "--features", feats, "--out", feats],
                                 ("--out", "--features"), feats),
    }[case]
    files = sorted(tmp_path.rglob("*"))
    before = [entry.read_bytes() for entry in files if entry.is_file()]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mhi {argv[0]} [-h] ")
    assert err.endswith(f"\nmhi {argv[0]}: error: {flags[0]} and {flags[1]} "
                        f"name the same file: {path}\n")
    assert sorted(tmp_path.rglob("*")) == files
    assert [entry.read_bytes() for entry in files if entry.is_file()] == before


@pytest.mark.parametrize("case", [
    "predict_out", "predict_out_through_a_symlink", "extract_out", "train_manifest_out",
    "train_manifest_report",
])
def test_an_output_that_is_a_frame_the_command_reads_is_refused(workspace, tmp_path, capsys,
                                                                monkeypatch, case):
    clips = shutil.copytree(workspace["clips"], tmp_path / "clips")
    manifest = str(clips / "manifest.jsonl")
    frame = Path(frame_path(clips / "slide_000", 3))
    link = tmp_path / "link.pgm"
    link.symlink_to(frame)
    train = ["train", "--manifest", manifest, "--classifier", "knn"]
    argv, flag, path = {
        "predict_out": (["predict", "--model", str(workspace["knn"]), "--frames",
                         str(clips / "slide_000"), "--out", str(frame)], "--out", frame),
        "predict_out_through_a_symlink": (["predict", "--model", str(workspace["knn"]),
                                           "--frames", str(clips / "slide_000"),
                                           "--out", str(link)], "--out", str(link)),
        "extract_out": (["extract", "--manifest", manifest, "--out", str(frame)], "--out", frame),
        "train_manifest_out": (train + ["--out", str(frame)], "--out", frame),
        "train_manifest_report": (train + ["--out", str(tmp_path / "m.json"),
                                           "--report", str(frame)],
                                  "--report", frame),
    }[case]
    before = frame.read_bytes()
    reads = []
    monkeypatch.setattr(imgio, "read_pgm_file", reads.append)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"\nmhi {argv[0]}: error: {flag} names a frame the command reads: {path}\n")
    assert reads == []
    assert frame.read_bytes() == before
    assert not (tmp_path / "m.json").exists()


def test_a_frame_named_output_that_no_command_input_holds_is_written(workspace, tmp_path):
    # Past the scanned frames, in another directory, or beside a manifest
    # whose records lie elsewhere: each is an ordinary output.
    clips = shutil.copytree(workspace["clips"], tmp_path / "clips")
    beyond = Path(frame_path(clips / "slide_000", 12))
    assert main(["predict", "--model", str(workspace["knn"]), "--frames",
                 str(clips / "slide_000"), "--out", str(beyond)]) == 0
    assert json.loads(beyond.read_text())
    for out in (Path(frame_path(tmp_path, 0)), Path(frame_path(clips, 0))):
        assert main(["extract", "--manifest", str(clips / "manifest.jsonl"),
                     "--theta", THETA, "--tau", TAU, "--out", str(out)]) == 0
        assert out.read_bytes() == workspace["feats"].read_bytes()


def test_a_manifest_that_does_not_load_is_left_to_the_command(tmp_path, caplog):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("[\n")
    out = frame_path(tmp_path, 0)
    assert main(["extract", "--manifest", str(manifest), "--out", out]) == 2
    assert f"{manifest}: line 1: invalid JSON" in caplog.text
    assert not os.path.exists(out)


def test_a_path_no_file_can_have_is_still_a_data_error(workspace, tmp_path, caplog):
    model = tmp_path / "m.json"
    assert main(["train", "--features", "g\0.csv", "--classifier", "knn",
                 "--out", str(model)]) == 2
    assert "embedded null byte" in caplog.text
    assert not model.exists()


def _train_knn(workspace, out, report):
    return main(["train", "--features", str(workspace["feats"]), "--classifier", "knn",
                 "--theta", THETA, "--tau", TAU, "--out", str(out), "--report", str(report)])


def test_train_with_an_unwritable_report_writes_no_model(workspace, tmp_path, caplog):
    model = tmp_path / "m.json"
    assert _train_knn(workspace, model, tmp_path / "missing" / "r.txt") == 2
    assert "No such file or directory" in caplog.text
    assert str(tmp_path / "missing" / "r.txt") in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_a_failed_train_keeps_an_existing_model(workspace, tmp_path):
    model = tmp_path / "m.json"
    model.write_bytes(b"earlier bytes")
    assert _train_knn(workspace, model, tmp_path / "missing" / "r.txt") == 2
    assert model.read_bytes() == b"earlier bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_outputs_replace_their_targets_and_leave_no_temporary_file(workspace, tmp_path):
    model, report = tmp_path / "m.json", tmp_path / "r.txt"
    model.write_bytes(b"earlier bytes")
    assert _train_knn(workspace, model, report) == 0
    assert model.read_bytes() == workspace["knn"].read_bytes()
    assert report.read_text() == (workspace["root"] / "knn.report.txt").read_text()
    out = tmp_path / "confusion.csv"
    assert main(["eval", "--model", str(model), "--features", str(workspace["feats"]),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["confusion.csv", "m.json", "r.txt"]


def test_a_new_output_gets_the_mode_open_gives(workspace, tmp_path):
    previous = os.umask(0o027)
    try:
        assert _train_knn(workspace, tmp_path / "m.json", tmp_path / "r.txt") == 0
        assert main(["extract", "--manifest", str(workspace["clips"] / "manifest.jsonl"),
                     "--theta", THETA, "--tau", TAU, "--out", str(tmp_path / "f.csv")]) == 0
    finally:
        os.umask(previous)
    for name in ("m.json", "r.txt", "f.csv"):
        assert (tmp_path / name).stat().st_mode & 0o7777 == 0o666 & ~0o027


def test_an_existing_output_keeps_its_mode_and_its_symlink(workspace, tmp_path):
    model, link = tmp_path / "m.json", tmp_path / "link.json"
    model.write_bytes(b"earlier bytes")
    model.chmod(0o600)
    link.symlink_to(model.name)
    assert _train_knn(workspace, link, tmp_path / "r.txt") == 0
    assert link.is_symlink() and os.readlink(link) == "m.json"
    assert model.read_bytes() == workspace["knn"].read_bytes()
    assert model.stat().st_mode & 0o7777 == 0o600


def test_an_output_path_naming_a_missing_directory_is_a_data_error(workspace, tmp_path):
    out = str(tmp_path / "newdir") + os.sep
    assert main(["eval", "--model", str(workspace["knn"]), "--features",
                 str(workspace["feats"]), "--out", out]) == 2
    assert list(tmp_path.iterdir()) == []


def test_an_output_that_is_no_regular_file_is_written_in_place(workspace, tmp_path):
    assert main(["eval", "--model", str(workspace["knn"]), "--features",
                 str(workspace["feats"]), "--out", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)
    assert not [name for name in os.listdir(os.path.dirname(os.devnull))
                if name.startswith(".mhi-")]


def test_tau_of_two_to_the_53_extracts_trains_and_loads(workspace, tmp_path):
    feats, model = tmp_path / "f.csv", tmp_path / "m.json"
    tau = str(2**53)
    assert main(["extract", "--manifest", str(workspace["clips"] / "manifest.jsonl"),
                 "--theta", THETA, "--tau", tau, "--out", str(feats)]) == 0
    assert main(["train", "--features", str(feats), "--classifier", "knn", "--tau", tau,
                 "--seed", "0", "--out", str(model)]) == 0
    assert TrainedModel.load(model).tau == 2**53
    assert main(["eval", "--model", str(model), "--features", str(feats)]) == 0


def test_feature_row_field_count_names_line(workspace, tmp_path, caplog):
    path = _feature_rows(workspace, tmp_path, lambda rows: [rows[0], rows[1] + ",0.5"])
    assert main(["eval", "--model", str(workspace["knn"]), "--features", path]) == 2
    assert f"{path}: line 3: row has 19 fields, expected 18" in caplog.text


def test_train_warns_about_unlabeled_samples(workspace, tmp_path, caplog):
    # Blank the labels of the first two rows.
    path = _feature_rows(workspace, tmp_path, lambda rows: [
        row[row.index(","):] if i < 2 else row for i, row in enumerate(rows)
    ])
    assert main(_train_argv(path, tmp_path)) == 0
    assert "ignoring 2 unlabeled sample(s)" in caplog.text
    report = (tmp_path / "m.report.txt").read_text()
    assert "samples: train=8 val=3 test=5" in report


def test_eval_ignores_unlabeled_samples(workspace, tmp_path, caplog):
    # Blank the label of the first row; the others are counted as without it.
    path = _feature_rows(workspace, tmp_path, lambda rows: [
        rows[0][rows[0].index(","):], *rows[1:]
    ])
    out, want = tmp_path / "c.csv", tmp_path / "want.csv"
    assert main(["eval", "--model", str(workspace["knn"]), "--features", path,
                 "--out", str(out)]) == 0
    assert "ignoring 1 unlabeled sample(s)" in caplog.text
    labeled = tmp_path / "labeled.csv"
    lines = workspace["feats"].read_text().splitlines()
    labeled.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
    assert main(["eval", "--model", str(workspace["knn"]), "--features", str(labeled),
                 "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()
    rows = list(csv.reader(io.StringIO(out.read_text(), newline="")))
    assert sum(int(cell) for row in rows[1:4] for cell in row[1:]) == 17


def test_eval_without_labeled_samples_names_file(workspace, tmp_path, caplog):
    path = _feature_rows(workspace, tmp_path, lambda rows: [
        row[row.index(","):] for row in rows
    ])
    out = tmp_path / "c.csv"
    assert main(["eval", "--model", str(workspace["knn"]), "--features", path,
                 "--out", str(out)]) == 2
    assert f"{path}: no labeled samples to evaluate" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("lr", ["0", "-0.05", "nan", "inf", "-inf"])
def test_bad_lr_is_usage_error(workspace, tmp_path, lr):
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as info:
        main(["train", "--features", str(workspace["feats"]), "--classifier", "mlp",
              "--epochs", "2", "--out", str(model), f"--lr={lr}"])
    assert info.value.code == 1
    assert not model.exists()


def test_eval_header_only_csv_names_file(workspace, tmp_path, caplog):
    header_only = tmp_path / "header.csv"
    header_only.write_text(FEATURE_HEADER + "\n")
    assert main(["eval", "--model", str(workspace["knn"]),
                 "--features", str(header_only)]) == 2
    assert str(header_only) in caplog.text
    assert "no samples" in caplog.text


@pytest.mark.parametrize("command", ["predict", "render"])
def test_frame_gap_names_first_missing_frame(workspace, tmp_path, caplog, command):
    frames = tmp_path / "frames"
    frames.mkdir()
    frame = np.zeros((16, 16), dtype=np.uint8)
    for i in (3, 4, 6, 8):
        write_pgm_file(frame_path(frames, i), frame)
    argv = {
        "predict": ["predict", "--model", str(workspace["knn"])],
        "render": ["render", "--out", str(tmp_path / "r")],
    }[command]
    assert main(argv + ["--frames", str(frames)]) == 2
    assert frame_path(frames, 5) in caplog.text
    assert "000007.pgm" not in caplog.text


def _p6_frames(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_pgm_file(frame_path(frames, i), np.zeros((8, 8), dtype=np.uint8))
    bad = frame_path(frames, 1)
    with open(bad, "r+b") as fh:
        fh.write(b"P6")
    return frames, bad


def _bad_predict_frame(workspace, tmp_path):
    frames, bad = _p6_frames(tmp_path)
    return ["predict", "--model", str(workspace["knn"]), "--frames", str(frames)], bad


def _bad_render_frame(workspace, tmp_path):
    frames, bad = _p6_frames(tmp_path)
    return ["render", "--frames", str(frames), "--out", str(tmp_path / "r")], bad


def _truncated_extract_frame(workspace, tmp_path):
    clip = tmp_path / "clip"
    shutil.copytree(workspace["clips"] / "slide_000", clip)
    bad = frame_path(clip, 4)
    with open(bad, "r+b") as fh:
        fh.truncate(100)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"dir": "clip", "label": "slide", "start": 0, "end": 11}\n')
    return ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")], bad


def _over_maxval_extract_frame(workspace, tmp_path):
    argv, bad = _truncated_extract_frame(workspace, tmp_path)
    frame = np.minimum(read_pgm_file(frame_path(workspace["clips"] / "slide_000", 4)), 15)
    frame[0, 0] = 16
    with open(bad, "wb") as fh:
        fh.write(b"P5\n%d %d\n15\n" % frame.shape[::-1] + frame.tobytes())
    return argv, bad


def _long_width_render_frame(workspace, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(2):
        with open(frame_path(frames, i), "wb") as fh:
            fh.write(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00")
    return ["render", "--frames", str(frames), "--out", str(tmp_path / "r")], frame_path(frames, 0)


def _feature_rows(workspace, tmp_path, rows):
    lines = workspace["feats"].read_text().splitlines()
    csv_path = tmp_path / "feats.csv"
    csv_path.write_text("\n".join([lines[0], *rows(lines[1:])]) + "\n")
    return str(csv_path)


def _unknown_eval_label(workspace, tmp_path):
    path = _feature_rows(workspace, tmp_path, lambda rows: ["zzz" + rows[0][5:], *rows[1:]])
    return ["eval", "--model", str(workspace["knn"]), "--features", path], path


def _train_argv(path, tmp_path):
    return ["train", "--features", path, "--classifier", "knn",
            "--out", str(tmp_path / "m.json")]


def _one_class_train(workspace, tmp_path):
    path = _feature_rows(workspace, tmp_path, lambda rows: rows[:2])
    return _train_argv(path, tmp_path), path


def _unsplittable_train(workspace, tmp_path):
    path = _feature_rows(workspace, tmp_path, lambda rows: [rows[0], rows[-1]])
    return _train_argv(path, tmp_path), path


def _mismatched_frames(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(6):
        size = 16 if i == 5 else 32
        write_pgm_file(frame_path(frames, i), np.zeros((size, size), dtype=np.uint8))
    return frames, frame_path(frames, 5)


def _mismatched_predict_frame(workspace, tmp_path):
    frames, bad = _mismatched_frames(tmp_path)
    return ["predict", "--model", str(workspace["knn"]), "--frames", str(frames)], bad


def _mismatched_render_frame(workspace, tmp_path):
    frames, bad = _mismatched_frames(tmp_path)
    return ["render", "--frames", str(frames), "--out", str(tmp_path / "r")], bad


def _non_utf8_csv(workspace, tmp_path):
    path = tmp_path / "feats.csv"
    path.write_bytes(workspace["feats"].read_bytes().replace(b"slide", b"sl\xffde", 1))
    return str(path)


def _non_utf8_eval_csv(workspace, tmp_path):
    path = _non_utf8_csv(workspace, tmp_path)
    return ["eval", "--model", str(workspace["knn"]), "--features", path], path


def _non_utf8_train_csv(workspace, tmp_path):
    path = _non_utf8_csv(workspace, tmp_path)
    return _train_argv(path, tmp_path), path


def _non_utf8_spec(workspace, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'[{"name": "sl\xffde", "program": "translate"}]')
    return ["synth", "--spec", str(path), "--out", str(tmp_path / "o")], path


def _k_above_train_size(workspace, tmp_path):
    path = str(workspace["feats"])
    return _train_argv(path, tmp_path) + ["--k", "50"], path


def _one_frame(tmp_path):
    frames = tmp_path / "single_frame_clip"
    frames.mkdir()
    write_pgm_file(frame_path(frames, 0), np.zeros((16, 16), dtype=np.uint8))
    return frames


def _one_frame_predict(workspace, tmp_path):
    frames = _one_frame(tmp_path)
    return ["predict", "--model", str(workspace["knn"]), "--frames", str(frames)], frames


def _one_frame_render(workspace, tmp_path):
    frames = _one_frame(tmp_path)
    return ["render", "--frames", str(frames), "--out", str(tmp_path / "r")], frames


def _one_frame_extract(workspace, tmp_path):
    _one_frame(tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"dir": "single_frame_clip", "start": 0, "end": 0}\n')
    return ["extract", "--manifest", str(manifest)], "single_frame_clip"


@pytest.mark.parametrize("case", [
    _bad_predict_frame, _bad_render_frame, _truncated_extract_frame,
    _over_maxval_extract_frame, _long_width_render_frame, _unknown_eval_label,
    _one_class_train, _unsplittable_train,
    _mismatched_predict_frame, _mismatched_render_frame, _non_utf8_eval_csv,
    _non_utf8_train_csv, _non_utf8_spec, _k_above_train_size, _one_frame_predict,
    _one_frame_render,
], ids=lambda case: case.__name__.strip("_"))
def test_data_error_names_file(workspace, tmp_path, caplog, case):
    argv, path = case(workspace, tmp_path)
    assert main(argv) == 2
    assert str(path) in caplog.text


@pytest.mark.parametrize("case", [_one_frame_extract, _one_frame_predict, _one_frame_render],
                         ids=lambda case: case.__name__.strip("_"))
def test_one_frame_error_names_directory_once(workspace, tmp_path, caplog, case):
    argv, directory = case(workspace, tmp_path)
    assert main(argv) == 2
    assert caplog.text.count(str(directory)) == 1
    assert "need >= 2 frames" in caplog.text


def _deep_json(tmp_path, name):
    path = tmp_path / name
    path.write_text("[" * 200_000 + "\n")
    return path


def _deep_manifest(workspace, tmp_path):
    path = _deep_json(tmp_path, "deep.jsonl")
    return ["extract", "--manifest", str(path), "--out", str(tmp_path / "f.csv")], "line 1"


def _deep_model(workspace, tmp_path):
    path = _deep_json(tmp_path, "deep.json")
    return ["eval", "--model", str(path), "--features", str(workspace["feats"])], path


def _deep_spec(workspace, tmp_path):
    path = _deep_json(tmp_path, "deep.json")
    return ["synth", "--spec", str(path), "--out", str(tmp_path / "o")], path


@pytest.mark.parametrize("case", [_deep_manifest, _deep_model, _deep_spec],
                         ids=lambda case: case.__name__.strip("_"))
def test_deeply_nested_json_exit_two(workspace, tmp_path, caplog, case):
    argv, named = case(workspace, tmp_path)
    assert main(argv) == 2
    assert str(named) in caplog.text


@pytest.mark.parametrize("line, message", [
    (b'{"dir": "clip", "label": "slide", "start": 0, "end": }', "line 1: invalid JSON: "),
    (b'{"dir": "clip", "label": "slide", "start": 0}', "line 1: missing key 'end'"),
    (b'{"dir": "clip\xff"}', "'utf-8' codec can't decode byte 0xff"),
], ids=["bad-json", "missing-key", "not-utf8"])
@pytest.mark.parametrize("command", ["extract", "train"])
def test_manifest_errors_name_the_manifest(tmp_path, caplog, command, line, message):
    manifest = tmp_path / "bad.jsonl"
    manifest.write_bytes(line + b"\n")
    argv = {
        "extract": ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")],
        "train": ["train", "--manifest", str(manifest), "--classifier", "knn",
                  "--out", str(tmp_path / "m.json")],
    }[command]
    assert main(argv) == 2
    assert f"{manifest}: {message}" in caplog.text


def _video_with_still_stretch(workspace, directory):
    """slide_000, then its last frame held for 20 frames, then sway_000: 44 frames."""
    directory.mkdir()
    slide, sway = workspace["clips"] / "slide_000", workspace["clips"] / "sway_000"
    sources = ([frame_path(slide, i) for i in range(12)] + [frame_path(slide, 11)] * 20
               + [frame_path(sway, i) for i in range(12)])
    for index, source in enumerate(sources):
        shutil.copy(source, frame_path(directory, index))
    return load_sequence(SequenceRecord(str(directory), 0, len(sources) - 1)).frames


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("per_block", [None, 5])
@pytest.mark.parametrize("stride", [1, 7, None])
def test_predict_still_stretch_matches_per_window_reference(
    workspace, tmp_path, monkeypatch, stride, per_block,
):
    # Every warning is an error here, so a zero-mass division in the block
    # moments would fail the run. Blocks of 5 windows put block seams inside
    # the still stretch as well as at its edges.
    frames = _video_with_still_stretch(workspace, tmp_path / "video")
    if per_block is not None:
        monkeypatch.setattr(temporal, "_BLOCK_VALUES", per_block * frames[0].size)
    out = tmp_path / "pred.json"
    argv = ["predict", "--model", str(workspace["mlp"]), "--frames", str(tmp_path / "video"),
            "--out", str(out)]
    assert main(argv + ([] if stride is None else ["--stride", str(stride)])) == 0
    entries = json.loads(out.read_text())

    size = int(TAU)  # the default window: the model's tau
    starts = list(range(0, len(frames) - size + 1, stride or size // 2))
    if starts[-1] != len(frames) - size:
        starts.append(len(frames) - size)
    model = TrainedModel.load(workspace["mlp"])
    assert entries == _reference_entries(model, frames, size, starts)
    # Windows starting at 11..20 lie inside the still stretch.
    still = [e for e in entries if 11 <= e["start_frame"] <= 20]
    assert still
    assert all(e["label"] == "none" and e["score"] == 0.0 for e in still)
    assert all(e["diagnostic"] == {"component_count": 0, "warning": False} for e in still)
    assert {e["label"] for e in entries} - {"none"}


def _clip_video(workspace, directory, n):
    """The workspace clips' frames one after another, as frames 0..n-1 of a
    48x48 video in ``directory``; returns their stack."""
    directory.mkdir()
    clips = sorted(p for p in workspace["clips"].iterdir() if p.is_dir())
    for i in range(n):
        clip = clips[i // 12 % len(clips)]
        shutil.copyfile(frame_path(clip, i % 12), frame_path(directory, i))
    return load_sequence(SequenceRecord(str(directory), 0, n - 1)).frames


# Mask blocks hold 32 frames and share one, so they span frames 0-31, 31-62
# and 62-93: these lengths end a video one frame before, at and after the
# end of the first and the second block.
@pytest.mark.parametrize("n", [2, 31, 32, 33, 62, 63, 64, 65])
@pytest.mark.parametrize("flags, window, stride", [
    ([], int(TAU), None),                           # the defaults: tau, window/2
    (["--window", "100"], 100, None),               # window longer than the video
    (["--window", "8", "--stride", "100"], 8, 100),  # stride longer than the video
], ids=["default", "long-window", "long-stride"])
def test_predict_matches_per_window_reference_at_mask_block_edges(
    workspace, tmp_path, n, flags, window, stride,
):
    frames = _clip_video(workspace, tmp_path / "video", n)
    out = tmp_path / "pred.json"
    assert main(["predict", "--model", str(workspace["mlp"]), "--frames",
                 str(tmp_path / "video"), "--out", str(out), *flags]) == 0
    entries = json.loads(out.read_text())

    size = max(min(window, n), 2)
    starts = list(range(0, n - size + 1, stride or max(1, size // 2)))
    if starts[-1] != n - size:
        starts.append(n - size)
    assert entries[-1]["end_frame"] == n - 1
    model = TrainedModel.load(workspace["mlp"])
    assert entries == _reference_entries(model, frames, size, starts)


def _peak_traced_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_is_bounded_by_the_frame_size(workspace, tmp_path):
    # 2,000 frames of 48x48 take 4.6 MB as one stack. Frames are read as the
    # mask blocks need them, so the peak stays near that of the first 250
    # frames; what still grows is the output, one entry per window.
    clips = sorted(p for p in workspace["clips"].iterdir() if p.is_dir())
    sources = [frame_path(clip, i) for clip in clips for i in range(12)]
    peaks = {}
    for n in (250, 2000):
        video = tmp_path / f"video{n}"
        video.mkdir()
        for i in range(n):
            shutil.copyfile(sources[i % len(sources)], frame_path(video, i))
        peaks[n] = _peak_traced_bytes(["predict", "--model", str(workspace["mlp"]),
                                       "--frames", str(video),
                                       "--out", str(tmp_path / f"pred{n}.json")])
    assert peaks[2000] <= 1.5 * peaks[250]
    assert peaks[2000] < 2000 * 48 * 48


def _remove(path):
    os.remove(path)


def _resize(path):
    write_pgm_file(path, np.zeros((24, 24), dtype=np.uint8))


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(100)


def _overwrite(path):
    # What an output written over a frame leaves: text with no PGM magic.
    with open(path, "w") as fh:
        fh.write("[]\n")


@pytest.mark.parametrize("defect", [_remove, _resize, _truncate, _overwrite],
                         ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("command", ["predict", "render", "extract"])
def test_bad_frame_past_the_first_mask_block_names_it_and_writes_nothing(
    workspace, tmp_path, caplog, command, defect,
):
    # Frame 50 lies in the second mask block, so the first block's windows
    # are done before it is read.
    video = tmp_path / "video"
    _clip_video(workspace, video, 70)
    defect(frame_path(video, 50))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"dir": "video", "label": "slide", "start": 0, "end": 69}\n')
    argv = {
        "predict": ["predict", "--model", str(workspace["mlp"]), "--frames", str(video)],
        "render": ["render", "--frames", str(video)],
        "extract": ["extract", "--manifest", str(manifest)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert frame_path(video, 50) in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "render"])
def test_stray_high_frame_index_is_a_gap_found_before_any_work(
    workspace, tmp_path, caplog, monkeypatch, command,
):
    # Frames 0-40 and 1,000,000: the gap at frame 41 is reported before the
    # windows are laid out from the record's length or a frame is read.
    video = tmp_path / "video"
    _clip_video(workspace, video, 41)
    write_pgm_file(frame_path(video, 1_000_000), np.zeros((48, 48), dtype=np.uint8))
    reads = []
    monkeypatch.setattr(imgio, "read_pgm_file", reads.append)
    argv = {
        "predict": ["predict", "--model", str(workspace["mlp"]), "--frames", str(video)],
        "render": ["render", "--frames", str(video)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert frame_path(video, 41) in caplog.text
    assert not out.exists()
    assert reads == []


def test_predict_covers_frames_past_six_digits(workspace, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(999996, 1000004):
        write_pgm_file(frame_path(frames, i), np.zeros((16, 16), dtype=np.uint8))
    out = tmp_path / "p.json"
    assert main(["predict", "--model", str(workspace["knn"]), "--frames", str(frames),
                 "--window", "3", "--stride", "1", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())
    assert [e["start_frame"] for e in entries] == list(range(999996, 1000002))
    assert entries[-1]["end_frame"] == 1000003


def test_data_errors_exit_two(workspace, tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["extract", "--manifest", missing, "--out",
                 str(tmp_path / "x.csv")]) == 2

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["predict", "--model", str(workspace["knn"]),
                 "--frames", str(empty)]) == 2

    not_csv = tmp_path / "bad.csv"
    not_csv.write_text("definitely,not,features\n")
    assert main(["train", "--features", str(not_csv), "--classifier", "knn",
                 "--out", str(tmp_path / "m.json")]) == 2

    bad_pgm = tmp_path / "frames"
    bad_pgm.mkdir()
    (bad_pgm / "000000.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    (bad_pgm / "000001.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
    assert main(["render", "--frames", str(bad_pgm), "--theta", THETA,
                 "--tau", TAU, "--out", str(tmp_path / "r")]) == 2


def test_numeric_failure_exits_three(workspace, tmp_path):
    assert main([
        "train", "--features", str(workspace["feats"]), "--classifier", "mlp",
        "--lr", "1e30", "--epochs", "5",
        "--out", str(tmp_path / "m.json"),
    ]) == 3


def test_synth_bad_spec_exit_two(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('[{"name": "x", "program": "warp"}]')
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("field, value", [
    ("frames", 2.5), ("size", 64.0), ("count", 2.0), ("seed", -1), ("name", 5),
    ("name", "a/../../x"), ("name", "a\0b"), ("period", 2.5), ("dx", 1.5),
])
def test_synth_bad_field_names_file_and_field(tmp_path, caplog, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"name": "x", "program": "translate", field: value}]))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o" / "p")]) == 2
    assert f"{spec}: spec 0: {field} " in caplog.text
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


@pytest.mark.parametrize("field, value", [("frames", 10**30), ("size", 2**16)])
def test_synth_over_pixel_budget_names_spec_and_writes_nothing(tmp_path, caplog, field, value):
    spec = tmp_path / "spec.json"
    small = {"name": "a", "program": "translate", "frames": 3, "size": 16, "rect": 4}
    spec.write_text(json.dumps([small, {"name": "b", "program": "translate", field: value}]))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert f"{spec}: spec 1: frames * size**2 must be <= 2**31 pixels per clip" in caplog.text
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


def test_synth_repeated_name_names_both_specs_and_writes_nothing(tmp_path, caplog):
    spec = tmp_path / "spec.json"
    clip = {"program": "translate", "size": 16, "rect": 4}
    spec.write_text(json.dumps([dict(clip, name="a", frames=4), dict(clip, name="a", frames=3)]))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert f"{spec}: spec 1: name 'a' repeats spec 0" in caplog.text
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


def test_synth_over_total_pixel_budget_names_total_and_writes_nothing(
    tmp_path, caplog, monkeypatch
):
    # Each clip is at the per-clip budget; five of them pass the total. Should
    # the check fail, the stand-in fails the test before 10 GiB are written.
    def generate(specs, out_dir):
        raise AssertionError("clips over the total budget reached generate")

    monkeypatch.setattr(cli, "generate", generate)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"name": "a", "program": "translate", "frames": 2**11,
                                 "size": 2**10, "count": 5}]))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert f"{spec}: the specs total {5 * 2**31} pixels" in caplog.text
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


def _drop_frame_three(clip):
    os.remove(frame_path(clip, 3))
    return f"sequence broken: missing frame 3 ({frame_path(clip, 3)})"


def _keep_one_frame(clip):
    for i in range(1, 5):
        os.remove(frame_path(clip, i))
    return "sequence broken: need >= 2 frames, got 1"


@pytest.mark.parametrize("break_clip", [_drop_frame_three, _keep_one_frame],
                         ids=lambda f: f.__name__.strip("_"))
def test_extract_log_keeps_manifest_order_when_a_later_sequence_fails(tmp_path, break_clip):
    # Five same-shape clips share one block; the fourth fails after a
    # motion-free clip before it and one between.
    rng = np.random.default_rng(4)
    names = ["still_a", "moving", "still_b", "broken", "after"]
    for name in names:
        (tmp_path / name).mkdir()
        for i in range(5):
            frame = rng.integers(0, 256, (12, 12), dtype=np.uint8)
            write_pgm_file(frame_path(tmp_path / name, i), frame if "still" not in name
                           else np.full((12, 12), 40, dtype=np.uint8))
    end = 0 if break_clip is _keep_one_frame else 4
    message = break_clip(tmp_path / "broken")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"dir": name, "start": 0, "end": end if name == "broken" else 4}) + "\n"
        for name in names
    ))
    out = tmp_path / "f.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(temporal.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "mhi.cli", "extract", "--manifest", str(manifest),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert lines[:2] == ["WARNING sequence still_a: no motion, skipped",
                         "WARNING sequence still_b: no motion, skipped"]
    assert lines[2:] == [f"ERROR {manifest}: {message}"]
    assert not out.exists()


def test_extract_skips_motionless_sequence(tmp_path):
    clip = tmp_path / "still"
    clip.mkdir()
    frame = np.full((16, 16), 33, dtype=np.uint8)
    for i in range(5):
        write_pgm_file(frame_path(clip, i), frame)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"dir": "still", "label": "rest", "start": 0, "end": 4}\n')
    out = tmp_path / "f.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [FEATURE_HEADER]
