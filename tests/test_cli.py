"""End-to-end CLI behavior: commands, exit codes, file formats, determinism."""

import csv
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhi import temporal
from mhi.classify import TrainedModel
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
], ids=["no-theta", "no-k", "no-std", "knn-width", "knn-mean-width", "mlp-mean-width",
        "mlp-weight-shape", "mlp-bias-shape", "mlp-missing-layer", "mlp-label-count",
        "nan-theta", "zero-tau", "knn-labels", "mlp-duplicate-labels",
        "nan-std", "zero-std", "negative-std", "inf-mean", "inf-weight",
        "string-vector", "bool-vector", "bool-bias", "float-tau", "bool-tau",
        "fractional-k", "float-k", "zero-k", "float-size", "bool-size",
        "string-theta", "null-theta", "huge-int-theta", "huge-int-mean",
        "string-labels", "int-labels", "empty-label", "int-knn-label", "int-sizes"])
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
    _unknown_eval_label, _one_class_train, _unsplittable_train,
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
