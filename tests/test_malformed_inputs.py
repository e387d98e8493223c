"""Malformed model JSON through ``mhi eval`` and ``mhi predict``, a
malformed feature CSV through ``mhi train`` and ``mhi eval``, a malformed
manifest through ``mhi extract`` and ``mhi train --manifest``, and a
malformed synth spec through ``mhi synth``: every mutation exits with a
documented code, an exit-2 message names the mutated file, an output written
on success reads back, and a failed command leaves the existing outputs as
they were."""

import csv
import io
import json
import logging
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhi.classify import TrainedModel
from mhi.cli import main, read_features_csv
from mhi.imgio import load_manifest_file, read_frames
from mhi.moments import FEATURE_DIM
from mhi.synth import specs_to_json, three_class_specs

THETA, TAU = "10", "8"
SENTINEL = b"an earlier output\n"

#: Values a hand-edited or corrupted model can hold where a number belongs.
TOKENS = [b"1e999", b"null", b"[", b"123456789012345678901234567890"]

#: A JSON scalar: a number, a literal or a string without escapes.
SCALAR = re.compile(rb'-?\d[\d.eE+-]*|true|false|null|"[^"\\]*"')


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Twelve 8-frame 24x24 clips, their feature CSV, and a KNN and a
    two-layer MLP model trained on it."""
    root = tmp_path_factory.mktemp("malformed_models")
    spec = root / "spec.json"
    spec.write_text(specs_to_json(three_class_specs(frames=8, size=24, rect=6, count=4)))
    clips = root / "clips"
    assert main(["synth", "--spec", str(spec), "--out", str(clips)]) == 0
    feats = root / "feats.csv"
    assert main(["extract", "--manifest", str(clips / "manifest.jsonl"),
                 "--theta", THETA, "--tau", TAU, "--out", str(feats)]) == 0
    models = {}
    for kind, flags in (("knn", ["--k", "3"]),
                        ("mlp", ["--hidden", "5,3", "--epochs", "5"])):
        path = root / f"{kind}.json"
        assert main(["train", "--features", str(feats), "--classifier", kind,
                     "--theta", THETA, "--tau", TAU, *flags, "--out", str(path)]) == 0
        models[kind] = path.read_bytes()
    return {"root": root, "feats": feats, "frames": clips / "slide_000", "models": models,
            "manifest": clips / "manifest.jsonl", "spec": spec}


def _mutate(data: bytes, draw) -> bytes:
    kind = draw(st.sampled_from(["flip", "delete", "swap", "truncate", "insert", "replace"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    if kind == "swap":
        other = draw(st.integers(0, len(data) - 1))
        swapped = bytearray(data)
        swapped[at], swapped[other] = data[other], data[at]
        return bytes(swapped)
    if kind == "truncate":
        return data[:at]
    token = draw(st.sampled_from(TOKENS))
    if kind == "insert":
        return data[:at] + token + data[at:]
    # Replace one scalar, so the document stays JSON more often than not and
    # the field checks behind the parser see the token.
    scalars = list(SCALAR.finditer(data))
    match = scalars[draw(st.integers(0, len(scalars) - 1))]
    return data[: match.start()] + token + data[match.end() :]


def _run(argv):
    """Exit code of ``mhi`` on ``argv``, and its ERROR log lines."""
    errors = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = lambda record: errors.append(record.getMessage())
    log = logging.getLogger("mhi")
    log.addHandler(handler)
    try:
        code = main(argv)
    finally:
        log.removeHandler(handler)
    return code, errors


def _confusion_reads_back(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    labels = rows[0][1:]
    assert rows[0][0] == "true\\predicted"
    assert [row[0] for row in rows[1:-1]] == labels
    assert all(int(count) >= 0 for row in rows[1:-1] for count in row[1:])
    assert rows[-1][0] == "accuracy" and 0.0 <= float(rows[-1][1]) <= 1.0


def _timeline_reads_back(text: str) -> None:
    entries = json.loads(text)
    assert entries and all(
        set(entry) == {"start_frame", "end_frame", "label", "score", "diagnostic"}
        and np.isfinite(entry["score"]) for entry in entries
    )


def test_unmutated_models_evaluate_and_predict(workspace):
    root = workspace["root"]
    for kind in workspace["models"]:
        for argv in (["eval", "--features", str(workspace["feats"])],
                     ["predict", "--frames", str(workspace["frames"]), "--window", "4"]):
            assert _run([*argv, "--model", str(root / f"{kind}.json"),
                         "--out", str(root / "out")]) == (0, [])


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["knn", "mlp"]), data=st.data())
def test_a_malformed_model_exits_with_a_documented_code(workspace, kind, data):
    root, original = workspace["root"], workspace["models"][kind]
    model = root / "mutated.json"
    model.write_bytes(_mutate(original, data.draw))
    commands = {
        "eval": (["eval", "--features", str(workspace["feats"])], _confusion_reads_back),
        "predict": (["predict", "--frames", str(workspace["frames"]), "--window", "4",
                     "--stride", "2"], _timeline_reads_back),
    }
    for name, (argv, reads_back) in commands.items():
        out = root / f"{name}.out"
        out.write_bytes(SENTINEL)
        code, errors = _run([*argv, "--model", str(model), "--out", str(out)])
        assert code in (0, 1, 2, 3), name
        if code == 0:
            reads_back(out.read_text(encoding="utf-8"))
        else:
            assert out.read_bytes() == SENTINEL, name
        if code == 2:
            assert len(errors) == 1 and str(model) in errors[0], (name, errors)


def test_eval_names_the_model_and_the_csv_when_they_disagree_on_a_label(workspace):
    """An MLP model's ``labels`` are checked for count, order and uniqueness
    only, so an edited label that keeps the order reaches ``evaluate``; the
    message names both files."""
    root = workspace["root"]
    doc = json.loads(workspace["models"]["mlp"])
    doc["labels"][0] = "edited"
    model = root / "edited.json"
    model.write_text(json.dumps(doc))
    code, errors = _run(["eval", "--features", str(workspace["feats"]),
                         "--model", str(model), "--out", str(root / "edited.out")])
    assert code == 2 and len(errors) == 1
    assert str(workspace["feats"]) in errors[0] and str(model) in errors[0]
    assert "not in ['edited'," in errors[0]


def test_an_mlp_model_with_its_labels_out_of_order_is_refused(workspace):
    """The softmax columns follow the sorted labels that ``train`` writes, so
    a model with two labels swapped would name every window wrongly."""
    root = workspace["root"]
    doc = json.loads(workspace["models"]["mlp"])
    doc["labels"][:2] = doc["labels"][1::-1]
    model = root / "swapped.json"
    model.write_text(json.dumps(doc))
    for argv in (["eval", "--features", str(workspace["feats"])],
                 ["predict", "--frames", str(workspace["frames"]), "--window", "4"]):
        out = root / "swapped.out"
        out.write_bytes(SENTINEL)
        code, errors = _run([*argv, "--model", str(model), "--out", str(out)])
        assert code == 2 and len(errors) == 1, (argv[0], errors)
        assert str(model) in errors[0] and "not in sorted order" in errors[0]
        assert out.read_bytes() == SENTINEL


# --- malformed feature CSVs ---

def _model_reads_back(path) -> None:
    model = TrainedModel.load(path, FEATURE_DIM)
    assert model.label_set == sorted(set(model.label_set))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_malformed_feature_csv_exits_with_a_documented_code(workspace, data):
    root = workspace["root"]
    feats = root / "mutated.csv"
    feats.write_bytes(_mutate(workspace["feats"].read_bytes(), data.draw))
    model_out, report_out, eval_out = (root / name for name in ("m.json", "m.txt", "e.csv"))
    commands = {
        "train knn": ["train", "--classifier", "knn", "--k", "3"],
        "train mlp": ["train", "--classifier", "mlp", "--hidden", "5,3", "--epochs", "5"],
    }
    for name, argv in commands.items():
        model_out.write_bytes(SENTINEL)
        report_out.write_bytes(SENTINEL)
        code, errors = _run([*argv, "--features", str(feats), "--theta", THETA, "--tau", TAU,
                             "--out", str(model_out), "--report", str(report_out)])
        assert code in (0, 1, 2, 3), name
        if code == 0:
            _model_reads_back(model_out)
            assert report_out.read_text(encoding="utf-8").startswith("classifier: ")
        else:
            assert model_out.read_bytes() == report_out.read_bytes() == SENTINEL, name
        if code == 2:
            assert len(errors) == 1 and str(feats) in errors[0], (name, errors)
    for kind in workspace["models"]:
        eval_out.write_bytes(SENTINEL)
        code, errors = _run(["eval", "--model", str(root / f"{kind}.json"),
                             "--features", str(feats), "--out", str(eval_out)])
        assert code in (0, 1, 2, 3), kind
        if code == 0:
            _confusion_reads_back(eval_out.read_text(encoding="utf-8"))
        else:
            assert eval_out.read_bytes() == SENTINEL, kind
        if code == 2:
            assert len(errors) == 1 and str(feats) in errors[0], (kind, errors)


# --- malformed manifests and synth specs ---

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_malformed_manifest_exits_with_a_documented_code(workspace, data):
    root, original = workspace["root"], workspace["manifest"]
    # Beside the original, so that its relative directories still resolve.
    manifest = original.parent / "mutated.jsonl"
    manifest.write_bytes(_mutate(original.read_bytes(), data.draw))
    feats_out, model_out, report_out = (root / name for name in ("x.csv", "x.json", "x.txt"))
    pipeline = ["--manifest", str(manifest), "--theta", THETA, "--tau", TAU]
    commands = {
        "extract": (["extract", *pipeline, "--out", str(feats_out)], [feats_out],
                    lambda: read_features_csv(str(feats_out))),
        "train": (["train", *pipeline, "--classifier", "knn", "--k", "3",
                   "--out", str(model_out), "--report", str(report_out)],
                  [model_out, report_out], lambda: _model_reads_back(model_out)),
    }
    for name, (argv, outputs, reads_back) in commands.items():
        for out in outputs:
            out.write_bytes(SENTINEL)
        code, errors = _run(argv)
        assert code in (0, 1, 2, 3), name
        if code == 0:
            reads_back()
        else:
            assert all(out.read_bytes() == SENTINEL for out in outputs), name
        if code == 2:
            assert len(errors) == 1 and str(manifest) in errors[0], (name, errors)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_malformed_synth_spec_exits_with_a_documented_code(workspace, data):
    root = workspace["root"]
    spec = root / "mutated_spec.json"
    spec.write_bytes(_mutate(workspace["spec"].read_bytes(), data.draw))
    out = root / "synth_out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    (out / "manifest.jsonl").write_bytes(SENTINEL)
    code, errors = _run(["synth", "--spec", str(spec), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        records = load_manifest_file(out / "manifest.jsonl")
        assert records
        for record in records:
            frames = list(read_frames(record, out))
            assert len(frames) == record.end - record.start + 1
    else:
        assert [p.name for p in out.iterdir()] == ["manifest.jsonl"]
        assert (out / "manifest.jsonl").read_bytes() == SENTINEL
    if code == 2:
        assert len(errors) == 1 and str(spec) in errors[0], errors
