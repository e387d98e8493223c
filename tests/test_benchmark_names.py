"""Every name the benchmark under ``perfbench/`` looks up in ``mhi`` exists.

The traced benchmark wraps each ``(module, function)`` of its tracer's
``SPANS`` and skips a name the package lacks, so a renamed or removed
function would quietly drop that layer's metrics from the result line. Its
workloads and probe import names from ``mhi`` too. These tests resolve each
name as the benchmark does, without running it.

The benchmark's self-test replaces names of ``mhi.cli`` to make a run's
output differ, and expects the benchmark to count that run as failed. The
last tests check, on a tiny workspace, that each replaced name is still the
one the command's output passes through.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

import mhi.cli  # imports every module the spans name
from mhi import serialize
from mhi.synth import specs_to_json, three_class_specs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_traced_span_resolves(tracer):
    missing = []
    for module_name, func, _ in tracer.SPANS:
        # As ``Tracer._patch`` looks the name up: through the module's
        # attributes, then in the owner's own namespace.
        owner = sys.modules.get(module_name)
        *path, attr = func.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{func}")
    assert missing == []


def mhi_imports():
    """``(file, module, name)`` of every ``from mhi... import name`` and
    ``(file, module, None)`` of every ``import mhi...`` under ``perfbench/``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mhi":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "mhi")
    return found


def test_perfbench_imports_from_mhi_resolve():
    found = mhi_imports()
    assert {file for file, _, _ in found} >= {"workloads.py", "probe.py"}
    # ``import mhi.x`` fails here if the module is gone; a name must be an
    # attribute of its module.
    missing = [f"{file}: {module}.{name}" for file, module, name in found
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert missing == []


def selftest_injections() -> list[str]:
    """The names of ``mhi.cli`` in the ``injections`` table of
    ``perfbench/selftest.py``, each the first item of a table value."""
    path = PERFBENCH / "selftest.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["injections"]):
            return sorted(ast.literal_eval(value.elts[0]) for value in node.value.values)
    raise AssertionError(f"{path}: no injections table")


def _bump_first_score(entries):
    entries[0]["score"] += 1.0
    return entries


# Each name the self-test replaces: the command whose output passes through
# it, the alteration, and what that alteration makes of the written bytes.
INJECTED = {
    "features_to_csv": (
        "extract",
        lambda text: text.replace("slide", "slidx", 1),
        lambda data: data.replace(b"slide", b"slidx", 1),
    ),
    "predict_windows": (
        "predict",
        _bump_first_score,
        lambda data: (serialize.dumps(_bump_first_score(json.loads(data))) + "\n").encode(),
    ),
}


def test_every_selftest_injection_is_covered():
    assert selftest_injections() == sorted(INJECTED)


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    """Twelve 24x24 clips of three classes, their features and a KNN model."""
    root = tmp_path_factory.mktemp("injections")
    spec = root / "spec.json"
    spec.write_text(specs_to_json(three_class_specs(frames=8, size=24, rect=5, count=4)))
    clips, feats, model = root / "clips", root / "feats.csv", root / "knn.json"
    assert mhi.cli.main(["synth", "--spec", str(spec), "--out", str(clips)]) == 0
    assert mhi.cli.main(["extract", "--manifest", str(clips / "manifest.jsonl"),
                         "--tau", "8", "--out", str(feats)]) == 0
    assert mhi.cli.main(["train", "--features", str(feats), "--classifier", "knn",
                         "--tau", "8", "--k", "1", "--out", str(model)]) == 0
    return {
        "extract": ["extract", "--manifest", str(clips / "manifest.jsonl"), "--tau", "8"],
        "predict": ["predict", "--model", str(model), "--frames", str(clips / "slide_000")],
    }


@pytest.mark.parametrize("name", sorted(INJECTED))
def test_selftest_injection_alters_the_written_output(tiny_workspace, monkeypatch, tmp_path,
                                                      name):
    command, alter, expected = INJECTED[name]
    out = tmp_path / "out"
    argv = [*tiny_workspace[command], "--out", str(out)]
    assert mhi.cli.main(argv) == 0
    plain = out.read_bytes()
    original = getattr(mhi.cli, name)
    monkeypatch.setattr(mhi.cli, name, lambda *args, **kwargs: alter(original(*args, **kwargs)))
    assert mhi.cli.main(argv) == 0
    assert out.read_bytes() == expected(plain) != plain
