"""Every name the benchmark under ``perfbench/`` looks up in ``mhi`` exists.

The traced benchmark wraps each ``(module, function)`` of its tracer's
``SPANS`` and skips a name the package lacks, so a renamed or removed
function would quietly drop that layer's metrics from the result line. Its
workloads and probe import names from ``mhi`` too. These tests resolve each
name as the benchmark does, without running it.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import mhi.cli  # noqa: F401  (imports every module the spans name)

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
