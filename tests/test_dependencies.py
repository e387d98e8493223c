"""The package runs on numpy alone."""

import os
import subprocess
import sys
import textwrap

_PIPELINE = textwrap.dedent("""
    import sys
    from mhi.cli import main
    from mhi.synth import specs_to_json, three_class_specs

    with open("spec.json", "w") as fh:
        fh.write(specs_to_json(three_class_specs(frames=12, size=48, rect=10, count=6)))
    for argv in (
        ["synth", "--spec", "spec.json", "--out", "clips"],
        ["extract", "--manifest", "clips/manifest.jsonl", "--theta", "10", "--tau", "12",
         "--out", "feats.csv"],
        ["train", "--features", "feats.csv", "--classifier", "knn", "--theta", "10",
         "--tau", "12", "--out", "model.json"],
        ["predict", "--model", "model.json", "--frames", "clips/slide_000", "--window", "6",
         "--out", "predict.json"],
    ):
        assert main(argv) == 0, argv
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
""")


def test_pipeline_imports_no_scipy(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", _PIPELINE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
