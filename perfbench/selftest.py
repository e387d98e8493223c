"""Self-test of the benchmark at a tiny input scale; takes about a minute.

Run from the repository root: ``python3 perfbench/selftest.py``.

It runs every workload traced and untraced and checks that each metric
``BENCHMARK.json`` names is printed with its unit, that an output injected to
differ between passes raises the failed count, and that the benchmark refuses
to run without the program's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

run._import_program()
import mhi.cli  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(frames=12, size=32, rect=6, count=4, segments=3,
                       video_size=48, video_rect=10, tau=10)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seconds", "0.2", "--trace", str(trace)],
                        scale=TINY)
    check(code == 0, f"{workload}: exit code {code}")
    return json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def altered_after_first_call(name: str, alter):
    """Make ``mhi.cli.<name>`` return an altered result from its second call on."""
    original = getattr(mhi.cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append(None)
        return alter(value) if len(calls) > 1 else value

    setattr(mhi.cli, name, wrapper)
    try:
        yield
    finally:
        setattr(mhi.cli, name, original)


def _bump_first_score(entries):
    entries[0]["score"] += 1.0
    return entries


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(expected[1] == run.per_layer_units(), "per_layer in BENCHMARK.json is stale")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workloads in BENCHMARK.json are stale")

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = result(workload, trace)
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            check(printed == expected[trace], f"{workload} trace {trace}: metrics {printed}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} trace {trace}: {res['failed']} of {res['attempted']} failed")

    injections = {
        "extract": ("features_to_csv", lambda text: text.replace("slide", "slidx", 1)),
        "predict_dense": ("predict_windows", _bump_first_score),
    }
    for workload, (name, alter) in injections.items():
        with altered_after_first_call(name, alter):
            res = result(workload, 0)
        check(not res["correct"] and res["failed"] > 0,
              f"{workload}: injected mismatch not counted ({res['failed']} failed)")

    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "extract",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "benchmark ran without the program's source")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
