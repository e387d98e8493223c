"""The mhi benchmark: seeded workloads run in-process through ``mhi.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload {extract,predict_dense,train}
                             [--seed N] [--seconds S] [--trace 0|1]

Set-up renders every input from the seed under ``.bench_work/`` (removed on
exit) and is not timed as work. The run then makes one untimed warm-up pass,
whose outputs every later pass must reproduce byte for byte, and times passes
of the workload's commands until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics: the median pass wall time, input
frames per second, peak RSS of a fresh process that runs the workload once,
and set-up time, the median over fresh processes started between passes of
the time from interpreter start to ``mhi.cli`` imported and model loaded.
Pass and probe times are scaled to reference machine speed by a fixed kernel
timed around each of them (see ``reference.py``).
``--trace 1`` prints the per-layer metrics: traced passes alternate with
untraced ones, spans wrap the package's public functions (see ``tracer.py``),
and import times come from a fresh ``python -X importtime`` process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting with
``info``, records the machine, the inputs and the secondary figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"

SETUP_PROBES = 9
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Modules whose cumulative import time is reported; one not imported reads 0.
IMPORTS = ["mhi", "mhi.cli", "mhi.classify", "mhi.diagnostics", "mhi.imgio", "mhi.imgproc",
           "mhi.moments", "mhi.serialize", "mhi.synth", "mhi.temporal", "numpy"]

COUNTS = ["extract.skipped", "predict.windows", "predict.blob_warnings"]


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``mhi`` from it."""
    if not (SRC / "mhi" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mhi

    if Path(mhi.__file__).resolve().parent != SRC / "mhi":
        raise SystemExit(f"perfbench: imported mhi from {mhi.__file__}, not {SRC}")


def _short(module: str) -> str:
    return module[4:] if module.startswith("mhi.") else module


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from tracer import DERIVED, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["cli.self_ms"] = "ms"
    for name, (unit, _, _) in DERIVED.items():
        units[name] = unit
    for name in COUNTS:
        units[name] = "count"
    for module in IMPORTS:
        units[f"{_short(module)}.import_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


def _probe(spec: dict, importtime: bool = False) -> tuple[float, str, str]:
    """Run probe.py in a fresh interpreter; return (seconds to ready, stdout, stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(PROBE), str(SRC), json.dumps(spec)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if importtime else subprocess.DEVNULL)
    try:
        # The import-time report fills stderr before "ready"; read it all at once.
        first = "" if importtime else proc.stdout.readline()
        ready = perf_counter() - start
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or (not importtime and first.strip() != "ready"):
        raise RuntimeError(f"probe failed with exit code {proc.returncode}")
    return ready, out, err


def _import_ms(report: str) -> dict[str, float]:
    cumulative = {}
    for line in report.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e3
    return {f"{_short(m)}.import_ms": cumulative.get(m, 0.0) for m in IMPORTS}


def _run_pass(commands: list[list[str]], tracer=None) -> tuple[float, bool]:
    """Run every command once; return the wall time and whether all exited 0."""
    import mhi.cli

    ok = True
    gc.collect()
    start = perf_counter()
    for argv in commands:
        try:
            code = tracer.call("cli", mhi.cli.main, argv) if tracer else mhi.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        ok = ok and code == 0
    return perf_counter() - start, ok


def _checked(fn, *args, default):
    """Run an output check; a check that cannot parse the output fails it."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return default


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def measure(load, seconds: float, trace: bool) -> dict:
    """Warm up, check, then time passes for ``seconds``. Traced passes alternate
    with untraced ones when ``trace`` is set; otherwise set-up probes run
    between passes."""
    from reference import Reference
    from tracer import Tracer

    wall, ok = _run_pass(load.commands)
    first = load.read_outputs() if ok else None
    attempted, failed = load.ops, 0 if ok else load.ops
    if first is not None:
        checked, bad = _checked(load.verify, first, default=(0, load.ops))
        attempted, failed = attempted + checked, failed + bad

    tracer = Tracer() if trace else None
    reference = Reference()
    walls = {False: [], True: []}
    records, setups, raw_walls, raw_setups = [], [], [], []
    probes = 0 if trace else SETUP_PROBES
    start = perf_counter()
    index = 0
    while (perf_counter() - start < seconds or len(walls[False]) < MIN_PASSES
           or (trace and len(walls[True]) < MIN_PASSES) or len(setups) < probes):
        # Set-up probes are spread evenly over the run, so that they and the
        # passes see the same drift in machine speed.
        if len(setups) < probes and len(setups) * seconds <= probes * (perf_counter() - start):
            ready = _probe({"model": load.model, "commands": []})[0]
            setups.append(reference.scale(ready))
            raw_setups.append(ready)
            continue
        traced = trace and index % 2 == 1
        index += 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, ok = _run_pass(load.commands, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(reference.scale(wall))
        if traced:
            records.append(tracer.record())
        else:
            raw_walls.append(wall)
        attempted += load.ops
        if not ok or first is None:
            failed += load.ops
        else:
            failed += _checked(load.compare, first, load.read_outputs(), default=load.ops)
    return {"first": first, "attempted": attempted, "failed": failed, "walls": walls,
            "records": records, "setups": setups, "absent": tracer.absent if tracer else [],
            "raw_walls": raw_walls, "raw_setups": raw_setups, "reference": reference.times}


def end_to_end(load, result: dict) -> dict[str, float]:
    walls = result["walls"][False]
    _, out, _ = _probe({"model": load.model, "commands": load.commands})
    return {
        "wall_s": statistics.median(walls),
        "frames_per_s": statistics.median(load.frames / w for w in walls),
        "peak_rss_mb": json.loads(out.splitlines()[-1])["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(result["setups"]),
    }


def per_layer(load, result: dict) -> tuple[dict[str, float], bool]:
    """Per-layer metrics and whether every traced pass gave the same counts."""
    records = result["records"]
    metrics = {}
    repeat = True
    for name in records[0]:
        values = [r[name] for r in records]
        if name.endswith("_ms"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeat = repeat and len(set(values)) == 1
    stats = _checked(load.stats, result["first"], default={}) if result["first"] else {}
    for name in COUNTS:
        metrics[name] = stats.get(name, 0)
    _, _, report = _probe({"model": load.model, "commands": []}, importtime=True)
    metrics.update(_import_ms(report))
    walls = result["walls"]
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, repeat


def _versions() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one mhi benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("extract", "predict_dense", "train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale=None) -> int:
    """Run one workload and print its result; ``scale`` shrinks the inputs for
    the self-test."""
    args = parse_args(argv)
    _import_program()
    import workloads  # imports mhi, so only after the path is set

    scale = scale or workloads.FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load = workloads.WORKLOADS[args.workload](str(work), args.seed, scale)
        result = measure(load, args.seconds, bool(args.trace))
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": _versions(),
            "frame_sizes": {"corpus": f"{scale.size}x{scale.size}",
                            "video": f"{scale.video_size}x{scale.video_size}"},
            "frames_per_pass": load.frames,
            "wall_s": _quartiles(result["walls"][False]),
            "raw_wall_s": _quartiles(result["raw_walls"]),
            "reference_s": _quartiles(result["reference"]),
            "failed_ratio": result["failed"] / result["attempted"],
        }
        if args.trace:
            metrics, info["counts_repeat"] = per_layer(load, result)
            units = per_layer_units()
            info["traced_wall_s"] = _quartiles(result["walls"][True])
            info["absent"] = result["absent"]
        else:
            metrics = end_to_end(load, result)
            info["raw_setup_s"] = _quartiles(result["raw_setups"])
            units = END_TO_END
        if args.workload == "train" and result["first"]:
            info.update({f"test_acc_{k}": v for k, v in load.test_accuracy(result["first"]).items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("info " + json.dumps(info), flush=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
