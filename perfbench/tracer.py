"""Outside-in layer tracing for the benchmark's traced runs.

The package's modules import each other with ``from .x import y``, which
copies the function into the importing module. A wrapper therefore has to
replace the name at every site where a caller looks it up, for example both
``mhi.temporal.gaussian_smooth`` and ``mhi.imgproc.gaussian_smooth``. Each
wrapped call opens a span; spans nest by caller, so a layer's self time
excludes the traced layers it calls. A call made while the same function is
already active (recursion, as in ``serialize.dumps``) is not a new span.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _stack_len(result) -> int:
    """Frames or masks in a result: a 2-D array is one, an (N, H, W) stack is N."""
    return result.shape[0] if getattr(result, "ndim", 2) == 3 else 1


def _count_load(counts, args, result):
    counts["frames_loaded"] += len(result)
    counts["frame_pairs"] += len(result) - 1


# (module, function, counter) for every span, named after the module without
# its package prefix. A counter sees the call's arguments and result.
SPANS = [
    ("mhi.imgio", "read_pgm", lambda c, a, r: c.update(bytes_read=len(a[0]))),
    ("mhi.imgio", "load_sequence", _count_load),
    ("mhi.imgproc", "gaussian_smooth", lambda c, a, r: c.update(frames_smoothed=_stack_len(r))),
    ("mhi.imgproc", "frame_diff", None),
    ("mhi.imgproc", "morph_open", lambda c, a, r: c.update(masks=_stack_len(r))),
    ("mhi.temporal", "build_template", None),
    ("mhi.temporal", "motion_masks", None),
    ("mhi.temporal", "mhi_step", None),
    ("mhi.moments", "feature_vector", None),
    ("mhi.diagnostics", "detect_secondary_blob", None),
    ("mhi.classify", "train_mlp", None),
    ("mhi.classify", "mlp_loss_and_grads", lambda c, a, r: c.update(sgd_steps=1)),
    ("mhi.classify", "evaluate", None),
    ("mhi.classify", "TrainedModel.predict", None),
    ("mhi.serialize", "dumps", lambda c, a, r: c.update(bytes_out=len(r))),
    ("mhi.cli", "features_to_csv", None),
    ("mhi.cli", "read_features_csv", None),
]

SPAN_NAMES = [f"{module[4:]}.{func}" for module, func, _ in SPANS]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# Metrics derived from the counters: unit, the traced names they rely on, and
# value. A ratio whose denominator is zero (no frames on ``train``) reads 0.
DERIVED = {
    "imgio.bytes_read": ("B", ["imgio.read_pgm"], lambda c: c["bytes_read"]),
    "imgproc.smooth_per_frame": (
        "ratio", ["imgproc.gaussian_smooth", "imgio.load_sequence"],
        lambda c: _ratio(c["frames_smoothed"], c["frames_loaded"]),
    ),
    "temporal.mask_useful_ratio": (
        "ratio", ["imgproc.morph_open", "imgio.load_sequence"],
        lambda c: _ratio(c["frame_pairs"], c["masks"]),
    ),
    "classify.sgd_steps": ("count", ["classify.mlp_loss_and_grads"], lambda c: c["sgd_steps"]),
    "serialize.bytes_out": ("B", ["serialize.dumps"], lambda c: c["bytes_out"]),
}


class Tracer:
    """Installs wrappers on the traced names and records one pass at a time."""

    def __init__(self):
        self.absent: list[str] = []   # traced names this version of mhi lacks
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []   # [name, child seconds] of each open span
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._stack.append([name, 0.0])
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            _, child = self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += elapsed - child
            if self._stack:
                self._stack[-1][1] += elapsed

    def _span(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)  # a recursive call is part of the outer span
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mhi" or n.startswith("mhi.")]
        for module_name, func, counter in SPANS:
            self._patch(modules, module_name, func, counter)

    def _patch(self, modules, module_name: str, func: str, counter) -> None:
        name = f"{module_name[4:]}.{func}"
        owner = sys.modules.get(module_name)
        *path, attr = func.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._span(name, original, counter)
        # A method is looked up on its class; a function wherever it was imported.
        sites = [(owner, attr)] if path else [
            (m, key) for m in modules for key, value in vars(m).items() if value is original
        ]
        for site, key in sites:
            setattr(site, key, wrapper)
            self._undo.append((site, key, original))

    def record(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last ``reset``."""
        metrics = {}
        for name in SPAN_NAMES:
            if name not in self.absent:
                metrics[f"{name}.calls"] = self.calls[name]
                metrics[f"{name}.self_ms"] = 1e3 * self.self_s[name]
        metrics["cli.self_ms"] = 1e3 * self.self_s["cli"]
        for metric, (_, needs, value) in DERIVED.items():
            if not set(needs) & set(self.absent):
                metrics[metric] = value(self.counts)
        return metrics

    def uninstall(self) -> None:
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()
