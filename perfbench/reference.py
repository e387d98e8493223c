"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of a vCPU drifts by tens of percent over seconds
to minutes, as neighbours come and go, and a plain median over one run keeps
that drift. The benchmark therefore times this kernel before and after every
timed unit (a pass of the workload's commands, or a set-up probe) and scales
the unit's time by ``REFERENCE_S`` divided by the mean of those two kernel
times. The scaled time reads what the unit would take on a machine that runs
the kernel in ``REFERENCE_S``; a faster or slower program still moves it in
full, since the kernel lives here and never changes with the program.

The kernel mixes the kinds of work the program does: 3x3 shift-and-add
filters, thresholds and boolean morphology on 64x64 and 128x128 frames, small
matrix products like an MLP step, and plain interpreter work on dicts.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the 2-vCPU x86-64 VM (Python 3.11, numpy 2) the
# benchmark was tuned on. Only its ratio to a scaled time matters, and it is
# the same constant on every commit.
REFERENCE_S = 0.19

REPEATS = 8


class Reference:
    """The kernel's fixed inputs and, in ``times``, every kernel time in order."""

    def __init__(self):
        rng = np.random.default_rng(1)
        self.stacks = [rng.integers(0, 255, (30, 64, 64)).astype(np.uint8),
                       rng.integers(0, 255, (8, 128, 128)).astype(np.uint8)]
        self.w1 = rng.standard_normal((16, 32))
        self.w2 = rng.standard_normal((32, 3))
        self.x = rng.standard_normal((2, 16))
        self._kernel()  # warm-up
        self.times = []
        self.last = self.seconds()

    @staticmethod
    def _shifts(frame, combine, out):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                out = combine(out, np.roll(np.roll(frame, dy, 0), dx, 1))
        return out

    def _kernel(self) -> float:
        acc = 0.0
        for stack in self.stacks:
            prev = None
            for frame in stack:
                f = frame.astype(np.float64)
                smooth = self._shifts(f, np.add, np.zeros_like(f)) / 9
                if prev is not None:
                    mask = np.abs(smooth - prev) > 10
                    mask = self._shifts(mask, np.logical_and, mask.copy())
                    acc += float(mask.sum()) + float((smooth * mask).mean())
                prev = smooth
        for _ in range(400):
            y = np.tanh(self.x @ self.w1) @ self.w2
            acc += float((y - y.max(axis=1, keepdims=True)).sum())
        table = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0) + i
        return acc + sum(table.values())

    def seconds(self) -> float:
        start = perf_counter()
        for _ in range(REPEATS):
            self._kernel()
        self.times.append(perf_counter() - start)
        return self.times[-1]

    def scale(self, seconds: float) -> float:
        """Scale a unit timed just now to reference machine speed, timing the
        kernel once more; that time also serves the next unit."""
        after = self.seconds()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor
