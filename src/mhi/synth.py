"""Synthetic clip generation: a white rectangle moving on a black background.

Desk-scale stand-in for real footage. Three motion programs give visually and
statistically distinct temporal templates:

- ``translate``       -- constant velocity, bouncing off the frame edges
- ``oscillate``       -- sinusoidal sweep along one axis
- ``expand_contract`` -- size pulsing between a minimum and maximum extent

Every frame adds +-1 px of seeded positional jitter, and each replicate draws
its own starting position/phase, so sequences of one class are similar but
never identical. All randomness comes from ``(seed, replicate)``-derived PCG64
streams: the same spec always produces the same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SynthSpecError
from .imgio import SequenceRecord, frame_path, write_manifest_file, write_pgm_file

PROGRAMS = ("translate", "oscillate", "expand_contract")

_STR_FIELDS = ("name", "program", "axis")
_INT_FIELDS = ("frames", "size", "rect", "seed", "count", "dx", "dy", "period", "rate")
_SPEC_KEYS = {*_STR_FIELDS, *_INT_FIELDS}

#: Most pixels one clip may hold, ``frames * size**2``: a 2 GiB uint8 array.
PIXEL_BUDGET = 2**31

#: Most pixels one spec list may hold over all its clips,
#: ``sum(count * frames * size**2)``: 8 GiB of frames on disk.
TOTAL_PIXEL_BUDGET = 2**33


@dataclass(frozen=True)
class SynthSpec:
    """One synthetic class: motion program, geometry, seed, replicate count.

    Each clip is rendered whole in memory, so ``frames * size**2`` may not
    exceed ``PIXEL_BUDGET``.
    """

    name: str
    program: str
    frames: int = 30
    size: int = 64
    rect: int = 12
    seed: int = 0
    count: int = 1
    dx: int = 2          # translate: per-frame displacement
    dy: int = 0
    axis: str = "x"      # oscillate: sweep axis
    period: int = 8      # oscillate: frames per full cycle
    rate: int = 1        # expand_contract: half-extent change per frame

    def __post_init__(self):
        for field in _STR_FIELDS:
            value = getattr(self, field)
            if not isinstance(value, str):
                raise SynthSpecError(f"{field} must be a string, got {value!r}")
        for field in _INT_FIELDS:
            value = getattr(self, field)
            # A JSON float or bool is not an integer, as in model JSON.
            if type(value) is not int:
                raise SynthSpecError(f"{field} must be an integer, got {value!r}")
        if not self.name:
            raise SynthSpecError("spec needs a nonempty name")
        if any(c and c in self.name for c in (os.sep, os.altsep, "\0")):
            # The name becomes a directory under the output directory.
            raise SynthSpecError(f"name must hold no path separator or NUL, got {self.name!r}")
        if self.program not in PROGRAMS:
            raise SynthSpecError(f"unknown program {self.program!r}")
        if self.frames < 2:
            raise SynthSpecError(f"frames must be >= 2, got {self.frames}")
        if self.size < 8:
            raise SynthSpecError(f"size must be >= 8, got {self.size}")
        if self.frames * self.size**2 > PIXEL_BUDGET:
            raise SynthSpecError(f"frames * size**2 must be <= 2**31 pixels per clip, "
                                 f"got {self.frames} * {self.size}**2")
        if not 2 <= self.rect <= self.size - 4:
            raise SynthSpecError(f"rect {self.rect} does not fit size {self.size}")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")
        if self.count < 1:
            raise SynthSpecError(f"count must be >= 1, got {self.count}")
        if self.program == "translate" and max(abs(self.dx), abs(self.dy)) < 1:
            raise SynthSpecError("translate needs |dx| or |dy| >= 1")
        if self.program == "oscillate":
            if self.axis not in ("x", "y"):
                raise SynthSpecError(f"axis must be 'x' or 'y', got {self.axis!r}")
            if self.period < 2:
                raise SynthSpecError(f"period must be >= 2, got {self.period}")
        if self.program == "expand_contract" and self.rate < 1:
            raise SynthSpecError(f"rate must be >= 1, got {self.rate}")


def parse_specs(text: str) -> list[SynthSpec]:
    """Parse a JSON array of spec objects; unknown keys are rejected.

    Names must be unique, because each names its clips' directories, and
    the clips of all specs together may hold at most ``TOTAL_PIXEL_BUDGET``
    pixels.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SynthSpecError(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SynthSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise SynthSpecError("spec file must be a nonempty JSON array")
    specs = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise SynthSpecError(f"spec {i} is not an object")
        unknown = set(obj) - _SPEC_KEYS
        if unknown:
            raise SynthSpecError(f"spec {i}: unknown keys {sorted(unknown)}")
        try:
            specs.append(SynthSpec(**obj))
        except (TypeError, SynthSpecError) as exc:
            raise SynthSpecError(f"spec {i}: {exc}") from exc
    first = {}
    for i, spec in enumerate(specs):
        if spec.name in first:
            raise SynthSpecError(f"spec {i}: name {spec.name!r} repeats spec {first[spec.name]}")
        first[spec.name] = i
    total = sum(spec.count * spec.frames * spec.size**2 for spec in specs)
    if total > TOTAL_PIXEL_BUDGET:
        raise SynthSpecError(f"the specs total {total} pixels, "
                             f"more than the 2**33 allowed over all clips")
    return specs


def specs_to_json(specs: list[SynthSpec]) -> str:
    """Spec list as a JSON array accepted by ``parse_specs``."""
    return json.dumps([asdict(spec) for spec in specs], indent=2) + "\n"


def three_class_specs(
    frames: int = 30, size: int = 64, rect: int = 12, count: int = 1, seed: int = 0
) -> list[SynthSpec]:
    """One spec per motion program, with distinct per-class seeds."""
    common = dict(frames=frames, size=size, rect=rect, count=count)
    return [
        SynthSpec(name="slide", program="translate", dx=1, dy=0, seed=seed, **common),
        SynthSpec(name="sway", program="oscillate", axis="y", period=10, seed=seed + 1, **common),
        SynthSpec(name="pulse", program="expand_contract", rate=2, seed=seed + 2, **common),
    ]


def _entry_point(velocity: int, limit: int, rng: np.random.Generator) -> int:
    if velocity > 0:
        return int(rng.integers(0, min(4, limit + 1)))
    if velocity < 0:
        return limit - int(rng.integers(0, min(4, limit + 1)))
    return int(rng.integers(0, limit + 1))


def _reflect(pos: int, limit: int) -> tuple[int, int]:
    # Reflect pos into [0, limit]; returns (position, velocity sign flip).
    flip = 1
    while pos < 0 or pos > limit:
        if pos < 0:
            pos = -pos
            flip = -flip
        if pos > limit:
            pos = 2 * limit - pos
            flip = -flip
    return pos, flip


def render_clip(spec: SynthSpec, replicate: int = 0) -> np.ndarray:
    """Render one (frames, size, size) uint8 clip, deterministic per
    (spec.seed, replicate)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, replicate))))
    size, rect = spec.size, spec.rect
    limit = size - rect  # top-left coordinate range for the base rectangle

    clip = np.zeros((spec.frames, size, size), dtype=np.uint8)
    if spec.program == "translate":
        # Start near the entry edge of each moving axis so the clip is one
        # long sweep rather than a bounce pattern that varies per replicate.
        x = _entry_point(spec.dx, limit, rng)
        y = _entry_point(spec.dy, limit, rng)
        vx, vy = spec.dx, spec.dy
        for t in range(spec.frames):
            _stamp(clip[t], x, y, rect, rect, rng)
            x, flip = _reflect(x + vx, limit)
            vx *= flip
            y, flip = _reflect(y + vy, limit)
            vy *= flip
    elif spec.program == "oscillate":
        # Amplitude tied to the body size keeps the swept band compact, so an
        # oscillating clip stays visually distinct from a full-width sweep.
        amp = max(3, min(rect // 2, (size - rect) // 2))
        cx = int(rng.integers(amp, limit - amp + 1)) if limit > 2 * amp else limit // 2
        cy = int(rng.integers(0, limit + 1))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        for t in range(spec.frames):
            offset = int(round(amp * np.sin(2.0 * np.pi * t / spec.period + phase)))
            if spec.axis == "x":
                _stamp(clip[t], cx + offset, cy, rect, rect, rng)
            else:
                _stamp(clip[t], cx, cy + offset, rect, rect, rng)
    else:  # expand_contract
        # Pulse around a large static core: the MEI becomes an annulus with
        # a pronounced hole, a shape no sweeping program can produce.
        h_min = max(2, rect - 2)
        h_max = min((size - 4) // 2, h_min + max(2, rect // 3))
        if h_max <= h_min:
            h_min = max(1, h_max - max(2, rect // 3))
        span = h_max - h_min
        cx = int(rng.integers(h_max, size - h_max + 1))
        cy = int(rng.integers(h_max, size - h_max + 1))
        phase = int(rng.integers(0, 2 * span)) if span > 0 else 0
        for t in range(spec.frames):
            # Triangle wave over half-extent, rate steps per frame.
            step = (phase + t * spec.rate) % (2 * span) if span > 0 else 0
            half = h_min + (step if step <= span else 2 * span - step)
            side = 2 * half
            _stamp(clip[t], cx - half, cy - half, side, side, rng)
    return clip


def _stamp(frame: np.ndarray, x: int, y: int, w: int, h: int, rng: np.random.Generator):
    # Apply +-1 px jitter, clamp the box into the frame, fill with white.
    size = frame.shape[0]
    x = int(np.clip(x + rng.integers(-1, 2), 0, size - w))
    y = int(np.clip(y + rng.integers(-1, 2), 0, size - h))
    frame[y : y + h, x : x + w] = 255


def generate(specs: list[SynthSpec], out_dir: str | os.PathLike) -> list[SequenceRecord]:
    """Render every spec replicate under ``out_dir`` and write manifest.jsonl.

    Every spec's pixel budget was checked when the spec was built, so no
    clip can be too large to render once a directory has been made.

    Each replicate lands in ``<name>_<NNN>/`` with frames ``000000.pgm`` on;
    manifest paths are relative to the manifest file. Returns the records in
    manifest order.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for spec in specs:
        for replicate in range(spec.count):
            dirname = f"{spec.name}_{replicate:03d}"
            clip_dir = os.path.join(out_dir, dirname)
            os.makedirs(clip_dir, exist_ok=True)
            clip = render_clip(spec, replicate)
            for t in range(clip.shape[0]):
                write_pgm_file(frame_path(clip_dir, t), clip[t])
            records.append(
                SequenceRecord(dir=dirname, start=0, end=spec.frames - 1, label=spec.name)
            )
    write_manifest_file(os.path.join(out_dir, "manifest.jsonl"), records)
    return records
