"""Motion-history and motion-energy accumulation over a frame window.

The motion-history image (MHI) is a per-pixel recency map: a pixel that moved
in the current step is set to ``tau`` and otherwise decays by one intensity
unit per frame, floored at zero. Brighter pixels therefore mark more recent
motion, and the decay gradient encodes its direction. The motion-energy image
(MEI) is the binary union of every motion mask in the window: where motion
happened, regardless of when.

History is held as each pixel's last-active mask step, the timestamp MHI of
Davis & Bradski. Folding ``mhi_step`` over a window's trailing ``steps``
masks leaves ``tau - age`` at a pixel last active ``age`` steps before the
window's final mask, and 0 at a pixel idle through the window. As
``steps <= tau`` the age of an active pixel is at most ``tau - 1``, so the
floor at zero never applies and the fold equals ``where(age < steps,
tau - age, 0)``. One pass over the masks thus yields the MHI and MEI of every
trailing window, whole clips and sliding windows alike.

Windows come out in blocks of ``B``: ``(B, H, W)`` MHI and MEI stacks, so the
moment and blob stages downstream run once per block, not once per window.
``B`` follows the frame area, holding each float64 MHI stack near 1 MiB (8
windows at 128x128, 2 at 256x256, 1 above that), so the memory they take is
bounded by the frame size, whatever the number of windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TooFewFramesError
from .imgio import FrameSequence
from .imgproc import frame_diff, gaussian_smooth, morph_open

# Frames per motion_masks call; consecutive blocks share one frame.
_BLOCK = 32

# float64 values per (B, H, W) window stack: 1 MiB.
_BLOCK_VALUES = 2**17


@dataclass
class MotionHistory:
    """Recency map ``values`` (float64, each in [0, tau]) plus its window length."""

    values: np.ndarray
    tau: int

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")

    @classmethod
    def zeros(cls, height: int, width: int, tau: int) -> "MotionHistory":
        return cls(values=np.zeros((height, width), dtype=np.float64), tau=tau)


@dataclass
class TemporalTemplate:
    """MHI + MEI pair summarizing one window, with absolute frame span."""

    mhi: MotionHistory
    mei: np.ndarray
    frame_span: tuple[int, int]


@dataclass
class TemplateBlock:
    """Templates of B consecutive windows: ``(B, H, W)`` float64 MHI values and
    uint8 MEI stacks, with each window's absolute frame span."""

    mhi: np.ndarray
    mei: np.ndarray
    spans: list[tuple[int, int]]


def mhi_step(h_prev: MotionHistory, mask: np.ndarray) -> MotionHistory:
    """Advance the history by one frame of motion evidence.

    Pixels active in ``mask`` are set to ``tau``; all others decay by 1,
    floored at 0.
    """
    mask = np.asarray(mask)
    if mask.shape != h_prev.values.shape:
        raise DimensionMismatchError(
            f"mask shape {mask.shape} != history shape {h_prev.values.shape}"
        )
    decayed = np.maximum(h_prev.values - 1.0, 0.0)
    values = np.where(mask > 0, float(h_prev.tau), decayed)
    return MotionHistory(values=values, tau=h_prev.tau)


def require_theta(theta: float) -> float:
    """Return ``theta`` if it is a usable difference threshold: finite, >= 0."""
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return theta


def motion_masks(frames: np.ndarray, theta: float) -> np.ndarray:
    """Cleaned binary masks for consecutive frame pairs.

    Each frame is smoothed, consecutive smoothed pairs are differenced against
    ``theta``, and each difference is opened. An ``(N, H, W)`` stack yields
    one ``(N-1, H, W)`` mask stack.
    """
    require_theta(theta)
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ValueError(f"expected an (N, H, W) frame stack, got shape {frames.shape}")
    smoothed = gaussian_smooth(frames)
    return morph_open(frame_diff(smoothed[:-1], smoothed[1:], theta))


def window_templates(seq: FrameSequence, theta: float, tau: int, size: int, starts):
    """Yield the templates of the ``size``-frame windows of ``seq`` at ``starts``
    as ``TemplateBlock``s of at most ``max(1, 2**17 // (H * W))`` windows.

    ``starts`` is a sequence of ascending window starts, and every window lies
    inside ``seq``. Masks are computed once, in blocks of ``_BLOCK`` frames
    that overlap by one frame, so neither they nor the window blocks grow with
    the sequence. Each template uses the window's trailing
    ``min(size - 1, tau)`` mask steps, as ``build_template`` does.
    """
    steps = min(size - 1, tau)
    shape = seq.frames.shape[1:]
    per_block = max(1, _BLOCK_VALUES // max(1, math.prod(shape)))
    masks = (mask for lo in range(0, len(seq) - 1, _BLOCK - 1)
             for mask in motion_masks(seq.frames[lo : lo + _BLOCK], theta))
    last = np.full(shape, -size)  # never moved: age > steps
    ages = np.empty((min(per_block, len(starts)), *shape), dtype=last.dtype)
    spans = []
    t = -1
    for start in starts:
        while t < start + size - 2:
            t += 1
            last[next(masks) > 0] = t
        np.subtract(t, last, out=ages[len(spans)])
        spans.append((seq.record.start + t + 1 - steps, seq.record.start + t + 1))
        if len(spans) == per_block:
            yield _template_block(ages, steps, tau, spans)
            spans = []
    if spans:
        yield _template_block(ages[: len(spans)], steps, tau, spans)


def _template_block(ages: np.ndarray, steps: int, tau: int, spans) -> TemplateBlock:
    active = ages < steps
    return TemplateBlock(np.where(active, tau - ages, 0.0), active.astype(np.uint8), spans)


def build_template(seq: FrameSequence, theta: float, tau: int) -> TemporalTemplate:
    """Run the full per-window pipeline: smooth, diff, open, accumulate.

    Only the trailing ``min(len-1, tau)`` mask steps feed the template, so a
    sequence longer than the window contributes just its most recent motion.
    The MEI is the pixelwise OR of those same masks, which makes its support
    exactly the set of pixels the MHI ever saw active. The template is the one
    window of a one-window ``window_templates`` block.
    """
    if len(seq) < 2:
        raise TooFewFramesError(f"need >= 2 frames, got {len(seq)}")
    block = next(window_templates(seq, theta, tau, len(seq), [0]))
    return TemporalTemplate(MotionHistory(block.mhi[0], tau), block.mei[0], block.spans[0])


def normalize_mhi(mhi: MotionHistory) -> np.ndarray:
    """Render a history as an 8-bit frame: round(255 * value / tau), ties up."""
    scaled = 255.0 * mhi.values / mhi.tau
    return np.floor(scaled + 0.5).astype(np.uint8)
