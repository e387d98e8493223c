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

The fold and the templates are two steps. ``fold_history`` runs over one
sequence and yields a history window, each pixel's last-active step, at each
window's end. It draws the sequence's frames one at a time, as the windows
reach them, so ``FrameSequence.frames`` may be the stream that
``imgio.read_frames`` yields. The frames are gathered into one mask block of
32 frames; consecutive blocks share one frame, which is carried over rather
than read again. Only each window's final step of the fold is read, so the
fold moves from one window's end to the next in one reduction per mask block
over the run of masks in between: the masks of the run, weighted by their
step order ``1..k``, give each pixel's highest active step as one ``max``. A
whole clip is one run; a stride-1 window is a run of one mask and one
assignment.

``pack_templates`` turns history windows into templates in blocks of ``B``:
a ``TemplateBlock`` holds one ``(2B, H, W)`` float64 stack, the ``B`` MHIs
followed by their ``B`` MEIs as 0.0/1.0. Each window's MEI and MHI are
written straight from its ``last`` as it is drawn; no ages are formed. The
moment stage runs once per block on all ``2B`` images, and the blob stage
once on the block's uint8 MEI stack. The windows of one block may come from
one video, as ``predict``'s sliding windows do, or from many clips of one
frame shape, as the whole-clip templates of ``extract`` do. ``B`` is at most
8 and holds each float64 MHI half of the stack to at most 1 MiB (8 windows
up to 128x128, 2 at 256x256, 1 above 362x362). ``pack_templates`` writes
every block into the same buffers, so a yielded block, its ``mei``
included, is valid until the next one is drawn, as the ``last`` of
``fold_history`` is. A video is thus processed holding one mask block of
frames and one template block at a time: memory bounded by the frame size,
whatever the video's length or the number of windows. The one-window twin
of a block, ``TemporalTemplate``, which ``build_template`` returns, holds
the float64 MHI array ``mhi``, the uint8 MEI ``mei``, the window's
``frame_span`` and its ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TooFewFramesError
from .imgio import FrameSequence, require_frame
from .imgproc import frame_diff, gaussian_smooth, morph_open

# Frames per motion_masks call; consecutive blocks share one frame.
_BLOCK = 32

# Windows per TemplateBlock, and float64 values per (B, H, W) MHI half of its
# stack (1 MiB).
_BLOCK_WINDOWS = 8
_BLOCK_VALUES = 2**17

#: The largest ``tau`` the CLI flag and the model file accept. Up to it every
#: MHI value ``tau - age`` is an integer that float64 holds exactly; past it
#: the ages round away and the MHI fades into a copy of the MEI.
MAX_TAU = 2**53


@dataclass
class TemporalTemplate:
    """MHI + MEI pair summarizing one window: float64 MHI values, each in
    [0, tau], the uint8 MEI, the window's absolute frame span and its tau."""

    mhi: np.ndarray
    mei: np.ndarray
    frame_span: tuple[int, int]
    tau: int

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")


@dataclass
class TemplateBlock:
    """Templates of B windows, from one video or from consecutive clips.

    ``stack`` is the ``(2B, H, W)`` float64 stack of the B MHIs followed by
    their B MEIs as 0.0/1.0; ``mhi`` is its first half, ``mei`` the same MEIs
    as a ``(B, H, W)`` uint8 stack, and ``spans`` each window's absolute frame
    span. A block from ``pack_templates`` is valid until the next one is
    drawn, ``mei`` as well as ``stack``.
    """

    mei: np.ndarray
    spans: list[tuple[int, int]]
    stack: np.ndarray

    @property
    def mhi(self) -> np.ndarray:
        return self.stack[: len(self.spans)]


def mhi_step(values: np.ndarray, mask: np.ndarray, tau: int) -> np.ndarray:
    """Advance MHI ``values`` by one frame of motion evidence.

    Pixels active in ``mask`` are set to ``tau``; all others decay by 1,
    floored at 0.
    """
    values, mask = np.asarray(values), np.asarray(mask)
    if mask.shape != values.shape:
        raise DimensionMismatchError(f"mask shape {mask.shape} != history shape {values.shape}")
    return np.where(mask > 0, float(tau), np.maximum(values - 1.0, 0.0))


def motion_masks(frames: np.ndarray, theta: float) -> np.ndarray:
    """Cleaned binary masks for consecutive frame pairs.

    Each frame is smoothed, consecutive smoothed pairs are differenced against
    ``theta``, and each difference is opened. An ``(N, H, W)`` stack yields
    one ``(N-1, H, W)`` mask stack. ``frame_diff`` rejects a ``theta`` that
    is not finite and >= 0.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ValueError(f"expected an (N, H, W) frame stack, got shape {frames.shape}")
    smoothed = gaussian_smooth(frames)
    diff = frame_diff(smoothed[:-1], smoothed[1:], theta)
    del smoothed  # its memory can then serve the opening's buffers
    return morph_open(diff)


def _masks(seq: FrameSequence, theta: float):
    """Yield the ``len(seq) - 1`` motion masks of ``seq`` in blocks of at
    most ``_BLOCK - 1``, each the ``(k, H, W)`` result of one
    ``motion_masks`` call and valid until the next block is drawn.

    Frames are drawn from ``seq.frames`` as they are needed and gathered into
    one buffer of ``_BLOCK`` frames. Consecutive blocks share one frame,
    which is carried to the front of the buffer rather than drawn again, so
    every frame is drawn once and at most ``_BLOCK`` of them are held.
    """
    n = len(seq)
    frames = iter(seq.frames)
    first = None
    for lo in range(0, n - 1, _BLOCK - 1):
        count = min(_BLOCK, n - lo)
        for i in range(1 if lo else 0, count):
            frame = next(frames, None)
            if frame is None:
                raise ValueError(f"{seq.record.dir}: frames ended after {lo + i} of {n}")
            if first is None:
                first = require_frame(frame)
                block = np.empty((min(_BLOCK, n), *first.shape), np.uint8)
            elif frame.dtype != np.uint8 or frame.shape != first.shape:
                require_frame(frame)
                raise DimensionMismatchError(
                    f"{seq.record.dir}: frame {seq.record.start + lo + i} has shape "
                    f"{frame.shape}, expected {first.shape}",
                    index=seq.record.start + lo + i,
                )
            block[i] = frame
        yield motion_masks(block[:count], theta)
        block[0] = block[count - 1]


# Mask step order 1.._BLOCK - 1 within a run of one mask block; times a {0, 1}
# mask it stays within uint8.
_ORDER = np.arange(1, _BLOCK, dtype=np.uint8).reshape(-1, 1, 1)


def fold_history(seq: FrameSequence, theta: float, tau: int, size: int, starts):
    """Fold the masks of ``seq`` into each pixel's last-active step, yielding
    one history window ``(last, t, steps, span)`` per ``size``-frame window
    at ``starts``.

    ``starts`` is a sequence of ascending window starts, and every window lies
    inside ``seq``. ``last`` is the fold's int32 buffer of last-active mask
    steps, ``t`` the window's final mask step, ``steps = min(size - 1, tau)``
    the trailing mask steps its template uses (as ``build_template`` does),
    and ``span`` its absolute frame span. ``last`` is updated in place, so a
    window must be read before the next one is drawn. Frames are drawn from
    ``seq.frames``, which may be a stream, only as the windows need them,
    and masks are computed once, in blocks of ``_BLOCK`` frames that overlap
    by one frame (see ``_masks``), so neither grows with the sequence.

    Only each window's final step of ``last`` is read, so the fold advances
    from one window's end to the next in one reduction per mask block that
    the run of masks between them touches: a pixel active in the run is
    last active at its highest active step, which is ``t0`` plus the largest
    of ``j * mask_j`` over the run's masks ``j = 1..k`` after step ``t0``.
    That is the step the mask-by-mask update ``last[mask > 0] = t`` leaves.
    A run of one mask, as stride-1 windows make, is that single update.
    """
    steps = min(size - 1, tau)
    blocks = _masks(seq, theta)
    masks = ()
    at = 0          # the next unfolded mask of ``masks``
    last = None
    t = -1          # the last folded mask step
    for start in starts:
        end = start + size - 2
        while t < end:
            if at == len(masks):
                del masks  # so that the next block can reuse its memory
                masks, at = next(blocks), 0
                if last is None:
                    # A pixel that never moved reads as last active at step
                    # -1. Its age t + 1 is >= steps, as a window has at most
                    # t + 1 mask steps, so it is idle in every window.
                    last = np.full(masks.shape[1:], -1, dtype=np.int32)
            k = min(end - t, len(masks) - at)
            if k == 1:
                last[masks[at].view(bool)] = t + 1
            else:
                latest = np.multiply(masks[at : at + k], _ORDER[:k]).max(axis=0)
                np.add(latest, np.int32(t), out=last, where=latest > 0)
            at += k
            t += k
        yield last, t, steps, (seq.record.start + t + 1 - steps, seq.record.start + t + 1)


def clip_history(seq: FrameSequence, theta: float, tau: int):
    """The one history window of a whole clip: its trailing ``min(len-1, tau)``
    mask steps, as ``fold_history`` yields it."""
    if len(seq) < 2:
        raise TooFewFramesError(f"need >= 2 frames, got {len(seq)}")
    return next(fold_history(seq, theta, tau, len(seq), [0]))


def block_size(shape: tuple[int, ...]) -> int:
    """Windows per ``TemplateBlock`` of ``shape`` frames: at most
    ``_BLOCK_WINDOWS``, and at most ``_BLOCK_VALUES`` float64 MHI values."""
    return max(1, min(_BLOCK_WINDOWS, _BLOCK_VALUES // max(1, math.prod(shape))))


def pack_templates(windows, tau: int):
    """Yield the templates of history ``windows`` as ``TemplateBlock``s.

    ``windows`` yields ``(last, t, steps, span)`` as ``fold_history`` does,
    from one video or from many clips. Consecutive windows of one frame shape
    share a block of at most ``block_size(shape)`` windows; a window of
    another shape starts a new block. If drawing a window raises, the windows
    drawn before it still come out in a block before the error propagates.

    Each window is written as it is drawn: its MEI, ``last > t - steps``,
    into a bool ``(B, H, W)`` buffer, of which the block's ``mei`` is a
    uint8 view, and its MHI row as 0.0 and then ``last + (tau - t)``, which
    is ``tau - age``, at the active pixels. That is an exact integer for
    ``tau`` up to ``MAX_TAU``. The MEI half of the stack is filled from the
    bool buffer once per block. Every block of one frame shape is written
    into the same stack and bool buffer, so a block is valid until the next
    one is drawn; copy what must outlive it.
    """
    mei = stack = None
    spans = []

    def block():
        count = len(spans)
        stack[count : 2 * count] = mei[:count]
        return TemplateBlock(mei[:count].view(np.uint8), spans, stack[: 2 * count])

    try:
        for last, t, steps, span in windows:
            if spans and (len(spans) == len(mei) or last.shape != mei.shape[1:]):
                yield block()
                spans = []
            if mei is None or last.shape != mei.shape[1:]:
                size = block_size(last.shape)
                stack = np.empty((2 * size, *last.shape), dtype=np.float64)
                mei = np.empty((size, *last.shape), dtype=bool)
            active, mhi = mei[len(spans)], stack[len(spans)]
            np.greater(last, t - steps, out=active)
            # tau - age is at least 1 where active, so no -0.0 arises.
            mhi.fill(0.0)
            np.add(last, tau - t, out=mhi, where=active, dtype=np.float64)
            spans.append(span)
    except Exception:
        if spans:
            yield block()
        raise
    if spans:
        yield block()


def build_template(seq: FrameSequence, theta: float, tau: int) -> TemporalTemplate:
    """Run the full per-window pipeline: smooth, diff, open, accumulate.

    Only the trailing ``min(len-1, tau)`` mask steps feed the template, so a
    sequence longer than the window contributes just its most recent motion.
    The MEI is the pixelwise OR of those same masks, which makes its support
    exactly the set of pixels the MHI ever saw active. The template is the
    one-clip case of ``pack_templates``, so its arrays are views into that
    block's stack.
    """
    block = next(pack_templates([clip_history(seq, theta, tau)], tau))
    return TemporalTemplate(block.mhi[0], block.mei[0], block.spans[0], tau)


def normalize_mhi(template: TemporalTemplate) -> np.ndarray:
    """Render a template's MHI as an 8-bit frame: round(255 * value / tau), ties up."""
    scaled = 255.0 * template.mhi / template.tau
    return np.floor(scaled + 0.5).astype(np.uint8)
