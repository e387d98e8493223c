"""Exception hierarchy for the mhi package.

``MhiError`` is the common base; the CLI maps it to exit code 2 (data error),
except ``NonFiniteLossError`` which maps to exit code 3 (numeric failure).
"""


class MhiError(Exception):
    """Base class for all errors raised by this package."""


# --- raster / frame I/O ---

class MalformedHeaderError(MhiError):
    """PGM stream does not start with a valid P5 header."""


class TruncatedDataError(MhiError):
    """PGM stream ends before width*height pixel bytes."""


class UnsupportedMaxvalError(MhiError):
    """PGM maxval is greater than 255 (16-bit depth is out of scope)."""


class PixelRangeError(MhiError):
    """A PGM pixel value is greater than the header's maxval."""


class ManifestParseError(MhiError):
    """A manifest line is not a valid record; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class FrameRangeError(ManifestParseError):
    """A manifest record has end < start, or more frames than ``sys.maxsize``;
    carries the 1-based line number."""


class MissingFrameError(MhiError):
    """An expected frame file is absent; carries the frame index."""

    def __init__(self, index, path=None):
        detail = f" ({path})" if path else ""
        super().__init__(f"missing frame {index}{detail}")
        self.index = index


class DimensionMismatchError(MhiError):
    """Two rasters that must share dimensions do not."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# --- pipeline ---

class TooFewFramesError(MhiError):
    """A temporal template needs at least two frames."""


class ZeroMassError(MhiError):
    """Moment computation on an image whose intensity sum is zero."""


class NoMotionError(MhiError):
    """Feature extraction on a template that recorded no motion."""


# --- classification ---

class StratificationError(MhiError):
    """Dataset cannot be split: too few samples overall or per label."""


class EmptySplitError(MhiError):
    """The per-label cuts left the train, validation, or test set empty."""


class EmptyTrainingError(MhiError):
    """Standardizer fit on an empty training set."""


class FeatureOverflowError(MhiError):
    """A feature's mean, std or standardized value overflows float64."""


class SingleClassError(MhiError):
    """Classifier training needs at least two distinct labels."""


class ForwardOverflowError(MhiError):
    """An MLP forward pass overflows float64: the weights are too large for
    the inputs, as after training with a huge learning rate."""


class ModelSizeError(MhiError):
    """An MLP's layer sizes ask for more parameters than training allows."""


class NonFiniteLossError(MhiError):
    """Training loss became NaN/inf; usually the learning rate is too high."""


class UnknownLabelError(MhiError):
    """Evaluation sample carries a label the model was not trained on."""


class ModelFormatError(MhiError, ValueError):
    """A model document lacks a field or holds a bad value or shape.

    It is also a ``ValueError``, so callers that catch a bad version or
    classifier type as one keep working.
    """


class SynthSpecError(MhiError):
    """Invalid synthetic clip specification."""
