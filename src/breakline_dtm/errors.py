"""Exception types shared across the pipeline.

The CLI maps these to exit codes (see cli.py): input-data problems exit
with 2, out-of-range parameter values with 3, anything unexpected with 4.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class InputDataError(PipelineError):
    """The input data cannot be processed (unreadable, empty, malformed)."""


class ParameterError(PipelineError):
    """A configuration value is outside its legal range."""


class UnsupportedFormatError(InputDataError):
    """Input bytes are neither parseable XYZ text nor a supported LAS file."""


class EmptyInputError(InputDataError):
    """No valid points were found in the input."""


class MalformedRecordError(InputDataError):
    """A record could not be decoded (raised only in strict mode)."""


class HeaderMismatchError(InputDataError):
    """An ASCII grid header is missing keys or disagrees with its payload."""


class AllVoidError(InputDataError):
    """Void filling needs at least one occupied cell."""


class GridTooSmallError(InputDataError):
    """The raster is too small for a 3x3 stencil."""


class InsufficientGroundError(InputDataError):
    """Interpolation needs at least three non-collinear ground pixels."""


class GridMismatchError(InputDataError):
    """Two rasters that must share a grid do not."""


class EmptyExtentError(InputDataError):
    """A scene extent has zero area."""


class NonPositiveCellError(ParameterError):
    """Grid cell size must be finite and > 0."""


class BadThresholdError(ParameterError):
    """Slope threshold must lie strictly between 0 and 90 degrees."""
