"""Exception types shared across the package."""


class CastError(Exception):
    """Base class for all castnet errors."""


class InvalidShape(CastError):
    """A tensor shape is empty or has a non-positive dimension."""


class ShapeMismatch(CastError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(CastError):
    """An input lies outside the mathematical domain of the operation."""


class NotScalar(CastError):
    """backward() was called on a tensor with more than one element."""


class NumericalFailure(CastError):
    """A computation produced or encountered non-finite values."""


class InvalidRate(CastError):
    """A rate parameter is outside its valid range."""


class ConfigError(CastError):
    """A configuration value is invalid or inconsistent."""


class EmptyVideo(CastError):
    """Frame selection was asked to operate on an empty video."""


class FormatError(CastError):
    """A serialized tensor, clip, checkpoint or PGM stream is malformed."""


class InvalidRegion(CastError):
    """An artifact region is empty or falls outside the frame."""


class DivergenceError(CastError):
    """Training produced non-finite losses or gradients for an entire epoch."""


class EmptyEval(CastError):
    """Evaluation was called with no scores."""


class DegenerateEval(CastError):
    """ROC evaluation needs at least one positive and one negative."""


class CheckpointError(CastError):
    """A checkpoint does not match the expected model configuration."""


class UnsupportedVariant(CastError):
    """The requested output is undefined for the configured model variant."""
