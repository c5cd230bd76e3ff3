"""Named error types shared across the package."""


class PSearchError(Exception):
    """Base class for all package errors."""


class ZeroVector(PSearchError):
    """Vector has (near-)zero norm and cannot be normalized."""


class DimensionMismatch(PSearchError):
    pass


class EmptyInput(PSearchError):
    pass


class NonFiniteFunction(PSearchError):
    """Objective returned NaN/Inf during a finite-difference probe."""


class InvalidLabel(PSearchError):
    pass


class DegenerateUpdate(PSearchError):
    """Center update produced a near-zero vector; old center kept."""


class InvalidParams(PSearchError):
    pass


class EmptySubgroups(PSearchError):
    pass


class EmptyPool(PSearchError):
    pass


class UninitializedCenter(PSearchError):
    pass


class EmptyGallery(PSearchError):
    pass


class NoRelevant(PSearchError):
    pass


class SizeTooLarge(PSearchError):
    pass


class ConfigError(PSearchError):
    pass


class DivergenceDetected(PSearchError):
    """Total training loss became NaN/Inf."""
