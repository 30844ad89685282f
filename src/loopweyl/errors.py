"""Exception types shared across the package."""


class LoopweylError(Exception):
    """Base class for all package errors."""


class UnknownDatumError(LoopweylError):
    """Requested root datum name is not in the registry."""


class UnsupportedDatumError(LoopweylError):
    """Operation outside its documented scope for this datum."""


class UnsupportedFieldError(LoopweylError):
    """Finite field size outside the supported prime range."""


class ResourceCapError(LoopweylError):
    """A combinatorial enumeration exceeded its configured cap."""

    def __init__(self, what, size, cap):
        super().__init__(f"{what} exceeded cap: {size} > {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class SeriesPrecisionError(LoopweylError):
    """Requested value is not determined at the working precision."""


class SpecParseError(LoopweylError):
    """Malformed element, series, or option specification string."""


class ConsistencyError(LoopweylError):
    """A construction failed an internal consistency check."""
