"""Exception types shared by every module in the package."""


class MemElementsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MemElementsError):
    """An abscissa or descriptor lies outside the supported domain."""


class CapabilityError(MemElementsError):
    """A requested derivative or transform depth exceeds constitutive.MAX_DERIVATIVE_ORDER.

    The bound caps the work one request can cause; every curve is closed
    form at every order.
    """


class NumericalError(MemElementsError):
    """A numerical routine could not reach its accuracy contract."""


class ConsistencyError(MemElementsError):
    """Two computations of one quantity disagreed beyond tolerance."""


class ConfigError(MemElementsError):
    """A configuration document or CLI argument is malformed."""
