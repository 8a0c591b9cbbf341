"""Exception hierarchy shared by all bachimpact modules."""


class BachImpactError(Exception):
    """Base class for all package errors."""


class NotSymmetricError(BachImpactError):
    """Matrix entries are not symmetric within tolerance."""


class NotPositiveDefiniteError(BachImpactError):
    """Symmetric matrix has a non-positive eigenvalue."""


class DimensionMismatchError(BachImpactError):
    """Operands have incompatible shapes."""


class NonFiniteResultError(BachImpactError):
    """A result is not finite: a matrix function overflowed on the spectrum
    (use a stable ratio form) or an output value left double precision."""


class SingularDenominatorError(BachImpactError):
    """Denominator function vanishes on the spectrum."""


class InvalidParameterError(BachImpactError):
    """Parameter outside its admissible range (e.g. non-positive impact)."""


class InvalidTimeError(BachImpactError):
    """Evaluation time outside the admissible interval."""


class BudgetExceededError(BachImpactError):
    """Requested tensor quadrature exceeds the node budget."""


class OverflowGuardError(BachImpactError):
    """Exponential-domain quantity left the representable range."""


class ConfigError(BachImpactError):
    """Malformed or inconsistent experiment configuration."""
