"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: ConfigError -> 1, ValidationError -> 2,
NumericError -> 3.
"""


class EllipticDoaError(Exception):
    """Base class for all library errors."""


class ConfigError(EllipticDoaError):
    """Malformed configuration or unparseable input file."""


class ValidationError(EllipticDoaError):
    """Structurally valid input that fails semantic validation."""


class DomainError(ValidationError):
    """Arguments outside the mathematical domain of an operation."""


class ChannelDimensionError(ValidationError):
    """Channel data whose shape disagrees with the declared geometry."""


class NonUniformGridError(ValidationError):
    """Frequency samples that do not form a uniform grid."""


class NonFiniteDataError(ValidationError):
    """NaN or infinity encountered where finite values are required."""


class NumericError(EllipticDoaError):
    """Runtime numerical failure inside the estimation pipeline."""


class InstabilityError(NumericError):
    """Filter denominator collapsed below the magnitude floor (beamform.DENOMINATOR_FLOOR)."""


class DegenerateInputError(NumericError):
    """Input with no usable signal content (for example an all-zero map)."""
