"""Exception types shared across the package, and the checks of a value."""

import math
import numbers


class SingularMatrix(Exception):
    """LU factorization hit a pivot that is zero to working precision."""


class DimensionError(Exception):
    """Operands have incompatible shapes."""


class DomainError(Exception):
    """Model evaluated outside its admissible region (e.g. negative mass)."""


class NewtonDivergence(Exception):
    """Stage Newton iteration hit the iteration cap without converging."""


class ContractViolation(Exception):
    """An internal precondition was violated (caller bug)."""


class EvaluationError(Exception):
    """NLP evaluation failed; carries the shooting interval index."""

    def __init__(self, interval, cause):
        super().__init__(f"evaluation failed on interval {interval}: {cause}")
        self.interval = interval
        self.cause = cause


class ConfigError(ValueError):
    """Bad input; the message of a bad value starts with its field."""


def check_positive(name, value, most=math.inf):
    """Raise a ConfigError that names the field unless value is a finite
    real number in (0, most] and no bool."""
    # written so that NaN fails the test
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= most or value == math.inf):
        raise ConfigError(f"{name}: expected a finite number in "
                          f"(0, {most}], got {value!r}")


def check_integer(name, value, least):
    """value if it is an integer >= least and no bool; else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ConfigError(f"{name}: expected integer >= {least}, "
                          f"got {value!r}")
    return value
