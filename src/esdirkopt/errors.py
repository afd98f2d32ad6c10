"""Exception types shared across the package, and the checks of a value."""

import math
import numbers


class BatchRowError(Exception):
    """A failure in one row of a batch, stored once as args[1]; ``str``
    and ``repr`` name it, and assigning ``batch_row`` renumbers it."""

    def __init__(self, detail, batch_row):
        super().__init__(detail, batch_row)

    @property
    def batch_row(self):
        return self.args[1]

    @batch_row.setter
    def batch_row(self, row):
        self.args = (self.args[0], row)

    def __str__(self):
        return f"{self.args[0]} in batch row {self.batch_row}"


class SingularMatrix(BatchRowError):
    """LU factorization hit a pivot that is zero to working precision."""


class DomainError(BatchRowError):
    """Model evaluated outside its admissible region (e.g. negative mass)."""


class NewtonDivergence(BatchRowError):
    """Stage Newton iteration hit the iteration cap without converging."""


class ContractViolation(Exception):
    """An internal precondition, such as a shape, was violated (caller bug)."""


class EvaluationError(Exception):
    """NLP evaluation failed on the interval of its row error ``cause``."""

    def __init__(self, cause):
        super().__init__(cause)
        self.cause = cause

    @property
    def interval(self):
        return self.cause.batch_row

    def __str__(self):
        return f"evaluation failed on interval {self.interval}: {self.cause}"


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
