"""Exception types shared across the library, and the one whole-number rule that raises them."""

import numpy as np


class EigenGamesError(Exception):
    """Base class for all library-specific errors."""


class InvalidDimensionError(EigenGamesError):
    """Matrix or register dimension is unusable (zero, negative, too small)."""


class HermiticityError(EigenGamesError):
    """Matrix is not Hermitian within tolerance."""


class MalformedPauliError(EigenGamesError):
    """Pauli strings are inconsistent (mixed lengths, illegal characters)."""


class PauliFormatError(EigenGamesError):
    """A Pauli-sum text file failed to parse; message carries the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DegenerateParentError(EigenGamesError):
    """A parent's penalty denominator cannot be divided by.

    Its generalized Rayleigh quotient is too close to zero, or, for the
    quantum game's shifted operator, not positive, which would turn the
    parent's penalty into a reward.  The error-accumulation bounds raise it
    too when a true parent's Rayleigh quotient is near zero or does not have
    lambda_top's sign, where their factor lambda_top / lambda_jj would turn
    the bound negative.
    """


class NormalizationError(EigenGamesError):
    """A vector that must be unit norm is not."""


class NumericalOverflowError(EigenGamesError):
    """A utility or gradient evaluation stopped being finite."""


class DimensionMismatchError(EigenGamesError):
    """Operands act on different qubit counts or vector lengths."""


class BindingError(EigenGamesError):
    """Parameter vector length does not match the ansatz layout."""


class InvalidShotCountError(EigenGamesError):
    """Shot counts must be positive when finite."""


class ConfigError(EigenGamesError):
    """A run configuration is missing, malformed, or inconsistent."""


def whole_number(name: str, value, minimum: int = 1, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a whole number of at least ``minimum``.

    The one check of every count and seed the library reads.  A whole
    number is a Python or NumPy integer.  ``True`` is not one, although
    Python counts it as an ``int``, and neither is ``np.True_`` or a float
    such as 2.0.  ``minimum=0`` is phrased "a non-negative integer".
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"a whole number of at least {minimum}"
        raise error(f"{name} must be {rule}, got {value!r}")
