"""Exception types shared across the library, and the whole-number and real-number rules that raise them."""

import math

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


def real_number(name: str, value, sign: str | None = None, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number of the given ``sign``.

    The one check of every tolerance, step, weight and bound input the
    library reads.  A real number is a Python or NumPy int or float; ``True``,
    ``np.True_``, complex numbers, strings and arrays are not.  ``sign`` is
    ``None`` (any finite value), ``"non-negative"`` or ``"positive"``.  The
    value is checked, not converted.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    finite = real and -math.inf < value < math.inf  # NaN fails; math.isfinite raises on a huge int
    if not finite or (sign == "positive" and value <= 0) or (sign == "non-negative" and value < 0):
        rule = {None: "finite", "non-negative": "non-negative and finite", "positive": "positive and finite"}[sign]
        raise error(f"{name} must be {rule}, got {value!r}")
