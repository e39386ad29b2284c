"""Exception types shared across the library, and the whole-number, real-number, unit-norm and parent-denominator
rules that raise them."""

import math

import numpy as np

# Every parent penalty denominator must exceed this times its operator's scale (``parent_denominators``).
PARENT_DENOMINATOR_FLOOR = 1e-10


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

    It is at most ``PARENT_DENOMINATOR_FLOOR`` times its operator's scale,
    or NaN: a denominator at or below zero would turn the parent's penalty
    into a reward (``parent_denominators``).  The error-accumulation bounds
    apply the same rule to a true parent's Rayleigh quotient times the sign
    of lambda_top, where a quotient near zero or of the other sign would
    turn their factor lambda_top / lambda_jj, and the bound, negative.
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


def unit_norm(name: str, squared_norms, atol: float) -> None:
    """Raise ``NormalizationError`` unless every norm whose square is in ``squared_norms`` lies within ``atol`` of 1.

    The one unit-norm check of every state and vector the library reads.
    ``squared_norms`` holds the real squared norms of one vector (0-d) or of
    a block's rows (1-d), and each must satisfy |sqrt(s) - 1| <= atol, for
    an ``atol`` below 1; NaN and inf fail, and an empty block passes.  The
    test compares the squares with (1 -+ atol)^2 in two reductions and
    converts nothing, so a norm exactly at the boundary is accepted or
    rejected as its square rounds.  The message names the input, the worst
    deviation and ``atol``.
    """
    if not ((1.0 - atol) ** 2 <= np.minimum.reduce(squared_norms, initial=math.inf)
            and np.maximum.reduce(squared_norms, initial=-math.inf) <= (1.0 + atol) ** 2):  # NaN fails too
        worst = np.maximum.reduce(np.abs(np.sqrt(squared_norms) - 1.0))
        raise NormalizationError(f"{name} must be unit norm within {atol!r}, off by {worst:.3g}")


def parent_denominators(denominators, cause: str, scale: float = 1.0) -> None:
    """Raise ``DegenerateParentError`` unless every penalty denominator exceeds ``PARENT_DENOMINATOR_FLOOR * scale``.

    The one rule of both games' penalties, each of which divides by its
    parents' eigenvalues on the operator it ascends: the classical game
    matrix by each parent's Rayleigh quotient v_j^T A v_j, on the scale of
    A's largest entry, the quantum game objective by sign*lambda_j + offset,
    on scale 1 (its shift margin is at least 1).  ``denominators`` is a 1-d
    array of them; zero, a negative value and NaN fail whatever the scale,
    and an empty array passes.  The message names the smallest denominator
    and ``cause``, what a failing one means for its game.
    """
    if not (denominators > PARENT_DENOMINATOR_FLOOR * scale).all():  # a NaN fails too
        raise DegenerateParentError(f"parent penalty denominator {np.min(denominators):.3e} is not positive: {cause}")
