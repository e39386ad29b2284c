"""Exception types shared across the library."""


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
