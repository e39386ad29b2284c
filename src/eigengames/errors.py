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
    """A parent's generalized Rayleigh quotient is too close to zero to divide by."""


class NormalizationError(EigenGamesError):
    """A vector that must be unit norm is not."""


class DivergenceError(EigenGamesError):
    """An update produced a (near-)zero vector that cannot be renormalized."""


class NumericalOverflowError(EigenGamesError):
    """A utility or gradient evaluation stopped being finite."""


class DimensionMismatchError(EigenGamesError):
    """Operands act on different qubit counts or vector lengths."""


class BindingError(EigenGamesError):
    """Parameter vector length does not match the ansatz layout."""


class InvalidShotCountError(EigenGamesError):
    """Shot counts must be positive when finite."""


class NonConvergenceError(EigenGamesError):
    """A solver exhausted its iteration budget without meeting tolerance."""


class ConfigError(EigenGamesError):
    """A run configuration is missing, malformed, or inconsistent."""
