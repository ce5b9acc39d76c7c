"""Exception hierarchy shared by all epchain modules."""


class EpchainError(Exception):
    """Base class for all epchain errors."""


class DimensionMismatch(EpchainError):
    """Operands live in different spaces (basis or dimension differ)."""


class NonConvergence(EpchainError):
    """The iterative eigensolver failed; the matrix is pathological."""


class DimensionCap(EpchainError):
    """Requested full-space dimension exceeds the 2^12 build cap."""


class SectorNotInvariant(EpchainError):
    """Matrix does not commute with the total spin-z operator."""


class OddNForW(UserWarning):
    """W-state self-orthogonality only holds for even chain length."""


class NoRoot(EpchainError):
    """Transcendental equation has no root in the admissible range."""


class NoBracket(EpchainError):
    """Root-finder found no sign change over the search interval."""


class ValidationMismatch(EpchainError):
    """Closed-form boundary disagrees with the numeric-scan oracle."""


class NullSpaceRankError(EpchainError):
    """Null space is not one-dimensional to working accuracy."""


class DegenerateOmega(EpchainError):
    """A denominator of the effective-model sums is (near) zero."""


class NoDominantState(EpchainError):
    """No unique eigenvalue of strictly maximal imaginary part."""


class NoTransition(EpchainError):
    """No symmetry-breaking transition found for gamma <= 10."""


class ConfigError(EpchainError):
    """Invalid command-line or run configuration value."""
