"""Exception hierarchy.

Every error carries a short stable ``code`` string suitable for CLI
diagnostics and for matching in scripts.
"""

from __future__ import annotations


class KaenmakiError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def __init__(self, message: str = ""):
        self.message = message
        super().__init__(f"{self.code}: {message}" if message else self.code)


class MalformedConfig(KaenmakiError):
    code = "MalformedConfig"


class NonContracting(KaenmakiError):
    code = "NonContracting"


class SquareEscape(KaenmakiError):
    code = "SquareEscape"


class NoAntiDiagonal(KaenmakiError):
    code = "NoAntiDiagonal"


class NoDiagonal(KaenmakiError):
    code = "NoDiagonal"


class BadShape(KaenmakiError):
    code = "BadShape"


class SOutOfRange(KaenmakiError):
    code = "SOutOfRange"


class ConvergenceFailure(KaenmakiError):
    code = "ConvergenceFailure"


class TooLarge(KaenmakiError):
    code = "TooLarge"


class BadMapKinds(KaenmakiError):
    code = "BadMapKinds"


class InternalMismatch(KaenmakiError):
    code = "InternalMismatch"


class NoCertificate(KaenmakiError):
    code = "NoCertificate"


class MissingValue(KaenmakiError):
    code = "MissingValue"


class TooFewHits(KaenmakiError):
    code = "TooFewHits"


class IoFailure(KaenmakiError):
    code = "IoFailure"


class DegenerateSystemWarning(UserWarning):
    """All diagonal maps have equal contraction ratios (a_i == b_i)."""
