"""Shared sentinels and error types."""


class Infinity:
    """Sentinel for the point at infinity of the projective line.

    Used as a branch value of covers and as the j-invariant of singular
    Weierstrass data.  A single shared instance ``INFINITY`` exists.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def to_json(self):
        return {"infinity": True}


INFINITY = Infinity()


class FieldInputError(ValueError):
    """An int or hex string that names no element of the requested field."""


class VerificationError(Exception):
    """A claimed identity failed an exact check."""


class PrecisionError(VerificationError):
    """A series window is shorter than the proven bound it must reach."""


class FiberEscapeError(VerificationError):
    """A fiber has points outside the working field; the leftover factor is reported."""

    def __init__(self, message, leftover=None):
        super().__init__(message)
        self.leftover = leftover


class ProfileFalsified(VerificationError):
    """Ramification accounting contradicts the claimed branch locus."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TorsionSearchExhausted(VerificationError):
    """The torsion search ran out of trials; the message gives how many."""
