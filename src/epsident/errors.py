"""Semantic exception hierarchy.

Public operations never raise bare ValueError for domain problems; every
failure mode a caller might want to branch on gets its own class.
"""

from __future__ import annotations


class EpsidentError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(EpsidentError, ValueError):
    """Inputs violate a distribution contract (range, mass, field types)."""


class EmptyInterval(EpsidentError, ValueError):
    """An interval would have lo > hi."""


class MissingData(EpsidentError):
    """An operation needs data atoms that were not supplied.

    The missing atom names are available as ``.missing``.
    """

    def __init__(self, missing: list[str] | tuple[str, ...], context: str = ""):
        self.missing = tuple(missing)
        msg = f"missing data atoms: {', '.join(self.missing)}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ZeroArm(EpsidentError):
    """An experimental study arm has zero subjects."""


class ZeroDenominator(EpsidentError):
    """A ratio bound's denominator cell is zero."""


class Incompatible(EpsidentError):
    """Experimental and observational data admit no common model."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "experimental and observational data are incompatible: "
            + "; ".join(str(v) for v in self.violations)
        )


class MonotonicityRefuted(EpsidentError):
    """Data contradict the assumed monotone (no-harm) response pattern."""


class EmptyStratum(EpsidentError):
    """A conditional probability is undefined on a required stratum."""


class Infeasible(EpsidentError):
    """No response-type joint distribution matches the supplied data."""


class Unsupported(EpsidentError):
    """The oracle cannot express the target under the supplied data."""


class ParseError(EpsidentError, ValueError):
    """An input file (JSON schema or counts CSV) is malformed."""
