"""Closed real intervals used for bound results."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import get_tolerance
from .errors import EmptyInterval

__all__ = ["Interval"]

# sets a field of a frozen record, once, from its own constructor
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """A closed interval [lo, hi].

    Construction raises :class:`EmptyInterval` when lo > hi beyond the
    global tolerance; excursions within tolerance are snapped to a point.
    The constructor validates first and then sets each field once.
    """

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EmptyInterval(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            if lo - hi > get_tolerance():
                raise EmptyInterval(f"lo={lo} exceeds hi={hi}")
            mid = 0.5 * (lo + hi)
            lo = hi = mid
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float, tol: float | None = None) -> bool:
        t = get_tolerance() if tol is None else tol
        return self.lo - t <= value <= self.hi + t

    def contains_interval(self, other: "Interval", tol: float | None = None) -> bool:
        t = get_tolerance() if tol is None else tol
        return self.lo - t <= other.lo and other.hi <= self.hi + t

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def clamped(self, lo: float = 0.0, hi: float = 1.0) -> "Interval":
        """Intersection with [lo, hi], for probability-valued quantities."""
        return Interval(max(self.lo, lo), min(self.hi, hi))

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __iter__(self):
        yield self.lo
        yield self.hi

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"
