"""Core data types, validation, and ingestion from raw study counts.

Conventions for binary treatment X and outcome Y:

* ``x`` / ``x'``  -- treated / untreated,
* ``y`` / ``y'``  -- positive / negative outcome,
* ``P(y_x)``      -- probability of a positive outcome under do(X=x),
* ``P(x,y)``      -- observational joint cell.

Every field is individually optional: partial data is first class, and each
operation declares which atoms it needs.  All types are immutable after
construction and all operations are pure, so everything here is safe for
concurrent use.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Literal

from .config import get_tolerance
from .errors import (
    InvalidDistribution,
    MissingData,
    ParseError,
    ZeroArm,
)
from .forms import QUANTITY_LABELS
from .interval import Interval

__all__ = [
    "ExperimentalDistribution",
    "ObservationalDistribution",
    "StudyCounts",
    "Assumptions",
    "ConfounderSpec",
    "InputData",
    "Condition",
    "EpsIdentification",
    "from_counts",
    "check_compatibility",
    "CompatibilityReport",
    "Violation",
    "Effect",
    "EFFECTS",
    "parse_input_json",
    "parse_counts_csv",
]

@dataclass(frozen=True, slots=True)
class Effect:
    """One causal effect P(o_t) and the data atoms that bound it.

    P(t,o) <= P(o_t) <= 1 - P(t,o') (Tian & Pearl 2000), an interval of
    width P(t-complement), the opposite-arm marginal.
    """

    variant: str
    treatment: str
    outcome: str
    attribute: str  # ExperimentalDistribution attribute holding P(o_t)
    cell: str  # P(t,o)
    complement: str  # P(t,o')
    opposite_marginal: str  # P(t-complement)

    @property
    def label(self) -> str:
        return QUANTITY_LABELS[self.attribute]


#: effect variant token -> :class:`Effect`, in display order
EFFECTS: dict[str, Effect] = {
    e.variant: e
    for e in (
        Effect("y_x", "x", "y", "p_y_do_x", "p_xy", "p_xyp", "p_xp"),
        Effect("yp_x", "x", "y'", "p_yp_do_x", "p_xyp", "p_xy", "p_xp"),
        Effect("y_xp", "x'", "y", "p_y_do_xp", "p_xpy", "p_xpyp", "p_x"),
        Effect("yp_xp", "x'", "y'", "p_yp_do_xp", "p_xpyp", "p_xpy", "p_x"),
    )
}


def _check_prob(value: float | None, name: str) -> float | None:
    if value is None:
        return None
    v = float(value)
    if not math.isfinite(v) or v < -get_tolerance() or v > 1.0 + get_tolerance():
        raise InvalidDistribution(f"{name} must be a probability in [0,1], got {value!r}")
    return min(max(v, 0.0), 1.0)


def _check_probs(record, names) -> None:
    """Validate and clamp the named probability fields of a frozen record."""
    for name in names:
        object.__setattr__(record, name, _check_prob(getattr(record, name), name))


def _set_fields(record) -> dict:
    """The fields of a slotted record that are set, in declaration order."""
    return {name: value for name in record.__slots__ if (value := getattr(record, name)) is not None}


@dataclass(frozen=True, slots=True)
class ExperimentalDistribution:
    """Causal-effect probabilities P(y_x) and P(y_{x'}); either may be absent."""

    p_y_do_x: float | None = None
    p_y_do_xp: float | None = None

    def __post_init__(self) -> None:
        _check_probs(self, self.__slots__)

    @property
    def p_yp_do_x(self) -> float | None:
        return None if self.p_y_do_x is None else 1.0 - self.p_y_do_x

    @property
    def p_yp_do_xp(self) -> float | None:
        return None if self.p_y_do_xp is None else 1.0 - self.p_y_do_xp

    @property
    def is_complete(self) -> bool:
        return self.p_y_do_x is not None and self.p_y_do_xp is not None

    def to_json_dict(self) -> dict:
        return _set_fields(self)


@dataclass(frozen=True, slots=True)
class ObservationalDistribution:
    """Joint P(X,Y) cells; each cell optional, present cells must fit in one unit of mass."""

    p_xy: float | None = None
    p_xyp: float | None = None
    p_xpy: float | None = None
    p_xpyp: float | None = None

    def __post_init__(self) -> None:
        _check_probs(self, self.__slots__)
        present = _set_fields(self)
        total = sum(present.values())
        tol = get_tolerance()
        if len(present) == len(CELL_NAMES):
            if abs(total - 1.0) > tol:
                raise InvalidDistribution(f"joint cells must sum to 1, got {total!r}")
        elif total > 1.0 + tol:
            raise InvalidDistribution(f"present joint cells exceed unit mass: {total!r}")

    def cell(self, name: str) -> float | None:
        return getattr(self, name)

    @property
    def is_complete(self) -> bool:
        return all(getattr(self, n) is not None for n in CELL_NAMES)

    def _pair_sum(self, a: str, b: str) -> float | None:
        va, vb = getattr(self, a), getattr(self, b)
        if va is None or vb is None:
            return None
        return va + vb

    @property
    def p_x(self) -> float | None:
        return self._pair_sum("p_xy", "p_xyp")

    @property
    def p_xp(self) -> float | None:
        return self._pair_sum("p_xpy", "p_xpyp")

    @property
    def p_y(self) -> float | None:
        return self._pair_sum("p_xy", "p_xpy")

    @property
    def p_yp(self) -> float | None:
        return self._pair_sum("p_xyp", "p_xpyp")

    @property
    def p_y_given_x(self) -> float | None:
        px = self.p_x
        if px is None or self.p_xy is None or px <= get_tolerance():
            return None
        return self.p_xy / px

    def to_json_dict(self) -> dict:
        return _set_fields(self)


CELL_NAMES = ObservationalDistribution.__slots__


@dataclass(frozen=True, slots=True)
class StudyCounts:
    """Raw 2x2 study counts, either from a randomized or an observational design."""

    n_treated_recovered: int
    n_treated_not: int
    n_untreated_recovered: int
    n_untreated_not: int
    kind: Literal["experimental", "observational"]

    def __post_init__(self) -> None:
        for name in (
            "n_treated_recovered",
            "n_treated_not",
            "n_untreated_recovered",
            "n_untreated_not",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidDistribution(f"{name} must be a non-negative integer, got {v!r}")
        if self.kind not in ("experimental", "observational"):
            raise InvalidDistribution(f"kind must be experimental|observational, got {self.kind!r}")
        if self.total == 0:
            raise InvalidDistribution("study must contain at least one subject")

    @property
    def total(self) -> int:
        return (
            self.n_treated_recovered
            + self.n_treated_not
            + self.n_untreated_recovered
            + self.n_untreated_not
        )


@dataclass(frozen=True, slots=True)
class Assumptions:
    """Externally asserted upper bounds on marginals, usable without joint data.

    A bound like ``p_y_max=0.05`` states P(y) <= 0.05.  Bounds participate in
    identification conditions exactly like measured quantities, on the side
    of the inequality where an upper bound is sound.
    """

    p_x_max: float | None = None
    p_xp_max: float | None = None
    p_y_max: float | None = None
    p_yp_max: float | None = None

    def __post_init__(self) -> None:
        _check_probs(self, self.__slots__)

    @property
    def is_empty(self) -> bool:
        return not _set_fields(self)

    def to_json_dict(self) -> dict:
        return _set_fields(self)


@dataclass(frozen=True, slots=True)
class ConfounderSpec:
    """Ingestion record for the single-binary-confounder scenario.

    ``p_x`` and ``p_y_given_x`` may be omitted when derivable from the
    observational joint; ``c`` is an explicit slack constant or None for
    automatic maximization.
    """

    u_max: float
    p_x: float | None = None
    p_y_given_x: float | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        _check_probs(self, [name for name in self.__slots__ if name != "c"])
        if self.c is not None:
            c = float(self.c)
            if not math.isfinite(c) or c <= 0:
                raise InvalidDistribution(f"c must be a positive number, got {self.c!r}")
            object.__setattr__(self, "c", c)

    def to_json_dict(self) -> dict:
        return _set_fields(self)


@dataclass(frozen=True, slots=True)
class InputData:
    """One parsed input file: any subset of the four sections."""

    experimental: ExperimentalDistribution | None = None
    observational: ObservationalDistribution | None = None
    assumptions: Assumptions | None = None
    confounder: ConfounderSpec | None = None

    def to_json_dict(self) -> dict:
        sections = _set_fields(self)
        if self.assumptions is not None and self.assumptions.is_empty:
            del sections["assumptions"]
        return {name: record.to_json_dict() for name, record in sections.items()}


@dataclass(frozen=True, slots=True)
class Condition:
    """Structured description of a fired (or reported) identification premise."""

    entry_id: str
    premise: str
    premise_value: float
    threshold: str
    threshold_value: float
    center: str

    def to_json_dict(self) -> dict:
        return _set_fields(self)


@dataclass(frozen=True, slots=True)
class EpsIdentification:
    """A certified statement: the target lies within [q - eps, q + eps].

    ``certified`` is the raw radius-eps interval around the center; use
    :meth:`certified_clamped` for probability-valued targets.
    """

    quantity: str
    q: float
    eps: float
    condition: Condition
    certified: Interval = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.q):
            raise InvalidDistribution(f"center must be finite, got {self.q!r}")
        if not (self.eps >= 0.0):
            raise InvalidDistribution(f"radius must be >= 0, got {self.eps!r}")
        object.__setattr__(self, "certified", Interval(self.q - self.eps, self.q + self.eps))

    def certified_clamped(self) -> Interval:
        return self.certified.clamped(0.0, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "q": self.q,
            "eps": self.eps,
            "condition": self.condition.to_json_dict(),
            "certified": [self.certified.lo, self.certified.hi],
        }


def from_counts(counts: StudyCounts) -> ExperimentalDistribution | ObservationalDistribution:
    """Turn raw 2x2 study counts into the matching distribution.

    Experimental counts yield per-arm recovery rates; observational counts
    yield the four joint cells.  Raises :class:`ZeroArm` when an experimental
    arm is empty.
    """
    if counts.kind == "experimental":
        treated = counts.n_treated_recovered + counts.n_treated_not
        untreated = counts.n_untreated_recovered + counts.n_untreated_not
        empty = [name for name, n in (("treated", treated), ("untreated", untreated)) if n == 0]
        if empty:
            raise ZeroArm(f"experimental arm(s) with zero subjects: {', '.join(empty)}")
        return ExperimentalDistribution(
            p_y_do_x=counts.n_treated_recovered / treated,
            p_y_do_xp=counts.n_untreated_recovered / untreated,
        )
    total = counts.total
    return ObservationalDistribution(
        p_xy=counts.n_treated_recovered / total,
        p_xyp=counts.n_treated_not / total,
        p_xpy=counts.n_untreated_recovered / total,
        p_xpyp=counts.n_untreated_not / total,
    )


@dataclass(frozen=True, slots=True)
class Violation:
    """One violated consistency constraint, with the witnessed gap."""

    constraint: str
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    def __str__(self) -> str:
        return f"{self.constraint} fails ({self.lhs:.6g} > {self.rhs:.6g})"


class CompatibilityReport:
    """Result of the cross-dataset consistency check.

    Iterating the report yields its violations, so an empty report means the
    data are compatible.  Constraints that could not be evaluated for lack of
    data are listed in ``not_evaluated``.
    """

    def __init__(self, violations: list[Violation], not_evaluated: list[str]):
        self.violations = list(violations)
        self.not_evaluated = list(not_evaluated)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __bool__(self) -> bool:
        return bool(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "violations": [
                {"constraint": v.constraint, "lhs": v.lhs, "rhs": v.rhs} for v in self.violations
            ],
            "not_evaluated": list(self.not_evaluated),
        }


def check_compatibility(
    exp: ExperimentalDistribution | None,
    obs: ObservationalDistribution | None,
) -> CompatibilityReport:
    """Check every instance of P(t,o) <= P(o_t) <= 1 - P(t,o') across the four
    (treatment, outcome) variants.

    Absent atoms skip the corresponding inequality (reported in
    ``not_evaluated``); nothing is raised here so that diagnosis stays
    separate from refusal.
    """
    tol = get_tolerance()
    violations: list[Violation] = []
    skipped: list[str] = []
    for e in EFFECTS.values():
        joint = None if obs is None else obs.cell(e.cell)
        comp = None if obs is None else obs.cell(e.complement)
        eff = None if exp is None else getattr(exp, e.attribute)
        lower_label = f"{QUANTITY_LABELS[e.cell]} <= {e.label}"
        if joint is None or eff is None:
            skipped.append(lower_label)
        elif joint > eff + tol:
            violations.append(Violation(lower_label, joint, eff))
        upper_label = f"{e.label} <= 1 - {QUANTITY_LABELS[e.complement]}"
        if comp is None or eff is None:
            skipped.append(upper_label)
        elif eff > 1.0 - comp + tol:
            violations.append(Violation(upper_label, eff, 1.0 - comp))

    return CompatibilityReport(violations, skipped)


# --------------------------------------------------------------------------
# Ingestion: JSON schema and counts CSV
# --------------------------------------------------------------------------


def parse_input_json(obj: object) -> InputData:
    """Parse the canonical input mapping.

    Expected shape (every section and key optional)::

        {"experimental": {"p_y_do_x": .., "p_y_do_xp": ..},
         "observational": {"p_xy": .., "p_xyp": .., "p_xpy": .., "p_xpyp": ..},
         "assumptions": {"p_x_max": .., "p_xp_max": .., "p_y_max": .., "p_yp_max": ..},
         "confounder": {"u_max": .., "p_x": .., "p_y_given_x": .., "c": ..}}

    Absent keys mean unknown.  Unknown keys raise :class:`ParseError`.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"input must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(InputData.__slots__)
    if unknown:
        raise ParseError(f"unknown input sections: {', '.join(sorted(unknown))}")

    def section(name: str, allowed: tuple[str, ...]) -> dict | None:
        raw = obj.get(name)
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ParseError(f"section {name!r} must be an object")
        bad = set(raw) - set(allowed)
        if bad:
            raise ParseError(f"unknown keys in {name!r}: {', '.join(sorted(bad))}")
        for key, value in raw.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParseError(f"{name}.{key} must be a number, got {value!r}")
        return raw

    try:
        exp_raw = section("experimental", ExperimentalDistribution.__slots__)
        obs_raw = section("observational", CELL_NAMES)
        assume_raw = section("assumptions", Assumptions.__slots__)
        conf_raw = section("confounder", ConfounderSpec.__slots__)
        experimental = ExperimentalDistribution(**exp_raw) if exp_raw else None
        observational = ObservationalDistribution(**obs_raw) if obs_raw else None
        assumptions = Assumptions(**assume_raw) if assume_raw else None
        confounder = None
        if conf_raw is not None:
            if "u_max" not in conf_raw:
                raise ParseError("confounder section requires u_max")
            confounder = ConfounderSpec(**conf_raw)
    except InvalidDistribution as exc:
        raise ParseError(str(exc)) from exc
    return InputData(experimental, observational, assumptions, confounder)


_CSV_ARMS = {"treated", "untreated"}
_CSV_OUTCOMES = {"positive", "negative"}


def parse_counts_csv(text: str, kind: Literal["experimental", "observational"]) -> StudyCounts:
    """Parse the ``arm,outcome,count`` counts format.

    ``arm`` is treated|untreated and ``outcome`` is positive|negative; an
    optional header row is skipped; repeated (arm, outcome) rows accumulate.
    """
    totals = {(a, o): 0 for a in _CSV_ARMS for o in _CSV_OUTCOMES}
    seen_any = False
    reader = csv.reader(io.StringIO(text))
    for i, row in enumerate(reader):
        if not row or all(not f.strip() for f in row):
            continue
        fields = [f.strip().lower() for f in row]
        if i == 0 and fields[:3] == ["arm", "outcome", "count"]:
            continue
        if len(fields) != 3:
            raise ParseError(f"row {i + 1}: expected arm,outcome,count, got {row!r}")
        arm, outcome, count_raw = fields
        if arm not in _CSV_ARMS:
            raise ParseError(f"row {i + 1}: unknown arm {arm!r}")
        if outcome not in _CSV_OUTCOMES:
            raise ParseError(f"row {i + 1}: unknown outcome {outcome!r}")
        try:
            count = int(count_raw)
        except ValueError as exc:
            raise ParseError(f"row {i + 1}: count must be an integer, got {count_raw!r}") from exc
        if count < 0:
            raise ParseError(f"row {i + 1}: count must be non-negative, got {count}")
        totals[(arm, outcome)] += count
        seen_any = True
    if not seen_any:
        raise ParseError("counts CSV contains no data rows")
    try:
        return StudyCounts(
            n_treated_recovered=totals[("treated", "positive")],
            n_treated_not=totals[("treated", "negative")],
            n_untreated_recovered=totals[("untreated", "positive")],
            n_untreated_not=totals[("untreated", "negative")],
            kind=kind,
        )
    except InvalidDistribution as exc:
        raise ParseError(str(exc)) from exc


def require_atoms(
    exp: ExperimentalDistribution | None,
    obs: ObservationalDistribution | None,
    atoms: tuple[str, ...],
    context: str,
) -> dict[str, float]:
    """Collect required atom values, raising :class:`MissingData` with the
    names of every absent atom."""
    values: dict[str, float] = {}
    missing: list[str] = []
    for atom in atoms:
        if atom in ExperimentalDistribution.__slots__:
            v = getattr(exp, atom) if exp is not None else None
        elif atom in CELL_NAMES:
            v = obs.cell(atom) if obs is not None else None
        else:  # pragma: no cover - internal contract
            raise KeyError(atom)
        if v is None:
            missing.append(atom)
        else:
            values[atom] = v
    if missing:
        raise MissingData(missing, context)
    return values
