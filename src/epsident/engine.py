"""Near-point identification engine.

Scans the generated condition catalogs against whatever data are available.
A condition fires when its premise is certified, i.e. when the premise's
largest possible value given the supplied atoms and asserted marginal bounds
is within the firing limit of the threshold.  A fired condition reports a
center q whose value must be exactly computable; the certificate is that the
target lies in [q - eps, q + eps] for every model consistent with the data.

Partial data shrink the evaluated set: entries whose premise involves a
quantity carrying no information at all, or whose center is not exactly
computable, are reported as not evaluated rather than silently dropped.

Only the threshold depends on eps.  A scan is therefore split in two: a
profile, built once per target, dataset and tolerance, holds each evaluated
entry's premise value and center and the not-evaluated records; its
``at(eps)`` compares the premise values with the firing limit of
``2*eps*den`` and builds the report, whose tightest entry is the first that
fires.  The effect scan is split the same way: each variant's checked cell
value, marginal bound and labels are computed once.  Profiles, effect scans
and ranges are stored in the dataset's memo, :func:`epsident.bounds._facts`,
so a sweep over radii pays for one scan; a build that raises stores
nothing, so a refusal is raised on every call.
Which entries a dataset evaluates, and the records of those it cannot,
depend only on its pattern of informative and exact quantities: a plan per
target and pattern holds them, so each profile only does its arithmetic.
The plan also holds the records' JSON, built once as a read-only
:class:`~epsident.report.Fragment` that every report of the pattern shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import catalog
from .bounds import _facts, effect_bounds, refuse_incompatible, target_bounds
from .config import get_tolerance
from .distributions import (
    EFFECTS,
    Assumptions,
    Condition,
    EpsIdentification,
    ExperimentalDistribution,
    NotIdentified,
    ObservationalDistribution,
    certify,
    check_eps,
    check_unit,
    firing_limit,
    present_atoms,
)
from .errors import EmptyInterval, Incompatible, InvalidDistribution
from .forms import (
    CELL_ATOMS,
    COMPLEMENTS,
    EXP_ATOMS,
    ONE_MINUS,
    QUANTITIES,
    QUANTITY_ATOMS,
    QUANTITY_LABELS,
)
from .interval import Interval
from .report import Fragment

__all__ = [
    "QuantityRanges",
    "NotIdentified",
    "NotEvaluated",
    "EpsReport",
    "eps_identify",
    "eps_identify_pns",
    "eps_identify_pn",
    "eps_identify_ps",
    "eps_identify_effect",
    "eps_identify_effects",
    "EffectScan",
    "minimal_epsilon",
]

_EXACT = 1e-12


class QuantityRanges:
    """Value intervals for every named quantity, from partial data plus bounds.

    Present atoms give exact (degenerate) intervals.  Absent joint cells are
    bracketed by the unassigned mass; marginals use the fact that missing
    mass can concentrate inside or outside them; asserted marginal bounds
    intersect in, on both a marginal and its complement.  A quantity is
    ``informative`` when its interval is narrower than the vacuous [0,1].
    Each range is kept as a checked ``(lo, hi)`` pair; :meth:`interval`
    builds its :class:`Interval` on demand.
    """

    def __init__(
        self,
        exp: ExperimentalDistribution | None = None,
        obs: ObservationalDistribution | None = None,
        assumptions: Assumptions | None = None,
    ) -> None:
        iv: dict[str, tuple[float, float]] = {}
        tol = get_tolerance()

        def put(name: str, lo: float, hi: float) -> None:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if lo > hi + tol:
                raise Incompatible(
                    [f"{QUANTITY_LABELS[name]} constrained to empty range [{lo:.6g}, {hi:.6g}]"]
                )
            lo = min(lo, hi)
            # false for nan and inf, which an Interval refuses
            if not -math.inf < lo <= hi < math.inf:
                raise EmptyInterval(f"interval endpoints must be finite, got [{lo}, {hi}]")
            iv[name] = (lo, hi)

        # an absent arm can take any value; absent cells share the free mass
        present = present_atoms(exp, obs)
        free = max(0.0, 1.0 - sum(present[c] for c in CELL_ATOMS if c in present))
        slack = dict.fromkeys(EXP_ATOMS, 1.0) | dict.fromkeys(CELL_ATOMS, free)
        for name in QUANTITIES:
            lo, missing = 0.0, None
            for atom in QUANTITY_ATOMS[name]:
                if atom in present:
                    lo += present[atom]
                else:
                    missing = atom
            hi = lo if missing is None else lo + slack[missing]
            if name in ONE_MINUS:
                lo, hi = 1.0 - hi, 1.0 - lo
            put(name, lo, hi)

        for field, ub in present_atoms(assumptions).items():
            name = field.removesuffix("_max")
            comp = COMPLEMENTS[name]
            lo, hi = iv[name]
            put(name, lo, min(hi, ub))
            lo, hi = iv[comp]
            put(comp, max(lo, 1.0 - ub), hi)
            # a marginal bound also caps its member cells
            for cell in QUANTITY_ATOMS[name]:
                lo, hi = iv[cell]
                put(cell, lo, min(hi, ub))

        self._iv = iv

    def interval(self, name: str) -> Interval:
        return Interval(*self._iv[name])

    def exact(self, name: str) -> float | None:
        lo, hi = self._iv[name]
        return 0.5 * (lo + hi) if hi - lo <= _EXACT else None

    def informative(self, name: str) -> bool:
        lo, hi = self._iv[name]
        tol = get_tolerance()
        return lo > tol or hi < 1.0 - tol or hi - lo <= _EXACT

    @cached_property
    def _pattern(self) -> tuple[tuple[bool, bool], ...]:
        """What the dataset says of each quantity, in :data:`QUANTITIES` order:
        whether it is informative and whether it is exact.  This alone decides
        which catalog entries the data evaluate.  It is read once, under the
        tolerance in force then; the ranges are stored in their dataset's
        memo, keyed by tolerance, so every target's profile shares it."""
        return tuple((self.informative(name), self.exact(name) is not None) for name in QUANTITIES)

    def upper_value(self, terms) -> float:
        """Largest possible value of a signed sum of quantities (conservative:
        treats quantities as independent, which can only loosen, never break,
        a premise certificate)."""
        total = 0.0
        for coef, name in terms:
            lo, hi = self._iv[name]
            total += coef * (hi if coef > 0 else lo)
        return total

    def exact_value(self, terms) -> float | None:
        total = 0.0
        for coef, name in terms:
            v = self.exact(name)
            if v is None:
                return None
            total += coef * v
        return total


@dataclass(frozen=True, slots=True)
class NotEvaluated:
    """A condition skipped because data atoms are missing."""

    entry_id: str
    premise: str
    center: str
    missing: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "premise": self.premise,
            "center": self.center,
            "missing": self.missing,
        }


@dataclass(frozen=True, slots=True)
class EpsReport:
    """Everything the pair-scan produced for one quantity at one radius.

    ``tightest`` is the first fired entry in catalog order.  Fired intervals
    share the width ``2*eps`` and on full data each sound one contains the
    tight bounds, so cut to them all tie: it is also the narrowest."""

    quantity: str
    eps: float
    fired: tuple[EpsIdentification, ...]
    tightest: EpsIdentification | None
    not_evaluated: tuple[NotEvaluated, ...]
    # the JSON of ``not_evaluated``; a scan passes its plan's, which every
    # report of that target and data pattern shares
    not_evaluated_json: Fragment | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        """The report as JSON values; ``"not_evaluated"`` is a read-only
        :class:`~epsident.report.Fragment`, shared with other reports."""
        skipped = self.not_evaluated_json
        return {
            "quantity": self.quantity,
            "eps": self.eps,
            "fired": [f.to_json_dict() for f in self.fired],
            "tightest": None if self.tightest is None else self.tightest.to_json_dict(),
            "not_evaluated": _fragment(self.not_evaluated) if skipped is None else skipped,
        }


def _fragment(skipped) -> Fragment:
    return Fragment(map(NotEvaluated.to_json_dict, skipped))


class _Profile:
    """The eps-free part of one catalog scan: each evaluated entry's premise
    value and center, and every not-evaluated record with its JSON."""

    def __init__(self, quantity, den, evaluated, skipped, skipped_json) -> None:
        self.quantity, self.den, self.evaluated = quantity, den, evaluated
        self.skipped, self.skipped_json = skipped, skipped_json

    def at(self, eps: float) -> EpsReport:
        """The scan's report at radius ``eps``: an entry fires when its premise
        value is at most the firing limit of the threshold ``2*eps*den``."""
        threshold = 2.0 * eps * self.den
        limit = firing_limit(2.0 * self.den, eps)
        fired: list[EpsIdentification] = []
        for premise_value, center, sign, entry_id, premise, threshold_label, center_label \
                in self.evaluated:
            if premise_value > limit:
                continue
            condition = Condition(
                entry_id, premise, premise_value, threshold_label, threshold, center_label
            )
            fired.append(EpsIdentification(self.quantity, center + sign * eps, eps, condition))
        return EpsReport(
            quantity=self.quantity,
            eps=eps,
            fired=tuple(fired),
            tightest=fired[0] if fired else None,
            not_evaluated=self.skipped,
            not_evaluated_json=self.skipped_json,
        )


# One plan per target and data pattern: the four forms of data (full,
# partial joint, asserted bounds, one arm) give about 120 plans between
# them, some 2 kB each, so all of them stay.
_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(quantity: str, pattern: tuple[tuple[bool, bool], ...]):
    """The catalog scan of one target as far as the data pattern decides it:
    each entry to evaluate as (premise terms, center terms, the rest of its
    profile row), the shared not-evaluated records, and their JSON, built
    and checked once here and rendered once per depth."""
    target = catalog.target(quantity)
    informative = {name: flag for name, (flag, _) in zip(QUANTITIES, pattern)}
    exact = {name: flag for name, (_, flag) in zip(QUANTITIES, pattern)}
    denominator = target.denominator
    evaluate = []
    skipped: list[NotEvaluated] = []
    for entry in target.entries:
        missing: list[str] = []
        if denominator is not None and not exact[denominator]:
            missing.append(denominator)
        missing.extend(name for _, name in entry.premise.terms if not informative[name])
        missing.extend(name for _, name in entry.center.terms if not exact[name])
        if missing:
            ordered = sorted(set(missing), key=QUANTITIES.index)
            skipped.append(
                NotEvaluated(entry.entry_id, entry.premise_label, entry.center_label, tuple(ordered))
            )
            continue
        evaluate.append((entry.premise.terms, entry.center.terms, (
            entry.center_sign, entry.entry_id, entry.premise_label, entry.threshold_label,
            entry.center_label,
        )))
    return tuple(evaluate), tuple(skipped), _fragment(skipped)


def _profile(quantity: str, exp, obs, assumptions, facts: dict) -> _Profile:
    """Build the eps-free scan of one target on one dataset, making the
    denominator and compatibility refusals; ``facts`` is the dataset's memo."""
    target = catalog.target(quantity)
    ranges = facts.get("ranges")
    if ranges is None:
        ranges = facts["ranges"] = QuantityRanges(exp, obs, assumptions)

    denominator = target.denominator
    den_value = None if denominator is None else ranges.exact(denominator)
    target.require_denominator(den_value)
    refuse_incompatible(exp, obs)
    den = den_value if den_value is not None else 1.0

    plan, skipped, skipped_json = _plan(quantity, ranges._pattern)
    evaluated = tuple(
        (ranges.upper_value(premise), ranges.exact_value(center) / den, *rest)
        for premise, center, rest in plan
    )
    return _Profile(quantity, den, evaluated, skipped, skipped_json)


def eps_identify(
    quantity: str,
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    eps: float = 0.0,
    assumptions: Assumptions | None = None,
) -> EpsReport:
    """Scan every published near-point condition for one of
    :data:`catalog.TARGETS` at radius ``eps``.

    The eps-free work is shared by every radius asked of the same data under
    the same tolerance; refusals are never cached, so each call raises them.
    """
    catalog.target(quantity)
    check_eps(eps)
    facts = _facts(exp, obs, assumptions, get_tolerance())
    profile = facts.get(("scan", quantity))
    if profile is None:
        profile = facts[("scan", quantity)] = _profile(quantity, exp, obs, assumptions, facts)
    return profile.at(eps)


def eps_identify_pns(
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    eps: float = 0.0,
    assumptions: Assumptions | None = None,
) -> EpsReport:
    """Scan all published near-point conditions for P(y_x, y'_{x'})."""
    return eps_identify("pns", exp, obs, eps, assumptions)


def eps_identify_pn(
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    eps: float = 0.0,
    assumptions: Assumptions | None = None,
) -> EpsReport:
    """Scan all published near-point conditions for P(y'_{x'} | x, y)."""
    return eps_identify("pn", exp, obs, eps, assumptions)


def eps_identify_ps(
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    eps: float = 0.0,
    assumptions: Assumptions | None = None,
) -> EpsReport:
    """Scan all published near-point conditions for P(y_x | x', y')."""
    return eps_identify("ps", exp, obs, eps, assumptions)


# ---------------------------------------------------------------------------
# Causal effects from one joint cell and a marginal bound
# ---------------------------------------------------------------------------

def eps_identify_effect(
    p_txy: float,
    other_marginal_ub: float,
    eps: float,
    variant: str = "y_x",
) -> EpsIdentification | NotIdentified:
    """Identify a causal effect from its joint cell and the opposite
    treatment marginal.

    The effect P(o_t) lies in [P(t,o), P(t,o) + P(t-complement)], an interval
    of width exactly the opposite marginal.  So an upper bound ub on that
    marginal with ub <= 2*eps (by the firing rule) certifies  P(o_t) ~ P(t,o) + eps.
    """
    if variant not in EFFECTS:
        raise InvalidDistribution(f"unknown effect variant {variant!r}")
    check_eps(eps)
    check_unit(p_txy=p_txy, other_marginal_ub=other_marginal_ub)
    return _effect_at(_effect_row(variant, p_txy, other_marginal_ub), eps)


def _effect_row(variant: str, p_txy: float, other_marginal_ub: float) -> tuple:
    """The eps-free part of one effect condition: its variant, cell value,
    marginal bound, entry id, premise text and center text."""
    effect = EFFECTS[variant]
    return (
        variant, p_txy, other_marginal_ub, f"effect-{variant}",
        f"{QUANTITY_LABELS[effect.opposite_marginal]} <= 2*eps",
        f"{QUANTITY_LABELS[effect.cell]} + eps",
    )


def _effect_at(row: tuple, eps: float) -> EpsIdentification | NotIdentified:
    """One effect condition at radius ``eps``: it fires when the marginal
    bound is within the firing limit of the threshold ``2*eps``."""
    variant, p_txy, ub, entry_id, premise, center = row
    condition = Condition(entry_id, premise, ub, "2*eps", 2.0 * eps, center)
    return certify(variant, p_txy + eps, eps, condition, 2.0)


@dataclass(frozen=True, slots=True)
class EffectScan:
    """Per-variant effect identifications resolvable from a dataset."""

    results: dict[str, EpsIdentification | NotIdentified]
    skipped: dict[str, tuple[str, ...]]


def _effect_profile(obs, assumptions, facts: dict) -> tuple[tuple, tuple]:
    """The eps-free part of an effect scan of one dataset: a checked row per
    variant the data support, and each other variant with its missing
    quantities; ``facts`` is the dataset's memo."""
    ranges = facts.get("ranges")
    if ranges is None:
        ranges = facts["ranges"] = QuantityRanges(None, obs, assumptions)
    rows, skipped = [], []
    for variant, effect in EFFECTS.items():
        cell, marginal = effect.cell, effect.opposite_marginal
        missing = []
        cell_value = ranges.exact(cell)
        if cell_value is None:
            missing.append(cell)
        ub = ranges._iv[marginal][1]
        if not ranges.informative(marginal):
            missing.append(marginal)
        if missing:
            skipped.append((variant, tuple(missing)))
            continue
        check_unit(p_txy=cell_value, other_marginal_ub=ub)
        rows.append(_effect_row(variant, cell_value, ub))
    return tuple(rows), tuple(skipped)


def eps_identify_effects(
    eps: float,
    obs: ObservationalDistribution | None = None,
    assumptions: Assumptions | None = None,
) -> EffectScan:
    """Run :func:`eps_identify_effect` for every variant the data support.

    The marginal bound comes from the joint when both its cells are present,
    else from an asserted assumption; variants lacking either the cell or any
    marginal bound are skipped with the missing quantity names.  As in the
    catalog scans, the eps-free work is shared by every radius asked of the
    same data under the same tolerance.
    """
    check_eps(eps)
    facts = _facts(None, obs, assumptions, get_tolerance())
    profile = facts.get("effects")
    if profile is None:
        profile = facts["effects"] = _effect_profile(obs, assumptions, facts)
    rows, skipped = profile
    return EffectScan({row[0]: _effect_at(row, eps) for row in rows}, dict(skipped))


def minimal_epsilon(
    quantity: str,
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
) -> tuple[float, float]:
    """Smallest certifiable radius and its center: half-width and midpoint of
    the quantity's tight bounds.

    The quantity is identifiable to q_star within every radius >= eps_star
    and within no smaller radius.
    """
    if quantity in EFFECTS:
        interval = effect_bounds(obs, quantity)
    else:
        interval = target_bounds(quantity, exp, obs)
    return interval.width / 2.0, interval.midpoint


QUANTITY_DISPLAY = {
    **{name: t.label for name, t in catalog.TARGETS.items()},
    **{variant: e.label for variant, e in EFFECTS.items()},
}
