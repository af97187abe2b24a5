"""Near-point identification engine.

Scans the generated condition catalogs against whatever data are available.
A condition fires when its premise is certified, i.e. when the premise's
largest possible value given the supplied atoms and asserted marginal bounds
is at most the threshold.  A fired condition reports a center q whose value
must be exactly computable; the certificate is that the target lies in
[q - eps, q + eps] for every model consistent with the data.

Partial data shrink the evaluated set: entries whose premise involves a
quantity carrying no information at all, or whose center is not exactly
computable, are reported as not evaluated rather than silently dropped.

Only the threshold depends on eps.  A scan is therefore split in two: a
profile, built once per target, dataset and tolerance, holds the ranges, the
refusals, each evaluated entry's premise value and center, and the
not-evaluated records; its ``at(eps)`` compares the premise values with
``2*eps*den`` and builds the report.  Profiles and ranges sit in small
bounded caches keyed by the (frozen, hashable) records and the tolerance,
so a sweep over radii pays for one scan; a refusal is raised, never cached.
Which entries a dataset evaluates, and the records of those it cannot,
depend only on its pattern of informative and exact quantities: a plan per
target and pattern holds them, so each profile only does its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import catalog
from .bounds import (
    bound_arguments,
    effect_bounds,
    refuse_incompatible,
    target_bounds,
    tight_interval,
)
from .config import get_tolerance
from .distributions import (
    EFFECTS,
    Assumptions,
    Condition,
    EpsIdentification,
    ExperimentalDistribution,
    ObservationalDistribution,
    check_eps,
    check_unit,
    present_atoms,
)
from .errors import Incompatible, InvalidDistribution, MissingData, ZeroDenominator
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
    """

    def __init__(
        self,
        exp: ExperimentalDistribution | None = None,
        obs: ObservationalDistribution | None = None,
        assumptions: Assumptions | None = None,
    ) -> None:
        iv: dict[str, Interval] = {}

        def put(name: str, lo: float, hi: float) -> None:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if lo > hi + get_tolerance():
                raise Incompatible(
                    [f"{QUANTITY_LABELS[name]} constrained to empty range [{lo:.6g}, {hi:.6g}]"]
                )
            iv[name] = Interval(min(lo, hi), hi)

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
            cur = iv[name]
            put(name, cur.lo, min(cur.hi, ub))
            cur = iv[comp]
            put(comp, max(cur.lo, 1.0 - ub), cur.hi)
            # a marginal bound also caps its member cells
            for cell in QUANTITY_ATOMS[name]:
                cur = iv[cell]
                put(cell, cur.lo, min(cur.hi, ub))

        self._iv = iv

    def interval(self, name: str) -> Interval:
        return self._iv[name]

    def exact(self, name: str) -> float | None:
        r = self._iv[name]
        return r.midpoint if r.width <= _EXACT else None

    def informative(self, name: str) -> bool:
        r = self._iv[name]
        return r.lo > get_tolerance() or r.hi < 1.0 - get_tolerance() or r.width <= _EXACT

    @cached_property
    def _pattern(self) -> tuple[tuple[bool, bool], ...]:
        """What the dataset says of each quantity, in :data:`QUANTITIES` order:
        whether it is informative and whether it is exact.  This alone decides
        which catalog entries the data evaluate.  It is read once, under the
        tolerance in force then; :func:`_ranges` keys its cache by tolerance,
        so every target's profile of one dataset shares it."""
        return tuple((self.informative(name), self.exact(name) is not None) for name in QUANTITIES)

    def upper_value(self, terms) -> float:
        """Largest possible value of a signed sum of quantities (conservative:
        treats quantities as independent, which can only loosen, never break,
        a premise certificate)."""
        total = 0.0
        for coef, name in terms:
            r = self._iv[name]
            total += coef * (r.hi if coef > 0 else r.lo)
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
class NotIdentified:
    """A condition that was evaluated and did not fire, with its margin."""

    quantity: str
    condition: Condition

    @property
    def margin(self) -> float:
        return self.condition.premise_value - self.condition.threshold_value


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
            "missing": list(self.missing),
        }


@dataclass(frozen=True, slots=True)
class EpsReport:
    """Everything the pair-scan produced for one quantity at one radius."""

    quantity: str
    eps: float
    fired: tuple[EpsIdentification, ...]
    tightest: EpsIdentification | None
    not_evaluated: tuple[NotEvaluated, ...]

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "eps": self.eps,
            "fired": [f.to_json_dict() for f in self.fired],
            "tightest": None if self.tightest is None else self.tightest.to_json_dict(),
            "not_evaluated": [n.to_json_dict() for n in self.not_evaluated],
        }


# Each cache holds a few datasets' worth of entries: a sweep over radii
# reuses the last few, so nothing older is worth keeping.
_SCAN_CACHE_SIZE = 32


@lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _ranges(exp, obs, assumptions, tol: float) -> QuantityRanges:
    """The :class:`QuantityRanges` of one dataset; ``tol``, the tolerance in
    force, is part of the key because the ranges read it."""
    return QuantityRanges(exp, obs, assumptions)


class _Profile:
    """The eps-free part of one catalog scan: each evaluated entry's premise
    value and center, every not-evaluated record, and, once something fires,
    the tight interval that ranks the fired entries."""

    def __init__(self, quantity, exp, obs, den, tol, evaluated, skipped) -> None:
        self.quantity, self.exp, self.obs, self.den, self.tol = quantity, exp, obs, den, tol
        self.evaluated = evaluated
        self.skipped = skipped

    @cached_property
    def tight(self) -> Interval | None:
        """The tight bounds, when the data give them; compatibility was
        refused when the profile was built, so it is not checked again."""
        if self.exp is None or self.obs is None:
            return None
        try:
            return tight_interval(bound_arguments(self.quantity, self.exp, self.obs))
        except (MissingData, ZeroDenominator):
            return None

    def at(self, eps: float) -> EpsReport:
        """The scan's report at radius ``eps``: an entry fires when its premise
        value is at most ``2*eps*den`` plus the tolerance."""
        threshold = 2.0 * eps * self.den
        limit = threshold + self.tol
        fired: list[tuple[int, EpsIdentification]] = []
        for index, premise_value, center, sign, entry_id, premise, threshold_label, center_label \
                in self.evaluated:
            if premise_value > limit:
                continue
            condition = Condition(
                entry_id, premise, premise_value, threshold_label, threshold, center_label
            )
            fired.append((index, EpsIdentification(self.quantity, center + sign * eps, eps, condition)))

        tightest = None
        if fired:
            tight = self.tight

            def sort_key(item):
                index, ident = item
                width = 2.0 * ident.eps
                if tight is not None:
                    width = ident.certified.intersect(tight).width
                return (width, index)

            tightest = min(fired, key=sort_key)[1]

        return EpsReport(
            quantity=self.quantity,
            eps=eps,
            fired=tuple(ident for _, ident in fired),
            tightest=tightest,
            not_evaluated=self.skipped,
        )


# One plan per target and data pattern: the four forms of data (full,
# partial joint, asserted bounds, one arm) give about 120 plans between
# them, some 2 kB each, so all of them stay.
_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(quantity: str, pattern: tuple[tuple[bool, bool], ...]):
    """The catalog scan of one target as far as the data pattern decides it:
    each entry to evaluate as (index, premise terms, center terms, the rest
    of its profile row), and the shared not-evaluated records."""
    target = catalog.target(quantity)
    informative = {name: flag for name, (flag, _) in zip(QUANTITIES, pattern)}
    exact = {name: flag for name, (_, flag) in zip(QUANTITIES, pattern)}
    denominator = target.denominator
    evaluate = []
    skipped: list[NotEvaluated] = []
    for index, entry in enumerate(target.entries):
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
        evaluate.append((index, entry.premise.terms, entry.center.terms, (
            entry.center_sign, entry.entry_id, entry.premise_label, entry.threshold_label,
            entry.center_label,
        )))
    return tuple(evaluate), tuple(skipped)


@lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _profile(quantity: str, exp, obs, assumptions, tol: float) -> _Profile:
    """Build the eps-free scan of one target on one dataset, making the
    denominator and compatibility refusals; ``tol`` is the tolerance in force."""
    target = catalog.target(quantity)
    ranges = _ranges(exp, obs, assumptions, tol)

    denominator = target.denominator
    den_value = None if denominator is None else ranges.exact(denominator)
    target.require_denominator(den_value)
    refuse_incompatible(exp, obs)
    den = den_value if den_value is not None else 1.0

    plan, skipped = _plan(quantity, ranges._pattern)
    evaluated = tuple(
        (index, ranges.upper_value(premise), ranges.exact_value(center) / den, *rest)
        for index, premise, center, rest in plan
    )
    return _Profile(quantity, exp, obs, den, tol, evaluated, skipped)


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
    return _profile(quantity, exp, obs, assumptions, get_tolerance()).at(eps)


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
    marginal with ub <= 2*eps certifies  P(o_t) ~ P(t,o) + eps.
    """
    if variant not in EFFECTS:
        raise InvalidDistribution(f"unknown effect variant {variant!r}")
    check_eps(eps)
    check_unit(p_txy=p_txy, other_marginal_ub=other_marginal_ub)
    cell, marginal = EFFECTS[variant].cell, EFFECTS[variant].opposite_marginal
    condition = Condition(
        entry_id=f"effect-{variant}",
        premise=f"{QUANTITY_LABELS[marginal]} <= 2*eps",
        premise_value=other_marginal_ub,
        threshold="2*eps",
        threshold_value=2.0 * eps,
        center=f"{QUANTITY_LABELS[cell]} + eps",
    )
    if other_marginal_ub > 2.0 * eps + get_tolerance():
        return NotIdentified(variant, condition)
    return EpsIdentification(variant, p_txy + eps, eps, condition)


@dataclass(frozen=True, slots=True)
class EffectScan:
    """Per-variant effect identifications resolvable from a dataset."""

    results: dict[str, EpsIdentification | NotIdentified]
    skipped: dict[str, tuple[str, ...]]


def eps_identify_effects(
    eps: float,
    obs: ObservationalDistribution | None = None,
    assumptions: Assumptions | None = None,
) -> EffectScan:
    """Run :func:`eps_identify_effect` for every variant the data support.

    The marginal bound comes from the joint when both its cells are present,
    else from an asserted assumption; variants lacking either the cell or any
    marginal bound are skipped with the missing quantity names.
    """
    check_eps(eps)
    ranges = _ranges(None, obs, assumptions, get_tolerance())
    results: dict[str, EpsIdentification | NotIdentified] = {}
    skipped: dict[str, tuple[str, ...]] = {}
    for variant, effect in EFFECTS.items():
        cell, marginal = effect.cell, effect.opposite_marginal
        missing = []
        cell_value = ranges.exact(cell)
        if cell_value is None:
            missing.append(cell)
        ub = ranges.interval(marginal).hi
        if not ranges.informative(marginal):
            missing.append(marginal)
        if missing:
            skipped[variant] = tuple(missing)
            continue
        results[variant] = eps_identify_effect(cell_value, ub, eps, variant)
    return EffectScan(results, skipped)


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
