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
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from .errors import Incompatible, InvalidDistribution, MissingData, ZeroDenominator
from .forms import QUANTITIES, QUANTITY_ATOMS, QUANTITY_LABELS
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

        for name, comp in (("p_y_do_x", "p_yp_do_x"), ("p_y_do_xp", "p_yp_do_xp")):
            v = getattr(exp, name) if exp is not None else None
            if v is None:
                put(name, 0.0, 1.0)
                put(comp, 0.0, 1.0)
            else:
                put(name, v, v)
                put(comp, 1.0 - v, 1.0 - v)

        cells = ("p_xy", "p_xyp", "p_xpy", "p_xpyp")
        present = {c: (obs.cell(c) if obs is not None else None) for c in cells}
        mass = sum(v for v in present.values() if v is not None)
        free = max(0.0, 1.0 - mass)
        for c in cells:
            v = present[c]
            if v is None:
                put(c, 0.0, free if obs is not None else 1.0)
            else:
                put(c, v, v)

        def subset(name: str, a: str, b: str) -> None:
            va, vb = present[a], present[b]
            lo = (va or 0.0) + (vb or 0.0)
            hi = lo + (free if (va is None or vb is None) else 0.0)
            if obs is None:
                lo, hi = 0.0, 1.0
            put(name, lo, hi)

        for name in ("p_x", "p_xp", "p_y", "p_yp"):
            subset(name, *QUANTITY_ATOMS[name])

        if assumptions is not None:
            for name, comp in (("p_x", "p_xp"), ("p_xp", "p_x"), ("p_y", "p_yp"), ("p_yp", "p_y")):
                ub = getattr(assumptions, f"{name}_max")
                if ub is None:
                    continue
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


def eps_identify(
    quantity: str,
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    eps: float = 0.0,
    assumptions: Assumptions | None = None,
) -> EpsReport:
    """Scan every published near-point condition for one of
    :data:`catalog.TARGETS` at radius ``eps``."""
    target = catalog.target(quantity)
    check_eps(eps)
    ranges = QuantityRanges(exp, obs, assumptions)
    tol = get_tolerance()

    denominator = target.denominator
    den_value = None if denominator is None else ranges.exact(denominator)
    target.require_denominator(den_value)
    refuse_incompatible(exp, obs)

    fired: list[tuple[int, EpsIdentification]] = []
    skipped: list[NotEvaluated] = []
    for index, entry in enumerate(target.entries):
        missing: list[str] = []
        if denominator is not None and den_value is None:
            missing.append(denominator)
        missing.extend(
            name for _, name in entry.premise.terms if not ranges.informative(name)
        )
        center_value = ranges.exact_value(entry.center.terms)
        if center_value is None:
            missing.extend(
                name for _, name in entry.center.terms if ranges.exact(name) is None
            )
        if missing:
            ordered = sorted(set(missing), key=QUANTITIES.index)
            skipped.append(
                NotEvaluated(entry.entry_id, entry.premise_label, entry.center_label, tuple(ordered))
            )
            continue
        threshold = 2.0 * eps * (den_value if den_value is not None else 1.0)
        premise_value = ranges.upper_value(entry.premise.terms)
        if premise_value > threshold + tol:
            continue
        q = center_value / (den_value if den_value is not None else 1.0)
        q += entry.center_sign * eps
        condition = Condition(
            entry_id=entry.entry_id,
            premise=entry.premise_label,
            premise_value=premise_value,
            threshold=entry.threshold_label,
            threshold_value=threshold,
            center=entry.center_label,
        )
        fired.append((index, EpsIdentification(quantity, q, eps, condition)))

    tightest = None
    if fired:
        # the tight bounds, when the data give them, rank the fired entries;
        # compatibility was refused above, so it is not checked again
        tight = None
        if exp is not None and obs is not None:
            try:
                tight = tight_interval(bound_arguments(quantity, exp, obs))
            except (MissingData, ZeroDenominator):
                pass

        def sort_key(item):
            index, ident = item
            width = 2.0 * ident.eps
            if tight is not None:
                width = ident.certified.intersect(tight).width
            return (width, index)

        tightest = min(fired, key=sort_key)[1]

    return EpsReport(
        quantity=quantity,
        eps=eps,
        fired=tuple(ident for _, ident in fired),
        tightest=tightest,
        not_evaluated=tuple(skipped),
    )


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
    ranges = QuantityRanges(None, obs, assumptions)
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
