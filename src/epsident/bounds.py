"""Closed-form tight bounds and point identification under monotonicity.

For binary treatment X and outcome Y, with experimental quantities P(y_x),
P(y_{x'}) and the observational joint P(X,Y):

* causal effects obey  P(t,o) <= P(o_t) <= 1 - P(t,o')  (Tian & Pearl 2000),
* the three counterfactual probabilities

      pns = P(y_x, y'_{x'}),
      pn  = P(y'_{x'} | x, y),
      ps  = P(y_x | x', y')

  have tight bounds given by small max/min systems over the same atoms, and
* when Y is monotone in X (no unit is harmed by treatment) all three are
  point identified.

The argument systems live in :mod:`epsident.catalog`; this module evaluates
them on concrete data and owns the adjustment over one explicit binary
covariate.

Each dataset fact is computed once: the compatibility violations of an
(exp, obs) pair and each target's tight bounds sit in small bounded caches
keyed by the (frozen, hashable) records and the tolerance in force, so the
bounds, the scans and the minimal radius of one dataset share them.  A
refusal is never cached: :class:`Incompatible` is raised on every call from
the cached violations, and a missing atom or zero denominator is raised
afresh.  :func:`~epsident.distributions.check_compatibility`, the public
diagnostic, stays uncached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from . import catalog
from .config import get_tolerance
from .distributions import (
    EFFECTS,
    ExperimentalDistribution,
    ObservationalDistribution,
    check_compatibility,
    check_joint,
    require_atoms,
)
from .errors import (
    EmptyStratum,
    Incompatible,
    InvalidDistribution,
    MonotonicityRefuted,
)
from .forms import quantity_from_atoms
from .interval import Interval

__all__ = [
    "MonotoneIdentification",
    "CovariateJoint",
    "EvaluatedArgument",
    "causal_effect_bounds",
    "effect_bounds",
    "target_bounds",
    "tight_interval",
    "pns_bounds",
    "pn_bounds",
    "ps_bounds",
    "bound_arguments",
    "refuse_incompatible",
    "identify_monotone",
    "adjust_over_covariate",
    "EFFECT_VARIANTS",
    "EFFECT_LABELS",
]

Treatment = Literal["x", "x'"]
Outcome = Literal["y", "y'"]

#: effect variant token -> (treatment, outcome)
EFFECT_VARIANTS: dict[str, tuple[str, str]] = {
    v: (e.treatment, e.outcome) for v, e in EFFECTS.items()
}
EFFECT_LABELS = {v: e.label for v, e in EFFECTS.items()}


@dataclass(frozen=True, slots=True)
class MonotoneIdentification:
    """Point values of the three counterfactual probabilities under monotonicity."""

    pns: float
    pn: float
    ps: float


@dataclass(frozen=True, slots=True)
class EvaluatedArgument:
    """One bound argument evaluated on concrete data (pre-clamp value)."""

    name: str
    side: str
    label: str
    value: float


# Each cache holds a few datasets' worth of entries, like the engine's scan
# caches: one dataset's bounds, scans and minimal radius reuse them.
_CACHE_SIZE = 32


@lru_cache(maxsize=_CACHE_SIZE)
def _violations(exp, obs, tol: float) -> tuple:
    """The compatibility violations of one dataset; ``tol``, the tolerance in
    force, is part of the key because the check reads it."""
    return tuple(check_compatibility(exp, obs).violations)


def refuse_incompatible(
    exp: ExperimentalDistribution | None,
    obs: ObservationalDistribution | None,
) -> None:
    """Raise :class:`Incompatible` when the data violate a compatibility
    constraint; the check is made once per dataset and tolerance, the
    refusal on every call."""
    if exp is None or obs is None:
        return
    violations = _violations(exp, obs, get_tolerance())
    if violations:
        raise Incompatible(violations)


def causal_effect_bounds(
    obs: ObservationalDistribution,
    treatment: Treatment = "x",
    outcome: Outcome = "y",
) -> Interval:
    """Bounds [P(t,o), 1 - P(t,o')] on the causal effect P(o_t) from the joint alone."""
    return effect_bounds(obs, _variant(treatment, outcome))


def _variant(treatment: str, outcome: str) -> str:
    """The :data:`EFFECT_VARIANTS` token of P(outcome_treatment)."""
    key = (treatment, outcome)
    for variant, arms in EFFECT_VARIANTS.items():
        if arms == key:
            return variant
    raise InvalidDistribution(f"treatment/outcome must be x|x', y|y', got {key!r}")


def effect_bounds(obs: ObservationalDistribution | None, variant: str) -> Interval:
    """:func:`causal_effect_bounds` addressed by variant token (see EFFECT_VARIANTS)."""
    if variant not in EFFECTS:
        raise InvalidDistribution(f"unknown effect variant {variant!r}")
    e = EFFECTS[variant]
    values = require_atoms(None, obs, (e.cell, e.complement), "causal effect bounds")
    return Interval(values[e.cell], 1.0 - values[e.complement])


def bound_arguments(
    quantity: str,
    exp: ExperimentalDistribution,
    obs: ObservationalDistribution,
) -> list[EvaluatedArgument]:
    """Every max/min argument of a quantity's tight bounds, with raw values.

    Raw means pre-clamp: ratio arguments may fall outside [0,1] on noisy
    inputs, which is exactly what reports should surface.
    """
    target, args, atoms = _target_arguments(quantity)
    values = require_atoms(exp, obs, atoms, f"{quantity} bounds")
    den = target.denominator
    target.require_denominator(values.get(den))
    out = []
    for arg in args:
        value = arg.expr.value_from_atoms(values)
        if den is not None:
            value = value / values[den]
        out.append(EvaluatedArgument(arg.name, arg.side, arg.label, value))
    return out


@lru_cache(maxsize=len(catalog.TARGETS))
def _target_arguments(quantity: str):
    """A target, its bound arguments, and the atoms they read, in order."""
    target = catalog.target(quantity)
    args = target.lower + target.upper
    atoms: list[str] = []
    for arg in args:
        atoms.extend(arg.expr.atoms())
        if arg.denominator is not None:
            atoms.append(arg.denominator)
    return target, args, tuple(dict.fromkeys(atoms))


def tight_interval(evaluated: list[EvaluatedArgument]) -> Interval:
    """The tight bounds: max of the lower and min of the upper arguments."""
    lo = max(a.value for a in evaluated if a.side == "lower")
    hi = min(a.value for a in evaluated if a.side == "upper")
    # ratio arguments can stray outside [0,1] within rounding; the printed
    # max/min against the constant arguments already clamp otherwise
    return Interval(lo, hi).clamped(0.0, 1.0)


def target_bounds(
    quantity: str,
    exp: ExperimentalDistribution,
    obs: ObservationalDistribution,
) -> Interval:
    """Tight bounds on one of :data:`catalog.TARGETS`; refuses incompatible data.

    The bounds are computed once per dataset and tolerance; refusals are
    raised on every call, never cached."""
    return _target_bounds(quantity, exp, obs, get_tolerance())


@lru_cache(maxsize=_CACHE_SIZE)
def _target_bounds(quantity: str, exp, obs, tol: float) -> Interval:
    """The tight bounds of one target on one dataset; ``tol`` is the
    tolerance in force."""
    evaluated = bound_arguments(quantity, exp, obs)
    refuse_incompatible(exp, obs)
    return tight_interval(evaluated)


def pns_bounds(exp: ExperimentalDistribution, obs: ObservationalDistribution) -> Interval:
    """Tight bounds on P(y_x, y'_{x'}) from full experimental + observational data."""
    return target_bounds("pns", exp, obs)


def pn_bounds(exp: ExperimentalDistribution, obs: ObservationalDistribution) -> Interval:
    """Tight bounds on P(y'_{x'} | x, y); requires P(x,y) > 0."""
    return target_bounds("pn", exp, obs)


def ps_bounds(exp: ExperimentalDistribution, obs: ObservationalDistribution) -> Interval:
    """Tight bounds on P(y_x | x', y'); requires P(x',y') > 0."""
    return target_bounds("ps", exp, obs)


def identify_monotone(
    exp: ExperimentalDistribution,
    obs: ObservationalDistribution,
) -> MonotoneIdentification:
    """Point identification of pns/pn/ps assuming Y monotone in X.

    Monotonicity is a user-asserted assumption; it is refuted (and
    :class:`MonotonicityRefuted` raised) exactly when the data contradict its
    observable implication P(y_x) >= P(y) >= P(y_{x'}).
    """
    values = require_atoms(
        exp, obs, ("p_y_do_x", "p_y_do_xp", "p_xy", "p_xpy", "p_xpyp"), "monotone identification"
    )
    tol = get_tolerance()
    p_y = quantity_from_atoms("p_y", values)
    p_yx, p_yxp = values["p_y_do_x"], values["p_y_do_xp"]
    if p_yx < p_y - tol or p_y < p_yxp - tol:
        raise MonotonicityRefuted(
            f"P(y_x) >= P(y) >= P(y_{{x'}}) fails: {p_yx:.6g}, {p_y:.6g}, {p_yxp:.6g}"
        )
    refuse_incompatible(exp, obs)
    for target in catalog.TARGETS.values():
        target.require_denominator(values.get(target.denominator))
    return MonotoneIdentification(
        pns=p_yx - p_yxp,
        pn=(p_y - p_yxp) / values["p_xy"],
        ps=(p_yx - p_y) / values["p_xpyp"],
    )


class CovariateJoint:
    """Full joint P(X, Y, U) over binary treatment, outcome, and one covariate.

    ``cells[i, j, k]`` is P(X=i-state, Y=j-state, U=k-state) with index 0
    meaning x/y/u and index 1 the complement.
    """

    __slots__ = ("cells",)

    def __init__(self, cells) -> None:
        self.cells = check_joint(cells, (2, 2, 2), "covariate joint")

    def p_u(self, k: int) -> float:
        return float(self.cells[:, :, k].sum())

    def p_xu(self, i: int, k: int) -> float:
        return float(self.cells[i, :, k].sum())

    def relabeled_u(self) -> "CovariateJoint":
        return CovariateJoint(self.cells[:, :, ::-1])


def adjust_over_covariate(
    joint: CovariateJoint,
    treatment: Treatment = "x",
    outcome: Outcome = "y",
) -> float:
    """Covariate-adjusted effect  sum_u P(outcome | treatment, u) P(u).

    Strata with P(u) = 0 contribute nothing; a stratum with P(u) > 0 but
    P(treatment, u) = 0 leaves the conditional undefined and raises
    :class:`EmptyStratum`.
    """
    _variant(treatment, outcome)  # refuses tokens other than x|x' and y|y'
    i = 0 if treatment == "x" else 1
    j = 0 if outcome == "y" else 1
    tol = get_tolerance()
    total = 0.0
    for k in (0, 1):
        pu = joint.p_u(k)
        if pu <= tol:
            continue
        ptu = joint.p_xu(i, k)
        if ptu <= tol:
            raise EmptyStratum(
                f"P({treatment}, u{'' if k == 0 else chr(39)}) = 0 while P(u) = {pu:.6g}"
            )
        total += joint.cells[i, j, k] / ptu * pu
    return total
