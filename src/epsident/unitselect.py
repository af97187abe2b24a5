"""Benefit-function identification for the unit selection problem.

Selecting a unit pays beta / gamma / theta / delta according to its response
type (complier / always-taker / never-taker / defier), so the expected
benefit of selecting from a subpopulation c is the payoff-weighted type
mixture.  The mixture rewrites as

    f = (gamma - delta) P(y_x|c) + delta P(y_{x'}|c) + theta P(y'_{x'}|c)
        + (beta - gamma - theta + delta) * P(y_x, y'_{x'} | c),

where only the last term is counterfactual.  Since that term's weight
multiplies a probability in [0,1], experimental data alone pin the benefit
to within |beta - gamma - theta + delta| / 2 of the affine part plus half
the weight.  Under gain equality (beta + delta = gamma + theta) the radius
is zero and the benefit is exactly identified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

from .config import get_tolerance
from .distributions import ExperimentalDistribution, as_float, require_atoms
from .errors import InvalidDistribution

if TYPE_CHECKING:
    from .oracle import ResponseTypeJoint

__all__ = ["BenefitVector", "BenefitIdentification", "eps_identify_benefit", "benefit_true_value"]

Sign = Literal["positive", "negative", "indeterminate"]


@dataclass(frozen=True, slots=True)
class BenefitVector:
    """Payoffs for selecting a complier, always-taker, never-taker, defier."""

    beta: float
    gamma: float
    theta: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "theta", "delta"):
            v = getattr(self, name)
            if not math.isfinite(as_float(v, name)):
                raise InvalidDistribution(f"{name} must be finite, got {v!r}")

    @property
    def gain_residual(self) -> float:
        """beta - gamma - theta + delta; zero exactly under gain equality."""
        return self.beta - self.gamma - self.theta + self.delta


@dataclass(frozen=True, slots=True)
class BenefitIdentification:
    """The benefit lies in [q - eps, q + eps]; sign is decided conservatively.

    ``assumes_no_descendant_selection`` records the modeling obligation that
    the subpopulation was not selected on consequences of the treatment; it
    cannot be checked from the supplied numbers.
    """

    q: float
    eps: float
    sign: Sign
    gain_residual: float
    assumes_no_descendant_selection: bool = True

    @property
    def lo(self) -> float:
        return self.q - self.eps

    @property
    def hi(self) -> float:
        return self.q + self.eps

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "eps": self.eps,
            "sign": self.sign,
            "gain_residual": self.gain_residual,
            "certified": [self.lo, self.hi],
            "assumes_no_descendant_selection": self.assumes_no_descendant_selection,
        }


def eps_identify_benefit(
    payoffs: BenefitVector,
    exp_c: ExperimentalDistribution,
) -> BenefitIdentification:
    """Identify the benefit of selection from subpopulation-c experimental data.

    ``exp_c`` holds P(y_x|c) and P(y_{x'}|c); both arms are required.  The
    radius is |beta - gamma - theta + delta| / 2 regardless of the data, so
    the sign of the benefit is often decidable before any observational
    study.  Payoffs so large that q, eps or the certified range overflow a
    float raise :class:`InvalidDistribution`.
    """
    require_atoms(exp_c, None, ("p_y_do_x", "p_y_do_xp"), "benefit identification")
    residual = payoffs.gain_residual
    q = (
        (payoffs.gamma - payoffs.delta) * exp_c.p_y_do_x
        + payoffs.delta * exp_c.p_y_do_xp
        + payoffs.theta * exp_c.p_yp_do_xp
        + residual / 2.0
    )
    eps = abs(residual) / 2.0
    # finite payoffs can still overflow, e.g. beta = delta = 1e308; an inf or
    # nan in q, eps or the residual makes an end of the range non-finite too
    if not (math.isfinite(q - eps) and math.isfinite(q + eps)):
        raise InvalidDistribution(
            f"the benefit overflows a float with these payoffs: q = {q!r}, eps = {eps!r}, "
            f"gain residual = {residual!r}, certified range [{q - eps!r}, {q + eps!r}]"
        )
    tol = get_tolerance()
    if q - eps > tol:
        sign: Sign = "positive"
    elif q + eps < -tol:
        sign = "negative"
    else:
        sign = "indeterminate"
    return BenefitIdentification(q=q, eps=eps, sign=sign, gain_residual=residual)


def benefit_true_value(payoffs: BenefitVector, joint: ResponseTypeJoint) -> float:
    """Ground-truth benefit of a known response-type composition."""
    return (
        payoffs.beta * joint.type_marginal("complier")
        + payoffs.gamma * joint.type_marginal("always_taker")
        + payoffs.theta * joint.type_marginal("never_taker")
        + payoffs.delta * joint.type_marginal("defier")
    )
