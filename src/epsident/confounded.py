"""Near-point identification of P(y_x) under one binary confounder.

On the graph U -> X, U -> Y, X -> Y the effect needs the full joint with U,
which is impractical to estimate when P(u) is tiny.  But a sandwich holds
from P(x), P(y|x) and a slack constant c with P(u) <= P(x) - c:

    P(y|x) - (1 + 1/P(x)) * P(u)  <=  P(y_x)  <=  P(y|x) + (1 + 1/c) * P(u),

so an upper bound on P(u) narrows P(y_x) to an interval of width

    (2 + 1/c + 1/P(x)) * P(u).

Requiring that width to be at most 2*eps, by the firing rule of
:func:`~epsident.distributions.firing_limit`, gives the condition

    P(u) <= 2cP(x) / (2cP(x) + P(x) + c) * eps,

under which P(y_x) is identified to

    q = P(y|x) + (P(x) - c) / (2cP(x) + P(x) + c) * eps

with radius eps.  Larger c both fires more easily (the threshold factor has
derivative 2P(x)^2 / (2cP(x) + P(x) + c)^2 > 0) and pulls q closer to
P(y|x), so automatic selection takes the largest admissible constant,
c = P(x) - u_max for a bound P(u) <= u_max, and reports its margin as an
explicit c does; when it does not fire, none does.

A coarser route needs only P(x) >= 1/2, with no tolerance slack: fixing
c = 0.4 and bounding 1/P(x) <= 2 gives the wider sandwich slopes 3 and 3.5,
the condition P(u) <= (4/13) * eps, and the center q = P(y|x) + eps/13.

The models of the graph (:class:`ConfoundedScm`, :func:`grid_scms`) and the
exact range of P(y_x) over them (:func:`confounded_effect_range`), which the
``verify`` command checks the sandwich against, are here too: they are pure
float code, so the whole confounder route loads without numpy.
``epsident.oracle`` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .config import get_tolerance
from .distributions import (
    Condition,
    EpsIdentification,
    NotIdentified,
    certify,
    check_eps,
    check_unit,
)
from .errors import InvalidDistribution
from .interval import Interval

__all__ = [
    "ConfoundedEffectInput",
    "ConfoundedScm",
    "confounded_effect_range",
    "eps_identify_effect_confounded",
    "eps_identify_effect_confounded_simple",
    "effect_sandwich",
    "grid_scms",
]

EFFECT_CONFOUNDED = "y_x"  # quantity token the identifications carry


@dataclass(frozen=True, slots=True)
class ConfoundedEffectInput:
    """Inputs for the confounded-effect identification.

    ``c`` is an explicit slack constant (0 < c <= p_x - u_max) or None for
    the largest one, c = max(p_x - u_max, 0).
    """

    p_y_given_x: float
    p_x: float
    u_max: float
    c: float | None = None

    def __post_init__(self) -> None:
        check_unit(p_y_given_x=self.p_y_given_x, p_x=self.p_x, u_max=self.u_max)
        c = None if self.c is None else float(self.c)
        _check_slack(self.p_x, self.u_max, "u_max", c)
        object.__setattr__(self, "c", c)


def _check_slack(p_x: float, u: float, u_name: str, c: float | None) -> None:
    """Reject p_x <= 0 and, when given, a slack constant outside 0 < c <= p_x - u."""
    if p_x <= 0.0:
        raise InvalidDistribution("p_x must be positive")
    if c is not None and not (0.0 < c <= p_x - u + get_tolerance()):
        raise InvalidDistribution(
            f"c must satisfy 0 < c <= p_x - {u_name} = {p_x - u:.6g}, got {c!r}"
        )


def eps_identify_effect_confounded(
    inp: ConfoundedEffectInput,
    eps: float,
) -> EpsIdentification | NotIdentified:
    """Identify P(y_x) from P(x), P(y|x), and a confounder-mass bound.

    The condition is checked at the slack constant as stated, and a failing
    one reports its margin.  With ``c=None`` the constant is the largest
    admissible one, c = max(p_x - u_max, 0), which fires whenever any
    constant does; at c = 0 the threshold is 0, so the margin is u_max.
    """
    check_eps(eps)
    c = max(inp.p_x - inp.u_max, 0.0) if inp.c is None else inp.c
    den = 2.0 * c * inp.p_x + inp.p_x + c
    slope = 2.0 * c * inp.p_x / den
    condition = Condition(
        entry_id="effect-confounded",
        premise=f"P(u) <= 2cP(x)/(2cP(x)+P(x)+c) * eps  [c={c:g}]",
        premise_value=inp.u_max,
        threshold="2cP(x)/(2cP(x)+P(x)+c) * eps",
        threshold_value=slope * eps,
        center="P(y|x) + (P(x)-c)/(2cP(x)+P(x)+c) * eps",
    )
    q = inp.p_y_given_x + (inp.p_x - c) / den * eps
    return certify(EFFECT_CONFOUNDED, q, eps, condition, slope)


def eps_identify_effect_confounded_simple(
    p_y_given_x: float,
    p_x: float,
    u_max: float,
    eps: float,
) -> EpsIdentification | NotIdentified:
    """The coarse route: requires P(x) >= 1/2 exactly, as its proof needs
    1/P(x) <= 2, fires when P(u) <= (4/13)*eps, and identifies P(y_x) to
    P(y|x) + eps/13."""
    check_eps(eps)
    check_unit(p_y_given_x=p_y_given_x, p_x=p_x, u_max=u_max)
    if p_x < 0.5:
        raise InvalidDistribution(f"the simple route requires P(x) >= 0.5, got {p_x!r}")
    condition = Condition(
        entry_id="effect-confounded-simple",
        premise="P(u) <= (4/13) * eps  [P(x) >= 1/2, c = 0.4]",
        premise_value=u_max,
        threshold="(4/13) * eps",
        threshold_value=4.0 / 13.0 * eps,
        center="P(y|x) + eps/13",
    )
    return certify(EFFECT_CONFOUNDED, p_y_given_x + eps / 13.0, eps, condition, 4.0 / 13.0)


def effect_sandwich(p_y_given_x: float, p_x: float, p_u: float, c: float) -> Interval:
    """The raw sandwich on P(y_x) for a known confounder mass P(u).

    Valid for any model on the confounder graph with the given P(x), P(y|x)
    and 0 < c <= P(x) - P(u); endpoints are not clamped to [0,1].
    """
    check_unit(p_y_given_x=p_y_given_x, p_x=p_x, p_u=p_u)
    _check_slack(p_x, p_u, "p_u", c)
    lo = p_y_given_x - (1.0 + 1.0 / p_x) * p_u
    hi = p_y_given_x + (1.0 + 1.0 / c) * p_u
    return Interval(lo, hi)


@dataclass(frozen=True, slots=True)
class ConfoundedScm:
    """Parameters of the confounder graph: P(u), P(x|u), and P(y|x,u)."""

    p_u: float
    p_x_given_u: float
    p_x_given_up: float
    p_y_given_xu: float
    p_y_given_xup: float
    p_y_given_xpu: float
    p_y_given_xpup: float

    def __post_init__(self) -> None:
        check_unit(**{name: getattr(self, name) for name in self.__slots__})

    @property
    def p_x(self) -> float:
        return self.p_x_given_u * self.p_u + self.p_x_given_up * (1.0 - self.p_u)

    @property
    def p_xy(self) -> float:
        return (
            self.p_y_given_xu * self.p_x_given_u * self.p_u
            + self.p_y_given_xup * self.p_x_given_up * (1.0 - self.p_u)
        )

    @property
    def p_y_given_x(self) -> float | None:
        px = self.p_x
        if px <= 0.0:
            return None
        return self.p_xy / px

    @property
    def p_y_do_x(self) -> float:
        """Interventional effect by direct enumeration of the covariate."""
        return self.p_y_given_xu * self.p_u + self.p_y_given_xup * (1.0 - self.p_u)

    @property
    def p_y_do_xp(self) -> float:
        return self.p_y_given_xpu * self.p_u + self.p_y_given_xpup * (1.0 - self.p_u)


def confounded_effect_range(
    p_x: float,
    p_y_given_x: float,
    u_max: float,
    grid_step: float = 1e-3,
) -> Interval:
    """Exact range of P(y_x) over confounder models with P(x), P(y|x) and P(u) <= u_max.

    ``grid_step`` is accepted for compatibility and ignored.

    Write X = P(x), Y = P(y|x), p = P(u), m = P(x,u) and k = P(x,y,u).  A
    model matches the data when m lies in [max(0, p - (1-X)), min(p, X)]
    (P(x|u) and P(x|u') in [0,1]) and k in [max(0, m - X(1-Y)), min(m, XY)]
    (P(y|x,u) and P(y|x,u') in [0,1]).  For 0 < m < X the effect is

        P(y_x) = p * k/m + (1-p) * (XY - k)/(X - m).

    It is affine in k, so its extremes over k lie at the two k endpoints.
    On each endpoint branch it is monotone in m: with k = min(m, XY) it
    falls, as p + (1-p)(XY-m)/(X-m) or pXY/m, and with k = max(0, m - X(1-Y))
    it rises, as (1-p)XY/(X-m) or 1 - pX(1-Y)/m.  So its extremes over m lie
    at the two m endpoints.  The two faces leave one conditional free:

        m = 0 (needs p <= 1-X): P(y|x,u) free, P(y_x) in (1-p)Y + p*[0,1];
        m = X (needs p >= X):   P(y|x,u') free, P(y_x) in pY + (1-p)*[0,1].

    They hold the limits of the branches as m tends to 0 or X.  Each branch
    at an m endpoint is, as a function of p, one of: constant (XY,
    1-X(1-Y), 1-X+XY), 1 - X(1-Y)(1-p)/(X-p) (falling), (1-p)XY/(X-p)
    (rising), pXY/(p-(1-X)) (falling) or 1 - pX(1-Y)/(p-(1-X)) (rising); the
    faces are linear in p.  Which form applies changes only where p crosses
    1-X or X (an m endpoint changes form) or where an m endpoint crosses XY
    or X(1-Y) (a k endpoint changes form): p = XY, X(1-Y), 1-X+XY or
    1-X+X(1-Y).  Between those breakpoints every candidate is monotone in
    p, so the extremes lie at p = 0, p = u_max or a breakpoint inside
    [0, u_max].  The matching (p, m, k) form a convex set, so every value
    between the extremes is reached as well.
    """
    check_unit(p_x=p_x, p_y_given_x=p_y_given_x, u_max=u_max)
    _check_slack(p_x, u_max, "u_max", None)
    X, Y = p_x, p_y_given_x
    xy, xyp = X * Y, X * (1.0 - Y)
    breaks = (1.0 - X, X, xy, xyp, 1.0 - X + xy, 1.0 - X + xyp)
    values: list[float] = []
    for p in (0.0, u_max, *(b for b in breaks if 0.0 < b < u_max)):
        for m in (max(0.0, p - (1.0 - X)), min(p, X)):
            if m <= 0.0:
                values += ((1.0 - p) * Y, (1.0 - p) * Y + p)
            elif m >= X:
                values += (p * Y, p * Y + 1.0 - p)
            else:
                for k in (max(0.0, m - xyp), min(m, xy)):
                    values.append(p * k / m + (1.0 - p) * (xy - k) / (X - m))
    return Interval(max(min(values), 0.0), min(max(values), 1.0))


def grid_scms(
    u_values,
    x_values,
    y_values,
) -> Iterator[ConfoundedScm]:
    """Enumerate confounder models on a parameter grid (for sweep checks)."""
    for p_u in u_values:
        for p_x_given_u in x_values:
            for p_x_given_up in x_values:
                for p_y_given_xu in y_values:
                    for p_y_given_xup in y_values:
                        yield ConfoundedScm(
                            p_u=float(p_u),
                            p_x_given_u=float(p_x_given_u),
                            p_x_given_up=float(p_x_given_up),
                            p_y_given_xu=float(p_y_given_xu),
                            p_y_given_xup=float(p_y_given_xup),
                            p_y_given_xpu=0.0,
                            p_y_given_xpup=0.0,
                        )
