"""Generated catalogs of identification conditions.

Each tight bound is a max over lower arguments and a min over upper
arguments.  Pairing one lower argument L with one upper argument U gives a
sufficient condition for near-point identification:

    if U - L <= 2*eps then the target lies in [L, L + 2*eps]
    (equivalently in [U - 2*eps, U]),

so the target is identified to L + eps, or equally to U - eps, with radius
eps.  For the two ratio-bounded quantities the pair condition is stated with
the denominator multiplied through, e.g. "numerator <= 2*eps*P(x,y)", which
keeps every premise affine in the data atoms.

The catalogs below are generated mechanically from the argument forms and a
selection table saying which (pair, side) combinations are published
conditions.  The remaining combinations are equally sound (under a pair's
premise both centers are within 2*eps of each other); only the selected set
is scanned so that the emitted conditions match the published ones
one-for-one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import get_tolerance
from .errors import InvalidDistribution, ZeroDenominator
from .forms import QUANTITY_LABELS, GroupedExpr, LinearForm, group

__all__ = [
    "BoundArgument",
    "CatalogEntry",
    "Target",
    "TARGETS",
    "target",
    "PNS_CATALOG",
    "PN_CATALOG",
    "PS_CATALOG",
    "CATALOGS",
]

_A = LinearForm.atom
_ONE = LinearForm.constant(1.0)
_ZERO = LinearForm.zero()


def _ratio_label(expr: GroupedExpr, denominator: str | None) -> str:
    if denominator is None:
        return expr.label
    if expr.terms == ((1.0, denominator),):
        return "1"
    if expr.is_zero():
        return "0"
    return f"({expr.label}) / {QUANTITY_LABELS[denominator]}"


@dataclass(frozen=True, slots=True)
class BoundArgument:
    """One argument of a tight bound's max (side=lower) or min (side=upper).

    ``expr`` is the argument itself, or the ratio numerator for the
    denominator-scaled quantities (the constant bounds 0 and 1 appear as the
    numerators 0 and the denominator itself).
    """

    name: str
    side: str  # "lower" | "upper"
    expr: GroupedExpr
    denominator: str | None = None

    @property
    def label(self) -> str:
        return _ratio_label(self.expr, self.denominator)


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One published identification condition.

    ``premise`` is the grouped form of (upper - lower) (of the numerators for
    ratio quantities); it fires when its value is at most ``2*eps`` times the
    denominator (times 1 when ``denominator`` is None).  The reported center
    is the value of ``center`` (divided by the denominator if any) shifted by
    ``center_sign * eps``.
    """

    entry_id: str
    quantity: str
    lower: BoundArgument
    upper: BoundArgument
    side: str
    premise: GroupedExpr
    center: GroupedExpr
    center_sign: float  # +1: q = center + eps ; -1: q = center - eps
    denominator: str | None

    @property
    def threshold_label(self) -> str:
        if self.denominator is None:
            return "2*eps"
        return f"2*eps*{QUANTITY_LABELS[self.denominator]}"

    @property
    def premise_label(self) -> str:
        return f"{self.premise.label} <= {self.threshold_label}"

    @property
    def center_label(self) -> str:
        base = _ratio_label(self.center, self.denominator)
        if base == "0":
            return "eps" if self.center_sign > 0 else "-eps"
        sign = "+" if self.center_sign > 0 else "-"
        return f"{base} {sign} eps"


@dataclass(frozen=True, slots=True)
class Target:
    """One counterfactual target: its tight-bound system and its catalog.

    The tight bounds are the max over ``lower`` and the min over ``upper``;
    ratio targets divide every argument by the ``denominator`` cell.
    """

    name: str
    label: str
    denominator: str | None
    lower: tuple[BoundArgument, ...]
    upper: tuple[BoundArgument, ...]
    entries: tuple[CatalogEntry, ...]

    def require_denominator(self, value: float | None) -> None:
        """Raise :class:`ZeroDenominator` when this is a ratio target and the
        denominator's ``value`` is zero; None means the value is unknown."""
        if self.denominator is not None and value is not None and value <= get_tolerance():
            raise ZeroDenominator(
                f"{QUANTITY_LABELS[self.denominator]} = 0, {self.name} is undefined"
            )


# Argument definitions.  Lower bound = max over the lower forms, upper bound
# = min over the upper forms; ratio quantities divide by their denominator.

_PNS_LOWER_DEFS = (
    ("L1", _ZERO),
    ("L2", _A("p_y_do_x") - _A("p_y_do_xp")),
    ("L3", _A("p_xy") + _A("p_xpy") - _A("p_y_do_xp")),
    ("L4", _A("p_y_do_x") - _A("p_xy") - _A("p_xpy")),
)
_PNS_UPPER_DEFS = (
    ("U1", _A("p_y_do_x")),
    ("U2", _ONE - _A("p_y_do_xp")),
    ("U3", _A("p_xy") + _A("p_xpyp")),
    ("U4", _A("p_y_do_x") - _A("p_y_do_xp") + _A("p_xyp") + _A("p_xpy")),
)
_PN_LOWER_DEFS = (
    ("N1", _ZERO),
    ("N2", _A("p_xy") + _A("p_xpy") - _A("p_y_do_xp")),
)
_PN_UPPER_DEFS = (
    ("M1", _A("p_xy")),
    ("M2", _ONE - _A("p_y_do_xp") - _A("p_xpyp")),
)
_PS_LOWER_DEFS = (
    ("S1", _ZERO),
    ("S2", _A("p_xyp") + _A("p_xpyp") - (_ONE - _A("p_y_do_x"))),
)
_PS_UPPER_DEFS = (
    ("T1", _A("p_xpyp")),
    ("T2", _A("p_y_do_x") - _A("p_xy")),
)

# Published (lower index, upper index, reported side) selections, in the
# published order; indices are 1-based into the definition tuples.
_PNS_SELECTION = (
    (1, 1, "lower"),
    (1, 2, "lower"),
    (1, 3, "lower"),
    (1, 4, "lower"),
    (2, 1, "upper"),
    (2, 2, "upper"),
    (2, 4, "lower"),
    (2, 3, "lower"),
    (2, 3, "upper"),
    (3, 2, "upper"),
    (3, 1, "upper"),
    (3, 1, "lower"),
    (3, 3, "upper"),
    (3, 3, "lower"),
    (3, 4, "lower"),
    (4, 1, "upper"),
    (4, 2, "upper"),
    (4, 2, "lower"),
    (4, 3, "upper"),
    (4, 3, "lower"),
    (4, 4, "lower"),
)
_PN_SELECTION = (
    (1, 2, "lower"),
    (2, 1, "upper"),
    (2, 1, "lower"),
    (2, 2, "upper"),
    (2, 2, "lower"),
)
_PS_SELECTION = _PN_SELECTION


def _arguments(defs, side: str, denominator: str | None):
    return tuple(BoundArgument(name, side, group(form), denominator) for name, form in defs)


def _build_target(quantity, label, lower_defs, upper_defs, selection, denominator) -> Target:
    lower_args = _arguments(lower_defs, "lower", denominator)
    upper_args = _arguments(upper_defs, "upper", denominator)
    entries = []
    for k, (li, ui, side) in enumerate(selection, start=1):
        premise = group(upper_defs[ui - 1][1] - lower_defs[li - 1][1])
        center_arg = lower_args[li - 1] if side == "lower" else upper_args[ui - 1]
        entries.append(
            CatalogEntry(
                entry_id=f"{quantity}-{k:02d}",
                quantity=quantity,
                lower=lower_args[li - 1],
                upper=upper_args[ui - 1],
                side=side,
                premise=premise,
                center=center_arg.expr,
                center_sign=1.0 if side == "lower" else -1.0,
                denominator=denominator,
            )
        )
    return Target(quantity, label, denominator, lower_args, upper_args, tuple(entries))


#: every counterfactual target, in display order
TARGETS: dict[str, Target] = {
    t.name: t
    for t in (
        _build_target("pns", "PNS", _PNS_LOWER_DEFS, _PNS_UPPER_DEFS, _PNS_SELECTION, None),
        _build_target("pn", "PN", _PN_LOWER_DEFS, _PN_UPPER_DEFS, _PN_SELECTION, "p_xy"),
        _build_target("ps", "PS", _PS_LOWER_DEFS, _PS_UPPER_DEFS, _PS_SELECTION, "p_xpyp"),
    )
}

CATALOGS = {name: t.entries for name, t in TARGETS.items()}
PNS_CATALOG, PN_CATALOG, PS_CATALOG = CATALOGS.values()


def target(name: str) -> Target:
    """The :class:`Target` called ``name``; unknown names raise InvalidDistribution."""
    if name not in TARGETS:
        raise InvalidDistribution(f"unknown quantity {name!r}")
    return TARGETS[name]
