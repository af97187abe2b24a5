"""Linear forms over the primitive data atoms.

The tight bounds on the counterfactual quantities are max/min over small
sets of arguments, each argument affine in six primitive atoms:

    p_y_do_x, p_y_do_xp            (experimental)
    p_xy, p_xyp, p_xpy, p_xpyp     (observational joint cells)

Pair conditions are differences of such arguments.  To state each condition
in its conventional simplified shape (and to evaluate it from partial data),
a difference is mechanically normalized:

1. reduce cell coefficients modulo the identity  sum(cells) = 1, picking the
   shift that zeroes the most cells;
2. group equal-coefficient cell pairs into marginals P(x), P(x'), P(y), P(y');
3. fold a +-1 constant into a complement quantity, e.g. 1 - P(y_x) = P(y'_x).

The resulting :class:`GroupedExpr` is a signed sum of named quantities.  It
evaluates exactly from full data, and one-sidedly (an upper bound) from
partial data plus asserted marginal bounds, which is what premise checks
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

EXP_ATOMS = ("p_y_do_x", "p_y_do_xp")
CELL_ATOMS = ("p_xy", "p_xyp", "p_xpy", "p_xpyp")
ATOMS = EXP_ATOMS + CELL_ATOMS

#: quantities a grouped expression may reference, in canonical display order
QUANTITIES = (
    "p_y_do_x",
    "p_y_do_xp",
    "p_yp_do_x",
    "p_yp_do_xp",
    "p_x",
    "p_xp",
    "p_y",
    "p_yp",
    "p_xy",
    "p_xyp",
    "p_xpy",
    "p_xpyp",
)

QUANTITY_LABELS = {
    "p_y_do_x": "P(y_x)",
    "p_y_do_xp": "P(y_{x'})",
    "p_yp_do_x": "P(y'_x)",
    "p_yp_do_xp": "P(y'_{x'})",
    "p_x": "P(x)",
    "p_xp": "P(x')",
    "p_y": "P(y)",
    "p_yp": "P(y')",
    "p_xy": "P(x,y)",
    "p_xyp": "P(x,y')",
    "p_xpy": "P(x',y)",
    "p_xpyp": "P(x',y')",
}

#: primitive atoms each quantity is computed from
QUANTITY_ATOMS: dict[str, tuple[str, ...]] = {
    "p_y_do_x": ("p_y_do_x",),
    "p_y_do_xp": ("p_y_do_xp",),
    "p_yp_do_x": ("p_y_do_x",),
    "p_yp_do_xp": ("p_y_do_xp",),
    "p_x": ("p_xy", "p_xyp"),
    "p_xp": ("p_xpy", "p_xpyp"),
    "p_y": ("p_xy", "p_xpy"),
    "p_yp": ("p_xyp", "p_xpyp"),
    "p_xy": ("p_xy",),
    "p_xyp": ("p_xyp",),
    "p_xpy": ("p_xpy",),
    "p_xpyp": ("p_xpyp",),
}

#: complement pairs, 1 - q = COMPLEMENTS[q], in the order group() folds them
COMPLEMENTS = {
    "p_y_do_xp": "p_yp_do_xp", "p_y_do_x": "p_yp_do_x",
    "p_y": "p_yp", "p_yp": "p_y", "p_x": "p_xp", "p_xp": "p_x",
}

#: quantities valued one minus the sum of their atoms: P(y'_t) = 1 - P(y_t)
ONE_MINUS = frozenset(COMPLEMENTS[arm] for arm in EXP_ATOMS)


def quantity_from_atoms(name: str, atoms: Mapping[str, float]) -> float:
    """Value of a named quantity given all its primitive atoms (KeyError if absent):
    the sum of its atoms, or one minus that for a complement P(y'_t)."""
    total = sum(atoms[atom] for atom in QUANTITY_ATOMS[name])
    return 1.0 - total if name in ONE_MINUS else total


@dataclass(frozen=True, slots=True)
class LinearForm:
    """const + sum(coef * atom) over the six primitive atoms."""

    const: float
    coefs: tuple[float, ...]  # aligned with ATOMS

    @staticmethod
    def zero() -> "LinearForm":
        return LinearForm(0.0, (0.0,) * len(ATOMS))

    @staticmethod
    def constant(value: float) -> "LinearForm":
        return LinearForm(float(value), (0.0,) * len(ATOMS))

    @staticmethod
    def atom(name: str, coef: float = 1.0) -> "LinearForm":
        coefs = [0.0] * len(ATOMS)
        coefs[ATOMS.index(name)] = float(coef)
        return LinearForm(0.0, tuple(coefs))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(
            self.const + other.const,
            tuple(a + b for a, b in zip(self.coefs, other.coefs)),
        )

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(
            self.const - other.const,
            tuple(a - b for a, b in zip(self.coefs, other.coefs)),
        )


def _mode_shift(cell_coefs: list[float]) -> float:
    """Shift that zeroes the most cell coefficients; ties prefer no shift."""
    counts: dict[float, int] = {}
    for c in cell_coefs:
        counts[c] = counts.get(c, 0) + 1
    best = max(counts.values())
    candidates = sorted(v for v, n in counts.items() if n == best)
    if 0.0 in candidates:
        return 0.0
    return min(candidates, key=lambda v: (abs(v), v))


@dataclass(frozen=True, slots=True)
class GroupedExpr:
    """A signed sum of named quantities, with a rendered label."""

    terms: tuple[tuple[float, str], ...]
    label: str

    def atoms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for _, name in self.terms:
            for atom in QUANTITY_ATOMS[name]:
                if atom not in seen:
                    seen.append(atom)
        return tuple(seen)

    def value_from_atoms(self, atoms: Mapping[str, float]) -> float:
        """Exact value given every referenced primitive atom."""
        return sum(c * quantity_from_atoms(name, atoms) for c, name in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def _render(terms: tuple[tuple[float, str], ...]) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for coef, name in terms:
        mag = abs(coef)
        body = QUANTITY_LABELS[name]
        if mag != 1.0:
            body = f"{mag:g}*{body}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


def group(form: LinearForm) -> GroupedExpr:
    """Normalize a linear form into a signed sum of named quantities.

    Coefficients, constants and shifts are small integers held exactly in
    floats, so every comparison is exact.  Raises ValueError when a nonzero
    constant survives every folding rule; the catalog arguments never do.
    """
    coefs = dict(zip(ATOMS, form.coefs))
    const = form.const

    # 1. reduce cells modulo sum(cells) = 1
    shift = _mode_shift([coefs[c] for c in CELL_ATOMS])
    if shift:
        for c in CELL_ATOMS:
            coefs[c] -= shift
        const += shift

    terms = {name: coefs.pop(name) for name in EXP_ATOMS}

    # 2. equal-coefficient cell pairs become marginals
    for marginal, pair in QUANTITY_ATOMS.items():
        if len(pair) == 2 and coefs[pair[0]] and coefs[pair[0]] == coefs[pair[1]]:
            terms[marginal] = terms.get(marginal, 0.0) + coefs[pair[0]]
            coefs[pair[0]] = coefs[pair[1]] = 0.0

    # 3. fold a constant of sign opposite to a +-1 term into its complement:
    #    1 - q = comp(q), and -1 + q = -comp(q)
    for name, comp in COMPLEMENTS.items():
        have = terms.get(name, 0.0)
        if have in (1.0, -1.0) and have * const <= -1.0:
            terms[comp] = terms.get(comp, 0.0) - have
            const += have
            del terms[name]

    terms.update(coefs)  # the cells left over; zero terms are dropped below

    if const:
        raise ValueError(f"cannot express residual constant {const} as named quantities")

    ordered = tuple(
        sorted(
            ((c, n) for n, c in terms.items() if c),
            key=lambda t: (t[0] < 0, QUANTITIES.index(t[1])),
        )
    )
    return GroupedExpr(ordered, _render(ordered))
