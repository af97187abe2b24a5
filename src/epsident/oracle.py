"""Independent brute-force verifier over the response-type polytope.

Any model of binary treatment X and binary outcome Y, however confounded,
induces a joint distribution over (response type, X) with the four response
types

    complier      y_x  and y'_{x'}
    always-taker  y_x  and y_{x'}
    never-taker   y'_x and y'_{x'}
    defier        y'_x and y_{x'}

and conversely every such 8-cell joint is realized by some model.  All
quantities this package bounds are linear in those 8 cells (after fixing
known denominators), so their exact feasible ranges are linear programs over
the polytope cut out of the simplex by the supplied data.

The LP is solved by exact enumeration of basic feasible solutions of the
equality system, which avoids any dependence on iterative-solver
tolerances: a vertex value is a ratio of small determinants of 0/1 matrices
and float data, accurate to machine precision.  That exactness is what the
bound-tightness tests lean on.

The constraint matrix depends only on which data atoms are present, not on
their values, and every basic solution is a fixed linear function of the
right-hand side.  So each atom pattern (at most 2**10 - 1 of them) is
row-reduced and its nonsingular bases are inverted once, into one cached map
from the data to every basic solution.  A call then only checks the data
against the dependent rows, applies that map in one matrix-vector product
and keeps the distinct feasible solutions.

The confounder graph U -> X, U -> Y, X -> Y has its own oracle,
:func:`confounded_effect_range`: the exact range of P(y_x) in closed form,
derived from the model's parameters alone (see its docstring).  It is pure
float code, so it lives with :class:`ConfoundedScm` and :func:`grid_scms` in
``confounded``, which loads without numpy; this module re-exports all three.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .config import get_tolerance
from .confounded import ConfoundedScm, confounded_effect_range, grid_scms  # re-exported
from .distributions import (
    Assumptions,
    ExperimentalDistribution,
    ObservationalDistribution,
    present_atoms,
)
from .errors import Infeasible, InvalidDistribution, MissingData, Unsupported, ZeroDenominator
from .forms import QUANTITY_ATOMS
from .interval import Interval

__all__ = [
    "RESPONSE_TYPES",
    "ResponseTypeJoint",
    "SampledScenario",
    "ConfoundedScm",
    "sample_joint",
    "feasible_vertices",
    "feasible_range",
    "confounded_effect_range",
    "grid_scms",
]

RESPONSE_TYPES = ("complier", "always_taker", "never_taker", "defier")

# flat variable order: (type, x-state) row-major over the table above
_N = 8

_ROWS = {
    # experimental marginals
    "p_y_do_x": np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float),
    "p_y_do_xp": np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=float),
    # observational cells
    "p_xy": np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=float),
    "p_xyp": np.array([0, 0, 0, 0, 1, 0, 1, 0], dtype=float),
    "p_xpy": np.array([0, 0, 0, 1, 0, 0, 0, 1], dtype=float),
    "p_xpyp": np.array([0, 1, 0, 0, 0, 1, 0, 0], dtype=float),
}

_MARGINAL_ROWS = {
    bound: sum(_ROWS[cell] for cell in QUANTITY_ATOMS[bound.removesuffix("_max")])
    for bound in Assumptions.__slots__
}

_OBJECTIVES = {
    "pns": np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float),
    "y_x": _ROWS["p_y_do_x"],
    "yp_x": 1.0 - _ROWS["p_y_do_x"],
    "y_xp": _ROWS["p_y_do_xp"],
    "yp_xp": 1.0 - _ROWS["p_y_do_xp"],
    # pn/ps numerators; the known denominator is divided through afterwards
    "pn": np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=float),
    "ps": np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=float),
}

# row reduction: a column whose largest remaining entry is at most this has no pivot
_PIVOT_TOL = 1e-12
# row reduction: entries at most this in a pivot column are left uneliminated
_ELIM_TOL = 1e-15
# largest residue of the data on a dependent row that still counts as consistent
_CONSISTENCY_TOL = 1e-9
# most negative basic-solution coordinate that still counts as nonnegative
_NONNEG_TOL = 1e-9
# largest equality residual of a candidate vertex against the full system
_RESIDUAL_TOL = 1e-7


class ResponseTypeJoint:
    """Joint distribution over (response type, observed treatment).

    ``cells[i, j]`` is P(type_i, X=j-state) with rows ordered
    complier, always-taker, never-taker, defier and columns x, x'.
    """

    __slots__ = ("cells",)

    def __init__(self, cells) -> None:
        arr = np.asarray(cells, dtype=float)
        if arr.shape != (4, 2):
            raise InvalidDistribution(f"response-type joint must be (4,2), got {arr.shape}")
        tol = get_tolerance()
        # negated comparisons, so that a NaN or infinite cell fails them too
        if not arr.min() >= -tol:
            raise InvalidDistribution("response-type joint cells must be non-negative")
        if not abs(arr.sum() - 1.0) <= tol:
            raise InvalidDistribution(f"response-type joint must sum to 1, got {arr.sum()!r}")
        self.cells = np.clip(arr, 0.0, None)
        self.cells.flags.writeable = False

    def as_vector(self) -> np.ndarray:
        return self.cells.reshape(-1)

    def type_marginal(self, name: str) -> float:
        return float(self.cells[RESPONSE_TYPES.index(name)].sum())

    # forward maps -----------------------------------------------------

    def experimental(self) -> ExperimentalDistribution:
        q = self.as_vector()
        return ExperimentalDistribution(
            p_y_do_x=float(_ROWS["p_y_do_x"] @ q),
            p_y_do_xp=float(_ROWS["p_y_do_xp"] @ q),
        )

    def observational(self) -> ObservationalDistribution:
        q = self.as_vector()
        return ObservationalDistribution(
            p_xy=float(_ROWS["p_xy"] @ q),
            p_xyp=float(_ROWS["p_xyp"] @ q),
            p_xpy=float(_ROWS["p_xpy"] @ q),
            p_xpyp=float(_ROWS["p_xpyp"] @ q),
        )

    # ground-truth quantities -------------------------------------------

    def pns(self) -> float:
        return self.type_marginal("complier")

    def pn(self) -> float:
        p_xy = float(_ROWS["p_xy"] @ self.as_vector())
        if p_xy <= get_tolerance():
            raise ZeroDenominator("P(x,y) = 0, pn is undefined")
        return float(self.cells[0, 0]) / p_xy

    def ps(self) -> float:
        p_xpyp = float(_ROWS["p_xpyp"] @ self.as_vector())
        if p_xpyp <= get_tolerance():
            raise ZeroDenominator("P(x',y') = 0, ps is undefined")
        return float(self.cells[0, 1]) / p_xpyp

    def effect(self, variant: str) -> float:
        return float(_OBJECTIVES[variant] @ self.as_vector())


class SampledScenario(NamedTuple):
    joint: ResponseTypeJoint
    experimental: ExperimentalDistribution
    observational: ObservationalDistribution


def sample_joint(seed: int, defier_free: bool = False) -> SampledScenario:
    """Deterministic pseudo-random joint plus its induced distributions.

    The induced pair is compatible by construction.  With ``defier_free``
    the defier row is zero, i.e. the sampled model is monotone.
    """
    rng = np.random.default_rng(seed)
    if defier_free:
        cells = np.zeros((4, 2))
        cells[:3, :] = rng.dirichlet(np.ones(6)).reshape(3, 2)
    else:
        cells = rng.dirichlet(np.ones(8)).reshape(4, 2)
    joint = ResponseTypeJoint(cells)
    return SampledScenario(joint, joint.experimental(), joint.observational())


def _atoms(exp, obs, assumptions) -> tuple[tuple[str, ...], list[float]]:
    """Names and values of the supplied data atoms, in equality-row order:
    experimental arms, observational cells, then asserted marginal bounds."""
    present = present_atoms(exp, obs, assumptions)
    if not present:
        raise MissingData(["any data atom"], "feasible range")
    return tuple(present), list(present.values())


def _row_reduce(A: np.ndarray):
    """Gauss-Jordan elimination with partial pivoting on ``[A | I]``.

    Pivots and eliminations look at A's columns only, so the identity block
    records the row operations: returns the independent rows ``Ared``, the
    map ``T`` with ``bred = T @ b`` and the rows ``N`` with ``N @ b`` the
    residue that dependent rows leave of any right-hand side.
    """
    n_rows, n_cols = A.shape
    M = np.hstack([A, np.eye(n_rows)])
    r = 0
    for col in range(n_cols):
        piv = None
        best = _PIVOT_TOL
        for i in range(r, n_rows):
            if abs(M[i, col]) > best:
                best = abs(M[i, col])
                piv = i
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        M[r] /= M[r, col]
        for i in range(n_rows):
            if i != r and abs(M[i, col]) > _ELIM_TOL:
                M[i] -= M[i, col] * M[r]
        r += 1
        if r == n_rows:
            break
    return M[:r, :n_cols], M[:r, n_cols:], M[r:, n_cols:]


class _PatternSystem(NamedTuple):
    """The part of the equality system fixed by which atoms are present."""

    A: np.ndarray  # rows: sum-to-one, then one per atom; columns: 8 cells, then slacks
    N: np.ndarray  # data are consistent when |N @ b| <= _CONSISTENCY_TOL
    P: np.ndarray  # (P @ b).reshape(k, n): every basic solution, zero off its basis


# The benchmark's traffic visits 41 patterns, about 1 MB of maps; all 1023
# patterns would hold about 24 MB.
_PATTERN_CACHE_SIZE = 64


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern_system(names: tuple[str, ...]) -> _PatternSystem:
    n_slack = sum(name in _MARGINAL_ROWS for name in names)
    A = np.zeros((len(names) + 1, _N + n_slack))
    A[0, :_N] = 1.0
    slack = _N
    for i, name in enumerate(names, start=1):
        if name in _ROWS:
            A[i, :_N] = _ROWS[name]
        else:  # a marginal bound: row + slack = value
            A[i, :_N] = _MARGINAL_ROWS[name]
            A[i, slack] = 1.0
            slack += 1
    Ared, T, N = _row_reduce(A)
    r, n = Ared.shape
    bases = np.array(list(combinations(range(n), r)), dtype=np.intp)
    B = Ared[:, bases].transpose(1, 0, 2)
    # an exactly zero LU determinant is where np.linalg.solve would refuse the basis
    nonsingular = np.linalg.det(B) != 0.0
    bases, B = bases[nonsingular], B[nonsingular]
    k = len(bases)
    P = np.zeros((k, n, len(A)))
    P[np.arange(k)[:, None], bases] = np.linalg.inv(B) @ T
    system = _PatternSystem(A, N, P.reshape(k * n, len(A)))
    for arr in system:
        arr.flags.writeable = False
    return system


def feasible_vertices(
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    assumptions: Assumptions | None = None,
) -> np.ndarray:
    """All vertices of the feasible polytope, one row per vertex.

    Columns are the 8 response-type cells (slack coordinates for marginal
    bounds are dropped).  Raises :class:`Infeasible` when no joint matches
    the supplied data.
    """
    names, values = _atoms(exp, obs, assumptions)
    system = _pattern_system(names)
    b = np.array([1.0, *values])
    if system.N.size and np.abs(system.N @ b).max() > _CONSISTENCY_TOL:
        raise Infeasible("supplied data atoms are mutually inconsistent")
    Q = (system.P @ b).reshape(-1, system.A.shape[1])
    # negated tests, so a NaN coordinate passes them as it did the per-basis loop
    keep = ~(Q.min(axis=1) < -_NONNEG_TOL)
    keep &= ~(np.abs(Q @ system.A.T - b).max(axis=1) > _RESIDUAL_TOL)
    if not keep.any():
        raise Infeasible("no response-type joint matches the supplied data")
    rows = np.round(np.clip(Q[keep, :_N], 0.0, None), 12)
    # distinct rows in lexicographic order; clip made every -0.0 +0.0, so the
    # bits of a row never depend on which of its duplicates the set kept
    return np.array(sorted(set(map(tuple, rows.tolist()))))


def feasible_range(
    target: str,
    exp: ExperimentalDistribution | None = None,
    obs: ObservationalDistribution | None = None,
    assumptions: Assumptions | None = None,
    payoffs=None,
    vertices: np.ndarray | None = None,
) -> Interval:
    """Exact [min, max] of a target over every joint consistent with the data.

    ``target`` is one of ``pns|pn|ps|y_x|yp_x|y_xp|yp_xp|benefit``; the
    benefit target needs ``payoffs`` (an object with beta/gamma/theta/delta).
    ``vertices`` can pass a precomputed :func:`feasible_vertices` result when
    ranging several targets over one dataset.

    pn and ps are ratios with data-fixed denominators, hence linear; they are
    ``Unsupported`` without the observational joint.
    """
    if target == "benefit":
        if payoffs is None:
            raise Unsupported("benefit target requires payoffs")
        obj = np.repeat(
            np.array([payoffs.beta, payoffs.gamma, payoffs.theta, payoffs.delta], dtype=float), 2
        )
        den = 1.0
    elif target in ("pn", "ps"):
        den_name = "p_xy" if target == "pn" else "p_xpyp"
        den = None if obs is None else obs.cell(den_name)
        if den is None:
            raise Unsupported(f"{target} needs the observational cell {den_name}")
        if den <= get_tolerance():
            raise ZeroDenominator(f"{den_name} = 0, {target} is undefined")
        obj = _OBJECTIVES[target]
    elif target in _OBJECTIVES:
        obj = _OBJECTIVES[target]
        den = 1.0
    else:
        raise Unsupported(f"unknown target {target!r}")
    if vertices is None:
        vertices = feasible_vertices(exp, obs, assumptions)
    values = vertices @ obj / den
    return Interval(float(values.min()), float(values.max()))
