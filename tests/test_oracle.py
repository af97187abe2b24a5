import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epsident import (
    Assumptions,
    BenefitVector,
    CovariateJoint,
    EmptyInterval,
    EpsidentError,
    ExperimentalDistribution,
    Infeasible,
    InvalidDistribution,
    MissingData,
    ObservationalDistribution,
    Unsupported,
    ZeroDenominator,
    check_compatibility,
    feasible_range,
    feasible_vertices,
    pn_bounds,
    pns_bounds,
    ps_bounds,
    sample_joint,
)
from epsident import config, oracle
from epsident.oracle import _MARGINAL_ROWS, _N, _ROWS, ResponseTypeJoint


class TestResponseTypeJoint:
    def test_validation(self):
        with pytest.raises(InvalidDistribution):
            ResponseTypeJoint(np.full((4, 2), 0.2))
        with pytest.raises(InvalidDistribution):
            ResponseTypeJoint([[0.5, 0.6], [0, 0], [0, -0.1], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_rejected(self, bad):
        # the other cells sum to 1, so only the bad cell can fail the checks
        with pytest.raises(InvalidDistribution):
            ResponseTypeJoint([[bad, 0.25], [0.25, 0], [0.25, 0], [0.25, 0]])

    def test_forward_maps(self):
        joint = ResponseTypeJoint([[0.1, 0.2], [0.05, 0.15], [0.2, 0.1], [0.05, 0.15]])
        exp, obs = joint.experimental(), joint.observational()
        assert exp.p_y_do_x == pytest.approx(0.5)          # complier + always
        assert exp.p_y_do_xp == pytest.approx(0.4)         # always + defier
        assert obs.p_xy == pytest.approx(0.15)             # complier|x + always|x
        assert obs.p_xyp == pytest.approx(0.25)            # never|x + defier|x
        assert obs.p_xpy == pytest.approx(0.3)             # always|x' + defier|x'
        assert obs.p_xpyp == pytest.approx(0.3)            # complier|x' + never|x'
        assert joint.pns() == pytest.approx(0.3)
        assert joint.pn() == pytest.approx(0.1 / 0.15)
        assert joint.ps() == pytest.approx(0.2 / 0.3)

    def test_effect_answers_for_effects_only(self):
        joint = sample_joint(3).joint
        exp = joint.experimental()
        assert joint.effect("y_x") == pytest.approx(exp.p_y_do_x)
        assert joint.effect("yp_x") == pytest.approx(1.0 - exp.p_y_do_x)
        assert joint.effect("y_xp") == pytest.approx(exp.p_y_do_xp)
        assert joint.effect("yp_xp") == pytest.approx(1.0 - exp.p_y_do_xp)
        # the pns, pn and ps numerators share the objective table but are not effects
        for name in ("pns", "pn", "ps", "benefit", "y"):
            with pytest.raises(Unsupported):
                joint.effect(name)

    def test_type_marginal_refuses_unknown_names(self):
        joint = ResponseTypeJoint([[0.1, 0.2], [0.05, 0.15], [0.2, 0.1], [0.05, 0.15]])
        assert [joint.type_marginal(name) for name in oracle.RESPONSE_TYPES] == pytest.approx(
            [0.3, 0.2, 0.3, 0.2])
        for name in ("nope", "compliers", "Complier", ""):
            with pytest.raises(Unsupported) as info:
                joint.type_marginal(name)
            message = str(info.value)
            assert repr(name) in message
            assert all(kind in message for kind in oracle.RESPONSE_TYPES)


class TestSampling:
    def test_deterministic(self):
        a, b = sample_joint(123), sample_joint(123)
        assert np.array_equal(a.joint.cells, b.joint.cells)
        assert not np.array_equal(a.joint.cells, sample_joint(124).joint.cells)

    def test_induced_pair_always_compatible(self):
        for seed in range(300):
            scenario = sample_joint(seed)
            assert check_compatibility(scenario.experimental, scenario.observational).ok

    def test_type_coverage(self):
        counts = np.zeros(4)
        for seed in range(1000):
            counts += sample_joint(seed).joint.cells.sum(axis=1)
        assert (counts / 1000 > 0.2).all()  # every type carries real mass on average

    def test_defier_free(self):
        for seed in range(50):
            joint = sample_joint(seed, defier_free=True).joint
            assert joint.type_marginal("defier") == 0.0


class TestFeasibleRange:
    def test_running_example(self, running_exp, running_obs):
        assert feasible_range("pns", running_exp, running_obs).as_tuple() == pytest.approx((0.4, 0.7))

    def test_pure_complier_without_joint(self, point_exp):
        assert feasible_range("pns", point_exp).as_tuple() == pytest.approx((1.0, 1.0))

    def test_infeasible_data(self):
        exp = ExperimentalDistribution(p_y_do_x=0.3)
        obs = ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3)
        with pytest.raises(Infeasible):
            feasible_range("pns", exp, obs)

    def test_ratio_targets_need_joint(self, running_exp):
        with pytest.raises(Unsupported):
            feasible_range("pn", running_exp, None)

    def test_ratio_targets_need_positive_denominator(self, running_exp):
        obs = ObservationalDistribution(p_xy=0.0, p_xyp=0.4, p_xpy=0.2, p_xpyp=0.4)
        with pytest.raises(ZeroDenominator):
            feasible_range("pn", ExperimentalDistribution(0.5, 0.3), obs)

    def test_effect_range_with_partial_cells(self):
        obs = ObservationalDistribution(p_xy=0.52)
        rng = feasible_range("y_x", None, obs)
        assert rng.as_tuple() == pytest.approx((0.52, 1.0))

    def test_assumption_narrows_range(self):
        # one joint cell plus a treated-marginal bound narrow the effect to
        # [P(x,y), P(x,y) + P(x')]
        obs = ObservationalDistribution(p_xy=0.52)
        rng = feasible_range("y_x", None, obs, assumptions=Assumptions(p_xp_max=0.04))
        assert rng.as_tuple() == pytest.approx((0.52, 0.56))

    def test_assumption_alone_leaves_pns_wide(self):
        # untreated compliers sit outside P(y), so a P(y) cap cannot narrow pns
        rng = feasible_range("pns", None, None, assumptions=Assumptions(p_y_max=0.05))
        assert rng.as_tuple() == pytest.approx((0.0, 1.0))

    def test_tightness_against_closed_forms(self):
        for seed in range(400):
            scenario = sample_joint(seed)
            exp, obs = scenario.experimental, scenario.observational
            vertices = feasible_vertices(exp, obs)
            for name, fn in (("pns", pns_bounds), ("pn", pn_bounds), ("ps", ps_bounds)):
                closed = fn(exp, obs)
                rng = feasible_range(name, exp, obs, vertices=vertices)
                assert closed.lo == pytest.approx(rng.lo, abs=1e-6)
                assert closed.hi == pytest.approx(rng.hi, abs=1e-6)

    def test_true_value_always_inside_range(self):
        for seed in range(200):
            scenario = sample_joint(seed)
            vertices = feasible_vertices(scenario.experimental, scenario.observational)
            for name, truth in (
                ("pns", scenario.joint.pns()),
                ("pn", scenario.joint.pn()),
                ("ps", scenario.joint.ps()),
            ):
                rng = feasible_range(name, scenario.experimental, scenario.observational,
                                     vertices=vertices)
                assert rng.lo - 1e-9 <= truth <= rng.hi + 1e-9


def _grid_points(rows, rhs, steps=20, slack=0.05):
    """Every point of the composition grid with step 1/steps over the 8-cell
    simplex (C(steps+7, 7) points) that satisfies each constraint within slack."""
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(steps + 7), 7)),
        dtype=np.int8,
    ).reshape(-1, 7)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), steps + 7)])
    q = (np.diff(edges, axis=1) - 1) / steps
    feasible = np.ones(len(q), dtype=bool)
    for row, v in zip(rows, rhs):
        # sum the cells left to right, as a dot product of one point does:
        # grid points sit exactly on the slack boundary, so the rounding of
        # another summation order would move points in or out of the set
        total = np.zeros(len(q))
        for j, coef in enumerate(row):
            total = total + q[:, j] * coef
        feasible &= np.abs(total - v) <= slack
    return q[feasible]


@pytest.mark.slow
def test_grid_cross_check(running_exp, running_obs):
    from epsident.oracle import _OBJECTIVES, _ROWS

    rows = [_ROWS["p_y_do_x"], _ROWS["p_y_do_xp"], _ROWS["p_xy"], _ROWS["p_xyp"],
            _ROWS["p_xpy"], _ROWS["p_xpyp"]]
    rhs = [0.7, 0.3, 0.4, 0.1, 0.2, 0.3]
    vertices = feasible_vertices(running_exp, running_obs)
    slack = 0.05
    points = _grid_points(rows, rhs, slack=slack)
    for name, den in (("pns", 1.0), ("pn", 0.4), ("ps", 0.3)):
        values = points @ _OBJECTIVES[name] / den
        glo, ghi = values.min(), values.max()
        rng = feasible_range(name, running_exp, running_obs, vertices=vertices)
        # the slack band widens the grid-feasible set; a slack-sized shift in
        # each of the two constraints touching the objective cells, divided
        # by the denominator, bounds the deviation
        tol = 2 * slack / den + 1e-9
        assert abs(glo - rng.lo) <= tol
        assert abs(ghi - rng.hi) <= tol


# ---------------------------------------------------------------------------
# Reference enumeration: the per-basis loop the batched solve replaced, kept
# here as the reference feasible_vertices must agree with
# ---------------------------------------------------------------------------


def _reference_system(exp, obs, assumptions):
    rows, rhs, slack_rows = [np.ones(_N)], [1.0], []
    if exp is not None:
        for name in ("p_y_do_x", "p_y_do_xp"):
            if getattr(exp, name) is not None:
                rows.append(_ROWS[name])
                rhs.append(getattr(exp, name))
    if obs is not None:
        for name in ("p_xy", "p_xyp", "p_xpy", "p_xpyp"):
            if obs.cell(name) is not None:
                rows.append(_ROWS[name])
                rhs.append(obs.cell(name))
    if assumptions is not None:
        for name, row in _MARGINAL_ROWS.items():
            if getattr(assumptions, name) is not None:
                slack_rows.append(row)
                rhs.append(getattr(assumptions, name))
    if len(rhs) == 1:
        raise MissingData(["any data atom"], "feasible range")
    n_slack = len(slack_rows)
    A = np.zeros((len(rows) + n_slack, _N + n_slack))
    for i, row in enumerate(rows):
        A[i, :_N] = row
    for k, row in enumerate(slack_rows):
        A[len(rows) + k, :_N] = row
        A[len(rows) + k, _N + k] = 1.0
    return A, np.array(rhs, dtype=float)


def _reference_row_reduce(A, b):
    M = np.hstack([A, b[:, None]]).astype(float)
    n_rows, n_cols = A.shape
    r = 0
    for col in range(n_cols):
        piv = None
        best = 1e-12
        for i in range(r, n_rows):
            if abs(M[i, col]) > best:
                best = abs(M[i, col])
                piv = i
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        M[r] /= M[r, col]
        for i in range(n_rows):
            if i != r and abs(M[i, col]) > 1e-15:
                M[i] -= M[i, col] * M[r]
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if abs(M[i, -1]) > 1e-9:
            return None
    return M[:r, :n_cols], M[:r, -1]


def reference_vertices(exp=None, obs=None, assumptions=None):
    """One np.linalg.solve per candidate basis, row-reducing on every call."""
    A, b = _reference_system(exp, obs, assumptions)
    reduced = _reference_row_reduce(A, b)
    if reduced is None:
        raise Infeasible("supplied data atoms are mutually inconsistent")
    Ared, bred = reduced
    r, n = Ared.shape
    verts = []
    for cols in itertools.combinations(range(n), r):
        try:
            sol = np.linalg.solve(Ared[:, cols], bred)
        except np.linalg.LinAlgError:
            continue
        if sol.min() < -1e-9:
            continue
        q = np.zeros(n)
        q[list(cols)] = sol
        if np.abs(A @ q - b).max() > 1e-7:
            continue
        verts.append(np.clip(q[:_N], 0.0, None))
    if not verts:
        raise Infeasible("no response-type joint matches the supplied data")
    return np.unique(np.round(np.array(verts), 12), axis=0)


RANGE_TARGETS = ("pns", "pn", "ps", "y_x", "yp_x", "y_xp", "yp_xp", "benefit")
OBS_CELLS = ("p_xy", "p_xyp", "p_xpy", "p_xpyp")


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EpsidentError as exc:
        return type(exc), str(exc)


def _random_case(rng, form):
    """Data of one form drawn around a random response-type joint."""
    joint = ResponseTypeJoint(rng.dirichlet(np.ones(8)).reshape(4, 2))
    exp, obs = joint.experimental(), joint.observational()
    arms = {"p_y_do_x": exp.p_y_do_x, "p_y_do_xp": exp.p_y_do_xp}
    cells = {name: obs.cell(name) for name in OBS_CELLS}
    q = joint.as_vector()
    margins = {name: float(row @ q) for name, row in _MARGINAL_ROWS.items()}
    bounds = {}
    if form == "partial":
        cells = {n: v for n, v in cells.items() if rng.random() < 0.5}
        arms = {n: v for n, v in arms.items() if rng.random() < 0.7}
    elif form == "one_arm":
        cells = {}
        del arms["p_y_do_xp" if rng.random() < 0.5 else "p_y_do_x"]
        if rng.random() < 0.5:
            name = list(_MARGINAL_ROWS)[rng.integers(4)]
            bounds = {name: min(1.0, margins[name] + rng.uniform(0.0, 0.3))}
    elif form == "bounded":
        cells = {n: v for n, v in cells.items() if rng.random() < 0.4}
        arms = {n: v for n, v in arms.items() if rng.random() < 0.8}
        names = [n for n in _MARGINAL_ROWS if rng.random() < 0.5] or ["p_y_max"]
        bounds = {n: min(1.0, margins[n] + rng.uniform(0.0, 0.3)) for n in names}
    elif form == "perturbed":
        arms = {n: float(np.clip(v + rng.normal(0, 0.02), 0, 1)) for n, v in arms.items()}
        cells = {n: v for n, v in cells.items() if rng.random() < 0.7}
        cells = {n: float(np.clip(v + rng.normal(0, 0.02), 0, 1)) for n, v in cells.items()}
        cells.pop("p_xpyp", None)  # a perturbed full joint would not sum to one
    elif form == "infeasible":
        # a marginal bound below the joint's margin, with the cells that pin it
        name = list(_MARGINAL_ROWS)[rng.integers(4)]
        bounds = {name: margins[name] * rng.uniform(0.0, 0.9)}
    while sum(cells.values()) > 1.0:
        cells.popitem()
    return (
        ExperimentalDistribution(**arms) if arms else None,
        ObservationalDistribution(**cells) if cells else None,
        Assumptions(**bounds) if bounds else None,
    )


def _assert_same_vertices(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


def _assert_matches_reference(exp, obs, assume, payoffs):
    want = _outcome(reference_vertices, exp, obs, assume)
    got = _outcome(feasible_vertices, exp, obs, assume)
    if isinstance(want, tuple):
        assert got == want
        return False
    _assert_same_vertices(got, want)
    for target in RANGE_TARGETS:
        ref = _outcome(feasible_range, target, exp, obs, assume, payoffs=payoffs, vertices=want)
        new = _outcome(feasible_range, target, exp, obs, assume, payoffs=payoffs)
        if isinstance(ref, tuple):
            assert new == ref
        else:
            assert abs(new.lo - ref.lo) <= 1e-12 and abs(new.hi - ref.hi) <= 1e-12
    return True


FORMS = ("full", "partial", "bounded", "one_arm", "perturbed", "infeasible")


def test_batched_enumeration_matches_reference_loop():
    rng = np.random.default_rng(20231)
    feasible = {form: 0 for form in FORMS}
    infeasible = {form: 0 for form in FORMS}
    for k in range(2010):
        form = FORMS[k % len(FORMS)]
        payoffs = BenefitVector(*rng.uniform(-1.0, 1.0, 4))
        ok = _assert_matches_reference(*_random_case(rng, form), payoffs)
        (feasible if ok else infeasible)[form] += 1
    # every feasible form yields vertices, and the refusing forms are refused
    assert all(feasible[f] > 0 for f in ("full", "partial", "bounded", "one_arm", "perturbed"))
    assert infeasible["perturbed"] > 0 and infeasible["infeasible"] > 0


def test_refusals_match_reference_loop(monkeypatch):
    # a joint off one by 1e-7 passes a loosened tolerance but not the
    # oracle's consistency check on its dependent row
    monkeypatch.setattr(config, "_tolerance", 1e-6)
    inconsistent = (None, ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3 + 1e-7),
                    None)
    no_vertex = (ExperimentalDistribution(p_y_do_x=0.9, p_y_do_xp=0.9), None,
                 Assumptions(p_y_max=0.1))
    for case in (inconsistent, no_vertex, (None, None, None), (None, None, Assumptions())):
        want = _outcome(reference_vertices, *case)
        assert isinstance(want, tuple)
        assert _outcome(feasible_vertices, *case) == want
    assert _outcome(feasible_vertices, *inconsistent)[1] != _outcome(feasible_vertices, *no_vertex)[1]


def test_shared_atom_pattern_gets_its_own_vertices():
    # one atom pattern, two sets of values: the second call must not reuse the first's answer
    first = (ExperimentalDistribution(p_y_do_x=0.7), ObservationalDistribution(p_xy=0.4),
             Assumptions(p_xp_max=0.3))
    second = (ExperimentalDistribution(p_y_do_x=0.5), ObservationalDistribution(p_xy=0.2),
              Assumptions(p_xp_max=0.6))
    a, b = feasible_vertices(*first), feasible_vertices(*second)
    _assert_same_vertices(a, reference_vertices(*first))
    _assert_same_vertices(b, reference_vertices(*second))
    assert a.shape != b.shape or not np.allclose(a, b)
    _assert_same_vertices(feasible_vertices(*first), a)


# ---------------------------------------------------------------------------
# Bit identity: feasible_vertices' steps after the product and feasible_range's
# arithmetic, as they were before both were fused, must give the same bits
# ---------------------------------------------------------------------------


def _unfused_vertices(exp, obs, assumptions):
    """Both tests on every candidate row, np.round, then a set dedup."""
    names, values = oracle._atoms(exp, obs, assumptions)
    system = oracle._pattern_system(names)
    b = np.array([1.0, *values])
    if system.N.size and np.abs(system.N @ b).max() > oracle._CONSISTENCY_TOL:
        raise Infeasible("supplied data atoms are mutually inconsistent")
    Q = (system.P @ b).reshape(-1, system.A.shape[1])
    keep = ~(Q.min(axis=1) < -oracle._NONNEG_TOL)
    keep &= ~(np.abs(Q @ system.A.T - b).max(axis=1) > oracle._RESIDUAL_TOL)
    if not keep.any():
        raise Infeasible("no response-type joint matches the supplied data")
    rows = np.round(np.clip(Q[keep, :_N], 0.0, None), 12)
    return np.array(sorted(set(map(tuple, rows.tolist()))))


def _unfused_range(target, obs, payoffs, vertices):
    """Every vertex value divided by the denominator, then numpy's min and max."""
    if target == "benefit":
        obj = np.repeat(np.array([payoffs.beta, payoffs.gamma, payoffs.theta, payoffs.delta]), 2)
    else:
        obj = oracle._OBJECTIVES[target]
    den = obs.cell({"pn": "p_xy", "ps": "p_xpyp"}[target]) if target in ("pn", "ps") else 1.0
    values = vertices @ obj / den
    return float(values.min()), float(values.max())


def _grid_cases(rng, n):
    """Data from joints on a 0.1 grid: they sit on faces of the polytope, where
    degenerate bases repeat vertices and leave coordinates such as -5.6e-17."""
    for _ in range(n):
        joint = ResponseTypeJoint(rng.multinomial(10, np.full(8, 1 / 8)).reshape(4, 2) / 10)
        exp, obs = joint.experimental(), joint.observational()
        yield from ((exp, obs, None), (exp, None, None), (None, obs, None))


def _assert_fused_matches_unfused(exp, obs, assume, payoffs):
    """Returns the number of ranges compared, or None when both refuse."""
    want = _outcome(_unfused_vertices, exp, obs, assume)
    got = _outcome(feasible_vertices, exp, obs, assume)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    ranged = 0
    for target in RANGE_TARGETS:
        new = _outcome(feasible_range, target, exp, obs, assume, payoffs=payoffs)
        if isinstance(new, tuple):  # a dispatch refusal, before any arithmetic
            assert new[0] in (Unsupported, ZeroDenominator)
            continue
        lo, hi = _unfused_range(target, obs, payoffs, want)
        assert (new.lo.hex(), new.hi.hex()) == (lo.hex(), hi.hex())
        ranged += 1
    return ranged


def test_fused_steps_match_unfused_bits():
    rng = np.random.default_rng(1919)
    ranged = refused = 0
    cases = [_random_case(rng, FORMS[k % len(FORMS)]) for k in range(1200)]
    for case in cases + list(_grid_cases(rng, 100)):
        n = _assert_fused_matches_unfused(*case, BenefitVector(*rng.uniform(-1.0, 1.0, 4)))
        refused += n is None
        ranged += n or 0
    assert ranged > 5000 and refused > 100


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["pns", "y_x", "benefit"])
def test_non_finite_supplied_vertex_is_refused(bad, target):
    # the bad value sits in a middle row, where Python's min and max would skip a NaN
    vertices = np.array([[0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05],
                         [0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05],
                         [0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.1, 0.1]])
    vertices[1, 0] = bad
    with pytest.raises(EmptyInterval):
        feasible_range(target, payoffs=BenefitVector(0.5, -0.2, 0.1, 0.3), vertices=vertices)


def test_finite_values_whose_sum_overflows_are_ranged():
    # each vertex value is finite, but their Python sum is inf
    vertices = np.array([[0.5, 0.5, 0, 0, 0, 0, 0, 0], [0, 0, 0.5, 0.5, 0, 0, 0, 0],
                         [0, 0, 0, 0, 0.5, 0.5, 0, 0]])
    payoffs = BenefitVector(1.7e308, 1.6e308, -1.0, 0.0)
    values = vertices @ np.repeat([1.7e308, 1.6e308, -1.0, 0.0], 2)
    assert not math.isfinite(sum(values.tolist()))
    rng = feasible_range("benefit", payoffs=payoffs, vertices=vertices)
    assert rng.as_tuple() == (float(values.min()), float(values.max()))


def test_range_leaves_supplied_vertices_unchanged(running_exp, running_obs):
    vertices = feasible_vertices(running_exp, running_obs)
    before = vertices.copy()
    for target in RANGE_TARGETS:
        feasible_range(target, running_exp, running_obs, payoffs=BenefitVector(1, -1, 0.5, 2),
                       vertices=vertices)
    assert vertices.tobytes() == before.tobytes()


def _candidate_rows(exp, obs, assumptions):
    """The response-type coordinates of every candidate that passes the sign test."""
    names, values = oracle._atoms(exp, obs, assumptions)
    system = oracle._pattern_system(names)
    Q = (system.P @ np.array([1.0, *values])).reshape(-1, system.A.shape[1])[:, :_N]
    return Q[~(Q.min(axis=1) < -oracle._NONNEG_TOL)]


def test_vertices_hold_no_negative_zero():
    lifted = 0
    for case in _grid_cases(np.random.default_rng(7), 100):
        assert not np.signbit(feasible_vertices(*case)).any()
        # a candidate with a sign bit set is one the clip has to lift
        lifted += bool(np.signbit(_candidate_rows(*case)).any())
    assert lifted > 10


def test_writing_into_returned_vertices_changes_no_later_call(running_exp, running_obs):
    first = feasible_vertices(running_exp, running_obs)
    want = first.tobytes()
    first[:] = 5.0
    assert feasible_vertices(running_exp, running_obs).tobytes() == want


# ---------------------------------------------------------------------------
# Rules the oracle shares with the closed forms: the denominators of pn and
# ps and their zero refusal, and the array check of a joint
# ---------------------------------------------------------------------------

# complier|x and always-taker|x hold P(x,y); complier|x' and never-taker|x' hold P(x',y')
ZERO_DENOMINATOR_JOINTS = {
    "pn": ([[0.0, 0.2], [0.0, 0.3], [0.25, 0.1], [0.15, 0.0]], "P(x,y) = 0, pn is undefined"),
    "ps": ([[0.2, 0.0], [0.3, 0.1], [0.25, 0.0], [0.15, 0.0]], "P(x',y') = 0, ps is undefined"),
}


@pytest.mark.parametrize("target", sorted(ZERO_DENOMINATOR_JOINTS))
def test_zero_denominator_is_refused_alike_everywhere(target):
    cells, message = ZERO_DENOMINATOR_JOINTS[target]
    joint = ResponseTypeJoint(cells)
    exp, obs = joint.experimental(), joint.observational()
    closed_form = {"pn": pn_bounds, "ps": ps_bounds}[target]
    for call in (getattr(joint, target), lambda: feasible_range(target, exp, obs),
                 lambda: closed_form(exp, obs)):
        with pytest.raises(ZeroDenominator) as info:
            call()
        assert str(info.value) == message


def test_ratio_target_without_its_cell_is_unsupported(running_exp):
    # the other target's denominator does not stand in for the missing one
    obs = ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2)
    assert feasible_range("pn", running_exp, obs).lo >= 0.0
    with pytest.raises(Unsupported, match="ps needs the observational cell p_xpyp"):
        feasible_range("ps", running_exp, obs)


@pytest.mark.parametrize("target", ["y", "pns_x", "PN", "p_xy"])
def test_unknown_target_is_unsupported(target, running_exp, running_obs):
    with pytest.raises(Unsupported, match="unknown target"):
        feasible_range(target, running_exp, running_obs)


def test_benefit_without_payoffs_is_unsupported(running_exp, running_obs):
    with pytest.raises(Unsupported, match="benefit target requires payoffs"):
        feasible_range("benefit", running_exp, running_obs)


JOINTS = [(ResponseTypeJoint, (4, 2), "response-type joint"),
          (CovariateJoint, (2, 2, 2), "covariate joint")]


@pytest.mark.parametrize("cls, shape, name", JOINTS, ids=["response-type", "covariate"])
class TestJointArrayCheck:
    def test_wrong_shape(self, cls, shape, name):
        with pytest.raises(InvalidDistribution) as info:
            cls(np.full(8, 1 / 8))
        assert str(info.value) == f"{name} must have shape {shape}, got (8,)"

    @pytest.mark.parametrize("bad", [np.nan, -0.1])
    def test_nan_or_negative_cell(self, cls, shape, name, bad):
        # a finite bad value leaves the cells summing to 1, so only the sign check can fail
        cells = np.full(shape, 1 / 8)
        cells.flat[3] = bad
        cells.flat[4] = 0.25 if np.isnan(bad) else 0.25 - bad
        with pytest.raises(InvalidDistribution) as info:
            cls(cells)
        assert str(info.value) == f"{name} cells must be non-negative"

    def test_mass(self, cls, shape, name):
        with pytest.raises(InvalidDistribution) as info:
            cls(np.full(shape, 0.15))
        assert str(info.value) == f"{name} must sum to 1, got {np.full(shape, 0.15).sum()!r}"

    def test_tolerated_negative_is_clipped_and_read_only(self, cls, shape, name):
        cells = np.full(shape, 1 / 8)
        cells.flat[0] = -1e-12
        cells.flat[1] = 0.25 + 1e-12
        joint = cls(cells)
        assert joint.cells.shape == shape and joint.cells.min() == 0.0
        assert not joint.cells.flags.writeable
        with pytest.raises(ValueError):
            joint.cells[(0,) * len(shape)] = 0.5
        assert cells.flat[0] < 0.0  # the caller's array is not written


# ---------------------------------------------------------------------------
# The per-pattern map: its bases against a per-column-set solve loop, and the
# bounded cache that holds it
# ---------------------------------------------------------------------------

ALL_ATOMS = ("p_y_do_x", "p_y_do_xp", *OBS_CELLS, *_MARGINAL_ROWS)


def _reference_bases(A):
    """The column sets whose basis matrix np.linalg.solve accepts, in
    itertools.combinations order."""
    Ared = oracle._row_reduce(A)[0]
    r, n = Ared.shape
    bases = []
    for cols in itertools.combinations(range(n), r):
        try:
            np.linalg.solve(Ared[:, cols], np.zeros(r))
        except np.linalg.LinAlgError:
            continue
        bases.append(cols)
    return bases


def _map_bases(system):
    """The columns each block of the map places its basic solution in.  The
    block of a basis B is inv(B) @ T, which has full row rank, so exactly its
    basic columns have a nonzero row."""
    n = system.A.shape[1]
    blocks = np.asarray(system.P).reshape(-1, n, len(system.A))
    return [tuple(np.flatnonzero(block.any(axis=1))) for block in blocks]


def test_batched_bases_match_reference_loop():
    subsets = [
        names for size in range(1, len(ALL_ATOMS) + 1)
        for names in itertools.combinations(ALL_ATOMS, size)
    ]
    rng = np.random.default_rng(17)
    sample = [subsets[i] for i in rng.choice(len(subsets), 128, replace=False)]
    four_bounds = [names for names in subsets if set(_MARGINAL_ROWS) <= set(names)]
    assert len(four_bounds) == 64
    column_sets = set()
    for names in sample + four_bounds:
        system = oracle._pattern_system(names)
        assert _map_bases(system) == _reference_bases(system.A)
        column_sets.add(math.comb(system.A.shape[1], len(system.A) - len(system.N)))
    assert max(column_sets) == 924


def test_import_builds_no_pattern():
    code = "import epsident.oracle as o; print(o._pattern_system.cache_info().currsize)"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "0"


def _case(names, joint):
    """Data with the atoms ``names``, exact for ``joint``; each marginal bound
    sits 0.1 above its margin."""
    exp, obs = joint.experimental(), joint.observational()
    q = joint.as_vector()
    arms = {n: getattr(exp, n) for n in names if n in ("p_y_do_x", "p_y_do_xp")}
    cells = {n: obs.cell(n) for n in names if n in OBS_CELLS}
    bounds = {n: min(1.0, float(row @ q) + 0.1) for n, row in _MARGINAL_ROWS.items() if n in names}
    return (
        ExperimentalDistribution(**arms) if arms else None,
        ObservationalDistribution(**cells) if cells else None,
        Assumptions(**bounds) if bounds else None,
    )


def test_cache_stays_bounded_and_correct_past_its_size():
    rng = np.random.default_rng(29)
    joint = ResponseTypeJoint(rng.dirichlet(np.ones(8)).reshape(4, 2))
    patterns = [
        names for size in (2, 3, 4)
        for names in itertools.combinations(ALL_ATOMS, size)
    ]
    order = rng.permutation(len(patterns))[: 2 * oracle._PATTERN_CACHE_SIZE]
    for i in order:
        case = _case(patterns[i], joint)
        want = _outcome(reference_vertices, *case)
        got = _outcome(feasible_vertices, *case)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_vertices(got, want)
        assert oracle._pattern_system.cache_info().currsize <= oracle._PATTERN_CACHE_SIZE
    assert oracle._pattern_system.cache_info().misses == len(order)
