import itertools

import numpy as np
import pytest

from epsident import (
    Assumptions,
    ExperimentalDistribution,
    Infeasible,
    InvalidDistribution,
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
from epsident.oracle import ResponseTypeJoint


class TestResponseTypeJoint:
    def test_validation(self):
        with pytest.raises(InvalidDistribution):
            ResponseTypeJoint(np.full((4, 2), 0.2))
        with pytest.raises(InvalidDistribution):
            ResponseTypeJoint([[0.5, 0.6], [0, 0], [0, -0.1], [0, 0]])

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
