import numpy as np
import pytest

from epsident import (
    CovariateJoint,
    EmptyStratum,
    ExperimentalDistribution,
    Incompatible,
    InvalidDistribution,
    MissingData,
    MonotonicityRefuted,
    ObservationalDistribution,
    ZeroDenominator,
    adjust_over_covariate,
    bound_arguments,
    causal_effect_bounds,
    identify_monotone,
    pn_bounds,
    pns_bounds,
    ps_bounds,
    sample_joint,
)
from epsident.oracle import ConfoundedScm


class TestCausalEffectBounds:
    def test_running(self, running_obs):
        assert causal_effect_bounds(running_obs, "x", "y").as_tuple() == pytest.approx((0.4, 0.9))

    def test_zero_complement_cell(self, point_obs):
        assert causal_effect_bounds(point_obs, "x", "y").as_tuple() == pytest.approx((0.5, 1.0))

    def test_missing_cells(self):
        obs = ObservationalDistribution(p_xy=0.52)
        with pytest.raises(MissingData) as err:
            causal_effect_bounds(obs, "x", "y")
        assert "p_xyp" in err.value.missing

    def test_all_variants(self, running_obs):
        assert causal_effect_bounds(running_obs, "x", "y'").as_tuple() == pytest.approx((0.1, 0.6))
        assert causal_effect_bounds(running_obs, "x'", "y").as_tuple() == pytest.approx((0.2, 0.7))
        assert causal_effect_bounds(running_obs, "x'", "y'").as_tuple() == pytest.approx((0.3, 0.8))


class TestCounterfactualBounds:
    def test_pns_running(self, running_exp, running_obs):
        assert pns_bounds(running_exp, running_obs).as_tuple() == pytest.approx((0.4, 0.7))

    def test_pns_pure_complier(self, point_exp, point_obs):
        assert pns_bounds(point_exp, point_obs).as_tuple() == pytest.approx((1.0, 1.0))

    def test_pns_uniform(self):
        exp = ExperimentalDistribution(0.5, 0.5)
        obs = ObservationalDistribution(0.25, 0.25, 0.25, 0.25)
        assert pns_bounds(exp, obs).as_tuple() == pytest.approx((0.0, 0.5))

    def test_pn_running(self, running_exp, running_obs):
        assert pn_bounds(running_exp, running_obs).as_tuple() == pytest.approx((0.75, 1.0))

    def test_pn_pure_complier(self, point_exp, point_obs):
        assert pn_bounds(point_exp, point_obs).as_tuple() == pytest.approx((1.0, 1.0))

    def test_pn_zero_denominator(self):
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.0, 0.4, 0.5, 0.1)
        with pytest.raises(ZeroDenominator):
            pn_bounds(exp, obs)

    def test_ps_running(self, running_exp, running_obs):
        assert ps_bounds(running_exp, running_obs).as_tuple() == pytest.approx((1 / 3, 1.0))

    def test_ps_pure_complier(self, point_exp, point_obs):
        assert ps_bounds(point_exp, point_obs).as_tuple() == pytest.approx((1.0, 1.0))

    def test_ps_zero_denominator(self, running_exp):
        obs = ObservationalDistribution(0.4, 0.1, 0.5, 0.0)
        with pytest.raises(ZeroDenominator):
            ps_bounds(running_exp, obs)

    def test_incompatible_refused(self):
        exp = ExperimentalDistribution(0.3, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        with pytest.raises(Incompatible):
            pns_bounds(exp, obs)

    def test_bounds_inside_unit_interval(self):
        for seed in range(200):
            scenario = sample_joint(seed)
            for fn in (pns_bounds, pn_bounds, ps_bounds):
                interval = fn(scenario.experimental, scenario.observational)
                assert 0.0 <= interval.lo <= interval.hi <= 1.0

    def test_argument_report(self, running_exp, running_obs):
        args = bound_arguments("pns", running_exp, running_obs)
        values = {a.name: a.value for a in args}
        assert values["L2"] == pytest.approx(0.4)
        assert values["U3"] == pytest.approx(0.7)
        assert {a.side for a in args} == {"lower", "upper"}


class TestMonotone:
    def test_running(self, running_exp, running_obs):
        ident = identify_monotone(running_exp, running_obs)
        assert ident.pns == pytest.approx(0.4)
        assert ident.pn == pytest.approx(0.75)
        assert ident.ps == pytest.approx(1 / 3)

    def test_point(self, point_exp, point_obs):
        ident = identify_monotone(point_exp, point_obs)
        assert (ident.pns, ident.pn, ident.ps) == pytest.approx((1.0, 1.0, 1.0))

    def test_refuted_when_effect_reversed(self, running_obs):
        exp = ExperimentalDistribution(0.3, 0.6)
        with pytest.raises(MonotonicityRefuted):
            identify_monotone(exp, running_obs)

    def test_refuted_when_marginal_outside(self):
        # P(y) = 0.6 above P(y_x) = 0.55 contradicts monotonicity
        exp = ExperimentalDistribution(0.55, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        with pytest.raises(MonotonicityRefuted):
            identify_monotone(exp, obs)

    def test_matches_defier_free_truth(self):
        for seed in range(300):
            scenario = sample_joint(seed, defier_free=True)
            ident = identify_monotone(scenario.experimental, scenario.observational)
            joint = scenario.joint
            assert ident.pns == pytest.approx(joint.pns(), abs=1e-9)
            assert ident.pn == pytest.approx(joint.pn(), abs=1e-9)
            assert ident.ps == pytest.approx(joint.ps(), abs=1e-9)


@pytest.mark.parametrize("treatment, outcome", [("z", "y"), ("x", "q"), ("y", "x"), ("x'", "Y")])
def test_bad_tokens_are_refused_alike(treatment, outcome, running_obs):
    joint = CovariateJoint(np.full((2, 2, 2), 1 / 8))
    messages = set()
    for call in (lambda: causal_effect_bounds(running_obs, treatment, outcome),
                 lambda: adjust_over_covariate(joint, treatment, outcome)):
        with pytest.raises(InvalidDistribution) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"treatment/outcome must be x|x', y|y', got {(treatment, outcome)!r}"}


@pytest.mark.parametrize("treatment, outcome, expected", [
    ("x", "y", 0.3 / 0.5), ("x", "y'", 0.2 / 0.5), ("x'", "y", 0.1 / 0.5), ("x'", "y'", 0.4 / 0.5),
])
def test_every_token_pair_adjusts(treatment, outcome, expected):
    xy = np.array([[0.3, 0.2], [0.1, 0.4]])
    joint = CovariateJoint(np.stack([xy * 0.6, xy * 0.4], axis=2))
    assert adjust_over_covariate(joint, treatment, outcome) == pytest.approx(expected)


def _random_covariate_joint(rng) -> CovariateJoint:
    return CovariateJoint(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))


class TestAdjustment:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_rejected(self, bad):
        # the other cells sum to 1, so only the bad cell can fail the checks
        with pytest.raises(InvalidDistribution):
            CovariateJoint([[[bad, 0.25], [0.25, 0]], [[0.25, 0], [0.25, 0]]])

    def test_no_confounding_reduces_to_conditional(self):
        # X,Y joint independent of U: P(y|x,u) = P(y|x)
        xy = np.array([[0.3, 0.2], [0.1, 0.4]])
        cells = np.stack([xy * 0.6, xy * 0.4], axis=2)
        joint = CovariateJoint(cells)
        expected = 0.3 / 0.5
        assert adjust_over_covariate(joint, "x", "y") == pytest.approx(expected)

    def test_empty_covariate_stratum_is_skipped(self):
        xy = np.array([[0.3, 0.2], [0.1, 0.4]])
        cells = np.stack([xy, np.zeros((2, 2))], axis=2)
        joint = CovariateJoint(cells)
        assert adjust_over_covariate(joint, "x", "y") == pytest.approx(0.6)

    def test_empty_treatment_stratum_raises(self):
        cells = np.zeros((2, 2, 2))
        cells[0, 0, 0] = 0.5  # x,y only in stratum u
        cells[1, 0, 1] = 0.5  # stratum u' has mass but no treated units
        with pytest.raises(EmptyStratum):
            adjust_over_covariate(CovariateJoint(cells), "x", "y")

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            joint = _random_covariate_joint(rng)
            direct = adjust_over_covariate(joint, "x", "y")
            flipped = adjust_over_covariate(joint.relabeled_u(), "x", "y")
            assert direct == pytest.approx(flipped, abs=1e-12)

    def test_matches_scm_enumeration(self):
        # forward-simulate the confounder graph parameterized by the joint
        rng = np.random.default_rng(11)
        for _ in range(100):
            joint = _random_covariate_joint(rng)
            pu = joint.p_u(0)
            if min(joint.p_xu(0, 0), joint.p_xu(0, 1)) < 1e-6:
                continue
            scm = ConfoundedScm(
                p_u=pu,
                p_x_given_u=joint.p_xu(0, 0) / pu,
                p_x_given_up=joint.p_xu(0, 1) / (1 - pu),
                p_y_given_xu=joint.cells[0, 0, 0] / joint.p_xu(0, 0),
                p_y_given_xup=joint.cells[0, 0, 1] / joint.p_xu(0, 1),
                p_y_given_xpu=0.0,
                p_y_given_xpup=0.0,
            )
            adjusted = adjust_over_covariate(joint, "x", "y")
            assert adjusted == pytest.approx(scm.p_y_do_x, abs=1e-9)
