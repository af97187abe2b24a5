import numpy as np
import pytest

from epsident import (
    ConfoundedEffectInput,
    EpsIdentification,
    InvalidDistribution,
    NoFeasibleC,
    NotIdentified,
    confounded_effect_range,
    effect_sandwich,
    eps_identify_effect_confounded,
    eps_identify_effect_confounded_simple,
)
from epsident.oracle import grid_scms


class TestGeneralRoute:
    def test_rare_confounder_scenario(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.62, p_x=0.84, u_max=0.01, c=0.8)
        ident = eps_identify_effect_confounded(inp, eps=0.025)
        assert isinstance(ident, EpsIdentification)
        assert ident.condition.threshold_value == pytest.approx(0.01126, abs=1e-4)
        assert ident.q == pytest.approx(0.62 + (0.04 / 2.984) * 0.025, abs=1e-9)

    def test_not_identified_reports_margin(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.62, p_x=0.84, u_max=0.02, c=0.8)
        result = eps_identify_effect_confounded(inp, eps=0.025)
        assert isinstance(result, NotIdentified)
        assert result.margin == pytest.approx(0.02 - 0.011260053619, abs=1e-9)

    def test_no_confounder_fires_for_any_eps(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.7, p_x=0.6, u_max=0.0, c=0.5)
        for eps in (1e-6, 1e-3, 0.2):
            ident = eps_identify_effect_confounded(inp, eps)
            assert isinstance(ident, EpsIdentification)
            offset = (0.6 - 0.5) / (2 * 0.5 * 0.6 + 0.6 + 0.5)
            assert ident.q == pytest.approx(0.7 + offset * eps)

    def test_auto_maximizes_c(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.62, p_x=0.84, u_max=0.01, c=None)
        ident = eps_identify_effect_confounded(inp, eps=0.025)
        assert isinstance(ident, EpsIdentification)
        # the firing set is upward-closed in c, so auto lands on the top value
        assert "c=0.83" in ident.condition.premise
        explicit = eps_identify_effect_confounded(
            ConfoundedEffectInput(0.62, 0.84, 0.01, c=0.83), eps=0.025
        )
        assert ident.q == pytest.approx(explicit.q)
        rng = np.random.default_rng(11)
        n_fired = 0
        for _ in range(300):
            p_x, u_max = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.05)
            p_ygx, eps = rng.uniform(), rng.choice([0.01, 0.05, 0.1, 0.3])
            if p_x - u_max <= 0:
                continue
            explicit = eps_identify_effect_confounded(
                ConfoundedEffectInput(p_ygx, p_x, u_max, c=p_x - u_max), eps
            )
            try:
                auto = eps_identify_effect_confounded(ConfoundedEffectInput(p_ygx, p_x, u_max), eps)
            except NoFeasibleC:
                assert isinstance(explicit, NotIdentified)
                continue
            n_fired += 1
            assert auto == explicit
        assert n_fired > 50

    def test_auto_raises_when_nothing_fires(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.5, p_x=0.3, u_max=0.29, c=None)
        with pytest.raises(NoFeasibleC):
            eps_identify_effect_confounded(inp, eps=0.001)

    def test_c_constraint_enforced(self):
        with pytest.raises(InvalidDistribution):
            ConfoundedEffectInput(p_y_given_x=0.62, p_x=0.84, u_max=0.1, c=0.8)


class TestSimpleRoute:
    def test_fires_with_offset_thirteenth(self):
        ident = eps_identify_effect_confounded_simple(0.62, 0.84, 0.01, eps=0.035)
        assert isinstance(ident, EpsIdentification)
        assert ident.q == pytest.approx(0.62 + 0.035 / 13, abs=1e-12)
        assert ident.condition.threshold_value == pytest.approx(4 / 13 * 0.035)

    def test_silent_when_confounder_too_heavy(self):
        result = eps_identify_effect_confounded_simple(0.62, 0.84, 0.02, eps=0.035)
        assert isinstance(result, NotIdentified)

    def test_requires_majority_treated(self):
        with pytest.raises(InvalidDistribution):
            eps_identify_effect_confounded_simple(0.62, 0.4, 0.01, eps=0.035)


class TestSandwich:
    def test_matches_slopes(self):
        iv = effect_sandwich(p_y_given_x=0.62, p_x=0.84, p_u=0.01, c=0.8)
        assert iv.lo == pytest.approx(0.62 - (1 + 1 / 0.84) * 0.01)
        assert iv.hi == pytest.approx(0.62 + (1 + 1 / 0.8) * 0.01)

    def test_requires_valid_slack(self):
        with pytest.raises(InvalidDistribution):
            effect_sandwich(0.62, 0.84, 0.2, c=0.8)

    def test_holds_over_grid_models(self):
        u_values = np.linspace(0.0, 0.1, 5)
        p_values = np.linspace(0.0, 1.0, 5)
        n_checked = 0
        for scm in grid_scms(u_values, p_values, p_values):
            if scm.p_x <= 1e-9 or scm.p_y_given_x is None:
                continue
            c_top = scm.p_x - scm.p_u
            if c_top <= 1e-9:
                continue
            for c in (c_top, c_top / 2):
                iv = effect_sandwich(scm.p_y_given_x, scm.p_x, scm.p_u, c)
                assert iv.lo - 1e-9 <= scm.p_y_do_x <= iv.hi + 1e-9
                n_checked += 1
        assert n_checked > 1000


class TestModelRange:
    def test_no_confounder_degenerate(self):
        iv = confounded_effect_range(0.6, 0.7, u_max=0.0, grid_step=1e-3)
        assert iv.as_tuple() == pytest.approx((0.7, 0.7))

    def test_rare_confounder_inside_sandwich(self):
        iv = confounded_effect_range(0.84, 0.62, u_max=0.01, grid_step=1e-3)
        outer = effect_sandwich(0.62, 0.84, 0.01, c=0.8)
        assert outer.lo - 1e-9 <= iv.lo <= iv.hi <= outer.hi + 1e-9

    def test_saturated_upper_endpoint(self):
        iv = confounded_effect_range(0.5, 1.0, u_max=1.0, grid_step=0.05)
        assert iv.hi == pytest.approx(1.0)

    def test_contains_every_grid_model(self):
        p_x, p_ygx, u_max = 0.7, 0.4, 0.1
        iv = confounded_effect_range(p_x, p_ygx, u_max, grid_step=1e-3)
        u_values = np.linspace(0.0, u_max, 4)
        p_values = np.linspace(0.0, 1.0, 6)
        for scm in grid_scms(u_values, p_values, p_values):
            if abs(scm.p_x - p_x) > 1e-9:
                continue
            if scm.p_y_given_x is None or abs(scm.p_y_given_x - p_ygx) > 1e-9:
                continue
            assert iv.lo - 1e-6 <= scm.p_y_do_x <= iv.hi + 1e-6
