import math

import numpy as np
import pytest

from epsident import (
    ConfoundedEffectInput,
    EpsIdentification,
    Infeasible,
    Interval,
    InvalidDistribution,
    NotIdentified,
    confounded_effect_range,
    effect_sandwich,
    eps_identify_effect_confounded,
    eps_identify_effect_confounded_simple,
)
from epsident.config import get_tolerance, set_tolerance
from epsident.oracle import ConfoundedScm, grid_scms


# The grid scan the oracle used before its closed form, kept verbatim as the
# reference the closed form must contain and match.
def grid_effect_range(
    p_x: float,
    p_y_given_x: float,
    u_max: float,
    grid_step: float = 1e-3,
) -> Interval:
    """Range of P(y_x) over confounder models matching P(x) and P(y|x).

    Models are scanned on a grid over (P(u), P(x|u)); the remaining free
    parameters are eliminated exactly: P(x|u') is solved from P(x), and
    P(y_x) is affine in P(y|x,u) over its feasible interval, so only the
    interval endpoints matter.  Raises :class:`Infeasible` when no grid model
    matches.
    """
    if grid_step <= 0:
        raise InvalidDistribution(f"grid_step must be positive, got {grid_step!r}")
    for name, v in (("p_x", p_x), ("p_y_given_x", p_y_given_x), ("u_max", u_max)):
        if not (0.0 <= v <= 1.0):
            raise InvalidDistribution(f"{name} must be in [0,1], got {v!r}")
    if p_x <= get_tolerance():
        raise InvalidDistribution("p_x must be positive for P(y|x) to be defined")

    def axis(stop: float) -> np.ndarray:
        vals = np.arange(0.0, stop + grid_step / 2, grid_step)
        if vals[-1] < stop - 1e-15:
            vals = np.append(vals, stop)
        return np.minimum(vals, stop)

    pu = np.repeat(axis(u_max), len(axis(1.0)))
    pxu = np.tile(axis(1.0), len(axis(u_max)))

    tol = 1e-12
    lo = math.inf
    hi = -math.inf

    # P(u) = 1 rows: P(x|u') unconstrained, P(u|x) = 1
    full = pu >= 1.0 - tol
    if np.any(full) and abs(p_x - pxu[full]).min() <= grid_step:
        lo = min(lo, p_y_given_x)
        hi = max(hi, p_y_given_x)

    pu_, pxu_ = pu[~full], pxu[~full]
    pxup = (p_x - pxu_ * pu_) / (1.0 - pu_)
    ok = (pxup >= -tol) & (pxup <= 1.0 + tol)
    pu_, pxu_ = pu_[ok], pxu_[ok]
    if pu_.size:
        w = pxu_ * pu_ / p_x  # P(u | x)
        sat = w >= 1.0 - tol  # P(y|x,u) pinned to P(y|x); P(y|x,u') free
        if np.any(sat):
            vals_lo = p_y_given_x * pu_[sat]
            vals_hi = vals_lo + (1.0 - pu_[sat])
            lo = min(lo, float(vals_lo.min()))
            hi = max(hi, float(vals_hi.max()))
        pu_, w = pu_[~sat], w[~sat]
        if pu_.size:
            a_lo = np.zeros_like(w)
            a_hi = np.ones_like(w)
            pos = w > tol
            a_lo[pos] = np.clip((p_y_given_x - 1.0 + w[pos]) / w[pos], 0.0, 1.0)
            a_hi[pos] = np.clip(p_y_given_x / w[pos], 0.0, 1.0)
            for a in (a_lo, a_hi):
                vals = a * pu_ + (p_y_given_x - a * w) * (1.0 - pu_) / (1.0 - w)
                lo = min(lo, float(vals.min()))
                hi = max(hi, float(vals.max()))

    if not math.isfinite(lo):
        raise Infeasible("no grid model matches the supplied P(x) and P(y|x)")
    return Interval(max(lo, 0.0), min(hi, 1.0))


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
        # fired or not, auto is the explicit top constant, margin included
        rng = np.random.default_rng(11)
        n_fired = n_failed = 0
        for _ in range(300):
            p_x, u_max = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.05)
            p_ygx, eps = rng.uniform(), rng.choice([0.01, 0.05, 0.1, 0.3])
            if p_x - u_max <= 0:
                continue
            explicit = eps_identify_effect_confounded(
                ConfoundedEffectInput(p_ygx, p_x, u_max, c=p_x - u_max), eps
            )
            auto = eps_identify_effect_confounded(ConfoundedEffectInput(p_ygx, p_x, u_max), eps)
            assert auto == explicit
            if isinstance(auto, EpsIdentification):
                n_fired += 1
            else:
                n_failed += 1
        assert n_fired > 50 and n_failed > 10

    def test_auto_reports_margin_when_nothing_fires(self):
        inp = ConfoundedEffectInput(p_y_given_x=0.5, p_x=0.3, u_max=0.29, c=None)
        result = eps_identify_effect_confounded(inp, eps=0.001)
        assert isinstance(result, NotIdentified)
        assert "c=0.01" in result.condition.premise
        assert result == eps_identify_effect_confounded(
            ConfoundedEffectInput(0.5, 0.3, 0.29, c=0.3 - 0.29), eps=0.001)

    @pytest.mark.parametrize("u_max", [0.3, 0.45])
    def test_auto_without_positive_constant_fails_by_u_max(self, u_max):
        # u_max >= P(x) leaves c = 0: the threshold is 0 and the margin u_max
        inp = ConfoundedEffectInput(p_y_given_x=0.5, p_x=0.3, u_max=u_max)
        result = eps_identify_effect_confounded(inp, eps=0.2)
        assert isinstance(result, NotIdentified)
        assert "[c=0]" in result.condition.premise
        assert result.condition.threshold_value == 0.0
        assert result.margin == u_max

    def test_c_constraint_enforced(self):
        for p_x, c, message in (
            (0.84, 0.8, "c must satisfy 0 < c <= p_x - u_max = 0.74, got 0.8"),
            (0.84, 0.740001, "c must satisfy 0 < c <= p_x - u_max = 0.74, got 0.740001"),
            (0.84, -0.1, "c must satisfy 0 < c <= p_x - u_max = 0.74, got -0.1"),
            (0.0, 0.8, "p_x must be positive"),
            (0.0, None, "p_x must be positive"),
        ):
            with pytest.raises(InvalidDistribution) as excinfo:
                ConfoundedEffectInput(p_y_given_x=0.62, p_x=p_x, u_max=0.1, c=c)
            assert str(excinfo.value) == message


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

    def test_refuses_just_below_half_treated(self):
        # the proof needs 1/P(x) <= 2, so no tolerance slack below 1/2
        with pytest.raises(InvalidDistribution, match=r"requires P\(x\) >= 0.5"):
            eps_identify_effect_confounded_simple(0.62, 0.5 - 1e-10, 0.01, eps=0.035)
        ident = eps_identify_effect_confounded_simple(0.62, 0.5, 0.01, eps=0.035)
        assert isinstance(ident, EpsIdentification)


class TestFiringRule:
    @pytest.mark.parametrize("tol", [1e-3, 0.01, 0.05])
    def test_fired_certificates_miss_the_exact_range_by_at_most_half_tol(self, tol):
        # explicit c, automatic c and the coarse route, with P(u) bounds up
        # to and past the firing limit: every certificate fired under
        # tolerance tol holds the exact model range, and the sandwich its
        # proof rests on, within tol/2
        rng = np.random.default_rng(23)
        n_fired = 0
        before = get_tolerance()
        try:
            set_tolerance(tol)
            for _ in range(3000):
                p_x = rng.uniform(0.02, 1.0)
                p_ygx = rng.choice([0.0, 1.0, rng.uniform()])
                eps = rng.uniform(0.005, 0.3)
                # no threshold factor exceeds 1/2
                u_max = rng.uniform(0.0, min(p_x, eps / 2 + tol))
                results = []  # (the route's sandwich, its result)
                if p_x - u_max > 0.0:
                    for c in (rng.uniform(0.01, 1.0) * (p_x - u_max), None):
                        inp = ConfoundedEffectInput(p_ygx, p_x, u_max, c)
                        sandwich = effect_sandwich(p_ygx, p_x, u_max, c or p_x - u_max)
                        results.append((sandwich, eps_identify_effect_confounded(inp, eps)))
                if p_x >= 0.5:
                    results.append((Interval(p_ygx - 3.0 * u_max, p_ygx + 3.5 * u_max),
                                    eps_identify_effect_confounded_simple(p_ygx, p_x, u_max, eps)))
                exact = confounded_effect_range(p_x, p_ygx, u_max)
                for sandwich, result in results:
                    if isinstance(result, EpsIdentification):
                        n_fired += 1
                        for proved in (exact, sandwich):
                            assert result.certified.contains_interval(proved, tol / 2 + 1e-12), (
                                p_x, p_ygx, u_max, eps, result.condition.entry_id, proved)
        finally:
            set_tolerance(before)
        assert n_fired > 1000

    def test_small_slack_constant_does_not_fire_on_the_tolerance(self):
        # the threshold is 0.00093 against P(u) <= 0.05: a full-tolerance slack
        # fired it and certified [0.494, 0.594] against the exact [0.367, 0.633]
        before = get_tolerance()
        try:
            set_tolerance(0.05)
            inp = ConfoundedEffectInput(p_y_given_x=0.5, p_x=0.2, u_max=0.05, c=0.01)
            assert isinstance(eps_identify_effect_confounded(inp, 0.05), NotIdentified)
        finally:
            set_tolerance(before)


class TestSandwich:
    def test_matches_slopes(self):
        iv = effect_sandwich(p_y_given_x=0.62, p_x=0.84, p_u=0.01, c=0.8)
        assert iv.lo == pytest.approx(0.62 - (1 + 1 / 0.84) * 0.01)
        assert iv.hi == pytest.approx(0.62 + (1 + 1 / 0.8) * 0.01)

    def test_requires_valid_slack(self):
        for p_x, c, message in (
            (0.84, 0.8, "c must satisfy 0 < c <= p_x - p_u = 0.64, got 0.8"),
            (0.84, 0.640001, "c must satisfy 0 < c <= p_x - p_u = 0.64, got 0.640001"),
            (0.84, 0, "c must satisfy 0 < c <= p_x - p_u = 0.64, got 0"),
            (0.0, 0.8, "p_x must be positive"),
        ):
            with pytest.raises(InvalidDistribution) as excinfo:
                effect_sandwich(0.62, p_x, 0.2, c=c)
            assert str(excinfo.value) == message

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

    @pytest.mark.parametrize("p_y_given_x, witness", [(1.0, 0.3004), (0.0, 0.6996)])
    def test_reaches_the_face_where_every_treated_unit_is_confounded(self, p_y_given_x, witness):
        # P(x|u) = 1 and P(x|u') = 0: P(u) = P(x), so P(y|x,u') is free
        scm = ConfoundedScm(0.3004, 1.0, 0.0, p_y_given_x, 1.0 - p_y_given_x, 0.0, 0.0)
        assert scm.p_x == 0.3004 and scm.p_y_given_x == p_y_given_x
        assert scm.p_y_do_x == pytest.approx(witness)
        iv = confounded_effect_range(0.3004, p_y_given_x, u_max=0.5)
        assert iv.contains(witness, tol=1e-12)

    def test_contains_and_matches_the_grid(self):
        rng = np.random.default_rng(2024)
        n_below = 0
        for i in range(200):
            p_x = rng.uniform(0.02, 1.0)
            p_ygx = (0.0, 1.0, 0.5, rng.uniform())[i % 4] if i % 3 == 0 else rng.uniform()
            # the grid's cost grows with u_max; about a tenth of these bounds reach P(x)
            u_max = rng.uniform(0.0, 0.2)
            exact = confounded_effect_range(p_x, p_ygx, u_max)
            grid = grid_effect_range(p_x, p_ygx, u_max, grid_step=1e-3)
            assert exact.contains_interval(grid, tol=1e-12), (p_x, p_ygx, u_max)
            if u_max < p_x:
                n_below += 1
                assert grid.lo - exact.lo <= 2e-3 and exact.hi - grid.hi <= 2e-3, (p_x, p_ygx, u_max)
        assert 100 <= n_below <= 190

    def test_contains_every_sampled_model(self):
        rng = np.random.default_rng(7)
        n_checked = 0
        for i in range(3000):
            params = rng.uniform(size=7)
            # push conditionals onto 0/1 faces, where the range is attained
            params[1:5] = np.where(rng.uniform(size=4) < 0.3, rng.integers(0, 2, 4), params[1:5])
            scm = ConfoundedScm(*params)
            if scm.p_x <= 1e-6:
                continue
            u_max = min(1.0, scm.p_u + rng.choice([0.0, rng.uniform(0.0, 0.3)]))
            iv = confounded_effect_range(scm.p_x, scm.p_y_given_x, u_max)
            assert iv.contains(scm.p_y_do_x, tol=1e-12), (scm, u_max)
            n_checked += 1
        assert n_checked > 2900
