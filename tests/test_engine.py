import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsident import (
    Assumptions,
    EmptyInterval,
    EpsIdentification,
    ExperimentalDistribution,
    Incompatible,
    Infeasible,
    InvalidDistribution,
    MissingData,
    NotIdentified,
    ObservationalDistribution,
    Unsupported,
    ZeroDenominator,
    eps_identify_effect,
    eps_identify_effects,
    eps_identify_pn,
    eps_identify_pns,
    eps_identify_ps,
    feasible_range,
    feasible_vertices,
    minimal_epsilon,
    pns_bounds,
    sample_joint,
)
from epsident import bounds, catalog, engine
from epsident.bounds import refuse_incompatible
from epsident.cli import EPS_SWEEP
from epsident.config import get_tolerance, set_tolerance
from epsident.distributions import EFFECTS, Condition, check_eps
from epsident.engine import (
    EffectScan,
    EpsReport,
    NotEvaluated,
    QuantityRanges,
    eps_identify,
)
from epsident.errors import EpsidentError
from epsident.forms import QUANTITIES, QUANTITY_LABELS
from epsident.interval import Interval
from epsident.report import render_json


def _reference_ranges(exp=None, obs=None, assumptions=None) -> dict[str, Interval]:
    """Every quantity's interval, computed by direct reads of each arm, cell
    and marginal: the reference :class:`QuantityRanges` must reproduce bit
    for bit."""
    iv: dict[str, Interval] = {}

    def put(name: str, lo: float, hi: float) -> None:
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if lo > hi + get_tolerance():
            raise Incompatible(
                [f"{QUANTITY_LABELS[name]} constrained to empty range [{lo:.6g}, {hi:.6g}]"]
            )
        iv[name] = Interval(min(lo, hi), hi)

    for name, comp in (("p_y_do_x", "p_yp_do_x"), ("p_y_do_xp", "p_yp_do_xp")):
        v = getattr(exp, name) if exp is not None else None
        if v is None:
            put(name, 0.0, 1.0)
            put(comp, 0.0, 1.0)
        else:
            put(name, v, v)
            put(comp, 1.0 - v, 1.0 - v)

    cells = ("p_xy", "p_xyp", "p_xpy", "p_xpyp")
    present = {c: (obs.cell(c) if obs is not None else None) for c in cells}
    mass = sum(v for v in present.values() if v is not None)
    free = max(0.0, 1.0 - mass)
    for c in cells:
        v = present[c]
        if v is None:
            put(c, 0.0, free if obs is not None else 1.0)
        else:
            put(c, v, v)

    def subset(name: str, a: str, b: str) -> None:
        va, vb = present[a], present[b]
        lo = (va or 0.0) + (vb or 0.0)
        hi = lo + (free if (va is None or vb is None) else 0.0)
        if obs is None:
            lo, hi = 0.0, 1.0
        put(name, lo, hi)

    subset("p_x", "p_xy", "p_xyp")
    subset("p_xp", "p_xpy", "p_xpyp")
    subset("p_y", "p_xy", "p_xpy")
    subset("p_yp", "p_xyp", "p_xpyp")

    if assumptions is not None:
        for name, comp, members in (
            ("p_x", "p_xp", ("p_xy", "p_xyp")),
            ("p_xp", "p_x", ("p_xpy", "p_xpyp")),
            ("p_y", "p_yp", ("p_xy", "p_xpy")),
            ("p_yp", "p_y", ("p_xyp", "p_xpyp")),
        ):
            ub = getattr(assumptions, f"{name}_max")
            if ub is None:
                continue
            cur = iv[name]
            put(name, cur.lo, min(cur.hi, ub))
            cur = iv[comp]
            put(comp, max(cur.lo, 1.0 - ub), cur.hi)
            # a marginal bound also caps its member cells
            for cell in members:
                cur = iv[cell]
                put(cell, cur.lo, min(cur.hi, ub))
    return iv


def _reference_scan(quantity, exp=None, obs=None, eps=0.0, assumptions=None) -> EpsReport:
    """The catalog scan as one loop that redoes all its work at every radius:
    the reference the engine's eps-free profile must reproduce exactly."""
    target = catalog.target(quantity)
    check_eps(eps)
    ranges = QuantityRanges(exp, obs, assumptions)
    tol = get_tolerance()

    denominator = target.denominator
    den_value = None if denominator is None else ranges.exact(denominator)
    target.require_denominator(den_value)
    refuse_incompatible(exp, obs)

    fired: list[EpsIdentification] = []
    skipped: list[NotEvaluated] = []
    for entry in target.entries:
        missing: list[str] = []
        if denominator is not None and den_value is None:
            missing.append(denominator)
        missing.extend(
            name for _, name in entry.premise.terms if not ranges.informative(name)
        )
        center_value = ranges.exact_value(entry.center.terms)
        if center_value is None:
            missing.extend(
                name for _, name in entry.center.terms if ranges.exact(name) is None
            )
        if missing:
            ordered = sorted(set(missing), key=QUANTITIES.index)
            skipped.append(
                NotEvaluated(entry.entry_id, entry.premise_label, entry.center_label, tuple(ordered))
            )
            continue
        den = den_value if den_value is not None else 1.0
        threshold = 2.0 * eps * den
        premise_value = ranges.upper_value(entry.premise.terms)
        # fires at most at the threshold at eps + tol/4: the proved interval
        # is then at most 2*eps + tol/2 wide
        if premise_value > 2.0 * den * (eps + tol / 4.0):
            continue
        q = center_value / den
        q += entry.center_sign * eps
        condition = Condition(
            entry_id=entry.entry_id,
            premise=entry.premise_label,
            premise_value=premise_value,
            threshold=entry.threshold_label,
            threshold_value=threshold,
            center=entry.center_label,
        )
        fired.append(EpsIdentification(quantity, q, eps, condition))

    return EpsReport(
        quantity=quantity,
        eps=eps,
        fired=tuple(fired),
        tightest=fired[0] if fired else None,
        not_evaluated=tuple(skipped),
    )


def _reference_effects(eps, obs=None, assumptions=None) -> EffectScan:
    """The effect scan, building its ranges afresh at every radius."""
    check_eps(eps)
    ranges = QuantityRanges(None, obs, assumptions)
    results = {}
    skipped = {}
    for variant, effect in EFFECTS.items():
        cell, marginal = effect.cell, effect.opposite_marginal
        missing = []
        cell_value = ranges.exact(cell)
        if cell_value is None:
            missing.append(cell)
        ub = ranges.interval(marginal).hi
        if not ranges.informative(marginal):
            missing.append(marginal)
        if missing:
            skipped[variant] = tuple(missing)
            continue
        results[variant] = eps_identify_effect(cell_value, ub, eps, variant)
    return EffectScan(results, skipped)


def _outcome(fn, *args):
    """A call's result, or the type and text of the refusal it raised."""
    try:
        return fn(*args)
    except EpsidentError as exc:
        return type(exc), str(exc)

class TestPnsScan:
    def test_running_fires_at_half_width(self, running_exp, running_obs):
        report = eps_identify_pns(running_exp, running_obs, eps=0.15)
        assert report.fired
        assert all(f.q == pytest.approx(0.55) for f in report.fired)
        assert report.tightest is not None
        assert not report.not_evaluated

    def test_running_silent_below_half_width(self, running_exp, running_obs):
        report = eps_identify_pns(running_exp, running_obs, eps=0.14)
        assert not report.fired
        assert report.tightest is None

    def test_experimental_only(self, point_exp):
        report = eps_identify_pns(point_exp, None, eps=0.005)
        fired = {f.condition.entry_id: f for f in report.fired}
        assert "pns-05" in fired  # q = P(y_x) - eps since P(y_{x'}) = 0
        assert fired["pns-05"].q == pytest.approx(0.995)
        # entries needing the joint are reported, not dropped
        assert any("p_xy" in n.missing for n in report.not_evaluated)

    def test_asserted_small_outcome_marginal(self):
        exp = ExperimentalDistribution(p_y_do_x=0.31)
        report = eps_identify_pns(exp, None, eps=0.025, assumptions=Assumptions(p_y_max=0.05))
        fired = {f.condition.entry_id: f for f in report.fired}
        assert set(fired) == {"pns-16"}
        assert fired["pns-16"].q == pytest.approx(0.31 - 0.025)
        assert fired["pns-16"].condition.center == "P(y_x) - eps"

    def test_asserted_large_outcome_marginal(self):
        # P(y) >= 0.95 asserted as P(y') <= 0.05; the control-arm effect
        # suffices for a center
        exp = ExperimentalDistribution(p_y_do_xp=0.9)
        report = eps_identify_pns(exp, None, eps=0.05, assumptions=Assumptions(p_yp_max=0.05))
        fired = {f.condition.entry_id: f for f in report.fired}
        assert "pns-10" in fired
        assert fired["pns-10"].q == pytest.approx((1 - 0.9) - 0.05)
        assert fired["pns-10"].condition.center == "P(y'_{x'}) - eps"

    def test_full_data_scan_covers_whole_catalog(self, running_exp, running_obs):
        report = eps_identify_pns(running_exp, running_obs, eps=0.75)
        assert len(report.fired) == 21
        assert not report.not_evaluated
        assert len({(f.condition.premise, f.q) for f in report.fired}) >= 16

    def test_monotone_in_eps(self, running_exp, running_obs):
        fired_ids = []
        for eps in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5):
            report = eps_identify_pns(running_exp, running_obs, eps=eps)
            fired_ids.append({f.condition.entry_id for f in report.fired})
        for smaller, larger in zip(fired_ids, fired_ids[1:]):
            assert smaller <= larger

    def test_incompatible_refused(self):
        exp = ExperimentalDistribution(0.3, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        with pytest.raises(Incompatible):
            eps_identify_pns(exp, obs, eps=0.2)

    def test_eps_must_be_positive(self, running_exp, running_obs):
        with pytest.raises(InvalidDistribution):
            eps_identify_pns(running_exp, running_obs, eps=0.0)


class TestPnPsScans:
    def test_pn_running(self, running_exp, running_obs):
        report = eps_identify_pn(running_exp, running_obs, eps=0.125)
        assert {f.condition.entry_id for f in report.fired} == {"pn-02", "pn-03", "pn-04", "pn-05"}
        assert all(f.q == pytest.approx(0.875) for f in report.fired)

    def test_pn_certainty_condition(self, running_obs):
        # P(y_{x'}) equals P(x',y) exactly, so necessity is near certain
        exp = ExperimentalDistribution(p_y_do_xp=0.2)
        report = eps_identify_pn(exp, running_obs, eps=0.01)
        fired = {f.condition.entry_id: f for f in report.fired}
        assert "pn-02" in fired
        assert fired["pn-02"].q == pytest.approx(0.99)

    def test_pn_zero_denominator(self):
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.0, 0.4, 0.5, 0.1)
        with pytest.raises(ZeroDenominator):
            eps_identify_pn(exp, obs, eps=0.1)

    def test_pn_without_denominator_not_evaluated(self):
        exp = ExperimentalDistribution(0.7, 0.3)
        report = eps_identify_pn(exp, None, eps=0.1)
        assert not report.fired
        assert len(report.not_evaluated) == 5
        assert all("p_xy" in n.missing for n in report.not_evaluated)

    def test_ps_running(self, running_exp, running_obs):
        report = eps_identify_ps(running_exp, running_obs, eps=1 / 3)
        assert {f.condition.entry_id for f in report.fired} == {"ps-02", "ps-03", "ps-04", "ps-05"}
        assert all(f.q == pytest.approx(2 / 3) for f in report.fired)

    def test_ps_sufficiency_near_zero(self, running_obs):
        # P(y_x) equals P(x,y) exactly
        exp = ExperimentalDistribution(p_y_do_x=0.4)
        report = eps_identify_ps(exp, running_obs, eps=0.01)
        fired = {f.condition.entry_id: f for f in report.fired}
        assert "ps-01" in fired
        assert fired["ps-01"].q == pytest.approx(0.01)

    def test_ps_zero_denominator(self, running_exp):
        obs = ObservationalDistribution(0.4, 0.1, 0.5, 0.0)
        with pytest.raises(ZeroDenominator):
            eps_identify_ps(running_exp, obs, eps=0.1)


class TestEffectTheorem:
    def test_near_deterministic_treated(self):
        ident = eps_identify_effect(0.52, 0.04, eps=0.02, variant="y_x")
        assert isinstance(ident, EpsIdentification)
        assert ident.q == pytest.approx(0.54)
        assert ident.eps == 0.02

    def test_not_identified_margin(self):
        result = eps_identify_effect(0.5, 0.5, eps=0.1, variant="y_x")
        assert isinstance(result, NotIdentified)
        assert result.margin == pytest.approx(0.3)

    def test_degenerate_point_mass_clamps(self):
        ident = eps_identify_effect(1.0, 0.0, eps=0.05, variant="y_x")
        assert ident.q == pytest.approx(1.05)
        assert ident.certified_clamped().as_tuple() == (1.0, 1.0)

    def test_untreated_variants_use_treated_marginal(self):
        ident = eps_identify_effect(0.1, 0.03, eps=0.02, variant="y_xp")
        assert ident.condition.premise == "P(x) <= 2*eps"

    def test_scan_from_joint(self, running_obs):
        scan = eps_identify_effects(0.3, running_obs)
        assert set(scan.results) == {"y_x", "yp_x", "y_xp", "yp_xp"}
        ident = scan.results["y_x"]
        assert isinstance(ident, EpsIdentification)
        assert ident.q == pytest.approx(0.7)

    def test_scan_with_assumption_only_marginal(self):
        obs = ObservationalDistribution(p_xy=0.52)
        scan = eps_identify_effects(0.02, obs, Assumptions(p_xp_max=0.04))
        ident = scan.results["y_x"]
        assert isinstance(ident, EpsIdentification)
        assert ident.q == pytest.approx(0.54)
        assert "y_xp" in scan.skipped

    @pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("with_joint", [False, True], ids=["no-joint", "joint"])
    def test_scan_rejects_invalid_eps(self, eps, with_joint, running_obs):
        # without a joint no variant can be evaluated, yet eps is still checked
        obs = running_obs if with_joint else None
        with pytest.raises(InvalidDistribution, match="eps must be positive"):
            eps_identify_effects(eps, obs)

    def test_scan_soundness_against_oracle(self):
        for seed in range(150):
            scenario = sample_joint(seed)
            scan = eps_identify_effects(0.15, scenario.observational)
            vertices = feasible_vertices(None, scenario.observational)
            for variant, result in scan.results.items():
                if not isinstance(result, EpsIdentification):
                    continue
                rng = feasible_range(variant, None, scenario.observational, vertices=vertices)
                assert result.certified.contains_interval(rng)


class TestMinimalEpsilon:
    def test_running_values(self, running_exp, running_obs):
        assert minimal_epsilon("pns", running_exp, running_obs) == pytest.approx((0.15, 0.55))
        assert minimal_epsilon("pn", running_exp, running_obs) == pytest.approx((0.125, 0.875))
        assert minimal_epsilon("ps", running_exp, running_obs) == pytest.approx((1 / 3, 2 / 3))

    def test_point_identified(self, point_exp, point_obs):
        eps_star, q_star = minimal_epsilon("pns", point_exp, point_obs)
        assert eps_star == pytest.approx(0.0)
        assert q_star == pytest.approx(1.0)

    def test_effect_variant(self, running_obs):
        eps_star, q_star = minimal_epsilon("y_x", obs=running_obs)
        assert (eps_star, q_star) == pytest.approx((0.25, 0.65))

    def test_law_for_pns(self):
        # fires at eps* + 1e-6 and stays silent at eps* - 1e-3
        for seed in range(120):
            scenario = sample_joint(seed)
            exp, obs = scenario.experimental, scenario.observational
            eps_star, _ = minimal_epsilon("pns", exp, obs)
            assert eps_identify_pns(exp, obs, eps_star + 1e-6).fired
            if eps_star > 1e-3:
                assert not eps_identify_pns(exp, obs, eps_star - 1e-3).fired


class TestSoundnessAgainstOracle:
    def test_fired_intervals_contain_feasible_range(self):
        scans = {"pns": eps_identify_pns, "pn": eps_identify_pn, "ps": eps_identify_ps}
        n_checked = 0
        for seed in range(150):
            scenario = sample_joint(seed)
            exp, obs = scenario.experimental, scenario.observational
            vertices = feasible_vertices(exp, obs)
            for name, scan in scans.items():
                oracle_range = feasible_range(name, exp, obs, vertices=vertices)
                for eps in (0.05, 0.2):
                    for ident in scan(exp, obs, eps).fired:
                        n_checked += 1
                        assert ident.certified.contains_interval(oracle_range), (
                            seed, name, eps, ident.condition.entry_id)
        assert n_checked > 500

    def test_tightest_prefers_narrow_intersection(self, running_exp, running_obs):
        report = eps_identify_pns(running_exp, running_obs, eps=0.2)
        tight = pns_bounds(running_exp, running_obs)
        widths = [f.certified.intersect(tight).width for f in report.fired]
        chosen = report.tightest.certified.intersect(tight).width
        assert chosen == pytest.approx(min(widths))

    def test_fired_intervals_contain_tight_bounds_on_full_data(self):
        from epsident import pn_bounds, ps_bounds

        bounds = {"pns": pns_bounds, "pn": pn_bounds, "ps": ps_bounds}
        scans = {"pns": eps_identify_pns, "pn": eps_identify_pn, "ps": eps_identify_ps}
        for seed in range(100):
            scenario = sample_joint(seed)
            exp, obs = scenario.experimental, scenario.observational
            for name in scans:
                tight = bounds[name](exp, obs)
                for eps in (0.03, 0.4):
                    for ident in scans[name](exp, obs, eps).fired:
                        assert ident.certified.contains_interval(tight)

    def test_loose_tolerance_takes_first_fired(self):
        # under tol 0.05 pn-04 and pn-05 fire at eps 0.1 by the firing
        # limit's slack; the scan must still report, the first as tightest
        scenario = sample_joint(7)
        before = get_tolerance()
        try:
            set_tolerance(0.05)
            report = eps_identify("pn", scenario.experimental, scenario.observational, 0.1)
        finally:
            set_tolerance(before)
        assert report.fired
        assert report.tightest is report.fired[0]


@st.composite
def datasets(draw):
    """A dataset in one of the four forms: full data, a partial joint,
    asserted marginal bounds, or one arm with bounds; a shifted treated arm
    makes some of them incompatible."""
    scenario = sample_joint(draw(st.integers(0, 10_000)))
    truth = scenario.observational
    shift = draw(st.sampled_from((0.0, 0.0, 0.3)))
    exp = ExperimentalDistribution(
        min(scenario.experimental.p_y_do_x + shift, 1.0), scenario.experimental.p_y_do_xp
    )
    obs, assumptions = truth, None
    form = draw(st.sampled_from(("full", "partial", "bounded", "one-arm")))
    if form in ("partial", "bounded"):
        cells = st.sampled_from(ObservationalDistribution.__slots__)
        kept = draw(st.lists(cells, unique=True, max_size=3))
        obs = ObservationalDistribution(**{c: truth.cell(c) for c in kept}) if kept else None
    if form in ("bounded", "one-arm"):
        slack = draw(st.sampled_from((0.0, 0.01, 0.1)))
        names = draw(st.lists(st.sampled_from(Assumptions.__slots__), unique=True, min_size=1))
        assumptions = Assumptions(
            **{n: min(getattr(truth, n.removesuffix("_max")) + slack, 1.0) for n in names}
        )
    if form == "one-arm":
        arm = draw(st.sampled_from(("p_y_do_x", "p_y_do_xp")))
        exp, obs = ExperimentalDistribution(**{arm: getattr(exp, arm)}), None
    return exp, obs, assumptions


_UNIT = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def range_inputs(draw):
    """Data in any of the four forms: each arm absent, 0, 1 or free; a full
    joint, some cells, zero cells or no joint; and no bounds, or each bound
    absent, 0, 1 or free, which lets bounds contradict each other and the
    data."""
    maybe = st.one_of(st.none(), _UNIT)
    exp = ExperimentalDistribution(draw(maybe), draw(maybe))
    weights = [draw(_UNIT) for _ in range(5)]
    cells = draw(st.lists(st.sampled_from(ObservationalDistribution.__slots__), unique=True))
    if draw(st.booleans()):
        obs = None
    elif len(cells) == 4 and sum(weights[:4]) > 0.0:
        obs = ObservationalDistribution(*(w / sum(weights[:4]) for w in weights[:4]))
    else:
        total = sum(weights) or 1.0
        obs = ObservationalDistribution(**{c: w / total for c, w in zip(cells[:3], weights)})
    assumptions = None
    if draw(st.booleans()):
        assumptions = Assumptions(*(draw(maybe) for _ in Assumptions.__slots__))
    return exp, obs, assumptions


class TestQuantityRanges:
    @pytest.mark.parametrize("tol", [None, 0.05])
    @settings(max_examples=500)
    @given(data=range_inputs())
    def test_matches_reference_ranges(self, tol, data):
        # every interval bit for bit, or the same refusal, under the default
        # tolerance and under a changed one
        exp, obs, assumptions = data
        before = get_tolerance()
        try:
            if tol is not None:
                set_tolerance(tol)
            expected = _outcome(_reference_ranges, exp, obs, assumptions)
            got = _outcome(QuantityRanges, exp, obs, assumptions)
        finally:
            set_tolerance(before)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert isinstance(got, QuantityRanges)
            assert {name: (got.interval(name).lo.hex(), got.interval(name).hi.hex())
                    for name in QUANTITIES} == {
                name: (iv.lo.hex(), iv.hi.hex()) for name, iv in expected.items()}


    def test_interval_built_on_demand(self):
        ranges = QuantityRanges(
            ExperimentalDistribution(0.7), ObservationalDistribution(p_xy=0.4, p_xyp=0.1)
        )
        for name in QUANTITIES:
            interval = ranges.interval(name)
            assert type(interval) is Interval
            assert interval == ranges.interval(name)
            exact = ranges.exact(name)
            assert (exact is not None) == (interval.width <= 1e-12)
        assert ranges.interval("p_y_do_x").as_tuple() == (0.7, 0.7)
        assert ranges.interval("p_x").as_tuple() == (0.5, 0.5)
        assert ranges.interval("p_xpy").as_tuple() == (0.0, 0.5)
        assert ranges.interval("p_y_do_xp").as_tuple() == (0.0, 1.0)

    def test_contradicting_bounds_refused(self):
        with pytest.raises(Incompatible, match=r"P\(x\) constrained to empty range \[0\.5, 0\.3\]"):
            QuantityRanges(None, ObservationalDistribution(p_xy=0.4, p_xyp=0.1),
                           Assumptions(p_x_max=0.3))

    def test_non_finite_range_is_empty(self):
        # a record that skipped its own validation: the range refuses it as
        # an Interval would
        obs = object.__new__(ObservationalDistribution)
        for cell in ObservationalDistribution.__slots__:
            object.__setattr__(obs, cell, None)
        object.__setattr__(obs, "p_xy", math.nan)
        with pytest.raises(EmptyInterval, match="must be finite"):
            QuantityRanges(None, obs)


class TestEpsFreeProfile:
    @given(
        data=datasets(),
        extra=st.floats(1e-4, 1.0),
        switch=st.integers(1, len(EPS_SWEEP)),
        tol=st.sampled_from((0.0, 1e-6, 0.05)),
    )
    def test_every_radius_matches_reference_scan(self, data, extra, switch, tol):
        # the same data at every radius of the sweep plus one drawn radius,
        # with the tolerance changed once between two of the calls
        exp, obs, assumptions = data
        before = get_tolerance()
        try:
            for step, eps in enumerate(EPS_SWEEP + (extra,)):
                if step == switch:
                    set_tolerance(tol)
                for quantity in catalog.TARGETS:
                    args = (quantity, exp, obs, eps, assumptions)
                    report = _outcome(eps_identify, *args)
                    assert report == _outcome(_reference_scan, *args)
                    if isinstance(report, EpsReport):
                        assert report.tightest is (report.fired[0] if report.fired else None)
                args = (eps, obs, assumptions)
                assert _outcome(eps_identify_effects, *args) == _outcome(_reference_effects, *args)
        finally:
            set_tolerance(before)

    def test_tolerance_change_reaches_the_cache(self, running_exp):
        # P(x) is only known to lie in [0.05, 1]: informative at the default
        # tolerance, not at 0.1, so entries and effects flip to not evaluated
        obs = ObservationalDistribution(p_xy=0.05)

        def scans(scan, effects):
            return scan("pns", running_exp, obs, 0.1), effects(0.1, obs)

        default = scans(eps_identify, eps_identify_effects)
        before = get_tolerance()
        try:
            set_tolerance(0.1)
            loose = scans(eps_identify, eps_identify_effects)
            assert loose == scans(_reference_scan, _reference_effects)
        finally:
            set_tolerance(before)
        assert len(loose[0].not_evaluated) > len(default[0].not_evaluated)
        assert "y_x" in default[1].results and "y_x" in loose[1].skipped
        assert scans(eps_identify, eps_identify_effects) == default


    def test_one_plan_serves_datasets_of_one_pattern(self):
        # two full joints share every target's plan, yet their premise values
        # and centers differ exactly as the reference scan's do
        scenarios = [sample_joint(seed) for seed in (3, 4)]
        for eps in (0.1, 0.5, 1.0):
            for quantity in catalog.TARGETS:
                got, expected = (
                    [scan(quantity, s.experimental, s.observational, eps) for s in scenarios]
                    for scan in (eps_identify, _reference_scan)
                )
                assert got == expected
                if eps == 1.0:
                    first, second = ([(f.condition.premise_value, f.q) for f in r.fired] for r in got)
                    assert first and second and first != second
        assert engine._plan.cache_info().misses == len(catalog.TARGETS)

    def test_signed_zero_inputs_share_one_profile(self):
        # 0.0 and -0.0 compare equal, so they must be stored alike: the scan
        # read from the cache then carries the same bits as a fresh one
        obs = ObservationalDistribution(p_xy=0.5)
        first = eps_identify_effects(0.1, obs, Assumptions(p_xp_max=0.0))
        again = eps_identify_effects(0.1, obs, Assumptions(p_xp_max=-0.0))
        fresh = _reference_effects(0.1, obs, Assumptions(p_xp_max=-0.0))
        assert repr(first) == repr(again) == repr(fresh)

    def test_one_effect_profile_serves_every_radius(self, monkeypatch):
        # the effect scan ranges, checks and labels each variant once per
        # dataset, and hands each call a skipped dict of its own
        obs, assumptions = ObservationalDistribution(p_xy=0.52), Assumptions(p_xp_max=0.04)
        expected = [_reference_effects(eps, obs, assumptions) for eps in EPS_SWEEP]
        built = []
        monkeypatch.setattr(engine, "QuantityRanges",
                            lambda *a: built.append(a) or QuantityRanges(*a))
        scans = [eps_identify_effects(eps, obs, assumptions) for eps in EPS_SWEEP]
        assert scans == expected
        assert built == [(None, obs, assumptions)]
        scans[0].skipped.clear()
        assert eps_identify_effects(EPS_SWEEP[0], obs, assumptions).skipped == scans[1].skipped != {}

    def test_memo_stays_bounded_and_correct_past_its_size(self):
        # each dataset fills two memo entries, its scans' and its effects';
        # twice the memo's size of datasets pass through, and the first one,
        # evicted long since, gets its first answers again
        size = bounds._facts.cache_parameters()["maxsize"]

        def answers(scenario):
            exp, obs = scenario.experimental, scenario.observational
            return (
                _outcome(pns_bounds, exp, obs),
                _outcome(eps_identify, "pn", exp, obs, 0.1),
                _outcome(eps_identify_effects, 0.1, obs),
            )

        scenarios = [sample_joint(seed) for seed in range(2 * size + 1)]
        first = [answers(s) for s in scenarios]
        for got, s in zip(first, scenarios):
            exp, obs = s.experimental, s.observational
            assert got[1:] == (
                _outcome(_reference_scan, "pn", exp, obs, 0.1),
                _outcome(_reference_effects, 0.1, obs),
            )
        assert bounds._facts.cache_info().currsize <= size
        misses = bounds._facts.cache_info().misses
        assert answers(scenarios[0]) == first[0]
        assert bounds._facts.cache_info().misses == misses + 2
        assert bounds._facts.cache_info().currsize <= size

    def test_writing_into_returned_not_evaluated_changes_no_later_report(self, running_exp):
        # every report of one target and data pattern shares one read-only
        # JSON of its not-evaluated records, kept out of repr and equality
        report = eps_identify_pns(running_exp, eps=0.1)
        first = report.to_json_dict()
        want = render_json(first)
        records = first["not_evaluated"]
        assert len(records) == len(report.not_evaluated) > 0
        assert records is eps_identify_pns(running_exp, eps=0.2).to_json_dict()["not_evaluated"]
        assert "not_evaluated_json" not in repr(report)
        assert EpsReport(report.quantity, report.eps, report.fired, report.tightest,
                         report.not_evaluated) == report
        record = records[0]
        writes = [
            lambda: records.append({}),
            lambda: records.__setitem__(0, {}),
            lambda: records.__delitem__(0),
            lambda: record.__setitem__("center", "x"),
            lambda: record.__delitem__("center"),
            lambda: record.__ior__({"center": "x"}),
            lambda: record.update(center="x"),
            lambda: record.setdefault("extra", "x"),
            lambda: record.pop("center"),
            lambda: record.popitem(),
            lambda: record.clear(),
            lambda: record["missing"].append("p_x"),
        ]
        for write in writes:
            with pytest.raises((TypeError, AttributeError)):
                write()
        assert render_json(first) == want
        assert render_json(eps_identify_pns(running_exp, eps=0.1).to_json_dict()) == want


def _oracle_ranges(exp, obs, assumptions) -> dict:
    """The oracle range of every quantity the oracle can range on one dataset:
    targets over the data's polytope, effects over the polytope without the
    experimental atoms, which the effect conditions ignore."""
    ranges = {}
    for quantities, arm in ((catalog.TARGETS, exp), (EFFECTS, None)):
        try:
            vertices = feasible_vertices(arm, obs, assumptions)
        except (Infeasible, MissingData):
            continue
        for quantity in quantities:
            try:
                ranges[quantity] = feasible_range(quantity, arm, obs, vertices=vertices)
            except (ZeroDenominator, Unsupported):
                pass
    return ranges


class TestFiringRule:
    @pytest.mark.parametrize("tol", [1e-3, 0.01, 0.05])
    @given(data=datasets(), eps=st.one_of(st.sampled_from(EPS_SWEEP), st.floats(1e-3, 0.5)))
    def test_fired_certificates_miss_the_oracle_by_at_most_half_tol(self, tol, data, eps):
        # full joints from sample_joint, partial joints and asserted bounds:
        # every scan and effect certificate fired under tolerance tol holds
        # the exact range, ranged at the default tolerance, within tol/2
        exp, obs, assumptions = data
        exact = _oracle_ranges(exp, obs, assumptions)
        fired = []
        before = get_tolerance()
        try:
            set_tolerance(tol)
            for quantity in catalog.TARGETS:
                try:
                    report = eps_identify(quantity, exp, obs, eps, assumptions)
                except EpsidentError:
                    continue
                fired += [(quantity, ident) for ident in report.fired]
            effects = eps_identify_effects(eps, obs, assumptions).results
            fired += [(v, r) for v, r in effects.items() if isinstance(r, EpsIdentification)]
        finally:
            set_tolerance(before)
        for quantity, ident in fired:
            if quantity in exact:
                assert ident.certified.contains_interval(exact[quantity], tol / 2 + 1e-12), (
                    quantity, ident.condition.entry_id)


class TestRefusalsAfterProfiling:
    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
    def test_invalid_eps_refused_on_profiled_data(self, eps, running_exp, running_obs):
        assert eps_identify_pns(running_exp, running_obs, 0.15).fired
        assert eps_identify_effects(0.15, running_obs).results
        for _ in range(2):
            with pytest.raises(InvalidDistribution, match="eps must be positive"):
                eps_identify_pns(running_exp, running_obs, eps)
            with pytest.raises(InvalidDistribution, match="eps must be positive"):
                eps_identify_effects(eps, running_obs)

    @pytest.mark.parametrize("eps", [10**400, 10**5000], ids=["401-digits", "5001-digits"])
    def test_eps_too_large_for_a_float_is_refused(self, eps, running_exp, running_obs):
        # the radius compares below inf as an int, but 2*eps overflows a float
        for call in (lambda: eps_identify_pns(running_exp, running_obs, eps),
                     lambda: eps_identify_effects(eps, running_obs)):
            with pytest.raises(InvalidDistribution, match="eps is too large for a float"):
                call()

    def test_zero_denominator_before_incompatible(self):
        # P(x,y) = 0 and P(y_x) = 0.9 > 1 - P(x,y'): both refusals apply
        exp = ExperimentalDistribution(0.9, 0.3)
        obs = ObservationalDistribution(0.0, 0.5, 0.2, 0.3)
        for eps in EPS_SWEEP:
            with pytest.raises(ZeroDenominator):
                eps_identify_pn(exp, obs, eps)
            with pytest.raises(Incompatible):
                eps_identify_pns(exp, obs, eps)

    def test_incompatible_refused_on_every_call(self):
        exp = ExperimentalDistribution(0.3, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        assert eps_identify_effects(0.1, obs).results
        for eps in EPS_SWEEP:
            with pytest.raises(Incompatible):
                eps_identify_pns(exp, obs, eps)
        # the radius is checked before the data are
        with pytest.raises(InvalidDistribution, match="eps must be positive"):
            eps_identify_pns(exp, obs, 0.0)
