import dataclasses
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epsident import (
    Assumptions,
    ConfounderSpec,
    ExperimentalDistribution,
    InvalidDistribution,
    MissingData,
    ObservationalDistribution,
    ParseError,
    StudyCounts,
    ZeroArm,
    check_compatibility,
    from_counts,
    parse_counts_csv,
    parse_input_json,
)
from epsident.distributions import (
    Condition,
    EpsIdentification,
    check_eps,
    check_unit,
    present_atoms,
    require_atoms,
)
from epsident.interval import Interval

counts_st = st.integers(min_value=0, max_value=10_000)


class TestFromCounts:
    def test_experimental_rates(self, discount_exp):
        assert discount_exp.p_y_do_x == pytest.approx(0.6)
        assert discount_exp.p_y_do_xp == pytest.approx(0.5)

    def test_observational_cells(self, medicine_obs):
        assert medicine_obs.p_x == pytest.approx(0.84)
        assert medicine_obs.p_y_given_x == pytest.approx(780 / 1260)

    def test_zero_arm(self):
        counts = StudyCounts(0, 0, 5, 5, kind="experimental")
        with pytest.raises(ZeroArm):
            from_counts(counts)

    def test_empty_study_rejected(self):
        with pytest.raises(InvalidDistribution):
            StudyCounts(0, 0, 0, 0, kind="observational")

    @given(a=counts_st, b=counts_st, c=counts_st, d=counts_st,
           k=st.integers(min_value=1, max_value=50))
    def test_scale_invariance(self, a, b, c, d, k):
        if a + b + c + d == 0:
            return
        base = StudyCounts(a, b, c, d, kind="observational")
        scaled = StudyCounts(a * k, b * k, c * k, d * k, kind="observational")
        lhs, rhs = from_counts(base), from_counts(scaled)
        for cell in ("p_xy", "p_xyp", "p_xpy", "p_xpyp"):
            assert getattr(lhs, cell) == pytest.approx(getattr(rhs, cell), abs=1e-12)

    @given(a=counts_st, b=counts_st, c=counts_st, d=counts_st)
    def test_mass_conserved(self, a, b, c, d):
        if a + b + c + d == 0:
            return
        obs = from_counts(StudyCounts(a, b, c, d, kind="observational"))
        total = obs.p_xy + obs.p_xyp + obs.p_xpy + obs.p_xpyp
        assert total == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_probability_range(self):
        with pytest.raises(InvalidDistribution):
            ExperimentalDistribution(p_y_do_x=1.2)
        with pytest.raises(InvalidDistribution):
            ObservationalDistribution(p_xy=-0.1)

    def test_full_joint_must_sum_to_one(self):
        with pytest.raises(InvalidDistribution):
            ObservationalDistribution(0.4, 0.4, 0.4, 0.4)

    def test_partial_joint_cannot_exceed_one(self):
        with pytest.raises(InvalidDistribution):
            ObservationalDistribution(p_xy=0.7, p_xpy=0.5)
        # partial mass below 1 is fine
        obs = ObservationalDistribution(p_xy=0.3, p_xpy=0.5)
        assert obs.p_y == pytest.approx(0.8)
        assert obs.p_x is None

    def test_assumptions_range(self):
        with pytest.raises(InvalidDistribution):
            Assumptions(p_y_max=1.5)
        assert Assumptions().is_empty

    def test_confounder_requires_u_max(self):
        with pytest.raises(InvalidDistribution, match="u_max is required"):
            ConfounderSpec(None)
        with pytest.raises(InvalidDistribution, match="u_max is required"):
            ConfounderSpec(None, p_x=0.5, c=0.1)
        assert ConfounderSpec(0.01).u_max == 0.01


# integers a JSON file may hold that no float can: 401 digits overflow a
# float, and 5,001 also exceed the limit for turning an int into a string
HUGE = [10**400, 10**5000]


@pytest.mark.parametrize("huge", HUGE, ids=["401-digits", "5001-digits"])
class TestNumbersTooLargeForAFloat:
    @pytest.mark.parametrize("record, field", [
        (ExperimentalDistribution, "p_y_do_x"),
        (ObservationalDistribution, "p_xpyp"),
        (Assumptions, "p_y_max"),
    ])
    def test_probability_fields(self, huge, record, field):
        with pytest.raises(InvalidDistribution) as info:
            record(**{field: huge})
        assert str(info.value) == f"{field} is too large for a float"

    @pytest.mark.parametrize("field", ["u_max", "p_x", "c"])
    def test_confounder_fields(self, huge, field):
        with pytest.raises(InvalidDistribution) as info:
            ConfounderSpec(**{"u_max": 0.01, field: huge})
        assert str(info.value) == f"{field} is too large for a float"

    def test_eps(self, huge):
        with pytest.raises(InvalidDistribution, match="eps is too large for a float"):
            check_eps(huge)

    def test_unit_interval(self, huge):
        # the confounder routes take P(x), P(y|x) and u_max through check_unit
        with pytest.raises(InvalidDistribution, match="p_x is too large for a float"):
            check_unit(p_y_given_x=0.5, p_x=huge)

    def test_json_ingestion_raises_parse_error(self, huge):
        with pytest.raises(ParseError, match="p_xy is too large for a float"):
            parse_input_json({"observational": {"p_xy": huge}})


class TestCompatibility:
    def test_running_example_compatible(self, running_exp, running_obs):
        report = check_compatibility(running_exp, running_obs)
        assert report.ok
        assert len(report) == 0
        assert not report.not_evaluated

    def test_violation_detected(self):
        exp = ExperimentalDistribution(p_y_do_x=0.3)
        obs = ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3)
        report = check_compatibility(exp, obs)
        assert not report.ok
        labels = [v.constraint for v in report]
        assert "P(x,y) <= P(y_x)" in labels

    def test_deterministic_complier_population(self, point_exp, point_obs):
        assert check_compatibility(point_exp, point_obs).ok

    def test_partial_data_skips(self):
        exp = ExperimentalDistribution(p_y_do_x=0.5)
        report = check_compatibility(exp, None)
        assert report.ok
        assert len(report.not_evaluated) == 8


CONDITION = Condition("pns-01", "premise <= 2*eps", 0.1, "2*eps", 0.2, "center + eps")


class TestEpsIdentification:
    # its own constructor checks the center and radius before setting anything

    def test_certified_is_the_radius_eps_interval(self):
        ident = EpsIdentification("pns", 0.4, 0.1, CONDITION)
        assert ident.certified == Interval(0.4 - 0.1, 0.4 + 0.1)
        assert ident.certified_clamped() == Interval(0.4 - 0.1, 0.4 + 0.1)
        assert EpsIdentification("pns", 0.95, 0.1, CONDITION).certified_clamped().hi == 1.0
        assert ident == EpsIdentification(quantity="pns", q=0.4, eps=0.1, condition=CONDITION)
        assert hash(ident) == hash(EpsIdentification("pns", 0.4, 0.1, CONDITION))

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_refused(self, q):
        with pytest.raises(InvalidDistribution, match="center must be finite"):
            EpsIdentification("pns", q, 0.1, CONDITION)

    @pytest.mark.parametrize("eps", [-0.1, -1e-300, math.nan])
    def test_negative_radius_refused(self, eps):
        with pytest.raises(InvalidDistribution, match="radius must be >= 0"):
            EpsIdentification("pns", 0.4, eps, CONDITION)

    def test_certified_is_not_an_argument(self):
        with pytest.raises(TypeError):
            EpsIdentification("pns", 0.4, 0.1, CONDITION, Interval(0.0, 1.0))
        ident = EpsIdentification("pns", 0.4, 0.1, CONDITION)
        with pytest.raises(ValueError):
            dataclasses.replace(ident, certified=Interval(0.0, 1.0))
        assert dataclasses.replace(ident, eps=0.2).certified == Interval(0.4 - 0.2, 0.4 + 0.2)

    def test_pickle_and_json(self):
        ident = EpsIdentification("pns", 0.4, 0.1, CONDITION)
        assert pickle.loads(pickle.dumps(ident)) == ident
        assert ident.to_json_dict() == {
            "quantity": "pns",
            "q": 0.4,
            "eps": 0.1,
            "condition": {
                "entry_id": "pns-01",
                "premise": "premise <= 2*eps",
                "premise_value": 0.1,
                "threshold": "2*eps",
                "threshold_value": 0.2,
                "center": "center + eps",
            },
            "certified": [0.4 - 0.1, 0.4 + 0.1],
        }
        assert CONDITION.to_json_dict() == dataclasses.asdict(CONDITION)


class TestAtoms:
    def test_present_atoms_merges_in_argument_order(self):
        exp = ExperimentalDistribution(p_y_do_xp=0.3)
        obs = ObservationalDistribution(p_xpyp=0.2, p_xy=0.4)
        assume = Assumptions(p_y_max=0.5)
        present = present_atoms(exp, obs, assume)
        assert list(present.items()) == [
            ("p_y_do_xp", 0.3), ("p_xy", 0.4), ("p_xpyp", 0.2), ("p_y_max", 0.5)
        ]
        assert list(present_atoms(obs, exp)) == ["p_xy", "p_xpyp", "p_y_do_xp"]

    def test_present_atoms_skips_none(self):
        exp = ExperimentalDistribution(p_y_do_x=0.7)
        assert present_atoms(None, exp, None) == {"p_y_do_x": 0.7}
        assert present_atoms(None, None) == {}
        assert present_atoms() == {}

    def test_require_atoms_returns_values_in_request_order(self, running_exp, running_obs):
        values = require_atoms(running_exp, running_obs, ("p_xpyp", "p_y_do_xp", "p_xy"), "ctx")
        assert list(values.items()) == [("p_xpyp", 0.3), ("p_y_do_xp", 0.3), ("p_xy", 0.4)]

    def test_require_atoms_lists_missing_in_request_order(self):
        exp = ExperimentalDistribution(p_y_do_x=0.7)
        obs = ObservationalDistribution(p_xy=0.4)
        atoms = ("p_xpyp", "p_y_do_x", "p_y_do_xp", "p_xy", "p_xyp")
        with pytest.raises(MissingData) as info:
            require_atoms(exp, obs, atoms, "pns bounds")
        assert info.value.missing == ("p_xpyp", "p_y_do_xp", "p_xyp")
        assert str(info.value) == "pns bounds: missing data atoms: p_xpyp, p_y_do_xp, p_xyp"

    def test_require_atoms_with_absent_records(self, running_exp, running_obs):
        assert require_atoms(None, running_obs, ("p_xy",), "ctx") == {"p_xy": 0.4}
        assert require_atoms(running_exp, None, ("p_y_do_x",), "ctx") == {"p_y_do_x": 0.7}
        with pytest.raises(MissingData) as info:
            require_atoms(None, None, ("p_xy", "p_y_do_x"), "ctx")
        assert info.value.missing == ("p_xy", "p_y_do_x")

    def test_marginals_need_both_cells(self, running_obs):
        assert (running_obs.p_x, running_obs.p_xp) == (0.4 + 0.1, 0.2 + 0.3)
        assert (running_obs.p_y, running_obs.p_yp) == (0.4 + 0.2, 0.1 + 0.3)
        obs = ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2)
        assert (obs.p_x, obs.p_xp, obs.p_y, obs.p_yp) == (0.4 + 0.1, None, 0.4 + 0.2, None)


class TestIngestion:
    def test_json_full(self):
        data = parse_input_json(
            {
                "experimental": {"p_y_do_x": 0.6, "p_y_do_xp": 0.5},
                "observational": {"p_xy": 0.25, "p_xyp": 0.25, "p_xpy": 0.25, "p_xpyp": 0.25},
                "assumptions": {"p_y_max": 0.05},
                "confounder": {"u_max": 0.01, "c": 0.8},
            }
        )
        assert data.experimental.p_y_do_x == 0.6
        assert data.observational.p_xpyp == 0.25
        assert data.assumptions.p_y_max == 0.05
        assert data.confounder.c == 0.8

    def test_json_absent_keys_mean_unknown(self):
        data = parse_input_json({"experimental": {"p_y_do_x": 0.6}})
        assert data.experimental.p_y_do_xp is None
        assert data.observational is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiments": {}},
            {"experimental": {"p_y_dox": 0.5}},
            {"experimental": {"p_y_do_x": "high"}},
            {"confounder": {"c": 0.5}},
            [1, 2, 3],
        ],
    )
    def test_json_rejects_malformed(self, payload):
        with pytest.raises(ParseError):
            parse_input_json(payload)

    def test_csv_roundtrip(self):
        text = "arm,outcome,count\ntreated,positive,900\ntreated,negative,600\n" \
               "untreated,positive,750\nuntreated,negative,750\n"
        counts = parse_counts_csv(text, "experimental")
        exp = from_counts(counts)
        assert exp.p_y_do_x == pytest.approx(0.6)
        assert exp.p_y_do_xp == pytest.approx(0.5)

    def test_csv_accumulates_and_skips_blanks(self):
        text = "treated,positive,1\n\ntreated,positive,2\nuntreated,negative,3\n"
        counts = parse_counts_csv(text, "observational")
        assert counts.n_treated_recovered == 3
        assert counts.n_untreated_not == 3

    @pytest.mark.parametrize("lead", ["\n", "\n\n", " , ,\n"], ids=["one", "two", "spaces"])
    def test_csv_header_after_blank_lines(self, lead):
        text = lead + "arm,outcome,count\ntreated,positive,3\nuntreated,negative,2\n"
        counts = parse_counts_csv(text, "observational")
        assert (counts.n_treated_recovered, counts.n_untreated_not) == (3, 2)

    def test_csv_header_only_as_first_nonblank_row(self):
        # a header-like row after a data row is data, reported by its own row number
        text = "\ntreated,positive,3\narm,outcome,count\n"
        with pytest.raises(ParseError, match="row 3: unknown arm 'arm'"):
            parse_counts_csv(text, "observational")

    @pytest.mark.parametrize(
        "text",
        ["treated,positive\n", "upward,positive,3\n", "treated,maybe,3\n",
         "treated,positive,x\n", "treated,positive,-1\n", ""],
    )
    def test_csv_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_counts_csv(text, "experimental")
