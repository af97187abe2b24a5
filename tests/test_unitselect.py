import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsident import (
    BenefitVector,
    ExperimentalDistribution,
    InvalidDistribution,
    MissingData,
    benefit_true_value,
    eps_identify_benefit,
    feasible_range,
    sample_joint,
)
from epsident.oracle import ResponseTypeJoint
from epsident.report import render_json

payoff = st.floats(min_value=-500, max_value=500, allow_nan=False)


@pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["401-digits", "5001-digits"])
@pytest.mark.parametrize("field", ["beta", "delta"])
def test_payoff_too_large_for_a_float(huge, field):
    payoffs = {"beta": 1, "gamma": 0, "theta": 0, "delta": 0, field: huge}
    with pytest.raises(InvalidDistribution) as info:
        BenefitVector(**payoffs)
    assert str(info.value) == f"{field} is too large for a float"


class TestBenefitIdentification:
    def test_discount_scenario(self, discount_exp):
        payoffs = BenefitVector(100, -60, 0, -140)
        result = eps_identify_benefit(payoffs, discount_exp)
        assert result.q == pytest.approx(-12.0, abs=1e-9)
        assert result.eps == pytest.approx(10.0, abs=1e-9)
        assert result.sign == "negative"
        assert result.gain_residual == pytest.approx(20.0)

    def test_gain_equality_is_exact(self):
        payoffs = BenefitVector(100, -60, 0, -160)  # beta + delta = gamma + theta
        exp = ExperimentalDistribution(0.6, 0.5)
        result = eps_identify_benefit(payoffs, exp)
        assert result.eps == 0.0
        assert result.gain_residual == 0.0
        # exact value for every consistent composition
        for seed in range(50):
            joint = _joint_with_experimental(seed, 0.6, 0.5)
            if joint is None:
                continue
            assert benefit_true_value(payoffs, joint) == pytest.approx(result.q, abs=1e-9)

    def test_constant_payoffs(self):
        exp = ExperimentalDistribution(0.3, 0.9)
        result = eps_identify_benefit(BenefitVector(7, 7, 7, 7), exp)
        assert result.q == pytest.approx(7.0)
        assert result.eps == 0.0
        assert result.sign == "positive"

    def test_zero_payoffs_indeterminate(self, discount_exp):
        result = eps_identify_benefit(BenefitVector(0, 0, 0, 0), discount_exp)
        assert result.q == 0.0
        assert result.sign == "indeterminate"

    def test_needs_both_arms(self):
        with pytest.raises(MissingData):
            eps_identify_benefit(BenefitVector(1, 2, 3, 4), ExperimentalDistribution(0.5))

    @pytest.mark.parametrize("payoffs, arms", [
        ((1e308, 0, 0, 1e308), (0.7, 0.3)),  # the gain residual overflows to inf
        ((0, 1e308, 0, -1e308), (0.7, 0.3)),  # gamma - delta overflows, and the residual with it
        ((8e307, 0, 0, 8e307), (0.0, 1.0)),  # q, eps and the residual are finite, q + eps is not
    ])
    def test_overflowing_payoffs_are_refused(self, payoffs, arms):
        with pytest.raises(InvalidDistribution, match="overflows a float"):
            eps_identify_benefit(BenefitVector(*payoffs), ExperimentalDistribution(*arms))

    @given(payoffs=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
           arms=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_finite_payoffs_give_a_renderable_result_or_a_refusal(self, payoffs, arms):
        try:
            result = eps_identify_benefit(BenefitVector(*payoffs), ExperimentalDistribution(*arms))
        except InvalidDistribution:
            return
        render_json(result.to_json_dict())  # raises ValueError on a non-finite number


class TestTrueValue:
    def test_pure_complier(self):
        joint = ResponseTypeJoint([[0.4, 0.6], [0, 0], [0, 0], [0, 0]])
        assert benefit_true_value(BenefitVector(100, -60, 0, -140), joint) == pytest.approx(100)

    def test_uniform_types(self):
        joint = ResponseTypeJoint([[0.125, 0.125]] * 4)
        assert benefit_true_value(BenefitVector(100, -60, 0, -140), joint) == pytest.approx(-25)

    @given(beta=payoff, gamma=payoff, theta=payoff, delta=payoff,
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_affine_decomposition(self, beta, gamma, theta, delta, seed):
        # f == (gamma-delta) P(y_x) + delta P(y_{x'}) + theta P(y'_{x'})
        #      + (beta-gamma-theta+delta) * P(complier), term by term
        payoffs = BenefitVector(beta, gamma, theta, delta)
        scenario = sample_joint(seed)
        joint, exp = scenario.joint, scenario.experimental
        rebuilt = (
            (gamma - delta) * exp.p_y_do_x
            + delta * exp.p_y_do_xp
            + theta * exp.p_yp_do_xp
            + payoffs.gain_residual * joint.pns()
        )
        assert benefit_true_value(payoffs, joint) == pytest.approx(rebuilt, abs=1e-9)

    @given(beta=payoff, gamma=payoff, theta=payoff, delta=payoff,
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_containment(self, beta, gamma, theta, delta, seed):
        payoffs = BenefitVector(beta, gamma, theta, delta)
        scenario = sample_joint(seed)
        result = eps_identify_benefit(payoffs, scenario.experimental)
        value = benefit_true_value(payoffs, scenario.joint)
        assert result.lo - 1e-9 <= value <= result.hi + 1e-9


class TestSignSoundness:
    def test_decided_signs_hold_for_every_feasible_joint(self):
        payoffs = BenefitVector(100, -60, 0, -140)
        for seed in range(120):
            scenario = sample_joint(seed)
            result = eps_identify_benefit(payoffs, scenario.experimental)
            if result.sign == "indeterminate":
                continue
            rng = feasible_range("benefit", scenario.experimental, None, payoffs=payoffs)
            if result.sign == "negative":
                assert rng.hi < 1e-9
            else:
                assert rng.lo > -1e-9


def _joint_with_experimental(seed, p_y_do_x, p_y_do_xp):
    """A random joint whose induced effects match the given pair."""
    import numpy as np

    rng = np.random.default_rng(seed)
    # complier+always mass = p_y_do_x, always+defier = p_y_do_xp
    a = rng.uniform(0, min(p_y_do_x, p_y_do_xp))
    c = p_y_do_x - a
    d = p_y_do_xp - a
    n = 1.0 - c - a - d
    if n < 0:
        return None
    split = rng.uniform(size=4)
    cells = np.array([
        [c * split[0], c * (1 - split[0])],
        [a * split[1], a * (1 - split[1])],
        [n * split[2], n * (1 - split[2])],
        [d * split[3], d * (1 - split[3])],
    ])
    return ResponseTypeJoint(cells)
