"""Tight bounds and near-point identification for binary causal queries.

The package computes, from any mix of experimental data (causal effects),
observational data (a 2x2 joint), and asserted marginal bounds:

* tight bounds on causal effects and on the three counterfactual
  probabilities pns / pn / ps,
* point identification under monotonicity and under covariate adjustment,
* every published sufficient condition for identification to within a
  radius eps, including the single-binary-confounder route for P(y_x),
* the benefit function of the unit selection problem with its universal
  radius |beta - gamma - theta + delta| / 2,

and verifies each emitted interval against an independent brute-force
oracle over the response-type polytope.
"""

from importlib import import_module as _import_module

from .bounds import (
    EFFECT_LABELS,
    EFFECT_VARIANTS,
    CovariateJoint,
    MonotoneIdentification,
    adjust_over_covariate,
    bound_arguments,
    causal_effect_bounds,
    effect_bounds,
    identify_monotone,
    pn_bounds,
    pns_bounds,
    ps_bounds,
)
from .config import DEFAULT_TOLERANCE, get_tolerance, set_tolerance
from .confounded import (
    ConfoundedEffectInput,
    ConfoundedScm,
    confounded_effect_range,
    effect_sandwich,
    eps_identify_effect_confounded,
    eps_identify_effect_confounded_simple,
)
from .distributions import (
    Assumptions,
    CompatibilityReport,
    Condition,
    ConfounderSpec,
    EpsIdentification,
    ExperimentalDistribution,
    InputData,
    ObservationalDistribution,
    StudyCounts,
    Violation,
    check_compatibility,
    from_counts,
    parse_counts_csv,
    parse_input_json,
)
from .engine import (
    EffectScan,
    EpsReport,
    NotEvaluated,
    NotIdentified,
    QuantityRanges,
    eps_identify_effect,
    eps_identify_effects,
    eps_identify_pn,
    eps_identify_pns,
    eps_identify_ps,
    minimal_epsilon,
)
from .errors import (
    EmptyInterval,
    EmptyStratum,
    EpsidentError,
    Incompatible,
    Infeasible,
    InvalidDistribution,
    MissingData,
    MonotonicityRefuted,
    ParseError,
    Unsupported,
    ZeroArm,
    ZeroDenominator,
)
from .interval import Interval
from .unitselect import (
    BenefitIdentification,
    BenefitVector,
    benefit_true_value,
    eps_identify_benefit,
)

__version__ = "0.1.0"

# The oracle is imported on first access to one of its names (PEP 562), so
# that the closed forms and the CLI commands built on them do not compile its
# code.  The oracle itself loads numpy only at its first call that computes.
_ORACLE_EXPORTS = (
    "ResponseTypeJoint",
    "SampledScenario",
    "feasible_range",
    "feasible_vertices",
    "sample_joint",
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["oracle", *_ORACLE_EXPORTS]


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_EXPORTS:
        # import_module, not ``from . import oracle``: the latter asks this
        # hook for "oracle" again before the submodule is loaded
        oracle = _import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "oracle", *_ORACLE_EXPORTS})
