"""numpy is loaded only by the oracle's first call that computes and by
``distributions.check_joint``, the array check a joint runs when built:
importing the oracle or naming its functions loads no numpy.  The package's
public names stay the same whether or not the oracle has been imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epsident

SRC = Path(__file__).resolve().parents[1] / "src"
RUNNING = {
    "experimental": {"p_y_do_x": 0.7, "p_y_do_xp": 0.3},
    "observational": {"p_xy": 0.4, "p_xyp": 0.1, "p_xpy": 0.2, "p_xpyp": 0.3},
}
ORACLE_NAMES = {
    "ResponseTypeJoint", "SampledScenario", "feasible_range", "feasible_vertices", "sample_joint",
}
PUBLIC_NAMES = [
    "Assumptions", "BenefitIdentification", "BenefitVector", "CompatibilityReport", "Condition",
    "ConfoundedEffectInput", "ConfoundedScm", "ConfounderSpec", "CovariateJoint",
    "DEFAULT_TOLERANCE", "EFFECT_LABELS", "EFFECT_VARIANTS", "EffectScan", "EmptyInterval",
    "EmptyStratum", "EpsIdentification", "EpsReport", "EpsidentError",
    "ExperimentalDistribution", "Incompatible", "Infeasible", "InputData", "Interval",
    "InvalidDistribution", "MissingData", "MonotoneIdentification", "MonotonicityRefuted",
    "NotEvaluated", "NotIdentified", "ObservationalDistribution", "ParseError",
    "QuantityRanges", "ResponseTypeJoint", "SampledScenario", "StudyCounts", "Unsupported",
    "Violation", "ZeroArm", "ZeroDenominator", "adjust_over_covariate", "benefit_true_value",
    "bound_arguments", "bounds", "catalog", "causal_effect_bounds", "check_compatibility",
    "config", "confounded", "confounded_effect_range", "distributions", "effect_bounds",
    "effect_sandwich", "engine", "eps_identify_benefit", "eps_identify_effect",
    "eps_identify_effect_confounded", "eps_identify_effect_confounded_simple",
    "eps_identify_effects", "eps_identify_pn", "eps_identify_pns", "eps_identify_ps", "errors",
    "feasible_range", "feasible_vertices", "forms", "from_counts", "get_tolerance",
    "identify_monotone", "interval", "minimal_epsilon", "oracle", "parse_counts_csv",
    "parse_input_json", "pn_bounds", "pns_bounds", "ps_bounds", "report", "sample_joint",
    "set_tolerance", "unitselect",
]

CLI_CALL = """
import contextlib, io
from epsident.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""
LIBRARY_CALLS = """
import epsident as ep
exp = ep.ExperimentalDistribution(p_y_do_x=0.7, p_y_do_xp=0.3)
obs = ep.ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3)
ep.pns_bounds(exp, obs)
ep.eps_identify_pns(exp, obs, 0.05)
ep.minimal_epsilon("pns", exp, obs)
ep.eps_identify_benefit(ep.BenefitVector(100, -60, 0, -140), exp)
"""
# a fresh interpreter's first feasible_vertices calls, made by one thread per
# input after a barrier (so that they race to load numpy and the oracle's
# tables) or in turn by the main thread; prints each result's bytes, in hex
FIRST_CALLS = """
import sys, threading
import epsident as ep
assert "numpy" not in sys.modules
exp = ep.ExperimentalDistribution(p_y_do_x=0.7, p_y_do_xp=0.3)
obs = ep.ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3)
# the same input twice races the pattern cache as well
inputs = [
    (exp, obs, None),
    (exp, obs, None),
    (exp, None, None),
    (None, obs, ep.Assumptions(p_y_max=0.65)),
]
out = [None] * len(inputs)

def first_call(k):
    out[k] = ep.feasible_vertices(*inputs[k]).tobytes().hex()

if {threaded}:
    barrier = threading.Barrier(len(inputs))
    threads = [threading.Thread(target=lambda k=k: (barrier.wait(), first_call(k)))
               for k in range(len(inputs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
else:
    for k in range(len(inputs)):
        first_call(k)
print(*out)
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the last line it printed."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loads_numpy(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; whether numpy was loaded after it."""
    return run_fresh(code + "\nimport sys\nprint('numpy' in sys.modules)") == "True"


@pytest.fixture()
def running_path(tmp_path):
    path = tmp_path / "running.json"
    path.write_text(json.dumps(RUNNING))
    return str(path)


class TestNumpyStaysUnloaded:
    def test_package_and_cli_import(self):
        assert not loads_numpy("import epsident, epsident.cli")

    @pytest.mark.parametrize("args", [
        ["bounds", "--json"],
        ["epsident", "--eps", "0.05"],
        ["epsident", "--minimal"],
        ["epsident", "--eps", "0.05", "--confounder", "--u-max", "0.01"],
        ["unit-select", "--payoffs", "100", "-60", "0", "-140"],
    ], ids=" ".join)
    def test_closed_form_commands(self, running_path, args):
        argv = [args[0], running_path, *args[1:]]
        assert not loads_numpy(CLI_CALL.format(argv=argv))

    def test_closed_form_library_calls(self):
        assert not loads_numpy(LIBRARY_CALLS)

    def test_confounder_model_range(self):
        assert not loads_numpy("import epsident\nepsident.confounded_effect_range(0.5, 0.6, 0.01)")

    @pytest.mark.parametrize("code", [
        "import epsident\nepsident.feasible_vertices",
        "import epsident\nepsident.oracle",
        "import epsident.oracle",
        "from epsident import *",
    ], ids=["feasible_vertices", "oracle", "import-oracle", "star-import"])
    def test_naming_the_oracle(self, code):
        # the oracle module is loaded, so the guard does not pass vacuously
        assert not loads_numpy(code + "\nimport sys\nassert 'epsident.oracle' in sys.modules")

    # the controls: the guards above would pass vacuously if nothing loaded numpy

    def test_verify_loads_numpy(self, running_path):
        assert loads_numpy(CLI_CALL.format(argv=["verify", running_path, "--trials", "0"]))

    @pytest.mark.parametrize("call", [
        "feasible_vertices(ep.ExperimentalDistribution(p_y_do_x=0.7, p_y_do_xp=0.3))",
        "sample_joint(0)",
    ], ids=["feasible_vertices", "sample_joint"])
    def test_oracle_calls_load_numpy(self, call):
        assert loads_numpy(f"import epsident as ep\nep.{call}")


def test_threaded_first_calls_match_a_single_thread():
    single = run_fresh(FIRST_CALLS.format(threaded=False)).split()
    assert len(single) == 4 and all(single)
    assert run_fresh(FIRST_CALLS.format(threaded=True)).split() == single


class TestPublicApi:
    def test_all_is_pinned(self):
        assert sorted(epsident.__all__) == PUBLIC_NAMES

    def test_every_public_name_resolves(self):
        for name in PUBLIC_NAMES:
            getattr(epsident, name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from epsident import *", namespace)
        assert set(PUBLIC_NAMES) <= namespace.keys()

    def test_dir_lists_the_oracle_names(self):
        assert ORACLE_NAMES | {"oracle"} <= set(dir(epsident))

    def test_oracle_names_are_the_oracle_module_attributes(self):
        import epsident.oracle

        assert epsident.oracle is sys.modules["epsident.oracle"]
        for name in ORACLE_NAMES:
            assert getattr(epsident, name) is getattr(epsident.oracle, name)

    def test_oracle_re_exports_the_confounder_models(self):
        import epsident.oracle

        for name in ("ConfoundedScm", "confounded_effect_range", "grid_scms"):
            assert getattr(epsident.oracle, name) is getattr(epsident.confounded, name)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match=r"^module 'epsident' has no attribute 'nope'$"):
            epsident.nope
