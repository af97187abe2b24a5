import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from epsident import (
    EpsidentError,
    Incompatible,
    ExperimentalDistribution,
    Interval,
    ObservationalDistribution,
    QuantityRanges,
    eps_identify_pns,
    sample_joint,
)
from epsident import bounds, cli, distributions, engine, oracle
from epsident.cli import main
from epsident.config import DEFAULT_TOLERANCE, get_tolerance, set_tolerance
from epsident.forms import QUANTITIES
from epsident.report import parse_json, render_json

SRC = Path(__file__).resolve().parents[1] / "src"
RUNNING = {
    "experimental": {"p_y_do_x": 0.7, "p_y_do_xp": 0.3},
    "observational": {"p_xy": 0.4, "p_xyp": 0.1, "p_xpy": 0.2, "p_xpyp": 0.3},
}
MEDICINE = {
    "observational": {"p_xy": 0.52, "p_xyp": 0.32, "p_xpy": 0.14, "p_xpyp": 0.02},
    "confounder": {"p_x": 0.84, "p_y_given_x": 0.62, "u_max": 0.01, "c": 0.8},
}
FLU = {"experimental": {"p_y_do_x": 0.31}, "assumptions": {"p_y_max": 0.05}}
PARTIAL = {
    "experimental": {"p_y_do_x": 0.2255, "p_y_do_xp": 0.5422},
    "observational": {"p_xyp": 0.1926, "p_xpyp": 0.2420},
}
INCOMPATIBLE = {
    "experimental": {"p_y_do_x": 0.3},
    "observational": {"p_xy": 0.4, "p_xyp": 0.1, "p_xpy": 0.2, "p_xpyp": 0.3},
}
# P(x,y) = 0 leaves pn undefined; the data are compatible
ZERO_PXY = {
    "experimental": {"p_y_do_x": 0.5, "p_y_do_xp": 0.3},
    "observational": {"p_xy": 0.0, "p_xyp": 0.4, "p_xpy": 0.2, "p_xpyp": 0.4},
}
# a confounder section and no data atom
CONFOUNDER_ONLY = {"confounder": {"u_max": 0.01, "p_x": 0.84, "p_y_given_x": 0.62, "c": 0.8}}
# P(x) = 0.04 and P(y|x) = 0.5 from the joint, and the automatic slack constant
CONFOUNDER_FROM_JOINT = {
    "observational": {"p_xy": 0.02, "p_xyp": 0.02, "p_xpy": 0.46, "p_xpyp": 0.5},
    "confounder": {"u_max": 0.001},
}

TABLE1_CSV = (
    "arm,outcome,count\n"
    "treated,positive,780\ntreated,negative,480\n"
    "untreated,positive,210\nuntreated,negative,30\n"
)
TABLE2_CSV = (
    "arm,outcome,count\n"
    "treated,positive,900\ntreated,negative,600\n"
    "untreated,positive,750\nuntreated,negative,750\n"
)


@pytest.fixture(autouse=True)
def _clean_tolerance(monkeypatch):
    monkeypatch.delenv("EPSIDENT_TOLERANCE", raising=False)
    yield
    set_tolerance(DEFAULT_TOLERANCE)


@pytest.fixture()
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    return _write


class TestBounds:
    def test_observational_only_lists_insufficient(self, write, capsys):
        path = write("table1.csv", TABLE1_CSV)
        assert main(["bounds", path, "--kind", "observational", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        assert report["bounds"]["effects"]["y_x"]["lo"] == pytest.approx(0.52)
        assert report["bounds"]["effects"]["y_x"]["hi"] == pytest.approx(0.68)
        assert report["bounds"]["pns"]["status"] == "insufficient data"
        assert "p_y_do_x" in report["bounds"]["pns"]["missing"]

    def test_full_data(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["bounds", path, "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        assert report["bounds"]["pns"]["lo"] == pytest.approx(0.4)
        assert report["bounds"]["pns"]["hi"] == pytest.approx(0.7)
        assert report["bounds"]["pn"]["lo"] == pytest.approx(0.75)
        assert report["bounds"]["ps"]["lo"] == pytest.approx(1 / 3)

    def test_malformed_json_exits_2(self, write):
        path = write("bad.json", "{nope")
        assert main(["bounds", path]) == 2

    def test_incompatible_exits_3_without_force(self, write, capsys):
        path = write("bad.json", INCOMPATIBLE)
        assert main(["bounds", path]) == 3
        assert "incompatible" in capsys.readouterr().err

    def test_force_reports_refusals(self, write, capsys):
        complete_incompatible = {
            "experimental": {"p_y_do_x": 0.3, "p_y_do_xp": 0.3},
            "observational": INCOMPATIBLE["observational"],
        }
        path = write("bad.json", complete_incompatible)
        assert main(["bounds", path, "--force", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        assert report["bounds"]["pns"]["status"] == "refused"
        assert report["warnings"]

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"experimental": {"p_y_do_x": 0.7}, "note": "caf\u00e9"}'.encode("latin-1"))
        assert main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""

    def test_zero_denominator_is_undefined(self, write, capsys):
        path = write("zero.json", ZERO_PXY)
        assert main(["bounds", path, "--json"]) == 0
        report = parse_json(capsys.readouterr().out)["bounds"]
        assert report["pn"] == {"status": "undefined", "reason": "P(x,y) = 0, pn is undefined"}
        assert report["pns"]["lo"] == pytest.approx(0.3) and report["ps"]["lo"] == pytest.approx(0.75)
        assert main(["bounds", path]) == 0
        assert "PN          undefined: P(x,y) = 0, pn is undefined" in capsys.readouterr().out

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_oversized_integer_exits_2(self, digits, write, capsys):
        # 401 digits overflow a float; 5,001 pass int_max_str_digits and stop json.loads
        path = write("huge.json", '{"experimental": {"p_y_do_x": 1' + "0" * (digits - 1) + "}}")
        for command in (["bounds"], ["epsident", "--minimal"], ["verify", "--trials", "0"]):
            assert main([command[0], path, *command[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            if digits == 401:
                assert captured.err == "error: p_y_do_x is too large for a float\n"
            else:
                assert captured.err.startswith(f"error: {path}: invalid JSON: Exceeds the limit")

    def test_oversized_integer_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"confounder": {"u_max": 0.01, "c": 1' + "0" * 400 + "}}")
        result = subprocess.run(
            [sys.executable, "-m", "epsident.cli", "epsident", str(path), "--eps", "0.05",
             "--confounder"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: c is too large for a float\n"

    def test_deeply_nested_json_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        result = subprocess.run(
            [sys.executable, "-m", "epsident.cli", "bounds", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"error: {path}: invalid JSON: maximum recursion depth")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("name, payload, kind", [
        ("table1.csv", TABLE1_CSV, ["--kind", "observational"]),
        ("table2.csv", TABLE2_CSV, ["--kind", "experimental"]),
        ("running.json", json.dumps(RUNNING), []),
    ], ids=["csv-observational", "csv-experimental", "json"])
    def test_byte_order_mark_is_read_like_plain_text(self, name, payload, kind, tmp_path, capsys):
        # spreadsheet exports start with a UTF-8 byte-order mark
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(payload, encoding="utf-8")
        marked.write_text(payload, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for extra in (["bounds"], ["epsident", "--minimal", "--json"]):
            outputs = []
            for path in (plain, marked):
                assert main([extra[0], str(path), *kind, *extra[1:]]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]

    def test_bad_env_tolerance_exits_2(self, write, capsys, monkeypatch):
        path = write("running.json", RUNNING)
        monkeypatch.setenv("EPSIDENT_TOLERANCE", "abc")
        assert main(["bounds", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: EPSIDENT_TOLERANCE must be a number, got 'abc'\n"
        assert captured.out == ""

    def test_csv_requires_kind(self, write):
        path = write("table1.csv", TABLE1_CSV)
        assert main(["bounds", path]) == 2

    def test_effects_without_a_joint_name_the_cells(self, write, capsys):
        # bounds and epsident --minimal print the same missing list for each
        # effect, in text and in JSON: the cells, not the absent section
        path = write("flu.json", FLU)
        assert main(["bounds", path, "--json"]) == 0
        bounds_json = parse_json(capsys.readouterr().out)["bounds"]["effects"]
        assert main(["epsident", path, "--minimal", "--json"]) == 0
        minimal_json = parse_json(capsys.readouterr().out)["minimal"]
        assert main(["bounds", path]) == 0
        bounds_text = capsys.readouterr().out.splitlines()
        assert main(["epsident", path, "--minimal"]) == 0
        minimal_text = capsys.readouterr().out.splitlines()
        for variant, label in (("y_x", "P(y_x)"), ("yp_x", "P(y'_x)"),
                               ("y_xp", "P(y_{x'})"), ("yp_xp", "P(y'_{x'})")):
            assert bounds_json[variant] == minimal_json[variant]
            assert bounds_json[variant]["status"] == "insufficient data"
            line = f"{label:11s} insufficient data (missing: {', '.join(bounds_json[variant]['missing'])})"
            assert line in bounds_text and line in minimal_text
        assert bounds_json["y_x"]["missing"] == ["p_xy", "p_xyp"]


class TestEpsident:
    def test_flu_partial_data(self, write, capsys):
        path = write("flu.json", FLU)
        assert main(["epsident", path, "--quantity", "pns", "--eps", "0.025", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        fired = report["eps_reports"]["pns"]["fired"]
        assert len(fired) == 1
        assert fired[0]["condition"]["center"] == "P(y_x) - eps"
        assert fired[0]["q"] == pytest.approx(0.285)

    def test_confounder_scenario(self, write, capsys):
        path = write("medicine.json", MEDICINE)
        assert main(["epsident", path, "--eps", "0.025", "--confounder", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        general = report["confounded"]["general"]
        assert general["identified"] is True
        assert general["q"] == pytest.approx(0.62 + (0.04 / 2.984) * 0.025)
        # the coarse route needs eps = 0.035 to cover P(u) = 0.01
        assert report["confounded"]["simple"]["identified"] is False

    def test_confounder_simple_route_at_wider_radius(self, write, capsys):
        path = write("medicine.json", MEDICINE)
        assert main(["epsident", path, "--eps", "0.035", "--confounder", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        simple = report["confounded"]["simple"]
        assert simple["identified"] is True
        assert simple["q"] == pytest.approx(0.62 + 0.035 / 13)

    def test_auto_c_that_does_not_fire_reports_its_margin(self, write, capsys):
        # the largest slack constant c = P(x) - u_max = 0.48 fails, and the
        # report keeps its margin and the pns scan, as an explicit c does
        path = write("running.json", {**RUNNING, "confounder": {"u_max": 0.02}})
        assert main(["epsident", path, "--eps", "0.05", "--confounder", "--quantity", "pns"]) == 0
        out = capsys.readouterr().out
        assert "[c=0.48] fails by 0.00356164]" in out
        assert out.endswith("\nPNS: 0 condition(s) fired, 0 not evaluated\n")
        path = write("conf.json", {"confounder": {"p_x": 0.3, "p_y_given_x": 0.5, "u_max": 0.3}})
        assert main(["epsident", path, "--eps", "0.001", "--confounder", "--json"]) == 0
        general = parse_json(capsys.readouterr().out)["confounded"]["general"]
        assert (general["identified"], general["margin"]) == (False, 0.3)
        assert "[c=0]" in general["condition"]["premise"]

    def test_loose_tolerance_takes_margins_from_a_small_treated_share(self, write, monkeypatch,
                                                                      capsys):
        # P(x) = 0.04 is below the tolerance 0.05 but positive: P(y|x) is
        # defined, as it is when the section gives the same margins
        monkeypatch.setenv("EPSIDENT_TOLERANCE", "0.05")
        for data in (CONFOUNDER_FROM_JOINT,
                     {"confounder": {"u_max": 0.001, "p_x": 0.04, "p_y_given_x": 0.5}}):
            path = write("small.json", data)
            assert main(["epsident", path, "--eps", "0.05", "--confounder"]) == 0
            out = capsys.readouterr().out
            assert "identified to q = 0.500609 within eps = 0.05" in out
            assert "[c=0.039]" in out

    def test_auto_slack_constant(self, write, capsys):
        payload = dict(MEDICINE)
        payload["confounder"] = {"p_x": 0.84, "p_y_given_x": 0.62, "u_max": 0.01}
        path = write("auto.json", payload)
        assert main(["epsident", path, "--eps", "0.025", "--confounder",
                     "--c", "auto", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        general = report["confounded"]["general"]
        assert general["identified"] is True
        assert "c=0.83" in general["condition"]["premise"]

    def test_minimal(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["epsident", path, "--minimal", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        assert report["minimal"]["pns"]["eps_star"] == pytest.approx(0.15)
        assert report["minimal"]["pns"]["q_star"] == pytest.approx(0.55)
        assert report["minimal"]["pn"]["eps_star"] == pytest.approx(0.125)

    def test_minimal_text_names_missing_atoms(self, write, capsys):
        # the same line as bounds prints for each quantity it cannot range
        path = write("partial.json", PARTIAL)
        assert main(["epsident", path, "--minimal"]) == 0
        minimal = capsys.readouterr().out.splitlines()
        assert main(["bounds", path]) == 0
        assert sorted(minimal[2:]) == sorted(capsys.readouterr().out.splitlines()[2:])
        assert "PNS         insufficient data (missing: p_xy, p_xpy)" in minimal
        # atoms in QUANTITIES order, as the scan's not_evaluated lists them,
        # not in the order the bounds read them (p_xpyp, p_xy)
        path = write("off_diagonal.json", {"experimental": RUNNING["experimental"],
                                           "observational": {"p_xyp": 0.1, "p_xpy": 0.2}})
        line = "PS          insufficient data (missing: p_xy, p_xpyp)"
        for command in (["epsident", "--minimal"], ["bounds"]):
            assert main([command[0], path, *command[1:]]) == 0
            assert line in capsys.readouterr().out.splitlines()

    def test_loose_env_tolerance_still_reports(self, write, monkeypatch, capsys):
        # sample_joint(7): under tol 0.05 pns and pn entries fire at eps 0.1
        # by the firing limit's slack; the scan reports them rather than failing
        data = {
            "experimental": {"p_y_do_x": 0.33276570045152665, "p_y_do_xp": 0.4458502169257787},
            "observational": {"p_xy": 0.1328482479126492, "p_xyp": 0.022516859215322253,
                              "p_xpy": 0.38564508022971833, "p_xpyp": 0.4589898126423101},
        }
        path = write("in.json", data)
        monkeypatch.setenv("EPSIDENT_TOLERANCE", "0.05")
        assert main(["epsident", path, "--eps", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "(tightest)" in captured.out
        assert captured.err == ""

    def test_incompatible_exits_3(self, write):
        path = write("bad.json", INCOMPATIBLE)
        assert main(["epsident", path, "--eps", "0.1"]) == 3

    def test_minimal_single_quantity(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["epsident", path, "--minimal", "--quantity", "pn"]) == 0
        assert capsys.readouterr().out == (
            "epsident report\n===============\nPN          eps* = 0.125, q* = 0.875\n"
        )

    def test_zero_denominator_is_undefined(self, write, capsys):
        path = write("zero.json", ZERO_PXY)
        assert main(["epsident", path, "--eps", "0.05"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PN: undefined: P(x,y) = 0, pn is undefined" in lines
        assert "PNS: 2 condition(s) fired, 0 not evaluated" in lines
        assert main(["epsident", path, "--minimal"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PN          undefined: P(x,y) = 0, pn is undefined" in lines
        assert "PS          eps* = 0.125, q* = 0.875" in lines
        assert main(["epsident", path, "--minimal", "--quantity", "pn", "--json"]) == 0
        assert parse_json(capsys.readouterr().out)["minimal"] == {
            "pn": {"status": "undefined", "reason": "P(x,y) = 0, pn is undefined"}
        }

    @pytest.mark.parametrize("data, extra, message", [
        (RUNNING, [], "confounder mode needs u_max (flag --u-max or input section)"),
        (CONFOUNDER_ONLY, ["--c", "abc"], "--c must be a number or 'auto', got 'abc'"),
        ({"confounder": {"u_max": 0.01}}, [],
         "confounder mode needs P(x) and P(y|x), from the confounder section or a full treated column"),
    ], ids=["no-u_max", "bad-c", "no-p_x"])
    def test_confounder_refusals(self, data, extra, message, write, capsys):
        path = write("conf.json", data)
        assert main(["epsident", path, "--eps", "0.05", "--confounder", *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_minimal_refuses_confounder_mode(self, write, capsys):
        path = write("conf.json", CONFOUNDER_ONLY)
        assert main(["epsident", path, "--minimal", "--confounder"]) == 2
        assert capsys.readouterr() == ("", "error: --minimal does not apply to --confounder mode\n")

    def test_every_command_prints_one_refusal(self, write, capsys):
        path = write("bad.json", INCOMPATIBLE)
        errs = []
        for extra in (["bounds"], ["epsident", "--eps", "0.1"], ["epsident", "--minimal"],
                      ["unit-select", "--payoffs", "1", "0", "0", "0"]):
            assert main([*extra, path]) == 3
            errs.append(capsys.readouterr().err)
        assert errs == [
            "incompatible: P(x,y) <= P(y_x) fails (0.4 > 0.3)\n"
            "incompatible: P(y'_x) <= 1 - P(x,y) fails (0.7 > 0.6)\n"
        ] * 4

    def test_nonpositive_eps_exits_2(self, write, capsys):
        path = write("running.json", RUNNING)
        for eps in ("0", "inf", "nan"):
            assert main(["epsident", path, "--eps", eps]) == 2
            assert "--eps must be positive and finite" in capsys.readouterr().err


class TestUnitSelect:
    def test_discount_scenario(self, write, capsys):
        path = write("table2.csv", TABLE2_CSV)
        code = main(
            ["unit-select", path, "--kind", "experimental",
             "--payoffs", "100", "-60", "0", "-140", "--json"]
        )
        assert code == 0
        report = parse_json(capsys.readouterr().out)
        assert report["benefit"]["q"] == pytest.approx(-12.0)
        assert report["benefit"]["eps"] == pytest.approx(10.0)
        assert report["benefit"]["sign"] == "negative"
        assert report["benefit"]["gain_residual"] == pytest.approx(20.0)
        assert report["recommendation"].startswith("do not offer")

    def test_gain_equality(self, write, capsys):
        path = write("table2.csv", TABLE2_CSV)
        code = main(
            ["unit-select", path, "--kind", "experimental",
             "--payoffs", "100", "-60", "0", "-160", "--json"]
        )
        assert code == 0
        report = parse_json(capsys.readouterr().out)
        assert report["benefit"]["eps"] == 0.0

    def test_zero_payoffs_indeterminate(self, write, capsys):
        path = write("table2.csv", TABLE2_CSV)
        code = main(
            ["unit-select", path, "--kind", "experimental",
             "--payoffs", "0", "0", "0", "0", "--json"]
        )
        assert code == 0
        report = parse_json(capsys.readouterr().out)
        assert report["benefit"]["sign"] == "indeterminate"

    def test_without_experimental_section_exits_2(self, write, capsys):
        path = write("obs.json", {"observational": RUNNING["observational"]})
        assert main(["unit-select", path, "--payoffs", "1", "2", "3", "4"]) == 2
        assert capsys.readouterr() == ("", "error: unit-select needs experimental data (both arms)\n")

    def test_missing_arm_exits_2(self, write):
        path = write("partial.json", {"experimental": {"p_y_do_x": 0.6}})
        assert main(["unit-select", path, "--payoffs", "1", "2", "3", "4"]) == 2

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_payoffs_exit_2(self, fmt, write, capsys):
        # finite payoffs whose benefit overflows a float: refused, not printed as inf/nan
        path = write("running.json", RUNNING)
        assert main(["unit-select", path, "--payoffs", "1e308", "0", "0", "1e308", *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the benefit overflows a float" in captured.err


class TestVerify:
    def test_running_passes(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "25", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "input-compatibility", "input-feasibility", "input-tightness",
            "input-eps-soundness", "sampled-tightness", "sampled-eps-soundness",
            "sampled-monotone",
        }

    def test_incompatible_reports_infeasible_and_exits_5(self, write, capsys):
        path = write("bad.json", INCOMPATIBLE)
        assert main(["verify", path, "--trials", "5", "--json"]) == 5
        report = parse_json(capsys.readouterr().out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["input-feasibility"]["passed"]
        assert "Infeasible" in by_name["input-feasibility"]["details"]

    def test_deterministic_across_runs(self, write, capsys):
        path = write("running.json", RUNNING)
        main(["verify", path, "--trials", "10", "--seed", "7", "--json"])
        first = capsys.readouterr().out
        main(["verify", path, "--trials", "10", "--seed", "7", "--json"])
        assert capsys.readouterr().out == first

    def test_confounder_sandwich_check(self, write, capsys):
        path = write("medicine.json", MEDICINE)
        assert main(["verify", path, "--trials", "5", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert "confounder-sandwich" in names

    def test_loose_env_tolerance_verifies_running(self, write):
        # under tol 0.05 a fired certificate misses the oracle range by at
        # most tol/2, inside the tol that the soundness checks allow
        path = write("running.json", RUNNING)
        result = subprocess.run(
            [sys.executable, "-m", "epsident.cli", "verify", path, "--trials", "20"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "EPSIDENT_TOLERANCE": "0.05"},
        )
        assert (result.returncode, result.stderr) == (0, ""), result.stdout

    def test_tiny_treated_share_is_accepted_by_both_commands(self, write, capsys):
        # P(x) = 1e-10 is positive: the certificate and the model range that
        # verify checks it against both accept it
        path = write("tiny.json", {"confounder": {"u_max": 0.0, "p_x": 1e-10, "p_y_given_x": 0.5}})
        assert main(["epsident", path, "--eps", "0.05", "--confounder", "--json"]) == 0
        section = parse_json(capsys.readouterr().out)["confounded"]
        assert section["general"]["q"] == 0.5
        assert section["simple"] == {"status": "requires P(x) >= 0.5"}
        assert main(["verify", path, "--trials", "0", "--json"]) == 0
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert by_name["confounder-sandwich"]["details"].startswith("model range [0.5, 0.5]")

    def test_confounder_without_margins_is_skipped(self, write, capsys):
        # no P(x) in the section and no joint: epsident --confounder refuses
        # the file, and verify says why it leaves the check out
        path = write("bare.json", {"experimental": RUNNING["experimental"],
                                   "confounder": {"u_max": 0.01}})
        assert main(["epsident", path, "--eps", "0.05", "--confounder"]) == 2
        capsys.readouterr()
        assert main(["verify", path, "--trials", "0", "--json"]) == 0
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert by_name["confounder-sandwich"] == {
            "name": "confounder-sandwich", "passed": True,
            "details": "skipped: no P(x) and P(y|x) in the confounder section or a full treated column"}

    def test_confounder_without_slack_is_skipped(self, write, capsys):
        # u_max = 0.2 >= P(x) = 0.15 leaves no slack constant c > 0
        data = {
            "experimental": {"p_y_do_x": 0.7, "p_y_do_xp": 0.3},
            "observational": {"p_xy": 0.1, "p_xyp": 0.05, "p_xpy": 0.25, "p_xpyp": 0.6},
            "confounder": {"u_max": 0.2},
        }
        path = write("heavy.json", data)
        assert main(["verify", path, "--trials", "0", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["confounder-sandwich"]["passed"]
        assert by_name["confounder-sandwich"]["details"].startswith("skipped")

    def test_zero_denominator_skips_pn(self, write, capsys):
        path = write("zero.json", ZERO_PXY)
        assert main(["verify", path, "--trials", "3", "--json"]) == 0
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert by_name["input-tightness"]["passed"]
        assert by_name["input-tightness"]["details"].startswith("pns err ")
        assert ", ps err " in by_name["input-tightness"]["details"]
        assert "pn err" not in by_name["input-tightness"]["details"]
        assert by_name["input-eps-soundness"] == {
            "name": "input-eps-soundness", "passed": True,
            "details": "27 fired identifications contained the oracle range",
        }

    def test_confounder_only_input_has_no_polytope(self, write, capsys):
        path = write("conf.json", CONFOUNDER_ONLY)
        assert main(["verify", path, "--trials", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith(("PASS input-feasibility", "FAIL input-")) for line in lines)
        assert "PASS input-compatibility: 0 checks passed, 8 not evaluated" in lines
        assert ("PASS confounder-sandwich: model range [0.6138, 0.6238] inside the sandwich "
                "for 8 slack values") in lines
        assert lines[-1] == "overall: PASS"

    def test_negative_trials_exits_2(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert captured.out == ""

    def test_negative_seed_exits_2(self, write, capsys):
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "2", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative\n"
        assert captured.out == ""

    def test_detects_widened_closed_form_bounds(self, write, capsys, monkeypatch):
        original = bounds.tight_interval

        def widened(evaluated):
            tight = original(evaluated)
            return Interval(tight.lo - 0.1, tight.hi + 0.1)

        monkeypatch.setattr(bounds, "tight_interval", widened)
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "3", "--json"]) == 5
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert not by_name["input-tightness"]["passed"]
        assert not by_name["sampled-tightness"]["passed"]
        # three joints, each with pns, pn and ps ranged
        assert by_name["sampled-tightness"]["details"] == (
            "9 of 9 target ranges missed the oracle by more than 1e-06, worst 1.00e-01"
        )

    def test_detects_shifted_certificates(self, write, capsys, monkeypatch):
        _shift_certificates(monkeypatch)
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "3", "--json"]) == 5
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert not by_name["input-eps-soundness"]["passed"]
        assert not by_name["sampled-eps-soundness"]["passed"]
        assert by_name["input-tightness"]["passed"]

    def test_failing_sampled_checks_count_failures(self, write, capsys, monkeypatch):
        _shift_certificates(monkeypatch)
        original = bounds.identify_monotone

        def shifted(exp, obs):
            return dataclasses.replace(original(exp, obs), pns=2.0)

        monkeypatch.setattr(bounds, "identify_monotone", shifted)
        path = write("running.json", RUNNING)
        assert main(["verify", path, "--trials", "3", "--json"]) == 5
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert re.fullmatch(
            r"\d+ of \d+ fired identifications missed the oracle range",
            by_name["sampled-eps-soundness"]["details"],
        )
        assert by_name["sampled-monotone"]["details"] == (
            "3 of 3 defier-free joints miss the closed monotone formulas by more than 1e-9"
        )

        incompatible = distributions.CompatibilityReport(
            [distributions.Violation("P(x,y) <= P(y_x)", 0.5, 0.4)], []
        )
        monkeypatch.setattr(cli, "check_compatibility", lambda exp, obs: incompatible)
        assert main(["verify", path, "--trials", "3", "--json"]) == 5
        by_name = {c["name"]: c for c in parse_json(capsys.readouterr().out)["checks"]}
        assert by_name["sampled-compatibility"]["details"] == "3 of 3 induced pairs incompatible"


def _shift_certificates(monkeypatch):
    """Move every fired target certificate 0.5 off its center."""
    original = engine.eps_identify

    def shifted(*args, **kwargs):
        report = original(*args, **kwargs)
        fired = tuple(dataclasses.replace(ident, q=ident.q + 0.5) for ident in report.fired)
        return dataclasses.replace(report, fired=fired)

    monkeypatch.setattr(engine, "eps_identify", shifted)


def _count_calls(monkeypatch, modules, name):
    """Wrap ``name`` in every module that binds it; returns the call list."""
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            original = getattr(mod, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
    return calls


class TestRepeatedWork:
    def test_verify_enumerates_each_polytope_once(self, write, capsys, monkeypatch):
        # effect identifications fire at several radii, yet the polytope
        # with and without the experimental atoms is enumerated once each
        data = {
            "experimental": {"p_y_do_x": 0.7, "p_y_do_xp": 0.47},
            "observational": {"p_xy": 0.03, "p_xyp": 0.02, "p_xpy": 0.45, "p_xpyp": 0.5},
        }
        path = write("effects.json", data)
        calls = _count_calls(monkeypatch, [oracle], "feasible_vertices")
        assert main(["verify", path, "--trials", "0", "--json"]) == 0
        report = parse_json(capsys.readouterr().out)
        soundness = {c["name"]: c for c in report["checks"]}["input-eps-soundness"]
        assert soundness["passed"]
        assert len(calls) == 2

    @pytest.mark.parametrize("trials, ranges", [(0, 7), (10, 37)])
    def test_verify_ranges_each_quantity_once(self, trials, ranges, write, capsys, monkeypatch):
        # 3 targets and 4 fired effects on the input, then 3 targets per joint
        path = write("running.json", RUNNING)
        calls = _count_calls(monkeypatch, [oracle], "feasible_range")
        assert main(["verify", path, "--trials", str(trials)]) == 0
        assert len(calls) == ranges

    def test_bounds_evaluates_each_target_once(self, write, capsys, monkeypatch):
        path = write("running.json", RUNNING)
        arguments = _count_calls(monkeypatch, [bounds], "bound_arguments")
        compat = _count_calls(monkeypatch, [distributions, bounds, cli], "check_compatibility")
        assert main(["bounds", path, "--json"]) == 0
        assert [args[0] for args in arguments] == ["pns", "pn", "ps"]
        assert len(compat) == 1

    def test_scan_checks_compatibility_once(self, monkeypatch):
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        calls = _count_calls(monkeypatch, [distributions, bounds, engine], "check_compatibility")
        assert eps_identify_pns(exp, obs, eps=0.15).fired
        assert len(calls) == 1

    def test_sweep_profiles_each_target_once(self, monkeypatch):
        # one range build and one compatibility check for the dataset,
        # however many targets and radii are asked
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        ranges = _count_calls(monkeypatch, [engine], "QuantityRanges")
        compat = _count_calls(monkeypatch, [distributions, bounds, engine], "check_compatibility")
        for eps in cli.EPS_SWEEP:
            for name in ("pns", "pn", "ps"):
                engine.eps_identify(name, exp, obs, eps)
        assert len(ranges) == 1
        assert len(compat) == 1

    def test_bounds_and_minimal_radius_evaluate_once(self, monkeypatch):
        # the minimal radius reads the tight bounds the bounds call computed
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        arguments = _count_calls(monkeypatch, [bounds], "bound_arguments")
        interval = bounds.pns_bounds(exp, obs)
        assert engine.minimal_epsilon("pns", exp, obs) == (
            interval.width / 2.0, interval.midpoint)
        assert len(arguments) == 1

    def test_cached_compatibility_follows_the_tolerance(self, monkeypatch):
        # P(x,y) exceeds P(y_x) by 0.02: refused at the default tolerance,
        # accepted at 0.05, and refused again, on every call, once restored
        exp = ExperimentalDistribution(0.38, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        compat = _count_calls(monkeypatch, [distributions, bounds, engine], "check_compatibility")

        def refused() -> None:
            for _ in range(2):
                with pytest.raises(Incompatible):
                    bounds.pns_bounds(exp, obs)
                with pytest.raises(Incompatible):
                    engine.eps_identify("pns", exp, obs, 0.1)
                with pytest.raises(Incompatible):
                    bounds.refuse_incompatible(exp, obs)

        before = get_tolerance()
        refused()
        try:
            set_tolerance(0.05)
            bounds.refuse_incompatible(exp, obs)
            assert isinstance(bounds.pns_bounds(exp, obs), Interval)
            assert engine.eps_identify("pns", exp, obs, 0.1).quantity == "pns"
        finally:
            set_tolerance(before)
        refused()
        # one check per tolerance: the second refusal reads the first's result
        assert len(compat) == 2

    def test_sweep_reads_each_data_pattern_once(self, monkeypatch):
        # pns, pn and ps share one dataset's pattern of informative and exact
        # quantities: informative is read once per quantity, not per target
        exp = ExperimentalDistribution(0.7, 0.3)
        obs = ObservationalDistribution(0.4, 0.1, 0.2, 0.3)
        informative = _count_calls(monkeypatch, [QuantityRanges], "informative")
        for eps in cli.EPS_SWEEP:
            for name in ("pns", "pn", "ps"):
                engine.eps_identify(name, exp, obs, eps)
        assert len(informative) == len(QUANTITIES)

    @pytest.mark.parametrize("form", ["full", "partial"])
    def test_sweep_plans_each_pattern_once(self, form):
        # which entries a dataset evaluates depends only on its pattern of
        # informative and exact quantities, so 50 full joints share one plan
        # per target; partial joints need one per (target, pattern)
        patterns = set()
        for seed in range(50):
            scenario = sample_joint(seed)
            exp, obs = scenario.experimental, scenario.observational
            if form == "partial":
                kept = [c for i, c in enumerate(obs.__slots__) if i != seed % 4 and i != seed % 3]
                obs = ObservationalDistribution(**{c: obs.cell(c) for c in kept})
            ranges = QuantityRanges(exp, obs)
            pattern = tuple((ranges.informative(n), ranges.exact(n) is not None) for n in QUANTITIES)
            for name in ("pns", "pn", "ps"):
                try:
                    for eps in cli.EPS_SWEEP:
                        engine.eps_identify(name, exp, obs, eps)
                except EpsidentError:
                    continue
                patterns.add((name, pattern))
        assert engine._plan.cache_info().misses == len(patterns)
        if form == "full":
            assert len(patterns) == 3
        else:
            assert len(patterns) > 3


RENDER_SHAPES = {
    "bounds": ["bounds"],
    "bounds-force": ["bounds", "--force"],
    "eps": ["epsident", "--eps", "0.05"],
    "minimal": ["epsident", "--minimal"],
    "unit-select": ["unit-select", "--payoffs", "100", "-60", "0", "-140"],
    "verify": ["verify", "--trials", "2"],
    "confounder": ["epsident", "--eps", "0.025", "--confounder"],
    "confounder-pns": ["epsident", "--eps", "0.05", "--confounder", "--c", "auto",
                       "--quantity", "pns"],
}
RENDER_CASES = [
    (fixture, shape)
    for fixture in ("running", "medicine", "flu", "partial")
    for shape in RENDER_SHAPES
    # unit-select needs both experimental arms, --confounder a confounder section
    if not (shape == "unit-select" and fixture in ("medicine", "flu"))
    and (fixture == "medicine" or not shape.startswith("confounder"))
]


class TestRenderers:
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("fixture, shape", RENDER_CASES, ids=[f"{f}-{s}" for f, s in RENDER_CASES])
    def test_output_is_a_pure_function_of_the_report(self, fixture, shape, fmt, write, capsys):
        # the command builds the report without printing; main writes the
        # renderer's reading of that dict, and the renderer leaves it intact
        data = {"running": RUNNING, "medicine": MEDICINE, "flu": FLU, "partial": PARTIAL}[fixture]
        command, *extra = RENDER_SHAPES[shape]
        argv = [command, write(f"{fixture}.json", data), *extra, *fmt]
        args = cli.build_parser().parse_args(argv)
        report = args.fn(args)
        assert capsys.readouterr().out == ""
        rendered = copy.deepcopy(report)
        text = "\n".join(args.text(rendered, args)) + "\n"
        assert rendered == report
        assert main(argv) == (0 if report.get("passed", True) else 5)
        assert capsys.readouterr().out == (render_json(report) if fmt else text)


class TestReportContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "{running}", "--json"],
            ["epsident", "{running}", "--eps", "0.2", "--json"],
            ["epsident", "{medicine}", "--eps", "0.025", "--confounder", "--json"],
            ["unit-select", "{table2}", "--kind", "experimental",
             "--payoffs", "100", "-60", "0", "-140", "--json"],
            ["verify", "{running}", "--trials", "5", "--json"],
        ],
    )
    def test_json_round_trip_byte_identical(self, argv, write, capsys):
        paths = {
            "running": write("running.json", RUNNING),
            "medicine": write("medicine.json", MEDICINE),
            "table2": write("table2.csv", TABLE2_CSV),
        }
        argv = [a.format(**paths) for a in argv]
        assert main(argv) in (0,)
        out = capsys.readouterr().out
        assert render_json(parse_json(out)) == out

    def test_env_tolerance_override(self, write, monkeypatch, capsys):
        # a hair-width violation fails at the default tolerance and passes
        # with a looser one from the environment
        data = {
            "experimental": {"p_y_do_x": 0.4 - 1e-7, "p_y_do_xp": 0.3},
            "observational": {"p_xy": 0.4, "p_xyp": 0.1, "p_xpy": 0.2, "p_xpyp": 0.3},
        }
        path = write("edge.json", data)
        assert main(["bounds", path]) == 3
        capsys.readouterr()
        monkeypatch.setenv("EPSIDENT_TOLERANCE", "1e-6")
        assert main(["bounds", path]) == 0
