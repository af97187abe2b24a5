"""Command-line front end.

Subcommands:

* ``bounds``       tight bounds for every computable quantity
* ``epsident``     near-point identification at a given radius, or the
                   minimal certifiable radius per quantity
* ``unit-select``  benefit-function identification and sign decision
* ``verify``       oracle cross-checks on the input and on sampled models

Each ``cmd_*`` maps the parsed arguments to its report dict, or raises to
refuse; ``main`` alone writes the report, as canonical JSON under ``--json``
or else through the command's text renderer.

Inputs are either the JSON schema (see :func:`epsident.parse_input_json`)
or an ``arm,outcome,count`` CSV (with ``--kind``).  Exit codes: 0 success,
2 parse/input error, 3 incompatible data without --force, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import confounded as conf_mod
from . import engine as engine_mod
from .catalog import TARGETS
from .config import apply_env_tolerance, get_tolerance
from .distributions import (
    EpsIdentification,
    ExperimentalDistribution,
    InputData,
    check_compatibility,
    from_counts,
    parse_counts_csv,
    parse_input_json,
)
from .errors import (
    EpsidentError,
    Incompatible,
    Infeasible,
    InvalidDistribution,
    MissingData,
    ParseError,
    Unsupported,
    ZeroDenominator,
)
from .forms import QUANTITIES
from .report import render_json
from .unitselect import BenefitVector, eps_identify_benefit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_VERIFY_FAILED = 5

DEFAULT_SEED = 20250809
EPS_SWEEP = (0.01, 0.05, 0.1, 0.25)
TIGHTNESS_TOL = 1e-6  # closed-form vs oracle endpoint error that verify accepts
SCAN_QUANTITIES = tuple(TARGETS)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_input(path: str, kind: str | None) -> InputData:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        if kind is None:
            raise ParseError("counts CSV input requires --kind experimental|observational")
        dist = from_counts(parse_counts_csv(text, kind))
        if isinstance(dist, ExperimentalDistribution):
            return InputData(experimental=dist)
        return InputData(observational=dist)
    try:
        obj = json.loads(text)
    # JSONDecodeError, an integer past int_max_str_digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_input_json(obj)


def _ident_dict(result) -> dict:
    if isinstance(result, EpsIdentification):
        return {"identified": True, **result.to_json_dict()}
    return {
        "identified": False,
        "quantity": result.quantity,
        "condition": result.condition.to_json_dict(),
        "margin": result.margin,
    }


def _unavailable(exc: MissingData | ZeroDenominator) -> dict:
    """The entry of a quantity that the data cannot range."""
    if isinstance(exc, MissingData):
        return {"status": "insufficient data", "missing": sorted(exc.missing, key=QUANTITIES.index)}
    return {"status": "undefined", "reason": str(exc)}


def _status_line(label: str, entry: dict) -> str:
    """The text line of a ``bounds`` or ``epsident --minimal`` entry."""
    if "lo" in entry:
        return f"{label:11s} in [{entry['lo']:.6g}, {entry['hi']:.6g}]"
    if "eps_star" in entry:
        return f"{label:11s} eps* = {entry['eps_star']:.6g}, q* = {entry['q_star']:.6g}"
    if entry["status"] == "insufficient data":
        return f"{label:11s} insufficient data (missing: {', '.join(entry['missing'])})"
    return f"{label:11s} {entry['status']}: {entry['reason']}"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> dict:
    data = _load_input(args.input, args.kind)
    compat = check_compatibility(data.experimental, data.observational)
    if compat.violations and not args.force:
        raise Incompatible(compat.violations)

    warnings = [f"incompatible: {v}" for v in compat.violations]
    effects = {}
    for variant in bounds_mod.EFFECT_VARIANTS:
        try:
            interval = bounds_mod.effect_bounds(data.observational, variant)
            effects[variant] = {"lo": interval.lo, "hi": interval.hi}
        except MissingData as exc:
            effects[variant] = _unavailable(exc)

    quantities = {}
    for name in SCAN_QUANTITIES:
        try:
            arguments = bounds_mod.bound_arguments(name, data.experimental, data.observational)
        except (MissingData, ZeroDenominator) as exc:
            quantities[name] = _unavailable(exc)
            continue
        if compat.violations:
            quantities[name] = {"status": "refused", "reason": "incompatible data"}
            continue
        interval = bounds_mod.tight_interval(arguments)
        for a in arguments:
            if a.value < -get_tolerance() or a.value > 1.0 + get_tolerance():
                warnings.append(
                    f"{name}: argument {a.label} = {a.value:.6g} clamped by the constant bound"
                )
        quantities[name] = {
            "lo": interval.lo,
            "hi": interval.hi,
            "arguments": [
                {"name": a.name, "side": a.side, "label": a.label, "value": a.value}
                for a in arguments
            ],
        }

    return {
        "command": "bounds",
        "inputs": data.to_json_dict(),
        "compatibility": compat.to_json_dict(),
        "warnings": warnings,
        "bounds": {"effects": effects, **quantities},
    }


def _bounds_text(report: dict, args) -> list[str]:
    quantities = dict(report["bounds"])
    entries = {**quantities.pop("effects"), **quantities}
    return [
        "bounds report", "=============",
        *(f"warning: {w}" for w in report["warnings"]),
        *(_status_line(engine_mod.QUANTITY_DISPLAY[name], entry) for name, entry in entries.items()),
    ]


# ---------------------------------------------------------------------------
# epsident
# ---------------------------------------------------------------------------


def _confounder_margins(conf, obs) -> tuple[float | None, float | None]:
    """P(x) and P(y|x) from the confounder section, else from the joint."""
    p_x = conf.p_x if conf is not None else None
    p_ygx = conf.p_y_given_x if conf is not None else None
    if p_x is None and obs is not None:
        p_x = obs.p_x
    if p_ygx is None and obs is not None:
        p_ygx = obs.p_y_given_x
    return p_x, p_ygx


def _confounder_inputs(data: InputData, args):
    conf = data.confounder
    u_max = args.u_max if args.u_max is not None else (conf.u_max if conf else None)
    if u_max is None:
        raise ParseError("confounder mode needs u_max (flag --u-max or input section)")
    c = conf.c if conf else None
    if args.c == "auto":
        c = None
    elif args.c is not None:
        try:
            c = float(args.c)
        except ValueError as exc:
            raise ParseError(f"--c must be a number or 'auto', got {args.c!r}") from exc
    p_x, p_ygx = _confounder_margins(conf, data.observational)
    if p_x is None or p_ygx is None:
        raise ParseError("confounder mode needs P(x) and P(y|x), from the confounder section or a full treated column")
    return conf_mod.ConfoundedEffectInput(p_y_given_x=p_ygx, p_x=p_x, u_max=u_max, c=c)


def cmd_epsident(args) -> dict:
    data = _load_input(args.input, args.kind)
    report: dict = {"command": "epsident", "inputs": data.to_json_dict(), "warnings": []}

    run_scans = args.quantity is not None or not args.confounder
    selected = args.quantity or "all"

    if args.confounder:
        if args.minimal:
            raise ParseError("--minimal does not apply to --confounder mode")
        inp = _confounder_inputs(data, args)
        general = _ident_dict(conf_mod.eps_identify_effect_confounded(inp, args.eps))
        try:  # inp and eps are valid, so the route refuses only P(x) < 1/2
            simple = _ident_dict(conf_mod.eps_identify_effect_confounded_simple(
                inp.p_y_given_x, inp.p_x, inp.u_max, args.eps))
        except InvalidDistribution:
            simple = {"status": "requires P(x) >= 0.5"}
        report["confounded"] = {
            "inputs": {"p_y_given_x": inp.p_y_given_x, "p_x": inp.p_x, "u_max": inp.u_max,
                       "c": inp.c if inp.c is not None else "auto"},
            "general": general,
            "simple": simple,
        }

    if run_scans:
        if args.minimal:
            report["minimal"] = {}
            for name in SCAN_QUANTITIES + tuple(bounds_mod.EFFECT_VARIANTS):
                if selected not in ("all", name) and not (selected == "effect" and name in bounds_mod.EFFECT_VARIANTS):
                    continue
                try:
                    eps_star, q_star = engine_mod.minimal_epsilon(
                        name, data.experimental, data.observational
                    )
                    report["minimal"][name] = {"eps_star": eps_star, "q_star": q_star}
                except (MissingData, ZeroDenominator) as exc:
                    report["minimal"][name] = _unavailable(exc)
        else:
            report["eps"] = args.eps
            report["eps_reports"] = {}
            for name in SCAN_QUANTITIES:
                if selected not in ("all", name):
                    continue
                try:
                    result = engine_mod.eps_identify(
                        name, data.experimental, data.observational, args.eps, data.assumptions
                    )
                    report["eps_reports"][name] = result.to_json_dict()
                except ZeroDenominator as exc:
                    report["eps_reports"][name] = _unavailable(exc)
            if selected in ("all", "effect"):
                scan = engine_mod.eps_identify_effects(
                    args.eps, data.observational, data.assumptions
                )
                report["effects"] = {
                    "results": {v: _ident_dict(r) for v, r in scan.results.items()},
                    "skipped": {v: list(m) for v, m in scan.skipped.items()},
                }
    return report


def _epsident_text(report: dict, args) -> list[str]:
    lines = ["epsident report", "==============="]
    section = report.get("confounded")
    if section is not None:
        lines.append(_ident_text("P(y_x) [confounded]", section["general"], args.eps))
        if "identified" in section["simple"]:
            lines.append(_ident_text("P(y_x) [confounded, simple]", section["simple"], args.eps))
    for name, entry in report.get("minimal", {}).items():
        lines.append(_status_line(engine_mod.QUANTITY_DISPLAY[name], entry))
    for name, entry in report.get("eps_reports", {}).items():
        label = engine_mod.QUANTITY_DISPLAY[name]
        if "status" in entry:
            lines.append(f"{label}: {entry['status']}: {entry['reason']}")
            continue
        lines.append(f"{label}: {len(entry['fired'])} condition(s) fired, "
                     f"{len(entry['not_evaluated'])} not evaluated")
        tightest = entry["tightest"] and entry["tightest"]["condition"]["entry_id"]
        for ident in entry["fired"]:
            cond = ident["condition"]
            mark = " (tightest)" if cond["entry_id"] == tightest else ""
            lines.append(f"  {cond['entry_id']}: q = {ident['q']:.6g} +- {ident['eps']:g}"
                         f"  [{cond['center']}; {cond['premise']}]{mark}")
    effects = report.get("effects", {"results": {}, "skipped": {}})
    for variant, entry in effects["results"].items():
        lines.append(_ident_text(bounds_mod.EFFECT_LABELS[variant], entry, args.eps))
    for variant, missing in effects["skipped"].items():
        lines.append(f"{bounds_mod.EFFECT_LABELS[variant]}: not evaluated (missing {', '.join(missing)})")
    return lines


def _ident_text(label: str, entry: dict, eps: float) -> str:
    """``eps`` is the command's radius: a confounder-only report records none."""
    cond = entry["condition"]
    if entry["identified"]:
        return (f"{label}: identified to q = {entry['q']:.6g} within eps = {eps:g}"
                f"  [{cond['center']}; fired: {cond['premise']}]")
    return (f"{label}: not identified at eps = {eps:g}"
            f"  [{cond['premise']} fails by {entry['margin']:.6g}]")


# ---------------------------------------------------------------------------
# unit-select
# ---------------------------------------------------------------------------

_RECOMMENDATIONS = {
    "positive": "offer the treatment to the selected subpopulation",
    "negative": "do not offer the treatment to the selected subpopulation",
    "indeterminate": "sign indeterminate; observational data could narrow the benefit",
}


def cmd_unit_select(args) -> dict:
    data = _load_input(args.input, args.kind)
    bounds_mod.refuse_incompatible(data.experimental, data.observational)
    beta, gamma, theta, delta = args.payoffs
    payoffs = BenefitVector(beta, gamma, theta, delta)
    if data.experimental is None:
        raise ParseError("unit-select needs experimental data (both arms)")
    result = eps_identify_benefit(payoffs, data.experimental)
    return {
        "command": "unit-select",
        "inputs": data.to_json_dict(),
        "payoffs": {"beta": beta, "gamma": gamma, "theta": theta, "delta": delta},
        "benefit": result.to_json_dict(),
        "recommendation": _RECOMMENDATIONS[result.sign],
        "warnings": [],
    }


def _unit_select_text(report: dict, args) -> list[str]:
    benefit = report["benefit"]
    lo, hi = benefit["certified"]
    return [
        "unit selection report",
        "=====================",
        f"benefit identified to q = {benefit['q']:.6g} within eps = {benefit['eps']:.6g}",
        f"certified range: [{lo:.6g}, {hi:.6g}]",
        f"gain-equality residual (beta - gamma - theta + delta): {benefit['gain_residual']:.6g}",
        f"sign: {benefit['sign']}",
        f"recommendation: {report['recommendation']}",
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _oracle_ranges(exp, obs, assume, vertices):
    """The oracle range of each quantity on one dataset, computed once on
    first use: targets over the polytope ``vertices``, effects over the
    polytope without the experimental atoms; None where the oracle cannot
    range the quantity."""
    from . import oracle as oracle_mod

    @functools.cache
    def effect_vertices():
        """Vertices of the polytope without the experimental atoms, which the
        effect conditions ignore; None when no model or no atom remains."""
        try:
            return oracle_mod.feasible_vertices(None, obs, assume)
        except (Infeasible, MissingData):
            return None

    @functools.cache
    def oracle_range(quantity: str):
        if quantity in TARGETS:
            try:
                return oracle_mod.feasible_range(quantity, exp, obs, vertices=vertices)
            except (ZeroDenominator, Unsupported):
                return None
        verts = effect_vertices()
        return None if verts is None else oracle_mod.feasible_range(quantity, None, obs, vertices=verts)

    return oracle_range


def _tightness(exp, obs, oracle_range) -> dict[str, float]:
    """Closed-form vs oracle error of each target's tight bounds, on full
    compatible data; targets the oracle cannot range are left out."""
    errors = {}
    for name in SCAN_QUANTITIES:
        interval = oracle_range(name)
        if interval is None:
            continue
        closed = bounds_mod.tight_interval(bounds_mod.bound_arguments(name, exp, obs))
        errors[name] = max(abs(closed.lo - interval.lo), abs(closed.hi - interval.hi))
    return errors


def _eps_soundness(exp, obs, assume, oracle_range, effects: bool) -> tuple[int, list[str]]:
    """Check each identification the eps sweep fires against the oracle range.

    Returns how many were checked and the labels of those whose certified
    interval misses the range; ``effects`` adds the effect scan.
    """
    checked, failures = 0, []
    for eps in EPS_SWEEP:
        fired = []
        for name in SCAN_QUANTITIES:
            try:
                result = engine_mod.eps_identify(name, exp, obs, eps, assume)
            except ZeroDenominator:
                continue
            fired += [(name, ident) for ident in result.fired]
        if effects:
            scan = engine_mod.eps_identify_effects(eps, obs, assume)
            fired += [(v, r) for v, r in scan.results.items() if isinstance(r, EpsIdentification)]
        for quantity, ident in fired:
            interval = oracle_range(quantity)
            if interval is None:
                continue
            checked += 1
            if not ident.certified.contains_interval(interval):
                failures.append(f"{ident.condition.entry_id}@eps={eps}")
    return checked, failures


def cmd_verify(args) -> dict:
    from . import oracle as oracle_mod  # only verify runs the oracle, and so loads numpy

    data = _load_input(args.input, args.kind)
    checks: list[dict] = []

    def add(name: str, passed: bool, details: str) -> None:
        checks.append({"name": name, "passed": passed, "details": details})

    exp, obs, assume = data.experimental, data.observational, data.assumptions

    compat = check_compatibility(exp, obs)
    add(
        "input-compatibility",
        not compat.violations,
        "; ".join(str(v) for v in compat.violations)
        or f"{8 - len(compat.not_evaluated)} checks passed, {len(compat.not_evaluated)} not evaluated",
    )

    vertices = None
    try:
        vertices = oracle_mod.feasible_vertices(exp, obs, assume)
        add("input-feasibility", True, f"{len(vertices)} polytope vertices")
    except Infeasible as exc:
        add("input-feasibility", False, f"Infeasible: {exc}")
    except MissingData:
        pass  # no data atom, so no polytope to check against

    if vertices is not None:
        oracle_range = _oracle_ranges(exp, obs, assume, vertices)
        if exp is not None and obs is not None and exp.is_complete and obs.is_complete:
            errors = {} if compat.violations else _tightness(exp, obs, oracle_range)
            add("input-tightness", max(errors.values(), default=0.0) <= TIGHTNESS_TOL,
                ", ".join(f"{name} err {err:.2e}" for name, err in errors.items())
                or "skipped (refused)")
        if not compat.violations:
            checked, failures = _eps_soundness(exp, obs, assume, oracle_range, effects=True)
            add(
                "input-eps-soundness",
                not failures,
                f"{checked} fired identifications contained the oracle range"
                if not failures else "violations: " + ", ".join(failures),
            )

    rng_base = args.seed
    n = args.trials
    tight_err = 0.0
    tight_fail = sound_fail = mono_fail = compat_fail = 0
    n_sound = n_tight = 0
    for i in range(n):
        scenario = oracle_mod.sample_joint(rng_base + i)
        s_exp, s_obs = scenario.experimental, scenario.observational
        if check_compatibility(s_exp, s_obs).violations:
            compat_fail += 1
            continue
        oracle_range = _oracle_ranges(s_exp, s_obs, None, oracle_mod.feasible_vertices(s_exp, s_obs))
        errors = _tightness(s_exp, s_obs, oracle_range)
        tight_err = max([tight_err, *errors.values()])
        tight_fail += sum(err > TIGHTNESS_TOL for err in errors.values())
        n_tight += len(errors)
        checked, failures = _eps_soundness(s_exp, s_obs, None, oracle_range, effects=False)
        n_sound += checked
        sound_fail += len(failures)
    add("sampled-compatibility", compat_fail == 0,
        f"{n} induced pairs compatible" if not compat_fail
        else f"{compat_fail} of {n} induced pairs incompatible")
    add("sampled-tightness", tight_fail == 0,
        f"{n} joints, worst closed-form vs oracle error {tight_err:.2e}" if not tight_fail
        else f"{tight_fail} of {n_tight} target ranges missed the oracle by more than "
             f"{TIGHTNESS_TOL:.0e}, worst {tight_err:.2e}")
    add("sampled-eps-soundness", sound_fail == 0,
        f"{n_sound} fired identifications contained the oracle range" if not sound_fail
        else f"{sound_fail} of {n_sound} fired identifications missed the oracle range")

    for i in range(n):
        scenario = oracle_mod.sample_joint(rng_base + 7_000_000 + i, defier_free=True)
        try:
            ident = bounds_mod.identify_monotone(scenario.experimental, scenario.observational)
        except ZeroDenominator:
            continue
        joint = scenario.joint
        if (abs(ident.pns - joint.pns()) > 1e-9 or abs(ident.pn - joint.pn()) > 1e-9
                or abs(ident.ps - joint.ps()) > 1e-9):
            mono_fail += 1
    add("sampled-monotone", mono_fail == 0,
        f"{n} defier-free joints match the closed monotone formulas within 1e-9" if not mono_fail
        else f"{mono_fail} of {n} defier-free joints miss the closed monotone formulas by more than 1e-9")

    if data.confounder is not None:
        p_x, p_ygx = _confounder_margins(data.confounder, obs)
        u_max = data.confounder.u_max
        if p_x is None or p_ygx is None:
            add("confounder-sandwich", True,
                "skipped: no P(x) and P(y|x) in the confounder section or a full treated column")
        elif p_x <= u_max:
            add("confounder-sandwich", True, "skipped: u_max >= P(x) leaves no slack constant")
        else:
            model_range = conf_mod.confounded_effect_range(p_x, p_ygx, u_max)
            c_values = [(p_x - u_max) * k / 8 for k in range(1, 9)]
            bad = [
                f"c={c:.4g}"
                for c in c_values
                if not conf_mod.effect_sandwich(p_ygx, p_x, u_max, c).contains_interval(model_range)
            ]
            add("confounder-sandwich", not bad,
                f"model range {model_range} inside the sandwich for {len(c_values)} slack values"
                if not bad else "violations at " + ", ".join(bad))

    return {
        "command": "verify",
        "inputs": data.to_json_dict(),
        "seed": rng_base,
        "trials": n,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _verify_text(report: dict, args) -> list[str]:
    return [
        "verification report", "===================",
        *(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['details']}" for c in report["checks"]),
        f"overall: {'PASS' if report['passed'] else 'FAIL'}",
    ]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsident",
        description="Tight bounds and near-point identification for binary causal queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="JSON input file, or counts CSV with --kind")
        p.add_argument("--kind", choices=("experimental", "observational"),
                       help="distribution kind for counts CSV inputs")
        p.add_argument("--json", action="store_true", help="emit the canonical JSON report")

    p = sub.add_parser("bounds", help="tight bounds for all computable quantities")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="report despite incompatible data (refused quantities are flagged)")
    p.set_defaults(fn=cmd_bounds, text=_bounds_text)

    p = sub.add_parser("epsident", help="near-point identification")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, help="identification radius")
    group.add_argument("--minimal", action="store_true",
                       help="report the minimal certifiable radius per quantity")
    p.add_argument("--quantity", choices=SCAN_QUANTITIES + ("effect", "all"),
                   help="restrict to one quantity (default: all)")
    p.add_argument("--confounder", action="store_true",
                   help="identify P(y_x) on the single-binary-confounder graph")
    p.add_argument("--u-max", type=float, dest="u_max",
                   help="upper bound on the confounder mass P(u)")
    p.add_argument("--c", help="slack constant for --confounder (number or 'auto')")
    p.set_defaults(fn=cmd_epsident, text=_epsident_text)

    p = sub.add_parser("unit-select", help="benefit-function identification and sign")
    common(p)
    p.add_argument("--payoffs", type=float, nargs=4, required=True,
                   metavar=("BETA", "GAMMA", "THETA", "DELTA"),
                   help="payoffs for complier, always-taker, never-taker, defier")
    p.set_defaults(fn=cmd_unit_select, text=_unit_select_text)

    p = sub.add_parser("verify", help="oracle cross-checks")
    common(p)
    p.add_argument("--trials", type=int, default=200, help="sampled joints per property")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed for sampling")
    p.set_defaults(fn=cmd_verify, text=_verify_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        apply_env_tolerance()
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eps", None) is not None and not 0 < args.eps < math.inf:
        return _fail("--eps must be positive and finite", EXIT_PARSE)
    if getattr(args, "trials", 0) < 0:
        return _fail("--trials must be non-negative", EXIT_PARSE)
    if getattr(args, "seed", 0) < 0:
        return _fail("--seed must be non-negative", EXIT_PARSE)
    try:
        report = args.fn(args)
        out = render_json(report) if args.json else "\n".join(args.text(report, args)) + "\n"
    except Incompatible as exc:
        for v in exc.violations:
            print(f"incompatible: {v}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except EpsidentError as exc:  # ParseError, InvalidDistribution, MissingData, ...
        return _fail(str(exc), EXIT_PARSE)
    sys.stdout.write(out)
    return EXIT_OK if report.get("passed", True) else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
