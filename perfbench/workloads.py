"""The operations of the three workloads.

The in-process workloads call the program only through a :class:`Layers`
table of its public functions, named ``<module>.<function>``.  In a traced
run every entry of the table records a span per call, so each layer is timed
from outside, around the benchmark's own calls into it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

from studies import ATOM_CELLS, EFFECTS, MARGINAL_BOUNDS, MARGINAL_CELLS

EPS_SWEEP = (0.01, 0.05, 0.1, 0.25)  # the sweep of ``epsident verify``
CONFOUNDED_EPS = 0.1
CONFOUNDED_GRID_STEP = 1e-3  # the grid step of ``epsident verify``
SCAN_QUANTITIES = ("pns", "pn", "ps")
COUNT_ROUNDS = 20  # traced counts cover this many leading rounds, so they are exact per seed
CLI_TIMEOUT_S = 60


class Trace:
    """Spans and counts of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []  # name, op, start_ns, duration_ns
        self.op = 0
        self.counting = False
        self.counts: Counter = Counter()
        self.cli: dict[str, float] = {}  # per-subcommand medians of cli_process

    def wrap(self, name: str, fn):
        spans, clock = self.spans, time.perf_counter_ns

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, self.op, start, clock() - start))

        return timed

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n


class Layers:
    """The program's public functions, by layer; traced when given a Trace."""

    TIMED = (
        "distributions.parse_input_json", "distributions.check_compatibility",
        "bounds.pns_bounds", "bounds.pn_bounds", "bounds.ps_bounds", "bounds.effect_bounds",
        "engine.scan", "engine.eps_identify_effects", "engine.minimal_epsilon",
        "confounded.auto_c", "confounded.explicit_c", "confounded.simple",
        "unitselect.eps_identify_benefit", "report.render_json",
        "oracle.feasible_vertices.full", "oracle.feasible_vertices.bounded",
        "oracle.feasible_range", "oracle.confounded_effect_range",
    )

    def __init__(self, ep, trace: Trace | None = None) -> None:
        self.ep = ep
        self.trace = trace
        self.catalog_sizes = {q: len(entries) for q, entries in ep.catalog.CATALOGS.items()}
        scans = {"pns": ep.eps_identify_pns, "pn": ep.eps_identify_pn, "ps": ep.eps_identify_ps}
        fns = {
            "distributions.parse_input_json": ep.parse_input_json,
            "distributions.check_compatibility": ep.check_compatibility,
            "bounds.pns_bounds": ep.pns_bounds,
            "bounds.pn_bounds": ep.pn_bounds,
            "bounds.ps_bounds": ep.ps_bounds,
            "bounds.effect_bounds": ep.effect_bounds,
            "engine.scan": lambda q, *a: scans[q](*a),
            "engine.eps_identify_effects": ep.eps_identify_effects,
            "engine.minimal_epsilon": ep.minimal_epsilon,
            "confounded.auto_c": ep.eps_identify_effect_confounded,
            "confounded.explicit_c": ep.eps_identify_effect_confounded,
            "confounded.simple": ep.eps_identify_effect_confounded_simple,
            "unitselect.eps_identify_benefit": ep.eps_identify_benefit,
            "report.render_json": ep.report.render_json,
            "oracle.feasible_vertices.full": ep.feasible_vertices,
            "oracle.feasible_vertices.bounded": ep.feasible_vertices,
            "oracle.feasible_range": ep.feasible_range,
            "oracle.confounded_effect_range": ep.confounded_effect_range,
        }
        if trace is not None:
            fns = {name: trace.wrap(name, fn) for name, fn in fns.items()}
        self.fn = fns

    def __getitem__(self, name: str):
        return self.fn[name]


def _interval(iv) -> list[float]:
    return [iv.lo, iv.hi]


def _ident(result) -> dict:
    """An identification, or a condition that failed with its margin."""
    if hasattr(result, "certified"):
        return result.to_json_dict()
    return {"condition": result.condition.to_json_dict(), "margin": result.margin}


# ---------------------------------------------------------------------------
# certify_mix: one study certified in-process, as bounds, epsident and
# unit-select would for a user with a warm interpreter
# ---------------------------------------------------------------------------


def certify(L: Layers, study: dict) -> dict:
    """Certify one study; returns the program's outputs for the checks."""
    ep, trace = L.ep, L.trace
    data = L["distributions.parse_input_json"](json.loads(study["text"]))
    exp, obs, assume, conf = data.experimental, data.observational, data.assumptions, data.confounder
    compat = L["distributions.check_compatibility"](exp, obs)
    out: dict = {"violations": len(compat.violations), "refused_scans": 0, "bounds": {},
                 "scans": [], "effects": [], "minimal": {}, "benefit": None, "confounded": {}}
    report: dict = {"inputs": data.to_json_dict(), "compatibility": compat.to_json_dict()}
    if compat.violations:
        out["text"] = L["report.render_json"](report)
        return out

    bounds = {}
    for q in SCAN_QUANTITIES:
        try:
            out["bounds"][q] = L[f"bounds.{q}_bounds"](exp, obs)
            bounds[q] = _interval(out["bounds"][q])
        except (ep.MissingData, ep.ZeroDenominator) as exc:
            bounds[q] = str(exc)
    for v in EFFECTS:
        try:
            out["bounds"][v] = L["bounds.effect_bounds"](obs, v)
            bounds[v] = _interval(out["bounds"][v])
        except ep.MissingData as exc:
            bounds[v] = str(exc)
    report["bounds"] = bounds

    scans = []
    for eps in EPS_SWEEP:
        for q in SCAN_QUANTITIES:
            try:
                result = L["engine.scan"](q, exp, obs, eps, assume)
            except ep.ZeroDenominator as exc:
                scans.append({"quantity": q, "eps": eps, "status": str(exc)})
                continue
            except ep.Incompatible as exc:
                out["refused_scans"] += 1
                if trace:
                    trace.count("engine.refused")
                scans.append({"quantity": q, "eps": eps, "status": str(exc)})
                continue
            out["scans"].append(result)
            scans.append(result.to_json_dict())
            if trace:
                skipped = len(result.not_evaluated)
                trace.count("engine.fired", len(result.fired))
                trace.count("engine.not_evaluated", skipped)
                trace.count("engine.evaluated", L.catalog_sizes[q] - skipped)
        scan = L["engine.eps_identify_effects"](eps, obs, assume)
        out["effects"].append((eps, scan))
        scans.append({"eps": eps, "effects": {v: _ident(r) for v, r in scan.results.items()},
                      "skipped": {v: list(m) for v, m in scan.skipped.items()}})
    report["scans"] = scans

    minimal = {}
    for q in SCAN_QUANTITIES + EFFECTS:
        try:
            out["minimal"][q] = L["engine.minimal_epsilon"](q, exp, obs)
            minimal[q] = list(out["minimal"][q])
        except (ep.MissingData, ep.ZeroDenominator) as exc:
            minimal[q] = str(exc)
    report["minimal"] = minimal

    if exp is not None and exp.is_complete:
        out["benefit"] = L["unitselect.eps_identify_benefit"](ep.BenefitVector(*study["payoffs"]), exp)
        report["benefit"] = out["benefit"].to_json_dict()

    if conf is not None:
        routes = out["confounded"]
        auto = ep.ConfoundedEffectInput(conf.p_y_given_x, conf.p_x, conf.u_max)
        try:
            routes["auto_c"] = L["confounded.auto_c"](auto, CONFOUNDED_EPS)
        except ep.NoFeasibleC as exc:
            routes["auto_c"] = str(exc)
        explicit = ep.ConfoundedEffectInput(conf.p_y_given_x, conf.p_x, conf.u_max, conf.c)
        routes["explicit_c"] = L["confounded.explicit_c"](explicit, CONFOUNDED_EPS)
        if conf.p_x >= 0.5:
            routes["simple"] = L["confounded.simple"](conf.p_y_given_x, conf.p_x, conf.u_max,
                                                      CONFOUNDED_EPS)
        report["confounded"] = {k: r if isinstance(r, str) else _ident(r) for k, r in routes.items()}

    out["text"] = L["report.render_json"](report)
    return out


# ---------------------------------------------------------------------------
# oracle_check: one study verified by vertex enumeration
# ---------------------------------------------------------------------------


def equality_rank(data: dict) -> tuple[int, int]:
    """Columns and rank of the oracle's equality system for a study, computed
    here from the study's atoms: the sum-to-one row, one row per present atom,
    and one row plus one slack column per asserted marginal bound."""
    rows = [[1] * 8]
    present = {**data.get("experimental", {}), **data.get("observational", {})}
    bounds = [n for n in MARGINAL_BOUNDS if n in data.get("assumptions", {})]
    for name in present:
        rows.append([1 if i in ATOM_CELLS[name] else 0 for i in range(8)])
    cols = 8 + len(bounds)
    rows = [r + [0] * len(bounds) for r in rows]
    for k, name in enumerate(bounds):
        row = [1 if i in MARGINAL_CELLS[name] else 0 for i in range(8)] + [0] * len(bounds)
        row[8 + k] = 1
        rows.append(row)
    return cols, _rank(rows)


def _rank(rows) -> int:
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def oracle_targets(data: dict) -> tuple[str, ...]:
    """Targets the study's data support: pn and ps need their denominator cell."""
    obs = data.get("observational", {})
    ratio = tuple(q for q, den in (("pn", "p_xy"), ("ps", "p_xpyp")) if den in obs)
    return ("pns",) + ratio + EFFECTS + ("benefit",)


def verify(L: Layers, study: dict) -> dict:
    """Verify one study with the oracle; returns the ranges for the checks."""
    ep, trace = L.ep, L.trace
    data = study["data"]
    exp = ep.ExperimentalDistribution(**data["experimental"])
    obs = ep.ObservationalDistribution(**data["observational"]) if "observational" in data else None
    assume = ep.Assumptions(**data["assumptions"]) if "assumptions" in data else None
    kind = "bounded" if assume is not None else "full"
    vertices = L[f"oracle.feasible_vertices.{kind}"](exp, obs, assume)
    payoffs = ep.BenefitVector(*study["payoffs"])
    ranges = {
        t: L["oracle.feasible_range"](t, exp, obs, assume, payoffs=payoffs, vertices=vertices)
        for t in oracle_targets(data)
    }
    out = {"ranges": ranges, "confounded": None}
    conf = data.get("confounder")
    if conf is not None:
        out["confounded"] = L["oracle.confounded_effect_range"](
            conf["p_x"], conf["p_y_given_x"], conf["u_max"], CONFOUNDED_GRID_STEP)
    if trace and trace.counting:
        cols, rank = equality_rank(data)
        trace.count("oracle.vertices", len(vertices))
        trace.count("oracle.candidate_bases", comb(cols, rank))
    return out


# ---------------------------------------------------------------------------
# cli_process: one CLI process per operation, one at a time
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("bounds", "epsident", "unit-select", "verify")


def cli_round_inputs(studies: list[dict]) -> list[tuple[str, dict, list[str]]]:
    """The four calls of a round: (subcommand, study, extra arguments)."""
    by_form: dict[str, list[dict]] = {}
    for s in studies:
        by_form.setdefault(s["form"], []).append(s)
    full, partial, bounded = by_form["full"], by_form["partial"], by_form["bounded"]
    verify_study = next((s for s in full if "confounder" in s["data"]), full[-1])
    bounds_study = full[0] if full[0] is not verify_study else full[1]
    payoffs = [repr(v) for v in bounded[0]["payoffs"]]
    return [
        ("bounds", bounds_study, []),
        ("epsident", partial[0], ["--eps", "0.05"]),
        ("unit-select", bounded[0], ["--payoffs", *payoffs]),
        ("verify", verify_study, []),
    ]


def run_cli(root: Path, workdir: Path, name: str, command: str, study: dict,
            extra: list[str]) -> dict:
    """Run one CLI process from ``src``; returns its wall time, exit code,
    output and peak resident memory."""
    path = workdir / f"{name}.json"
    path.write_text(study["text"])
    argv = [sys.executable, "-m", "epsident.cli", command, str(path), "--json", *extra]
    with open(workdir / f"{name}.out", "w+b") as out, open(workdir / f"{name}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root / "src", stdout=out, stderr=err, env=cli_env())
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own peak memory, apart from any other child
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    return {"command": command, "wall_s": wall, "code": proc.returncode,
            "stdout": stdout, "stderr": stderr, "maxrss_kb": usage.ru_maxrss}


def cli_env() -> dict:
    """The caller's environment without a tolerance override: the checks
    assume the program's default tolerance."""
    env = dict(os.environ)
    env.pop("EPSIDENT_TOLERANCE", None)
    return env
