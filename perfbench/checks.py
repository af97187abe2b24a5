"""Checks of the program's outputs against values computed apart from it.

* Ground truth: every bound, certificate and oracle range must contain the
  true value of the model that produced the study, and a decided benefit
  sign must agree with the true benefit.
* An independent LP: on a seeded subset of studies, ``scipy.optimize.linprog``
  (HiGHS) ranges each quantity over the 8-cell response-type polytope.  Tight
  bounds and oracle ranges must equal those ranges, and every certificate
  must contain them.  Refusal studies must be LP-infeasible.
* Rendering: every canonical report parses back and re-renders identically.

Each check appends a message to a list of problems; an empty list means
every output was right.  scipy is imported only by the LP functions, after
the run has read its peak memory.
"""

from __future__ import annotations

import json

from studies import ATOM_CELLS, EFFECTS, MARGINAL_CELLS

TOL = 1e-9  # the program's default comparison tolerance
LP_TOL = 1e-8  # equality with the LP optimum; well below a 1e-6 nudge


def contains(lo: float, hi: float, value: float, tol: float = TOL) -> bool:
    return lo - tol <= value <= hi + tol


def _certified(result) -> bool:
    return hasattr(result, "certified")


def check_rendered(text: str, render, where: str, problems: list) -> None:
    if render(json.loads(text)) != text:
        problems.append(f"{where}: rendered report does not re-render identically")


def check_benefit(lo: float, hi: float, sign: str, truth: float, where: str, problems: list) -> None:
    if not contains(lo, hi, truth):
        problems.append(f"{where}: benefit [{lo}, {hi}] misses the truth {truth}")
    if (sign == "positive" and truth < -TOL) or (sign == "negative" and truth > TOL):
        problems.append(f"{where}: benefit sign {sign} but the true benefit is {truth}")


def refused(out: dict) -> bool:
    """The program refused the study: a compatibility violation, or every
    catalog scan raised Incompatible."""
    return out["violations"] > 0 or (out["refused_scans"] > 0 and not out["scans"])


def check_certify(study: dict, out: dict, render, problems: list) -> None:
    """Ground-truth checks of one certify_mix operation (not a refusal study)."""
    where = f"certify {study['form']} {study['text']}"
    truth = study["truth"]
    if out["violations"] or out["refused_scans"]:
        problems.append(f"{where}: data from a model refused as incompatible")
    for q, iv in out["bounds"].items():
        if not contains(iv.lo, iv.hi, truth[q]):
            problems.append(f"{where}: {q} bounds {iv} miss the truth {truth[q]}")
    for report in out["scans"]:
        for ident in report.fired:
            if not contains(ident.certified.lo, ident.certified.hi, truth[report.quantity]):
                problems.append(f"{where}: {ident.condition.entry_id} at eps {report.eps} "
                                f"certifies {ident.certified}, truth {truth[report.quantity]}")
    for eps, scan in out["effects"]:
        for v, result in scan.results.items():
            if _certified(result) and not contains(*result.certified.as_tuple(), truth[v]):
                problems.append(f"{where}: effect-{v} at eps {eps} certifies "
                                f"{result.certified}, truth {truth[v]}")
    for q, (eps_star, q_star) in out["minimal"].items():
        if not contains(q_star - eps_star, q_star + eps_star, truth[q]):
            problems.append(f"{where}: minimal radius for {q} misses the truth {truth[q]}")
    b = out["benefit"]
    if b is not None:
        check_benefit(b.lo, b.hi, b.sign, truth["benefit"], where, problems)
    for route, result in out["confounded"].items():
        if _certified(result) and not contains(*result.certified.as_tuple(),
                                                study["confounder_truth"]):
            problems.append(f"{where}: confounded {route} certifies {result.certified}, "
                            f"truth {study['confounder_truth']}")
    check_rendered(out["text"], render, where, problems)


def check_verify(study: dict, out: dict, effect_sandwich, problems: list) -> None:
    """Ground-truth checks of one oracle_check operation."""
    where = f"oracle {study['form']} {study['text']}"
    for t, iv in out["ranges"].items():
        if not contains(iv.lo, iv.hi, study["truth"][t]):
            problems.append(f"{where}: {t} range {iv} misses the truth {study['truth'][t]}")
    rng = out["confounded"]
    if rng is None:
        return
    conf = study["data"]["confounder"]
    if not contains(rng.lo, rng.hi, study["confounder_truth"]):
        problems.append(f"{where}: confounded range {rng} misses the truth "
                        f"{study['confounder_truth']}")
    c_top = conf["p_x"] - conf["u_max"]
    for k in range(1, 9):
        s = effect_sandwich(conf["p_y_given_x"], conf["p_x"], conf["u_max"], c_top * k / 8)
        if not (s.lo - TOL <= rng.lo and rng.hi <= s.hi + TOL):
            problems.append(f"{where}: confounded range {rng} leaves the sandwich {s}")


# ---------------------------------------------------------------------------
# The independent LP over the 8-cell response-type polytope
# ---------------------------------------------------------------------------

_OBJECTIVE_CELLS = {
    "pns": ((0, 1), None),
    "pn": ((0,), "p_xy"),
    "ps": ((1,), "p_xpyp"),
    "y_x": (ATOM_CELLS["p_y_do_x"], None),
    "y_xp": (ATOM_CELLS["p_y_do_xp"], None),
    "yp_x": (tuple(i for i in range(8) if i not in ATOM_CELLS["p_y_do_x"]), None),
    "yp_xp": (tuple(i for i in range(8) if i not in ATOM_CELLS["p_y_do_xp"]), None),
}


def _system(data: dict, sections: tuple[str, ...]):
    a_eq, b_eq, a_ub, b_ub = [[1.0] * 8], [1.0], [], []
    for section in ("experimental", "observational"):
        if section in sections:
            for name, value in data.get(section, {}).items():
                a_eq.append([1.0 if i in ATOM_CELLS[name] else 0.0 for i in range(8)])
                b_eq.append(value)
    if "assumptions" in sections:
        for name, value in data.get("assumptions", {}).items():
            a_ub.append([1.0 if i in MARGINAL_CELLS[name] else 0.0 for i in range(8)])
            b_ub.append(value)
    return a_eq, b_eq, a_ub or None, b_ub or None


def lp_range(data: dict, target: str, payoffs=None,
             sections=("experimental", "observational", "assumptions")) -> tuple[float, float] | None:
    """[min, max] of a target over the polytope the given data sections cut
    out, or None when it is empty."""
    from scipy.optimize import linprog

    if target == "benefit":
        c = [p for p in payoffs for _ in range(2)]
        den = 1.0
    else:
        cells, den_name = _OBJECTIVE_CELLS[target]
        c = [1.0 if i in cells else 0.0 for i in range(8)]
        den = data["observational"][den_name] if den_name else 1.0
    a_eq, b_eq, a_ub, b_ub = _system(data, sections)
    ends = []
    for sign in (1.0, -1.0):
        res = linprog([sign * v for v in c], A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"linprog failed on {data}: {res.message}")
        ends.append(sign * res.fun / den)
    return ends[0], ends[1]


def equal(iv, ref, where: str, problems: list) -> None:
    if ref is None:
        problems.append(f"{where}: the LP finds the data infeasible")
    elif abs(iv[0] - ref[0]) > LP_TOL or abs(iv[1] - ref[1]) > LP_TOL:
        problems.append(f"{where}: [{iv[0]}, {iv[1]}] differs from the LP range [{ref[0]}, {ref[1]}]")


def lp_check_certify(study: dict, out: dict, problems: list) -> None:
    """Tight bounds equal the LP; every certificate contains the LP range."""
    where = f"certify {study['form']} {study['text']}"
    data = study["data"]
    for q, iv in out["bounds"].items():
        # effect bounds use the joint alone; pns/pn/ps bounds use both datasets
        sections = ("observational",) if q in EFFECTS else ("experimental", "observational")
        equal(iv.as_tuple(), lp_range(data, q, sections=sections), f"{where}: {q} bounds", problems)
    ranges = {}
    for report in out["scans"]:
        for ident in report.fired:
            q = report.quantity
            if q not in ranges:
                ranges[q] = lp_range(data, q)
            lo, hi = ranges[q]
            if not (ident.certified.lo - TOL <= lo and hi <= ident.certified.hi + TOL):
                problems.append(f"{where}: {ident.condition.entry_id} at eps {report.eps} "
                                f"certifies {ident.certified}, LP range [{lo}, {hi}]")


def lp_check_verify(study: dict, out: dict, problems: list) -> None:
    """Oracle ranges equal the LP ranges."""
    where = f"oracle {study['form']} {study['text']}"
    for t, iv in out["ranges"].items():
        ref = lp_range(study["data"], t, payoffs=study["payoffs"])
        equal(iv.as_tuple(), ref, f"{where}: {t}", problems)


def lp_check_refusal(study: dict, problems: list) -> None:
    """A refusal study must be one no model can produce."""
    if lp_range(study["data"], "pns") is not None:
        problems.append(f"refusal study {study['text']} is LP-feasible")


# ---------------------------------------------------------------------------
# CLI reports, as parsed from ``--json`` output
# ---------------------------------------------------------------------------


def check_cli(command: str, text: str, study: dict, render, problems: list) -> None:
    """Ground-truth checks of one CLI call that exited 0."""
    where = f"cli {command} {study['text']}"
    check_rendered(text, render, where, problems)
    report = json.loads(text)
    truth = study["truth"]
    intervals = []
    if command == "bounds":
        b = report["bounds"]
        intervals = [(q, b[q]["lo"], b[q]["hi"]) for q in ("pns", "pn", "ps")]
        intervals += [(v, e["lo"], e["hi"]) for v, e in b["effects"].items()]
    elif command == "epsident":
        for q, r in report["eps_reports"].items():
            intervals += [(q, *f["certified"]) for f in r.get("fired", [])]
        for v, r in report["effects"]["results"].items():
            if r["identified"]:
                intervals.append((v, *r["certified"]))
    elif command == "unit-select":
        b = report["benefit"]
        check_benefit(*b["certified"], b["sign"], truth["benefit"], where, problems)
    elif not report["passed"]:
        problems.append(f"{where}: verification failed: {report['checks']}")
    for q, lo, hi in intervals:
        if not contains(lo, hi, truth[q]):
            problems.append(f"{where}: {q} [{lo}, {hi}] misses the truth {truth[q]}")


def lp_check_cli_bounds(study: dict, bounds: dict, problems: list) -> None:
    """The bounds report of ``epsident bounds`` equals the LP ranges."""
    where = f"cli bounds {study['text']}"
    for q in ("pns", "pn", "ps"):
        ref = lp_range(study["data"], q, sections=("experimental", "observational"))
        equal((bounds[q]["lo"], bounds[q]["hi"]), ref, f"{where}: {q}", problems)
    for v, e in bounds["effects"].items():
        ref = lp_range(study["data"], v, sections=("observational",))
        equal((e["lo"], e["hi"]), ref, f"{where}: {v}", problems)
