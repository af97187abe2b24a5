"""Shows that the checks can fail.

Takes one seeded study, runs it through certify_mix and oracle_check, and
hands the checks three broken copies of the outputs: a certificate moved off
the true value, a tight bound nudged by 1e-6, and an oracle range nudged by
1e-6.  The checks must pass the true outputs and report each broken copy.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from studies import make_round  # noqa: E402
from workloads import Layers, certify, verify  # noqa: E402

NUDGE = 1e-6


def _study_with_certificate(layers) -> tuple[dict, dict]:
    for index in range(100):
        for study in make_round(0, index, False):
            if study["form"] == "full":
                out = certify(layers, study)
                if any(r.fired for r in out["scans"]):
                    return study, out
    raise RuntimeError("no seeded full-data study fires a certificate")


def self_test() -> list[str]:
    """Messages for every check that failed to behave; empty when all did."""
    import epsident as ep
    import epsident.report

    layers = Layers(ep)
    render = epsident.report.render_json
    study, out = _study_with_certificate(layers)
    oracle_out = verify(layers, study)
    failures = []

    def expect(reported: bool, what: str) -> None:
        if not reported:
            failures.append(f"self-test: {what}")

    problems: list[str] = []
    checks.check_certify(study, out, render, problems)
    checks.lp_check_certify(study, out, problems)
    checks.check_verify(study, oracle_out, ep.effect_sandwich, problems)
    checks.lp_check_verify(study, oracle_out, problems)
    expect(not problems, f"true outputs reported as wrong: {problems}")

    index, report = next((k, r) for k, r in enumerate(out["scans"]) if r.fired)
    ident = report.fired[0]
    truth = study["truth"][report.quantity]
    moved = dataclasses.replace(ident, q=truth + ident.eps + 1e-3)
    scans = list(out["scans"])
    scans[index] = dataclasses.replace(report, fired=(moved,) + report.fired[1:])
    problems = []
    checks.check_certify(study, {**out, "scans": scans}, render, problems)
    expect(bool(problems), "a certificate moved off the truth was not reported")

    pns = out["bounds"]["pns"]
    nudged = {**out["bounds"], "pns": dataclasses.replace(pns, hi=pns.hi + NUDGE)}
    problems = []
    checks.lp_check_certify(study, {**out, "bounds": nudged, "scans": []}, problems)
    expect(bool(problems), "pns bounds nudged by 1e-6 were not reported")

    rng = oracle_out["ranges"]["pns"]
    ranges = {**oracle_out["ranges"], "pns": dataclasses.replace(rng, lo=rng.lo - NUDGE)}
    problems = []
    checks.lp_check_verify(study, {**oracle_out, "ranges": ranges}, problems)
    expect(bool(problems), "an oracle range nudged by 1e-6 was not reported")
    return failures


if __name__ == "__main__":
    failures = self_test()
    for f in failures:
        print(f)
    print("self-test failed" if failures else "self-test passed: every broken output was reported")
    sys.exit(1 if failures else 0)
