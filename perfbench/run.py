"""Benchmark for epsident: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload certify_mix --seed 1 --seconds 25 --trace 0

Workloads:

* ``certify_mix``   certify one study in-process per operation: bounds,
                    eps-scans, effect scan, minimal radius, benefit,
                    confounder routes and a canonical JSON render;
* ``oracle_check``  verify one study per operation by vertex enumeration;
* ``cli_process``   one ``python -m epsident.cli`` process per operation.

Each run builds its inputs from ``--seed``, measures whole rounds until
``--seconds`` of them are timed, checks every output against ground truth
and an independent LP (outside the timed region), and prints one JSON object
as its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import selftest  # noqa: E402
from studies import make_round, refusal_study  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS, COUNT_ROUNDS, Layers, Trace, certify, cli_env, cli_round_inputs, run_cli, verify,
)

WORKLOADS = ("certify_mix", "oracle_check", "cli_process")
SETUP_PROBES = {"certify_mix": 7, "oracle_check": 7, "cli_process": 5}
LP_ROUNDS = 4  # rounds, among the first COUNT_ROUNDS, whose studies are all LP-checked
MIN_CLI_ROUNDS = 3
IMPORT_PROBES = 5

END_TO_END_UNITS = {"throughput_per_s": "1/s", "round_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
CLI_LAYERS = tuple(f"cli.{c}_ms" for c in CLI_COMMANDS) + ("cli.import_ms",)
ENGINE_COUNTS = ("engine.fired", "engine.evaluated", "engine.not_evaluated", "engine.refused")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program():
    sys.path.insert(0, str(SRC))
    import epsident
    import epsident.report  # noqa: F401

    return epsident


# ---------------------------------------------------------------------------
# set-up: a fresh process imports the package and runs one warm-up round
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Body of one set-up sample; prints the seconds it took."""
    studies = make_round(seed, -1, workload == "certify_mix")
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
    try:
        start = time.perf_counter()
        ep = import_program()
        if workload == "cli_process":
            for k, (cmd, study, extra) in enumerate(cli_round_inputs(studies)):
                run_cli(ROOT, workdir, f"w{k}", cmd, study, extra)
        else:
            op = certify if workload == "certify_mix" else verify
            layers = Layers(ep)
            for study in studies:
                op(layers, study)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES[workload]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, env=cli_env())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    log(f"setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the in-process workloads
# ---------------------------------------------------------------------------


def run_in_process(workload: str, seed: int, seconds: float, trace: Trace | None) -> dict:
    ep = import_program()
    layers = Layers(ep, trace)
    op = certify if workload == "certify_mix" else verify
    lp_rounds = set(random.Random(f"lp:{seed}").sample(range(COUNT_ROUNDS), LP_ROUNDS))
    problems: list[str] = []
    kept: list[tuple[dict, dict]] = []
    round_times: list[float] = []
    attempted = failed = refusals = 0
    timed = 0.0
    index = 0
    while timed < seconds or index < COUNT_ROUNDS:
        studies = make_round(seed, index, workload == "certify_mix")
        if trace:
            trace.counting = index < COUNT_ROUNDS
        outs = []
        start = time.perf_counter()
        for study in studies:
            if trace:
                trace.op += 1
            try:
                outs.append(op(layers, study))
            except Exception as exc:  # a crash of the program is a failed operation
                outs.append(exc)
        elapsed = time.perf_counter() - start
        round_times.append(elapsed)
        timed += elapsed
        attempted += len(studies)
        for study, out in zip(studies, outs):
            if isinstance(out, Exception):
                failed += 1
                log(f"operation failed on {study['text']}:\n"
                    + "".join(traceback.format_exception(out)))
            elif study["refusal"]:
                refusals += 1
                failed += not checks.refused(out)
            elif workload == "certify_mix":
                checks.check_certify(study, out, ep.report.render_json, problems)
            else:
                checks.check_verify(study, out, ep.effect_sandwich, problems)
        if index in lp_rounds:
            kept.extend((s, o) for s, o in zip(studies, outs)
                        if not s["refusal"] and not isinstance(o, Exception))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the reference tools load only now, after peak memory was read
    for study, out in kept:
        if workload == "certify_mix":
            checks.lp_check_certify(study, out, problems)
        else:
            checks.lp_check_verify(study, out, problems)
    if workload == "certify_mix":
        for k in range(index):
            checks.lp_check_refusal(refusal_study(k), problems)
    log(f"LP-checked {len(kept)} studies and {refusals} refusal studies")
    return {"attempted": attempted, "failed": failed, "problems": problems, "timed": timed,
            "round_times": round_times, "peak_rss_mb": peak_rss_mb}


# ---------------------------------------------------------------------------
# cli_process
# ---------------------------------------------------------------------------


def import_ms() -> float:
    """An import-only process minus a bare interpreter, medians, in ms."""
    def median_wall(code: str) -> float:
        walls = []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=SRC, env=cli_env(), check=True,
                           timeout=60)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)

    return (median_wall("import epsident.cli") - median_wall("pass")) * 1e3


def run_cli_workload(seed: int, seconds: float, trace: Trace | None) -> dict:
    ep = import_program()
    problems: list[str] = []
    kept: list[tuple[dict, dict]] = []
    round_times: list[float] = []
    walls: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    attempted = failed = 0
    peak_kb = 0
    timed = 0.0
    index = 0
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        while timed < seconds or index < MIN_CLI_ROUNDS:
            calls = cli_round_inputs(make_round(seed, index, False))
            results = []
            start = time.perf_counter()
            for k, (cmd, study, extra) in enumerate(calls):
                results.append(run_cli(ROOT, workdir, f"r{index}-{k}", cmd, study, extra))
            elapsed = time.perf_counter() - start
            round_times.append(elapsed)
            timed += elapsed
            attempted += len(calls)
            for (cmd, study, _), call in zip(calls, results):
                walls[cmd].append(call["wall_s"])
                peak_kb = max(peak_kb, call["maxrss_kb"])
                if call["code"] != 0:
                    failed += 1
                    log(f"cli {cmd} {study['text']}: exit {call['code']}: {call['stderr'].strip()}")
                    continue
                checks.check_cli(cmd, call["stdout"], study, ep.report.render_json, problems)
                if cmd == "bounds":
                    kept.append((study, json.loads(call["stdout"])["bounds"]))
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for study, bounds in kept:
        checks.lp_check_cli_bounds(study, bounds, problems)
    result = {"attempted": attempted, "failed": failed, "problems": problems, "timed": timed,
              "round_times": round_times, "peak_rss_mb": peak_kb / 1024.0}
    if trace:
        trace.cli = {f"cli.{c}_ms": statistics.median(w) * 1e3 for c, w in walls.items()}
        trace.cli["cli.import_ms"] = import_ms()
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_layer_metrics(trace: Trace, run: dict) -> dict:
    by_name: dict[str, list[int]] = {name: [] for name in Layers.TIMED}
    for name, _, _, duration in trace.spans:
        by_name[name].append(duration)
    metrics = {}
    for name, durations in by_name.items():
        metrics[f"{name}.calls"] = (len(durations), "count")
        metrics[f"{name}.busy_ms"] = (sum(durations) / 1e6, "ms")
        metrics[f"{name}.p50_us"] = (statistics.median(durations) / 1e3 if durations else 0.0, "us")
    counts = trace.counts
    for name in ENGINE_COUNTS + ("oracle.vertices",):
        metrics[name] = (counts[name], "count")
    # computed by the benchmark as C(columns, rank), not counted by the oracle
    metrics["oracle.candidate_bases"] = (counts["oracle.candidate_bases"], "count.computed")
    metrics["engine.fire_ratio"] = (
        counts["engine.fired"] / counts["engine.evaluated"] if counts["engine.evaluated"] else 0.0,
        "ratio")
    metrics["oracle.vertex_yield"] = (
        counts["oracle.vertices"] / counts["oracle.candidate_bases"]
        if counts["oracle.candidate_bases"] else 0.0, "ratio")
    for name in CLI_LAYERS:
        metrics[name] = (trace.cli.get(name, 0.0), "ms")
    metrics["trace.throughput_per_s"] = (run["attempted"] / run["timed"], "1/s")
    return metrics


def write_trace(trace: Trace, workload: str, seed: int) -> Path:
    path = OUT_DIR / f"trace-{workload}-seed{seed}.csv"
    t0 = trace.spans[0][2] if trace.spans else 0
    with open(path, "w") as f:
        f.write("layer,op,start_us,duration_us\n")
        for name, op, start, duration in trace.spans:
            f.write(f"{name},{op},{(start - t0) / 1e3:.3f},{duration / 1e3:.3f}\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "epsident" / "__init__.py").is_file():
        log(f"error: the program's source is not at {SRC / 'epsident'}")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    trace = Trace() if args.trace else None
    setup_s = None if trace else measure_setup(args.workload, args.seed)
    if args.workload == "cli_process":
        run = run_cli_workload(args.seed, args.seconds, trace)
    else:
        run = run_in_process(args.workload, args.seed, args.seconds, trace)

    problems = run["problems"] + selftest.self_test()
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    rounds = run["round_times"]
    if len(rounds) >= 100:  # at least ten rounds beyond the p90
        p90 = statistics.quantiles(rounds, n=10)[8] * 1e3
        log(f"round p90 {p90:.3f} ms over {len(rounds)} rounds")
    else:
        log(f"round p90 not reported: {len(rounds)} rounds")
    if trace:
        metrics = per_layer_metrics(trace, run)
        log(f"trace written to {write_trace(trace, args.workload, args.seed)}")
    else:
        values = {
            "throughput_per_s": run["attempted"] / run["timed"],
            "round_p50_ms": statistics.median(rounds) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
