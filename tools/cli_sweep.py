"""Run the CLI in-process over a fixed set of calls and print a digest of each.

Usage::

    python tools/cli_sweep.py TREE > sweep.txt

``TREE`` is a checkout of this repository; its ``src/epsident`` is the code
that runs.  The inputs are rounds 0-39 of ``perfbench.studies.make_round(7,
i, True)`` and the fixtures of ``tests/test_cli.py``, both read from the
checkout that holds this script, so two trees see the same calls.  Each call
runs in text and in ``--json``, and prints one line: the argv, the exit code
and hashes of stdout and stderr.  Diffing the output of two trees checks
that a refactor leaves the command line byte-identical.

A second pass runs the ``epsident --eps 0.05`` and ``verify --trials 2``
calls, and ``epsident --eps 0.05 --confounder`` on inputs with a confounder
section, once more with ``EPSIDENT_TOLERANCE=0.05``, a loose user-set
tolerance; their lines start with that setting.  The CLI applies the
environment's tolerance process-wide, so the default is restored after each
of these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROUNDS = range(40)
SEED = 7

# argv after the input path, for every input
SHAPES = (
    ["bounds"],
    ["bounds", "--force"],
    ["epsident", "--eps", "0.05"],
    ["epsident", "--eps", "0.05", "--quantity", "pns"],
    ["epsident", "--eps", "0.05", "--quantity", "effect"],
    ["epsident", "--minimal"],
    ["epsident", "--minimal", "--quantity", "pn"],
    ["epsident", "--minimal", "--quantity", "effect"],
    ["unit-select", "--payoffs", "{payoffs}"],
    ["verify", "--trials", "2"],
)
# extra shapes for inputs that carry a confounder section
CONFOUNDER_SHAPES = (
    ["epsident", "--eps", "0.05", "--confounder"],
    ["epsident", "--eps", "0.05", "--confounder", "--c", "auto", "--quantity", "pns"],
    ["epsident", "--minimal", "--confounder"],
)
FIXTURE_PAYOFFS = ("100", "-60", "0", "-140")
# the shapes run again under a loose tolerance from the environment
LOOSE_TOLERANCE = "0.05"
LOOSE_SHAPES = (
    ["epsident", "--eps", "0.05"],
    ["verify", "--trials", "2"],
)
LOOSE_CONFOUNDER_SHAPES = (
    ["epsident", "--eps", "0.05", "--confounder"],
)
# (environment tolerance, shapes, extra shapes for confounder inputs) per pass
PASSES = (
    (None, SHAPES, CONFOUNDER_SHAPES),
    (LOOSE_TOLERANCE, LOOSE_SHAPES, LOOSE_CONFOUNDER_SHAPES),
)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs() -> list[tuple[str, str, list[str], list[str], bool]]:
    """(file name, file text, --kind arguments, payoffs, has a confounder
    section) per input."""
    studies = _load("perfbench_studies", HERE / "perfbench" / "studies.py")
    fixtures = _load("cli_fixtures", HERE / "tests" / "test_cli.py")
    out = []
    for i in ROUNDS:
        for k, study in enumerate(studies.make_round(SEED, i, True)):
            out.append((f"r{i}-{k}.json", study["text"], [], [repr(v) for v in study["payoffs"]],
                        "confounder" in study["data"]))
    for name in ("RUNNING", "MEDICINE", "FLU", "PARTIAL", "INCOMPATIBLE", "ZERO_PXY",
                 "CONFOUNDER_ONLY", "CONFOUNDER_FROM_JOINT"):
        data = getattr(fixtures, name)
        out.append((f"{name.lower()}.json", json.dumps(data), [], list(FIXTURE_PAYOFFS),
                    "confounder" in data))
    for name, kind in (("TABLE1_CSV", "observational"), ("TABLE2_CSV", "experimental")):
        out.append((f"{name.lower()}.csv", getattr(fixtures, name), ["--kind", kind],
                    list(FIXTURE_PAYOFFS), False))
    return out


def calls() -> list[tuple[str | None, list[str], str, str]]:
    """(environment tolerance, argv, file name, file text) of every call, text
    and --json: the default-tolerance pass, then the loose-tolerance pass."""
    out, data = [], inputs()
    for tolerance, shapes, confounder_shapes in PASSES:
        for name, text, kind, payoffs, confounded in data:
            for shape in shapes + (confounder_shapes if confounded else ()):
                argv = [shape[0], name, *kind]
                for a in shape[1:]:
                    argv += payoffs if a == "{payoffs}" else [a]
                out.append((tolerance, argv, name, text))
                out.append((tolerance, argv + ["--json"], name, text))
    return out


def sweep(tree: Path):
    """Yield (environment tolerance, argv, exit code, stdout, stderr) of every
    call against ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    os.environ.pop("EPSIDENT_TOLERANCE", None)
    work = calls()  # the fixtures import epsident, so after the path is set
    from epsident.cli import main
    from epsident.config import DEFAULT_TOLERANCE, set_tolerance

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for tolerance, argv, name, text in work:
            Path(name).write_text(text)
            if tolerance is not None:
                os.environ["EPSIDENT_TOLERANCE"] = tolerance
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if tolerance is not None:
                os.environ.pop("EPSIDENT_TOLERANCE")
                set_tolerance(DEFAULT_TOLERANCE)
            yield tolerance, argv, code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_sweep.py TREE", file=sys.stderr)
        return 2
    for tolerance, call, code, out, err in sweep(Path(argv[0]).resolve()):
        setting = [] if tolerance is None else [f"EPSIDENT_TOLERANCE={tolerance}"]
        print(" ".join(setting + call), code, _digest(out), _digest(err))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
