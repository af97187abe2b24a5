"""Seeded studies with their ground truth, drawn with the standard library only.

Every study comes from a random 8-cell response-type joint, so the true value
of every quantity the program bounds is known.  The program sees the study in
one of four forms, as the JSON text a user would hand it:

* ``full``     both experimental arms and the whole 2x2 joint;
* ``partial``  both arms and the joint with one or two cells missing;
* ``bounded``  both arms and one or two asserted marginal upper bounds, each
               at or above the model's true marginal;
* ``one_arm``  one experimental arm and one or two asserted marginal bounds.

A share of studies carries a confounder section, drawn from its own sampled
model on the graph U -> X, U -> Y, X -> Y with P(u) <= u_max.

Refusal studies are data that no model can produce.  They do not depend on
the workload seed, only on the round index, so every run fails them alike
for as long as the program certifies them.
"""

from __future__ import annotations

import json
import random

FORMS = ("full", "partial", "bounded", "one_arm")
REPEATS = 2  # studies of each form in one round
CONFOUNDED_PER_ROUND = 2  # studies of a round that carry a confounder section

CELLS = ("p_xy", "p_xyp", "p_xpy", "p_xpyp")
MARGINAL_BOUNDS = ("p_x_max", "p_xp_max", "p_y_max", "p_yp_max")
EFFECTS = ("y_x", "yp_x", "y_xp", "yp_xp")
BOUND_SLACK = 0.05  # asserted bounds sit up to this far above the true marginal

# Response-type cells in the order (type, observed treatment):
# complier|x, complier|x', always|x, always|x', never|x, never|x', defier|x, defier|x'.
# Each data atom is the sum of the cells that produce it.
ATOM_CELLS = {
    "p_y_do_x": (0, 1, 2, 3),
    "p_y_do_xp": (2, 3, 6, 7),
    "p_xy": (0, 2),
    "p_xyp": (4, 6),
    "p_xpy": (3, 7),
    "p_xpyp": (1, 5),
}
MARGINAL_CELLS = {
    "p_x_max": ATOM_CELLS["p_xy"] + ATOM_CELLS["p_xyp"],
    "p_xp_max": ATOM_CELLS["p_xpy"] + ATOM_CELLS["p_xpyp"],
    "p_y_max": ATOM_CELLS["p_xy"] + ATOM_CELLS["p_xpy"],
    "p_yp_max": ATOM_CELLS["p_xyp"] + ATOM_CELLS["p_xpyp"],
}


def _sum(cells, idx) -> float:
    return sum(cells[i] for i in idx)


def truth_of(cells, payoffs) -> dict:
    """True pns, pn, ps, the four effects and the benefit of a joint."""
    p_xy, p_xpyp = _sum(cells, ATOM_CELLS["p_xy"]), _sum(cells, ATOM_CELLS["p_xpyp"])
    y_x, y_xp = _sum(cells, ATOM_CELLS["p_y_do_x"]), _sum(cells, ATOM_CELLS["p_y_do_xp"])
    beta, gamma, theta, delta = payoffs
    return {
        "pns": cells[0] + cells[1],
        "pn": cells[0] / p_xy,
        "ps": cells[1] / p_xpyp,
        "y_x": y_x,
        "yp_x": 1.0 - y_x,
        "y_xp": y_xp,
        "yp_xp": 1.0 - y_xp,
        "benefit": beta * (cells[0] + cells[1]) + gamma * (cells[2] + cells[3])
        + theta * (cells[4] + cells[5]) + delta * (cells[6] + cells[7]),
    }


def _confounder(rng: random.Random) -> tuple[dict, float]:
    """A confounder section and the true P(y_x) of the model behind it."""
    p_u = rng.uniform(0.0, 0.03)
    u_max = p_u + rng.uniform(0.0, 0.01)
    px_u, px_up = rng.uniform(0.0, 1.0), rng.uniform(0.3, 1.0)
    py_xu, py_xup = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    p_x = px_u * p_u + px_up * (1.0 - p_u)
    p_xy = py_xu * px_u * p_u + py_xup * px_up * (1.0 - p_u)
    section = {
        "u_max": u_max,
        "p_x": p_x,
        "p_y_given_x": p_xy / p_x,
        "c": (p_x - u_max) * rng.uniform(0.25, 1.0),
    }
    return section, py_xu * p_u + py_xup * (1.0 - p_u)


def _study(rng: random.Random, form: str, confounded: bool) -> dict:
    raw = [rng.expovariate(1.0) for _ in range(8)]
    total = sum(raw)
    cells = [v / total for v in raw]
    payoffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
    atoms = {name: _sum(cells, idx) for name, idx in ATOM_CELLS.items()}
    data: dict = {}
    if form == "one_arm":
        arm = rng.choice(("p_y_do_x", "p_y_do_xp"))
        data["experimental"] = {arm: atoms[arm]}
    else:
        data["experimental"] = {"p_y_do_x": atoms["p_y_do_x"], "p_y_do_xp": atoms["p_y_do_xp"]}
    if form == "full":
        data["observational"] = {c: atoms[c] for c in CELLS}
    elif form == "partial":
        dropped = set(rng.sample(CELLS, rng.randint(1, 2)))
        data["observational"] = {c: atoms[c] for c in CELLS if c not in dropped}
    else:
        names = sorted(rng.sample(MARGINAL_BOUNDS, rng.randint(1, 2)), key=MARGINAL_BOUNDS.index)
        data["assumptions"] = {
            n: min(1.0, _sum(cells, MARGINAL_CELLS[n]) + rng.uniform(0.0, BOUND_SLACK))
            for n in names
        }
    confounder_truth = None
    if confounded:
        data["confounder"], confounder_truth = _confounder(rng)
    return {
        "form": form,
        "data": data,
        "text": json.dumps(data),
        "cells": cells,
        "payoffs": payoffs,
        "truth": truth_of(cells, payoffs),
        "confounder_truth": confounder_truth,
        "refusal": False,
    }


def refusal_study(index: int) -> dict:
    """Data no response-type joint can produce, certified by the program today.

    Even rounds: P(y_{x'}) = 0 forces P(x',y') >= P(y_x) - P(x,y), and the
    study states less.  Odd rounds: P(y_x) + P(y_{x'}) - 1 always-takers all
    have Y = y, and the asserted bound on P(y) is below that.
    """
    rng = random.Random(f"refusal:{index}")
    if index % 2 == 0:
        p1 = rng.uniform(0.6, 0.95)
        a = p1 * rng.uniform(0.2, 0.6)
        b = (p1 - a) * rng.uniform(0.3, 0.9)
        data = {"experimental": {"p_y_do_x": p1, "p_y_do_xp": 0.0},
                "observational": {"p_xy": a, "p_xpyp": b}}
    else:
        p1, p2 = rng.uniform(0.7, 0.95), rng.uniform(0.7, 0.95)
        data = {"experimental": {"p_y_do_x": p1, "p_y_do_xp": p2},
                "assumptions": {"p_y_max": (p1 + p2 - 1.0) * rng.uniform(0.1, 0.8)}}
    return {
        "form": "refusal",
        "data": data,
        "text": json.dumps(data),
        "cells": None,
        "payoffs": tuple(rng.uniform(-1.0, 1.0) for _ in range(4)),
        "truth": None,
        "confounder_truth": None,
        "refusal": True,
    }


def make_round(seed: int, index: int, with_refusal: bool) -> list[dict]:
    """One round: REPEATS studies of each form, CONFOUNDED_PER_ROUND of them
    with a confounder section, and optionally one refusal study last."""
    rng = random.Random(f"{seed}:{index}")
    slots = len(FORMS) * REPEATS
    confounded = set(rng.sample(range(slots), CONFOUNDED_PER_ROUND))
    studies = [_study(rng, FORMS[k % len(FORMS)], k in confounded) for k in range(slots)]
    if with_refusal:
        studies.append(refusal_study(index))
    return studies
