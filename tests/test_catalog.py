"""Table-driven check that the generated condition catalogs reproduce the
published condition sets exactly: 21 for pns, 5 for pn, 5 for ps.

The frozen tables below are the published conditions transcribed once;
the catalogs must regenerate them mechanically from the bound arguments.
Two published entries contain typographical slips (one center, one premise)
that break the lower/upper pairing they belong to and are provably unsound
as printed; the frozen rows carry the pairing-consistent forms, which the
oracle containment suite validates.
"""

from fractions import Fraction

import pytest

from epsident import oracle
from epsident.catalog import CATALOGS, PN_CATALOG, PNS_CATALOG, PS_CATALOG, TARGETS
from epsident.forms import ONE_MINUS, QUANTITY_ATOMS

# (center, premise) rows in the published order
PNS_TABLE = [
    ("eps", "P(y_x) <= 2*eps"),
    ("eps", "P(y'_{x'}) <= 2*eps"),
    ("eps", "P(x,y) + P(x',y') <= 2*eps"),
    ("eps", "P(y_x) + P(x,y') + P(x',y) - P(y_{x'}) <= 2*eps"),
    ("P(y_x) - eps", "P(y_{x'}) <= 2*eps"),
    ("P(y'_{x'}) - eps", "P(y'_x) <= 2*eps"),
    ("P(y_x) - P(y_{x'}) + eps", "P(x,y') + P(x',y) <= 2*eps"),
    ("P(y_x) - P(y_{x'}) + eps", "P(y_{x'}) + P(x,y) + P(x',y') - P(y_x) <= 2*eps"),
    ("P(x,y) + P(x',y') - eps", "P(y_{x'}) + P(x,y) + P(x',y') - P(y_x) <= 2*eps"),
    ("P(y'_{x'}) - eps", "P(y') <= 2*eps"),
    ("P(y_x) - eps", "P(y_x) + P(y_{x'}) - P(y) <= 2*eps"),
    ("P(y) - P(y_{x'}) + eps", "P(y_x) + P(y_{x'}) - P(y) <= 2*eps"),
    ("P(x,y) + P(x',y') - eps", "P(y_{x'}) + P(x',y') - P(x',y) <= 2*eps"),
    ("P(y) - P(y_{x'}) + eps", "P(y_{x'}) + P(x',y') - P(x',y) <= 2*eps"),
    ("P(y) - P(y_{x'}) + eps", "P(y_x) + P(x,y') - P(x,y) <= 2*eps"),
    ("P(y_x) - eps", "P(y) <= 2*eps"),
    ("P(y'_{x'}) - eps", "P(y'_{x'}) + P(y) - P(y_x) <= 2*eps"),
    ("P(y_x) - P(y) + eps", "P(y'_{x'}) + P(y) - P(y_x) <= 2*eps"),
    ("P(x,y) + P(x',y') - eps", "P(y'_x) + P(x,y) - P(x,y') <= 2*eps"),
    ("P(y_x) - P(y) + eps", "P(y'_x) + P(x,y) - P(x,y') <= 2*eps"),
    ("P(y_x) - P(y) + eps", "P(y'_{x'}) + P(x',y) - P(x',y') <= 2*eps"),
]

PN_TABLE = [
    ("eps", "P(y'_{x'}) - P(x',y') <= 2*eps*P(x,y)"),
    ("1 - eps", "P(y_{x'}) - P(x',y) <= 2*eps*P(x,y)"),
    ("(P(y) - P(y_{x'})) / P(x,y) + eps", "P(y_{x'}) - P(x',y) <= 2*eps*P(x,y)"),
    ("(P(y'_{x'}) - P(x',y')) / P(x,y) - eps", "P(x,y') <= 2*eps*P(x,y)"),
    ("(P(y) - P(y_{x'})) / P(x,y) + eps", "P(x,y') <= 2*eps*P(x,y)"),
]

PS_TABLE = [
    ("eps", "P(y_x) - P(x,y) <= 2*eps*P(x',y')"),
    ("1 - eps", "P(y'_x) - P(x,y') <= 2*eps*P(x',y')"),
    ("(P(y') - P(y'_x)) / P(x',y') + eps", "P(y'_x) - P(x,y') <= 2*eps*P(x',y')"),
    ("(P(y_x) - P(x,y)) / P(x',y') - eps", "P(x',y) <= 2*eps*P(x',y')"),
    ("(P(y') - P(y'_x)) / P(x',y') + eps", "P(x',y) <= 2*eps*P(x',y')"),
]

# (target, name, side, label) of every bound argument, in definition order;
# the labels reach `bounds --json` as each argument's "label"
ARGUMENT_TABLE = [
    ("pns", "L1", "lower", "0"),
    ("pns", "L2", "lower", "P(y_x) - P(y_{x'})"),
    ("pns", "L3", "lower", "P(y) - P(y_{x'})"),
    ("pns", "L4", "lower", "P(y_x) - P(y)"),
    ("pns", "U1", "upper", "P(y_x)"),
    ("pns", "U2", "upper", "P(y'_{x'})"),
    ("pns", "U3", "upper", "P(x,y) + P(x',y')"),
    ("pns", "U4", "upper", "P(y_x) + P(x,y') + P(x',y) - P(y_{x'})"),
    ("pn", "N1", "lower", "0"),
    ("pn", "N2", "lower", "(P(y) - P(y_{x'})) / P(x,y)"),
    ("pn", "M1", "upper", "1"),
    ("pn", "M2", "upper", "(P(y'_{x'}) - P(x',y')) / P(x,y)"),
    ("ps", "S1", "lower", "0"),
    ("ps", "S2", "lower", "(P(y') - P(y'_x)) / P(x',y')"),
    ("ps", "T1", "upper", "1"),
    ("ps", "T2", "upper", "(P(y_x) - P(x,y)) / P(x',y')"),
]


def test_bound_arguments_match_table():
    rows = [
        (name, arg.name, arg.side, arg.label)
        for name, t in TARGETS.items()
        for arg in t.lower + t.upper
    ]
    assert rows == ARGUMENT_TABLE


@pytest.mark.parametrize(
    "catalog,table,expected_count",
    [(PNS_CATALOG, PNS_TABLE, 21), (PN_CATALOG, PN_TABLE, 5), (PS_CATALOG, PS_TABLE, 5)],
    ids=["pns", "pn", "ps"],
)
def test_catalog_matches_published_table(catalog, table, expected_count):
    assert len(catalog) == expected_count == len(table)
    for entry, (center, premise) in zip(catalog, table):
        assert entry.center_label == center, entry.entry_id
        assert entry.premise_label == premise, entry.entry_id


def test_every_pair_is_covered():
    # 4x4 pairs for pns; the 3 informative pairs for pn and ps (the pairing
    # of the two constant arguments 0 and 1 carries no information)
    pairs = {(e.lower.name, e.upper.name) for e in PNS_CATALOG}
    assert len(pairs) == 16
    for cat, n_pairs in ((PN_CATALOG, 3), (PS_CATALOG, 3)):
        assert len({(e.lower.name, e.upper.name) for e in cat}) == n_pairs


def test_shared_premise_pairs_report_both_centers():
    # five pns pairs publish both the lower and the upper center
    by_pair = {}
    for e in PNS_CATALOG:
        by_pair.setdefault((e.lower.name, e.upper.name), set()).add(e.side)
    doubled = {pair for pair, sides in by_pair.items() if sides == {"lower", "upper"}}
    assert doubled == {("L2", "U3"), ("L3", "U1"), ("L3", "U3"), ("L4", "U2"), ("L4", "U3")}


def test_entry_ids_unique_and_ordered():
    for name, cat in CATALOGS.items():
        ids = [e.entry_id for e in cat]
        assert ids == [f"{name}-{k:02d}" for k in range(1, len(cat) + 1)]


# the oracle's 8 cells, (response type, arm of X) row-major
CELLS = [(t, arm) for t in oracle.RESPONSE_TYPES for arm in ("x", "x'")]
# the subpopulation whose mass is each argument's gap to its target (to the
# numerator for pn and ps): the argument is exact when it is empty
GAP_CELLS = {
    ("pns", "L1"): {("complier", "x"), ("complier", "x'")},
    ("pns", "L2"): {("defier", "x"), ("defier", "x'")},
    ("pns", "L3"): {("complier", "x'"), ("defier", "x")},
    ("pns", "L4"): {("complier", "x"), ("defier", "x'")},
    ("pns", "U1"): {("always_taker", "x"), ("always_taker", "x'")},
    ("pns", "U2"): {("never_taker", "x"), ("never_taker", "x'")},
    ("pns", "U3"): {("always_taker", "x"), ("never_taker", "x'")},
    ("pns", "U4"): {("always_taker", "x'"), ("never_taker", "x")},
    ("pn", "N1"): {("complier", "x")},
    ("pn", "N2"): {("defier", "x")},
    ("pn", "M1"): {("always_taker", "x")},
    ("pn", "M2"): {("never_taker", "x")},
    ("ps", "S1"): {("complier", "x'")},
    ("ps", "S2"): {("defier", "x'")},
    ("ps", "T1"): {("never_taker", "x'")},
    ("ps", "T2"): {("always_taker", "x'")},
}


def _cell_coefficients(expr) -> list[Fraction]:
    """A grouped expression's exact coefficient on each cell; the constant 1
    of a complement P(y'_t) is the sum of all cells."""
    rows = {atom: [Fraction(v) for v in row] for atom, row in oracle._ROWS.items()}
    out = [Fraction(0)] * len(CELLS)
    for coef, name in expr.terms:
        row = [sum(rows[atom][k] for atom in QUANTITY_ATOMS[name]) for k in range(len(CELLS))]
        if name in ONE_MINUS:
            row = [1 - v for v in row]
        out = [o + Fraction(coef) * v for o, v in zip(out, row)]
    return out


def test_every_argument_misses_its_target_by_one_named_subpopulation():
    # a data-independent identity: target - lower (or upper - target) is the
    # 0/1 mass of the argument's gap cells, so every argument is sound
    checked = set()
    for name, t in TARGETS.items():
        target = [Fraction(v) for v in oracle._OBJECTIVES[name]]
        for arg in t.lower + t.upper:
            value = _cell_coefficients(arg.expr)
            low, high = (value, target) if arg.side == "lower" else (target, value)
            gap = [h - l for l, h in zip(low, high)]
            expected = [int(cell in GAP_CELLS[name, arg.name]) for cell in CELLS]
            assert gap == expected, (name, arg.name, gap)
            checked.add((name, arg.name))
    assert checked == set(GAP_CELLS)
