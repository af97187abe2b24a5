import gc
import importlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsident
from epsident.report import canonicalize, parse_json, render_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# The renderer before the single-walk one, kept verbatim as the reference
# that render_json must equal byte for byte and error for error.
def reference_render(report: dict) -> str:
    return json.dumps(canonicalize(report), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


class Str(str):
    def __repr__(self):
        return "Str()"


class Int(int):
    def __repr__(self):
        return "Int()"

    __str__ = __repr__


class Float(float):
    def __repr__(self):
        return "Float()"

    __str__ = __repr__


# every code point, lone surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=12)
keys = st.one_of(texts, texts.map(Str))
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    # a 5 in the 13th significant digit: rounds at the 12th, half-way in decimal
    st.builds(lambda m, e, sign: sign * float(f"{m}5e{e}"),
              st.integers(10**11, 10**12 - 1), st.integers(-330, 290), st.sampled_from([1, -1])),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), floats, texts,
    texts.map(Str), st.integers().map(Int), floats.map(Float),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)
FAULTS = [math.inf, -math.inf, math.nan, Float("inf"), set(), frozenset(), b"x", bytearray(),
          object(), complex(1, 0), {1: "x"}, {"a": 1, 2: "b", None: 0}]


def raised(render, report) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        render(report)
    return type(info.value), str(info.value)


def _containers(obj) -> list:
    """Every list and dict in ``obj``, outermost first."""
    found = [obj] if isinstance(obj, (list, dict)) else []
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()
    for child in children:
        found += _containers(child)
    return found


def test_sorted_keys_and_trailing_newline():
    text = render_json({"b": 1, "a": 2})
    assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_floats_normalized_to_12_significant_digits():
    value = 0.6203351206434317
    out = canonicalize({"q": value})
    assert out["q"] == float(f"{value:.12g}")


def test_negative_zero_normalized():
    assert canonicalize(-0.0) == 0.0
    assert math.copysign(1.0, canonicalize(-0.0)) == 1.0


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json({"x": math.inf})


def test_rejects_non_string_keys():
    with pytest.raises(ValueError):
        render_json({1: "x"})


def test_round_trip_byte_identical():
    report = {
        "bounds": {"pns": {"lo": 0.4, "hi": 0.7000000001}},
        "values": [1 / 3, 2 / 7, 1e-12, 123456789.123456789],
        "flags": [True, False, None],
        "name": "report",
    }
    once = render_json(report)
    again = render_json(parse_json(once))
    assert once == again


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_canonicalization_idempotent(x):
    once = canonicalize(x)
    assert canonicalize(once) == once


class TestMatchesReference:
    @given(values)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_byte_identical(self, report):
        assert render_json(report) == reference_render(report)

    @pytest.mark.parametrize("report", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 0, "",
                                        {"e": -0.0, "f": 0.1 + 0.2, "g": 2**70}])
    def test_edge_values(self, report):
        assert render_json(report) == reference_render(report)

    def test_perfbench_reports(self, monkeypatch):
        # the certify_mix workload's reports: whole studies, refusals included
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads, studies = (importlib.import_module(m) for m in ("workloads", "studies"))
        reports = []
        layers = workloads.Layers(epsident)
        layers.fn["report.render_json"] = lambda report: reports.append(report) or ""
        for index in range(12):
            for study in studies.make_round(7, index, with_refusal=True):
                workloads.certify(layers, study)
        assert len(reports) == 12 * 9
        for report in reports:
            assert render_json(report) == reference_render(report)


class TestErrorParity:
    """A report with one fault raises the reference's ValueError, message and all."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_deep_in_a_list(self, bad):
        report = {"b": [1.0, {"c": [0.5, [[2.0, bad], "x"]]}], "a": [None, 0.25]}
        assert raised(render_json, report) == raised(reference_render, report)

    @pytest.mark.parametrize("bad_keys", [{1: "x"}, {"z": 0, 1.5: 1, None: 2, "a": 3}, {(1, 2): 0}])
    def test_non_string_key_in_a_nested_dict(self, bad_keys):
        # mixed key types cannot be sorted: the keys are checked first
        report = {"z": {"y": [bad_keys], "a": 1.0}, "a": "first"}
        assert raised(render_json, report) == raised(reference_render, report)
        assert raised(render_json, report)[1].startswith("report keys must be strings, got [")

    # a bare object's repr carries its address, so it gets a fixed test id
    @pytest.mark.parametrize(
        "bad", [set(), {1}, b"bytes", object()], ids=["set()", "{1}", "b'bytes'", "object()"]
    )
    def test_unsupported_type(self, bad):
        report = {"a": [{"b": ("c", bad)}], "z": 1}
        assert raised(render_json, report) == raised(reference_render, report)

    @given(st.dictionaries(keys, values, max_size=5), st.sampled_from(FAULTS), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_one_fault_anywhere(self, report, fault, data):
        target = data.draw(st.sampled_from(_containers(report)))
        if isinstance(target, list):
            target.insert(data.draw(st.integers(0, len(target))), fault)
        else:
            target[data.draw(texts.filter(lambda key: key not in target))] = fault
        assert raised(render_json, report) == raised(reference_render, report)


def test_render_leaves_no_reference_cycle():
    # a cycle per call would keep each call's parts alive until the collector ran
    report = {"rows": [{f"k{i}": [i / 7, str(i), None, {"x": [i, True]}, ()]} for i in range(2000)]}
    gc.collect()
    gc.disable()
    try:
        render_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
