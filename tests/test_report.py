import copy
import gc
import importlib
import json
import math
import pickle
import struct
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epsident
from epsident import engine
from epsident import report as report_module
from epsident.report import Fragment, canonicalize, parse_json, render_json

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


def cold_and_warm(report) -> list[str]:
    """The report rendered with empty key-line and plan caches, then again
    with its shapes cached and its fragments' texts stored."""
    report_module._key_lines.cache_clear()
    engine._plan.cache_clear()
    return [render_json(report), render_json(report)]


class Alias:
    """Not a str, yet hashes and compares equal to one."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return other == self.text

    def __repr__(self):
        return f"Alias({self.text!r})"


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


def _general_float_text(value: float) -> str:
    """The canonical text of a float by the format, parse and repr path."""
    return float.__repr__(report_module._canon_float(value))


class TestFloatText:
    # the one-format-call text must equal the general path's for every finite
    # float, and the non-finite must still raise
    EDGES = (
        -0.0, 0.0, 1e-4, 9.99999999999e-5, 999999999999.0, 999999999999.5, 1e12,
        2.0**53, 1e16, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
        -1.0, 1.0, 0.1, 1 / 3, 123456789012.0, -0.00012345678901234,
    )

    @pytest.mark.parametrize("value", EDGES)
    def test_edge_cases(self, value):
        floats = {}
        assert report_module._float_text(value, floats) == _general_float_text(value)
        assert floats[value] == _general_float_text(value)

    @settings(max_examples=2000)
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_matches_general_path(self, value):
        assert report_module._float_text(value, {}) == _general_float_text(value)

    @settings(max_examples=2000)
    @given(st.integers(0, 2**64 - 1))
    def test_matches_general_path_on_bit_patterns(self, bits):
        # every exponent, subnormals included, with equal weight
        (value,) = struct.unpack("<d", struct.pack("<Q", bits))
        assume(math.isfinite(value))
        assert report_module._float_text(value, {}) == _general_float_text(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, value):
        floats = {}
        with pytest.raises(ValueError) as exc:
            report_module._float_text(value, floats)
        assert str(exc.value) == f"reports cannot carry non-finite numbers, got {value!r}"
        assert not floats


class TestMatchesReference:
    @given(values)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_byte_identical(self, report):
        assert cold_and_warm(report) == [reference_render(report)] * 2

    @pytest.mark.parametrize("report", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 0, "",
                                        {"e": -0.0, "f": 0.1 + 0.2, "g": 2**70}])
    def test_edge_values(self, report):
        assert cold_and_warm(report) == [reference_render(report)] * 2

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
        expected = [reference_render(report) for report in reports]
        report_module._key_lines.cache_clear()
        assert [render_json(report) for report in reports] == expected
        cold = report_module._key_lines.cache_info()
        assert [render_json(report) for report in reports] == expected
        assert report_module._key_lines.cache_info().misses == cold.misses

    def test_one_key_set_in_two_orders_at_three_depths(self):
        # each insertion order at each depth is its own shape, and every one
        # of them is written in sorted key order
        ab, ba = {"a": 0.5, "b": "x"}, {"b": "x", "a": 0.5}
        report = {"a": ab, "b": ba, "c": [ab, ba, {"d": [ab, ba]}]}
        assert cold_and_warm(report) == [reference_render(report)] * 2
        # the report itself, ("d",), and both orders at each of three depths
        assert report_module._key_lines.cache_info().currsize == 2 + 2 * 3

    def test_subclass_values_under_a_cached_shape(self):
        plain = {"a": 1.25, "b": "x", "c": 2, "d": [0.5, "y", None]}
        subclassed = {"a": Float(2.5), "b": Str("z"), "c": Int(7), "d": [Float(0.5), Str("y"), Int(1)]}
        for report in (plain, subclassed, {Str("a"): Float(0.1), "b": 1, "c": Int(0), "d": []}):
            assert render_json(report) == reference_render(report)
        assert report_module._key_lines.cache_info().hits >= 2

    def test_signed_zero_and_nan_after_cached_floats(self):
        report = {"a": [-0.0, 0.0, -0.0], "b": 0.0, "c": -0.0, "d": [0.0, -0.0]}
        assert render_json(report) == reference_render(report)
        faulty = {"a": [0.25, 0.5, 0.25], "b": [0.5, 0.25, math.nan]}
        assert raised(render_json, faulty) == raised(reference_render, faulty)

    def test_key_line_cache_stays_bounded(self):
        size = report_module._KEY_LINES_CACHE_SIZE
        for i in range(10 * size):
            report = {f"k{i}": i / 7, "rows": [{f"r{i % 3}": None, "s": [i]}]}
            assert render_json(report) == reference_render(report)
        info = report_module._key_lines.cache_info()
        assert info.maxsize == size
        assert info.currsize <= size


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

    def test_non_str_key_equal_to_a_cached_key(self):
        # the alias matches the cached key tuple, so only its type can tell
        assert (Alias("a"), "b") == ("a", "b")
        assert render_json({"a": 1.0, "b": 2.0}) == reference_render({"a": 1.0, "b": 2.0})
        report = {Alias("a"): 1.0, "b": 2.0}
        assert raised(render_json, report) == raised(reference_render, report)
        assert raised(render_json, report)[1] == "report keys must be strings, got [Alias('a')]"

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


RECORDS = (
    {"entry_id": "pns-lower-1", "premise": "P(y'_x) <= 2*eps", "center": "P(y_x) - P(y_x')",
     "missing": ("p_y_do_x", "p_xy")},
    {"z": "\u00e9\u2028\ud800\"", "a": (), "m": ("",)},
)
record_texts = st.one_of(texts, st.lists(texts, max_size=3).map(tuple))
fragment_records = st.lists(st.dictionaries(texts, record_texts, max_size=4), max_size=4)


def _nest(value, depth: int):
    """``value`` placed ``depth`` containers deep, dicts and lists in turn."""
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    return value


class TestFragment:
    """A fragment renders like the list of its records, and stores the text."""

    def test_at_two_depths_cold_and_warm(self):
        fragment = Fragment(RECORDS)
        report = {"b": fragment, "a": [{"x": fragment}], "c": [RECORDS[0], fragment]}
        assert cold_and_warm(report) == [reference_render(report)] * 2
        assert len(fragment._texts) == 3

    @given(fragment_records, st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_any_records_at_any_two_depths(self, records, first, second):
        fragment = Fragment(records)
        report = {"a": _nest(fragment, first), "b": _nest(fragment, second)}
        assert cold_and_warm(report) == [reference_render(report)] * 2

    def test_scan_reports_cold_and_warm(self, running_exp):
        reports = [engine.eps_identify("pns", running_exp, eps=eps).to_json_dict()
                   for eps in (0.1, 0.2)]
        assert reports[0]["not_evaluated"] is reports[1]["not_evaluated"]
        report = {"scans": reports, "first": reports[0]}
        assert cold_and_warm(report) == [reference_render(report)] * 2

    @pytest.mark.parametrize(
        "record",
        [{"a": 0.5}, {"a": math.nan}, {1: "x"}, {Alias("a"): "x"}, {"a": Alias("x")},
         {"a": ["p_xy"]}, {"a": ("p_xy", 1)}, {"a": None}, {"a": {"b": "c"}}, "a", ("a", "b")],
        ids=["float", "nan", "int-key", "alias-key", "alias-value", "list", "tuple-of-int",
             "none", "dict", "str-record", "tuple-record"],
    )
    def test_refuses_anything_but_str_at_construction(self, record):
        with pytest.raises(ValueError):
            Fragment([RECORDS[0], record])

    def test_copies_are_equal_and_render_alike(self):
        fragment = Fragment(RECORDS)
        want = render_json({"f": fragment})
        for twin in (pickle.loads(pickle.dumps(fragment)), copy.deepcopy(fragment), Fragment(fragment)):
            assert twin == fragment and render_json({"f": twin}) == want

    def test_threads_sharing_a_fragment_print_identical_bytes(self):
        fragment = Fragment(RECORDS * 50)
        reports = [{"d": _nest(fragment, depth), "n": depth / 7} for depth in range(6)]
        want = [reference_render(report) for report in reports]
        got: list = []
        barrier = threading.Barrier(8)

        def render_all():
            barrier.wait(timeout=10)
            got.append([render_json(report) for report in reports for _ in range(20)])

        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(before)
        assert got == [[text for text in want for _ in range(20)]] * 8


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
