import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epsident import EmptyInterval, Interval
from epsident.config import get_tolerance, set_tolerance

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_basic_properties():
    iv = Interval(0.2, 0.8)
    assert iv.width == pytest.approx(0.6)
    assert iv.midpoint == pytest.approx(0.5)
    assert iv.contains(0.2) and iv.contains(0.8)
    assert not iv.contains(0.81)
    assert iv.as_tuple() == (0.2, 0.8)
    lo, hi = iv
    assert (lo, hi) == (0.2, 0.8)


def test_empty_raises():
    with pytest.raises(EmptyInterval):
        Interval(0.5, 0.4)
    with pytest.raises(EmptyInterval):
        Interval(math.nan, 1.0)
    with pytest.raises(EmptyInterval):
        Interval(0.0, math.inf)


def test_tolerance_snap():
    iv = Interval(0.5 + 1e-12, 0.5)
    assert iv.lo == iv.hi == pytest.approx(0.5)


def test_clamp_and_intersect():
    iv = Interval(-0.2, 1.4)
    assert iv.clamped().as_tuple() == (0.0, 1.0)
    assert Interval(0.0, 0.6).intersect(Interval(0.4, 1.0)).as_tuple() == (0.4, 0.6)
    with pytest.raises(EmptyInterval):
        Interval(0.0, 0.3).intersect(Interval(0.5, 1.0))


@given(a=finite, b=finite, x=finite)
def test_contains_consistency(a, b, x):
    lo, hi = min(a, b), max(a, b)
    iv = Interval(lo, hi)
    if lo <= x <= hi:
        assert iv.contains(x)
    if iv.contains(x, tol=0.0):
        assert lo <= x <= hi


@given(a=finite, b=finite, c=finite, d=finite)
def test_containment_transitive_with_intersection(a, b, c, d):
    outer = Interval(min(a, b), max(a, b))
    inner = Interval(min(c, d), max(c, d))
    if outer.contains_interval(inner, tol=0.0):
        got = outer.intersect(inner)
        assert got.lo == pytest.approx(inner.lo)
        assert got.hi == pytest.approx(inner.hi)


class TestRecord:
    # Interval has its own constructor; it must behave as the dataclass one
    # did with validation after it

    def test_positional_and_keyword_construction(self):
        assert Interval(0.2, 0.8) == Interval(lo=0.2, hi=0.8) == Interval(0.2, hi=0.8)
        with pytest.raises(TypeError):
            Interval(0.2)
        with pytest.raises(TypeError):
            Interval(0.2, 0.8, 0.9)

    def test_endpoints_become_floats(self):
        iv = Interval(0, 1)
        assert type(iv.lo) is float and type(iv.hi) is float
        assert iv.as_tuple() == (0.0, 1.0)

    def test_replace_validates(self):
        iv = Interval(0.2, 0.8)
        assert dataclasses.replace(iv, hi=0.9) == Interval(0.2, 0.9)
        mid = 0.5 * ((0.8 + 1e-12) + 0.8)
        assert dataclasses.replace(iv, lo=0.8 + 1e-12).as_tuple() == (mid, mid)
        with pytest.raises(EmptyInterval):
            dataclasses.replace(iv, lo=0.9)

    def test_snaps_to_the_midpoint_within_tolerance(self):
        lo, hi = 0.5 + 1e-10, 0.5
        iv = Interval(lo, hi)
        assert iv.lo == iv.hi == 0.5 * (lo + hi)
        before = get_tolerance()
        try:
            set_tolerance(1e-11)
            with pytest.raises(EmptyInterval, match="exceeds"):
                Interval(lo, hi)
        finally:
            set_tolerance(before)

    @pytest.mark.parametrize("lo, hi", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf),
    ])
    def test_non_finite_is_empty(self, lo, hi):
        with pytest.raises(EmptyInterval, match="must be finite"):
            Interval(lo, hi)

    def test_reversed_beyond_tolerance_is_empty(self):
        with pytest.raises(EmptyInterval, match=r"lo=0\.5 exceeds hi=0\.4"):
            Interval(0.5, 0.4)

    def test_pickle_and_copy(self):
        iv = Interval(0.25, 0.75)
        for twin in (pickle.loads(pickle.dumps(iv)), copy.copy(iv), copy.deepcopy(iv)):
            assert twin == iv and type(twin) is Interval
            assert twin.as_tuple() == (0.25, 0.75)

    def test_equality_hash_and_immutability(self):
        a, b = Interval(0.25, 0.75), Interval(0.25, 0.75)
        assert a == b and hash(a) == hash(b)
        assert a != Interval(0.25, 0.5)
        assert len({a, b, Interval(0.25, 0.5)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.lo = 0.0
        assert repr(a) == "Interval(lo=0.25, hi=0.75)"
