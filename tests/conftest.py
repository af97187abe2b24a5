import sys

import pytest
from hypothesis import settings

from epsident import (
    ExperimentalDistribution,
    ObservationalDistribution,
    StudyCounts,
    from_counts,
)
from epsident import bounds, engine, report

# every property draws the same examples on every run: the seed is a hash of
# the test, so a failure reproduces without an example database
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


@pytest.fixture(autouse=True)
def _cold_scan_caches():
    """Start every test with empty scan, plan, key-line and oracle pattern
    caches, and with empty ``bounds`` caches (the compatibility violations
    in ``_violations``, the tight bounds in ``_target_bounds`` and each
    target's arguments in ``_target_arguments``), so that counts of the work
    a scan, a bound, a render or the oracle does never depend on which tests
    ran before.  Each plan's not-evaluated fragment stores its rendered texts
    on itself, so they go with the plans.  The oracle's cache is cleared only
    once something has imported it, so that this fixture never loads numpy."""
    bounds._violations.cache_clear()
    bounds._target_bounds.cache_clear()
    bounds._target_arguments.cache_clear()
    engine._profile.cache_clear()
    engine._effect_profile.cache_clear()
    engine._ranges.cache_clear()
    engine._plan.cache_clear()
    report._key_lines.cache_clear()
    oracle = sys.modules.get("epsident.oracle")
    if oracle is not None:
        oracle._pattern_system.cache_clear()


@pytest.fixture()
def running_exp():
    return ExperimentalDistribution(p_y_do_x=0.7, p_y_do_xp=0.3)


@pytest.fixture()
def running_obs():
    return ObservationalDistribution(p_xy=0.4, p_xyp=0.1, p_xpy=0.2, p_xpyp=0.3)


@pytest.fixture()
def point_exp():
    return ExperimentalDistribution(p_y_do_x=1.0, p_y_do_xp=0.0)


@pytest.fixture()
def point_obs():
    return ObservationalDistribution(p_xy=0.5, p_xyp=0.0, p_xpy=0.0, p_xpyp=0.5)


@pytest.fixture()
def medicine_obs():
    counts = StudyCounts(780, 480, 210, 30, kind="observational")
    return from_counts(counts)


@pytest.fixture()
def discount_exp():
    counts = StudyCounts(900, 600, 750, 750, kind="experimental")
    return from_counts(counts)
