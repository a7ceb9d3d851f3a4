"""Acceptance gate: every criterion at its stated tolerance, one line each.

The criteria are the exact functions `doubletop selftest` runs; here each
gets its own test so `pytest -v` shows an individual pass/fail line.
"""

import time

import pytest

from doubletop.cli import SELFTEST_CRITERIA, SelftestContext


@pytest.fixture(scope="module")
def ctx():
    return SelftestContext()


@pytest.mark.parametrize(
    "num,label,fn", SELFTEST_CRITERIA,
    ids=["%02d_%s" % (num, label.replace(" ", "_"))
         for num, label, _ in SELFTEST_CRITERIA])
def test_criterion(num, label, fn, ctx):
    ok, detail = fn(ctx)
    assert ok, "criterion %d (%s): %s" % (num, label, detail)


def test_full_suite_runtime_single_core():
    # the whole acceptance run must finish well inside 60 s on one core
    t0 = time.perf_counter()
    fresh = SelftestContext()
    for _, _, fn in SELFTEST_CRITERIA:
        ok, detail = fn(fresh)
        assert ok, detail
    assert time.perf_counter() - t0 < 60.0
