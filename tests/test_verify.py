"""Verify-suite helpers against reference implementations kept here, and a
mutation check that the linear-scan check really compares two routes.
"""

import numpy as np
import pytest

from radialqc import build_standard_map, run_verification
from radialqc.powermap import PiecewisePowerMap, breakpoint_log2
from radialqc.verify import product_identities_worst


def product_identities_reference(K, depth):
    """All-pairs residuals row by row through fancy indexing."""
    lr = breakpoint_log2(K, np.arange(depth + 1))
    worst_even = 0.0
    for n in range(1, depth // 2 + 1):
        m = np.arange(0, depth - 2 * n + 1)
        res = np.abs(lr[2 * n] + lr[m] - lr[2 * n + m])
        worst_even = max(worst_even, float(res.max()))
    worst_odd = 0.0
    shift = 1.0 / K
    top = (depth - 1) // 2
    for n in range(0, top + 1):
        m = np.arange(0, top - n + 1)
        res = np.abs(lr[2 * n + 1] + lr[2 * m + 1] - lr[2 * (n + m) + 1] + shift)
        worst_odd = max(worst_odd, float(res.max()))
    return worst_even, worst_odd


@pytest.mark.parametrize("K", [2.0, 3.0, 1.37, 9.99])
@pytest.mark.parametrize("depth", [2, 3, 1999, 2000])
def test_product_identities_match_reference(K, depth):
    assert product_identities_worst(K, depth) == product_identities_reference(K, depth)


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_locate_check_catches_an_off_by_one_lookup(monkeypatch):
    assert _check(run_verification(depth=200), "locate_matches_linear_scan")["passed"]
    original = PiecewisePowerMap.locate_interval

    def off_by_one_below_minus_one(self, x):
        return original(self, x) + (np.asarray(x) < -1.0)

    monkeypatch.setattr(PiecewisePowerMap, "locate_interval", off_by_one_below_minus_one)
    assert build_standard_map(2.0).locate_interval(-2.0) == 3
    check = _check(run_verification(depth=200), "locate_matches_linear_scan")
    assert not check["passed"]
    assert check["measured"] > 0.0
