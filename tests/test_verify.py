"""Verify-suite helpers against reference implementations kept here, the
product-identity band against the all-pairs reference where it covers every
pair and its power on an error far beyond it, the helpers' input checks, and a
mutation check that the linear-scan check really compares two routes.
"""

import warnings

import numpy as np
import pytest

from radialqc import build_standard_map, run_verification, verify
from radialqc.powermap import PiecewisePowerMap, breakpoint_log2
from radialqc.verify import product_identities_worst, recurrence_vs_closed_worst


def product_identities_reference(K, depth, rows=None, log2=breakpoint_log2):
    """Residuals row by row through fancy indexing, full rows and no mirrored
    pairs skipped: of all pairs, or of the rows n < ``rows`` of each identity,
    with the breakpoints given by ``log2(K, n)``."""
    rows = depth if rows is None else rows
    lr = log2(K, np.arange(depth + 1))
    worst_even = 0.0
    for n in range(1, min(depth // 2 + 1, rows)):
        m = np.arange(0, depth - 2 * n + 1)
        res = np.abs(lr[2 * n] + lr[m] - lr[2 * n + m])
        worst_even = max(worst_even, float(res.max()))
    worst_odd = 0.0
    shift = 1.0 / K
    top = (depth - 1) // 2
    for n in range(0, min(top + 1, rows)):
        m = np.arange(0, top - n + 1)
        res = np.abs(lr[2 * n + 1] + lr[2 * m + 1] - lr[2 * (n + m) + 1] + shift)
        worst_odd = max(worst_odd, float(res.max()))
    return worst_even, worst_odd


def recurrence_reference(K, depth):
    """The recurrence one step at a time through a Python Neumaier loop."""
    n = np.arange(1, depth + 1)
    k_n = np.where(n % 2 == 1, K, 1.0 / K)
    recurrence = np.empty(depth)
    total = comp = 0.0
    for i, step in enumerate((-1.0 / k_n).tolist()):
        t = total + step
        if abs(total) >= abs(step):
            comp += (total - t) + step
        else:
            comp += (step - t) + total
        total = t
        recurrence[i] = total + comp
    return float(np.max(np.abs(breakpoint_log2(K, n) - recurrence)))


def multiplicativity_reference(f, grid):
    """Worst even-scale multiplicativity residual, f.eval_log(grid) evaluated
    again and each scale taken by a one-point call, shift by shift."""
    return max(
        float(np.max(np.abs(f.eval_log(grid + f.breakpoint(2 * j)) - f.eval_log(grid) + 2 * j)))
        for j in np.arange(1, 26)
    )


BIT_CHECK_KS = [2.0, 3.0, 1.37, 9.99, 1000.0, 1e5, 1.0001]


@pytest.mark.parametrize("K", BIT_CHECK_KS)
@pytest.mark.parametrize("depth", [2, 3, 8191, 8192, 8193, 10_000, 30_000])
def test_recurrence_matches_the_loop_bit_for_bit(K, depth):
    assert recurrence_vs_closed_worst(K, depth).hex() == recurrence_reference(K, depth).hex()


@pytest.mark.parametrize("K", BIT_CHECK_KS)
@pytest.mark.parametrize("grid_points", [2, 1000])
def test_multiplicativity_matches_the_per_shift_expression(K, grid_points):
    report = run_verification(K=K, depth=2, grid_points=grid_points)
    grid = np.linspace(-3.0 * (K + 1.0 / K), 0.0, grid_points)  # run_verification's grid
    expected = multiplicativity_reference(build_standard_map(K), grid)
    assert _check(report, "even_scale_multiplicativity")["measured"].hex() == expected.hex()


_BAND = verify._BAND_ROWS
PRODUCT_KS = [2.0, 3.0, 1.37, 9.99, 1000.0]


def _hex(values):
    return tuple(value.hex() for value in values)


@pytest.mark.parametrize("K", PRODUCT_KS)
@pytest.mark.parametrize("depth", [2, 3, *range(2 * _BAND - 4, 2 * _BAND + 5), 1999, 2000, 10_000])
def test_product_identities_match_the_band_reference(K, depth):
    assert _hex(product_identities_worst(K, depth)) == _hex(
        product_identities_reference(K, depth, _BAND))


@pytest.mark.parametrize("K", PRODUCT_KS)
@pytest.mark.parametrize("depth", range(2, 2 * _BAND + 1))
def test_the_band_covers_every_pair_up_to_twice_its_rows(K, depth):
    # at depth 2 * _BAND the one pair it leaves out, r_{2 _BAND} + r_0 - r_{2 _BAND}, is +0.0
    assert _hex(product_identities_worst(K, depth)) == _hex(
        product_identities_reference(K, depth))


@pytest.mark.parametrize("K", [1.37, 3.0])
@pytest.mark.parametrize("index", [9000, 9001])
def test_the_band_sees_an_error_far_beyond_its_rows(monkeypatch, K, index):
    # 1.1e-9 at one index is above the 1e-9 tolerance, and it enters the row of r_2
    # (and of r_3, for an odd index) however far beyond the band the index lies
    exact = breakpoint_log2
    monkeypatch.setattr(verify, "breakpoint_log2",
                        lambda K, n: exact(K, n) + np.where(n == index, 1.1e-9, 0.0))
    even, odd = product_identities_worst(K, 10_000)
    assert even > 1e-9
    assert (odd > 1e-9) == (index % 2 == 1)


#: one-index errors inside the band, on and around its edges at rows 64 and 128,
#: and beyond it up to the last index at depth 2000
SPIKE_INDICES = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 130, 999, 1000, 1342, 1901, 2000]


@pytest.mark.parametrize("K", [1.37, 3.0])
@pytest.mark.parametrize("spike", [1.1e-9, -1.1e-9])
@pytest.mark.parametrize("index", SPIKE_INDICES)
def test_the_band_flags_a_one_index_error_as_the_all_pairs_scan_does(monkeypatch, K, spike, index):
    # the even identity carries every index and the odd one every odd index
    exact = breakpoint_log2

    def spiked(K, n):
        return exact(K, n) + np.where(n == index, spike, 0.0)

    monkeypatch.setattr(verify, "breakpoint_log2", spiked)
    band = product_identities_worst(K, 2000)
    # a spike of either sign moves a row's max or its min, the two ends kept per row
    assert _hex(band) == _hex(product_identities_reference(K, 2000, rows=_BAND, log2=spiked))
    every_pair = product_identities_reference(K, 2000, log2=spiked)
    flagged = (True, index % 2 == 1)
    assert tuple(value > 1e-9 for value in band) == flagged
    assert tuple(value > 1e-9 for value in every_pair) == flagged


#: ``product_identities_worst(K, 30000)`` as ``float.hex``, a depth at which the
#: row-by-row reference is too slow for Tier-1; taken from the scan that
#: subtracted t[a + b] pair by pair, before it ran along the diagonals a + b
PINNED_AT_DEPTH_30000 = {
    3.0: ("0x1.0000000000000p-37", "0x1.5555000000000p-38"),
    9.99: ("0x1.0000000000000p-34", "0x1.0668080000000p-34"),
    1.37: ("0x1.0000000000000p-37", "0x1.56e4000000000p-37"),
}


@pytest.mark.parametrize("K", sorted(PINNED_AT_DEPTH_30000))
def test_product_identities_match_pinned_values_at_depth_30000(K):
    worst = product_identities_worst(K, 30_000)
    assert tuple(value.hex() for value in worst) == PINNED_AT_DEPTH_30000[K]


#: ``measured`` of the construction checks, as ``float.hex``, taken before the
#: product-identity scan was tiled; they use only + - * / on doubles, so every
#: IEEE platform gives these bits
CONSTRUCTION_CHECKS = ("breakpoints_closed_form_vs_recurrence", "coefficient_anchor_identity",
                       "branch_continuity_at_breakpoints", "breakpoint_product_identity_even",
                       "breakpoint_product_identity_odd_shifted")
GOLDEN_MEASURED = {
    (2.0, 10_000): ("0x0.0p+0",) * 5,
    (3.0, 10_000): ("0x0.0p+0", "0x1.0000000000000p-40", "0x1.0000000000000p-40",
                    "0x1.0000000000000p-38", "0x1.5556000000000p-39"),
    (1.37, 10_000): ("0x1.0000000000000p-39", "0x1.0000000000000p-38", "0x1.0000000000000p-38",
                     "0x1.0000000000000p-38", "0x1.a470000000000p-39"),
    (2.0, 30_000): ("0x0.0p+0",) * 5,
}


@pytest.mark.parametrize("K, depth", sorted(GOLDEN_MEASURED))
def test_construction_checks_match_golden_values(K, depth):
    report = run_verification(K=K, depth=depth)
    measured = tuple(_check(report, name)["measured"].hex() for name in CONSTRUCTION_CHECKS)
    assert measured == GOLDEN_MEASURED[(K, depth)]


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


def test_breakpoints_guarded_within_the_verify_depth():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_standard_map(6e5)  # distinct up to index 10^4 ...
        with pytest.raises(ValueError, match="coincide"):
            run_verification(K=6e5, depth=30_000)  # ... but not up to 30000
        with pytest.raises(ValueError, match="coincide"):
            run_verification(K=2e6, depth=200)
        for bad_depth in (1, 0):
            with pytest.raises(ValueError):
                run_verification(depth=bad_depth)
        with pytest.raises(TypeError):
            run_verification(depth=200.5)


BAD_HELPER_INPUTS = [
    ("anchor_identity_worst", (2.0, True), TypeError, "depth"),
    ("breakpoint_image_worst", (build_standard_map(2.0), True), TypeError, "depth"),
    ("product_identities_worst", (2.0, 0), ValueError, "depth"),
    ("continuity_worst", (2.0, 1), ValueError, "depth"),
    ("recurrence_vs_closed_worst", (2.0, 0), ValueError, "depth"),
    ("recurrence_vs_closed_worst", (2.0, 2.5), TypeError, "depth"),
    ("breakpoint_image_worst", ("f", 10), TypeError, "PiecewisePowerMap"),
    ("recurrence_vs_closed_worst", (1.0, 10), ValueError, "K"),
    ("anchor_identity_worst", (True, 10), TypeError, "K"),
    ("continuity_worst", ("2", 10), TypeError, "K"),
    ("product_identities_worst", (float("nan"), 10), ValueError, "K"),
]


@pytest.mark.parametrize("helper, args, error, match", BAD_HELPER_INPUTS,
                         ids=[f"{name}{args!r}" for name, args, _, _ in BAD_HELPER_INPUTS])
def test_helpers_check_their_inputs_before_any_work(monkeypatch, helper, args, error, match):
    def no_work(*args):
        raise AssertionError("a helper computed before checking its inputs")

    monkeypatch.setattr(verify, "breakpoint_log2", no_work)
    monkeypatch.setattr(PiecewisePowerMap, "breakpoint", no_work)
    with pytest.raises(error, match=match):
        getattr(verify, helper)(*args)


F2 = build_standard_map(2.0)

#: every call that reads ``depth``: the five helpers and the suite itself
DEPTH_CALLS = {
    "recurrence_vs_closed_worst": lambda depth: verify.recurrence_vs_closed_worst(2.0, depth),
    "anchor_identity_worst": lambda depth: verify.anchor_identity_worst(2.0, depth),
    "continuity_worst": lambda depth: verify.continuity_worst(2.0, depth),
    "product_identities_worst": lambda depth: verify.product_identities_worst(2.0, depth),
    "breakpoint_image_worst": lambda depth: verify.breakpoint_image_worst(F2, depth),
    "run_verification": lambda depth: run_verification(depth=depth),
}


@pytest.mark.parametrize("depth", [2**24 + 1, 2**40, 2**62, 2**63, 10**30])
@pytest.mark.parametrize("call", DEPTH_CALLS.values(), ids=DEPTH_CALLS)
def test_depth_bound_checked_before_any_allocation(monkeypatch, call, depth):
    # 2**40 used to ask numpy for 8 TiB, and 2**63 made np.arange silently empty
    def no_work(*args, **kwargs):
        raise AssertionError("work started before depth was checked")

    for owner, name in ((verify, "breakpoint_log2"), (verify, "build_standard_map"),
                        (PiecewisePowerMap, "breakpoint"), (np, "arange")):
        monkeypatch.setattr(owner, name, no_work)
    with pytest.raises(ValueError, match=r"^depth must be at most 2\*\*24$"):
        call(depth)


@pytest.mark.parametrize("K", [2.0, 15.0])
def test_report_rows_judge_themselves(K):
    # K = 15 fails h_forwards_breakpoints, so both outcomes of a row are seen
    report = run_verification(K=K)
    rows = report["checks"]
    assert len(rows) == 42
    for row in rows:
        assert list(row) == ["name", "measured", "threshold", "comparison", "passed"]
        assert type(row["measured"]) is float and type(row["passed"]) is bool
        below = row["measured"] <= row["threshold"]
        above = row["measured"] >= row["threshold"]
        assert row["passed"] == {"<=": below, ">=": above}[row["comparison"]], row
    failed = [row["name"] for row in rows if not row["passed"]]
    assert failed == ([] if K == 2.0 else ["h_forwards_breakpoints"])
    assert (report["passed"], report["failed"]) == (42 - len(failed), len(failed))
    assert report["all_passed"] == (not failed)


def test_parameters_checked_before_any_check_runs(monkeypatch):
    def no_build(K):
        raise AssertionError("a check ran before the parameters were validated")

    monkeypatch.setattr(verify, "build_standard_map", no_build)
    for bad in ({"dimension": 1}, {"tol": 0.0}, {"tol": -1e-9}, {"tol": float("nan")},
                {"tol": float("inf")}, {"depth": 1}):
        with pytest.raises(ValueError):
            run_verification(**bad)
    for bad in (0, 1):
        with pytest.raises(ValueError, match="grid_points"):
            run_verification(grid_points=bad)
    for bad in ({"dimension": 2.5}, {"grid_points": 3.5}, {"tol": "1e-9"}, {"tol": True}):
        with pytest.raises(TypeError):
            run_verification(**bad)
