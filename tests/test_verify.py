"""Verify-suite helpers against reference implementations kept here, the
blocked checks against whole-array references on and around the block edges,
the product-identity band against the all-pairs reference where it covers every
pair and its power on an error far beyond it, the helpers' input checks, the
suite's traced memory, its fixed sample points, and a mutation check that the
linear-scan check really compares two routes.
"""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from radialqc import (build_conjugated_map, build_standard_map, example_1d_mean_radius,
                      example_1d_rescaled, finite_difference_distortion, limit_function,
                      powermap, radial_power_distortion, run_verification, verify)
from radialqc.distortion import _finite_difference, _linear_radial_eval, _weyl
from radialqc.powermap import PiecewisePowerMap, _blocked_max, breakpoint_log2
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
_B = powermap._BLOCK
#: depths on and around the block edges: the last block one short of full, full,
#: one lane long, and one lane long after two full blocks
BLOCK_EDGE_DEPTHS = [_B - 1, _B, _B + 1, 2 * _B + 1]


@pytest.mark.parametrize("K", BIT_CHECK_KS)
@pytest.mark.parametrize("depth", [2, 3, *BLOCK_EDGE_DEPTHS, 8191, 8192, 8193, 10_000, 30_000])
def test_recurrence_matches_the_loop_bit_for_bit(K, depth):
    assert recurrence_vs_closed_worst(K, depth).hex() == recurrence_reference(K, depth).hex()


#: grid sizes beyond 2 and 1000 cut the 25 even-scale rows into blocks of 25,
#: of 3 (the last one row) and of 1 (a grid longer than a block) rows
@pytest.mark.parametrize("K", BIT_CHECK_KS)
@pytest.mark.parametrize("grid_points", [2, 1000, _B // 25, _B // 3, _B + 1])
def test_multiplicativity_matches_the_per_shift_expression(K, grid_points):
    report = run_verification(K=K, depth=2, grid_points=grid_points)
    grid = np.linspace(-3.0 * (K + 1.0 / K), 0.0, grid_points)  # run_verification's grid
    expected = multiplicativity_reference(build_standard_map(K), grid)
    assert _check(report, "even_scale_multiplicativity")["measured"].hex() == expected.hex()


def anchor_reference(K, depth):
    """Worst anchor residual over the whole index array at once."""
    n = np.arange(1, depth + 1)
    k = np.where(n & 1, K, 1.0 / K)
    return float(np.max(np.abs(verify._coefficient_log2(K, n) + n + k * breakpoint_log2(K, n))))


def continuity_reference(K, depth):
    """Worst branch mismatch over the whole index array at once."""
    n = np.arange(1, depth + 1)
    k = np.where(n & 1, K, 1.0 / K)
    lr = breakpoint_log2(K, n[:-1])
    log2_C = verify._coefficient_log2(K, n)
    return float(np.max(np.abs((log2_C[:-1] + k[:-1] * lr) - (log2_C[1:] + k[1:] * lr))))


def image_reference(f, depth):
    """Worst |log2 f(r_n) + n| over the whole index array at once."""
    n = np.arange(0, depth + 1)
    return float(np.max(np.abs(f.eval_log(f.breakpoint(n)) + n)))


def consecutive_breakpoints_reference(K, depth):
    """The strict-decrease margin and the worst |h(r_n) - r_{n+1}|, from all of
    log2 r_0 .. r_depth at once."""
    lr = breakpoint_log2(K, np.arange(depth + 1))
    h = build_conjugated_map(build_standard_map(K))
    return float((-np.diff(lr)).min()), float(np.max(np.abs(h.eval_log(lr[:-1]) - lr[1:])))


BLOCK_EDGE_KS = [1.37, 2.0, 3.0, 9.99]


@pytest.mark.parametrize("K", BLOCK_EDGE_KS)
@pytest.mark.parametrize("depth", BLOCK_EDGE_DEPTHS)
def test_blocked_construction_checks_match_whole_array_references(K, depth):
    f = build_standard_map(K)
    assert verify.anchor_identity_worst(K, depth).hex() == anchor_reference(K, depth).hex()
    assert verify.continuity_worst(K, depth).hex() == continuity_reference(K, depth).hex()
    assert verify.breakpoint_image_worst(f, depth).hex() == image_reference(f, depth).hex()


@pytest.mark.parametrize("K", BLOCK_EDGE_KS)
@pytest.mark.parametrize("depth", BLOCK_EDGE_DEPTHS)
def test_blocked_breakpoint_pass_matches_whole_array_reference(K, depth):
    report = run_verification(K=K, depth=depth, grid_points=2)
    measured = tuple(_check(report, name)["measured"] for name in
                     ("breakpoint_strict_decrease_margin", "h_forwards_breakpoints"))
    assert _hex(measured) == _hex(consecutive_breakpoints_reference(K, depth))


#: indices on both sides of each block edge at depth 2B + 1, whose last block
#: holds one index alone
EDGE_INDICES = [1, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1]


def _spiked_at(index):
    return lambda K, n: breakpoint_log2(K, n) + np.where(n == index, 1e-6, 0.0)


@pytest.mark.parametrize("index", EDGE_INDICES)
def test_an_error_at_a_block_edge_is_reported(monkeypatch, index):
    K, depth = 3.0, 2 * _B + 1
    monkeypatch.setattr(verify, "breakpoint_log2", _spiked_at(index))
    assert verify.recurrence_vs_closed_worst(K, depth) > 1e-9
    assert verify.anchor_identity_worst(K, depth) > 1e-9
    # continuity reads the breakpoints 1 .. depth - 1
    assert (verify.continuity_worst(K, depth) > 1e-9) == (index < depth)
    monkeypatch.undo()

    f, exact = build_standard_map(K), PiecewisePowerMap.breakpoint
    monkeypatch.setattr(PiecewisePowerMap, "breakpoint",
                        lambda self, n: exact(self, n) + np.where(n == index, 1e-6, 0.0))
    assert verify.breakpoint_image_worst(f, depth) > 1e-9
    monkeypatch.undo()

    # the guard's pass reads r_0 .. r_depth for h_forwards_breakpoints
    monkeypatch.setattr(powermap, "breakpoint_log2", _spiked_at(index))
    report = run_verification(K=K, depth=depth, grid_points=2)
    assert not _check(report, "h_forwards_breakpoints")["passed"]


@pytest.mark.parametrize("index", EDGE_INDICES)
def test_breakpoints_that_coincide_at_a_block_edge_are_refused(monkeypatch, index):
    # r_index moved onto r_{index - 1}: the guard reads each consecutive pair
    K, depth = 3.0, 2 * _B + 1
    monkeypatch.setattr(powermap, "breakpoint_log2", lambda K, n: breakpoint_log2(
        K, np.where(n == index, index - 1, n)))
    with pytest.raises(ValueError, match="coincide"):
        run_verification(K=K, depth=depth, grid_points=2)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_blocked_max_lets_a_nan_of_any_block_through(at):
    blocks = [1.0, 3.0, 2.0]
    blocks[at] = float("nan")
    assert np.isnan(_blocked_max(lambda i, j: blocks[i // _B], 3 * _B))


def test_blocked_max_reads_each_block_once_in_order():
    seen = []

    def block(i, j):
        seen.append((i, j))
        return -i, float(j)

    assert tuple(_blocked_max(block, 2 * _B + 1)) == (0, 2 * _B + 1)
    assert seen == [(0, _B), (_B, 2 * _B), (2 * _B, 2 * _B + 1)]
    assert _blocked_max(lambda i, j: j - i, 0) == 0  # one empty block
    assert _blocked_max(lambda i, j: j - i, 7, 3) == 3


@pytest.mark.parametrize("settings, limit_mib", [
    ({"depth": 2, "grid_points": 2**18}, 64),  # 406 MiB with the zoom checks' whole table
    ({"depth": 2**20}, 32),  # 88 MiB with whole-depth temporaries
])
def test_traced_peak_of_the_suite_stays_small(settings, limit_mib):
    tracemalloc.start()
    try:
        run_verification(**settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


_BAND = verify._BAND_ROWS
PRODUCT_KS = [2.0, 3.0, 1.37, 9.99, 1000.0]


def _hex(values):
    return tuple(value.hex() for value in values)


@pytest.mark.parametrize("K", PRODUCT_KS)
@pytest.mark.parametrize("depth", [2, 3, *range(2 * _BAND - 4, 2 * _BAND + 5), 1999, 2000, 10_000,
                                   # the band's column blocks: on and around the first edge,
                                   # and where the first block's rows read past it
                                   *range(2 * _B - 3, 2 * _B + 2), 2 * (_B + _BAND) + 1])
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


@pytest.mark.parametrize("index", [2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * (_B + _BAND) - 1,
                                   2 * (_B + _BAND), 2 * (_B + _BAND) + 1, 2 * _B + 300])
def test_the_band_flags_a_one_index_error_across_its_column_blocks(monkeypatch, index):
    # the columns run in blocks of _B, each computing the breakpoints its rows
    # read: an error on and around a block edge moves the band as it moves the reference
    exact = breakpoint_log2

    def spiked(K, n):
        return exact(K, n) + np.where(n == index, 1.1e-9, 0.0)

    monkeypatch.setattr(verify, "breakpoint_log2", spiked)
    band = product_identities_worst(3.0, 2 * _B + 300)
    assert _hex(band) == _hex(product_identities_reference(3.0, 2 * _B + 300, _BAND, spiked))
    assert band[0] > 1e-9 and (band[1] > 1e-9) == (index % 2 == 1)


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


@pytest.mark.parametrize("K", [1.37, 2.0, 3.0, 9.99])
def test_the_suite_samples_its_fixed_point_sets(monkeypatch, K):
    # the ivt targets: 100 distinct radii with a spread-out bracket, each target
    # inside its middle 80%; the finite-difference check: 300 distinct radii
    ivt_calls, fd_radii = [], []
    real_ivt_sample, real_fd = verify.ivt_sample, verify._finite_difference

    def ivt_sample(map_, r0, lam, tol, period_index=1):
        ivt_calls.append((r0, lam, period_index))
        return real_ivt_sample(map_, r0, lam, tol, period_index)

    def finite_difference(f, d, r, step):  # the estimate takes the radius, not its log2
        fd_radii.append(math.log2(r))
        return real_fd(f, d, r, step)

    monkeypatch.setattr(verify, "ivt_sample", ivt_sample)
    monkeypatch.setattr(verify, "_finite_difference", finite_difference)
    run_verification(K)
    f = build_standard_map(K)
    period = K + 1.0 / K
    (r0, lam, index), = [call for call in ivt_calls if np.ndim(call[0]) == 1]
    assert index == 1 and r0.shape == lam.shape == (100,) and len(set(r0.tolist())) == 100
    assert np.all((-3.0 * period < r0) & (r0 <= -0.05))
    a, b = limit_function(f, "P1").eval_log(r0), limit_function(f, "P2").eval_log(r0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert np.all(hi - lo >= 0.05)
    assert np.all((lo + 0.1 * (hi - lo) <= lam) & (lam <= hi - 0.1 * (hi - lo)))
    assert len(fd_radii) == len(set(fd_radii)) == 300
    assert all(-6.0 <= x < -0.05 for x in fd_radii)



@pytest.mark.parametrize("K", [1.0001, 1.01, 1.025, 1.03])
def test_the_ivt_check_keeps_its_targets_near_k_one(monkeypatch, K):
    # below K = 1.025 no radius reaches a 0.05 spread of P1 and P2: the rule
    # falls to half the widest gap 1 - 1/K^2, so the check still has 100 targets
    ivt_calls = []
    real_ivt_sample = verify.ivt_sample

    def ivt_sample(map_, r0, lam, tol, period_index=1):
        ivt_calls.append(r0)
        return real_ivt_sample(map_, r0, lam, tol, period_index)

    monkeypatch.setattr(verify, "ivt_sample", ivt_sample)
    run_verification(K)
    f = build_standard_map(K)
    r0, = [r0 for r0 in ivt_calls if np.ndim(r0) == 1]
    assert r0.shape == (100,) and len(set(r0.tolist())) == 100
    a, b = limit_function(f, "P1").eval_log(r0), limit_function(f, "P2").eval_log(r0)
    assert np.all(np.abs(a - b) >= min(0.05, (1.0 - 1.0 / (K * K)) / 2))


def measured(report, name):
    (value,) = [row["measured"] for row in report["checks"] if row["name"] == name]
    return value


def test_the_finite_difference_check_matches_the_public_calls():
    # the suite calls the estimate on its own radii: the 300 public calls give its bits
    radii = iter((-6.0 + 5.95 * _weyl(300)).reshape(15, 20).tolist())
    worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
        for d in (2, 3, 4):
            closed = radial_power_distortion(alpha, d)
            for x in next(radii):
                est = finite_difference_distortion(lambda r, a=alpha: r**a, d, x, 1e-6 * 2.0**x)
                worst = max(worst, abs(est.K_O - closed.K_O) / closed.K_O,
                            abs(est.K_I - closed.K_I) / closed.K_I)
    report = run_verification()
    assert measured(report, "power_distortion_closed_form_vs_finite_difference").hex() == (
        worst.hex())


F2_MAPS = {"callable": lambda r: r**2.5, "f": F2, "h": build_conjugated_map(F2)}


@pytest.mark.parametrize("d", [2, 3, 4, 200])
@pytest.mark.parametrize("name", F2_MAPS)
def test_the_estimate_is_the_public_report(name, d):
    map_ = F2_MAPS[name]
    for x in (-0.3, -1.7, -2.8, -4.2):  # inside a branch of f and h at K = 2
        for step in (1e-6 * 2.0**x, 1e-9):
            report = finite_difference_distortion(map_, d, x, step)
            K_O, K_I = _finite_difference(_linear_radial_eval(map_), d, 2.0**x, step)
            assert (K_O.hex(), K_I.hex()) == (report.K_O.hex(), report.K_I.hex()), (x, step)


@pytest.mark.parametrize("map_, d", [(lambda r: 0.5, 2), (lambda r: r**3.7, 2000)],
                         ids=["not increasing", "overflow"])
def test_the_estimate_raises_the_public_errors(map_, d):
    with pytest.raises(ValueError) as public:
        finite_difference_distortion(map_, d, -1.0, 1e-7)
    with pytest.raises(ValueError) as estimate:
        _finite_difference(_linear_radial_eval(map_), d, 0.5, 1e-7)
    assert str(estimate.value) == str(public.value)


def test_the_one_dimensional_check_matches_the_scalar_calls():
    worst = 0.0
    for delta in (1.0, 0.5, 1e-3, 1e-9):
        worst = max(
            worst,
            abs(example_1d_mean_radius(delta) - 0.75 * delta) / delta,
            abs(example_1d_rescaled(1.0, delta) - 4.0 / 3.0),
            abs(example_1d_rescaled(-1.0, delta) + 2.0 / 3.0),
            abs(example_1d_rescaled(0.0, delta)),
        )
    assert measured(run_verification(), "one_dimensional_model_identities").hex() == worst.hex()


@pytest.mark.parametrize("n", [0, 1, 64, 300, 10_000])
def test_weyl_fractions_are_the_remainders(n):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    reference = np.arange(1, n + 1, dtype=float) * golden % 1.0
    assert _weyl(n).tobytes() == reference.tobytes()

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


@pytest.mark.parametrize("given, plain", [
    ({"K": np.float32(1.37)}, {"K": float(np.float32(1.37))}),
    ({"K": np.int64(3)}, {"K": 3.0}),
    ({"K": 2}, {"K": 2.0}),
    ({"K": Fraction(137, 100)}, {"K": 1.37}),
    ({"tol": np.float32(1e-9)}, {"tol": float(np.float32(1e-9))}),
    ({"tol": Fraction(1, 10**9)}, {"tol": 1e-9}),
    ({"depth": np.int64(10_000), "dimension": np.int64(3), "grid_points": np.int64(500)},
     {"depth": 10_000, "dimension": 3, "grid_points": 500}),
], ids=["float32 K", "int64 K", "int K", "Fraction K", "float32 tol", "Fraction tol",
        "int64 counts"])
def test_the_suite_computes_with_its_checked_settings(given, plain):
    # it checked the settings, then computed with the values as given: a float32 K
    # failed four checks, and an int64 count or a float32 tol made a report that
    # json.dumps refused; an int K now echoes as a float
    report, want = run_verification(**given), run_verification(**plain)
    assert report == want and report["all_passed"]
    assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)
