"""Construction, lookup, evaluation and inversion of the piecewise power map.

Independent oracles used here:
  * breakpoints: the one-step recurrence log2 r_n = log2 r_{n-1} - 1/k_n
    accumulated from r_0 = 1;
  * interval lookup: a linear scan over the breakpoint chain;
  * evaluation: continuity-chaining from f(r_{n-1}) with the interval slope;
  * inversion: the forward evaluator.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialqc import (
    RADIUS_ZERO_LOG2,
    NotDifferentiableError,
    breakpoint_log2,
    build_conjugated_map,
    build_standard_map,
    limit_function,
    rescaled_eval,
)
from radialqc import powermap
from radialqc.powermap import _breakpoint_log2, _to_linear
from radialqc.verify import _coefficient_log2
from test_drivers import DRIVER_K
from test_envelope import ENVELOPE, ExactMaps, branch_switch, error_units

K_VALUES = st.floats(min_value=1.05, max_value=5.0, allow_nan=False)
LOG_RADII = st.floats(min_value=-40.0, max_value=0.0, allow_nan=False)


def recurrence_breakpoints(K, depth):
    """Oracle: iterate log2 r_n = log2 r_{n-1} - 1/k_n from log2 r_0 = 0."""
    out = [0.0]
    for n in range(1, depth + 1):
        k_n = K if n % 2 == 1 else 1.0 / K
        out.append(out[-1] - 1.0 / k_n)
    return np.array(out)


def scan_locate(f, x):
    """Oracle: first interval index containing x, by linear scan."""
    n = 1
    while not (f.breakpoint(n) <= x <= f.breakpoint(n - 1)):
        n += 1
    return n


def window_locate(K, xf):
    """Reference: the six-probe window lookup that the step walk replaced.

    Probes the indices max(2m - 1, 1) .. + 5 above the floor estimate
    m = floor(-x / (K + 1/K)) in ascending order, keeping the first interval
    that contains x (so the smaller index wins ties).
    """
    m = np.floor(-xf / (K + 1.0 / K)).astype(np.int64)
    lo = np.maximum(2 * m - 1, 1)
    out = np.full(xf.shape, -1, dtype=np.int64)
    for off in range(6):
        cand = lo + off
        hit = (
            (out < 0)
            & (_breakpoint_log2(K, cand) <= xf)
            & (xf <= _breakpoint_log2(K, cand - 1))
        )
        out = np.where(hit, cand, out)
    assert np.all(out >= 0)
    return out


class TestConstruction:
    def test_rejects_bad_parameters(self):
        # K = 1e8: the 1/K steps vanish against K, so breakpoints coincide
        for bad_K in (1.0, 0.5, -2.0, float("nan"), float("inf"), 1e8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    build_standard_map(bad_K)
        for bad_K in ("2", True):
            with pytest.raises(TypeError):
                build_standard_map(bad_K)

    def test_breakpoint_log2_rejects_bad_K(self):
        # K = 0 would divide by zero; 0.5, -2 and 1 would give breakpoints of no map
        for bad_K in (0, 0.5, -2, 1, float("nan"), float("inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="K must be a finite real > 1"):
                    breakpoint_log2(bad_K, 3)

    def test_normalization(self):
        for K in (1.1, 2.0, 3.7):
            f = build_standard_map(K)
            assert f.breakpoint(0) == 0.0
            assert _coefficient_log2(K, 1) == 0.0

    def test_maps_with_equal_K_are_equal_and_hashable(self):
        f, g = build_standard_map(2.0), build_standard_map(2)
        assert f == g and hash(f) == hash(g)
        assert f != build_standard_map(3.0)
        assert len({f, g}) == 1
        # the conjugated map and the zoom limits carry only their source map
        h, h2 = build_conjugated_map(f), build_conjugated_map(g)
        assert h == h2 and hash(h) == hash(h2) and h.K == 2.0
        assert limit_function(h, "Q2") == limit_function(h2, "Q2")
        assert hash(limit_function(f, "P1")) == hash(limit_function(g, "P1"))

    @staticmethod
    def old_full_array_guard(K, depth=10_000):
        """Acceptance of the construction that cached indices 0..depth."""
        idx = np.arange(depth + 1, dtype=np.int64)
        log2_r = breakpoint_log2(K, idx)
        log2_C = np.concatenate(([np.nan], _coefficient_log2(K, idx[1:])))
        return not (log2_r[0] != 0.0 or log2_C[1] != 0.0 or np.any(np.diff(log2_r) >= 0.0))

    def test_guard_accepts_the_same_K_as_the_full_array_check(self):
        # the threshold lies near K = 1.0493e6; a check on the tail alone
        # disagrees with the full array there
        Ks = np.geomspace(1e5, 1e7, 200)
        accepted = []
        for K in Ks:
            try:
                build_standard_map(K)
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted == [self.old_full_array_guard(K) for K in Ks]
        assert True in accepted and False in accepted

    @staticmethod
    def accepts(K):
        try:
            build_standard_map(K)
        except ValueError:
            return False
        return True

    def test_guard_fast_path_agrees_with_the_full_array_check(self, monkeypatch):
        # below the proven bound the breakpoints are distinct with no check;
        # above it the array check runs, so the accepted set of K is unchanged
        bound = powermap._GUARD_FREE_K
        below = np.append(np.geomspace(1.0 + 2.0**-40, bound, 200), np.nextafter(1.0, 2.0))
        assert all(self.old_full_array_guard(K) for K in below)
        above = np.geomspace(np.nextafter(bound, math.inf), 1.05e6, 200)
        # bisection on floats to a K the check accepts next to one it refuses
        lo, hi, near = 1.04e6, 1.06e6, []
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            near.append(mid)
            lo, hi = (mid, hi) if self.old_full_array_guard(mid) else (lo, mid)
        assert hi == np.nextafter(lo, math.inf) and 1.049e6 < lo < 1.0494e6
        near += [np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)]
        checked, full_check = [], powermap._distinct_breakpoints_log2
        monkeypatch.setattr(powermap, "_distinct_breakpoints_log2",
                            lambda K, *a: checked.append(K) or full_check(K, *a))
        for K in np.concatenate([below, above, near]).tolist():
            assert self.accepts(K) == self.old_full_array_guard(K), K
        assert bound in below and checked == np.concatenate([above, near]).tolist()

    def test_each_map_holds_its_rows_outside_the_fields(self):
        # equality, hashing and repr read K alone
        f = build_standard_map(2.0)
        assert [fl.name for fl in dataclasses.fields(f)] == ["K"]
        assert (f._row, f._f_inv) == (powermap._cell_spec("P1", 2.0),
                                     powermap._cell_spec("f_inv", 2.0))
        assert repr(f) == "PiecewisePowerMap(K=2.0)" and hash(f) == hash(build_standard_map(2))

    def test_an_unknown_cell_spec_row_raises(self):
        # it was Q2's row
        for name in ("bogus", "Q3", None):
            with pytest.raises(ValueError, match="no cell-spec row"):
                powermap._cell_spec(name, 2.0)

    def test_breakpoints_at_K2(self):
        f = build_standard_map(2.0)
        assert f.breakpoint(0) == 0.0
        assert f.breakpoint(1) == -0.5
        assert f.breakpoint(2) == -2.5
        assert f.breakpoint(3) == -3.0

    def test_breakpoint_n4_matches_recurrence_oracle(self):
        # frozen from the recurrence: 0 - 1/2 - 2 - 1/2 - 2 = -5
        f = build_standard_map(2.0)
        assert f.breakpoint(4) == -5.0
        assert recurrence_breakpoints(2.0, 4)[4] == -5.0

    def test_coefficients_at_K2(self):
        assert _coefficient_log2(2.0, 2) == -0.75
        assert _coefficient_log2(2.0, 3) == 3.0

    def test_closed_form_matches_recurrence_at_full_depth(self):
        f = build_standard_map(2.0)
        oracle = recurrence_breakpoints(2.0, 10_000)
        n = np.arange(0, 10_001)
        assert np.max(np.abs(f.breakpoint(n) - oracle)) <= 1e-9

    @given(K=K_VALUES)
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_recurrence_generic_K(self, K):
        depth = 400
        f = build_standard_map(K)
        oracle = recurrence_breakpoints(K, depth)
        n = np.arange(0, depth + 1)
        assert np.max(np.abs(f.breakpoint(n) - oracle)) <= 1e-9

    @given(K=K_VALUES)
    @settings(max_examples=30, deadline=None)
    def test_anchor_and_continuity(self, K):
        depth = 300
        f = build_standard_map(K)
        n = np.arange(1, depth + 1)
        lr = f.breakpoint(n)
        k_n = np.where(n % 2 == 1, K, 1.0 / K)
        log2_C = _coefficient_log2(K, n)
        anchor = log2_C + n + k_n * lr
        assert np.max(np.abs(anchor)) <= 1e-9
        left = log2_C[:-1] + k_n[:-1] * lr[:-1]
        right = log2_C[1:] + k_n[1:] * lr[:-1]
        assert np.max(np.abs(left - right)) <= 1e-9

    @given(K=K_VALUES, n=st.integers(1, 60), m=st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_breakpoint_product_identities(self, K, n, m):
        lr = lambda j: breakpoint_log2(K, j)
        assert abs(lr(2 * n) + lr(m) - lr(2 * n + m)) <= 1e-9
        assert abs(lr(2 * n + 1) + lr(2 * m + 1) - lr(2 * (n + m) + 1) + 1.0 / K) <= 1e-9

    def test_index_domain_bound(self):
        # indices past 2^63 - 1 would wrap around in int64 arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (2**63 - 1, 2**63, 2**53 + 1, np.array([3, 2**62]), -1):
                with pytest.raises(ValueError):
                    breakpoint_log2(2.0, bad)
            for bad in (2**64, 1.5, np.array([1.0])):
                with pytest.raises(TypeError):
                    breakpoint_log2(2.0, bad)
            assert breakpoint_log2(2.0, 2**53) == -(2**52) * 2.5

    @staticmethod
    def floor_division_breakpoint_log2(K, n):
        """Reference: the closed form spelled with floor division, which the
        shift and mask of ``_breakpoint_log2`` replace."""
        return -((n // 2) * K + ((n + 1) // 2) / K) + 0.0

    @pytest.mark.parametrize("K", [*DRIVER_K, 2**64])
    def test_shift_and_mask_give_the_floor_division_bits(self, K):
        rng = np.random.default_rng(20_261_020)
        n = np.concatenate([np.arange(20_001), rng.integers(0, 2**53, 10_000), [2**53]])
        want = self.floor_division_breakpoint_log2(float(K), n)
        assert breakpoint_log2(K, n).tobytes() == want.tobytes()
        points = [breakpoint_log2(K, i) for i in n.tolist()]
        want_points = [self.floor_division_breakpoint_log2(float(K), i) for i in n.tolist()]
        assert np.array(points).tobytes() == np.array(want_points).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [
        -1, np.array([5, -1]), 2**53 + 1, np.array([0, 2**53 + 1]), np.uint64(2**63 + 1),
        np.array([1, 2**64 - 1], dtype=np.uint64)])
    def test_index_check_keeps_its_message(self, bad):
        with pytest.raises(ValueError, match=r"^breakpoint index must lie in 0\.\.2\*\*53$"):
            breakpoint_log2(2.0, bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_an_empty_index_array_gives_an_empty_answer(self, dtype):
        got = powermap._index_array(np.array([], dtype=dtype), "breakpoint index", 0, 2**53)
        assert got.dtype == np.int64 and got.shape == (0,)
        assert breakpoint_log2(2.0, np.array([], dtype=dtype)).shape == (0,)

    def test_breakpoints_strictly_decreasing(self):
        f = build_standard_map(3.7)
        assert np.all(np.diff(f.breakpoint(np.arange(2001))) < 0.0)


class TestLocate:
    def test_spec_examples(self):
        f = build_standard_map(2.0)
        assert f.locate_interval(math.log2(0.8)) == 1
        assert f.locate_interval(-2.5) == 2  # exact breakpoint: smaller index
        assert f.locate_interval(math.log2(0.15)) == 3

    def test_unit_radius(self):
        f = build_standard_map(2.0)
        assert f.locate_interval(0.0) == 1

    def test_breakpoint_ties_prefer_smaller_index(self):
        f = build_standard_map(1.7)
        for n in range(1, 40):
            assert f.locate_interval(f.breakpoint(n)) == n

    def test_rejects_sentinel_and_positive(self):
        f = build_standard_map(2.0)
        with pytest.raises(ValueError):
            f.locate_interval(RADIUS_ZERO_LOG2)
        with pytest.raises(ValueError):
            f.locate_interval(0.25)

    @given(K=K_VALUES, x=LOG_RADII)
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_oracle(self, K, x):
        f = build_standard_map(K)
        assert f.locate_interval(x) == scan_locate(f, x)

    @pytest.mark.parametrize("K", [2.0, 1.37, 3.0, 9.99, 1.2001, 1e3])
    def test_step_walk_matches_window_lookup(self, K):
        f = build_standard_map(K)
        rng = np.random.default_rng(11)
        # uniform points, breakpoints 1..1999 (ties) with their float
        # neighbours, and points with |x| up to 2^52
        bp = f.breakpoint(np.arange(1, 2000))
        x = np.concatenate([
            rng.uniform(-200.0, 0.0, 50_000), [0.0, -(2.0**52)],
            bp, np.nextafter(bp, 0.0), np.nextafter(bp, -np.inf),
            -np.exp2(rng.uniform(0.0, 52.0, 20_000)),
        ])
        n = f.locate_interval(x)
        assert n.dtype == np.int64
        np.testing.assert_array_equal(n, window_locate(K, x))
        # every returned interval contains its point, ties on the smaller index
        assert np.all((f.breakpoint(n) <= x) & (x <= f.breakpoint(n - 1)))
        assert np.all((n == 1) | (x < f.breakpoint(n - 1)))

    def test_walk_past_its_bound_raises(self, monkeypatch):
        f = build_standard_map(2.0)
        assert f.locate_interval(-1.7) == 2  # one step up from the estimate
        monkeypatch.setattr(powermap, "_LOCATE_STEPS", 0)
        for x in (-1.7, np.array([-1.7])):  # the walk of a point and of an array
            with pytest.raises(ValueError, match="too deep"):
                f.locate_interval(x)

    def test_vectorized_lookup(self):
        f = build_standard_map(2.0)
        xs = np.linspace(-20.0, 0.0, 500)
        ns = f.locate_interval(xs)
        assert ns.shape == xs.shape
        assert all(int(a) == scan_locate(f, b) for a, b in zip(ns, xs))


class TestEval:
    def test_first_interval_square(self):
        f = build_standard_map(2.0)
        assert abs(f.eval_log(math.log2(0.8)) - math.log2(0.64)) <= 1e-12

    def test_breakpoints_map_to_halving_powers(self):
        f = build_standard_map(2.0)
        n = np.arange(0, 10_001)
        assert np.max(np.abs(f.eval_log(f.breakpoint(n)) + n)) <= 1e-9

    def test_midpoint_via_continuity_chain_oracle(self):
        # chain: log2 f(r_1) = -1, then slope 1/K from r_1 down to 0.5
        f = build_standard_map(2.0)
        x = -1.0
        oracle = -1.0 + (1.0 / 2.0) * (x - f.breakpoint(1))
        assert oracle == -1.25
        assert abs(f.eval_log(x) - oracle) <= 1e-12

    def test_sentinel_passes_through(self):
        f = build_standard_map(2.0)
        assert f.eval_log(RADIUS_ZERO_LOG2) == RADIUS_ZERO_LOG2

    @given(K=K_VALUES, x=LOG_RADII, dx=st.floats(1e-6, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_strictly_monotone(self, K, x, dx):
        f = build_standard_map(K)
        if x - dx < -40.0:
            dx = 1e-6
        assert f.eval_log(x - dx) < f.eval_log(x)

    @given(K=K_VALUES, x=LOG_RADII, n=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_even_breakpoint_multiplicativity(self, K, x, n):
        f = build_standard_map(K)
        shifted = f.eval_log(x + f.breakpoint(2 * n))
        assert abs(shifted - (f.eval_log(x) - 2 * n)) <= 1e-9

    @pytest.mark.parametrize("row", ["P1", "h", "f_inv", "P2", "Q1", "Q2"])
    @pytest.mark.parametrize("K", [1.37, 2.0, 3.0, 9.99, 1e3, 1.05e6])
    def test_each_row_is_convex_or_concave_about_its_switch(self, K, row):
        # the cell kernel takes the max of a row's two lines where a_hi >= a_lo
        # and the min elsewhere: right only if the lines cross at the row's
        # switch inside the top cell, the hi line above it and the lo one below
        period, a_hi, b_hi, a_lo, b_lo, _ = powermap._cell_spec(row, K)
        switch = branch_switch(row, K)
        cross = (Fraction(b_lo) - Fraction(b_hi)) / (Fraction(a_hi) - Fraction(a_lo))
        assert abs(cross - Fraction(switch)) <= 4 * math.ulp(switch), float(cross)
        assert -period < switch < 0.0
        ex = ExactMaps(K)
        slope = K * K if row in ("h", "Q1", "Q2") else K
        for u in (0.0, switch / 2, (switch - period) / 2, -period * (1.0 - 2.0**-10)):
            hi, lo = b_hi + a_hi * u, b_lo + a_lo * u
            above = u > switch
            ref = ex.evaluate(row, u)
            assert error_units(hi if above else lo, ref, (1.0 - u) * slope) <= ENVELOPE
            assert ((hi > lo) if above else (lo > hi)) == (a_hi >= a_lo), u
            assert powermap._eval_cells(u, powermap._cell_spec(row, K)) == (hi if above else lo)


class TestInverse:
    def test_spec_examples(self):
        f = build_standard_map(2.0)
        assert abs(f.inverse_eval_log(-1.0) + 0.5) <= 1e-12
        assert f.inverse_eval_log(0.0) == 0.0
        # forward oracle: f(0.15) = 8 * 0.15^2 = 0.18 on the third interval
        assert abs(f.inverse_eval_log(math.log2(0.18)) - math.log2(0.15)) <= 1e-9

    def test_sentinel(self):
        f = build_standard_map(2.0)
        assert f.inverse_eval_log(RADIUS_ZERO_LOG2) == RADIUS_ZERO_LOG2

    def test_radius_domain_bound(self):
        # the interval index of |x| = 1e300 does not fit in int64
        f = build_standard_map(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (f.eval_log, f.inverse_eval_log, f.locate_interval):
                for bad in (-1e300, -(2.0**53), np.array([-1.0, -1e300])):
                    with pytest.raises(ValueError):
                        call(bad)
            deep = breakpoint_log2(2.0, 2**40)
            assert f.eval_log(deep) == -(2.0**40)
            assert f.inverse_eval_log(-(2.0**40)) == deep

    def test_int_beyond_float_range_is_a_domain_error(self):
        # float(10**400) overflows; the value is not mapped to +-inf, as -inf is radius 0
        f = build_standard_map(2.0)
        h = build_conjugated_map(f)
        calls = (f.eval_log, f.inverse_eval_log, f.locate_interval,
                 lambda x: h.iterate(x, 3), lambda t: rescaled_eval(f, t, -0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                for big in (10**400, np.array([-1.0, 10**400], dtype=object)):
                    with pytest.raises(ValueError, match=r"must be <= 0"):
                        call(big)
                for deep in (-(10**400), np.array([-(10**400)], dtype=object), [-1.0, -(10**400)]):
                    with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                        call(deep)
            for r in (10**400, -(10**400), [0.5, 10**400]):
                with pytest.raises(ValueError, match=r"r must lie in \[0, 1\]"):
                    f.eval(r)

    @given(K=K_VALUES, x=LOG_RADII)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, K, x):
        f = build_standard_map(K)
        assert abs(f.inverse_eval_log(f.eval_log(x)) - x) <= 1e-9

    @given(K=K_VALUES, y=LOG_RADII)
    @settings(max_examples=100, deadline=None)
    def test_forward_of_inverse(self, K, y):
        f = build_standard_map(K)
        assert abs(f.eval_log(f.inverse_eval_log(y)) - y) <= 1e-9


class TestLinearScale:
    def test_values(self):
        f = build_standard_map(2.0)
        assert abs(f.eval(0.8) - 0.64) <= 1e-12
        assert f.eval(1.0) == 1.0
        assert f.eval(0.0) == 0.0
        assert abs(f.eval(0.15) - 0.18) <= 1e-12

    def test_rejects_out_of_range(self):
        f = build_standard_map(2.0)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                f.eval(bad)

    def test_underflow_to_zero_documented_behavior(self):
        # the package's way back to the linear scale underflows quietly to 0.0 from
        # 2**-1075 down (the tie goes to even), as a float and on each array entry
        f = build_standard_map(2.0)
        deep = f.eval_log(-2000.0)
        assert deep == -1600.0 and _to_linear(deep) == 0.0
        xs = np.array([deep, -1075.0, np.nextafter(-1075.0, 0.0), -1074.0, -math.inf])
        assert _to_linear(xs).tolist() == [0.0, 0.0, 5e-324, 5e-324, 0.0]
        # eval's own zero: radius 0 is the sentinel, whose image is 0.0, and the
        # smallest subnormal radius maps well inside the float range (P > 2)
        assert f.eval(0.0) == f.eval(-0.0) == 0.0
        assert f.eval(np.array([0.0, 5e-324, 1.0])).tolist() == [0.0, f.eval(5e-324), 1.0]
        assert f.eval(5e-324) == 2.0 ** f.eval_log(-1074.0) > 2.0**-1022


class TestMeanRadius:
    def test_equals_forward_eval(self):
        f = build_standard_map(2.0)
        assert f.mean_radius_radial(f.breakpoint(2)) == -2.0
        assert f.mean_radius_radial(0.0) == 0.0
        assert abs(f.mean_radius_radial(-1.0) + 1.25) <= 1e-12
        grid = np.linspace(-9.0, 0.0, 100)
        assert np.array_equal(f.mean_radius_radial(grid), f.eval_log(grid))


class TestLocalExponent:
    def test_alternates(self):
        f = build_standard_map(2.0)
        assert f.local_exponent(math.log2(0.8)) == 2.0
        assert f.local_exponent(-1.0) == 0.5

    def test_breakpoint_rejected(self):
        f = build_standard_map(2.0)
        with pytest.raises(NotDifferentiableError):
            f.local_exponent(f.breakpoint(1))
        with pytest.raises(NotDifferentiableError):
            f.local_exponent(0.0)
