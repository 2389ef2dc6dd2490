"""Zoom rescalings, the four closed-form limits, the intermediate-value scale
sampler, and the homogeneity defect.

Independent oracles: the limits are checked against direct rescaled
evaluations at actual breakpoint scales (two forward evaluations each), and
the distinctness gap against its closed form 1 - 1/K^2 at the first
breakpoint.  Frozen values below were computed with those oracles.
"""

import dataclasses
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialqc import zoom
from radialqc import (
    EVEN_BREAKPOINTS,
    ODD_BREAKPOINTS,
    BracketError,
    build_conjugated_map,
    build_standard_map,
    example_1d_mean_radius,
    example_1d_rescaled,
    homogeneity_defect,
    ivt_sample,
    limit_function,
    rescaled_eval,
    scale_at,
    zoom_limit_deviation,
)
from radialqc.powermap import _BLOCK, PiecewisePowerMap
from test_envelope import K_VALUES as ENVELOPE_K_VALUES

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import ExactMaps, error_units  # noqa: E402

K_VALUES = st.floats(min_value=1.05, max_value=5.0, allow_nan=False)


def loop_zoom_limit_deviation(map_, sequence, lf, n_range, grid):
    """Reference: one scalar ``scale_at`` and one ``rescaled_eval`` per scale."""
    lim = lf.eval_log(grid)
    worst = 0.0
    for n in n_range:
        dev = np.abs(rescaled_eval(map_, scale_at(map_, sequence, n), grid) - lim)
        worst = max(worst, float(dev.max()))
    return worst


def whole_table_zoom_limit_deviation(map_, sequence, lf, n_range, grid):
    """Reference: one ``rescaled_eval`` over the whole (scales x grid) table."""
    t = scale_at(map_, sequence, np.asarray(n_range))[:, None]
    return float(np.abs(rescaled_eval(map_, t, grid) - lf.eval_log(grid)).max(initial=0.0))


def bisect_reference(map_, r0, lam, tol, period_index=1):
    """Reference: the bisection ``ivt_sample`` used before its closed-form
    solve, for one lane (same bracket, midpoints and endpoint snap)."""
    even, odd = ("Q1", "Q2") if hasattr(map_, "source") else ("P1", "P2")
    a = limit_function(map_, even).eval_log(r0)
    b = limit_function(map_, odd).eval_log(r0)
    ta = scale_at(map_, EVEN_BREAKPOINTS, period_index)
    tb = scale_at(map_, ODD_BREAKPOINTS, period_index)
    if abs(lam - a) <= tol:
        return ta
    if abs(lam - b) <= tol:
        return tb
    assert min(a, b) < lam < max(a, b)
    fa = a - lam
    for _ in range(200):
        tm = 0.5 * (ta + tb)
        fm = rescaled_eval(map_, tm, r0) - lam
        if abs(fm) <= tol:
            return tm
        if (fm < 0.0) == (fa < 0.0):
            ta, fa = tm, fm
        else:
            tb = tm
    raise AssertionError("bisection exhausted")


def ivt_residual_units(map_, r0, lam, t):
    """|g(t) - lam| for the exact zoom value g of the oracle, in units of
    eps (|r0| + |t| + 1) s, the envelope of ``tests/test_envelope.py``."""
    K = map_.K
    which, slope = ("h", K * K) if hasattr(map_, "source") else ("f", K)
    ref = ExactMaps(K).evaluate(f"rescaled_{which}", r0, t=t)
    return error_units(lam, ref, (abs(r0) + abs(t) + 1.0) * slope)


@pytest.fixture(scope="module")
def f():
    return build_standard_map(2.0)


@pytest.fixture(scope="module")
def h(f):
    return build_conjugated_map(f)


def grid3(f, points=400):
    period = f.K + 1.0 / f.K
    return np.linspace(-3.0 * period, -1e-9, points)


class TestRescaled:
    def test_even_scale_reproduces_map(self, f):
        # multiplicativity oracle: g at t = r_2 is f itself
        t = f.breakpoint(2)
        assert abs(rescaled_eval(f, t, math.log2(0.8)) - math.log2(0.64)) <= 1e-9
        g = grid3(f)
        assert np.max(np.abs(rescaled_eval(f, t, g) - f.eval_log(g))) <= 1e-9

    def test_unit_radius_normalization(self, f):
        for t in (-0.3, -2.5, -17.0):
            assert rescaled_eval(f, t, 0.0) == 0.0

    def test_frozen_quarter(self, f):
        # oracle = two forward evaluations: f(r_1^2)/f(r_1) -> -5/4 + 1
        t = f.breakpoint(1)
        oracle = f.eval_log(t + t) - f.eval_log(t)
        assert oracle == -0.25
        assert rescaled_eval(f, t, t) == oracle

    def test_rejects_zero_scale_and_sentinel(self, f):
        with pytest.raises(ValueError):
            rescaled_eval(f, 0.0, -1.0)
        with pytest.raises(ValueError):
            rescaled_eval(f, float("-inf"), -1.0)

    def test_sentinel_radius_passes_through(self, f):
        assert rescaled_eval(f, -2.5, float("-inf")) == float("-inf")

    def test_shifted_radius_below_the_domain_raises(self, f):
        # r and t each lie in the domain, but r + t does not: the kernel's own
        # check of r + t is what catches it
        deep = -1.5 * 2.0**51
        for r in (deep, np.array([-1.0, deep])):
            with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                rescaled_eval(f, deep, r)

    def test_monotone_in_radius(self, f):
        t = -3.21
        vals = rescaled_eval(f, t, grid3(f))
        assert np.all(np.diff(vals) > 0.0)


class TestLimits:
    def test_frozen_values_at_first_breakpoint(self, f, h):
        r1 = f.breakpoint(1)
        assert limit_function(f, "P1").eval_log(r1) == -1.0
        assert limit_function(f, "P2").eval_log(r1) == -0.25
        assert limit_function(h, "Q1").eval_log(r1) == -2.0
        assert limit_function(h, "Q2").eval_log(r1) == -0.125

    def test_limits_against_zoom_oracles(self, f, h):
        r1 = f.breakpoint(1)
        for k in (1, 2, 5):
            assert abs(rescaled_eval(f, scale_at(f, "even", k), r1) + 1.0) <= 1e-9
            assert abs(rescaled_eval(f, scale_at(f, "odd", k), r1) + 0.25) <= 1e-9
            assert abs(rescaled_eval(h, scale_at(h, "even", k), r1) + 2.0) <= 1e-9
            assert abs(rescaled_eval(h, scale_at(h, "odd", k), r1) + 0.125) <= 1e-9

    def test_normalization_at_unit_radius(self, f, h):
        for source, kind in ((f, "P1"), (f, "P2"), (h, "Q1"), (h, "Q2")):
            assert abs(limit_function(source, kind).eval_log(0.0)) <= 1e-12

    def test_sentinel(self, f):
        assert limit_function(f, "P1").eval_log(float("-inf")) == float("-inf")

    def test_p1_coincides_with_map(self, f):
        g = grid3(f)
        p1 = limit_function(f, "P1")
        assert np.max(np.abs(p1.eval_log(g) - f.eval_log(g))) <= 1e-9

    def test_p1_breakpoint_values(self, f):
        p1 = limit_function(f, "P1")
        n = np.arange(0, 60)
        assert np.max(np.abs(p1.eval_log(f.breakpoint(n)) + n)) <= 1e-9

    def test_q1_fixes_even_breakpoints(self, f, h):
        q1 = limit_function(h, "Q1")
        bp = f.breakpoint(2 * np.arange(1, 30))
        assert np.max(np.abs(q1.eval_log(bp) - bp)) <= 1e-9

    def test_shifted_breakpoint_continuity(self, f, h):
        K = f.K
        p2 = limit_function(f, "P2")
        q2 = limit_function(h, "Q2")
        for m in range(0, 20):
            s_m = -((m + 1) * K + m / K)
            eps = 1e-11
            for lf in (p2, q2):
                assert abs(lf.eval_log(s_m - eps) - lf.eval_log(s_m + eps)) <= 1e-9

    @given(K=K_VALUES)
    @settings(max_examples=20, deadline=None)
    def test_limits_match_zoom_exactly_generic_K(self, K):
        f = build_standard_map(K)
        h = build_conjugated_map(f)
        period = K + 1.0 / K
        g = np.linspace(-3.0 * period, -1e-9, 120)
        ns = range(1, 11)
        assert zoom_limit_deviation(f, EVEN_BREAKPOINTS, limit_function(f, "P1"), ns, g) <= 1e-9
        assert zoom_limit_deviation(f, ODD_BREAKPOINTS, limit_function(f, "P2"), ns, g) <= 1e-9
        assert zoom_limit_deviation(h, EVEN_BREAKPOINTS, limit_function(h, "Q1"), ns, g) <= 1e-9
        assert zoom_limit_deviation(h, ODD_BREAKPOINTS, limit_function(h, "Q2"), ns, g) <= 1e-9

    def test_bad_kind_rejected(self, f):
        with pytest.raises(ValueError):
            limit_function(f, "P3")

    def test_the_class_checks_what_limit_function_checks(self, f, h):
        # built directly, a bad kind was Q2's row and a bad source an AttributeError later
        message = r"^kind must be one of \('P1', 'P2', 'Q1', 'Q2'\), got 'bogus'$"
        for build in (limit_function, lambda m, k: zoom.LimitFunction(k, m)):
            with pytest.raises(ValueError, match=message):
                build(f, "bogus")
            for source in ("x", None, 2.0, limit_function(f, "P2")):
                with pytest.raises(TypeError, match="^map must be a PiecewisePowerMap or a "
                                                    "ConjugatedMap$"):
                    build(source, "P1")

    def test_a_conjugated_map_source_is_recorded_as_its_base(self, f, h):
        lf = zoom.LimitFunction("Q1", h)
        assert lf.source is f and lf == limit_function(h, "Q1") == limit_function(f, "Q1")
        assert repr(lf) == "LimitFunction(kind='Q1', source=PiecewisePowerMap(K=2.0))"
        assert lf.eval_log(-3.7) == limit_function(f, "Q1").eval_log(-3.7)

    def test_the_held_row_is_not_a_field(self, f):
        # equality, hashing and repr read kind and source alone
        lf = limit_function(f, "P2")
        assert [fl.name for fl in dataclasses.fields(lf)] == ["kind", "source"]
        assert lf._row == zoom._cell_spec("P2", 2.0)
        assert hash(lf) == hash(limit_function(build_standard_map(2), "P2"))


class TestDeviation:
    def test_matched_pairs_are_roundoff(self, f, h):
        g = grid3(f, 1000)
        ns = range(1, 51)
        assert zoom_limit_deviation(f, "even", limit_function(f, "P1"), ns, g) <= 1e-9
        assert zoom_limit_deviation(f, "odd", limit_function(f, "P2"), ns, g) <= 1e-9
        assert zoom_limit_deviation(h, "even", limit_function(h, "Q1"), ns, g) <= 1e-9
        assert zoom_limit_deviation(h, "odd", limit_function(h, "Q2"), ns, g) <= 1e-9

    @pytest.mark.parametrize("K", [1.37, 2.0, 3.0, 9.99])
    @pytest.mark.parametrize("points", [_BLOCK // 7, _BLOCK // 3, _BLOCK + 1])
    def test_blocks_of_rows_match_the_whole_table(self, K, points):
        # 7 and 3 rows a block leave a last block of 1 and 2 of the 50 rows, and a
        # grid longer than a block goes one row a block
        f = build_standard_map(K)
        h = build_conjugated_map(f)
        g = grid3(f, points)
        for map_, seq, kind in ((f, "even", "P1"), (f, "odd", "P2"), (h, "even", "Q1"),
                                (h, "odd", "Q2"), (f, "even", "P2")):
            lf = limit_function(map_, kind)
            assert zoom_limit_deviation(map_, seq, lf, range(1, 51), g).hex() == (
                whole_table_zoom_limit_deviation(map_, seq, lf, range(1, 51), g).hex()
            ), (K, seq, kind)

    def test_matches_one_scale_at_a_time(self):
        # the blocks of scales give what one call per scale gives, bit for bit
        for K in (2.0, 3.0, 1.37, 9.99, 1.2001):
            f = build_standard_map(K)
            h = build_conjugated_map(f)
            g = grid3(f, 999)
            for map_, seq, kind in ((f, "even", "P1"), (f, "odd", "P2"), (h, "even", "Q1"),
                                    (h, "odd", "Q2"), (f, "even", "P2")):
                lf = limit_function(map_, kind)
                assert zoom_limit_deviation(map_, seq, lf, range(1, 51), g) == (
                    loop_zoom_limit_deviation(map_, seq, lf, range(1, 51), g)
                ), (K, seq, kind)

    @pytest.mark.parametrize("kind", ["P1", "Q2"])
    @pytest.mark.parametrize("points", [2, _BLOCK // 7])
    def test_a_table_leaving_the_domain_raises_the_rescaled_error(self, f, h, kind, points):
        # every grid lane and scale is in the domain, but the deepest sums are not:
        # one check of the deepest lane raises rescaled_eval's error, even where
        # those rows fall in a later block (7 rows a block for the longer grid)
        map_ = f if kind[0] == "P" else h
        g = np.linspace(-(2.0**52) + 100.0, -1.0, points)
        ns = np.arange(1, 51)
        seq = "even" if kind in ("P1", "Q1") else "odd"
        with pytest.raises(ValueError) as want:
            rescaled_eval(map_, scale_at(map_, seq, ns)[:, None], g)
        with pytest.raises(ValueError) as got:
            zoom_limit_deviation(map_, seq, limit_function(map_, kind), ns, g)
        assert str(got.value) == str(want.value) == (
            "x must be >= -2**52 (or the radius-0 sentinel -inf)")

    def test_a_table_reaching_the_domain_bound_is_evaluated(self, f):
        # t_1 = -2.5 at K = 2: the deepest lane sums to -2**52 exactly, inside the domain
        g = np.array([-(2.0**52) + 2.5, -1.0])
        lf = limit_function(f, "P1")
        assert zoom_limit_deviation(f, "even", lf, [1], g).hex() == (
            whole_table_zoom_limit_deviation(f, "even", lf, [1], g).hex())

    def test_an_empty_grid_or_range_gives_zero(self, f, h):
        for map_, kind in ((f, "P1"), (h, "Q2")):
            lf = limit_function(map_, kind)
            assert zoom_limit_deviation(map_, "even", lf, range(1, 3), np.empty(0)) == 0.0
            assert zoom_limit_deviation(map_, "even", lf, np.arange(1, 1), [-1.0]) == 0.0
            for empty in (range(1, 1), [], ()):  # numpy reads these as float64
                assert zoom_limit_deviation(map_, "even", lf, empty, [-1.0]) == 0.0

    def test_mismatched_pair_is_order_one(self, f):
        g = grid3(f, 1000)
        dev = zoom_limit_deviation(f, "even", limit_function(f, "P2"), range(1, 11), g)
        assert dev >= 0.3

    def test_foreign_limit_rejected(self, f):
        other = build_standard_map(3.0)
        lf = limit_function(other, "P1")
        with pytest.raises(ValueError):
            zoom_limit_deviation(f, "even", lf, range(1, 3), grid3(f, 10))

    def test_bad_sequence_rejected(self, f):
        with pytest.raises(ValueError):
            scale_at(f, "sideways", 1)
        # 2 * 2^62 would wrap around in int64 arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (0, 2**62, 2**52 + 1):
                with pytest.raises(ValueError):
                    scale_at(f, "even", bad)
            for bad in (2.5, True):  # a bool is not an index
                with pytest.raises(TypeError):
                    scale_at(f, "odd", bad)
            # the same checks on index arrays, uint64 included (2n would wrap)
            for bad in ([1, 0], [2**52 + 1], np.array([2**63 + 1], dtype=np.uint64)):
                with pytest.raises(ValueError):
                    scale_at(f, "even", np.asarray(bad))
            with pytest.raises(TypeError):
                scale_at(f, "odd", np.array([1.0, 2.0]))

    def test_index_array_matches_scalar_calls(self, f, h):
        ns = np.array([1, 2, 7, 1000, 2**40, 2**52])
        for map_ in (f, h):
            for seq in (EVEN_BREAKPOINTS, ODD_BREAKPOINTS):
                ts = scale_at(map_, seq, ns)
                assert ts.shape == ns.shape
                assert ts.tolist() == [scale_at(map_, seq, int(n)) for n in ns]
                assert isinstance(scale_at(map_, seq, ns[0]), float)


class TestIvtSampler:
    def test_frozen_bracketed_target(self, f):
        r0 = f.breakpoint(1)
        lam = math.log2(0.67)  # strictly between 0.5 and 2^-1/4 ~ 0.8409
        t = ivt_sample(f, r0, lam, 1e-9)
        assert t < 0.0
        assert abs(rescaled_eval(f, t, r0) - lam) <= 1e-9

    def test_endpoint_snaps_to_breakpoint_scale(self, f):
        r0 = f.breakpoint(1)
        lam = limit_function(f, "P1").eval_log(r0)
        assert ivt_sample(f, r0, lam, 1e-9) == f.breakpoint(2)
        lam = limit_function(f, "P2").eval_log(r0)
        assert ivt_sample(f, r0, lam, 1e-9) == f.breakpoint(1)

    def test_no_bracket_raises(self, f):
        r0 = f.breakpoint(1)
        with pytest.raises(BracketError):
            ivt_sample(f, r0, math.log2(0.95), 1e-9)
        with pytest.raises(BracketError):
            ivt_sample(f, r0, math.log2(0.25), 1e-9)
        for lam in (-math.inf, math.inf):
            with pytest.raises(BracketError):
                ivt_sample(f, r0, lam, 1e-9)

    def test_int_beyond_float_range_is_a_domain_error(self, f, h):
        # np.asarray(10**400, dtype=float) used to raise a bare OverflowError
        for map_ in (f, h):
            with pytest.raises(ValueError, match="must be <= 0"):
                ivt_sample(map_, 10**400, -1.0, 1e-9)
            with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                ivt_sample(map_, [-0.5, -(10**400)], -1.0, 1e-9)
            for lam in (10**400, -(10**400), [-1.0, 10**400]):
                with pytest.raises(BracketError):
                    ivt_sample(map_, -0.5, lam, 1e-9)

    def test_nan_target_is_an_input_error(self, f, h):
        for map_ in (f, h):
            for lam in (math.nan, np.array([-1.0, math.nan])):
                with pytest.raises(ValueError, match="not NaN") as info:
                    ivt_sample(map_, -0.5, lam, 1e-9)
                assert not isinstance(info.value, BracketError)

    def test_radius_zero_is_an_input_error(self, f, h):
        # the sentinel -inf has no bracket: it used to raise BracketError, "[-inf, -inf]"
        for map_ in (f, h):
            for r0 in (-math.inf, np.array([-0.5, -math.inf])):
                with pytest.raises(ValueError, match="^r0: the radius-0 sentinel") as info:
                    ivt_sample(map_, r0, -1.0, 1e-9)
                assert not isinstance(info.value, BracketError)

    def test_increasing_periods_give_decreasing_scales(self, f):
        r0 = f.breakpoint(1)
        lam = math.log2(0.67)
        scales = [ivt_sample(f, r0, lam, 1e-9, period_index=j) for j in range(1, 11)]
        assert all(b < a for a, b in zip(scales, scales[1:]))
        for t in scales:
            assert abs(rescaled_eval(f, t, r0) - lam) <= 1e-9

    def test_works_on_conjugated_map(self, f, h):
        r0 = f.breakpoint(1)
        lam = -1.0  # strictly between Q1(r1) = -2 and Q2(r1) = -1/8
        t = ivt_sample(h, r0, lam, 1e-9)
        assert abs(rescaled_eval(h, t, r0) - lam) <= 1e-9

    def test_random_bracketed_pairs(self, f):
        rng = np.random.default_rng(42)
        p1 = limit_function(f, "P1")
        p2 = limit_function(f, "P2")
        done = 0
        while done < 100:
            r0 = float(rng.uniform(-7.5, -0.05))
            lo, hi = sorted((p1.eval_log(r0), p2.eval_log(r0)))
            if hi - lo < 0.05:
                continue
            lam = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            t = ivt_sample(f, r0, lam, 1e-9)
            assert abs(rescaled_eval(f, t, r0) - lam) <= 1e-9
            done += 1

    @staticmethod
    def bracketed_targets(map_, count, seed):
        even, odd = ("Q1", "Q2") if hasattr(map_, "source") else ("P1", "P2")
        a_lim, b_lim = limit_function(map_, even), limit_function(map_, odd)
        rng = np.random.default_rng(seed)
        r0s, lams = [], []
        while len(r0s) < count:
            r0 = float(rng.uniform(-7.5, -0.05))
            lo, hi = sorted((a_lim.eval_log(r0), b_lim.eval_log(r0)))
            if hi - lo < 0.05:
                continue
            r0s.append(r0)
            lams.append(float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))
        # two snapped lanes: targets exactly at the even and the odd limit
        r0s += [r0s[0], r0s[1]]
        lams += [a_lim.eval_log(r0s[0]), b_lim.eval_log(r0s[1])]
        return np.array(r0s), np.array(lams)

    @pytest.mark.parametrize("period_index", [1, 3])
    @pytest.mark.parametrize("which", ["f", "h"])
    def test_array_lanes_match_scalar_calls_bit_for_bit(self, f, h, which, period_index):
        map_ = f if which == "f" else h
        r0s, lams = self.bracketed_targets(map_, 30, seed=7)
        loop = [ivt_sample(map_, r0, lam, 1e-9, period_index) for r0, lam in zip(r0s, lams)]
        t = ivt_sample(map_, r0s, lams, 1e-9, period_index)
        assert isinstance(t, np.ndarray) and t.shape == r0s.shape
        assert t.tobytes() == np.array(loop).tobytes()
        assert t[-2] == scale_at(map_, EVEN_BREAKPOINTS, period_index)
        assert t[-1] == scale_at(map_, ODD_BREAKPOINTS, period_index)

    def test_scalar_r0_broadcasts_against_vector_lam(self, f):
        r0 = f.breakpoint(1)
        lams = np.linspace(-0.99, -0.26, 12).reshape(3, 4)  # inside (-1, -1/4)
        t = ivt_sample(f, r0, lams, 1e-9)
        assert t.shape == (3, 4)
        loop = [ivt_sample(f, r0, float(lam), 1e-9) for lam in lams.ravel()]
        assert t.tobytes() == np.array(loop).reshape(3, 4).tobytes()

    def test_result_type_follows_input(self, f):
        r0 = f.breakpoint(1)
        lam = math.log2(0.67)
        scalar = ivt_sample(f, r0, lam, 1e-9)
        assert type(scalar) is float
        one = ivt_sample(f, np.array([r0]), lam, 1e-9)
        assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == scalar
        assert ivt_sample(f, np.array([]), lam, 1e-9).shape == (0,)

    def test_tol_below_resolution_still_solves(self, f, h):
        # tol is only the snap width: a tiny one still gives an in-bracket t
        for map_ in (f, h):
            r0s, lams = self.bracketed_targets(map_, 10, seed=11)
            r0s, lams = r0s[:-2], lams[:-2]  # no snapped lanes
            lo, hi = scale_at(map_, EVEN_BREAKPOINTS, 1), scale_at(map_, ODD_BREAKPOINTS, 1)
            ts = ivt_sample(map_, r0s, lams, 1e-300)
            assert ivt_sample(map_, r0s[0], lams[0], 1e-300) == ts[0]
            for r0, lam, t in zip(r0s.tolist(), lams.tolist(), ts.tolist()):
                assert lo <= t <= hi
                assert ivt_residual_units(map_, r0, lam, t) <= 4.0

    def test_no_zoom_evaluation_or_interval_search(self, f, h, monkeypatch):
        # the solve inverts a cell map: a search over knots must not come back
        def forbidden(*args):
            raise AssertionError("ivt_sample evaluated a zoom or searched an interval")

        monkeypatch.setattr(zoom, "rescaled_eval", forbidden)
        monkeypatch.setattr(PiecewisePowerMap, "locate_interval", forbidden)
        for map_ in (f, h):
            r0s, lams = self.bracketed_targets(map_, 20, seed=2)
            ivt_sample(map_, r0s, lams, 1e-9, period_index=3)
            ivt_sample(map_, r0s[0], lams[0], 1e-9)

    def test_checks_its_map_argument_once(self, f, h, monkeypatch):
        checked = []
        base_of = zoom._base_of
        monkeypatch.setattr(zoom, "_base_of", lambda m: checked.append(m) or base_of(m))
        for map_ in (f, h):
            r0s, lams = self.bracketed_targets(map_, 20, seed=3)
            for r0, lam in ((r0s, lams), (r0s[0], lams[0])):
                checked.clear()
                ivt_sample(map_, r0, lam, 1e-9)
                assert checked == [map_]

    @pytest.mark.parametrize("which", ["f", "h"])
    def test_array_period_index_with_snapped_lanes(self, f, h, which):
        map_ = f if which == "f" else h
        r0s, lams = self.bracketed_targets(map_, 10, seed=4)
        ks = np.array([1, 2, 3, 40, 2**20, 7, 1, 5, 11, 2**40, 3, 2**30])
        t = ivt_sample(map_, r0s, lams, 1e-9, ks)
        loop = [ivt_sample(map_, r0, lam, 1e-9, int(k)) for r0, lam, k in zip(r0s, lams, ks)]
        assert t.tobytes() == np.array(loop).tobytes()
        assert t[-2] == scale_at(map_, EVEN_BREAKPOINTS, int(ks[-2]))
        assert t[-1] == scale_at(map_, ODD_BREAKPOINTS, int(ks[-1]))

    def test_lam_and_period_index_broadcast(self, f):
        r0 = f.breakpoint(1)
        lams = np.array([[-0.9], [math.log2(0.67)], [-0.3]])
        ks = np.array([[1, 2, 9, 1000]])
        t = ivt_sample(f, r0, lams, 1e-9, ks)
        assert t.shape == (3, 4)
        loop = [[ivt_sample(f, r0, float(lam), 1e-9, int(k)) for k in ks[0]] for lam in lams[:, 0]]
        assert t.tobytes() == np.array(loop).tobytes()

    def test_non_finite_tol_rejected(self, f):
        r0 = f.breakpoint(1)
        for lam in (math.inf, 5.0, math.log2(0.67)):
            for tol in (math.inf, math.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match="tol must be a finite real > 0"):
                    ivt_sample(f, r0, lam, tol)

    def test_bad_period_index_named_in_error(self, f):
        # scale_at checks it too, but under its own parameter name n
        r0 = f.breakpoint(1)
        for k in (0, -3, 2**53, [1, 0]):
            with pytest.raises(ValueError, match="period_index must lie in 1..2"):
                ivt_sample(f, r0, math.log2(0.67), 1e-9, period_index=k)
        for bad in (2**70, True):
            with pytest.raises(TypeError, match="period_index"):
                ivt_sample(f, r0, math.log2(0.67), 1e-9, period_index=bad)

    @pytest.mark.parametrize("which", ["f", "h"])
    @given(K=ENVELOPE_K_VALUES, data=st.data())
    @settings(max_examples=25)
    def test_within_envelope_at_any_K_and_period(self, which, K, data):
        f = build_standard_map(K)
        map_ = f if which == "f" else build_conjugated_map(f)
        even, odd = ("P1", "P2") if which == "f" else ("Q1", "Q2")
        period = K + 1.0 / K
        r0 = data.draw(st.one_of(st.floats(-4.0 * period, 0.0),
                                 st.floats(-30.0, 40.0).map(lambda e: -(2.0**e))))
        lo, hi = sorted((limit_function(map_, even).eval_log(r0),
                         limit_function(map_, odd).eval_log(r0)))
        assume(lo < hi)
        lam = min(max(lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)
        k = data.draw(st.one_of(st.integers(1, 40), st.integers(1, 10**6)))
        t = ivt_sample(map_, r0, lam, 1e-300, k)
        assert scale_at(map_, EVEN_BREAKPOINTS, k) <= t <= scale_at(map_, ODD_BREAKPOINTS, k)
        assert ivt_residual_units(map_, r0, lam, t) <= 4.0, (r0, lam, k)

    def test_bracket_below_log2_domain_raises(self, f):
        # the bracket of period 2**52 lies below log2 radius -2**52
        with pytest.raises(ValueError, match="-2\\*\\*52"):
            ivt_sample(f, f.breakpoint(1), math.log2(0.67), 1e-9, period_index=2**52)
        # at K above about 1.6e5 the inverse cell map of h leaves the log2
        # domain within a period of its bottom: the same error, no wrong value
        h = build_conjugated_map(build_standard_map(1.04e6))
        r0 = -(2.0**52) + h.K + 1.0 / h.K
        lam = 0.5 * sum(limit_function(h, kind).eval_log(r0) for kind in ("Q1", "Q2"))
        with pytest.raises(ValueError, match="r0 \\+ t must be >= -2\\*\\*52"):
            ivt_sample(h, r0, lam, 1e-9)

    @pytest.mark.parametrize("period_index", [1, 3, 40])
    @pytest.mark.parametrize("K", [2.0, 1.37, 9.99])
    @pytest.mark.parametrize("which", ["f", "h"])
    def test_matches_bisection_reference(self, which, K, period_index):
        f = build_standard_map(K)
        map_ = f if which == "f" else build_conjugated_map(f)
        r0s, lams = self.bracketed_targets(map_, 12, seed=5)
        tol = 1e-9
        ts = ivt_sample(map_, r0s, lams, tol, period_index)
        lo = scale_at(map_, EVEN_BREAKPOINTS, period_index)
        hi = scale_at(map_, ODD_BREAKPOINTS, period_index)
        for r0, lam, t in zip(r0s.tolist(), lams.tolist(), ts.tolist()):
            t_ref = bisect_reference(map_, r0, lam, tol, period_index)
            assert abs(t - t_ref) <= tol / (K - 1.0 / K), (r0, lam)
            assert lo <= t <= hi
            assert ivt_residual_units(map_, r0, lam, t) <= 4.0, (r0, lam)

    @pytest.mark.parametrize("K", [2.0, 1.37, 9.99])
    @pytest.mark.parametrize("which", ["f", "h"])
    def test_periods_shift_by_one_period(self, which, K):
        # g(t - P) = g(t): the scale for period k is t_1 - (k - 1) P
        f = build_standard_map(K)
        map_ = f if which == "f" else build_conjugated_map(f)
        r0s, lams = self.bracketed_targets(map_, 12, seed=9)
        t1 = ivt_sample(map_, r0s, lams, 1e-9)
        for k in (2, 5, 40):
            tk = ivt_sample(map_, r0s, lams, 1e-9, period_index=k)
            want = t1 - (k - 1) * (K + 1.0 / K)
            assert np.all(np.abs(tk - want) <= 4.0 * np.spacing(np.abs(tk))), k

    def test_one_lane_out_of_bracket_raises(self, f):
        r0s, lams = self.bracketed_targets(f, 10, seed=3)
        lams[4] = 0.0  # every limit is < 0 below the unit radius
        with pytest.raises(BracketError, match="outside the achievable bracket"):
            ivt_sample(f, r0s, lams, 1e-9)


class TestHomogeneityDefect:
    def test_pure_power_has_zero_defect(self):
        samples = [-0.3, -1.7, -4.0]
        assert homogeneity_defect(lambda x: 2.0 * x, samples) <= 1e-12
        assert homogeneity_defect(lambda x: 0.31 * x, samples) <= 1e-12

    def test_p1_defect_frozen(self, f):
        # oracle: least squares through 0 on {(0,0), (-1/2,-1), (-5/2,-2)}
        # slope 11/13, worst residual 15/26
        defect = homogeneity_defect(limit_function(f, "P1"), [0.0, -0.5, -2.5])
        assert abs(defect - 15.0 / 26.0) <= 1e-12
        assert defect >= 0.5

    def test_q1_defect_frozen(self, f, h):
        defect = homogeneity_defect(limit_function(h, "Q1"), [0.0, -0.5, -2.5])
        assert abs(defect - 75.0 / 52.0) <= 1e-12
        assert defect > 0.1

    def test_needs_three_distinct_samples(self, f):
        p1 = limit_function(f, "P1")
        with pytest.raises(ValueError):
            homogeneity_defect(p1, [-1.0, -2.0])
        with pytest.raises(ValueError):
            homogeneity_defect(p1, [-1.0, -1.0, -1.0])

    @pytest.mark.parametrize("samples, message", [
        ([0.0, -0.0, -1.0], "3 distinct"),  # 0.0 and -0.0 are one radius
        ([math.nan, math.nan, -1.0], "3 distinct"),  # every NaN counts as one sample
        ([math.nan, -1.0, -2.0], "not NaN"),  # three distinct, then the domain check
        (np.array([-1.0, 5.0, -0.0, 5.0, 0.0])[::2], "3 distinct"),  # a strided view
    ])
    def test_distinct_samples_are_counted_as_np_unique_counts_them(self, f, samples, message):
        with pytest.raises(ValueError, match=message):
            homogeneity_defect(limit_function(f, "P1"), samples)


    @pytest.mark.parametrize("kind, want", [
        (None, 4.440892098500626e-16), ("P1", 0.11272101472747131), ("Q1", 0.22748942958693785),
    ])
    def test_sums_are_plain_floats_left_to_right(self, kind, want):
        # verify's three defects at this K: np.dot took the two sums through the BLAS
        # kernel, and read 0.0, 0.11272101472747154 and 0.22748942958693807 on one
        f = build_standard_map(1.1441591233355553)
        evalf = (lambda v: f.K * v) if kind is None else limit_function(f, kind).eval_log
        xs = [0.0, f.breakpoint(1), f.breakpoint(2)]
        ys = [evalf(x) for x in xs]
        sxy = sxx = 0.0
        for x, y in zip(xs, ys):
            sxy += x * y
            sxx += x * x
        reference = max(abs(y - sxy / sxx * x) for x, y in zip(xs, ys))
        assert reference == want
        assert homogeneity_defect(evalf, xs).hex() == reference.hex()

    def test_samples_whose_squares_underflow_raise(self):
        # their sum of squares is 0.0, which made the slope a ZeroDivisionError
        with pytest.raises(ValueError, match="their squares underflow"):
            homogeneity_defect(lambda v: 2.0 * v, [0.0, -1e-200, -2e-200])

    @pytest.mark.parametrize("value, samples", [
        (math.nan, [-1.0, -2.0, -3.0]),
        (math.inf, [-1.0, -2.0, -3.0]),
        (-math.inf, [-1.0, -2.0, -3.0]),
        (1e308, [0.0, -1.0, -2.0]),  # the dot product overflows
        (-1e308, [0.0, -1.0, -2.0]),
    ])
    def test_defect_that_is_not_finite_raises(self, value, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^homogeneity defect is not finite"):
                homogeneity_defect(lambda v: value, samples)


class TestOneDimensionalModel:
    def test_mean_radius(self):
        for delta in (1.0, 0.5, 1e-3, 1e-9):
            assert abs(example_1d_mean_radius(delta) - 0.75 * delta) <= 1e-12 * delta

    def test_mean_radius_is_correctly_rounded(self):
        tiny, top = 2.0**-1022, sys.float_info.max
        rng = np.random.default_rng(7)
        deltas = [
            # 3 delta / 4 subnormal: the edges, and a sample between them
            5e-324, 1e-323, tiny, math.nextafter(tiny, 1.0), math.nextafter(4 / 3 * tiny, 0.0),
            *rng.uniform(0.0, 4 / 3 * tiny, 4000),
            # delta / 2 subnormal, every other binade, and the top, where 1.5 delta overflows
            4 / 3 * tiny, *rng.uniform(4 / 3 * tiny, 2 * tiny, 1000),
            *map(math.ldexp, rng.uniform(0.5, 1.0, 1023), range(-1020, 1025, 2)),
            top / 1.5, math.nextafter(top / 1.5, top), top,
        ]
        for delta in map(float, deltas):
            assert example_1d_mean_radius(delta) == float(Fraction(3, 4) * Fraction(delta)), delta

    def test_rescaled_values_independent_of_delta(self):
        for delta in (1.0, 0.5, 1e-3, 1e-9):
            assert abs(example_1d_rescaled(1.0, delta) - 4.0 / 3.0) <= 1e-12
            assert abs(example_1d_rescaled(-1.0, delta) + 2.0 / 3.0) <= 1e-12
            assert example_1d_rescaled(0.0, delta) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            example_1d_rescaled(1.5, 0.1)
        with pytest.raises(ValueError):
            example_1d_rescaled(0.5, 0.0)
