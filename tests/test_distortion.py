"""Distortion closed forms against the central-difference oracle, essential
suprema, iterate uniformity, and the closed form of the linear distortion.
"""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialqc import (
    NotDifferentiableError,
    build_conjugated_map,
    build_standard_map,
    finite_difference_distortion,
    limit_function,
    iterate_max_distortion,
    linear_distortion_radial,
    max_distortion,
    pointwise_distortion,
    radial_power_distortion,
)
from radialqc.cli import main

ALPHAS = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


@pytest.fixture(scope="module")
def f():
    return build_standard_map(2.0)


@pytest.fixture(scope="module")
def h(f):
    return build_conjugated_map(f)


class TestPowerClosedForm:
    def test_expanding_case(self):
        rep = radial_power_distortion(2.0, 3)
        assert (rep.K_O, rep.K_I, rep.K_max) == (4.0, 2.0, 4.0)

    def test_identity_map(self):
        for d in (2, 3, 4):
            rep = radial_power_distortion(1.0, d)
            assert (rep.K_O, rep.K_I, rep.K_max) == (1.0, 1.0, 1.0)

    def test_contracting_case(self):
        rep = radial_power_distortion(0.5, 2)
        assert (rep.K_O, rep.K_I, rep.K_max) == (2.0, 2.0, 2.0)

    def test_rejects_nonpositive_alpha_and_low_dimension(self):
        with pytest.raises(ValueError):
            radial_power_distortion(0.0, 2)
        with pytest.raises(ValueError):
            radial_power_distortion(-1.0, 2)
        with pytest.raises(ValueError):
            radial_power_distortion(2.0, 1)
        # alpha ** (d - 1) and alpha ** (1 - d) beyond float64 used to raise OverflowError
        for alpha, d in ((2.0, 2000), (1e300, 3), (1e-300, 3)):
            with pytest.raises(ValueError, match="overflows"):
                radial_power_distortion(alpha, d)

    def test_array_real_setting_raises_the_checkers_message(self):
        # _real: numpy's "only 0-dimensional arrays ..." TypeError used to escape
        for bad in (np.array([2.0]), np.array([[2.0]]), np.array([]), np.array([2])):
            with pytest.raises(TypeError, match="alpha must be a finite real > 0"):
                radial_power_distortion(bad, 3)
        assert radial_power_distortion(np.array(2.0), 3) == radial_power_distortion(2.0, 3)
        for bad in (np.array(True), np.array(False)):  # a 0-d bool array is no real either
            with pytest.raises(TypeError, match="alpha must be a finite real > 0"):
                radial_power_distortion(bad, 3)

    def test_array_count_raises_the_checkers_message(self):
        # _count: numpy's "only integer scalar arrays ..." TypeError used to escape
        for bad in (np.array([3]), np.array([[3]]), np.array([], dtype=int), np.array(3.0)):
            with pytest.raises(TypeError, match="dimension must be an integer >= 2"):
                radial_power_distortion(2.0, bad)
        assert radial_power_distortion(2.0, np.array(3)) == radial_power_distortion(2.0, 3)

    @given(alpha=ALPHAS, d=st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_duality_under_inversion(self, alpha, d):
        rep = radial_power_distortion(alpha, d)
        inv = radial_power_distortion(1.0 / alpha, d)
        assert rep.K_O == pytest.approx(inv.K_I, rel=1e-12)
        assert rep.K_I == pytest.approx(inv.K_O, rel=1e-12)

    @given(alpha=ALPHAS, d=st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_reports_at_least_one(self, alpha, d):
        rep = radial_power_distortion(alpha, d)
        assert rep.K_O >= 1.0 - 1e-12
        assert rep.K_I >= 1.0 - 1e-12
        assert rep.K_max == max(rep.K_O, rep.K_I)


class TestPointwise:
    def test_map_interior_points(self, f):
        rep = pointwise_distortion(f, 2, math.log2(0.8))
        assert (rep.K_O, rep.K_I) == (2.0, 2.0)
        rep = pointwise_distortion(f, 3, math.log2(0.8))
        assert (rep.K_O, rep.K_I) == (4.0, 2.0)
        rep = pointwise_distortion(f, 3, -1.0)  # second interval, exponent 1/2
        assert (rep.K_O, rep.K_I) == (2.0, 4.0)

    def test_conjugated_map_points(self, h):
        rep = pointwise_distortion(h, 2, math.log2(0.8))
        assert (rep.K_O, rep.K_I) == (4.0, 4.0)

    def test_breakpoint_rejected(self, f):
        with pytest.raises(NotDifferentiableError):
            pointwise_distortion(f, 2, f.breakpoint(1))


class TestFiniteDifferenceOracle:
    def test_matches_closed_form_across_alpha_and_d(self):
        rng = np.random.default_rng(7)
        for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
            closed = None
            for d in (2, 3, 4):
                closed = radial_power_distortion(alpha, d)
                for x in rng.uniform(-6.0, -0.05, size=20):
                    est = finite_difference_distortion(
                        lambda r, a=alpha: r**a, d, float(x), 1e-6 * 2.0**x
                    )
                    assert est.K_O == pytest.approx(closed.K_O, rel=1e-6)
                    assert est.K_I == pytest.approx(closed.K_I, rel=1e-6)

    def test_identity_double(self):
        rep = finite_difference_distortion(lambda r: r, 3, -1.0, 1e-7)
        assert rep.K_O == pytest.approx(1.0, rel=1e-6)
        assert rep.K_I == pytest.approx(1.0, rel=1e-6)

    def test_cube_double(self):
        rep = finite_difference_distortion(lambda r: r**3, 2, -1.0, 1e-7)
        assert rep.K_O == pytest.approx(3.0, rel=1e-6)

    def test_agrees_with_pointwise_on_map(self, f):
        x = math.log2(0.8)
        fd = finite_difference_distortion(f, 2, x, 1e-6 * 0.8)
        pw = pointwise_distortion(f, 2, x)
        assert fd.K_O == pytest.approx(pw.K_O, rel=1e-6)
        assert fd.K_I == pytest.approx(pw.K_I, rel=1e-6)

    def test_agrees_with_pointwise_on_conjugated_map(self, h):
        x = math.log2(0.9)
        fd = finite_difference_distortion(h, 3, x, 1e-7 * 0.9)
        pw = pointwise_distortion(h, 3, x)
        assert fd.K_O == pytest.approx(pw.K_O, rel=1e-6)
        assert fd.K_I == pytest.approx(pw.K_I, rel=1e-6)

    def test_step_crossing_breakpoint_rejected(self, f):
        r1 = 2.0 ** f.breakpoint(1)
        with pytest.raises(ValueError):
            finite_difference_distortion(f, 2, math.log2(r1 + 1e-9), 1e-6)

    def test_zoom_limit_at_its_kink_is_not_a_map(self, f):
        # P2 switches from slope 1/K to K at log2 r = -K, where a step across
        # the kink used to average the two slopes: K_O = K_I = 1.2499 at K = 2
        P2 = limit_function(f, "P2")
        with pytest.raises(TypeError):
            finite_difference_distortion(P2, 2, -f.K, 1e-4 * 2.0**-f.K)
        # read as a plain callable, one side of the kink gives the exponent's distortion
        rep = finite_difference_distortion(
            lambda r: 2.0 ** P2.eval_log(math.log2(r)), 2, -f.K + 0.1, 1e-6 * 2.0 ** (0.1 - f.K))
        assert rep.K_max == pytest.approx(f.K, rel=1e-5)

    def test_underflow_and_overflow_raise_value_error(self, f):
        # the product of the singular values used to underflow to 0.0 and
        # raise ZeroDivisionError; a huge dimension built a d-element array
        rep = finite_difference_distortion(f, 200, -3.7, 1e-6)
        assert rep.K_I == pytest.approx(2.0**199, rel=1e-6)
        assert rep.K_O == pytest.approx(2.0, rel=1e-6)
        for d in (2000, 2**63, 10**400):
            with pytest.raises(ValueError, match="overflows"):
                finite_difference_distortion(f, d, -3.7, 1e-6)
        with pytest.raises(ValueError, match="not positive"):
            finite_difference_distortion(f, 2, -3.7, 1e-320)

    def test_bad_step_rejected(self, f):
        with pytest.raises(ValueError):
            finite_difference_distortion(f, 2, -1.0, 0.0)
        with pytest.raises(ValueError):
            finite_difference_distortion(f, 2, -30.0, 1.0)
        with pytest.raises(ValueError, match="r \\+ step leaves the unit interval"):
            finite_difference_distortion(f, 2, -1e-9, 1e-3)


class TestSupremum:
    def test_spec_values(self, f, h):
        assert max_distortion(f, 3).K_max == 4.0
        assert max_distortion(f, 2).K_max == 2.0
        assert max_distortion(h, 2).K_max == 4.0

    def test_non_integral_dimension_rejected(self, f):
        # never truncated to d = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                max_distortion(f, 2.5)

    def test_matches_closed_form_across_K_and_d(self):
        for K in (1.1, 2.0, 5.0):
            f = build_standard_map(K)
            h = build_conjugated_map(f)
            for d in (2, 3, 4):
                assert max_distortion(f, d).K_max == pytest.approx(K ** (d - 1), rel=1e-12)
                assert max_distortion(h, d).K_max == pytest.approx(
                    K ** (2 * (d - 1)), rel=1e-12
                )


def quadratic_iterate_distortion(h, d, m_max):
    """Reference: re-sum both signed orbit counts for every m, O(m_max^2)."""
    out = []
    for m in range(1, m_max + 1):
        exps = set()
        for n0 in (1, 2):
            net = sum(1 if (n0 + i) % 2 == 1 else -1 for i in range(m))
            exps.add({0: 1.0, 1: h.K * h.K, -1: 1.0 / (h.K * h.K)}[net])  # as h forms them
        reports = [radial_power_distortion(a, d) for a in sorted(exps)]
        out.append((max(r.K_O for r in reports), max(r.K_I for r in reports)))
    return out


class TestIterateDistortion:
    def test_matches_quadratic_orbit_sum(self):
        # at 1.0590145072536268, K**-2 and 1/(K*K) differ in the last bit
        for K in (2.0, 1.37, 7.3, 1.0590145072536268):
            h = build_conjugated_map(build_standard_map(K))
            for d in (2, 3):
                got = [(r.K_O, r.K_I) for r in iterate_max_distortion(h, d, 300)]
                assert got == quadratic_iterate_distortion(h, d, 300)

    def test_alternating_pattern(self, h):
        reports = iterate_max_distortion(h, 2, 8)
        assert [rep.K_max for rep in reports] == [4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0, 1.0]

    def test_spec_examples(self, h):
        assert iterate_max_distortion(h, 2, 2)[1].K_max == 1.0
        assert iterate_max_distortion(h, 2, 1)[0].K_max == 4.0
        assert iterate_max_distortion(h, 2, 7)[6].K_max == 4.0

    def test_uniform_bound_over_forty_iterates(self, h):
        for d in (2, 3):
            bound = 2.0 ** (2 * (d - 1))
            reports = iterate_max_distortion(h, d, 40)
            assert max(rep.K_max for rep in reports) == bound
            assert all(rep.K_max == 1.0 for rep in reports[1::2])

    def test_composed_finite_differences_match_parity(self, h):
        # measure h^3 and h^2 numerically at sample points; odd iterates carry
        # the full bound K^{2(d-1)}, even ones none at all
        rng = np.random.default_rng(11)
        cubed = lambda r: 2.0 ** h.iterate(float(np.log2(r)), 3)
        squared = lambda r: 2.0 ** h.iterate(float(np.log2(r)), 2)
        for x in rng.uniform(-2.0, -0.1, size=10):
            est3 = finite_difference_distortion(cubed, 2, float(x), 1e-7 * 2.0**x)
            assert est3.K_max == pytest.approx(4.0, rel=1e-4)
            est2 = finite_difference_distortion(squared, 2, float(x), 1e-7 * 2.0**x)
            assert est2.K_max == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_odd_report_is_that_of_h(self, capsys, d):
        # h^1 = h; at this K, K**-2 and 1 / K**2 differ in the last bit
        K = 1.0590145072536268
        h = build_conjugated_map(build_standard_map(K))
        want = max_distortion(h, d)
        assert iterate_max_distortion(h, d, 1)[0] == want
        assert main(["distortion", "--map", "h", "--K", repr(K), "--d", str(d)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [float(v) for v in rows[1][1:]] == [want.K_O, want.K_I, want.K_max]

    def test_f_is_refused(self, f):
        # it returned h's alternating reports for f, whose second iterate is no
        # similarity: at log2 r = -0.7 both steps of f have slope 1/K, so f o f
        # has outer distortion K^2 = 4 where the even report reads 1
        ff = lambda r: 2.0 ** f.eval_log(f.eval_log(float(np.log2(r))))
        est = finite_difference_distortion(ff, 2, -0.7, 1e-7 * 2.0**-0.7)
        assert est.K_O == pytest.approx(4.0, rel=1e-4)
        with pytest.raises(TypeError):
            iterate_max_distortion(f, 2, 3)

    def test_rejects_zero_iterations(self, h):
        with pytest.raises(ValueError):
            iterate_max_distortion(h, 2, 0)
        with pytest.raises(TypeError):
            iterate_max_distortion(h, 2, 2.5)
        with pytest.raises(TypeError):
            iterate_max_distortion(h, 2, True)


class TestLinearDistortion:
    def test_unity_for_radial_maps(self, f, h):
        assert linear_distortion_radial(f) == pytest.approx(1.0, abs=1e-12)
        assert linear_distortion_radial(h, d=3) == pytest.approx(1.0, abs=1e-12)
        assert linear_distortion_radial(lambda r: r**3, d=4) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [600.0, 2000.0, 1e5])
    def test_unity_where_images_underflow_linear_scale(self, K):
        # every image radius is below 2^-538, so its square underflows float64
        h = build_conjugated_map(build_standard_map(K))
        assert h.eval_log(-0.25) < -538.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(linear_distortion_radial(h) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 2**16])
    def test_closed_form_for_each_kind_of_map(self, f, h, d):
        for map_ in (f, h, limit_function(f, "P1"), lambda r: r**3):
            assert linear_distortion_radial(map_, d=d) == 1.0

    def test_plain_callable_is_never_called(self):
        calls = []
        assert linear_distortion_radial(calls.append, d=3) == 1.0
        assert calls == []

    @pytest.mark.parametrize("map_", [None, "f", 1.0])
    def test_rejects_what_is_neither_map_nor_callable(self, map_):
        with pytest.raises(TypeError, match="need a radial map exposing eval_log"):
            linear_distortion_radial(map_)

    @pytest.mark.parametrize("d, error, message", [
        (1, ValueError, "^dimension must be an integer >= 2$"),
        (2**16 + 1, ValueError, "^dimension must be at most 2\\*\\*16$"),
        (2.0, TypeError, "^dimension must be an integer >= 2$"),
        (True, TypeError, "^dimension must be an integer >= 2$"),
    ])
    def test_dimension_is_checked_before_the_map(self, d, error, message):
        with pytest.raises(error, match=message):
            linear_distortion_radial(None, d=d)
