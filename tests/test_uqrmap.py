"""Conjugated halving dynamics: closed branch table vs the conjugacy oracle,
breakpoint forwarding, the exact two-step similarity, and attraction.

The oracle h = f^{-1}(f(.)/2) uses only the base map's forward and inverse
evaluators; the closed form is derived independently from K alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialqc import (
    RADIUS_ZERO_LOG2,
    ConjugatedMap,
    NotDifferentiableError,
    build_conjugated_map,
    build_standard_map,
    h_via_conjugacy,
)
from radialqc import uqrmap
from radialqc.powermap import GUARD_DEPTH

K_VALUES = st.floats(min_value=1.05, max_value=5.0, allow_nan=False)
LOG_RADII = st.floats(min_value=-30.0, max_value=0.0, allow_nan=False)


@pytest.fixture(scope="module")
def f():
    return build_standard_map(2.0)


@pytest.fixture(scope="module")
def h(f):
    return build_conjugated_map(f)


class TestBranchTable:
    def test_first_interval_coefficients_at_K2(self, f, h):
        # on [r_1, r_0]: coefficient log2 = -1/2, exponent K^2 = 4
        assert h.eval_log(0.0) == -0.5  # h(1) = r_1
        x = math.log2(0.9)
        assert abs(h.eval_log(x) - (-0.5 + 4.0 * x)) <= 1e-12

    def test_second_interval_coefficients_at_K2(self, f, h):
        # on [r_2, r_1]: coefficient log2 = 1/8 - 1/2 - 2 = -19/8, exponent 1/4
        x = -1.0
        assert abs(h.eval_log(x) - (-19.0 / 8.0 + x / 4.0)) <= 1e-12

    def test_h_at_unit_radius_any_K(self):
        for K in (1.1, 2.0, 3.7):
            f = build_standard_map(K)
            h = build_conjugated_map(f)
            assert abs(h.eval_log(0.0) - f.breakpoint(1)) <= 1e-12

    def test_frozen_point_eight(self, f, h):
        # conjugacy oracle: f(0.8) = 0.64, halve to 0.32, pull back through f
        oracle = f.inverse_eval_log(f.eval_log(math.log2(0.8)) - 1.0)
        assert abs(oracle - (-1.7877123795494494)) <= 1e-9
        assert abs(h.eval_log(math.log2(0.8)) - oracle) <= 1e-9

    def test_sentinel_fixed(self, h):
        assert h.eval_log(RADIUS_ZERO_LOG2) == RADIUS_ZERO_LOG2

    def test_rejects_positive_input(self, h):
        with pytest.raises(ValueError):
            h.eval_log(0.5)


class TestConstruction:
    def test_a_source_that_is_not_f_is_refused_when_built(self, f, h):
        # it failed only later, with an AttributeError, when h was evaluated
        for source in ("x", None, 2.0):
            with pytest.raises(TypeError, match="^map must be a PiecewisePowerMap or a "
                                                "ConjugatedMap$"):
                ConjugatedMap(source)
        with pytest.raises(TypeError, match="not a ConjugatedMap$"):
            ConjugatedMap(h)

    def test_the_held_row_is_not_a_field(self, f, h):
        # equality, hashing and repr read the source alone
        assert [fl.name for fl in dataclasses.fields(h)] == ["source"]
        assert h._row == uqrmap._cell_spec("h", 2.0)
        assert h == ConjugatedMap(build_standard_map(2)) and hash(h) == hash(ConjugatedMap(f))
        assert repr(h) == "ConjugatedMap(source=PiecewisePowerMap(K=2.0))"


class TestConjugacyOracle:
    def test_spec_values(self, f):
        assert h_via_conjugacy(f, 0.0) == -0.5
        assert abs(h_via_conjugacy(f, f.breakpoint(3)) - (-5.0)) <= 1e-9

    def test_closed_form_matches_oracle_on_grid(self, f, h):
        grid = np.linspace(f.breakpoint(20), 0.0, 1000)
        assert np.max(np.abs(h.eval_log(grid) - h_via_conjugacy(f, grid))) <= 1e-9

    @given(K=K_VALUES, x=LOG_RADII)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_oracle_generic_K(self, K, x):
        f = build_standard_map(K)
        h = build_conjugated_map(f)
        assert abs(h.eval_log(x) - h_via_conjugacy(f, x)) <= 1e-9

    def test_functional_identity(self, f, h):
        grid = np.linspace(f.breakpoint(20), 0.0, 1000)
        lhs = f.eval_log(h.eval_log(grid))
        assert np.max(np.abs(lhs - (f.eval_log(grid) - 1.0))) <= 1e-9


class TestBreakpointForwarding:
    def test_small_cases(self, f, h):
        assert abs(h.eval_log(f.breakpoint(2)) - (-3.0)) <= 1e-12
        assert abs(h.eval_log(f.breakpoint(3)) - (-5.0)) <= 1e-12

    def test_all_cached_indices(self, f, h):
        n = np.arange(0, GUARD_DEPTH)
        fwd = h.eval_log(f.breakpoint(n))
        assert np.max(np.abs(fwd - f.breakpoint(n + 1))) <= 1e-9


class TestIterates:
    def test_identity_at_zero_steps(self, h):
        assert h.iterate(-0.77, 0) == -0.77

    def test_two_steps_from_unit_radius(self, f, h):
        # oracle: two successive conjugacy evaluations
        oracle = h_via_conjugacy(f, h_via_conjugacy(f, 0.0))
        assert abs(oracle - (-2.5)) <= 1e-12
        assert abs(h.iterate(0.0, 2) - oracle) <= 1e-12

    def test_three_steps_via_oracle(self, f, h):
        x = math.log2(0.8)
        oracle = x
        for _ in range(3):
            oracle = h_via_conjugacy(f, oracle)
        assert abs(oracle - (-4.287712379549449)) <= 1e-9
        assert abs(h.iterate(x, 3) - oracle) <= 1e-9

    def test_exact_similarity_of_second_iterate(self, f, h):
        period = f.K + 1.0 / f.K
        grid = np.linspace(-12.0, 0.0, 500)
        two = h.eval_log(h.eval_log(grid))
        assert np.max(np.abs(two - grid + period)) <= 1e-9

    def test_attraction_rate(self, f, h):
        period = f.K + 1.0 / f.K
        for x in (0.0, -0.3, -2.5):
            rate = (x - h.iterate(x, 1000)) / 1000.0
            assert abs(rate - period / 2.0) <= 1e-6

    def test_strictly_below_identity(self, f, h):
        grid = np.linspace(-12.0, -1e-6, 400)
        assert np.all(h.eval_log(grid) < grid)

    def test_monotone(self, h):
        grid = np.linspace(-12.0, 0.0, 400)
        assert np.all(np.diff(h.eval_log(grid)) > 0.0)

    def test_negative_count_rejected(self, h):
        with pytest.raises(ValueError):
            h.iterate(-1.0, -1)
        with pytest.raises(ValueError):
            h.iterate(-1.0, np.array([3, -1]))

    def test_non_integral_count_rejected(self, h):
        # counts are never truncated (2.5 is not 2)
        for bad in (2.5, 2.0, np.array([1.0, 2.0])):
            with pytest.raises(TypeError):
                h.iterate(-3.0, bad)

    def test_array_counts_match_scalar_loop(self):
        for K in (2.0, 1.37, 7.3):
            h = build_conjugated_map(build_standard_map(K))
            m = np.arange(0, 41)
            for x in (0.0, -0.77, -1e4, RADIUS_ZERO_LOG2):
                loop = np.array([h.iterate(x, int(k)) for k in m])
                assert np.array_equal(h.iterate(x, m), loop)
            # broadcasting: one count per start point, mixed parity, with m = 0
            xs = np.linspace(-20.0, 0.0, 41)
            xs[7] = RADIUS_ZERO_LOG2
            counts = (m * 7) % 5
            loop = np.array([h.iterate(x, int(k)) for x, k in zip(xs, counts)])
            assert np.array_equal(h.iterate(xs, counts), loop)
            grid = h.iterate(xs[:, None], m[None, :])
            assert grid.shape == (41, 41)
            assert np.array_equal(grid[:, 5], h.iterate(xs, 5))

    def test_odd_count_shifted_below_the_domain_raises(self, h):
        # x is in the domain, but x - (m // 2)(K + 1/K) is not: the last
        # application of h checks the shifted value again and rejects it
        x = -(2.0**52) + 1.0
        for m in (3, np.array([1, 3])):
            with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                h.iterate(x, m)

    def test_even_count_shifted_below_the_domain_raises(self, h):
        # x - (m // 2)(K + 1/K) leaves the domain with no application of h
        # after it: an even count is checked as an odd one is
        x = -(2.0**52) + 1.0
        for m in (2, np.int64(4)):
            with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                h.iterate(x, m)

    def test_even_lane_of_a_count_array_shifted_below_the_domain_raises(self, h):
        # only the lane of count 2 leaves the domain, not the odd or count-0 ones
        x = -(2.0**52) + 1.0
        for xs, m in ((x, np.array([0, 1, 2])), (np.array([x, -1.0, x]), np.array([2, 1, 0]))):
            with pytest.raises(ValueError, match=r"must be >= -2\*\*52"):
                h.iterate(xs, m)

    def test_sentinel_orbit(self, h):
        assert h.iterate(RADIUS_ZERO_LOG2, 7) == RADIUS_ZERO_LOG2
        assert h.iterate(RADIUS_ZERO_LOG2, 8) == RADIUS_ZERO_LOG2
        orbit = h.iterate(np.array([RADIUS_ZERO_LOG2, -1.0]), np.array([2, 2]))
        assert orbit[0] == RADIUS_ZERO_LOG2 and orbit[1] == -1.0 - (h.K + 1.0 / h.K)


class TestLocalExponent:
    def test_squared_slopes(self, f, h):
        assert h.local_exponent(math.log2(0.8)) == 4.0
        assert h.local_exponent(-1.0) == 0.25
        assert h.distinct_exponents() == (4.0, 0.25)

    def test_breakpoint_rejected(self, f, h):
        with pytest.raises(NotDifferentiableError):
            h.local_exponent(f.breakpoint(2))

    def test_build_requires_power_map(self):
        with pytest.raises(TypeError):
            build_conjugated_map(lambda r: r)
