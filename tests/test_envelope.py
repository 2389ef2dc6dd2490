"""Accuracy envelope of every evaluator against the exact-rational oracle.

``perfbench/oracle.py`` evaluates f, f^-1, h, h^m, the four zoom limits and
the rescaled maps from their definitions in ``fractions.Fraction`` over the
exact binary value of K, and imports nothing from radialqc, so the whole error
of a comparison is the library's.  Every evaluator must stay within

    4 eps (|x| + |t| + 1) s,    eps = 2^-52,

where t is the zoom scale (for an iterate h^m, the similarity shift
(m // 2)(K + 1/K) it applies first) and s the largest slope of the map's
family: K for f, f^-1, P1, P2 and the zoom of f, K^2 for h, h^m, Q1, Q2 and
the zoom of h.  A few correctly rounded operations on quantities of size
|x| + |t| give a bound of that form (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, ch. 1-3); the largest error measured is below
1.5 units, so the factor 4 leaves margin.

The points are log-uniform radii down to 2^-2^52, breakpoints, the shifted
breakpoints -((m + 1) K + m / K) where P2 and Q2 switch branch, and the float
neighbours of both.  Every map is also checked within 4 ulps of its branch
switch and cell edges, shifted down by up to 2^40 periods: the only lanes
where the cell kernel's max or min of two lines can pick the other line than
a comparison with the switch would.  Exact ties are checked at powers of two
K, where every breakpoint in range is an exact float.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialqc import (
    breakpoint_log2,
    build_conjugated_map,
    build_standard_map,
    limit_function,
    rescaled_eval,
)
from radialqc.powermap import MAX_ABS_LOG2_RADIUS

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import ExactMaps, error_units  # noqa: E402

ENVELOPE = 4.0

#: log-uniform K from 1 + 2^-40 up to just below the float64 guard (~1.05e6)
K_VALUES = st.one_of(
    st.sampled_from([2.0, 3.0, 1.37, 9.99, 1.2001, 1e3, 1.0 + 1e-12, 1.04e6]),
    st.floats(-40.0, 19.98).map(lambda e: 1.0 + 2.0**e),
)


@st.composite
def log_radii(draw, K, bound=MAX_ABS_LOG2_RADIUS):
    """A log2 radius in [-bound, 0]: log-uniform, a breakpoint or a shifted
    breakpoint, or a float neighbour of one."""
    period = K + 1.0 / K
    kind = draw(st.sampled_from(["log-uniform", "breakpoint", "shifted"]))
    if kind == "log-uniform":
        x = -(2.0 ** draw(st.floats(-30.0, math.log2(bound))))
    elif kind == "breakpoint":
        top = int(2.0 * bound / period)
        x = breakpoint_log2(K, draw(st.one_of(st.integers(0, 40), st.integers(0, top))))
    else:
        m = draw(st.one_of(st.integers(0, 40), st.integers(0, int(bound / period))))
        x = -((m + 1) * K + m / K)
    x = draw(st.sampled_from([x, np.nextafter(x, 0.0), np.nextafter(x, -np.inf)]))
    assume(-bound <= x <= 0.0)
    return float(x)


def branch_switch(row, K):
    """Where row ``row`` of ``powermap._cell_spec`` switches branch in its top
    cell, the one point where its two lines cross."""
    if row == "f_inv":
        return -1.0
    return -K if row in ("P2", "Q2") else -1.0 / K


def switch_lanes(switch, period, j):
    """The switch and both edges of the top cell (-period, 0], each shifted
    down by j periods (an int or an int array) and 1..4 ulps either side of
    each: those in the log2-radius domain."""
    base = np.subtract.outer([switch, 0.0, -period], np.asarray(j, dtype=float) * period).ravel()
    lanes = [base]
    for toward in (0.0, -math.inf):
        x = base
        for _ in range(4):
            x = np.nextafter(x, toward)
            lanes.append(x)
    x = np.concatenate(lanes)
    return x[(x >= -MAX_ABS_LOG2_RADIUS) & (x <= 0.0)]


def worst_units(values, refs, scales):
    return max(error_units(float(v), r, s) for v, r, s in zip(values, refs, scales))


def evaluator(what, K):
    f = build_standard_map(K)
    h = build_conjugated_map(f)
    slope = K * K if what in ("h", "Q1", "Q2") else K
    if what == "f":
        return f.eval_log, slope
    if what == "f_inv":
        return f.inverse_eval_log, slope
    if what == "h":
        return h.eval_log, slope
    return limit_function(h if what[0] == "Q" else f, what).eval_log, slope


@pytest.mark.parametrize("what", ["f", "h", "P1", "P2", "Q1", "Q2"])
@given(K=K_VALUES, data=st.data())
@settings(max_examples=25)
def test_map_within_envelope(what, K, data):
    ev, slope = evaluator(what, K)
    x = data.draw(st.lists(log_radii(K), min_size=1, max_size=8))
    ex = ExactMaps(K)
    refs = [ex.evaluate(what, v) for v in x]
    assert worst_units(ev(np.array(x)), refs, [(abs(v) + 1.0) * slope for v in x]) <= ENVELOPE
    assert error_units(ev(x[0]), refs[0], (abs(x[0]) + 1.0) * slope) <= ENVELOPE


#: each evaluator's row of the cell-spec table
ROWS = {"f": "P1", "f_inv": "f_inv", "h": "h", "P1": "P1", "P2": "P2", "Q1": "Q1", "Q2": "Q2"}


@pytest.mark.parametrize("what", list(ROWS))
@given(K=K_VALUES, j=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
                              min_size=1, max_size=2))
@settings(max_examples=40)
def test_branch_switch_lanes_within_envelope(what, K, j):
    # the lanes where the cell kernel's pick can move: either line must do there
    ev, slope = evaluator(what, K)
    period = 2.0 if what == "f_inv" else K + 1.0 / K
    j = np.minimum(j, MAX_ABS_LOG2_RADIUS // period - 1)
    x = switch_lanes(branch_switch(ROWS[what], K), period, j)
    ex = ExactMaps(K)
    refs = [ex.evaluate(what, v) for v in x.tolist()]
    assert worst_units(ev(x), refs, (np.abs(x) + 1.0) * slope) <= ENVELOPE


@given(K=K_VALUES, data=st.data())
@settings(max_examples=25)
def test_inverse_within_envelope(K, data):
    f = build_standard_map(K)
    # the value-side breakpoints are the integers -n
    y = data.draw(st.lists(st.one_of(
        st.floats(-30.0, 52.0).map(lambda e: -(2.0**e)),
        st.integers(0, 2**52).flatmap(
            lambda n: st.sampled_from([-float(n), np.nextafter(-n, 0.0), np.nextafter(-n, -np.inf)])
        ).map(float),
    ).filter(lambda v: -MAX_ABS_LOG2_RADIUS <= v <= 0.0), min_size=1, max_size=8))
    ex = ExactMaps(K)
    refs = [ex.evaluate("f_inv", v) for v in y]
    scales = [(abs(v) + 1.0) * K for v in y]
    assert worst_units(f.inverse_eval_log(np.array(y)), refs, scales) <= ENVELOPE


@given(K=K_VALUES, data=st.data())
@settings(max_examples=25)
def test_odd_iterate_within_envelope(K, data):
    h = build_conjugated_map(build_standard_map(K))
    period = K + 1.0 / K
    x = data.draw(log_radii(K))
    p = data.draw(st.one_of(
        st.integers(0, 40), st.integers(0, max(int((MAX_ABS_LOG2_RADIUS + x) / period) - 1, 0))
    ))
    ref = ExactMaps(K).evaluate("h_iterate", x, m=2 * p + 1)
    scale = (abs(x) + p * period + 1.0) * K * K
    assert error_units(h.iterate(x, 2 * p + 1), ref, scale) <= ENVELOPE


@pytest.mark.parametrize("which", ["f", "h"])
@given(K=K_VALUES, data=st.data())
@settings(max_examples=25)
def test_rescaled_within_envelope(which, K, data):
    f = build_standard_map(K)
    map_, slope = (f, K) if which == "f" else (build_conjugated_map(f), K * K)
    half = MAX_ABS_LOG2_RADIUS / 2
    t = data.draw(log_radii(K, half).filter(lambda v: v < 0.0))
    x = data.draw(st.lists(log_radii(K, half), min_size=1, max_size=8))
    ex = ExactMaps(K)
    refs = [ex.evaluate(f"rescaled_{which}", v, t=t) for v in x]
    scales = [(abs(v) + abs(t) + 1.0) * slope for v in x]
    assert worst_units(rescaled_eval(map_, t, np.array(x)), refs, scales) <= ENVELOPE


@pytest.mark.parametrize("K", [2.0, 1.37, 3.0, 9.99, 1.2001, 1e3])
def test_shifted_limits_match_oracle(K):
    """P2 and Q2 at breakpoints, at the shifted breakpoints where they switch
    branch, at the float neighbours of both, and at uniform and deep points."""
    f = build_standard_map(K)
    h = build_conjugated_map(f)
    rng = np.random.default_rng(5)
    m = np.arange(0, 40)
    ties = np.concatenate([breakpoint_log2(K, np.arange(1, 80)), -((m + 1) * K + m / K)])
    x = np.concatenate([
        rng.uniform(-200.0, 0.0, 40), [0.0, -(2.0**52)], ties,
        np.nextafter(ties, 0.0), np.nextafter(ties, -np.inf),
        -np.exp2(rng.uniform(0.0, 52.0, 40)),
    ])
    ex = ExactMaps(K)
    for lf, slope in ((limit_function(f, "P2"), K), (limit_function(h, "Q2"), K * K)):
        refs = [ex.evaluate(lf.kind, v) for v in x.tolist()]
        assert worst_units(lf.eval_log(x), refs, (np.abs(x) + 1.0) * slope) <= ENVELOPE


@pytest.mark.parametrize("K", [2.0, 4.0, 1024.0])
def test_locate_ties_match_oracle(K):
    """At a power of two K every breakpoint below 2^33 K in magnitude is an
    exact float, so a breakpoint input is an exact tie; the lookup must give
    the oracle's index there (the smaller one) and at both float neighbours."""
    f = build_standard_map(K)
    ex = ExactMaps(K)
    n = np.concatenate([np.arange(0, 200), 2 ** np.arange(8, 34), 2 ** np.arange(8, 34) + 1])
    bp = f.breakpoint(n)
    assert all(Fraction(b) == ex.breakpoint(int(k)) for b, k in zip(bp.tolist(), n.tolist()))
    x = np.concatenate([bp[1:], np.nextafter(bp, 0.0)[1:], np.nextafter(bp, -np.inf)])
    got = f.locate_interval(x)
    assert got.tolist() == [ex.locate(Fraction(v)) for v in x.tolist()]


@given(K=K_VALUES, e=st.lists(st.floats(-30.0, 52.0), min_size=1, max_size=8))
@settings(max_examples=60)
def test_locate_matches_oracle(K, e):
    f = build_standard_map(K)
    ex = ExactMaps(K)
    x = -np.exp2(np.array(e))
    assert f.locate_interval(x).tolist() == [ex.locate(Fraction(v)) for v in x.tolist()]
