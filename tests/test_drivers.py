"""The two drivers of the cell spec agree, and the float one uses no numpy.

A Python float or any 0-d input (``np.float64``, ``int``, a 0-d array) takes
the ``math`` driver of ``powermap._eval_cells``, of the interval walk
``powermap._locate`` and of the local exponent; an array with ndim >= 1 takes
the numpy driver; ``powermap._log_radius`` checks the input and picks the
driver.  For every map, ``locate_interval``, ``local_exponent``, either
argument of ``rescaled_eval`` and ``h.iterate`` with an odd and an even count,
a point call must return exactly what the 1-element array call returns: the
same bits, the sign of zero and the -inf sentinel included, and the same
exception class and message on every input error.  The same holds for the
index entry points (``breakpoint_log2``, ``scale_at``, ``h.iterate``'s count),
whose int fast path computes on Python ints, and for ``ivt_sample``, whose
point path solves in plain floats.

The numpy driver evaluates every lane without a mask and picks each lane's
line by one max or min of the two, as the ``math`` driver does with a
conditional, so each lane of an array call, for every cell-spec row and for
ivt's inverse cell map, with and without the sentinel, must also be the
``math`` driver's float; above all within a few ulps of a branch switch or a
cell edge, where the two lines are closest.  An array mixing bad lanes
raises the message of the first check that fails over all lanes, in the
order NaN or +inf, positive, too deep, sentinel.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_envelope import K_VALUES, branch_switch, log_radii, switch_lanes

import radialqc.distortion
import radialqc.powermap
import radialqc.uqrmap
import radialqc.zoom
from radialqc import (
    PiecewisePowerMap,
    breakpoint_log2,
    build_conjugated_map,
    build_standard_map,
    iterate_max_distortion,
    ivt_sample,
    limit_function,
    max_distortion,
    pointwise_distortion,
    radial_power_distortion,
    rescaled_eval,
    scale_at,
    zoom_limit_deviation,
)
from radialqc.powermap import MAX_ABS_LOG2_RADIUS, MAX_BREAKPOINT_INDEX
from radialqc.zoom import LIMIT_KINDS

#: inputs every evaluator must reject, or (the -inf sentinel) pass through
ERROR_INPUTS = (math.nan, math.inf, 0.5, 5e-324, -(2.0**53), -1e300, -math.inf)


def callables(K):
    f = build_standard_map(K)
    h = build_conjugated_map(f)
    out = {"f": f.eval_log, "f_inv": f.inverse_eval_log, "h": h.eval_log,
           "f.locate_interval": f.locate_interval, "h.locate_interval": h.locate_interval,
           "f.local_exponent": f.local_exponent, "h.local_exponent": h.local_exponent,
           "rescaled_eval r": lambda r: rescaled_eval(f, -1.5, r),
           "rescaled_eval t": lambda t: rescaled_eval(h, t, -0.75),
           "h.iterate odd": lambda x: h.iterate(x, 3), "h.iterate even": lambda x: h.iterate(x, 2)}
    for kind in LIMIT_KINDS:
        out[kind] = limit_function(h if kind[0] == "Q" else f, kind).eval_log
    return out


def outcome(fn, *args):
    """What ``fn(*args)`` gives: (type, value, sign) for a result, taking element
    0 of an array result, or (class, message) for an error."""
    try:
        out = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        assert out.shape == (1,)
        out = out[0].item()
    return type(out), out, math.copysign(1.0, out)


def assert_drivers_agree(K, x):
    integral = math.isfinite(x) and x.is_integer()
    for name, fn in callables(K).items():
        want = outcome(fn, np.array([x]))
        for arg in (x, np.float64(x), np.array(x)):
            assert outcome(fn, arg) == want, (name, repr(arg))
        if integral:
            assert outcome(fn, int(x)) == outcome(fn, np.array([int(x)])), (name, x)


@given(K=K_VALUES, data=st.data())
@settings(max_examples=200)
def test_float_call_equals_array_call(K, data):
    x = data.draw(st.one_of(
        log_radii(K),
        st.sampled_from([0.0, -0.0]),
        # value-side breakpoints -n of f^-1 and their float neighbours
        st.integers(0, 2**52).flatmap(lambda n: st.sampled_from(
            [-float(n), float(np.nextafter(-n, 0.0)), float(np.nextafter(-n, -np.inf))])),
    ))
    assert_drivers_agree(K, x)


@pytest.mark.parametrize("K", [2.0, 1.37, 9.99, 1.04e6])
def test_error_inputs_raise_alike(K):
    for x in ERROR_INPUTS:
        assert_drivers_agree(K, x)


@pytest.mark.parametrize("K", [2.0, 4.0, 1.37, 3.0])
def test_breakpoints_and_neighbours_agree(K):
    f = build_standard_map(K)
    bp = f.breakpoint(np.concatenate([np.arange(0, 60), 2 ** np.arange(20, 53)]))
    for x in np.concatenate([bp, np.nextafter(bp, 0.0), np.nextafter(bp, -np.inf)]).tolist():
        if -(2.0**52) <= x <= 0.0:
            assert_drivers_agree(K, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1.0001, 2.0, 1.05e6])
def test_walk_start_is_never_above_the_answer(K):
    # the walk takes no step down: at the deepest breakpoints, their float
    # neighbours and both zeros, a tie goes to the smaller index, and a point
    # call and its 1-element array call agree bit for bit, errors included
    f, h = _maps(K)
    edge = int(2 * MAX_ABS_LOG2_RADIUS / (K + 1 / K))  # about the last index above -2**52
    bp = f.breakpoint(np.concatenate([np.arange(0, 20), np.arange(edge - 60, edge + 4)]))
    for x in np.concatenate([bp, np.nextafter(bp, 0.0), np.nextafter(bp, -np.inf),
                             [0.0, -0.0]]).tolist():
        for fn in (f.locate_interval, f.local_exponent, h.local_exponent):
            assert outcome(fn, x) == outcome(fn, np.array([x])), (fn, x)
        got = outcome(f.locate_interval, x)
        if got[0] is int:
            n = got[1]
            assert n == 1 or x < f.breakpoint(n - 1), x
        else:
            assert x < -MAX_ABS_LOG2_RADIUS, (x, got)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached on the float path")


def test_float_path_uses_no_numpy(monkeypatch):
    f = build_standard_map(2.0)
    h = build_conjugated_map(f)
    limits = [limit_function(h if kind[0] == "Q" else f, kind) for kind in LIMIT_KINDS]
    x = -3.7
    r0 = f.breakpoint(1)
    # a solved and a snapped target for f and for h (P1 and Q1 at r0)
    targets = [(f, -0.6), (f, limits[0].eval_log(r0)), (h, -0.6), (h, limits[2].eval_log(r0))]

    def calls():
        return [f.eval_log(x), f.inverse_eval_log(-1.5), h.eval_log(x),
                *(lf.eval_log(x) for lf in limits), f.locate_interval(x), h.local_exponent(x),
                pointwise_distortion(h, 3, x), f.eval_log(np.float64(x)),
                radial_power_distortion(2.5, 3), max_distortion(h, 3),
                iterate_max_distortion(h, 3, 4),
                *(ivt_sample(map_, r0, lam, 1e-9) for map_, lam in targets),
                breakpoint_log2(2.0, 7), f.breakpoint(7), scale_at(f, "odd", 3), h.iterate(x, 3)]

    want = calls()
    solved_f, snapped_f, solved_h, snapped_h = want[-8:-4]
    assert snapped_f == scale_at(f, "even", 1) != solved_f
    assert snapped_h == scale_at(h, "even", 1) != solved_h
    for mod in (radialqc.powermap, radialqc.zoom, radialqc.uqrmap, radialqc.distortion):
        monkeypatch.setattr(mod, "np", _NoNumpy())
    assert calls() == want
    with pytest.raises(ValueError, match="not NaN"):
        f.eval_log(math.nan)


def test_float_in_the_domain_skips_the_cell_spec_and_the_check(monkeypatch):
    # each map holds its rows from when it was built, and a Python float in
    # the domain is the check's fast case: neither is called again per point
    f = build_standard_map(2.0)
    h = build_conjugated_map(f)
    limits = [limit_function(f, kind) for kind in LIMIT_KINDS]
    evaluators = [f.eval_log, f.inverse_eval_log, h.eval_log, *(lf.eval_log for lf in limits)]
    pm, counts = radialqc.powermap, {"_cell_spec": 0, "_log_radii": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    spec = counted("_cell_spec", pm._cell_spec)  # one wrapper: a call counts once
    for mod in (pm, radialqc.uqrmap, radialqc.zoom):
        monkeypatch.setattr(mod, "_cell_spec", spec)
    monkeypatch.setattr(pm, "_log_radii", counted("_log_radii", pm._log_radii))
    xs = [-3.7, -1e6, 0.0, -0.0, -(2.0**52), -5e-324]
    for x in xs:
        for fn in evaluators:
            assert fn(x) == fn(np.array([x]))[0]  # the array call reaches the check
    assert counts == {"_cell_spec": 0, "_log_radii": len(evaluators) * len(xs)}
    for x in (-3.7, -1234.567, -98765432.1):  # no breakpoints
        for fn in (f.locate_interval, f.local_exponent, h.local_exponent):
            fn(x)
    assert counts == {"_cell_spec": 0, "_log_radii": len(evaluators) * len(xs)}
    # everything else still goes through the check, with its message
    for fn in (*evaluators, f.locate_interval, f.local_exponent, h.local_exponent):
        for x in (np.float64(-3.7), -3, np.array(-3.7), np.array([-3.7]), -math.inf,
                  -(2.0**53), 0.5, math.nan):
            before = counts["_log_radii"]
            try:
                fn(x)
            except ValueError:
                pass
            assert counts["_log_radii"] == before + 1, (fn, x)
    assert counts["_cell_spec"] == 0
    # the zoom table and the exponents read the held rows too, and ivt_sample
    # builds only its two limit rows, a point and an array call alike
    for map_, (even, odd) in ((f, limits[:2]), (h, limits[2:])):
        zoom_limit_deviation(map_, "even", even, range(1, 4), [-1.0, -0.3])
        zoom_limit_deviation(map_, "odd", odd, [2], np.array([-1.0]))
        map_.local_exponent(np.array([-3.7, -1234.567]))
        map_.distinct_exponents()
    assert counts["_cell_spec"] == 0
    for map_ in (f, h):
        for r0, lam in ((-0.5, -0.6), (np.array([-0.5, -0.7]), np.array([-0.6, -0.8]))):
            before = counts["_cell_spec"]
            ivt_sample(map_, r0, lam, 1e-9)
            assert counts["_cell_spec"] == before + 2


#: K up to the builder's limit, and close to 1 where ivt's inverse cell is narrow
DRIVER_K = (1.0001, 1.01, 1.37, 2.0, 3.0, 9.99, 1000.0, 1.05e6)

#: every row of the cell-spec table, and ivt's inverse cell map of f
SPEC_ROWS = ("P1", "h", "f_inv", "P2", "Q1", "Q2", "ivt")


def spec(name, K):
    if name != "ivt":
        return radialqc.powermap._cell_spec(name, K)
    # zoom.ivt_sample's inverse cell map for f: its period 1 - 1/K^2 is about 2e-4
    # at K = 1.0001, so lanes near -2**52 reduce by m near 2**64 periods
    V = 1.0 - 1.0 / (K * K)
    c = 1.0 / (K - 1.0 / K)
    return (V, c, 0.0, c, 0.0, K + 1.0 / K)


def driver_inputs(rng, cells, n):
    """Permuted log2 radii: log-uniform down to -2**52 and to subnormals, a few
    periods of the top cells, and the edge values of the domain."""
    x = np.concatenate([
        -np.exp2(rng.uniform(-60.0, 52.0, n)),
        -np.exp2(rng.uniform(-1074.0, -1000.0, n // 8)),
        rng.uniform(-4.0 * cells[0], 0.0, n),
        [0.0, -0.0, -(2.0**52), float(np.nextafter(-(2.0**52), 0.0)), -5e-324,
         -2.2250738585072014e-308, -math.inf, -math.inf, -cells[0]],
    ])
    return x[rng.permutation(x.size)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SPEC_ROWS)
@pytest.mark.parametrize("K", DRIVER_K)
def test_array_driver_matches_math_driver_lane_by_lane(K, name):
    # the numpy driver evaluates every lane without a mask and picks each
    # lane's line by a max or min: each lane must still be the math driver's float
    eval_cells = radialqc.powermap._eval_cells
    cells = spec(name, K)
    rng = np.random.default_rng([DRIVER_K.index(K), SPEC_ROWS.index(name)])
    x = driver_inputs(rng, cells, 400)
    for arg in (x, x[:-1].reshape(2, -1), x[x != -math.inf], x[:0], x[:0].reshape(3, 0)):
        before = arg.copy()
        arg.setflags(write=False)  # a read-only input works and is never written
        out = eval_cells(arg, cells)
        assert out.shape == arg.shape and out.dtype == np.float64
        assert np.array_equal(arg.view(np.int64), before.view(np.int64))
        want = np.array([eval_cells(v, cells) for v in arg.ravel().tolist()], dtype=float)
        assert np.array_equal(out.ravel().view(np.int64), want.view(np.int64)), (K, name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SPEC_ROWS)
@pytest.mark.parametrize("K", DRIVER_K)
def test_drivers_agree_at_branch_switches(K, name):
    # within a few ulps of a switch the two lines are closest, so a lane's
    # pick can differ from the exact one there: both drivers must make it alike
    eval_cells = radialqc.powermap._eval_cells
    cells = spec(name, K)
    period = cells[0]
    switch = -period if name == "ivt" else branch_switch(name, K)  # ivt's cell has one line
    rng = np.random.default_rng([11, DRIVER_K.index(K), SPEC_ROWS.index(name)])
    j = np.concatenate([np.arange(4), 2 ** np.arange(4, 41, 4), rng.integers(0, 2**40, 8)])
    x = switch_lanes(switch, period, np.minimum(j, MAX_ABS_LOG2_RADIUS // period - 1))
    for arg in (x, np.append(x, -math.inf)):  # without and with the sentinel
        out = eval_cells(arg, cells)
        want = np.array([eval_cells(v, cells) for v in arg.tolist()])
        assert np.array_equal(out.view(np.int64), want.view(np.int64)), (K, name)


def first_error(x, allow_zero_radius):
    """The message of the first failing domain check, each check over every lane
    in turn: the reference order of ``_log_radius``."""
    pm = radialqc.powermap
    if np.any(np.isnan(x)) or np.any(x == math.inf):
        return pm._NOT_FINITE
    if np.any(x > 0.0):
        return pm._POSITIVE
    if np.any((x < -pm.MAX_ABS_LOG2_RADIUS) & (x != -math.inf)):
        return pm._TOO_DEEP_OR_ZERO if allow_zero_radius else pm._TOO_DEEP
    if not allow_zero_radius and np.any(x == -math.inf):
        return pm._SENTINEL
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("allow_zero_radius", [True, False])
def test_mixed_bad_lanes_raise_the_first_check(allow_zero_radius):
    # every subset of NaN, +inf, a positive value, a too-deep value and the
    # sentinel, among in-domain lanes, permuted and also as a 2-D array
    bad = (math.nan, math.inf, 0.5, -(2.0**53), -math.inf)
    rng = np.random.default_rng(17)
    f = build_standard_map(2.0)
    for subset in range(2**len(bad)):
        lanes = [v for i, v in enumerate(bad) if subset >> i & 1] * 2
        x = np.concatenate([lanes, -rng.uniform(0.0, 50.0, 9)])
        for arg in (x[rng.permutation(x.size)], x[rng.permutation(x.size)][:-1].reshape(2, -1)):
            want = first_error(arg, allow_zero_radius)
            try:
                radialqc.powermap._log_radius(arg, "x", allow_zero_radius)
            except ValueError as exc:
                assert want is not None and str(exc) == want.format("x"), (subset, str(exc))
            else:
                assert want is None, subset
            call = f.eval_log if allow_zero_radius else f.locate_interval
            if want is not None:
                with pytest.raises(ValueError, match=re.escape(want.format("x"))):
                    call(arg)


def _maps(K):
    # built directly: 1.05e6 is past build_standard_map's guard
    f = PiecewisePowerMap(K=K)
    return f, build_conjugated_map(f)


def ivt_agrees(map_, r0, lam, tol, j):
    """``ivt_sample``'s point call, its 1-element array call and its 0-d call
    give one outcome; returns it."""
    want = outcome(ivt_sample, map_, np.array([r0]), np.array([lam]), tol, np.array([j]))
    assert outcome(ivt_sample, map_, r0, lam, tol, j) == want, (map_, r0, lam, tol, j)
    if type(j) is int and j < 2**63:
        got = outcome(ivt_sample, map_, np.array(r0), np.array(lam), tol, np.int64(j))
        assert got == want, (map_, r0, lam, tol, j)
    return want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", DRIVER_K)
def test_ivt_point_call_equals_array_call(K):
    # snapped, solved and out-of-bracket targets, NaN and infinite ones, at
    # edge and random radii and period indices up to 2**52
    rng = np.random.default_rng(DRIVER_K.index(K))
    P = K + 1.0 / K
    seen = set()
    for map_, kinds in zip(_maps(K), (("P1", "P2"), ("Q1", "Q2"))):
        lfs = [limit_function(map_, kind) for kind in kinds]
        for _ in range(100):
            j = int(rng.choice([1, 2, rng.integers(1, 2**20), rng.integers(1, 2**52 + 1), 2**52]))
            r0 = float(rng.choice([0.0, -0.0, -math.inf, 0.5, -(2.0**52),
                                   -rng.uniform(0.0, 3.0 * P), -np.exp2(rng.uniform(-30.0, 40.0))]))
            try:
                a, b = (lf.eval_log(r0) for lf in lfs)
            except ValueError:
                a, b = -1.0, -0.5
            tol = float(rng.choice([1e-9, 1e-300, 0.25]))
            for lam in (a, b, a + tol / 2, b - tol / 2, a + tol, b - tol,
                        a + (b - a) * rng.uniform(0.01, 0.99),
                        min(a, b) - 1.0, max(a, b) + 1.0, math.nan, math.inf, -math.inf):
                got = ivt_agrees(map_, r0, lam, tol, j)
                seen.add(got[0] if len(got) == 2 else "value")
    assert {"value", radialqc.zoom.BracketError, ValueError} <= seen


#: ivt inputs with two faults, and the message of the one today's check order
#: raises first: tol, period_index, r0's type, lam's type, a NaN lam, r0's
#: domain (the radius-0 sentinel included), the bracket, the deepest point of the bracket
TWO_FAULTS = [
    ((0.5, -0.6, 0.0, 1), "tol must"),
    ((0.5, math.nan, 1e-9, 0), "period_index must"),
    ((None, "x", 1e-9, 1), "r0 must"),
    ((-0.5, "x", 1e-9, True), "period_index must"),
    ((0.5 + 0j, math.nan, 1e-9, 1), "r0 must"),
    ((-0.5, None, 1e-9, 2**53), "period_index must"),
    ((0.5, "x", 1e-9, 1), "lam must be a real number"),
    ((0.5, math.nan, 1e-9, 1), "lam must be a log2 target value, not NaN"),
    ((math.nan, math.inf, 1e-9, 1), "r0 must be a log2 radius"),
    ((-math.inf, math.inf, 1e-9, 1), "r0: the radius-0 sentinel is not accepted here"),
    ((math.inf, math.nan, 1e-9, 1), "lam must be a log2 target value"),
    ((-(2.0**53), -0.6, 1e-9, 1), "r0 must be >= -2**52"),
    ((-(2.0**52), math.inf, 1e-9, 1), "outside the achievable bracket"),
    ((-(2.0**52), -0.6, 0.5, 2**52), "outside the achievable bracket"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, first", TWO_FAULTS)
def test_ivt_two_faults_raise_the_first_alike(args, first):
    f, h = _maps(2.0)
    for map_ in (f, h):
        r0, lam, tol, j = args
        got = ivt_agrees(map_, r0, lam, tol, j)
        assert len(got) == 2 and first in got[1], got


@pytest.mark.filterwarnings("error")
def test_ivt_deepest_point_is_checked_alike():
    # a bracketed target whose bracket reaches below -2**52 from r0
    f, h = _maps(2.0)
    for map_, kinds in zip((f, h), (("P1", "P2"), ("Q1", "Q2"))):
        r0 = -(2.0**51)
        lam = sum(limit_function(map_, kind).eval_log(r0) for kind in kinds) / 2
        got = ivt_agrees(map_, r0, lam, 1e-9, 2**51)
        assert got[1] == "r0 + t must be >= -2**52 (or the radius-0 sentinel -inf)", got


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", DRIVER_K)
def test_index_int_call_equals_array_call(K):
    # random ints across each entry point's range and both ends of it
    rng = np.random.default_rng([7, DRIVER_K.index(K)])
    f, h = _maps(K)
    entries = {
        "breakpoint_log2": (lambda n: breakpoint_log2(K, n), 0, MAX_BREAKPOINT_INDEX),
        "h.breakpoint": (h.breakpoint, 0, MAX_BREAKPOINT_INDEX),
        "scale_at even": (lambda n: scale_at(f, "even", n), 1, MAX_BREAKPOINT_INDEX // 2),
        "scale_at odd": (lambda n: scale_at(h, "odd", n), 1, MAX_BREAKPOINT_INDEX // 2),
        "h.iterate": (lambda m: h.iterate(-1.5, m), 0, MAX_BREAKPOINT_INDEX),
        "h.iterate near 0": (lambda m: h.iterate(-0.0, m), 0, MAX_BREAKPOINT_INDEX),
    }
    for name, (fn, lo, hi) in entries.items():
        ints = [lo, lo + 1, hi - 1, hi, lo - 1, hi + 1,
                *(int(v) for v in rng.integers(lo, hi + 1, 40)),
                *(int(v) for v in np.exp2(rng.uniform(0.0, 53.0, 40)).astype(np.int64) if v <= hi)]
        for n in ints:
            want = outcome(fn, np.array([n]))
            assert outcome(fn, n) == want, (name, n)
            assert outcome(fn, np.int64(n)) == want, (name, n)


def sentinel_layouts(x, want, counts):
    """(input, expected output, counts) triples from the lanes ``x``, their
    outputs ``want`` and the counts they take: the sentinel in no lane, the
    first, the last and every lane, of 0-, 1- and full-length arrays, a 2-D
    array and strided 1-D and 2-D views."""
    views = (lambda a: a[:0], lambda a: a[:1], lambda a: a, lambda a: a.reshape(128, -1),
             lambda a: a[::3], lambda a: a.reshape(128, -1)[1::2, ::5])
    for view in views:
        for lane in (None, 0, -1, ...):
            arg, out = view(x.copy()), view(want.copy())
            if lane is not None and arg.size:
                index = lane if lane is ... else (lane,) * arg.ndim
                arg[index] = out[index] = -math.inf
            yield arg, out, view(counts)


def assert_sentinel_layouts(fn, x, want, counts):
    """``fn(input, counts)`` on every sentinel layout gives ``want``'s bits,
    also for a caller raising on every floating-point error, and never writes
    its input."""
    for arg, out, count in sentinel_layouts(x, want, counts):
        before = arg.copy()
        arg.setflags(write=False)
        got = fn(arg, count)
        with np.errstate(all="raise"):
            raised = fn(arg, count)
        for y in (got, raised):
            assert y.shape == out.shape and y.dtype == np.float64
            assert np.array_equal(y.view(np.int64), out.view(np.int64)), arg.shape
        assert np.array_equal(arg.view(np.int64), before.view(np.int64))


def sentinel_lanes(rng, n=2**15):
    """2**15 in-domain lanes, subnormals among them: the kernel's ops underflow
    there, quietly, so a caller raising on every error still gets a result."""
    tiny = [-5e-324, -3 * 2.0**-1074, -(2.0**-1022) / 3]
    return np.concatenate([-np.exp2(rng.uniform(-30.0, 50.0, n - 6)), tiny,
                           [0.0, -0.0, -(2.0**52)]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SPEC_ROWS)
@pytest.mark.parametrize("K", [1.0001, 2.0, 1.05e6])
def test_sentinel_lanes_run_through_the_kernel(K, name):
    # the sentinel becomes a NaN inside the kernel and is set back at the end:
    # each layout is the math driver's floats, lane by lane
    eval_cells = radialqc.powermap._eval_cells
    cells = spec(name, K)
    x = sentinel_lanes(np.random.default_rng([23, SPEC_ROWS.index(name)]))
    want = np.array([eval_cells(v, cells) for v in x.tolist()])
    assert_sentinel_layouts(lambda a, _: eval_cells(a, cells), x, want, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1.0001, 2.0, 1.05e6])
def test_sentinel_lanes_run_through_iterate(K):
    # one odd count, and counts of both parities per lane: h's kernel takes the
    # mask of iterate's own check of the shifted array
    f, h = _maps(K)
    x = sentinel_lanes(np.random.default_rng(29)) / 4.0  # room for two periods' shift
    odd = (np.full(x.size, 3), lambda a, _: h.iterate(a, 3))
    for counts, fn in (odd, (np.arange(x.size) % 4 + 1, h.iterate)):
        want = np.array([h.iterate(v, int(m)) for v, m in zip(x.tolist(), counts.tolist())])
        assert_sentinel_layouts(fn, x, want, counts)


@pytest.mark.filterwarnings("error")
def test_a_sentinel_lane_does_not_hide_a_too_deep_one():
    # the check tells the sentinel from a too-deep lane by one max over its
    # mask: with or without a sentinel lane, the too-deep lane's message
    f, h = _maps(2.0)
    pm = radialqc.powermap
    calls = [(f.eval_log, pm._TOO_DEEP_OR_ZERO), (lambda a: h.iterate(a, 3), pm._TOO_DEEP_OR_ZERO),
             (lambda a: h.iterate(a, 2), pm._TOO_DEEP_OR_ZERO),
             (lambda a: h.iterate(a, np.full(a.shape, 3)), pm._TOO_DEEP_OR_ZERO),
             (f.locate_interval, pm._TOO_DEEP)]
    for fn, message in calls:
        for x in ([-(2.0**53)], [-math.inf, -(2.0**53)], [-(2.0**53), -math.inf]):
            with pytest.raises(ValueError) as exc:
                fn(np.array(x))
            assert str(exc.value) == message.format("x"), x
