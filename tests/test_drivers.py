"""The two drivers of the cell spec agree, and the float one uses no numpy.

A Python float or any 0-d input (``np.float64``, ``int``, a 0-d array) takes
the ``math`` driver of ``powermap._eval_cells``, of the interval walk
``powermap._locate`` and of the local exponent; an array with ndim >= 1 takes
the numpy driver; ``powermap._log_radius`` checks the input and picks the
driver.  For every map, ``locate_interval``, ``local_exponent``, either
argument of ``rescaled_eval`` and ``h.iterate`` with an odd and an even count,
a point call must return exactly what the 1-element array call returns: the
same bits, the sign of zero and the -inf sentinel included, and the same
exception class and message on every input error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_envelope import K_VALUES, log_radii

import radialqc.distortion
import radialqc.powermap
import radialqc.uqrmap
import radialqc.zoom
from radialqc import (
    build_conjugated_map,
    build_standard_map,
    iterate_max_distortion,
    limit_function,
    max_distortion,
    pointwise_distortion,
    radial_power_distortion,
    rescaled_eval,
)
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


def outcome(fn, arg):
    """What ``fn(arg)`` gives: (type, value, sign) for a result, taking element
    0 of an array result, or (class, message) for an error."""
    try:
        out = fn(arg)
    except ValueError as exc:
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


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached on the float path")


def test_float_path_uses_no_numpy(monkeypatch):
    f = build_standard_map(2.0)
    h = build_conjugated_map(f)
    limits = [limit_function(h if kind[0] == "Q" else f, kind) for kind in LIMIT_KINDS]
    x = -3.7
    want = [f.eval_log(x), f.inverse_eval_log(-1.5), h.eval_log(x),
            *(lf.eval_log(x) for lf in limits), f.locate_interval(x), h.local_exponent(x),
            pointwise_distortion(h, 3, x), f.eval_log(np.float64(x)),
            radial_power_distortion(2.5, 3), max_distortion(h, 3), iterate_max_distortion(h, 3, 4)]
    for mod in (radialqc.powermap, radialqc.zoom, radialqc.uqrmap, radialqc.distortion):
        monkeypatch.setattr(mod, "np", _NoNumpy())
    got = [f.eval_log(x), f.inverse_eval_log(-1.5), h.eval_log(x),
           *(lf.eval_log(x) for lf in limits), f.locate_interval(x), h.local_exponent(x),
           pointwise_distortion(h, 3, x), f.eval_log(np.float64(x)),
           radial_power_distortion(2.5, 3), max_distortion(h, 3), iterate_max_distortion(h, 3, 4)]
    assert got == want
    with pytest.raises(ValueError, match="not NaN"):
        f.eval_log(math.nan)
