"""Every entry point that reads a caller's number through ``powermap._floats``
(or, for a real setting, through ``powermap._real``) answers a hostile input
in one of two ways: a finite value (or the radius-0 sentinel -inf), or
``ValueError``/``TypeError``.  A bool, a str, a complex and None are not real
numbers anywhere and raise ``TypeError``, also inside a list.  Every index
argument, read through ``powermap._index_array``, answers the same way, and
its int fast path raises what the 1-element array call raises.  Every count,
read through ``powermap._count``, raises ``TypeError`` unless it is an
integer and ``ValueError`` below its least value, and every map argument,
read through ``zoom._base_of``, raises ``TypeError`` unless it is f or h.
Warnings are errors, so a ``RuntimeWarning`` or ``ComplexWarning`` on the way
fails the case too.

No case may start a large allocation: CI runs this file under a 4 GB
address-space limit as well.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from radialqc import (
    breakpoint_log2,
    build_conjugated_map,
    build_standard_map,
    example_1d_rescaled,
    finite_difference_distortion,
    h_via_conjugacy,
    homogeneity_defect,
    iterate_max_distortion,
    ivt_sample,
    limit_function,
    linear_distortion_radial,
    max_distortion,
    pointwise_distortion,
    radial_power_distortion,
    rescaled_eval,
    run_verification,
    scale_at,
    verify,
    zoom_limit_deviation,
)
from radialqc.powermap import MAX_BREAKPOINT_INDEX

F = build_standard_map(2.0)
H = build_conjugated_map(F)
P1 = limit_function(F, "P1")

ENTRY_POINTS = {
    "f.eval_log": F.eval_log,
    "f.inverse_eval_log": F.inverse_eval_log,
    "f.eval": F.eval,
    "f.mean_radius_radial": F.mean_radius_radial,
    "f.locate_interval": F.locate_interval,
    "f.local_exponent": F.local_exponent,
    "h.eval_log": H.eval_log,
    "h.iterate": lambda v: H.iterate(v, 3),
    "h.local_exponent": H.local_exponent,
    **{f"{kind}.eval_log": limit_function(H if kind[0] == "Q" else F, kind).eval_log
       for kind in ("P1", "P2", "Q1", "Q2")},
    "h_via_conjugacy": lambda v: h_via_conjugacy(F, v),
    "rescaled_eval t": lambda v: rescaled_eval(F, v, -1.0),
    "rescaled_eval r": lambda v: rescaled_eval(F, -1.0, v),
    "zoom_limit_deviation": lambda v: zoom_limit_deviation(F, "even", P1, range(1, 3), v),
    "ivt_sample r0": lambda v: ivt_sample(F, v, -0.6, 1e-9),
    "ivt_sample lam": lambda v: ivt_sample(F, F.breakpoint(1), v, 1e-9),
    "homogeneity_defect": lambda v: homogeneity_defect(P1, v),
    "example_1d_rescaled x": lambda v: example_1d_rescaled(v, 0.5),
    "example_1d_rescaled delta": lambda v: example_1d_rescaled(0.5, v),
    "finite_difference_distortion": lambda v: finite_difference_distortion(F, 2, v, 1e-9),
    "pointwise_distortion": lambda v: pointwise_distortion(F, 2, v),
}

#: with one hostile sample among good ones
SAMPLE_AMONG_GOOD = {"homogeneity_defect sample": lambda v: homogeneity_defect(P1, [-1.0, -2.0, v])}

BIG = 10**400
OUT_OF_RANGE = {
    "+10**400": BIG,
    "-10**400": -BIG,
    "object array": np.array([-1.0, BIG], dtype=object),
    "0-d object array": np.array(-BIG, dtype=object),
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "subnormal 5e-324": 5e-324,
    "2**63": 2**63,
    "-(2**63)": -(2**63),
    "np.int64(-2**63)": np.int64(-(2**63)),
    "empty array": np.empty(0),
    "empty 2-D array": np.empty((0, 3)),
    "2-D array": np.array([[-1.0, -0.5], [-0.25, -2.0]]),
    "1-element array": np.array([-0.5]),
}
NOT_REAL = {
    "True": True,
    "False": False,
    "np.bool_": np.bool_(False),
    "bool array": np.array([False, True]),
    "object array of a bool": np.array([-1.0, False], dtype=object),
    "str": "-0.5",
    "complex": -0.5 + 0j,
    "np.complex128": np.complex128(-0.5),
    "complex array": np.array([-0.5 + 0j]),
    "None": None,
    "list holding a bool": [-1.0, False],
}
#: the ones a list of samples can hold as one entry
NOT_REAL_ENTRIES = {name: v for name, v in NOT_REAL.items() if np.ndim(v) == 0}


def _finite_or_sentinel(out):
    if dataclasses.is_dataclass(out):
        out = [out.K_O, out.K_I, out.location]
    values = np.asarray(out, dtype=float)
    return bool(np.all(np.isfinite(values) | (values == -math.inf)))


@pytest.mark.parametrize("value", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
@pytest.mark.parametrize("entry", [*ENTRY_POINTS.values(), *SAMPLE_AMONG_GOOD.values()],
                         ids=[*ENTRY_POINTS, *SAMPLE_AMONG_GOOD])
def test_out_of_range_input_gives_a_finite_value_or_a_value_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = entry(value)
        except (ValueError, TypeError):
            return
    assert _finite_or_sentinel(out), out


@pytest.mark.parametrize("entry, value", [
    *(pytest.param(entry, value, id=f"{name}-{kind}")
      for name, entry in ENTRY_POINTS.items() for kind, value in NOT_REAL.items()),
    *(pytest.param(entry, value, id=f"{name}-{kind}")
      for name, entry in SAMPLE_AMONG_GOOD.items() for kind, value in NOT_REAL_ENTRIES.items()),
])
def test_input_that_is_not_real_raises_type_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            entry(value)


#: every index argument: its call and its upper bound (the lower is 0 or 1)
INDEX_ENTRY_POINTS = {
    "breakpoint_log2 n": (lambda n: breakpoint_log2(2.0, n), MAX_BREAKPOINT_INDEX),
    "f.breakpoint": (F.breakpoint, MAX_BREAKPOINT_INDEX),
    "h.breakpoint": (H.breakpoint, MAX_BREAKPOINT_INDEX),
    "scale_at n": (lambda n: scale_at(F, "odd", n), MAX_BREAKPOINT_INDEX // 2),
    "ivt_sample period_index": (lambda n: ivt_sample(F, -0.5, -0.6, 1e-9, n),
                                MAX_BREAKPOINT_INDEX // 2),
    "h.iterate m": (lambda m: H.iterate(-1.0, m), MAX_BREAKPOINT_INDEX),
}


def hostile_indices(bound):
    return {
        "True": True,
        "np.bool_": np.bool_(True),
        "3.0": 3.0,
        "str": "3",
        "None": None,
        "complex": 3 + 0j,
        "-1": -1,
        "bound + 1": bound + 1,
        "2**63": 2**63,
        "2**70": 2**70,
        "np.int64": np.int64(3),
        "np.uint64(2**63)": np.uint64(2**63),
        "0-d int array": np.array(3),
        "empty int array": np.array([], dtype=np.int64),
        "2-D int array": np.array([[1, 2], [3, 4]]),
        "object array of 2**70": np.array([3, 2**70], dtype=object),
    }


def _outcome(entry, value):
    """(class, message) of an error, else the result as a float array."""
    try:
        out = entry(value)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize("case", hostile_indices(0), ids=hostile_indices(0))
@pytest.mark.parametrize("entry, bound", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS)
def test_hostile_index_gives_a_value_or_an_input_error(entry, bound, case):
    value = hostile_indices(bound)[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(entry, value)
        if not isinstance(got, tuple):
            assert _finite_or_sentinel(got), got
        if np.ndim(value) == 0:  # the int fast path (or a 0-d one) and the 1-element call
            one = _outcome(entry, np.array([value]))
            if isinstance(got, tuple):
                assert one == got, (got, one)
            else:
                assert np.array_equal(one.ravel().view(np.int64), got.ravel().view(np.int64))


@pytest.mark.parametrize("m_max", [2**20 + 1, 2**63, BIG])
def test_iterate_bound_is_checked_before_any_allocation(m_max):
    with pytest.raises(ValueError, match=r"m_max must be at most 2\*\*20"):
        iterate_max_distortion(H, 2, m_max)


def test_iterate_bound_itself_is_accepted():
    reports = iterate_max_distortion(H, 2, 2**20)
    assert len(reports) == 2**20 and reports[-1].K_max == 1.0


def _raises_type_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            call()


class TestMapArgument:
    """A map argument other than f or h, a zoom limit included, raises
    ``TypeError`` (it was an ``AttributeError``, or for a limit a value)."""

    ENTRY_POINTS = {
        "scale_at": lambda m: scale_at(m, "even", 1),
        "ivt_sample": lambda m: ivt_sample(m, -0.5, -0.6, 1e-9),
        "rescaled_eval": lambda m: rescaled_eval(m, -1.0, -1.0),
        "h_via_conjugacy": lambda m: h_via_conjugacy(m, -1.0),
        "pointwise_distortion": lambda m: pointwise_distortion(m, 2, -0.6),
        "max_distortion": lambda m: max_distortion(m, 2),
        "iterate_max_distortion": lambda m: iterate_max_distortion(m, 2, 3),
    }
    NOT_A_MAP = {"None": None, "str": "f", "float": 2.0, "P2 limit": limit_function(F, "P2"),
                 "Q1 limit": limit_function(H, "Q1")}

    @pytest.mark.parametrize("value", NOT_A_MAP.values(), ids=NOT_A_MAP)
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_not_a_map_raises_type_error(self, entry, value):
        _raises_type_error(lambda: entry(value))

    def test_conjugacy_route_needs_f_itself(self):
        _raises_type_error(lambda: h_via_conjugacy(H, -1.0))


#: every count argument: its call and its least value
COUNT_ENTRY_POINTS = {
    "radial_power_distortion d": (lambda d: radial_power_distortion(2.0, d), 2),
    "pointwise_distortion d": (lambda d: pointwise_distortion(F, d, -0.6), 2),
    "finite_difference_distortion d": (
        lambda d: finite_difference_distortion(F, d, -0.6, 1e-9), 2),
    "max_distortion d": (lambda d: max_distortion(F, d), 2),
    "iterate_max_distortion d": (lambda d: iterate_max_distortion(H, d, 3), 2),
    "iterate_max_distortion m_max": (lambda m: iterate_max_distortion(H, 2, m), 1),
    "linear_distortion_radial d": (lambda d: linear_distortion_radial(F, d), 2),
    **{f"{name} depth": (lambda depth, name=name: getattr(verify, name)(2.0, depth), 2)
       for name in ("recurrence_vs_closed_worst", "anchor_identity_worst", "continuity_worst",
                    "product_identities_worst")},
    "breakpoint_image_worst depth": (lambda depth: verify.breakpoint_image_worst(F, depth), 2),
    "run_verification depth": (lambda depth: run_verification(depth=depth), 2),
    "run_verification dimension": (lambda d: run_verification(dimension=d), 2),
    "run_verification grid_points": (lambda n: run_verification(grid_points=n), 2),
}


def hostile_counts(least):
    """(value, error class) of each hostile count."""
    return {
        "True": (True, TypeError),
        "np.bool_": (np.bool_(True), TypeError),
        "2.5": (2.5, TypeError),
        "np.float64(3.0)": (np.float64(3.0), TypeError),
        "subnormal 5e-324": (5e-324, TypeError),
        "str": ("3", TypeError),
        "None": (None, TypeError),
        "complex": (3 + 0j, TypeError),
        "least - 1": (least - 1, ValueError),
        "-1": (-1, ValueError),
        "1-element int array": (np.array([3]), TypeError),
        "2-D int array": (np.array([[1, 2], [3, 4]]), TypeError),
    }


@pytest.mark.parametrize("case", hostile_counts(1), ids=hostile_counts(1))
@pytest.mark.parametrize("entry, least", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS)
def test_hostile_count_raises_the_checkers_error(entry, least, case):
    value, error = hostile_counts(least)[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"must be an integer >= {least}$"):
            entry(value)
