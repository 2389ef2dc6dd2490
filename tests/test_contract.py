"""Every entry point that reads a caller's number through ``powermap._floats``
(or, for a real setting, through ``powermap._real``) answers a hostile input
in one of two ways: a finite value (or the radius-0 sentinel -inf), or
``ValueError``/``TypeError``.  A bool, a str, a complex and None are not real
numbers anywhere and raise ``TypeError``.  Warnings are errors, so a
``RuntimeWarning`` or ``ComplexWarning`` on the way fails the case too.

No case may start a large allocation: CI runs this file under a 4 GB
address-space limit as well.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from radialqc import (
    build_conjugated_map,
    build_standard_map,
    example_1d_rescaled,
    finite_difference_distortion,
    h_via_conjugacy,
    homogeneity_defect,
    iterate_max_distortion,
    ivt_sample,
    limit_function,
    pointwise_distortion,
    rescaled_eval,
    zoom_limit_deviation,
)

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

#: with one hostile sample among good ones; numpy reads a list that mixes floats
#: with a bool as floats, so only the out-of-range inputs go through this one
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
}


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


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_input_that_is_not_real_raises_type_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            entry(value)


@pytest.mark.parametrize("m_max", [2**20 + 1, 2**63, BIG])
def test_iterate_bound_is_checked_before_any_allocation(m_max):
    with pytest.raises(ValueError, match=r"m_max must be at most 2\*\*20"):
        iterate_max_distortion(H, 2, m_max)


def test_iterate_bound_itself_is_accepted():
    reports = iterate_max_distortion(H, 2, 2**20)
    assert len(reports) == 2**20 and reports[-1].K_max == 1.0
