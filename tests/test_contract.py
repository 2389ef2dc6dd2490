"""Every entry point that reads a caller's number through ``powermap._floats``
(or, for a real setting, through ``powermap._real``) answers a hostile input
in one of two ways: a finite value (or the radius-0 sentinel -inf), or
``ValueError``/``TypeError``.  A bool, a str, a complex and None are not real
numbers anywhere and raise ``TypeError``, also inside a list.  Every index
argument, read through ``powermap._index_array``, answers the same way, and
its int fast path raises what the 1-element array call raises.  Every count,
read through ``powermap._count``, raises ``TypeError`` unless it is an
integer and ``ValueError`` below its least value or above its bound, and
every map argument, read through ``uqrmap._base_of``, raises ``TypeError``
unless it is f or h.  Every subcommand of the command line answers a hostile
flag, config file or unknown flag with exit 2 (1 for a target outside ivt's
bracket) and one line on stderr, never a traceback.  Warnings are errors, so
a ``RuntimeWarning`` or ``ComplexWarning`` on the way fails the case too.

No case may start a large allocation: CI runs this file under a 4 GB
address-space limit as well.
"""

import contextlib
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from radialqc import (
    breakpoint_log2,
    cli,
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
from radialqc.powermap import MAX_BREAKPOINT_INDEX, PiecewisePowerMap

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


#: empty index sets that numpy reads as float64 arrays
EMPTY_INDEX_SETS = {"list": [], "tuple": (), "range": range(1, 1)}


@pytest.mark.parametrize("empty", EMPTY_INDEX_SETS.values(), ids=EMPTY_INDEX_SETS)
@pytest.mark.parametrize("entry, bound", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS)
def test_an_empty_index_set_answers_as_an_empty_int64_array(entry, bound, empty):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = entry(empty), entry(np.array([], dtype=np.int64))
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (0,)


@pytest.mark.parametrize("entry, bound", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS)
def test_an_empty_float_array_is_not_an_index_set(entry, bound):
    # its dtype says floats, as a non-empty one's does: a type error either way
    with pytest.raises(TypeError, match="must be an integer within 64 bits"):
        entry(np.array([]))


@pytest.mark.parametrize("m_max", [2**20 + 1, 2**63, BIG])
def test_iterate_bound_is_checked_before_any_allocation(m_max):
    with pytest.raises(ValueError, match=r"m_max must be at most 2\*\*20"):
        iterate_max_distortion(H, 2, m_max)


def test_iterate_bound_itself_is_accepted():
    reports = iterate_max_distortion(H, 2, 2**20)
    assert len(reports) == 2**20 and reports[-1].K_max == 1.0


#: every count that sizes an allocation: its call, its name and its upper bound
BOUNDED_COUNTS = {
    "run_verification grid_points": (lambda n: run_verification(grid_points=n), "grid_points",
                                     18),
    "run_verification depth": (lambda depth: run_verification(depth=depth), "depth", 24),
    "product_identities_worst depth": (
        lambda depth: verify.product_identities_worst(2.0, depth), "depth", 24),
}


@pytest.mark.parametrize("over", [1, 2**63, BIG], ids=["bound + 1", "2**63", "10**400"])
@pytest.mark.parametrize("entry, name, log2_bound", BOUNDED_COUNTS.values(), ids=BOUNDED_COUNTS)
def test_count_bound_is_checked_before_any_allocation(entry, name, log2_bound, over):
    value = 2**log2_bound + 1 if over == 1 else over
    with pytest.raises(ValueError, match=rf"^{name} must be at most 2\*\*{log2_bound}$"):
        entry(value)


def test_grid_points_bound_itself_is_accepted():
    # the grid-wide arrays and the zoom checks' blocks: about 52 MB at the bound
    assert run_verification(depth=2, grid_points=2**18)["all_passed"]


#: every entry point that reads K, with a depth or index that reaches deep breakpoints
K_ENTRY_POINTS = {
    "breakpoint_log2": lambda K: breakpoint_log2(K, 9),
    "breakpoint_log2 array": lambda K: breakpoint_log2(K, np.array([9, MAX_BREAKPOINT_INDEX])),
    "build_standard_map": build_standard_map,
    **{name: (lambda K, name=name: getattr(verify, name)(K, 10))
       for name in ("recurrence_vs_closed_worst", "anchor_identity_worst", "continuity_worst",
                    "product_identities_worst")},
    "run_verification": lambda K: run_verification(K=K, depth=2, grid_points=2),
}


@pytest.mark.parametrize("K", [float(np.nextafter(2.0**64, math.inf)), 1e160, 1e300, 1e308])
@pytest.mark.parametrize("entry", K_ENTRY_POINTS.values(), ids=K_ENTRY_POINTS)
def test_K_above_its_bound_raises_before_any_overflow(entry, K):
    # 1e308 made breakpoint_log2(K, 9) the radius-0 sentinel, and K * K overflowed
    # in verify's coefficients from 1e160 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^K must be at most 2\*\*64$"):
            entry(K)


@pytest.mark.parametrize("entry", [K_ENTRY_POINTS[name] for name in (
    "breakpoint_log2", "breakpoint_log2 array", "recurrence_vs_closed_worst",
    "anchor_identity_worst", "continuity_worst", "product_identities_worst")])
def test_K_bound_itself_gives_finite_values(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite_or_sentinel(entry(2.0**64)) and _finite_or_sentinel(entry(2**64))


@pytest.mark.parametrize("K, error, message", [
    (0.5, ValueError, r"K must be a finite real > 1"),
    ("x", TypeError, r"K must be a finite real > 1"),
    (True, TypeError, r"K must be a finite real > 1"),
    (1e308, ValueError, r"K must be at most 2\*\*64"),
])
def test_a_map_built_directly_checks_K(K, error, message):
    # 0.5 and "x" constructed silently, and h of a map at K = 1e308 raised a bare
    # OverflowError from K**3 in its cell spec
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}$"):
            PiecewisePowerMap(K=K)


@pytest.mark.parametrize("K", [2**64, 1.05e6])  # 1.05e6: past build_standard_map's guard
def test_a_map_built_directly_takes_K_up_to_its_bound(K):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = PiecewisePowerMap(K=K)
        assert type(f.K) is float and f.K == K and f == PiecewisePowerMap(K=float(K))
        assert math.isfinite(build_conjugated_map(f).eval_log(-1.0))


def _raises_type_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            call()


class TestMapArgument:
    """A map argument other than f or h, a zoom limit included, raises
    ``TypeError`` (it was an ``AttributeError``, or for a limit a value), and
    so do a limit argument that is not a zoom limit and, where an entry point
    takes f alone or h alone, the other map."""

    ENTRY_POINTS = {
        "scale_at": lambda m: scale_at(m, "even", 1),
        "zoom_limit_deviation": lambda m: zoom_limit_deviation(m, "even", P1, [1], [-1.0]),
        "finite_difference_distortion": lambda m: finite_difference_distortion(m, 2, -0.6, 1e-9),
        "ivt_sample": lambda m: ivt_sample(m, -0.5, -0.6, 1e-9),
        "rescaled_eval": lambda m: rescaled_eval(m, -1.0, -1.0),
        "h_via_conjugacy": lambda m: h_via_conjugacy(m, -1.0),
        "pointwise_distortion": lambda m: pointwise_distortion(m, 2, -0.6),
        "max_distortion": lambda m: max_distortion(m, 2),
        "iterate_max_distortion": lambda m: iterate_max_distortion(m, 2, 3),
        "breakpoint_image_worst": lambda m: verify.breakpoint_image_worst(m, 10),
    }
    NOT_A_MAP = {"None": None, "str": "f", "float": 2.0, "P2 limit": limit_function(F, "P2"),
                 "Q1 limit": limit_function(H, "Q1")}

    @pytest.mark.parametrize("value", NOT_A_MAP.values(), ids=NOT_A_MAP)
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_not_a_map_raises_type_error(self, entry, value):
        _raises_type_error(lambda: entry(value))

    def test_conjugacy_route_needs_f_itself(self):
        _raises_type_error(lambda: h_via_conjugacy(H, -1.0))

    ONE_CLASS = {
        "iterate_max_distortion": (lambda m: iterate_max_distortion(m, 2, 3), F,
                                   "ConjugatedMap, not a PiecewisePowerMap"),
        "h_via_conjugacy": (lambda m: h_via_conjugacy(m, -1.0), H,
                            "PiecewisePowerMap, not a ConjugatedMap"),
        "breakpoint_image_worst": (lambda m: verify.breakpoint_image_worst(m, 10), H,
                                   "PiecewisePowerMap, not a ConjugatedMap"),
        "build_conjugated_map": (build_conjugated_map, H,
                                 "PiecewisePowerMap, not a ConjugatedMap"),
        "ConjugatedMap": (lambda m: type(H)(source=m), H,
                          "PiecewisePowerMap, not a ConjugatedMap"),
    }

    @pytest.mark.parametrize("call, other, message", ONE_CLASS.values(), ids=ONE_CLASS)
    def test_an_entry_point_of_one_class_names_it(self, call, other, message):
        # _base_of's messages: the class taken and the one given, or no map at all
        with pytest.raises(TypeError, match=f"^map must be a {message}$"):
            call(other)
        with pytest.raises(TypeError, match="^map must be a PiecewisePowerMap or a "
                                            "ConjugatedMap$"):
            call(None)

    @pytest.mark.parametrize("value", [None, "P1", 2.0, F, H],
                             ids=["None", "str", "float", "f", "h"])
    def test_not_a_limit_raises_type_error(self, value):
        # None and a str escaped as an AttributeError on .source
        _raises_type_error(lambda: zoom_limit_deviation(F, "even", value, [1], [-1.0]))

    def test_a_map_of_another_type_is_not_a_map(self):
        # the check is by exact type: a subclass is refused, and so is an h
        # around one, when it is built
        class Derived(type(F)):
            pass

        derived = Derived(K=2.0)
        _raises_type_error(lambda: scale_at(derived, "even", 1))
        for source in (derived, None, H):
            _raises_type_error(lambda: type(H)(source=source))
        _raises_type_error(lambda: verify.breakpoint_image_worst(derived, 10))
        _raises_type_error(lambda: build_conjugated_map(derived))


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


#: every count that is a dimension: its call, and its value where that is in float64
DIMENSION_COUNTS = {
    name: (entry, 1.0 if name.startswith("linear_distortion_radial") else None)
    for name, (entry, _) in COUNT_ENTRY_POINTS.items() if name.endswith(" d")
}


@pytest.mark.parametrize("over", [2**16 + 1, 2**63, BIG], ids=["2**16 + 1", "2**63", "10**400"])
@pytest.mark.parametrize("entry, value", DIMENSION_COUNTS.values(), ids=DIMENSION_COUNTS)
def test_a_dimension_has_no_bound_above(entry, value, over):
    # the one rule d >= 2: a huge dimension gives its closed form, or, where the
    # result leaves float64, the overflow error, and never a bound of its own
    if value is not None:
        assert entry(over) == value
    else:
        with pytest.raises(ValueError, match="overflows float64"):
            entry(over)


# --- the command line --------------------------------------------------------

#: a valid command line of each subcommand, as flag -> value
CLI_COMMANDS = {
    "eval": {"--map": "f", "--log2-r": "-0.5"},
    "zoom": {"--map": "f", "--seq": "even", "--n": "1"},
    "ivt": {"--log2-r0": "-0.5", "--lambda": "0.67"},
    "iterate": {"--r": "0.5"},
    "distortion": {"--map": "h"},
    "verify": {"--depth": "2", "--grid-points": "2"},
}
#: the flag each flag replaces in the command line above
CLI_PARTNER = {"--r": "--log2-r", "--r0": "--log2-r0", "--lambda": "--log2-lambda",
               "--alpha": "--map"}
CLI_PARTNER |= {v: k for k, v in CLI_PARTNER.items() if k != "--alpha"}
NUMBERS = ["nan", "inf", "-inf", "1e400", "-1e400", "oops", ""]
COUNTS = [str(2**63), "-1", str(-(2**63) - 1), str(10**30), "1.5", "nan", "oops", ""]
#: hostile values of each flag
CLI_HOSTILE = {
    "--K": [*NUMBERS, "1", "0.5", "1e300", "1e308"],
    "--tol": [*NUMBERS, "0", "-1"],
    **{flag: [*NUMBERS, "0", "1.5"] for flag in ("--r", "--r0", "--lambda")},
    "--log2-r": ["nan", "inf", "1e400", "oops", "", "0.5", "-1e20"],
    "--log2-r0": ["nan", "inf", "1e400", "oops", "", "0.5", "-1e20", "-inf", "-1e400"],
    "--log2-lambda": ["nan", "inf", "1e400", "oops", "", "0.5"],
    "--alpha": [*NUMBERS, "0", "-1"],
    "--d": [*COUNTS, "0", "1"],
    "--depth": [*COUNTS, "0", "1", str(2**24 + 1)],
    "--grid-points": [*COUNTS, "0", "1", str(2**18 + 1)],
    "--iterates": [*COUNTS, str(2**53 + 1)],
    "--period": [*COUNTS, "0", "99999999999999999999", str(2**52 + 1)],
    "--n": ["0", "-3", "..", "1..", "a..b", "5..4", "1,,2", "", "1.5", str(2**52 + 1),
            "1..99999999999999999999"],
    "--grid": ["oops", "::", "1:2", "-1:-0.5:1e20", "-1:-0.5:-1", "-1:-0.5:1", "0:-1:5",
               "-1:0.5:5", "nan:0:5", "-inf:0:5", "-1:-0.5:262145", "-1:-0.5:99999999999"],
    "--map": ["X", ""],
    "--seq": ["middle"],
    "--against": ["Q3"],
}
CLI_FLAGS = {
    "eval": ["--K", "--r", "--log2-r", "--map"],
    "zoom": ["--K", "--grid-points", "--tol", "--n", "--grid", "--map", "--seq", "--against"],
    "ivt": ["--K", "--tol", "--r0", "--log2-r0", "--lambda", "--log2-lambda", "--period"],
    "iterate": ["--K", "--r", "--log2-r", "--iterates"],
    "distortion": ["--K", "--d", "--alpha", "--iterates"],
    "verify": ["--K", "--d", "--depth", "--grid-points", "--tol"],  # --d: a flag it lacks
}
#: hostile config files, each with a setting no command line above gives
CLI_CONFIGS = {
    "null": {"K": None},
    "bool": {"tol": True},
    "str for a number": {"K": "2"},
    "str for a count": {"dimension": "3"},
    "float for a count": {"dimension": 3.0},
    "count below its least": {"dimension": 1},
    "inf": {"tol": 1e400},
    "unknown key": {"kay": 3.0},
    "unknown output format": {"output_format": "xml"},
    "not an object": [2.0],
}


def _cli_cases():
    for command, flags in CLI_FLAGS.items():
        for flag in flags:
            base = {k: v for k, v in CLI_COMMANDS[command].items()
                    if k not in (flag, CLI_PARTNER.get(flag))}
            for value in CLI_HOSTILE[flag]:
                argv = [command, *(f"{k}={v}" for k, v in base.items()), f"{flag}={value}"]
                yield pytest.param(argv, None, id=" ".join(argv))
        plain = [command, *(f"{k}={v}" for k, v in CLI_COMMANDS[command].items())]
        for extra in ("--bogus", "--bogus=1", "-x", "--K"):
            yield pytest.param([*plain, extra], None, id=" ".join([*plain, extra]))
        for name, config in CLI_CONFIGS.items():
            yield pytest.param(plain, config, id=f"{' '.join(plain)} config {name}")


def _run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main``; argparse's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, config", _cli_cases())
def test_hostile_command_line_exits_with_one_line_of_error(argv, config, tmp_path):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_main(argv)
    assert (code, out) == (2, ""), (code, err)
    assert "Traceback" not in err
    if err.startswith("usage: "):  # argparse: the usage, then one error line
        assert err.startswith(f"usage: radialqc {argv[0]} ")
        assert err.splitlines()[-1].startswith(f"radialqc {argv[0]}: error: ")
    else:
        assert err.startswith("radialqc: ") and err.count("\n") == 1 and err.endswith("\n"), err


#: an infinite target: exit 1, as for any target outside the bracket (the radius 0,
#: which has no bracket, is an input error among the hostile ``--log2-r0`` values)
@pytest.mark.parametrize("argv", [["ivt", "--log2-r0=-0.5", "--log2-lambda=-inf"],
                                  ["ivt", "--log2-r0=-0.5", "--log2-lambda=-1e400"]])
def test_target_outside_the_ivt_bracket_exits_1(argv):
    code, out, err = _run_main(argv)
    assert (code, out) == (1, "") and err.startswith("radialqc: target ") and err.count("\n") == 1
