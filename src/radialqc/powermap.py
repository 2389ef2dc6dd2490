"""Piecewise power-law radial homeomorphisms of [0, 1], evaluated in log2 space.

The central object is an increasing homeomorphism f : [0, 1] -> [0, 1] glued
from power-law pieces f(r) = C_n r^{k_n} on a decreasing chain of breakpoint
radii 1 = r_0 > r_1 > r_2 > ... -> 0, chosen so that f(r_n) = 2^{-n}.  The
exponents alternate between K and 1/K for a fixed parameter K > 1 (K on the
odd-indexed intervals, 1/K on the even ones), which makes every quantity
affine in base-2 logarithmic coordinates:

    log2 r_{2m}   = -(m K + m / K)
    log2 r_{2m-1} = -((m - 1) K + m / K)
    log2 C_{2m}   = m (1 / K^2 - 1)
    log2 C_{2m-1} = (m - 1) (K^2 - 1)
    log2 f(r)     = log2 C_n + k_n log2 r        for r in [r_n, r_{n-1}]

The breakpoints shrink like 2^{-(K + 1/K) n / 2} and underflow any linear
float representation after a few hundred indices, so this library works in
log2 throughout: a radius in (0, 1] is represented by its log2 value (a float
<= 0), and the radius 0 by the sentinel ``RADIUS_ZERO_LOG2 = -inf``.

Every map of the package (f, f^{-1}, h and the zoom limits P1 = f, P2, Q1,
Q2) is one row of the cell-spec table ``_cell_spec``, computed once when the
map is built and held as its ``_row`` (f^{-1}'s as f's ``_f_inv``), and
``_period`` gives their common period K + 1/K.  The cell spec and the
interval walk have two drivers, picked by ``_log_radii``, the one check of
every log2-radius input.  A point (a Python float or any 0-d input:
``np.float64``, ``int``, a 0-d array) goes through ``math``, with no numpy
call for a float, since a numpy call on one lane costs far more than the
arithmetic, and a Python float in the domain, the check's fast case, with no
call to ``_log_radii`` either; arrays with ndim >= 1 go through numpy.  The
two make the same float operations in the same order, so a point returns
exactly what the 1-element array call returns, bit for bit (signed zeros and
the -inf sentinel included), and raises the same exception with the same
message.  Indices split the same way: an int in range skips numpy, and every
index formula computes on it as a Python int.

Useful consequences of the layout, relied on elsewhere in the package:

  * anchor identity:   log2 C_n = -n - k_n log2 r_n
  * unit period:       log2 r_n - log2 r_{n+2} = K + 1/K for every n, and
    log2 f(x - (K + 1/K)) = log2 f(x) - 2, so every evaluator reduces x to
    one period cell and evaluates two affine pieces there (``_eval_cells``)
  * product identity:  log2 r_{2n} + log2 r_m = log2 r_{2n+m}
  * value intervals:   f maps [r_n, r_{n-1}] onto [2^-n, 2^-(n-1)], so f^{-1}
    is log-periodic too, with period 2 in log2 value.

Supported domain, shared by every evaluator in the package: breakpoint indices
0 <= n <= ``MAX_BREAKPOINT_INDEX`` (2^53, where integers stop being exact
doubles) and log2 radii -``MAX_ABS_LOG2_RADIUS`` <= x <= 0 (2^52, so every
interval index reached from x stays within the index bound), plus the -inf
sentinel.  Inputs outside it raise ``ValueError`` before any integer cast, so
no index wraps around.  ``_floats`` converts every number or array of
numbers read from a caller, ``_index_array`` checks every index, ``_count``
every count, ``_real`` every real setting (tol, alpha, ...) and ``_parameter``
K (1 < K <= 2**64), each with one message; a wrong type (a bool for any, a
str or a complex for a number, an array that is not 0-d for a real or a
count) raises ``TypeError``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ABS_LOG2_RADIUS",
    "MAX_BREAKPOINT_INDEX",
    "GUARD_DEPTH",
    "RADIUS_ZERO_LOG2",
    "NotDifferentiableError",
    "PiecewisePowerMap",
    "build_standard_map",
    "breakpoint_log2",
]

#: log2 sentinel for the radius 0 (fixed point and image of 0 under every map here).
RADIUS_ZERO_LOG2 = float("-inf")

#: largest breakpoint index accepted (indices and iteration counts alike).
MAX_BREAKPOINT_INDEX = 2**53

#: largest |log2 radius| accepted; the interval lookup then reads breakpoint
#: indices below 2 |x| / (K + 1/K) + 5 < ``MAX_BREAKPOINT_INDEX``, since K + 1/K > 2.
MAX_ABS_LOG2_RADIUS = 2.0**52

#: a safety bound on the walk's upward steps: the answer is never below its start
#: (``_locate``), and at most three above it, five if the division rounds low by a period.
_LOCATE_STEPS = 5

#: the walk's error when even that many steps leave x above the breakpoint.
_UNRESOLVED = "log2 radius too deep for float64 breakpoint resolution"

#: index up to which ``build_standard_map`` requires distinct float64 breakpoints.
GUARD_DEPTH = 10_000


class NotDifferentiableError(ValueError):
    """A derivative-based quantity was requested at a breakpoint radius."""


#: the domain errors of a log2 radius, raised alike on both drivers by ``_log_radius``
_NOT_FINITE = "{} must be a log2 radius, not NaN or +inf"
_POSITIVE = "{} must be <= 0 (base-2 log of a radius in (0, 1])"
_TOO_DEEP = "{} must be >= -2**52"  # where the radius-0 sentinel is refused
_TOO_DEEP_OR_ZERO = _TOO_DEEP + " (or the radius-0 sentinel -inf)"
_SENTINEL = "{}: the radius-0 sentinel is not accepted here"


def _floats(v, name):
    """``v`` as a Python float if 0-d, else as a float64 array: the one conversion
    of a number or array of numbers read from a caller.  ``TypeError`` unless
    every entry is real (a bool, ``np.bool_``, str, complex or None is not); an
    int beyond the float range becomes +-2**1023, finite, so that it fails the
    caller's domain check with that check's message."""
    if isinstance(v, float):  # a Python float or an np.float64: no numpy call
        return float(v)
    a = np.asarray(v)
    kind = a.dtype.kind
    if kind in "iuf" and not (isinstance(v, (list, tuple)) and _holds_bool(v)):
        return float(a) if a.ndim == 0 else a.astype(float, copy=False)
    if kind == "O" and a.ndim:  # an array of Python objects: one entry at a time
        return np.array([_floats(e, name) for e in a.flat], dtype=float).reshape(a.shape)
    v = a[()]  # one Python object, such as an int beyond the float range
    if kind == "O" and isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            return 2.0**1023 if v > 0 else -(2.0**1023)
    raise TypeError(f"{name} must be a real number or an array of real numbers (a bool is not)")


def _holds_bool(seq):
    """Whether a list or tuple that numpy read as numbers holds a bool, which
    numpy reads as 0.0 or 1.0 among floats."""
    return any(isinstance(e, (bool, np.bool_)) for e in np.asarray(seq, dtype=object).flat)


def _log_radius(x, name, allow_zero_radius=True):
    """``x``, checked by ``_log_radii``, without the mask."""
    return _log_radii(x, name, allow_zero_radius)[0]


def _log_radii(x, name, allow_zero_radius=True):
    """``x`` as ``_floats`` converts it, checked against the log2-radius domain
    (a float or 0-d input in plain Python, for the ``math`` driver, else with
    numpy; both raise alike), and for an array holding the sentinel the mask of
    its lanes below -2**52, which the check leaves as its sentinel lanes, else None.

    An array is checked by its max and min alone (a NaN propagates through
    both); only a min of -inf builds the mask, and one max over its lanes
    tells a too-deep value from the sentinel."""
    if isinstance(x, float) or isinstance(x := _floats(x, name), float):
        x = float(x)  # an np.float64 too
        if -MAX_ABS_LOG2_RADIUS <= x <= 0.0:  # finite and in the domain: the usual case
            return x, None
        hi = lo = x
    else:  # the ufuncs' reductions: np.max and np.min add a Python wrapper each
        hi = np.maximum.reduce(x, None, initial=-math.inf)
        lo = np.minimum.reduce(x, None, initial=0.0)
        if hi <= 0.0 and lo >= -MAX_ABS_LOG2_RADIUS:
            return x, None
    if hi != hi or hi == math.inf:
        raise ValueError(_NOT_FINITE.format(name))
    if hi > 0.0:
        raise ValueError(_POSITIVE.format(name))
    deep, sentinel = lo, None  # below -2**52: a too-deep lane if there is one, else the sentinel
    if lo == RADIUS_ZERO_LOG2 and not isinstance(x, float):
        sentinel = x < -MAX_ABS_LOG2_RADIUS
        deep = np.maximum.reduce(x, None, initial=-math.inf, where=sentinel)
    if RADIUS_ZERO_LOG2 < deep < -MAX_ABS_LOG2_RADIUS:
        raise ValueError((_TOO_DEEP_OR_ZERO if allow_zero_radius else _TOO_DEEP).format(name))
    if not allow_zero_radius and lo == RADIUS_ZERO_LOG2:
        raise ValueError(_SENTINEL.format(name))
    return x, sentinel


def _to_log2(r, name, allow_zero_radius=True):
    """Linear radii into log2, the package's one way in: ``_floats(r)``, each entry in [0, 1]
    (or (0, 1]) by libm's log2, 0 as its sentinel; a float for 0-d, else a float64 array."""
    if type(r) is float and 0.0 < r <= 1.0:  # in the domain: the usual case
        return math.log2(r)
    flat = [r] if isinstance(r := _floats(r, name), float) else r.ravel().tolist()
    if not all(0.0 <= v <= 1.0 and (allow_zero_radius or v) for v in flat):
        raise ValueError(f"{name} must lie in {'[0, 1]' if allow_zero_radius else '(0, 1]'}")
    logs = [math.log2(v) if v else RADIUS_ZERO_LOG2 for v in flat]
    return logs[0] if isinstance(r, float) else np.array(logs, dtype=float).reshape(r.shape)


def _to_linear(x):
    """The one way out of log2: 2.0 ** x by Python's float power (libm's pow), entry by entry."""
    if isinstance(x, float):
        return 2.0**x
    return np.array([2.0**v for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _index_array(n, name, lo, hi):
    """``n`` as a Python int if 0-d, else as an int64 array: ``TypeError`` unless
    integral (a bool is not), ``ValueError`` outside lo..hi (``hi`` a power of two,
    as every index bound of the package is).  An int in range skips numpy.  An
    empty list, tuple or range is an empty index set, though numpy reads it as
    float64; an empty array of floats is not, as its dtype is not integral."""
    if type(n) is int and lo <= n <= hi:  # in the domain: the usual case
        return n
    na = np.asarray(n)
    if not na.size and isinstance(n, (list, tuple, range)):
        na = na.astype(np.int64)
    if not np.issubdtype(na.dtype, np.integer):
        raise TypeError(f"{name} must be an integer within 64 bits")
    if na.size and (na.min() < lo or na.max() > hi):
        raise ValueError(f"{name} must lie in {lo}..2**{hi.bit_length() - 1}")
    return int(na) if na.ndim == 0 else na.astype(np.int64, copy=False)


def _real(v, name, above=0):
    """``v`` as a float: ``TypeError`` unless a real number (a bool or a str is not),
    ``ValueError`` unless finite and > ``above``."""
    if type(v) is float and above < v < math.inf:  # in the domain: the usual case
        return v
    message = f"{name} must be a finite real > {above}"
    if not hasattr(v, "__float__") or np.asarray(v).dtype.kind in "bc":
        raise TypeError(message)  # a bool or a complex: Python's, numpy's or an array of them
    try:
        x = float(v)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    except TypeError:  # an array that is not 0-d
        raise TypeError(message) from None
    if not above < x < math.inf:
        raise ValueError(message)
    return x


def _parameter(K):
    """K as a float: ``_real``'s errors unless a finite real > 1, and ``ValueError``
    above 2**64, so that K**3 (h's cell spec), K * K (verify's coefficients) and
    2**53 K (the deepest breakpoints) stay finite."""
    if (K := _real(K, "K", 1)) > 2.0**64:
        raise ValueError("K must be at most 2**64")
    return K


def _count(n, name, least, most=math.inf):
    """``n`` as an int: ``TypeError`` unless integral (a bool is not), never
    truncated, and ``ValueError`` outside ``least``..``most`` (a power of two,
    for a count that sizes an allocation)."""
    if type(n) is int and least <= n <= most:  # in the domain: the usual case
        return n
    message = f"{name} must be an integer >= {least}"
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise TypeError(message)
    try:
        n = operator.index(n)
    except TypeError:  # an array that is not 0-d or not integral
        raise TypeError(message) from None
    if n < least:
        raise ValueError(message)
    if n > most:
        raise ValueError(f"{name} must be at most 2**{most.bit_length() - 1}")
    return n


def breakpoint_log2(K, n):
    """log2 of the n-th breakpoint radius, for 1 < K <= 2**64, 0 <= n <= ``MAX_BREAKPOINT_INDEX``.

    Closed form; equals the recurrence
    log2 r_n = log2 r_{n-1} - 1/k_n started from r_0 = 1.  An int or 0-d ``n``
    gives a float, computed on Python ints with no numpy call for an int; an
    array gives an array, each entry the scalar call's float.
    """
    n = _index_array(n, "breakpoint index", 0, MAX_BREAKPOINT_INDEX)
    return _breakpoint_log2(_parameter(K), n)


def _breakpoint_log2(K, na):
    """``breakpoint_log2`` without validation, for int64 arrays or Python ints
    in the index domain (the interval lookup calls it on every step); both give
    the same float, as ints up to 2**53 convert exactly.  For n >= 0, n >> 1 is
    n // 2 and n - (n >> 1) is (n + 1) // 2, the same ints and so the same floats."""
    return -((na >> 1) * K + (na - (na >> 1)) / K) + 0.0  # normalize -0.0 at n = 0


def _period(K):
    """K + 1/K: log2 r_n - log2 r_{n+2}, the period of f, h and the zoom limits."""
    return K + 1.0 / K


def _cell_spec(name, K):
    """Row ``name`` of the cell-spec table (see ``_eval_cells``) at parameter K:
    "P1" is f, slope K on [r_1, r_0] and 1/K with log2 C_2 = 1/K^2 - 1 on
    [r_2, r_1]; "f_inv" inverts them on the value cell (-2, 0]; "h" has slopes
    K^2, 1/K^2 on f's intervals, and Q1 too, fixing the even breakpoints.  The
    branch switch is -1/K (log2 r_1) for P1, h and Q1, -K for P2 and Q2, -1 for f_inv."""
    P = _period(K)
    if name == "P1":
        return (P, K, 0.0, 1.0 / K, 1.0 / (K * K) - 1.0, 2.0)
    if name == "h":
        return (P, K * K, -1.0 / K, 1.0 / (K * K), 1.0 / K**3 - 1.0 / K - K, P)
    if name == "f_inv":
        return (2.0, 1.0 / K, 0.0, K, K - 1.0 / K, P)
    if name == "P2":
        return (P, 1.0 / K, 0.0, K, K * K - 1.0, 2.0)
    if name == "Q1":
        return (P, K * K, 0.0, 1.0 / (K * K), (1.0 - 1.0 / (K * K)) * -P, P)
    if name == "Q2":
        return (P, 1.0 / (K * K), 0.0, K * K, (K * K - 1.0) * P, P)
    raise ValueError(f"no cell-spec row {name!r}")


def _eval_cells(x, cells, name="x"):
    """log2 y(2^x) for a log-periodic map given by its cell spec.

    ``cells`` is (period, a_hi, b_hi, a_lo, b_lo, shift), a row of
    ``_cell_spec``: y(x - period) = y(x) - shift, and on the cell (-period, 0]
    y is the line b_hi + a_hi u above its branch switch and b_lo + a_lo u
    below it.  The lines cross at the switch, so y is their max where
    a_hi >= a_lo (convex) and their min elsewhere (concave).  So x is reduced
    by m = floor(-x / period) periods (Cody-Waite style) to u in the top
    cell, and the line picked there is shifted back down by m * shift; the
    radius-0 sentinel maps to itself.  A float takes the ``math`` driver and
    gives a float, an array the numpy one and an array of its shape; both
    make the same float operations in the same order, so they agree bit for
    bit, errors included.  A Python float in the domain is the check's own
    fast case, so it skips the call to ``_log_radii``.

    The rounded lines can come out in the wrong order only a few ulps from
    the switch, where the exact ones are within their rounding errors of each
    other and either is within y's envelope (``tests/test_envelope.py``).
    """
    if not (type(x) is float and -MAX_ABS_LOG2_RADIUS <= x <= 0.0):  # else checked already
        x, sentinel = _log_radii(x, name)
        if not isinstance(x, float):
            return _cell_lanes(x, sentinel, cells)
        if x == RADIUS_ZERO_LOG2:
            return x
    period, a_hi, b_hi, a_lo, b_lo, shift = cells
    m = math.floor(-x / period)  # the floor of a float: float(m) is exact, as in numpy
    u = x + m * period
    hi, lo = b_hi + a_hi * u, b_lo + a_lo * u
    # max or min inline: a builtin call would cost more than the pick
    return ((hi if hi > lo else lo) if a_hi >= a_lo else (hi if hi < lo else lo)) - m * shift


def _cell_lanes(x, sentinel, cells):
    """``_eval_cells``'s numpy driver, on a checked array and its mask from ``_log_radii``.
    A sentinel lane runs through too: inf - inf, the one invalid operation, makes it
    a NaN until the mask sets it back, and a subnormal lane underflows as it does in
    the math driver, quietly.  Three temporaries; ``x`` is never written."""
    period, a_hi, b_hi, a_lo, b_lo, shift = cells
    with np.errstate(invalid="ignore", under="ignore"):
        m = np.divide(x, -period)  # the same IEEE value as -x / period, signed zeros included
        np.floor(m, out=m)
        u = m * period
        u += x
        hi = u * a_hi
        hi += b_hi
        u *= a_lo
        u += b_lo
        (np.maximum if a_hi >= a_lo else np.minimum)(u, hi, out=u)
        m *= shift
        u -= m
    if sentinel is not None:
        np.copyto(u, RADIUS_ZERO_LOG2, where=sentinel)
    return u


def _locate(K, x):
    """Branch index of finite log2 radii (no validation): the first r_n <= x of
    a walk up from 2 floor(-x / P) - 1, at least 1, with P = K + 1/K; a float
    walks on Python ints and gives an int, an array on int64 arrays.
    The start is never above the answer, so ties go to the smaller index with
    no step down (x < r_{n-1} unless n = 1): for m = floor(fl(-x / P)) >= 1 and
    |x| <= 2**52, fl(-x / P) exceeds -x / P by at most 1/2, so x <= r_{2m-2} -
    P/2 < r_{2m-2} - 1 exactly, and the float r_{2m-2}, three roundings of
    values below 2**52, is within 3/4 of the exact value and lies above x."""
    P = _period(K)
    if isinstance(x, float):
        start = max(2 * math.floor(-x / P) - 1, 1)
        for n in range(start, start + _LOCATE_STEPS + 1):
            if _breakpoint_log2(K, n) <= x:
                return n
        raise ValueError(_UNRESOLVED)
    n = np.maximum(2 * np.floor(-x / P).astype(np.int64) - 1, 1)
    for _ in range(_LOCATE_STEPS + 1):
        up = _breakpoint_log2(K, n) > x
        if not up.any():
            return n
        n += up
    raise ValueError(_UNRESOLVED)


def _local_exponent(K, x, row):
    """Branch exponent at x of a map on f's intervals, from its cell-spec row:
    row[1] on odd intervals, row[3] on even ones.  Breakpoints and the
    radius-0 sentinel are rejected; a point takes the ``math`` driver."""
    if not (type(x) is float and -MAX_ABS_LOG2_RADIUS <= x <= 0.0):  # else checked already
        x = _log_radius(x, "x", allow_zero_radius=False)
    n = _locate(K, x)
    on_bp = (x == _breakpoint_log2(K, n)) | (x == 0.0)  # x < r_{n-1} unless n = 1, r_0 = 0
    if on_bp if isinstance(x, float) else on_bp.any():
        raise NotDifferentiableError(
            "no derivative at a breakpoint radius (distortion is an a.e. notion; "
            "breakpoint spheres form a removable null set)"
        )
    odd = n & 1  # n >= 1
    return (row[1] if odd else row[3]) if isinstance(x, float) else np.where(odd, row[1], row[3])


@dataclass(frozen=True)
class PiecewisePowerMap:
    """The alternating-exponent homeomorphism, all data in log2 form.

    ``K`` is the whole state: every evaluator goes through the closed forms,
    which hold for arbitrarily deep indices.  Immutable and hashable, and
    every method is a pure function, so instances are safe to share across
    any number of concurrent workers; two maps with the same K compare equal.
    The rows of f (``_row``) and f^{-1} (``_f_inv``), computed here, are held
    outside the dataclass fields, so equality, hashing and repr read K alone.
    """

    K: float

    def __post_init__(self):
        object.__setattr__(self, "K", _parameter(self.K))  # a float, 1 < K <= 2**64
        object.__setattr__(self, "_row", _cell_spec("P1", self.K))
        object.__setattr__(self, "_f_inv", _cell_spec("f_inv", self.K))

    def breakpoint(self, n):
        """log2 r_n for any index in the domain."""
        return breakpoint_log2(self.K, n)

    def locate_interval(self, x):
        """Index n >= 1 of the branch interval [r_n, r_{n-1}] containing 2^x.

        Closed-form inversion of the breakpoint formula plus a walk of at most
        five indices, never a scan, with exact comparisons against the float
        breakpoints.  When x is exactly a breakpoint the smaller index is
        returned; continuity makes evaluation agree either way.
        """
        if not (type(x) is float and -MAX_ABS_LOG2_RADIUS <= x <= 0.0):  # else checked already
            x = _log_radius(x, "x", allow_zero_radius=False)
        return _locate(self.K, x)

    def eval_log(self, x):
        """log2 f(2^x); the radius-0 sentinel maps to itself."""
        return _eval_cells(x, self._row)

    def inverse_eval_log(self, y):
        """log2 of f^{-1}(2^y).

        f maps [r_2, r_0] onto [-2, 0] in log2, so f^{-1} is log-periodic with
        period 2 and shift K + 1/K, its pieces the inverted branches of f.
        """
        return _eval_cells(y, self._f_inv, "y")

    def eval(self, r):
        """f(r) for r in [0, 1] by libm's log2 and pow, entry by entry, no numpy dispatch: the
        CLI's bits, about 0.3 us an entry.  Radii below the float64 range need ``eval_log``."""
        return _to_linear(self.eval_log(_to_log2(r, "r")))

    def mean_radius_radial(self, delta):
        """log2 mean radius of the image of the ball of log2 radius ``delta``.

        The radial extension (r, sigma) -> (f(r), sigma) carries B(0, t) onto
        B(0, f(t)) exactly, so the volume-matching radius is f(t) itself; this
        equality is what lets f(t) serve as the zoom normalizer.
        """
        return self.eval_log(delta)

    def local_exponent(self, x):
        """Power-law exponent of the branch at x; breakpoints are rejected."""
        return _local_exponent(self.K, x, self._row)

    def distinct_exponents(self):
        """The two branch exponents; pointwise distortion depends only on these."""
        return (self._row[1], self._row[3])


def _distinct_breakpoints_log2(K, start, stop):
    """log2 r_start .. r_stop, after checking that consecutive ones differ in float64."""
    log2_r = breakpoint_log2(K, np.arange(start, stop + 1))
    if np.any(np.diff(log2_r) >= 0.0):
        raise ValueError(
            "K too large for float64: consecutive breakpoints coincide within depth"
        )
    return log2_r


#: lanes per block of verify's depth-long and grid-wide checks: a float64
#: temporary of a block stays under 64 KiB, which glibc's free never answers by
#: trimming the heap, so the next block (and the next call) reuses its pages
#: where whole-depth temporaries were faulted in afresh on every call
_BLOCK = 7680


def _blocked_max(fn, count, size=_BLOCK):
    """The max of ``fn(start, stop)`` over the blocks of ``size`` that cover
    0 .. count - 1 in order (one empty block when count is 0), a NaN of any
    block coming through; for ``fn`` giving a tuple, the max of each entry."""
    return np.max([fn(i, min(i + size, count)) for i in range(0, max(count, 1), size)], axis=0)


#: K up to which breakpoints 0 .. ``GUARD_DEPTH`` = 10**4 are distinct floats
#: with no check.  Proof, for 1 < K <= 2**19 and round to nearest: every
#: product m K (m = n >> 1 <= 5000), quotient (n - m) / K <= 5000 and sum of
#: the two in ``_breakpoint_log2`` lies below 5000 * 2**19 + 5000 < 2**32, so
#: each rounds by at most 2**-22, and a quotient by at most 2**-41.  An odd
#: step n = 2m -> 2m + 1 keeps the product and raises the quotient by
#: 1/K >= 2**-19; rounded, by at least 2**-19 - 2**-40, and the two sums then
#: differ by at least 2**-19 - 2**-40 - 2 * 2**-22 > 0.  An even step keeps
#: the quotient and raises the product by K > 1, so the sums by at least
#: K - 4 * 2**-22 > 0.  So the float breakpoints strictly decrease.  Above the
#: bound the array check runs; the first K it refuses lies near 1.0493e6.
_GUARD_FREE_K = 2.0**19


def build_standard_map(K) -> PiecewisePowerMap:
    """Construct the alternating-exponent map for a distortion parameter K > 1.

    K must keep consecutive breakpoints distinct in float64 up to index
    ``GUARD_DEPTH``; closed forms serve every index, so no operation fails on
    deep zooms.  That holds with no check up to ``_GUARD_FREE_K``.
    """
    f = PiecewisePowerMap(K=K)  # K's type and bounds checked first
    if f.K > _GUARD_FREE_K:
        _distinct_breakpoints_log2(f.K, 0, GUARD_DEPTH)
    return f
