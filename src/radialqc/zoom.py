"""Zoom rescalings of radial maps and their closed-form scale limits.

Rescaling a radial map f around the origin at scale t gives, in log2
coordinates, g_t(r) = f(r t) / f(t): the image is renormalized by the mean
radius of the image ball, which for these radial maps is exactly f(t).  The
breakpoint structure of the maps in this package is log2-periodic with period
K + 1/K, and along breakpoint scales the rescaled family does not depend on
the index at all: it *equals* its limit.  Even-indexed scales t = r_{2n}
reproduce the base map itself (kind ``P1``; ``Q1`` for the conjugated map),
odd-indexed scales t = r_{2n-1} give a second, genuinely different limit
(``P2`` / ``Q2``).  Intermediate scales realize every value in between, which
``ivt_sample`` solves for in closed form; that a single point 0 carries more
than one zoom limit is the whole point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .powermap import (
    MAX_BREAKPOINT_INDEX,
    PiecewisePowerMap,
    _BLOCK,
    _blocked_max,
    _cell_lanes,
    _cell_spec,
    _eval_cells,
    _floats,
    _index_array,
    _log_radius,
    _real,
)
from .uqrmap import _base_of

__all__ = [
    "EVEN_BREAKPOINTS",
    "ODD_BREAKPOINTS",
    "LIMIT_KINDS",
    "BracketError",
    "LimitFunction",
    "limit_function",
    "rescaled_eval",
    "scale_at",
    "zoom_limit_deviation",
    "ivt_sample",
    "homogeneity_defect",
    "example_1d_rescaled",
    "example_1d_mean_radius",
]

EVEN_BREAKPOINTS = "even"
ODD_BREAKPOINTS = "odd"
LIMIT_KINDS = ("P1", "P2", "Q1", "Q2")

#: each map's limits at even and odd breakpoint scales: the construction's
#: pairing, read by ``ivt_sample`` and the CLI
_MATCHED = {"f": ("P1", "P2"), "h": ("Q1", "Q2")}


class BracketError(ValueError):
    """The target value is not bracketed by the two scale limits."""


_OUTSIDE = "target {} is outside the achievable bracket [{}, {}] at this radius"


@dataclass(frozen=True)
class LimitFunction:
    """One of the four closed-form zoom limits, evaluable piecewise in log2.

    All four fix 0 and 1 (unit-ball measure normalization), increase strictly,
    and alternate between two power-law slopes, so none of them is a single
    power r^D: the homogeneity every differentiable-point limit would have.

    Built as ``limit_function`` builds it, with its errors, a ``ConjugatedMap``
    source recorded as its base map.  The kind's row of ``powermap._cell_spec``
    (``_row``, as f and h hold theirs) is held outside the dataclass fields:
    equality, hashing and repr read kind and source alone.
    """

    kind: str
    source: PiecewisePowerMap

    def __post_init__(self):
        if self.kind not in LIMIT_KINDS:
            raise ValueError(f"kind must be one of {LIMIT_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "source", _base_of(self.source))
        object.__setattr__(self, "_row", _cell_spec(self.kind, self.source.K))

    def eval_log(self, x):
        """log2 of the limit at 2^x; the radius-0 sentinel maps to itself."""
        return _eval_cells(x, self._row)


def limit_function(map_, kind) -> LimitFunction:
    """Attach one of the closed-form scale limits to a map's breakpoint data.

    ``P1``/``P2`` are the even/odd-scale limits of the base piecewise power
    map, ``Q1``/``Q2`` those of its conjugated (halving) map.  The recorded
    source is always the base map: its K alone fixes the limit's row of
    ``powermap._cell_spec`` (period, two slopes, two offsets, shift),
    evaluated by the same cell kernel as f and h; P1 is f's own row.
    A float or 0-d input gives a float, an array an array.
    """
    return LimitFunction(kind=kind, source=map_)


def rescaled_eval(map_, t, r):
    """log2 of f(r t) / f(t): the zoom of ``map_`` at scale 2^t.

    ``t`` must be a finite log2 scale < 0; ``r`` may include the radius-0
    sentinel, which passes through.  The value at r = 1 (log2 0) is exactly 0:
    the normalization preserves the unit-ball measure.
    """
    _base_of(map_)
    t = _log_radius(t, "t", allow_zero_radius=False)
    at_one = t == 0.0
    if at_one if isinstance(t, float) else at_one.any():
        raise ValueError("t must be strictly negative: zooming needs a scale below 1")
    r = _log_radius(r, "r")
    out = map_.eval_log(r + t)  # a fresh array or a float: subtract in place
    out -= map_.eval_log(t)
    return out


def scale_at(map_, sequence, n):
    """log2 scale t_n: the 2n-th breakpoint for "even", the (2n-1)-th for "odd".

    ``n`` is an integer or an integer array (not a bool), each entry in
    1..2**52 (so the breakpoint index stays within ``MAX_BREAKPOINT_INDEX``);
    an int gives a float with no numpy call, an array is validated once and
    gives an array of scales.
    """
    if sequence not in (EVEN_BREAKPOINTS, ODD_BREAKPOINTS):
        raise ValueError(f'sequence must be "even" or "odd", got {sequence!r}')
    n = _index_array(n, "sequence index n", 1, MAX_BREAKPOINT_INDEX // 2)
    return _base_of(map_).breakpoint(2 * n if sequence == EVEN_BREAKPOINTS else 2 * n - 1)


def zoom_limit_deviation(map_, sequence, lf, n_range, r_grid):
    """Worst |rescaled - limit| in log2 over scales t_n, n in n_range, and a grid.

    Pure roundoff for the matched pairings (even scales against P1/Q1, odd
    against P2/Q2), because the rescaled family is exactly index-independent
    at these scales.  Mismatched pairings give an order-one deviation, which
    is the distinctness witness.

    The scales are checked, and F(t) and the limit on the grid evaluated,
    once, and so is the table's deepest lane fl(min grid + min t), as rounding
    is monotone, with ``map_.eval_log``'s message; the rows of the scales then
    go through the cell kernel on the map's ``_row`` in blocks of
    ``_BLOCK // len(grid)`` rows, one row where the grid is longer, each lane
    giving ``rescaled_eval``'s bits, and so the max its whole table gives.
    """
    base = _base_of(map_)
    if not isinstance(lf, LimitFunction):
        raise TypeError("lf must be a LimitFunction")
    if lf.source != base:
        raise ValueError("limit function was built for a different map")
    grid = np.ravel(_log_radius(r_grid, "r_grid", allow_zero_radius=False))
    t = scale_at(map_, sequence, n_range)[:, None]
    t = _log_radius(t, "t", allow_zero_radius=False)  # as rescaled_eval checks it
    _log_radius(grid.min(initial=0.0) + t.min(initial=0.0), "x")  # the deepest lane, if any
    at_t, limit = map_.eval_log(t), lf.eval_log(grid)

    def rows(i, j):
        rescaled = _cell_lanes(grid + t[i:j], None, map_._row)  # a fresh array: work in place
        rescaled -= at_t[i:j]
        rescaled -= limit
        return np.abs(rescaled, out=rescaled).max(initial=0.0)

    return float(_blocked_max(rows, len(t), max(1, _BLOCK // max(grid.size, 1))))


def ivt_sample(map_, r0, lam, tol, period_index=1):
    """A log2 scale t whose zoom value at radius r0 hits the target ``lam``.

    On the bracket [log2 r_{2j}, log2 r_{2j-1}], j = ``period_index``, whose
    ends give the even- and odd-scale limits, the zoom value of F = f or h is
    g(t) = F(r0 + t) - F(t).  On the first bracket F(t) has slope 1/k (k = K
    for f, K^2 for h), so g(t) - G(r0 + t) is constant for G(s) = F(s) - s/k,
    a cell map flat on one piece of each period cell.  So t is its inverse
    cell map, evaluated once, shifted down j - 1 periods K + 1/K: scales
    strictly decreasing in j, hence one subsequential limit per target.

    ``tol``, a finite real > 0, is only the snap width: a target within it of
    a limit returns that breakpoint scale.  ``r0``, ``lam`` and
    ``period_index`` broadcast, each lane giving the scalar call's result bit
    for bit.  A point (0-d ``r0`` and ``lam``, an integer ``period_index``)
    is solved in plain floats with no numpy call and gives a float; it
    returns exactly what the 1-element array call returns and raises the same
    exception with the same message.  One lane outside its bracket (an
    infinite target included) raises ``BracketError``.  A NaN target and an
    ``r0`` outside the log2-radius domain, the radius-0 sentinel -inf included
    (radius 0 has no bracket), are input errors, a plain ``ValueError``.
    """
    tol = _real(tol, "tol")
    # checked here, so that an error names this parameter and not the breakpoint index
    j = _index_array(period_index, "period_index", 1, MAX_BREAKPOINT_INDEX // 2)
    r0, lam = _floats(r0, "r0"), _floats(lam, "lam")
    base = _base_of(map_)
    t_even, t_odd = base.breakpoint(2 * j), base.breakpoint(2 * j - 1)
    point = isinstance(r0, float) and isinstance(lam, float) and isinstance(j, int)
    if not point:
        lanes = np.broadcast_arrays(r0, lam, j, t_even, t_odd)
        shape = lanes[0].shape
        r0, lam, j, t_even, t_odd = (v.ravel() for v in lanes)
    if lam != lam if point else np.isnan(lam).any():
        raise ValueError("lam must be a log2 target value, not NaN")
    r0 = _log_radius(r0, "r0", allow_zero_radius=False)  # radius 0 has no bracket
    even, odd = _MATCHED["f" if map_ is base else "h"]
    a, b = _eval_cells(r0, _cell_spec(even, base.K)), _eval_cells(r0, _cell_spec(odd, base.K))
    if point:
        if abs(lam - a) <= tol:
            return t_even
        if abs(lam - b) <= tol:
            return t_odd
        lo, hi = min(a, b), max(a, b)
        if not lo < lam < hi:
            raise BracketError(_OUTSIDE.format(lam, lo, hi))
        return min(max(_solve(map_._row, r0, lam, j, t_even), t_even), t_odd)
    snap_even = np.abs(lam - a) <= tol
    snap_odd = ~snap_even & (np.abs(lam - b) <= tol)
    t = np.where(snap_even, t_even, t_odd)
    lane = np.flatnonzero(~(snap_even | snap_odd))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    outside = ~((lo[lane] < lam[lane]) & (lam[lane] < hi[lane]))
    if outside.any():
        i = lane[np.argmax(outside)]
        raise BracketError(_OUTSIDE.format(float(lam[i]), float(lo[i]), float(hi[i])))
    t_even, t_odd = t_even[lane], t_odd[lane]
    t[lane] = np.clip(_solve(map_._row, r0[lane], lam[lane], j[lane], t_even), t_even, t_odd)
    return t.reshape(shape)


def _solve(row, r0, lam, j, t_even):
    """``ivt_sample``'s scale for bracketed targets on F = f or h, given by its
    ``_row``, before the clip to the bracket [t_even, t_odd]: floats or
    equal-length arrays alike, so the two drivers of ``_eval_cells`` give the
    point call and each lane alike."""
    _log_radius(r0 + t_even, "r0 + t")  # the deepest point of the bracket
    P, k, F0, _, _, shift = row
    F_P = F0 - shift  # F's spec gives its top slope k, F(0) = b_hi and F(-P) = b_hi - shift
    # g(t) = G(r0 + t) - F(-P) + (r0 - P)/k; G - F(0) rises by V per cell, so its
    # inverse is c y on (-V, 0] (G's flat piece is a jump), shifted by P per cell.
    # Only for h at K > 1.6e5, within a period of -2**52, can y leave the domain.
    V = F0 - F_P - P / k
    c = 1.0 / (k - 1.0 / k)
    s = _eval_cells(lam + F_P - (r0 - P) / k - F0, (V, c, 0.0, c, 0.0, P), "r0 + t")
    return s - r0 - (j - 1) * P


def homogeneity_defect(lf, samples):
    """Max deviation of sampled log-log points from the best line through 0.

    A limit that is a single power r^D (what the zoom limit of a well-behaved
    point looks like, normalized to fix the unit ball) is exactly collinear
    through the origin in log2-log2 coordinates, so its defect is 0.  The four
    alternating-slope limits sampled across a breakpoint give a strictly
    positive defect: a parameter-free witness that no single D fits.

    ``lf`` may be a LimitFunction or any callable log2 r -> log2 value; one whose
    values leave the defect not finite (nan, inf, near 1e308) raises ValueError.
    """
    xs = _floats(samples, "samples")
    # distinct as np.unique counts them (0.0 is -0.0, one NaN for all), which imports numpy.ma
    if np.ndim(xs) != 1 or len({v if v == v else math.nan for v in xs.tolist()}) < 3:
        raise ValueError("need at least 3 distinct sample radii")
    _log_radius(xs, "samples", allow_zero_radius=False)
    evalf = lf.eval_log if hasattr(lf, "eval_log") else lf
    ys = np.asarray([float(evalf(float(v))) for v in xs])
    with np.errstate(all="ignore"):  # no RuntimeWarning: the check below raises instead
        slope = float(np.dot(xs, ys)) / float(np.dot(xs, xs))
        defect = float(np.max(np.abs(ys - slope * xs)))
    if not math.isfinite(defect):
        raise ValueError("homogeneity defect is not finite: values too large or not finite")
    return defect


def _two_slope_line(x):
    """The 1-D model map: identity on x >= 0, halving on x < 0."""
    xa = np.asarray(x, dtype=float)
    return np.where(xa >= 0.0, xa, 0.5 * xa)


def example_1d_mean_radius(delta):
    """Mean radius of the image of (-1, 1) under x -> f(delta x) for the 1-D
    two-slope model: half the image interval's length, i.e. 3 delta / 4,
    correctly rounded for every delta.

    The model is scale-free, so the length is taken at delta's mantissa m in
    [1/2, 1), where halving is exact, and its half, the float nearest 3m/4, is
    scaled back by delta's power of two.  That step rounds only a subnormal
    result, and it cannot round twice: there delta = M * 2**-1074 with
    3M < 2**54, so 3m/2 is inexact only for an odd 3M, a tie that goes to the
    neighbour 3M +- 1 divisible by 4, and the half scales back exactly onto the
    nearest multiple of 2**-1074 to 3 delta / 4.
    """
    m, e = math.frexp(_real(delta, "delta"))
    return math.ldexp(0.5 * (float(_two_slope_line(m)) - float(_two_slope_line(-m))), e)


def example_1d_rescaled(x, delta):
    """Zoom of the 1-D two-slope model at scale delta: 4x/3 for x >= 0, 2x/3
    for x < 0, independent of delta.

    The model map is scale-invariant, so its zoom family is a single map: one
    limit only.  Included as the degenerate contrast case and as a 1-D sanity
    check of the mean-radius normalization convention.
    """
    xa = _floats(x, "x")
    if np.any(np.isnan(xa)) or np.any(np.abs(xa) > 1.0):
        raise ValueError("x must lie in [-1, 1]")
    # scale-free: delta's power of two cancels exactly, so drop it before anything underflows
    d = math.frexp(_real(delta, "delta"))[0]
    out = _two_slope_line(d * xa) / example_1d_mean_radius(d)
    return float(out) if np.ndim(xa) == 0 else out
