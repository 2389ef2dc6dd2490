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
``ivt_sample`` locates by bisection; that a single point 0 carries more than
one zoom limit is the whole point of the construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .powermap import (
    RADIUS_ZERO_LOG2,
    PiecewisePowerMap,
    _breakpoint_log2,
    _scalar_like,
    _validate_log_radius,
)

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


class BracketError(ValueError):
    """The target value is not bracketed by the two scale limits."""


def _base_of(map_):
    """Underlying piecewise power map (conjugated maps carry it as .source)."""
    return getattr(map_, "source", map_)


def _locate_shifted(K, xf):
    """Period index m >= 0 with log2 r_{2m+2} <= x <= log2 r_{2m}, plus a flag
    for x lying above the shifted odd breakpoint 2^{1/K - K} r_{2m+1}.

    The shifted breakpoints are where the odd-scale limits switch branch;
    smallest m wins ties, matching the branch tie-break of the base map.
    """
    period = K + 1.0 / K
    m0 = np.floor(-xf / period).astype(np.int64)
    out = np.full(xf.shape, -1, dtype=np.int64)
    for off in (-1, 0, 1, 2):
        cand = np.maximum(m0 + off, 0)
        hit = (
            (out < 0)
            & (_breakpoint_log2(K, 2 * cand + 2) <= xf)
            & (xf <= _breakpoint_log2(K, 2 * cand))
        )
        out = np.where(hit, cand, out)
    if np.any(out < 0):
        raise ValueError("log2 radius too deep for float64 breakpoint resolution")
    shifted = -((out + 1) * K + out / K)
    return out, xf >= shifted


def _limit_eval_finite(kind, K, source, xf):
    if kind == "P1":
        # Same branch layout as the base map; offsets via the anchor form
        # -n - k_n log2 r_n, a different arithmetic route than eval_log.
        n = source._locate(xf)
        k_n = np.where((n % 2) == 1, K, 1.0 / K)
        return -n - k_n * _breakpoint_log2(K, n) + k_n * xf
    if kind == "Q1":
        # Slopes K^2 / 1/K^2 on the base intervals, anchored so that the
        # even-indexed breakpoints are fixed points.
        n = source._locate(xf)
        odd = (n % 2) == 1
        slope = np.where(odd, K * K, 1.0 / (K * K))
        anchor = _breakpoint_log2(K, np.where(odd, n - 1, n))
        return (1.0 - slope) * anchor + slope * xf
    # P2 / Q2: branch switch at the shifted odd breakpoints.
    m, high = _locate_shifted(K, xf)
    lr_hi = _breakpoint_log2(K, 2 * m)
    lr_lo = _breakpoint_log2(K, 2 * m + 2)
    if kind == "P2":
        hi_val = -(2 * m) - lr_hi / K + xf / K
        lo_val = -(2 * m + 2) - K * lr_lo + K * xf
    else:  # Q2
        hi_val = (1.0 - 1.0 / (K * K)) * lr_hi + xf / (K * K)
        lo_val = (1.0 - K * K) * lr_lo + (K * K) * xf
    return np.where(high, hi_val, lo_val)


@dataclass(frozen=True)
class LimitFunction:
    """One of the four closed-form zoom limits, evaluable piecewise in log2.

    All four fix 0 and 1 (unit-ball measure normalization), increase strictly,
    and alternate between two power-law slopes, so none of them is a single
    power r^D: the homogeneity every differentiable-point limit would have.
    """

    kind: str
    K: float
    source: PiecewisePowerMap

    def eval_log(self, x):
        xa = np.asarray(x, dtype=float)
        _validate_log_radius(xa, "x")
        xa1 = np.atleast_1d(xa)
        out = np.full(xa1.shape, RADIUS_ZERO_LOG2)
        fin = np.isfinite(xa1)
        if fin.any():
            out[fin] = _limit_eval_finite(self.kind, self.K, self.source, xa1[fin])
        return _scalar_like(x, out)


def limit_function(map_, kind) -> LimitFunction:
    """Attach one of the closed-form scale limits to a map's breakpoint data.

    ``P1``/``P2`` are the even/odd-scale limits of the base piecewise power
    map, ``Q1``/``Q2`` those of its conjugated (halving) map.  The recorded
    source is always the base map, whose breakpoints set the branch layout.
    """
    if kind not in LIMIT_KINDS:
        raise ValueError(f"kind must be one of {LIMIT_KINDS}, got {kind!r}")
    base = _base_of(map_)
    if not isinstance(base, PiecewisePowerMap):
        raise TypeError("map must be a PiecewisePowerMap or carry one as .source")
    return LimitFunction(kind=kind, K=base.K, source=base)


def rescaled_eval(map_, t, r):
    """log2 of f(r t) / f(t): the zoom of ``map_`` at scale 2^t.

    ``t`` must be a finite log2 scale < 0; ``r`` may include the radius-0
    sentinel, which passes through.  The value at r = 1 (log2 0) is exactly 0:
    the normalization preserves the unit-ball measure.
    """
    ta = np.asarray(t, dtype=float)
    _validate_log_radius(ta, "t", allow_zero_radius=False)
    if np.any(ta == 0.0):
        raise ValueError("t must be strictly negative: zooming needs a scale below 1")
    ra = np.asarray(r, dtype=float)
    _validate_log_radius(ra, "r")
    return map_.eval_log(ra + ta) - map_.eval_log(ta)


def scale_at(map_, sequence, n):
    """log2 scale t_n: the 2n-th breakpoint for "even", the (2n-1)-th for "odd"."""
    if sequence not in (EVEN_BREAKPOINTS, ODD_BREAKPOINTS):
        raise ValueError(f'sequence must be "even" or "odd", got {sequence!r}')
    n = operator.index(n)
    if n < 1:
        raise ValueError("sequence index n must be >= 1")
    base = _base_of(map_)
    return base.breakpoint(2 * n if sequence == EVEN_BREAKPOINTS else 2 * n - 1)


def zoom_limit_deviation(map_, sequence, lf, n_range, r_grid):
    """Worst |rescaled - limit| in log2 over scales t_n, n in n_range, and a grid.

    Pure roundoff for the matched pairings (even scales against P1/Q1, odd
    against P2/Q2), because the rescaled family is exactly index-independent
    at these scales.  Mismatched pairings give an order-one deviation, which
    is the distinctness witness.
    """
    base = _base_of(map_)
    if lf.source is not base or lf.K != base.K:
        raise ValueError("limit function was built for a different map")
    grid = np.asarray(r_grid, dtype=float)
    _validate_log_radius(grid, "r_grid", allow_zero_radius=False)
    lim = np.atleast_1d(lf.eval_log(grid))
    worst = 0.0
    for n in n_range:
        t = scale_at(map_, sequence, n)
        dev = np.abs(np.atleast_1d(rescaled_eval(map_, t, grid)) - lim)
        worst = max(worst, float(dev.max()))
    return worst


def ivt_sample(map_, r0, lam, tol, period_index=1):
    """A log2 scale t whose zoom value at radius r0 hits the target ``lam``.

    The even- and odd-scale limits bracket every achievable zoom value at r0,
    and within one breakpoint period the rescaled value varies continuously
    (piecewise affine in log2 t) between them, so bisection over
    [log2 r_{2k}, log2 r_{2k-1}] with k = ``period_index`` converges.  Calls
    with increasing k return strictly smaller scales achieving the same value:
    a scale sequence per target value, hence one subsequential limit per
    target.

    ``r0`` and ``lam`` broadcast against each other.  Each lane runs the
    bisection of a scalar call (same bracket, midpoints and endpoint snap) and
    gives that call's result bit for bit; the lanes step in lock-step and a
    finished lane drops out.  Scalar inputs return a float, arrays an array of
    the broadcast shape.  One lane outside its bracket raises ``BracketError``.
    """
    tol = float(tol)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    r0a, lama = np.broadcast_arrays(np.asarray(r0, dtype=float), np.asarray(lam, dtype=float))
    shape = r0a.shape
    r0a = r0a.ravel()
    lama = lama.ravel()
    base = _base_of(map_)
    even_kind, odd_kind = ("P1", "P2") if map_ is base else ("Q1", "Q2")
    a = limit_function(map_, even_kind).eval_log(r0a)
    b = limit_function(map_, odd_kind).eval_log(r0a)
    t_even = scale_at(map_, EVEN_BREAKPOINTS, period_index)
    t_odd = scale_at(map_, ODD_BREAKPOINTS, period_index)
    snap_even = np.abs(lama - a) <= tol
    snap_odd = ~snap_even & (np.abs(lama - b) <= tol)
    t = np.where(snap_even, t_even, t_odd)
    lane = np.flatnonzero(~(snap_even | snap_odd))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    outside = ~((lo[lane] < lama[lane]) & (lama[lane] < hi[lane]))
    if outside.any():
        i = lane[np.argmax(outside)]
        raise BracketError(
            f"target {float(lama[i])} is outside the achievable bracket "
            f"[{float(lo[i])}, {float(hi[i])}] at this radius"
        )
    r0s, lams, fa = r0a[lane], lama[lane], a[lane] - lama[lane]
    ta = np.full(lane.size, t_even)
    tb = np.full(lane.size, t_odd)
    for _ in range(200):
        if not lane.size:
            break
        tm = 0.5 * (ta + tb)
        fm = rescaled_eval(map_, tm, r0s) - lams
        same = (fm < 0.0) == (fa < 0.0)
        ta = np.where(same, tm, ta)
        fa = np.where(same, fm, fa)
        tb = np.where(same, tb, tm)
        done = np.abs(fm) <= tol
        if done.any():
            t[lane[done]] = tm[done]
            keep = ~done
            lane, r0s, lams, ta, fa, tb = (v[keep] for v in (lane, r0s, lams, ta, fa, tb))
    if lane.size:
        raise ValueError("bisection exhausted: tol is below float64 resolution")
    return float(t[0]) if not shape else t.reshape(shape)


def homogeneity_defect(lf, samples):
    """Max deviation of sampled log-log points from the best line through 0.

    A limit that is a single power r^D (what the zoom limit of a well-behaved
    point looks like, normalized to fix the unit ball) is exactly collinear
    through the origin in log2-log2 coordinates, so its defect is 0.  The four
    alternating-slope limits sampled across a breakpoint give a strictly
    positive defect: a parameter-free witness that no single D fits.

    ``lf`` may be a LimitFunction or any callable log2 r -> log2 value.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1 or np.unique(xs).size < 3:
        raise ValueError("need at least 3 distinct sample radii")
    _validate_log_radius(xs, "samples", allow_zero_radius=False)
    evalf = lf.eval_log if hasattr(lf, "eval_log") else lf
    ys = np.asarray([float(evalf(float(v))) for v in xs])
    slope = float(np.dot(xs, ys)) / float(np.dot(xs, xs))
    return float(np.max(np.abs(ys - slope * xs)))


def _two_slope_line(x):
    """The 1-D model map: identity on x >= 0, halving on x < 0."""
    xa = np.asarray(x, dtype=float)
    return np.where(xa >= 0.0, xa, 0.5 * xa)


def example_1d_mean_radius(delta):
    """Mean radius of the image of (-1, 1) under x -> f(delta x) for the 1-D
    two-slope model: half the image interval's length, i.e. 3 delta / 4."""
    d = float(delta)
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError("delta must be a positive real")
    return 0.5 * (float(_two_slope_line(d)) - float(_two_slope_line(-d)))


def example_1d_rescaled(x, delta):
    """Zoom of the 1-D two-slope model at scale delta: 4x/3 for x >= 0, 2x/3
    for x < 0, independent of delta.

    The model map is scale-invariant, so its zoom family is a single map: one
    limit only.  Included as the degenerate contrast case and as a 1-D sanity
    check of the mean-radius normalization convention.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(np.isnan(xa)) or np.any(np.abs(xa) > 1.0):
        raise ValueError("x must lie in [-1, 1]")
    out = _two_slope_line(float(delta) * xa) / example_1d_mean_radius(delta)
    return float(out) if np.ndim(x) == 0 else out
