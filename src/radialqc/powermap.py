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
<= 0), and the radius 0 by the sentinel ``RADIUS_ZERO_LOG2 = -inf``.  All
evaluators accept scalars or numpy arrays and return the matching kind.

Useful consequences of the layout, relied on elsewhere in the package:

  * anchor identity:   log2 C_n = -n - k_n log2 r_n
  * unit period:       log2 r_n - log2 r_{n+2} = K + 1/K for every n, and
    log2 f(x - (K + 1/K)) = log2 f(x) - 2, so every evaluator reduces x to
    one period cell and evaluates two affine pieces there (``_eval_cells``)
  * product identity:  log2 r_{2n} + log2 r_m = log2 r_{2n+m}
  * value intervals:   f maps [r_n, r_{n-1}] onto [2^-n, 2^-(n-1)], so f^{-1}
    is log-periodic too, with period 2 in log2 value.

Supported domain, shared by every evaluator in the package: breakpoint
indices 0 <= n <= ``MAX_BREAKPOINT_INDEX`` (2^53, where integers stop being
exact doubles) and log2 radii -``MAX_ABS_LOG2_RADIUS`` <= x <= 0 (2^52, so
every interval index reached from x stays within the index bound), plus the
-inf sentinel.  Inputs outside it raise ``ValueError`` before any integer
cast, so no index wraps around.
"""

from __future__ import annotations

import math
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

#: upward steps the interval lookup may take from its floor estimate: the true
#: index is at most three above it, five if the division rounds low by a period.
_LOCATE_STEPS = 5

#: index up to which ``build_standard_map`` requires distinct float64 breakpoints.
GUARD_DEPTH = 10_000


class NotDifferentiableError(ValueError):
    """A derivative-based quantity was requested at a breakpoint radius."""


def _validate_log_radius(a, name, allow_zero_radius=True):
    if np.any(np.isnan(a)) or np.any(a == np.inf):
        raise ValueError(f"{name} must be a log2 radius, not NaN or +inf")
    if np.any(a > 0.0):
        raise ValueError(f"{name} must be <= 0 (base-2 log of a radius in (0, 1])")
    if np.any((a < -MAX_ABS_LOG2_RADIUS) & (a != RADIUS_ZERO_LOG2)):
        raise ValueError(f"{name} must be >= -2**52 (or the radius-0 sentinel -inf)")
    if not allow_zero_radius and np.any(np.isneginf(a)):
        raise ValueError(f"{name}: the radius-0 sentinel is not accepted here")


def _index_array(n, name, lo, hi):
    """``n`` as an array: ``TypeError`` unless integral, ``ValueError`` outside lo..hi
    (``hi`` a power of two, as every index bound of the package is)."""
    na = np.asarray(n)
    if not np.issubdtype(na.dtype, np.integer):
        raise TypeError(f"{name} must be an integer within 64 bits")
    if np.any(na < lo) or np.any(na > hi):
        raise ValueError(f"{name} must lie in {lo}..2**{hi.bit_length() - 1}")
    return na


def _scalar_like(x, out1d):
    """Collapse a 1-element working array back to float for scalar input."""
    return float(out1d[0]) if np.ndim(x) == 0 else out1d


def breakpoint_log2(K, n):
    """log2 of the n-th breakpoint radius, for 0 <= n <= ``MAX_BREAKPOINT_INDEX``.

    Closed form; equals the recurrence
    log2 r_n = log2 r_{n-1} - 1/k_n started from r_0 = 1.
    """
    na = _index_array(n, "breakpoint index", 0, MAX_BREAKPOINT_INDEX)
    out = _breakpoint_log2(float(K), na.astype(np.int64))
    return float(out) if np.ndim(n) == 0 else out


def _breakpoint_log2(K, na):
    """``breakpoint_log2`` without validation, for int64 indices derived from
    in-domain log2 radii (the interval lookup calls it on every step)."""
    return -((na // 2) * K + ((na + 1) // 2) / K) + 0.0  # normalize -0.0 at n = 0


def _exponent(k, n):
    """Branch exponent on interval n: k if n is odd, else 1/k (k = K for f, K^2 for h)."""
    return np.where(n % 2 == 1, k, 1.0 / k)


def _eval_cells(x, cells, name="x"):
    """log2 y(2^x) for a log-periodic map given by its cell spec.

    ``cells`` is (period, split, a_hi, b_hi, a_lo, b_lo, shift): every map of
    the package satisfies y(x - period) = y(x) - shift and is affine on the
    two pieces of the cell (-period, 0] above and below ``split``.  So x is
    reduced by m = floor(-x / period) periods (Cody-Waite style) to u in the
    top cell, evaluated there, and shifted back down by m * shift.  Validates
    x, passes the radius-0 sentinel through and returns the kind of x.
    """
    period, split, a_hi, b_hi, a_lo, b_lo, shift = cells
    xa = np.asarray(x, dtype=float)
    _validate_log_radius(xa, name)
    xa1 = np.atleast_1d(xa)
    out = np.full(xa1.shape, RADIUS_ZERO_LOG2)
    fin = np.isfinite(xa1)
    if fin.any():
        xf = xa1[fin]
        m = np.floor(-xf / period)
        u = xf + m * period
        out[fin] = np.where(u >= split, b_hi + a_hi * u, b_lo + a_lo * u) - m * shift
    return _scalar_like(x, out)


def _f_cells(K):
    """Cell spec of f (and of its even-scale zoom limit P1): slope K on
    [r_1, r_0], slope 1/K with log2 C_2 = 1/K^2 - 1 on [r_2, r_1]."""
    return (K + 1.0 / K, -1.0 / K, K, 0.0, 1.0 / K, 1.0 / (K * K) - 1.0, 2.0)


@dataclass(frozen=True)
class PiecewisePowerMap:
    """The alternating-exponent homeomorphism, all data in log2 form.

    ``K`` is the whole state: every evaluator goes through the closed forms,
    which hold for arbitrarily deep indices.  Immutable and hashable, and
    every method is a pure function, so instances are safe to share across
    any number of concurrent workers; two maps with the same K compare equal.
    """

    K: float

    def breakpoint(self, n):
        """log2 r_n for any index in the domain."""
        return breakpoint_log2(self.K, n)

    def _locate(self, xf):
        """Branch index for an array of finite log2 radii (no validation): walk
        up from the floor estimate 2 floor(-x / (K + 1/K)) - 1 to the first
        r_n <= x, then one guard step down where x >= r_{n-1}, so the smaller
        index wins ties even when the estimate rounds high."""
        K = self.K
        n = np.maximum(2 * np.floor(-xf / (K + 1.0 / K)).astype(np.int64) - 1, 1)
        for _ in range(_LOCATE_STEPS + 1):
            up = _breakpoint_log2(K, n) > xf
            if not up.any():
                break
            n += up
        else:
            raise ValueError("log2 radius too deep for float64 breakpoint resolution")
        n -= (n > 1) & (xf >= _breakpoint_log2(K, n - 1))
        return n

    def locate_interval(self, x):
        """Index n >= 1 of the branch interval [r_n, r_{n-1}] containing 2^x.

        Closed-form inversion of the breakpoint formula plus a walk of at most
        five indices, never a scan, with exact comparisons against the float
        breakpoints.  When x is exactly a breakpoint the smaller index is
        returned; continuity makes evaluation agree either way.
        """
        xa = np.asarray(x, dtype=float)
        _validate_log_radius(xa, "x", allow_zero_radius=False)
        out = self._locate(np.atleast_1d(xa))
        return int(out[0]) if np.ndim(x) == 0 else out

    def eval_log(self, x):
        """log2 f(2^x); the radius-0 sentinel maps to itself."""
        return _eval_cells(x, _f_cells(self.K))

    def inverse_eval_log(self, y):
        """log2 of f^{-1}(2^y).

        f maps [r_2, r_0] onto [-2, 0] in log2, so f^{-1} is log-periodic with
        period 2 and shift K + 1/K, its pieces the inverted branches of f.
        """
        K = self.K
        return _eval_cells(y, (2.0, -1.0, 1.0 / K, 0.0, K, K - 1.0 / K, K + 1.0 / K), "y")

    def eval(self, r):
        """f(r) on the linear scale, for r in [0, 1].

        Convenience wrapper only: the result underflows to 0.0 once
        log2 f(r) drops below the float64 exponent range (~ -1074); use
        ``eval_log`` for deep radii.
        """
        ra = np.asarray(r, dtype=float)
        if np.any(np.isnan(ra)) or np.any(ra < 0.0) or np.any(ra > 1.0):
            raise ValueError("r must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            lx = np.log2(ra)
        out = np.exp2(self.eval_log(lx))
        return float(out) if np.ndim(r) == 0 else out

    def mean_radius_radial(self, delta):
        """log2 mean radius of the image of the ball of log2 radius ``delta``.

        The radial extension (r, sigma) -> (f(r), sigma) carries B(0, t) onto
        B(0, f(t)) exactly, so the volume-matching radius is f(t) itself; this
        equality is what lets f(t) serve as the zoom normalizer.
        """
        return self.eval_log(delta)

    def local_exponent(self, x):
        """Power-law exponent of the branch at x; breakpoints are rejected."""
        xa = np.asarray(x, dtype=float)
        _validate_log_radius(xa, "x", allow_zero_radius=False)
        n = _strict_branch_index(self, np.atleast_1d(xa))
        out = np.asarray(_exponent(self.K, n), dtype=float)
        return _scalar_like(x, out)

    def distinct_exponents(self):
        """The two branch exponents; pointwise distortion depends only on these."""
        return (self.K, 1.0 / self.K)


def _strict_branch_index(map_, xa1):
    """Branch indices for points strictly inside a branch; breakpoints raise."""
    n = map_._locate(xa1)
    on_bp = (xa1 == _breakpoint_log2(map_.K, n)) | (
        xa1 == _breakpoint_log2(map_.K, n - 1)
    )
    if np.any(on_bp):
        raise NotDifferentiableError(
            "no derivative at a breakpoint radius (distortion is an a.e. notion; "
            "breakpoint spheres form a removable null set)"
        )
    return n


def _distinct_breakpoints_log2(K, horizon):
    """log2 r_0 .. r_horizon, after checking that consecutive ones differ in float64."""
    log2_r = breakpoint_log2(K, np.arange(horizon + 1))
    if np.any(np.diff(log2_r) >= 0.0):
        raise ValueError(
            "K too large for float64: consecutive breakpoints coincide within depth"
        )
    return log2_r


def build_standard_map(K) -> PiecewisePowerMap:
    """Construct the alternating-exponent map for a distortion parameter K > 1.

    K must keep consecutive breakpoints distinct in float64 up to index
    ``GUARD_DEPTH``; closed forms serve every index, so no operation fails on
    deep zooms.
    """
    K = float(K)
    if not math.isfinite(K) or K <= 1.0:
        raise ValueError("K must be a finite real > 1 (the two exponents must differ)")
    _distinct_breakpoints_log2(K, GUARD_DEPTH)
    return PiecewisePowerMap(K=K)
