"""Distortion of radial maps in dimension d >= 2.

A radial stretch F(x) = x |x|^{alpha - 1} has derivative singular values
alpha t^{alpha-1} (radial direction) and t^{alpha-1} (each of the d-1
tangential directions) at radius t, hence Jacobian alpha t^{d(alpha-1)} and

    alpha >= 1:  K_O = |F'|^d / J = alpha^{d-1},     K_I = J / min^d = alpha
    alpha <  1:  K_O = 1 / alpha,                    K_I = alpha^{1-d}

independent of t.  A piecewise power map inherits these formulas branchwise
from its local exponent, so its essential-sup distortion is a maximum over
finitely many exponents (the breakpoint spheres are a removable null set).
A central-difference oracle recomputes the same quantities numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .powermap import _count, _float, _real

__all__ = [
    "SUPREMUM",
    "DistortionReport",
    "radial_power_distortion",
    "pointwise_distortion",
    "finite_difference_distortion",
    "max_distortion",
    "iterate_max_distortion",
    "linear_distortion_radial",
]

#: location marker for reports that hold at (almost) every radius.
SUPREMUM = "supremum"

#: the sampling of ``linear_distortion_radial``: log2 radii, directions per radius, rng seed
_H_LOG2_RADII = (-4.0, -2.0, -1.0, -0.5, -0.25)
_H_DIRECTIONS = 64
_H_SEED = 7


@dataclass(frozen=True)
class DistortionReport:
    """Outer/inner distortion at a location (a log2 radius or ``SUPREMUM``)."""

    K_O: float
    K_I: float
    dimension: int
    location: object = SUPREMUM

    @property
    def K_max(self) -> float:
        return max(self.K_O, self.K_I)


def radial_power_distortion(alpha, d, location=SUPREMUM) -> DistortionReport:
    """Closed-form distortion of the radial stretch r^alpha; an overflow raises ValueError."""
    a = _real(alpha, "alpha")
    d = _count(d, "dimension", 2)
    try:
        K_O, K_I = (a ** (d - 1), a) if a >= 1.0 else (1.0 / a, a ** (1 - d))
    except OverflowError:
        raise ValueError(f"distortion of alpha = {a} in dimension {d} overflows float64") from None
    return DistortionReport(K_O, K_I, d, location)


def pointwise_distortion(map_, d, x) -> DistortionReport:
    """Distortion of the radial extension of ``map_`` at the log2 radius x.

    Only the local branch exponent enters (the tangential stretch f(r)/r
    cancels against the radial one in the ratio), so this is the power-law
    closed form at ``map_.local_exponent(x)``.  Breakpoints raise
    :class:`~radialqc.powermap.NotDifferentiableError`.
    """
    return radial_power_distortion(map_.local_exponent(x), d, location=float(x))


def _linear_radial_eval(map_or_fn):
    if hasattr(map_or_fn, "eval_log"):
        return lambda r: float(np.exp2(map_or_fn.eval_log(float(np.log2(r)))))
    if callable(map_or_fn):
        return lambda r: float(map_or_fn(r))
    raise TypeError("need a radial map exposing eval_log, or a callable r -> f(r)")


def finite_difference_distortion(map_, d, x, step) -> DistortionReport:
    """Numerical distortion estimate from central differences on the linear scale.

    Forms the singular values (f'(r), f(r)/r x (d-1)) with f'(r) estimated by
    a symmetric difference of half-width ``step`` and assembles K_O = max^d / J
    and K_I = J / min^d from their definitions, in ratio form so that no power
    of a singular value underflows.  Serves as the independent oracle for the
    closed forms; steps that cross a breakpoint are rejected for maps that
    have them, and so is a difference quotient that is not positive (a step
    below the float resolution at r).  An overflow raises ``ValueError``.
    """
    d = _count(d, "dimension", 2)
    x = _float(x)
    if not (math.isfinite(x) and x <= 0.0):
        raise ValueError("x must be a finite log2 radius <= 0")
    step = _real(step, "step")
    r = 2.0**x
    if r - step <= 0.0:
        raise ValueError("step too large: r - step must stay positive")
    if hasattr(map_, "locate_interval"):
        if r + step > 1.0:
            raise ValueError("step too large: r + step leaves the unit interval")
        if map_.locate_interval(float(np.log2(r - step))) != map_.locate_interval(
            float(np.log2(r + step))
        ):
            raise ValueError("finite-difference step crosses a breakpoint")
    f = _linear_radial_eval(map_)
    f_r = f(r)
    radial = (f(r + step) - f(r - step)) / (2.0 * step)
    tangential = f_r / r
    hi, lo = max(radial, tangential), min(radial, tangential)
    if not lo > 0.0:
        raise ValueError("finite-difference derivative estimate is not positive: a step "
                         "below the float resolution at r, or a map that is not increasing")
    try:  # the radial singular value once, the tangential one d - 1 times
        K_O = (hi / radial) * (hi / tangential) ** (d - 1)
        K_I = (radial / lo) * (tangential / lo) ** (d - 1)
    except OverflowError:
        K_O = K_I = math.inf
    if max(K_O, K_I) == math.inf:
        raise ValueError(f"finite-difference distortion in dimension {d} overflows float64")
    return DistortionReport(K_O=K_O, K_I=K_I, dimension=d, location=x)


def max_distortion(map_, d) -> DistortionReport:
    """Essential supremum of the distortion of ``map_`` over the unit ball.

    Pointwise distortion depends only on the local exponent, so the supremum
    over radii collapses to a componentwise maximum over the finitely many
    branch exponents.
    """
    d = _count(d, "dimension", 2)
    return _supremum(map_.distinct_exponents(), d)


def _supremum(exponents, d) -> DistortionReport:
    """Componentwise max of the closed-form reports over branch exponents."""
    reports = [radial_power_distortion(a, d) for a in exponents]
    return DistortionReport(
        K_O=max(rep.K_O for rep in reports),
        K_I=max(rep.K_I for rep in reports),
        dimension=d,
        location=SUPREMUM,
    )


def iterate_max_distortion(h, d, m_max):
    """Max distortion of the iterates h^1 .. h^{m_max}.

    The local exponent of h^m on an interval is the product of h's exponents
    along the m-step orbit of that interval; since h advances intervals one
    index at a time and its exponents alternate between K^2 and 1/K^2, the
    product depends only on the signed count of odd/even indices crossed:
    0 after an even number of steps, +-1 after an odd one.  So even iterates
    are similarities (exponent 1, distortion 1) and odd iterates match h
    itself: two reports, alternating, bounded independent of m.
    """
    d = _count(d, "dimension", 2)
    m_max = _count(m_max, "m_max", 1)
    odd = _supremum(h.distinct_exponents(), d)
    even = _supremum([1.0], d)
    return [odd if m % 2 else even for m in range(1, m_max + 1)]


def linear_distortion_radial(map_, d=2):
    """Linear distortion H at the origin: limsup of max/min image-sphere radii.

    A radial map sends each sphere about the origin to a sphere, so H = 1
    identically; this samples |F(x)| over direction vectors at several radii
    and returns the worst max/min ratio, a consistency check of the radial
    representation rather than new information.
    """
    d = _count(d, "dimension", 2)
    f = _linear_radial_eval(map_)
    rng = np.random.default_rng(_H_SEED)
    worst = 1.0
    for lx in _H_LOG2_RADII:
        u = rng.normal(size=(_H_DIRECTIONS, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = (2.0**lx) * u
        radii = np.linalg.norm(pts, axis=1)
        if hasattr(map_, "eval_log"):  # one array evaluation per radius
            y = map_.eval_log(np.log2(radii))
            # an exact power-of-two rescale leaves the ratio unchanged and keeps
            # the squares inside the norm from underflowing (h at large K)
            image = np.exp2(y - np.floor(y.max()))
        else:  # a plain callable takes one radius at a time
            image = np.array([f(v) for v in radii])
        images = image[:, None] * (pts / radii[:, None])
        mags = np.linalg.norm(images, axis=1)
        worst = max(worst, float(mags.max() / mags.min()))
    return worst
