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
import operator
from dataclasses import dataclass

import numpy as np

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


def _check_dimension(d) -> int:
    try:
        d = operator.index(d)
    except TypeError:
        raise TypeError("dimension must be an integer >= 2") from None
    if d < 2:
        raise ValueError("dimension must be an integer >= 2")
    return d


def radial_power_distortion(alpha, d, location=SUPREMUM) -> DistortionReport:
    """Closed-form distortion of the radial stretch with exponent ``alpha``."""
    a = float(alpha)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError("alpha must be a positive real")
    d = _check_dimension(d)
    if a >= 1.0:
        return DistortionReport(K_O=a ** (d - 1), K_I=a, dimension=d, location=location)
    return DistortionReport(K_O=1.0 / a, K_I=a ** (1 - d), dimension=d, location=location)


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
    a symmetric difference of half-width ``step`` and assembles K_O and K_I
    from their definitions.  Serves as the independent oracle for the closed
    forms; steps that cross a breakpoint are rejected for maps that have them.
    """
    d = _check_dimension(d)
    x = float(x)
    step = float(step)
    if not (math.isfinite(x) and x <= 0.0):
        raise ValueError("x must be a finite log2 radius <= 0")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be a positive real")
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
    sigma = np.array([radial] + [tangential] * (d - 1))
    jac = float(np.prod(sigma))
    hi = float(sigma.max())
    lo = float(sigma.min())
    return DistortionReport(K_O=hi**d / jac, K_I=jac / lo**d, dimension=d, location=x)


def max_distortion(map_, d) -> DistortionReport:
    """Essential supremum of the distortion of ``map_`` over the unit ball.

    Pointwise distortion depends only on the local exponent, so the supremum
    over radii collapses to a componentwise maximum over the finitely many
    branch exponents.
    """
    d = _check_dimension(d)
    reports = [radial_power_distortion(a, d) for a in map_.distinct_exponents()]
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
    product depends only on the signed count of odd/even indices crossed.
    Even iterates are similarities (exponent 1, distortion 1); odd iterates
    match h itself, so the sequence is bounded independent of m.
    """
    d = _check_dimension(d)
    m_max = operator.index(m_max)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out = []
    # signed odd-minus-even index counts along the orbits of an odd-index
    # interval (n0 = 1) and an even-index one (n0 = 2), kept as running sums
    net_odd = net_even = 0
    for m in range(1, m_max + 1):
        # the m-th interval has index m on the first orbit, m + 1 on the second
        step = 1 if m % 2 == 1 else -1
        net_odd += step
        net_even -= step
        exps = {h.K ** (2 * net_odd), h.K ** (2 * net_even)}
        reports = [radial_power_distortion(a, d) for a in sorted(exps)]
        out.append(
            DistortionReport(
                K_O=max(rep.K_O for rep in reports),
                K_I=max(rep.K_I for rep in reports),
                dimension=d,
                location=SUPREMUM,
            )
        )
    return out


def linear_distortion_radial(
    map_, x0_at_origin=True, d=2, log2_radii=(-4.0, -2.0, -1.0, -0.5, -0.25),
    num_directions=64, seed=7,
):
    """Linear distortion H at the origin: limsup of max/min image-sphere radii.

    A radial map sends each sphere about the origin to a sphere, so H = 1
    identically; this samples |F(x)| over direction vectors at several radii
    and returns the worst max/min ratio, a consistency check of the radial
    representation rather than new information.
    """
    if not x0_at_origin:
        raise ValueError("only origin-centered radial maps are supported")
    d = _check_dimension(d)
    f = _linear_radial_eval(map_)
    rng = np.random.default_rng(seed)
    worst = 1.0
    for lx in log2_radii:
        u = rng.normal(size=(int(num_directions), d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = (2.0**lx) * u
        radii = np.linalg.norm(pts, axis=1)
        if hasattr(map_, "eval_log"):  # one array evaluation per radius
            image = np.exp2(map_.eval_log(np.log2(radii)))
        else:  # a plain callable takes one radius at a time
            image = np.array([f(v) for v in radii])
        images = image[:, None] * (pts / radii[:, None])
        mags = np.linalg.norm(images, axis=1)
        worst = max(worst, float(mags.max() / mags.min()))
    return worst
