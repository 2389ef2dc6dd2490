"""Distortion of radial maps in dimension d >= 2.

A radial stretch F(x) = x |x|^{alpha - 1} has derivative singular values
alpha t^{alpha-1} (radial direction) and t^{alpha-1} (each of the d-1
tangential directions) at radius t, hence Jacobian alpha t^{d(alpha-1)} and

    alpha >= 1:  K_O = |F'|^d / J = alpha^{d-1},     K_I = J / min^d = alpha
    alpha <  1:  K_O = 1 / alpha,                    K_I = alpha^{1-d}

independent of t.  A piecewise power map inherits these formulas branchwise
from its local exponent, so its essential-sup distortion is a maximum over
finitely many exponents (the breakpoint spheres are a removable null set).
A central-difference oracle recomputes the same quantities numerically.  The
linear distortion H at the origin is 1 in closed form: a radial map sends
each sphere about 0 onto a sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .powermap import _count, _floats, _real, _to_linear, _to_log2
from .uqrmap import ConjugatedMap, _base_of

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


def radial_power_distortion(alpha, d, location=SUPREMUM) -> DistortionReport:
    """Closed-form distortion of the radial stretch r^alpha; an overflow raises ValueError."""
    a = _real(alpha, "alpha")
    d = _count(d, "dimension", 2)
    try:  # at alpha = 1 both are 1 in every dimension, also one beyond the float range
        K_O, K_I = (a ** (d - 1) if a > 1.0 else 1.0, a) if a >= 1.0 else (1.0 / a, a ** (1 - d))
    except OverflowError:
        d = d if d < 2**64 else f">= 2**{d.bit_length() - 1}"  # not all the digits of a huge d
        raise ValueError(f"distortion of alpha = {a} in dimension {d} overflows float64") from None
    return DistortionReport(K_O, K_I, d, location)


def pointwise_distortion(map_, d, x) -> DistortionReport:
    """Distortion of the radial extension of ``map_`` at the log2 radius x.

    Only the local branch exponent enters (the tangential stretch f(r)/r
    cancels against the radial one in the ratio), so this is the power-law
    closed form at ``map_.local_exponent(x)``.  Breakpoints raise
    :class:`~radialqc.powermap.NotDifferentiableError`.
    """
    _base_of(map_)
    return radial_power_distortion(map_.local_exponent(x), d, location=_floats(x, "x"))


def _linear_radial_eval(map_or_fn):
    if hasattr(map_or_fn, "eval_log"):
        return lambda r: _to_linear(map_or_fn.eval_log(_to_log2(r, "r")))
    if callable(map_or_fn):
        return lambda r: float(map_or_fn(r))
    raise TypeError("need a radial map exposing eval_log, or a callable r -> f(r)")


def finite_difference_distortion(map_, d, x, step) -> DistortionReport:
    """Numerical distortion estimate from central differences on the linear scale.

    Forms the singular values (f'(r), f(r)/r x (d-1)) with f'(r) estimated by
    a symmetric difference of half-width ``step`` and assembles K_O = max^d / J
    and K_I = J / min^d from their definitions, in ratio form so that no power
    of a singular value underflows.  Serves as the independent oracle for the
    closed forms.  ``map_`` is f, h (a zoom limit raises ``TypeError``) or a
    plain callable r -> f(r).  Steps that cross a breakpoint of f or h are
    rejected, and so is a difference quotient that is not positive (a step
    below the float resolution at r).  An overflow raises ``ValueError``.
    The inputs are checked here and the estimate is ``_finite_difference``'s,
    which verify calls directly on its own fixed radii.
    """
    d = _count(d, "dimension", 2)
    x = _floats(x, "x")
    if not (isinstance(x, float) and math.isfinite(x) and x <= 0.0):
        raise ValueError("x must be a finite log2 radius <= 0")
    step = _real(step, "step")
    r = _to_linear(x)
    if r - step <= 0.0:
        raise ValueError("step too large: r - step must stay positive")
    if hasattr(map_, "eval_log"):
        _base_of(map_)
        if r + step > 1.0:
            raise ValueError("step too large: r + step leaves the unit interval")
        log2_lo, log2_hi = _to_log2(r - step, "r"), _to_log2(r + step, "r")
        if map_.locate_interval(log2_lo) != map_.locate_interval(log2_hi):
            raise ValueError("finite-difference step crosses a breakpoint")
    return DistortionReport(*_finite_difference(_linear_radial_eval(map_), d, r, step), d, x)


def _finite_difference(f, d, r, step):
    """(K_O, K_I) of ``finite_difference_distortion`` for f: r -> f(r), a float, at the
    radius r (not its log2) on checked inputs: the formula and its two errors, no report."""
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
    return K_O, K_I


def max_distortion(map_, d) -> DistortionReport:
    """Essential supremum of the distortion of ``map_`` over the unit ball.

    Pointwise distortion depends only on the local exponent, so the supremum
    over radii collapses to a componentwise maximum over the finitely many
    branch exponents.
    """
    _base_of(map_)
    d = _count(d, "dimension", 2)
    return _supremum(map_.distinct_exponents(), d)


def _supremum(exponents, d) -> DistortionReport:
    """Componentwise max of the closed-form reports over branch exponents."""
    reports = [radial_power_distortion(a, d) for a in exponents]
    return DistortionReport(max(rep.K_O for rep in reports), max(rep.K_I for rep in reports), d)


def iterate_max_distortion(h, d, m_max):
    """Max distortion of the iterates h^1 .. h^{m_max}.

    The local exponent of h^m on an interval is the product of h's exponents
    along the m-step orbit of that interval; since h advances intervals one
    index at a time and its exponents alternate between K^2 and 1/K^2, the
    product depends only on the signed count of odd/even indices crossed:
    0 after an even number of steps, +-1 after an odd one.  So even iterates
    are similarities (exponent 1, distortion 1) and odd iterates match h
    itself: two reports, alternating, bounded independent of m.  ``h`` must
    be a ``ConjugatedMap``: the iterates of f are no similarities.
    """
    _base_of(h, ConjugatedMap)
    d = _count(d, "dimension", 2)
    m_max = _count(m_max, "m_max", 1, 2**20)  # before the list of one report per iterate
    odd = _supremum(h.distinct_exponents(), d)
    even = _supremum([1.0], d)
    return [odd if m % 2 else even for m in range(1, m_max + 1)]


def linear_distortion_radial(map_, d=2):
    """Linear distortion H at the origin: limsup of max/min image-sphere radii.

    A radial map sends each sphere about the origin to a sphere, so H = 1
    identically: returned once d and ``map_`` (f, h, a zoom limit or a plain
    callable r -> f(r), never evaluated) are checked.
    """
    _count(d, "dimension", 2)
    _linear_radial_eval(map_)
    return 1.0
