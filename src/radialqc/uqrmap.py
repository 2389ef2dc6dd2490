"""Halving dynamics conjugated by a piecewise power map: a radial factor whose
iterates all share one distortion bound.

Conjugating x -> x/2 by the piecewise power homeomorphism f yields
h(r) = f^{-1}(f(r) / 2), an increasing self-map of [0, 1] with an attracting
fixed point at 0.  Because f sends breakpoints to successive halves, h
advances each breakpoint interval to the next one and is itself piecewise
power with exponents K^2 and 1/K^2:

    h(r) = 2^{(j-1) K^3 - j/K}       r^{K^2}    on [r_{2j-1}, r_{2j-2}]
    h(r) = 2^{j/K^3 - 1/K - j K}     r^{1/K^2}  on [r_{2j},   r_{2j-1}]

Two steps of h shift log2 r down by exactly K + 1/K (halving twice composes
with the even-breakpoint multiplicativity of f), so even iterates are
similarities with no distortion at all and odd iterates carry the same bound
as h itself: the iterate distortion never grows.  The d-dimensional map keeps
every spherical coordinate fixed and applies h radially, so only the radial
factor is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .powermap import (
    MAX_BREAKPOINT_INDEX,
    PiecewisePowerMap,
    _cell_lanes,
    _cell_spec,
    _eval_cells,
    _index_array,
    _local_exponent,
    _log_radii,
    _log_radius,
    _period,
)

__all__ = ["ConjugatedMap", "build_conjugated_map", "h_via_conjugacy"]


@dataclass(frozen=True)
class ConjugatedMap:
    """Radial factor h of the conjugated halving map, in closed branch form.

    Shares the breakpoint chain and K of its source map; immutable and pure like it.
    """

    source: PiecewisePowerMap

    @property
    def K(self) -> float:
        return self.source.K

    def breakpoint(self, n):
        return self.source.breakpoint(n)

    def locate_interval(self, x):
        return self.source.locate_interval(x)

    def eval_log(self, x):
        """log2 h(2^x) from h's row of ``powermap._cell_spec`` (its branches on
        [r_2, r_0], not f's inverse); a float or 0-d input gives a float."""
        return _eval_cells(x, _cell_spec("h", self.source.K))

    def iterate(self, x, m):
        """log2 h^m(2^x) for integer counts 0 <= m <= ``MAX_BREAKPOINT_INDEX``.

        Even iterate counts use the exact similarity
        log2 h^{2p}(x) = x - p (K + 1/K), so no branch-evaluation error
        accumulates over long orbits; an odd count applies h once more.  An
        integer array ``m`` broadcasts against ``x``: every entry gets the
        similarity, then one array evaluation of h is kept on the odd entries;
        an integer count takes no numpy call for a float ``x``.
        A shifted value below -2**52 raises ``ValueError`` for every count,
        as h's own check of it does for the odd ones.
        """
        m = _index_array(m, "iteration count", 0, MAX_BREAKPOINT_INDEX)
        y = _log_radius(x, "x") - (m >> 1) * _period(self.K)  # m >= 0: m // 2
        if isinstance(m, int):
            return self.eval_log(y) if m & 1 else _log_radius(y, "x")
        y, sentinel = _log_radii(y, "x")  # every lane: the even ones are returned as they are
        if (odd := (m & 1) == 1).any():  # h on every lane, kept on the odd ones: no second check
            np.copyto(y, _cell_lanes(y, sentinel, _cell_spec("h", self.K)), where=odd)
        return y

    def local_exponent(self, x):
        """Branch exponent (K^2 or 1/K^2) at x; breakpoints are rejected."""
        return _local_exponent(self.K, x, self.K * self.K)

    def distinct_exponents(self):
        return (self.K * self.K, 1.0 / (self.K * self.K))


def _base_of(map_):
    """The piecewise power map under a map argument: f itself, or h's checked
    ``.source``.  The one check of every map argument, by exact type:
    ``TypeError`` for anything else, a zoom limit included."""
    base = map_.source if type(map_) is ConjugatedMap else map_
    if type(base) is not PiecewisePowerMap:
        raise TypeError("map must be a PiecewisePowerMap or a ConjugatedMap")
    return base


def build_conjugated_map(f: PiecewisePowerMap) -> ConjugatedMap:
    """Closed-form radial factor h = f^{-1}((.)/2 after f) for a given f."""
    if type(f) is not PiecewisePowerMap:  # the exact type, as ``_base_of`` reads it
        raise TypeError("build_conjugated_map needs a PiecewisePowerMap")
    return ConjugatedMap(source=f)


def h_via_conjugacy(f: PiecewisePowerMap, x):
    """Second route for h: push through f, halve (a unit log2 shift), pull back.

    Uses only f's forward and inverse evaluators, which share the cell kernel
    with :class:`ConjugatedMap`: comparing the routes checks h's cell spec
    against those of f and f^{-1}, not separate code.
    """
    if _base_of(f) is not f:
        raise TypeError("h_via_conjugacy needs a PiecewisePowerMap, not a ConjugatedMap")
    y = f.eval_log(x)  # a fresh array or a float: halve in place
    y -= 1.0
    return f.inverse_eval_log(y)
