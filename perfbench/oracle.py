"""Exact-rational reference for the maps of radialqc, built apart from the library.

Every quantity is a ``fractions.Fraction`` over the exact binary value of the
float K, so the only error in a comparison is the library's.  The maps are
evaluated from their definitions:

  * breakpoints   log2 r_{2m} = -(m K + m/K),  log2 r_{2m-1} = -((m-1) K + m/K)
  * f             anchor identity on [r_n, r_{n-1}]:  log2 f(x) = -n + k_n (x - log2 r_n)
  * f^-1          by value interval: n = max(ceil(-y), 1), x = log2 r_n + (y + n) / k_n
  * h             f^-1(f(x) - 1)
  * P2, Q1, Q2    the rescaled families of f and h at the scales r_1 and r_2

This module imports nothing from radialqc.
"""

from __future__ import annotations

import math
from fractions import Fraction

NEG_INF = float("-inf")


class ExactMaps:
    """f, f^-1, h and the four zoom limits for one K, in exact log2 arithmetic."""

    def __init__(self, K):
        self.K = Fraction(float(K))
        self.P = self.K + 1 / self.K

    def breakpoint(self, n):
        if n % 2:
            m = (n + 1) // 2
            return -((m - 1) * self.K + m / self.K)
        m = n // 2
        return -(m * self.K + m / self.K)

    def exponent(self, n):
        return self.K if n % 2 else 1 / self.K

    def locate(self, x):
        """Smallest n >= 1 with log2 r_n <= x <= log2 r_{n-1}."""
        n = max(2 * math.floor(-x / self.P) - 1, 1)
        while n > 1 and x >= self.breakpoint(n - 1):
            n -= 1
        while self.breakpoint(n) > x:
            n += 1
        return n

    def f(self, x):
        n = self.locate(x)
        return -n + self.exponent(n) * (x - self.breakpoint(n))

    def f_inv(self, y):
        n = max(math.ceil(-y), 1)
        return self.breakpoint(n) + (y + n) / self.exponent(n)

    def h(self, x):
        return self.f_inv(self.f(x) - 1)

    def rescaled(self, g, t, x):
        return g(x + t) - g(t)

    def limit(self, kind, x):
        if kind == "P1":
            return self.f(x)
        g = self.f if kind[0] == "P" else self.h
        t = self.breakpoint(2 if kind[1] == "1" else 1)
        return self.rescaled(g, t, x)

    def evaluate(self, what, x, t=None, m=None):
        """Reference value for one float input; the -inf sentinel maps to itself."""
        if x == NEG_INF:
            return NEG_INF
        xq = Fraction(x)
        if what == "f":
            return self.f(xq)
        if what == "f_inv":
            return self.f_inv(xq)
        if what == "h":
            return self.h(xq)
        if what == "h_iterate":
            # h^m = h o (x - (m // 2) P) for odd m: the even part is a similarity.
            return self.h(xq - (m // 2) * self.P) if m % 2 else xq - (m // 2) * self.P
        if what in ("P1", "P2", "Q1", "Q2"):
            return self.limit(what, xq)
        if what == "rescaled_f":
            return self.rescaled(self.f, Fraction(t), xq)
        if what == "rescaled_h":
            return self.rescaled(self.h, Fraction(t), xq)
        raise ValueError(f"unknown reference map {what!r}")


def error_units(value, ref, scale):
    """|value - ref| in units of eps * scale (0 when both are the -inf sentinel)."""
    if ref == NEG_INF or value == NEG_INF:
        return 0.0 if value == ref else math.inf
    if not math.isfinite(value):
        return math.inf
    return float(abs(Fraction(value) - ref)) / (2.0**-52 * scale)
