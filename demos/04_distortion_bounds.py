"""
Distortion of the radial extensions
===================================

In dimension d, the radial extension of a power law r^alpha has closed-form
outer/inner distortion; a piecewise power map takes the worst over its two
branch exponents.  For f that gives exactly K^{d-1}; for h, K^{2(d-1)} -- and
the iterates of h never exceed it, which is the uniform bound in action.
"""

import numpy as np

from radialqc import (
    build_conjugated_map,
    build_standard_map,
    finite_difference_distortion,
    iterate_max_distortion,
    max_distortion,
    pointwise_distortion,
    radial_power_distortion,
)

f = build_standard_map(K=2.0)
h = build_conjugated_map(f)

# pure powers, closed form vs a central-difference estimate
for alpha in (0.5, 2.0, 3.7):
    closed = radial_power_distortion(alpha, d=3)
    est = finite_difference_distortion(lambda r, a=alpha: r**a, 3, -1.5, 1e-6 * 2.0**-1.5)
    print(f"alpha={alpha}: closed (K_O, K_I) = ({closed.K_O:.6f}, {closed.K_I:.6f}),"
          f" finite-diff = ({est.K_O:.6f}, {est.K_I:.6f})")

# pointwise on f: the local exponent alternates, the supremum is K^{d-1}
for x in (np.log2(0.8), -1.0):
    rep = pointwise_distortion(f, 3, x)
    print(f"f at log2 r = {x:.3f}: K_O = {rep.K_O}, K_I = {rep.K_I}")
print("sup distortion of f, d=3:", max_distortion(f, 3).K_max)
print("sup distortion of h, d=3:", max_distortion(h, 3).K_max)

# iterates of h: distortion alternates K^{2(d-1)}, 1, ... and never grows
ks = [rep.K_max for rep in iterate_max_distortion(h, 2, 12)]
print("K_max of h^m, m = 1..12:", ks)
