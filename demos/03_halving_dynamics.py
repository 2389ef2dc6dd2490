"""
Halving dynamics conjugated by the power map
============================================

h(r) = f^{-1}(f(r)/2) is conjugate to x -> x/2, so 0 attracts everything.
Two applications of h shift log2 r by exactly -(K + 1/K): the square of h is
a plain similarity, which is why all iterates of h share one distortion
bound.  Yet h still has two distinct zoom limits (Q1 and Q2) at 0.
"""

import numpy as np

from radialqc import (
    build_conjugated_map,
    build_standard_map,
    h_via_conjugacy,
    limit_function,
    zoom_limit_deviation,
)

f = build_standard_map(K=2.0)
h = build_conjugated_map(f)

# closed branch table vs the defining composition f^{-1}((.)/2 after f)
grid = np.linspace(-10.0, 0.0, 500)
gap = np.max(np.abs(h.eval_log(grid) - h_via_conjugacy(f, grid)))
print("closed form vs conjugacy definition:", gap)

# an orbit: log2 h^m(1) walks down by (K + 1/K)/2 per step on average
for m in (0, 1, 2, 3, 4, 10, 100, 1001):
    print(f"m={m:5d}:  log2 h^m(1) = {h.iterate(0.0, m):10.3f}")

# h forwards each breakpoint to the next one
n = np.arange(0, 9999)
fwd = np.max(np.abs(h.eval_log(f.breakpoint(n)) - f.breakpoint(n + 1)))
print("breakpoint forwarding error:", fwd)

# the zoom limits of h along even/odd breakpoint scales
q1 = limit_function(h, "Q1")
q2 = limit_function(h, "Q2")
g = grid[grid < 0.0]
print("h zooms, even scales vs Q1:", zoom_limit_deviation(h, "even", q1, range(1, 51), g))
print("h zooms, odd  scales vs Q2:", zoom_limit_deviation(h, "odd", q2, range(1, 51), g))
r1 = f.breakpoint(1)
print(f"Q1(r_1) = {2.0**q1.eval_log(r1):.6f} vs Q2(r_1) = {2.0**q2.eval_log(r1):.6f}")
