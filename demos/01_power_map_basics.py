"""
Building and evaluating a piecewise power-law radial map
========================================================

The map f glues power laws C_n r^{k_n} together on shrinking intervals
[r_n, r_{n-1}] so that f(r_n) = 2^-n, with exponents alternating between
K and 1/K.  Everything lives in log2 coordinates, where each piece is a
straight line.
"""

import numpy as np

from radialqc import build_standard_map

f = build_standard_map(K=2.0)

# the first few breakpoints and their images: r_n is sent to 2^-n
for n in range(6):
    lr = f.breakpoint(n)
    print(f"n={n}:  log2 r_n = {lr:8.3f}   log2 f(r_n) = {f.eval_log(lr):8.3f}")

# a few linear-scale values, while the radii are still representable
for r in (1.0, 0.8, 0.5, 0.15):
    print(f"f({r}) = {f.eval(r):.6f}")

# deep zoom: the breakpoint r_2000 is around 1e-1505, far below the smallest
# positive double, but in log2 space nothing special happens
x = f.breakpoint(2000)
print(f"log2 r_2000 = {x}, log2 f(r_2000) = {f.eval_log(x)}")

# the inverse works at the same depth: round-trip error in log2
grid = np.linspace(-5000.0, 0.0, 7)
roundtrip = np.max(np.abs(f.inverse_eval_log(f.eval_log(grid)) - grid))
print("worst inverse round-trip error over a deep grid:", roundtrip)
