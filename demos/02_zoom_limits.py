"""
Zooming in at the origin: two different limits from one map
===========================================================

Rescale f at scale t: g_t(r) = f(r t) / f(t).  Along even-indexed breakpoint
scales t = r_{2n} the family equals the closed-form limit P1 (which is f
itself); along odd-indexed scales it equals a different limit P2.  The zoom
therefore never settles on a single shape: f is not "simple" at 0.
"""

import numpy as np

from radialqc import (
    build_standard_map,
    limit_function,
    rescaled_eval,
    scale_at,
    zoom_limit_deviation,
)

f = build_standard_map(K=2.0)
p1 = limit_function(f, "P1")
p2 = limit_function(f, "P2")

grid = np.linspace(-7.5, -0.001, 800)

# the rescaled family is *exactly* scale-index independent: deviations are roundoff
print("even scales vs P1:", zoom_limit_deviation(f, "even", p1, range(1, 51), grid))
print("odd  scales vs P2:", zoom_limit_deviation(f, "odd", p2, range(1, 51), grid))

# and the two limits genuinely differ: compare them at the first breakpoint
r1 = f.breakpoint(1)
v1 = rescaled_eval(f, scale_at(f, "even", 10), r1)
v2 = rescaled_eval(f, scale_at(f, "odd", 10), r1)
print(f"zoom value at r_1, even scales: {2.0**v1:.6f}  (P1(r_1) = 1/2)")
print(f"zoom value at r_1, odd  scales: {2.0**v2:.6f}  (P2(r_1) = 2^-1/4)")
print(f"gap in value: {abs(2.0**v2 - 2.0**v1):.4f}, gap in log2: {abs(v2 - v1):.4f}")

# cross-pairing shows the distinctness as a large deviation
print("even scales vs P2 (mismatched):",
      zoom_limit_deviation(f, "even", p2, range(1, 11), grid))
