"""
Uncountably many zoom limits: hitting any value in between
==========================================================

At a fixed radius r0 the two closed-form limits bracket a whole interval of
achievable zoom values.  Between the two breakpoint scales, g_t(r0) is
non-decreasing in log2 t, and as a function of r0 + log2 t it is a
log-periodic cell map (flat on one piece of each cell, increasing on the
other) up to a known affine term.  Inverting that cell map is one closed-form
evaluation, which gives, for any target in the bracket, a scale realizing it
-- and one such scale per breakpoint period, each one period K + 1/K below
the last, giving a decreasing scale sequence for every target value.  Each
target is therefore its own subsequential limit.  ``period_index`` takes an
integer array, so the whole scale sequence comes from one call.
"""

import numpy as np

from radialqc import (
    build_standard_map,
    ivt_sample,
    limit_function,
    rescaled_eval,
)

f = build_standard_map(K=2.0)
r0 = f.breakpoint(1)

p1 = limit_function(f, "P1").eval_log(r0)
p2 = limit_function(f, "P2").eval_log(r0)
print(f"achievable bracket at r_1: [{2.0**p1:.4f}, {2.0**p2:.4f}]")

# pick a few targets strictly inside and find scales realizing them
for target in (0.55, 0.67, 0.80):
    lam = np.log2(target)
    t = ivt_sample(f, r0, lam, tol=1e-9)
    achieved = rescaled_eval(f, t, r0)
    print(f"target {target}: scale log2 t = {t:.6f}, achieved {2.0**achieved:.9f}")

# the same target at deeper and deeper periods: strictly decreasing scales
lam = np.log2(0.67)
scales = ivt_sample(f, r0, lam, 1e-9, period_index=np.array([1, 2, 3, 5, 8, 13]))
print("scales for target 0.67 at increasing periods:")
for t in scales:
    print(f"  log2 t = {t:12.6f}   residual = "
          f"{abs(rescaled_eval(f, t, r0) - lam):.2e}")
