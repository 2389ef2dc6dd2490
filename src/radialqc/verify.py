"""Verification suite: every structural identity of the package measured as a
worst-case residual and compared against a tolerance.

Residual-style checks (agreement of two computation routes, continuity,
functional identities) pass when the measured value is <= the configured
tolerance; witness-style checks (limit distinctness, homogeneity defects,
strict monotonicity margins) pass when the measured value is >= a threshold.
``run_verification`` returns a plain dict so the CLI can emit it as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distortion import (
    finite_difference_distortion,
    iterate_max_distortion,
    linear_distortion_radial,
    max_distortion,
    radial_power_distortion,
)
from .powermap import breakpoint_log2, build_standard_map
from .uqrmap import build_conjugated_map, h_via_conjugacy
from .zoom import (
    EVEN_BREAKPOINTS,
    ODD_BREAKPOINTS,
    example_1d_mean_radius,
    example_1d_rescaled,
    homogeneity_defect,
    ivt_sample,
    limit_function,
    rescaled_eval,
    scale_at,
    zoom_limit_deviation,
)

__all__ = [
    "SCHEMA_VERSION",
    "Check",
    "run_verification",
    "recurrence_vs_closed_worst",
    "anchor_identity_worst",
    "continuity_worst",
    "product_identities_worst",
    "breakpoint_image_worst",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    threshold: float
    comparison: str  # "<=" for residuals, ">=" for witnesses

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.measured <= self.threshold
        return self.measured >= self.threshold

    def as_dict(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "passed": self.passed,
        }


def recurrence_vs_closed_worst(K, depth):
    """Worst |closed-form - recurrence| log2 breakpoint over n <= depth.

    The recurrence log2 r_n = log2 r_{n-1} - 1/k_n accumulated from r_0 = 1 is
    the independent route against the parity-split closed form.  It runs as a
    compensated (Neumaier) sum: a plain float64 running sum gathers roundoff
    with every step (1.2e-9 by n = 10^4 at K = 3), which is the
    accumulation's error, not the closed form's.
    """
    n = np.arange(1, depth + 1)
    k_n = np.where(n % 2 == 1, K, 1.0 / K)
    recurrence = np.empty(depth)
    total = comp = 0.0
    for i, step in enumerate((-1.0 / k_n).tolist()):
        t = total + step
        if abs(total) >= abs(step):
            comp += (total - t) + step
        else:
            comp += (step - t) + total
        total = t
        recurrence[i] = total + comp
    return float(np.max(np.abs(breakpoint_log2(K, n) - recurrence)))


def anchor_identity_worst(K, f, depth):
    """Worst |log2 C_n + n + k_n log2 r_n| over n <= depth."""
    n = np.arange(1, depth + 1)
    lr = breakpoint_log2(K, n)
    k_n = np.where(n % 2 == 1, K, 1.0 / K)
    log2_C = f.log2_C[1 : depth + 1]
    return float(np.max(np.abs(log2_C + n + k_n * lr)))


def continuity_worst(K, f, depth):
    """Worst branch mismatch at the breakpoints: interval n vs n+1 formulas."""
    n = np.arange(1, depth)
    lr = breakpoint_log2(K, n)
    k_n = np.where(n % 2 == 1, K, 1.0 / K)
    k_next = np.where((n + 1) % 2 == 1, K, 1.0 / K)
    left = f.log2_C[1:depth] + k_n * lr
    right = f.log2_C[2 : depth + 1] + k_next * lr
    return float(np.max(np.abs(left - right)))


def product_identities_worst(K, depth):
    """Worst residuals of the two breakpoint product identities over all index
    pairs that stay within ``depth``:

        log2 r_{2n} + log2 r_m       = log2 r_{2n+m}
        log2 r_{2n+1} + log2 r_{2m+1} = log2 r_{2(n+m)+1} - 1/K
    """
    lr = breakpoint_log2(K, np.arange(depth + 1))
    buf = np.empty(depth + 1)
    worst_even = 0.0
    for n in range(1, depth // 2 + 1):
        # row n, m = 0 .. depth - 2n: lr[2n] + lr[m] - lr[2n + m]
        size = depth - 2 * n + 1
        res = np.add(lr[2 * n], lr[:size], out=buf[:size])
        np.subtract(res, lr[2 * n : 2 * n + size], out=res)
        worst_even = max(worst_even, float(res.max()), -float(res.min()))
    worst_odd = 0.0
    shift = 1.0 / K
    odd = np.ascontiguousarray(lr[1::2])  # odd[j] = log2 r_{2j+1}
    top = (depth - 1) // 2
    for n in range(0, top + 1):
        size = top - n + 1
        res = np.add(odd[n], odd[:size], out=buf[:size])
        np.subtract(res, odd[n : n + size], out=res)
        np.add(res, shift, out=res)
        worst_odd = max(worst_odd, float(res.max()), -float(res.min()))
    return worst_even, worst_odd


def breakpoint_image_worst(f, depth):
    """Worst |log2 f(r_n) + n| over n <= depth (breakpoints map to halves)."""
    n = np.arange(0, depth + 1)
    return float(np.max(np.abs(f.eval_log(f.breakpoint(n)) + n)))


def run_verification(K=2.0, dimension=2, depth=10_000, grid_points=1000, tol=1e-9):
    """Run every invariant check and return a machine-readable report dict."""
    f = build_standard_map(K, depth)
    h = build_conjugated_map(f)
    period = K + 1.0 / K
    grid = np.linspace(-3.0 * period, 0.0, grid_points)
    grid_interior = grid[grid < 0.0]
    n_zoom = range(1, 51)
    checks: list[Check] = []

    def residual(name, measured, threshold=None):
        checks.append(Check(name, float(measured), tol if threshold is None else threshold, "<="))

    def witness(name, measured, threshold):
        checks.append(Check(name, float(measured), threshold, ">="))

    # --- construction identities -------------------------------------------
    residual("breakpoints_closed_form_vs_recurrence", recurrence_vs_closed_worst(K, depth))
    residual("coefficient_anchor_identity", anchor_identity_worst(K, f, depth))
    residual("branch_continuity_at_breakpoints", continuity_worst(K, f, depth))
    even_res, odd_res = product_identities_worst(K, depth)
    residual("breakpoint_product_identity_even", even_res)
    residual("breakpoint_product_identity_odd_shifted", odd_res)
    steps = -np.diff(f.log2_r)
    witness("breakpoint_strict_decrease_margin", float(steps.min()), tol)
    residual("breakpoint_image_is_halving", breakpoint_image_worst(f, depth))

    # --- forward/inverse evaluation ----------------------------------------
    shifts = np.arange(1, 26)
    mult = max(
        float(np.max(np.abs(f.eval_log(grid + f.breakpoint(2 * j)) - f.eval_log(grid) + 2 * j)))
        for j in shifts
    )
    residual("even_scale_multiplicativity", mult)
    values = f.eval_log(grid)
    witness("eval_strictly_increasing_margin", float(np.diff(values).min()), tol)
    residual("inverse_roundtrip", float(np.max(np.abs(f.inverse_eval_log(values) - grid))))
    residual(
        "mean_radius_equals_forward_eval",
        float(np.max(np.abs(f.mean_radius_radial(grid) - values))),
    )
    # linear scan: the first n >= 1 with r_n <= x <= r_{n-1}, over enough
    # breakpoints to cover the grid
    scan_grid = np.linspace(-3.0 * period, 0.0, 301)
    n_scan = 8
    while f.breakpoint(n_scan) > scan_grid[0]:
        n_scan *= 2
    bps = f.breakpoint(np.arange(0, n_scan + 1))
    x_col = scan_grid[:, None]
    inside = (bps[1:] <= x_col) & (x_col <= bps[:-1])
    scan_index = np.argmax(inside, axis=1) + 1
    scan_mismatches = np.count_nonzero(f.locate_interval(scan_grid) != scan_index)
    residual("locate_matches_linear_scan", float(scan_mismatches), 0.0)

    # --- zoom limits ---------------------------------------------------------
    p1 = limit_function(f, "P1")
    p2 = limit_function(f, "P2")
    q1 = limit_function(h, "Q1")
    q2 = limit_function(h, "Q2")
    residual(
        "zoom_even_scales_match_p1",
        zoom_limit_deviation(f, EVEN_BREAKPOINTS, p1, n_zoom, grid_interior),
    )
    residual(
        "zoom_odd_scales_match_p2",
        zoom_limit_deviation(f, ODD_BREAKPOINTS, p2, n_zoom, grid_interior),
    )
    residual(
        "zoom_h_even_scales_match_q1",
        zoom_limit_deviation(h, EVEN_BREAKPOINTS, q1, n_zoom, grid_interior),
    )
    residual(
        "zoom_h_odd_scales_match_q2",
        zoom_limit_deviation(h, ODD_BREAKPOINTS, q2, n_zoom, grid_interior),
    )
    residual(
        "limit_p1_coincides_with_map",
        float(np.max(np.abs(p1.eval_log(grid) - f.eval_log(grid)))),
    )
    residual(
        "limits_fix_unit_radius",
        max(abs(lf.eval_log(0.0)) for lf in (p1, p2, q1, q2)),
    )
    bp_even = f.breakpoint(2 * np.arange(1, 26))
    residual(
        "q1_fixes_even_breakpoints",
        float(np.max(np.abs(q1.eval_log(bp_even) - bp_even))),
    )
    bp_all = f.breakpoint(np.arange(0, 51))
    residual(
        "p1_breakpoint_values",
        float(np.max(np.abs(p1.eval_log(bp_all) + np.arange(0, 51)))),
    )
    # adjacent branch formulas of the shifted-breakpoint limits agree
    ms = np.arange(0, 26)
    s_m = -((ms + 1) * K + ms / K)
    lr_lo = breakpoint_log2(K, 2 * ms + 2)
    lr_hi = breakpoint_log2(K, 2 * ms)
    p2_low = -(2 * ms + 2) - K * lr_lo + K * s_m
    p2_high = -(2 * ms) - lr_hi / K + s_m / K
    q2_low = (1.0 - K * K) * lr_lo + (K * K) * s_m
    q2_high = (1.0 - 1.0 / (K * K)) * lr_hi + s_m / (K * K)
    residual(
        "shifted_breakpoint_branch_continuity",
        max(float(np.max(np.abs(p2_low - p2_high))), float(np.max(np.abs(q2_low - q2_high)))),
    )
    gap = abs(p2.eval_log(f.breakpoint(1)) - p1.eval_log(f.breakpoint(1)))
    residual("limit_gap_matches_closed_form", abs(gap - (1.0 - 1.0 / (K * K))))
    witness("limit_distinctness_gap", gap, tol)
    t_fixed = scale_at(f, ODD_BREAKPOINTS, 3)
    witness(
        "rescaled_monotone_in_radius_margin",
        float(np.diff(rescaled_eval(f, t_fixed, grid)).min()),
        tol,
    )

    # --- conjugated dynamics -------------------------------------------------
    conj_grid = np.linspace(f.breakpoint(20), 0.0, grid_points)
    h_closed = h.eval_log(conj_grid)
    residual(
        "conjugacy_functional_identity",
        float(np.max(np.abs(f.eval_log(h_closed) - (f.eval_log(conj_grid) - 1.0)))),
    )
    residual(
        "h_closed_form_vs_conjugacy_oracle",
        float(np.max(np.abs(h_closed - h_via_conjugacy(f, conj_grid)))),
    )
    n_fwd = np.arange(0, depth)
    residual(
        "h_forwards_breakpoints",
        float(np.max(np.abs(h.eval_log(f.breakpoint(n_fwd)) - f.breakpoint(n_fwd + 1)))),
    )
    residual(
        "second_iterate_exact_similarity",
        float(np.max(np.abs(h.eval_log(h_closed) - conj_grid + period))),
    )
    rate = (conj_grid - h.iterate(conj_grid, 1000)) / 1000.0
    residual("attraction_rate_per_step", float(np.max(np.abs(rate - period / 2.0))), 1e-6)
    witness(
        "h_strictly_below_identity_margin",
        float(np.min(conj_grid[conj_grid < 0.0] - h_closed[conj_grid < 0.0])),
        tol,
    )

    # --- distortion ----------------------------------------------------------
    rng = np.random.default_rng(20_240_901)
    fd_worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
        for d in (2, 3, 4):
            closed = radial_power_distortion(alpha, d)
            for x in rng.uniform(-6.0, -0.05, size=20):
                est = finite_difference_distortion(
                    lambda r, a=alpha: r**a, d, float(x), 1e-6 * 2.0**x
                )
                fd_worst = max(
                    fd_worst,
                    abs(est.K_O - closed.K_O) / closed.K_O,
                    abs(est.K_I - closed.K_I) / closed.K_I,
                )
    residual("power_distortion_closed_form_vs_finite_difference", fd_worst, 1e-6)
    sup_worst = 0.0
    for d in (2, 3, 4):
        sup_worst = max(
            sup_worst,
            abs(max_distortion(f, d).K_max - K ** (d - 1)) / K ** (d - 1),
            abs(max_distortion(h, d).K_max - K ** (2 * (d - 1))) / K ** (2 * (d - 1)),
        )
    residual("max_distortion_matches_closed_form", sup_worst, 1e-12)
    iter_worst = 0.0
    for d in (2, 3):
        bound = K ** (2 * (d - 1))
        for m, rep in enumerate(iterate_max_distortion(h, d, 40), start=1):
            expected = 1.0 if m % 2 == 0 else bound
            iter_worst = max(iter_worst, abs(rep.K_max - expected))
    residual("iterate_distortion_uniformly_bounded", iter_worst, 1e-12)
    dual_worst = 0.0
    low_bound = 0.0
    for alpha in (0.3, 0.5, 2.0, 3.7, K, 1.0 / K):
        for d in (2, 3, 4):
            rep = radial_power_distortion(alpha, d)
            inv = radial_power_distortion(1.0 / alpha, d)
            dual_worst = max(
                dual_worst,
                abs(rep.K_O - inv.K_I) / rep.K_O,
                abs(rep.K_I - inv.K_O) / rep.K_I,
            )
            low_bound = max(low_bound, 1.0 - rep.K_O, 1.0 - rep.K_I)
    residual("distortion_duality_under_inversion", dual_worst)
    residual("distortion_reports_at_least_one", low_bound, 1e-12)
    residual(
        "linear_distortion_is_unity",
        max(
            abs(linear_distortion_radial(f, d=dimension) - 1.0),
            abs(linear_distortion_radial(h, d=dimension) - 1.0),
        ),
    )

    # --- intermediate scales and homogeneity ---------------------------------
    ivt_r0 = []
    ivt_lam = []
    attempts = 0
    p1_f = limit_function(f, "P1")
    p2_f = limit_function(f, "P2")
    while len(ivt_r0) < 100 and attempts < 10_000:
        attempts += 1
        r0 = float(rng.uniform(-3.0 * period, -0.05))
        a = p1_f.eval_log(r0)
        b = p2_f.eval_log(r0)
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 0.05:
            continue
        ivt_r0.append(r0)
        ivt_lam.append(float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))
    ivt_r0 = np.array(ivt_r0, dtype=float)
    ivt_lam = np.array(ivt_lam, dtype=float)
    t = ivt_sample(f, ivt_r0, ivt_lam, tol)
    residual(
        "ivt_sample_residuals",
        np.max(np.abs(rescaled_eval(f, t, ivt_r0) - ivt_lam), initial=0.0),
    )
    r0 = f.breakpoint(1)
    lam = 0.5 * (p1_f.eval_log(r0) + p2_f.eval_log(r0))
    scales = [ivt_sample(f, r0, lam, tol, period_index=j) for j in range(1, 11)]
    witness(
        "ivt_scales_strictly_decreasing_margin",
        float(np.diff(scales).max() * -1.0),
        tol,
    )
    samples = [0.0, f.breakpoint(1), f.breakpoint(2)]
    residual(
        "homogeneity_defect_of_pure_power",
        homogeneity_defect(lambda v: K * v, samples),
        1e-12,
    )
    witness("homogeneity_defect_p1", homogeneity_defect(p1_f, samples), tol)
    witness("homogeneity_defect_q1", homogeneity_defect(q1, samples), tol)

    # --- one-dimensional pedagogical model -----------------------------------
    ex_worst = 0.0
    for delta in (1.0, 0.5, 1e-3, 1e-9):
        ex_worst = max(
            ex_worst,
            abs(example_1d_mean_radius(delta) - 0.75 * delta) / delta,
            abs(example_1d_rescaled(1.0, delta) - 4.0 / 3.0),
            abs(example_1d_rescaled(-1.0, delta) + 2.0 / 3.0),
            abs(example_1d_rescaled(0.0, delta)),
        )
    residual("one_dimensional_model_identities", ex_worst, 1e-12)

    results = [c.as_dict() for c in checks]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "K": K,
            "dimension": dimension,
            "depth": depth,
            "grid_points": grid_points,
            "tol": tol,
        },
        "checks": results,
        "passed": sum(1 for c in results if c["passed"]),
        "failed": sum(1 for c in results if not c["passed"]),
        "all_passed": all(c["passed"] for c in results),
    }
