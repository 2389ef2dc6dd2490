"""Verification suite: every structural identity of the package measured as a
worst-case residual and compared against a tolerance.

Residual-style checks (agreement of two computation routes, continuity,
functional identities) pass when the measured value is <= the configured
tolerance; witness-style checks (limit distinctness, homogeneity defects,
strict monotonicity margins) pass when the measured value is >= a threshold.
``run_verification`` returns a plain dict so the CLI can emit it as JSON.
"""

from __future__ import annotations

import numpy as np

from .distortion import (
    _MAX_DIMENSION,
    _finite_difference,
    _weyl,
    iterate_max_distortion,
    linear_distortion_radial,
    max_distortion,
    radial_power_distortion,
)
from .powermap import (
    GUARD_DEPTH,
    PiecewisePowerMap,
    _BLOCK,
    _blocked_max,
    _count,
    _distinct_breakpoints_log2,
    _parameter,
    _period,
    _real,
    breakpoint_log2,
    build_standard_map,
)
from .uqrmap import _base_of, build_conjugated_map, h_via_conjugacy
from .zoom import (
    EVEN_BREAKPOINTS,
    LIMIT_KINDS,
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
    "run_verification",
    "recurrence_vs_closed_worst",
    "anchor_identity_worst",
    "continuity_worst",
    "product_identities_worst",
    "breakpoint_image_worst",
]

SCHEMA_VERSION = 1

#: the bounds of depth, as the construction checks take time linear in it (5.2 s
#: at 2**24 on a 2-CPU VM), and of grid_points, as the grid-wide checks hold a few
#: arrays of grid_points floats (52 MB and 1.3 s at the bound); the depth-long
#: checks and the zoom checks run in blocks of ``_BLOCK`` lanes
_MAX_DEPTH, _MAX_GRID_POINTS = 2**24, 2**18


def _max_abs_diff(a, b=0.0):
    """max |a - b| over the entries, as a float: the measure of every residual."""
    return float(np.max(np.abs(a - b)))


def _coefficient_log2(K, n):
    """log2 C_n by its closed form, (n // 2)(K^2 - 1) for odd n and
    (n // 2)(1/K^2 - 1) for even n: verify's own route, apart from the cell
    kernel that evaluates the maps.  As n >= 1, n >> 1 and n & 1 give the ints
    of n // 2 and n % 2, and so the same floats."""
    return (n >> 1) * np.where(n & 1, K * K - 1.0, 1 / (K * K) - 1.0) + 0.0


def recurrence_vs_closed_worst(K, depth):
    """Worst |closed-form - recurrence| log2 breakpoint over n <= depth.

    The recurrence log2 r_n = log2 r_{n-1} - 1/k_n accumulated from r_0 = 1 is
    the independent route against the parity-split closed form.  It runs as a
    compensated (Neumaier) sum: a plain float64 running sum gathers roundoff
    with every step (1.2e-9 by n = 10^4 at K = 3), which is the
    accumulation's error, not the closed form's.

    The sum is two sequential accumulations, run in blocks of ``_BLOCK``
    steps.  ``np.cumsum`` of the carried total (0.0 before the first block)
    and the block's steps -1/k_n gives each step's total before and after it,
    ``prev`` and ``total``; each addition's rounding error is Neumaier's
    (prev - total) + step where |prev| >= |step|, else (step - total) + prev,
    taken lane by lane, and the recurrence is the total plus ``np.cumsum`` of
    the carried error sum (0.0 before the first block) and these errors.
    ``np.cumsum`` adds strictly left to right, unlike the pairwise ``np.sum``,
    and each block starts from where the last one stopped, so each lane makes
    the IEEE operations of a scalar Neumaier loop over the steps (the
    reference in the tests) in the loop's order, its first 0.0 + x included,
    and gives its bits.
    """
    K, depth = _parameter(K), _count(depth, "depth", 2, _MAX_DEPTH)
    odd_step, even_step = -1.0 / K, -1.0 / (1.0 / K)  # -1/k_n, as k_n is K or 1/K
    carry = [0.0, 0.0]  # the total and the error sum before the block

    def block(i, j):  # n = i + 1 .. j
        n = np.arange(i + 1, j + 1)
        step = np.where(n & 1, odd_step, even_step)
        totals = np.empty(len(n) + 1)
        totals[0], totals[1:] = carry[0], step
        np.cumsum(totals, out=totals)
        prev, total = totals[:-1], totals[1:]
        errors = np.empty_like(totals)
        errors[0] = carry[1]
        errors[1:] = np.where(np.abs(prev) >= np.abs(step), (prev - total) + step,
                              (step - total) + prev)
        np.cumsum(errors, out=errors)
        carry[:] = totals[-1], errors[-1]
        return _max_abs_diff(breakpoint_log2(K, n), total + errors[1:])

    return float(_blocked_max(block, depth))


def anchor_identity_worst(K, depth):
    """Worst |log2 C_n + n + k_n log2 r_n| over n <= depth."""
    K, depth = _parameter(K), _count(depth, "depth", 2, _MAX_DEPTH)

    def block(i, j):  # n = i + 1 .. j
        n = np.arange(i + 1, j + 1)
        k = np.where(n & 1, K, 1.0 / K)
        return _max_abs_diff(_coefficient_log2(K, n) + n + k * breakpoint_log2(K, n))

    return float(_blocked_max(block, depth))


def continuity_worst(K, depth):
    """Worst branch mismatch at the breakpoints: interval n vs n+1 formulas."""
    K, depth = _parameter(K), _count(depth, "depth", 2, _MAX_DEPTH)

    def block(i, j):  # the breakpoints n = i + 1 .. j, each with the intervals n and n + 1
        n = np.arange(i + 1, j + 2)
        k = np.where(n & 1, K, 1.0 / K)
        lr = breakpoint_log2(K, n[:-1])
        log2_C = _coefficient_log2(K, n)
        return _max_abs_diff(log2_C[:-1] + k[:-1] * lr, log2_C[1:] + k[1:] * lr)

    return float(_blocked_max(block, depth - 1))


#: rows a of each product-identity family checked against every column b.  An
#: error at any index already enters the rows a < 2 (see ``product_identities_worst``);
#: more rows read more rounding, and 64 give the all-pairs maxima at K in {2, 3,
#: 1.37, 9.99, 100, 1000} and depths 10^4 and 3 * 10^4 (16 did, 8 did not)
_BAND_ROWS = 64


def product_identities_worst(K, depth):
    """Worst residuals of the two breakpoint product identities over the index
    pairs that stay within ``depth`` and have a row below ``_BAND_ROWS``:

        log2 r_{2n} + log2 r_m       = log2 r_{2n+m}
        log2 r_{2n+1} + log2 r_{2m+1} = log2 r_{2(n+m)+1} - 1/K

    Split by the parity of m, with even[j] = log2 r_{2j} and odd[j] = log2 r_{2j+1},
    the first identity is the families even + even and even + odd (rows n >= 1),
    the second odd + odd.  Each row a of a family s + t with shift is one pass,
    |((s[a] + t[b]) - t[a + b]) + shift| over every column b with a + b < len(t),
    which keeps only the max and min of d = (s[a] + t[b]) - t[a + b] in each
    block of ``_BLOCK`` columns: d -> fl(d + shift) is monotone, so
    |fl(d + shift)| peaks at one of them, and the result is the max over every
    pair bit for bit (a NaN too).  A block computes the even and odd values its
    rows read, so no float64 temporary reaches 64 KiB and none of depth's size
    is held.
    The same-parity families are symmetric, as IEEE addition is commutative, so
    their rows a < ``_BAND_ROWS`` cover every pair with min(a, b) below it.

    The band loses no index.  log2 r_n is affine in n // 2 and (n + 1) // 2, so
    the identities hold for it exactly and measure rounding plus what an error
    e(n) of it adds.  An error affine in those counts moves every pair of an
    identity by the same amount (a multiple of n // 2 moves none), and the first
    identity's row n = 1, log2 r_2 + log2 r_m = log2 r_{m+2}, is exact for every
    m only if e is affine, so an error at any index already shows in that row.
    """
    K, depth = _parameter(K), _count(depth, "depth", 2, _MAX_DEPTH)
    lengths = depth // 2 + 1, (depth + 1) // 2  # of even and odd
    heads = [breakpoint_log2(K, np.arange(p, min(2 * _BAND_ROWS, depth + 1), 2)) for p in (0, 1)]
    buf = np.empty(_BLOCK)

    def block(i, j):  # the columns b = i .. j - 1 of every row
        # even and odd from index i on, as far as the rows' t[a + b] read them
        tails = [breakpoint_log2(K, np.arange(2 * i + p, min(2 * (j + _BAND_ROWS), depth + 1), 2))
                 for p in (0, 1)]
        worst = []
        for s, first, p, shift in ((0, 1, 0, 0.0), (0, 1, 1, 0.0), (1, 0, 1, 1.0 / K)):
            s, t, L, ends = heads[s], tails[p], lengths[p], []  # each row's max and min of d
            for a in range(first, min(_BAND_ROWS, L - i)):  # the rows with a column b >= i
                c = min(j, L - a) - i  # the columns b < L - a
                d = np.add(s[a], t[:c], out=buf[:c])
                d -= t[a:a + c]
                ends += np.maximum.reduce(d), np.minimum.reduce(d)
            worst.append(np.max(np.abs(np.add(ends, shift)), initial=0.0))
        return worst

    even_even, even_odd, odd_odd = map(float, _blocked_max(block, lengths[0]))
    return max(even_even, even_odd), odd_odd


def breakpoint_image_worst(f, depth):
    """Worst |log2 f(r_n) + n| over n <= depth (breakpoints map to halves)."""
    _base_of(f, PiecewisePowerMap)
    depth = _count(depth, "depth", 2, _MAX_DEPTH)

    def block(i, j):  # n = i .. j - 1
        n = np.arange(i, j)
        return _max_abs_diff(f.eval_log(f.breakpoint(n)) + n)

    return float(_blocked_max(block, depth + 1))


def _checked_settings(K, dimension, depth, grid_points, tol):
    """The parameters of ``run_verification`` (the CLI's numeric settings), checked, by name."""
    return {"K": _parameter(K),
            "dimension": _count(dimension, "dimension", 2, _MAX_DIMENSION),
            "depth": _count(depth, "depth", 2, _MAX_DEPTH),
            "grid_points": _count(grid_points, "grid_points", 2, _MAX_GRID_POINTS),
            "tol": _real(tol, "tol")}


def run_verification(K=2.0, dimension=2, depth=GUARD_DEPTH, grid_points=1000, tol=1e-9):
    """Run every invariant check and return a machine-readable report dict.

    Every parameter is checked before any check runs, and the checks and the
    config echo read the checked values.  Raises ``ValueError`` when
    consecutive breakpoints coincide in float64 within ``depth``.
    """
    K, dimension, depth, grid_points, tol = _checked_settings(
        K, dimension, depth, grid_points, tol).values()
    f = build_standard_map(K)
    h = build_conjugated_map(f)

    def consecutive_breakpoints(i, j):  # the pairs r_n, r_{n+1} for n = i .. j - 1
        lr = _distinct_breakpoints_log2(f.K, i, j)
        return np.diff(lr).max(), _max_abs_diff(h.eval_log(lr[:-1]), lr[1:])

    # the guard raises before any check runs; its pass also measures two checks
    largest_step, h_forwards = _blocked_max(consecutive_breakpoints, depth)
    period = _period(f.K)
    grid = np.linspace(-3.0 * period, 0.0, grid_points)
    grid_interior = grid[grid < 0.0]
    n_zoom = range(1, 51)
    bp = f.breakpoint(np.arange(53))  # log2 r_0 .. r_52, sliced by the small set-ups below
    checks = []

    def residual(name, measured, threshold=None, comparison="<="):
        measured, threshold = float(measured), tol if threshold is None else threshold
        passed = measured <= threshold if comparison == "<=" else measured >= threshold
        checks.append({"name": name, "measured": measured, "threshold": threshold,
                       "comparison": comparison, "passed": passed})

    def witness(name, measured, threshold):
        residual(name, measured, threshold, ">=")

    # --- construction identities -------------------------------------------
    residual("breakpoints_closed_form_vs_recurrence", recurrence_vs_closed_worst(K, depth))
    residual("coefficient_anchor_identity", anchor_identity_worst(K, depth))
    residual("branch_continuity_at_breakpoints", continuity_worst(K, depth))
    even_res, odd_res = product_identities_worst(K, depth)
    residual("breakpoint_product_identity_even", even_res)
    residual("breakpoint_product_identity_odd_shifted", odd_res)
    witness("breakpoint_strict_decrease_margin", float(-largest_step), tol)
    residual("breakpoint_image_is_halving", breakpoint_image_worst(f, depth))

    # --- forward/inverse evaluation ----------------------------------------
    values = f.eval_log(grid)

    def shift_rows(i, j):  # one row of the grid per even scale r_{2s}, s = i + 1 .. j
        shifts = np.arange(i + 1, j + 1)[:, None]
        return _max_abs_diff(f.eval_log(grid + f.breakpoint(2 * shifts)) - values + 2 * shifts)

    residual("even_scale_multiplicativity",
             _blocked_max(shift_rows, 25, max(1, _BLOCK // grid_points)))
    witness("eval_strictly_increasing_margin", float(np.diff(values).min()), tol)
    residual("inverse_roundtrip", _max_abs_diff(f.inverse_eval_log(values), grid))
    residual("mean_radius_equals_forward_eval", _max_abs_diff(f.mean_radius_radial(grid), values))
    # linear scan: the first n >= 1 with r_n <= x <= r_{n-1}, over r_0 .. r_8,
    # which cover the grid: r_8 = -4(K + 1/K) lies below its -3(K + 1/K)
    scan_grid = np.linspace(-3.0 * period, 0.0, 301)
    x_col = scan_grid[:, None]
    inside = (bp[1:9] <= x_col) & (x_col <= bp[:8])
    scan_index = np.argmax(inside, axis=1) + 1
    scan_mismatches = np.count_nonzero(f.locate_interval(scan_grid) != scan_index)
    residual("locate_matches_linear_scan", float(scan_mismatches), 0.0)

    # --- zoom limits ---------------------------------------------------------
    p1, p2, q1, q2 = limits = [limit_function(f, kind) for kind in LIMIT_KINDS]
    for lf, map_, sequence in zip(limits, (f, f, h, h), (EVEN_BREAKPOINTS, ODD_BREAKPOINTS) * 2):
        residual(f"zoom_{'h_' if map_ is h else ''}{sequence}_scales_match_{lf.kind.lower()}",
                 zoom_limit_deviation(map_, sequence, lf, n_zoom, grid_interior))
    residual("limit_p1_coincides_with_map", _max_abs_diff(p1.eval_log(grid), values))
    residual("limits_fix_unit_radius", max(abs(lf.eval_log(0.0)) for lf in limits))
    residual("q1_fixes_even_breakpoints", _max_abs_diff(q1.eval_log(bp[2:51:2]), bp[2:51:2]))
    residual("p1_breakpoint_values", _max_abs_diff(p1.eval_log(bp[:51]) + np.arange(0, 51)))
    # adjacent branch formulas of the shifted-breakpoint limits agree
    ms = np.arange(0, 26)
    s_m = -((ms + 1) * K + ms / K)
    lr_lo, lr_hi = bp[2::2], bp[:51:2]  # log2 r_{2m+2} and log2 r_{2m}
    p2_low = -(2 * ms + 2) - K * lr_lo + K * s_m
    p2_high = -(2 * ms) - lr_hi / K + s_m / K
    q2_low = (1.0 - K * K) * lr_lo + (K * K) * s_m
    q2_high = (1.0 - 1.0 / (K * K)) * lr_hi + s_m / (K * K)
    residual(
        "shifted_breakpoint_branch_continuity",
        max(_max_abs_diff(p2_low, p2_high), _max_abs_diff(q2_low, q2_high)),
    )
    gap = abs(p2.eval_log(bp[1]) - p1.eval_log(bp[1]))
    residual("limit_gap_matches_closed_form", abs(gap - (1.0 - 1.0 / (K * K))))
    witness("limit_distinctness_gap", gap, tol)
    t_fixed = scale_at(f, ODD_BREAKPOINTS, 3)
    witness(
        "rescaled_monotone_in_radius_margin",
        float(np.diff(rescaled_eval(f, t_fixed, grid)).min()),
        tol,
    )

    # --- conjugated dynamics -------------------------------------------------
    conj_grid = np.linspace(bp[20], 0.0, grid_points)
    h_closed = h.eval_log(conj_grid)
    residual(
        "conjugacy_functional_identity",
        _max_abs_diff(f.eval_log(h_closed), f.eval_log(conj_grid) - 1.0),
    )
    residual(
        "h_closed_form_vs_conjugacy_oracle", _max_abs_diff(h_closed, h_via_conjugacy(f, conj_grid))
    )
    residual("h_forwards_breakpoints", h_forwards)
    residual(
        "second_iterate_exact_similarity", _max_abs_diff(h.eval_log(h_closed) - conj_grid + period)
    )
    rate = (conj_grid - h.iterate(conj_grid, 1000)) / 1000.0
    residual("attraction_rate_per_step", _max_abs_diff(rate, period / 2.0), 1e-6)
    witness(
        "h_strictly_below_identity_margin",
        float(np.min(conj_grid[conj_grid < 0.0] - h_closed[conj_grid < 0.0])),
        tol,
    )

    # --- distortion ----------------------------------------------------------
    # finite_difference_distortion's estimate at 300 fixed log2 radii in [-6, -0.05),
    # 20 for each (alpha, d), with no check of these inputs
    fd_radii = iter((-6.0 + 5.95 * _weyl(300)).reshape(15, 20).tolist())
    fd_worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
        for d in (2, 3, 4):
            closed = radial_power_distortion(alpha, d)
            for x in next(fd_radii):
                r = 2.0**x
                K_O, K_I = _finite_difference(lambda v, a=alpha: v**a, d, r, 1e-6 * r)
                fd_worst = max(fd_worst, abs(K_O - closed.K_O) / closed.K_O,
                               abs(K_I - closed.K_I) / closed.K_I)
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
    # the first 100 of 10^4 fixed radii in (-3P, -0.05] where P1 and P2 differ by 0.05 (or
    # by half the widest gap 1 - 1/K^2, if less: K < 1.054) or more, each with a target at
    # a fixed fraction of the middle 80% of its bracket
    candidates = -0.05 - (3.0 * period - 0.05) * _weyl(10_000)
    a, b = p1.eval_log(candidates), p2.eval_log(candidates)
    kept = np.flatnonzero(np.abs(a - b) >= min(0.05, (1.0 - 1.0 / (K * K)) / 2))[:100]
    ivt_r0, lo, hi = candidates[kept], np.minimum(a, b)[kept], np.maximum(a, b)[kept]
    lo, hi = lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)
    ivt_lam = lo + (hi - lo) * _weyl(len(kept))
    t = ivt_sample(f, ivt_r0, ivt_lam, tol)
    residual(
        "ivt_sample_residuals",
        np.max(np.abs(rescaled_eval(f, t, ivt_r0) - ivt_lam), initial=0.0),
    )
    r0 = bp[1]
    lam = 0.5 * (p1.eval_log(r0) + p2.eval_log(r0))
    scales = ivt_sample(f, r0, lam, tol, period_index=np.arange(1, 11))
    witness(
        "ivt_scales_strictly_decreasing_margin",
        float(np.diff(scales).max() * -1.0),
        tol,
    )
    samples = [0.0, bp[1], bp[2]]
    residual(
        "homogeneity_defect_of_pure_power",
        homogeneity_defect(lambda v: K * v, samples),
        1e-12,
    )
    witness("homogeneity_defect_p1", homogeneity_defect(p1, samples), tol)
    witness("homogeneity_defect_q1", homogeneity_defect(q1, samples), tol)

    # --- one-dimensional pedagogical model -----------------------------------
    ex_worst = 0.0
    for delta in (1.0, 0.5, 1e-3, 1e-9):
        top, bottom, zero = example_1d_rescaled(np.array([1.0, -1.0, 0.0]), delta).tolist()
        ex_worst = max(
            ex_worst,
            abs(example_1d_mean_radius(delta) - 0.75 * delta) / delta,
            abs(top - 4.0 / 3.0), abs(bottom + 2.0 / 3.0), abs(zero),
        )
    residual("one_dimensional_model_identities", ex_worst, 1e-12)

    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"K": K, "dimension": dimension, "depth": depth, "grid_points": grid_points,
                   "tol": tol},
        "checks": checks,
        "passed": sum(1 for c in checks if c["passed"]),
        "failed": sum(1 for c in checks if not c["passed"]),
        "all_passed": all(c["passed"] for c in checks),
    }
