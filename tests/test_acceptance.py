"""Acceptance suite: the library's headline guarantees, each at its pinned
tolerance, printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the whole
module finishes in well under a minute at the default configuration
(K = 2, d in {2, 3}, depth 10^4).
"""

import math

import numpy as np
import pytest

from radialqc import (
    build_conjugated_map,
    build_standard_map,
    finite_difference_distortion,
    h_via_conjugacy,
    homogeneity_defect,
    iterate_max_distortion,
    ivt_sample,
    limit_function,
    max_distortion,
    radial_power_distortion,
    rescaled_eval,
    scale_at,
    zoom_limit_deviation,
)
from radialqc.verify import (
    anchor_identity_worst,
    breakpoint_image_worst,
    continuity_worst,
    product_identities_worst,
    recurrence_vs_closed_worst,
)

K = 2.0
DEPTH = 10_000
PERIOD = K + 1.0 / K

F = build_standard_map(K)
H = build_conjugated_map(F)
P1 = limit_function(F, "P1")
P2 = limit_function(F, "P2")
Q1 = limit_function(H, "Q1")
Q2 = limit_function(H, "Q2")


def report(number, name, measured, bound, kind="<="):
    ok = measured <= bound if kind == "<=" else measured >= bound
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: measured {measured:.3e} "
          f"{kind} {bound:.3e}: {verdict}")
    assert ok, f"criterion {number} {name}: {measured} not {kind} {bound}"


def test_c01_construction_identities():
    worst = max(
        recurrence_vs_closed_worst(K, DEPTH),
        anchor_identity_worst(K, DEPTH),
        continuity_worst(K, DEPTH),
        *product_identities_worst(K, DEPTH),
    )
    report(1, "construction identities", worst, 1e-9)


def test_c02_breakpoints_map_to_halving_powers():
    report(2, "f(r_n) = 2^-n", breakpoint_image_worst(F, DEPTH), 1e-9)


def test_c03_zoom_exactness_and_p1_is_f():
    grid = np.linspace(-3.0 * PERIOD, -1e-9, 1000)
    ns = range(1, 51)
    worst = max(
        zoom_limit_deviation(F, "even", P1, ns, grid),
        zoom_limit_deviation(F, "odd", P2, ns, grid),
        float(np.max(np.abs(P1.eval_log(grid) - F.eval_log(grid)))),
    )
    report(3, "zoom exactness and P1 == f", worst, 1e-9)


def test_c04_non_simplicity_witness():
    r1 = F.breakpoint(1)
    # independent zoom evaluations at several actual breakpoint scales
    even_vals = [rescaled_eval(F, scale_at(F, "even", k), r1) for k in (1, 2, 5, 9)]
    odd_vals = [rescaled_eval(F, scale_at(F, "odd", k), r1) for k in (1, 2, 5, 9)]
    assert max(abs(v + 1.0) for v in even_vals) <= 1e-9  # P1(r1) = 1/2
    assert max(abs(v + 0.25) for v in odd_vals) <= 1e-9  # P2(r1) = 2^-1/4
    value_gap = abs(2.0 ** odd_vals[0] - 2.0 ** even_vals[0])
    log_gap = abs(odd_vals[0] - even_vals[0])
    report(4, "non-simplicity value gap", value_gap, 0.34, kind=">=")
    assert log_gap >= 0.75 - 1e-12


def test_c05_limits_preserve_unit_ball():
    worst = max(abs(lf.eval_log(0.0)) for lf in (P1, P2, Q1, Q2))
    report(5, "limit normalization at r = 1", worst, 1e-12)


def test_c06_conjugacy():
    grid = np.linspace(F.breakpoint(20), 0.0, 1000)
    h_vals = H.eval_log(grid)
    worst = max(
        float(np.max(np.abs(F.eval_log(h_vals) - (F.eval_log(grid) - 1.0)))),
        float(np.max(np.abs(h_vals - h_via_conjugacy(F, grid)))),
    )
    report(6, "conjugacy f(h(r)) = f(r)/2", worst, 1e-9)


def test_c07_second_iterate_similarity_and_attraction():
    grid = np.linspace(F.breakpoint(20), 0.0, 1000)
    similarity = float(np.max(np.abs(H.eval_log(H.eval_log(grid)) - grid + PERIOD)))
    rate = np.abs((grid - H.iterate(grid, 1000)) / 1000.0 - PERIOD / 2.0)
    report(7, "exact second-iterate similarity", max(similarity, float(rate.max())), 1e-9)
    assert float(rate.max()) <= 1e-6


def test_c08_zoom_limits_of_h():
    grid = np.linspace(-3.0 * PERIOD, -1e-9, 1000)
    ns = range(1, 51)
    worst = max(
        zoom_limit_deviation(H, "even", Q1, ns, grid),
        zoom_limit_deviation(H, "odd", Q2, ns, grid),
    )
    r1 = F.breakpoint(1)
    assert abs(rescaled_eval(H, scale_at(H, "even", 3), r1) + 2.0) <= 1e-9
    assert abs(rescaled_eval(H, scale_at(H, "odd", 3), r1) + 0.125) <= 1e-9
    report(8, "zoom limits of h are Q1/Q2", worst, 1e-9)


def test_c09_radial_power_distortion():
    rng = np.random.default_rng(123)
    worst_fd = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
        for d in (2, 3, 4):
            closed = radial_power_distortion(alpha, d)
            for x in rng.uniform(-6.0, -0.05, size=20):
                est = finite_difference_distortion(
                    lambda r, a=alpha: r**a, d, float(x), 1e-6 * 2.0**x
                )
                worst_fd = max(
                    worst_fd,
                    abs(est.K_O - closed.K_O) / closed.K_O,
                    abs(est.K_I - closed.K_I) / closed.K_I,
                )
    worst_sup = 0.0
    for K_ in (1.1, 2.0, 5.0):
        f_ = build_standard_map(K_)
        for d in (2, 3, 4):
            expected = K_ ** (d - 1)
            worst_sup = max(
                worst_sup, abs(max_distortion(f_, d).K_max - expected) / expected
            )
    report(9, "power-law distortion vs finite differences", worst_fd, 1e-6)
    assert worst_sup <= 1e-12


def test_c10_uniform_quasiconformality():
    worst = 0.0
    for d in (2, 3):
        bound = K ** (2 * (d - 1))
        reports = iterate_max_distortion(H, d, 40)
        assert max(rep.K_max for rep in reports) == bound
        for m, rep in enumerate(reports, start=1):
            expected = 1.0 if m % 2 == 0 else bound
            worst = max(worst, abs(rep.K_max - expected))
    report(10, "iterate distortion uniformly bounded", worst, 1e-12)


def test_c11_intermediate_value_sampler():
    rng = np.random.default_rng(2024)
    worst = 0.0
    done = 0
    while done < 100:
        r0 = float(rng.uniform(-3.0 * PERIOD, -0.05))
        lo, hi = sorted((P1.eval_log(r0), P2.eval_log(r0)))
        if hi - lo < 0.05:
            continue
        lam = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
        t = ivt_sample(F, r0, lam, 1e-9)
        worst = max(worst, abs(rescaled_eval(F, t, r0) - lam))
        done += 1
    r0 = F.breakpoint(1)
    lam = 0.5 * (P1.eval_log(r0) + P2.eval_log(r0))
    scales = [ivt_sample(F, r0, lam, 1e-9, period_index=j) for j in range(1, 11)]
    assert all(b < a for a, b in zip(scales, scales[1:]))
    report(11, "intermediate-value scale sampler", worst, 1e-9)


def test_c12_one_dimensional_model():
    from radialqc import example_1d_mean_radius, example_1d_rescaled

    worst = 0.0
    for delta in (1.0, 0.5, 1e-3, 1e-9):
        worst = max(
            worst,
            abs(example_1d_mean_radius(delta) - 0.75 * delta) / delta,
            abs(example_1d_rescaled(1.0, delta) - 4.0 / 3.0),
            abs(example_1d_rescaled(-1.0, delta) + 2.0 / 3.0),
        )
    report(12, "1-D model: rho = 3 delta/4, g(+-1) = 4/3, -2/3", worst, 1e-12)


def test_c13_homogeneity_defect():
    samples = [0.0, F.breakpoint(1), F.breakpoint(2)]
    defect_p1 = homogeneity_defect(P1, samples)
    pure = homogeneity_defect(lambda x: K * x, samples)
    assert pure <= 1e-12
    report(13, "homogeneity defect of P1 at breakpoints", defect_p1, 0.5, kind=">=")
