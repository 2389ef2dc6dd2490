"""The three workloads: closed loop, one client, whole rounds of fixed operations.

Each workload builds its inputs from the seed, then runs rounds.  A round is a
fixed list of operations; every operation is timed on its own and its output
checked, outside the timed region, against ``oracle.ExactMaps`` (first round)
or against the first round's output bit for bit (later rounds, same inputs).
``ops`` collects ``(round, group, kind, units, t0, t1)`` per timed operation,
where ``kind`` names the reference kernel that normalizes it and ``units`` is
its work.

All library access goes through module attributes at call time
(``lib.zoom.rescaled_eval``, ``f.eval_log``), so the wrappers of a traced run
see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np

from oracle import NEG_INF, ExactMaps, error_units

#: c in the accuracy envelope |error| <= c * eps * (|x| + 1) * slope.
ENVELOPE_C = 4.0
LIMIT_KINDS = ("P1", "P2", "Q1", "Q2")


def run_cli(cli, argv):
    """In-process ``radialqc`` command: (exit code or exception, stdout, t0, t1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome the caller classifies
            code = exc
        t1 = time.perf_counter()
    return code, out.getvalue(), t0, t1


def csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class Workload:
    """Counters, error log and timed operations shared by the workloads."""

    #: reference kernels sampled while this workload runs
    KINDS = ("python",)

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ops = []  # (round, group, kind, units, t0, t1)
        #: takes a reference sample on demand (``Clock.sample`` when timed)
        self.sample = lambda: None

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    def record(self, t0, t1, kind, units, group, attempted=1):
        self.attempted += attempted
        self.ops.append((self.rounds, group, kind, units, t0, t1))

    def timings(self, split):
        """Per operation: (round, group, units, raw s, normalized s)."""
        out = []
        for rnd, group, kind, units, t0, t1 in self.ops:
            raw, norm = split(t0, t1, kind)
            out.append((rnd, group, units, raw, norm))
        return out


class BulkEval(Workload):
    """Large arrays of log2 radii through every array evaluator, plus CLI sweeps."""

    KINDS = ("array", "python")
    N = 1 << 15
    N_BREAKPOINTS = 256
    N_SENTINEL = 16
    SUBSAMPLE = 48
    ODD_ITERATES = 2001

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = self.rng
        self.Ks = (2.0, 1.37, float(rng.uniform(1.2, 10.0)))
        self.cases = [self._case(K) for K in self.Ks]
        k_cli = self.Ks[2]
        x0 = -float(rng.uniform(0.05, 30.0))
        self.cli = [
            ("zoom_csv", ["zoom", "--map", "f", "--seq", "even", "--n", "1..10",
                          "--K", repr(k_cli)]),
            ("zoom_json", ["zoom", "--map", "h", "--seq", "odd", "--n", "1..10",
                           "--format", "json", "--K", repr(k_cli)]),
            ("iterate", ["iterate", f"--log2-r={x0!r}", "--iterates", "2000",
                         "--K", repr(k_cli)]),
            ("distortion", ["distortion", "--map", "h", "--iterates", "2000",
                            "--K", repr(k_cli)]),
        ]
        self.cli_exact = ExactMaps(k_cli)
        self.cli_x0 = x0
        self.cli_outputs = {}

    def _case(self, K):
        lib, rng, N = self.lib, self.rng, self.N
        f = lib.rq.build_standard_map(K)
        h = lib.rq.build_conjugated_map(f)
        lims = {k: lib.zoom.limit_function(f if k[0] == "P" else h, k) for k in LIMIT_KINDS}
        period = K + 1.0 / K
        n_log = N - self.N_BREAKPOINTS - self.N_SENTINEL
        bp_index = rng.integers(0, int(2 * 2**20 / period), self.N_BREAKPOINTS)
        X = np.concatenate([
            -np.exp2(rng.uniform(-10.0, 20.0, n_log)),
            lib.powermap.breakpoint_log2(K, bp_index),
            np.full(self.N_SENTINEL, NEG_INF),
        ])
        perm = rng.permutation(N)
        X = X[perm]
        bp_pos = np.argsort(perm)[n_log : n_log + self.N_BREAKPOINTS]
        t_f = -float(rng.uniform(0.5, 40.0))
        t_h = float(lib.powermap.breakpoint_log2(K, int(rng.integers(1, 40))))
        m = self.ODD_ITERATES
        s_f, s_h = K, K * K
        # (label, reference map, call, slope bound, extra error scale)
        calls = [
            ("f.eval_log", "f", lambda: f.eval_log(X), s_f, 0.0),
            ("f.inverse_eval_log", "f_inv", lambda: f.inverse_eval_log(X), s_f, 0.0),
            ("h.eval_log", "h", lambda: h.eval_log(X), s_h, 0.0),
            ("h.iterate", "h_iterate", lambda: h.iterate(X, m), s_h, (m // 2) * period),
        ]
        for kind in LIMIT_KINDS:
            lf = lims[kind]
            calls.append((f"{kind}.eval_log", kind, lambda lf=lf: lf.eval_log(X),
                          s_f if kind[0] == "P" else s_h, 0.0))
        calls += [
            ("rescaled_eval(f)", "rescaled_f",
             lambda: self.lib.zoom.rescaled_eval(f, t_f, X), s_f, -t_f),
            ("rescaled_eval(h)", "rescaled_h",
             lambda: self.lib.zoom.rescaled_eval(h, t_h, X), s_h, -t_h),
            ("h_via_conjugacy", "h", lambda: self.lib.uqrmap.h_via_conjugacy(f, X), s_h, 0.0),
        ]
        sub = np.concatenate([rng.choice(N, self.SUBSAMPLE - 4, replace=False),
                              bp_pos[:2], np.flatnonzero(np.isneginf(X))[:2]])
        return dict(K=K, f=f, h=h, X=X, bp_pos=bp_pos, bp_index=bp_index, t_f=t_f,
                    t_h=t_h, calls=calls, sub=sub, exact=ExactMaps(K), outputs={})

    def round(self):
        first = self.rounds == 0
        self.sample()
        for case in self.cases:
            # samples next to each block of array calls and each CLI sweep:
            # the kernels follow them more closely than the timer's alone
            for label, ref, call, slope, extra in case["calls"]:
                t0 = time.perf_counter()
                out = call()
                t1 = time.perf_counter()
                self.record(t0, t1, "array", self.N, "array")
                if first:
                    case["outputs"][label] = out
                    self._check_reference(case, label, ref, out, slope, extra)
                else:
                    self.expect(np.array_equal(out, case["outputs"][label]),
                                f"K={case['K']} {label}: output changed between rounds")
            self.sample()
            if first:
                self._check_properties(case)
        for label, argv in self.cli:
            code, text, t0, t1 = run_cli(self.lib.cli, argv)
            self.expect(code == 0, f"cli {label}: exit {code!r}")
            rows = self._check_cli(label, text) if first else self.cli_outputs[label][1]
            if first:
                self.cli_outputs[label] = (text, rows)
            else:
                self.expect(text == self.cli_outputs[label][0],
                            f"cli {label}: output changed between rounds")
            self.record(t0, t1, "python", rows, "cli")
            self.sample()
        self.rounds += 1

    def _check_reference(self, case, label, ref, out, slope, extra):
        ex, X = case["exact"], case["X"]
        t = case["t_f"] if ref == "rescaled_f" else case["t_h"]
        worst = 0.0
        for i in case["sub"]:
            x = float(X[i])
            r = ex.evaluate(ref, x, t=t, m=self.ODD_ITERATES)
            worst = max(worst, error_units(float(out[i]), r, abs(x) + extra + 1.0) / slope)
        self.expect(worst <= ENVELOPE_C,
                    f"K={case['K']} {label}: error {worst:.3g} eps*(|x|+1)*slope > {ENVELOPE_C}")

    def _check_properties(self, case):
        K, X, f, h, out = case["K"], case["X"], case["f"], case["h"], case["outputs"]
        period = K + 1.0 / K
        eps = np.finfo(float).eps
        fin = np.isfinite(X)
        xf = X[fin]
        tol = ENVELOPE_C * eps * (np.abs(xf) + period + 1.0)

        def close(a, b, slope):
            return bool(np.all(np.abs(a[fin] - b) <= tol * slope))

        order = np.argsort(xf, kind="stable")
        for label, _, _, slope, extra in case["calls"]:
            y = out[label][fin][order]
            slack = (tol[order][1:] + ENVELOPE_C * eps * extra) * slope
            self.expect(bool(np.all(np.diff(y) >= -slack)), f"K={K} {label}: not monotone")
            self.expect(bool(np.all(np.isneginf(out[label][~fin]))),
                        f"K={K} {label}: radius-0 sentinel not preserved")
        f_out, h_out = out["f.eval_log"], out["h.eval_log"]
        self.expect(close(f.eval_log(out["f.inverse_eval_log"]), xf, K * K),
                    f"K={K}: f(f^-1(y)) != y")
        self.expect(close(h.eval_log(h_out), xf - period, K**4), f"K={K}: h(h(x)) != x - P")
        self.expect(close(f.eval_log(h_out), f_out[fin] - 1.0, K**3),
                    f"K={K}: f(h(x)) != f(x) - 1")
        bp = X[case["bp_pos"]]
        self.expect(bool(np.all(np.abs(f_out[case["bp_pos"]] + case["bp_index"])
                                <= ENVELOPE_C * eps * (np.abs(bp) + 1.0) * K)),
                    f"K={K}: f(r_n) != -n")

    def _check_cli(self, label, text):
        """Parse one CLI sweep, compare sampled rows to the reference; return rows."""
        ex, K = self.cli_exact, float(self.cli_exact.K)
        if label in ("zoom_csv", "zoom_json"):
            if label == "zoom_csv":
                header, rows = csv_rows(text)
                summary = rows.pop()
                self.expect(summary[0] == "max_abs_dev", "zoom csv: no summary row")
                g, kind, parity, slope = ex.f, "P1", 0, K
            else:
                payload = json.loads(text)
                header, rows = payload["columns"], payload["rows"]
                g, kind, parity, slope = ex.h, "Q2", 1, K * K
            self.expect(header == ["n", "log2_t", "log2_r", "rescaled", "matched_limit",
                                   "abs_dev"], f"{label}: header {header}")
            self.expect(len(rows) == 10 * 999, f"{label}: {len(rows)} rows")
            for row in rows[::250]:
                n, t, x, resc, lim, dev = int(row[0]), *map(float, row[1:])
                self.expect(error_units(t, ex.breakpoint(2 * n - parity), abs(t) + 1.0)
                            <= ENVELOPE_C, f"{label}: scale {n}")
                scale = (abs(x) + abs(t) + 1.0) * slope
                ok = (error_units(resc, ex.rescaled(g, Fraction(t), Fraction(x)), scale)
                      <= ENVELOPE_C
                      and error_units(lim, ex.limit(kind, Fraction(x)), scale) <= ENVELOPE_C
                      and dev == abs(resc - lim))
                self.expect(ok, f"{label}: row {row} off the reference")
            return len(rows)
        header, rows = csv_rows(text)
        if label == "iterate":
            self.expect(len(rows) == 2001, f"iterate: {len(rows)} rows")
            for row in rows[::50]:
                m, y = int(row[0]), float(row[1])
                ref = ex.evaluate("h_iterate", self.cli_x0, m=m)
                scale = (abs(self.cli_x0) + m * float(ex.P) + 1.0) * K * K
                self.expect(error_units(y, ref, scale) <= ENVELOPE_C, f"iterate: row {row}")
            return len(rows)
        self.expect(len(rows) == 2001, f"distortion: {len(rows)} rows")
        for row in rows:
            odd = row[0] == "sup" or int(row[0]) % 2 == 1
            want = K * K if odd else 1.0
            self.expect(all(abs(float(v) - want) <= 1e-12 * want for v in row[1:]),
                        f"distortion: row {row}")
        return len(rows)

    def summarize(self, timings):
        array = _per_round_rate(timings, "array")
        rows = _per_round_rate(timings, "cli")
        return {"work_per_s": array, **_latency(timings), "array_points_per_s": array,
                "cli_rows_per_s": rows}


def _per_round_rate(timings, group=None):
    """(normalized, raw) units per second of one group (default: all
    operations), the median over rounds."""
    acc = {}
    for rnd, grp, units, raw, norm in timings:
        if group in (None, grp):
            a = acc.setdefault(rnd, [0, 0.0, 0.0])
            a[0] += units
            a[1] += raw
            a[2] += norm
    return (float(np.median([u / n for u, _, n in acc.values()])),
            float(np.median([u / r for u, r, _ in acc.values()])))


def _latency(timings):
    """op_p50_ms and op_p99_ms as (normalized, raw) over every operation."""
    norm = [n for *_, n in timings]
    raw = [r for *_, r, _ in timings]
    return {f"op_p{q}_ms": (1e3 * float(np.percentile(norm, q)),
                            1e3 * float(np.percentile(raw, q))) for q in (50, 99)}


def _median_s(timings, group):
    sel = [(norm, raw) for _, grp, _, raw, norm in timings if grp == group]
    return float(np.median([n for n, _ in sel])), float(np.median([r for _, r in sel]))


class Query:
    """One query of the scalar mix: a call or a CLI command, and its checker.

    ``check(value, exc, warns)`` returns ``(failed, wrong)``: ``failed`` when the
    outcome is not the documented one for a caller (an error, a warning, or a
    silently wrong value where an error is due), ``wrong`` a message when a
    successful call returned a value off the reference.
    """

    def __init__(self, kind, check, call=None, argv=None):
        self.kind = kind
        self.check = check
        self.call = call
        self.argv = argv


def _value_check(name, ref, scale):
    def check(value, exc, warns):
        if exc is not None or warns:
            return True, None
        units = error_units(float(value), ref, scale)
        return False, None if units <= ENVELOPE_C else f"{name}: error {units:.3g} eps units"
    return check


def _equal_check(name, want):
    def check(value, exc, warns):
        if exc is not None or warns:
            return True, None
        return False, None if value == want else f"{name}: {value!r} != {want!r}"
    return check


def _report_check(name, want, rel):
    def check(rep, exc, warns):
        if exc is not None or warns:
            return True, None
        ok = all(abs(g - w) <= rel * w for g, w in zip((rep.K_O, rep.K_I), want))
        return False, None if ok else f"{name}: {rep} != {want}"
    return check


def _error_check(ref=None, scale=1.0):
    """Due outcome ValueError/TypeError without a warning (or, when ``ref`` is
    given, the reference value itself)."""
    def check(value, exc, warns):
        if warns:
            return True, None
        if exc is not None:
            return not isinstance(exc, (ValueError, TypeError)), None
        ok = ref is not None and error_units(float(value), ref, scale) <= ENVELOPE_C
        return not ok, None
    return check


def _exit_check(code_due, parse=None):
    def check(value, exc, warns):
        code, text = value
        if warns or code != code_due:
            return True, None
        return False, parse(text) if parse else None
    return check


def power_distortion(alpha, d):
    """(K_O, K_I) of the radial stretch r^alpha in dimension d, from the closed form."""
    if alpha >= 1.0:
        return alpha ** (d - 1), alpha
    return 1.0 / alpha, alpha ** (1 - d)


class ScalarQueries(Workload):
    """One-point API calls, small CLI commands and invalid inputs, in a fixed mix.

    The pool holds a fixed count of every kind of query; each round runs the
    whole pool in a new seeded order.  ivt targets come from a fixed generator,
    not the seed, so the bisection work (and every traced call count) repeats.
    """

    IVT_TOL = 1e-9

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = self.rng
        rq, zoom = lib.rq, lib.zoom
        Ks = (2.0, float(rng.uniform(1.2, 10.0)))
        maps = []
        for K in Ks:
            f = rq.build_standard_map(K)
            h = rq.build_conjugated_map(f)
            lims = {k: zoom.limit_function(f if k[0] == "P" else h, k) for k in LIMIT_KINDS}
            maps.append((K, f, h, lims, ExactMaps(K)))
        self.pool = []
        add = self.pool.append

        def draw_x():
            return -float(np.exp2(rng.uniform(-10.0, 20.0)))

        def point(i, name, what, method, slope_power):
            K, f, h, lims, ex = maps[i % 2]
            x = draw_x()
            target = {"f": f, "h": h}.get(what) or lims[what]
            ref = ex.evaluate("f_inv" if method == "inverse_eval_log" else what, x)
            check = _value_check(name, ref, (abs(x) + 1.0) * K**slope_power)
            add(Query("api", check, lambda: getattr(target, method)(x)))

        for i in range(16):
            point(i, "f.eval_log", "f", "eval_log", 1)
        for i in range(8):
            point(i, "h.eval_log", "h", "eval_log", 2)
            point(i, "f.inverse_eval_log", "f", "inverse_eval_log", 1)
        for kind in LIMIT_KINDS:
            for i in range(4):
                point(i, f"{kind}.eval_log", kind, "eval_log", 1 if kind[0] == "P" else 2)
        for i in range(8):
            K, f, h, lims, ex = maps[i % 2]
            x = draw_x()
            add(Query("api", _equal_check("locate_interval", ex.locate(Fraction(x))),
                      lambda f=f, x=x: f.locate_interval(x)))
        for i in range(4):
            K, f, h, lims, ex = maps[i % 2]
            x = draw_x()
            want = float(ex.exponent(ex.locate(Fraction(x))))
            add(Query("api", _equal_check("local_exponent", want),
                      lambda f=f, x=x: f.local_exponent(x)))
        for i in range(4):
            K, f, h, lims, ex = maps[i % 2]
            x, d = draw_x(), 2 + i // 2
            target, power = (f, 1) if i % 2 == 0 else (h, 2)
            alpha = float(ex.exponent(ex.locate(Fraction(x))) ** power)
            add(Query("api", _report_check("pointwise_distortion", power_distortion(alpha, d),
                                           1e-12),
                      lambda t=target, d=d, x=x: lib.distortion.pointwise_distortion(t, d, x)))
        for i in range(4):
            K, f, h, lims, ex = maps[i % 2]
            n = int(rng.integers(1, 12))
            x = float((ex.breakpoint(n) + ex.breakpoint(n - 1)) / 2)
            d = 2 + i // 2
            want = power_distortion(float(ex.exponent(n)), d)
            add(Query("api", _report_check("finite_difference_distortion", want, 1e-6),
                      lambda f=f, d=d, x=x: lib.distortion.finite_difference_distortion(
                          f, d, x, 1e-6 * 2.0**x)))
        K2, f2, h2, lims2, ex2 = maps[0]
        fixed = np.random.default_rng(20_240_901)
        ivt_inputs = []
        while len(ivt_inputs) < 5:
            r0 = -float(fixed.uniform(0.05, 3.0 * float(ex2.P)))
            a, b = sorted(float(ex2.limit(k, Fraction(r0))) for k in ("P1", "P2"))
            if b - a >= 0.05:
                lam = float(fixed.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a)))
                ivt_inputs.append((r0, lam, len(ivt_inputs) + 1, b))
        for r0, lam, k, _ in ivt_inputs[:4]:
            add(Query("api", self._ivt_check(ex2, r0, lam, k),
                      lambda r0=r0, lam=lam, k=k: zoom.ivt_sample(f2, r0, lam, self.IVT_TOL, k)))

        # small CLI commands, each building a depth-10^4 map
        for i, name in enumerate(("f", "Q2")):
            K, f, h, lims, ex = maps[i]
            x = draw_x() / 2**10
            ref = ex.evaluate(name, x)
            scale = (abs(x) + 1.0) * K ** (1 if name == "f" else 2)
            add(Query("command", _exit_check(0, self._eval_parse(ref, scale)),
                      argv=["eval", "--map", name, f"--log2-r={x!r}", "--K", repr(K)]))
        # The CLI ivt command is the slowest query. Two identical ones make it
        # 2 of 93 queries, so the 99th percentile falls inside its cluster
        # rather than on the edge between two clusters.
        r0, lam, k, _ = ivt_inputs[4]
        for _ in range(2):
            add(Query("command", _exit_check(0, self._ivt_parse(ex2, r0, lam, k)),
                      argv=["ivt", f"--log2-r0={r0!r}", f"--log2-lambda={lam!r}", "--period",
                            str(k)]))
        K, f, h, lims, ex = maps[1]
        x = draw_x() / 2**10
        add(Query("command", _exit_check(0, self._iterate_parse(ex, x)),
                  argv=["iterate", f"--log2-r={x!r}", "--iterates", "10", "--K", repr(K)]))
        alpha, d = float(rng.uniform(0.2, 5.0)), 3
        add(Query("command", _exit_check(0, self._alpha_parse(power_distortion(alpha, d))),
                  argv=["distortion", "--alpha", repr(alpha), "--d", str(d)]))

        # invalid inputs: the due outcome is ValueError/TypeError, or exit 2
        r0, lam, k, hi = ivt_inputs[0]
        for call in (
            lambda: f2.eval_log(0.5),
            lambda: f2.eval_log(float("nan")),
            lambda: lib.powermap.breakpoint_log2(2.0, 1.5),
            lambda: rq.build_standard_map(1.0),
            lambda: zoom.rescaled_eval(f2, 0.0, -1.0),
            lambda: zoom.ivt_sample(f2, r0, hi + 0.5, self.IVT_TOL),
            lambda: lib.distortion.pointwise_distortion(f2, 2, f2.breakpoint(3)),
        ):
            add(Query("invalid", _error_check(), call))
        for argv in (["eval", "--map", "f", "--r", "2"],
                     ["zoom", "--map", "f", "--seq", "even", "--n", "0..3"]):
            add(Query("invalid", _exit_check(2), argv=argv))

        # known faults: each probe fails today, one failed operation per query
        deep = -1e300
        for call, ref in (
            (lambda: lib.powermap.breakpoint_log2(2, 2**63 - 1), None),
            (lambda: zoom.scale_at(f2, "even", 2**62), None),
            (lambda: f2.eval_log(deep), ex2.evaluate("f", deep)),
            (lambda: f2.inverse_eval_log(deep), ex2.evaluate("f_inv", deep)),
            (lambda: lib.distortion.max_distortion(f2, 2.5), None),
        ):
            add(Query("probe", _error_check(ref, -deep), call))
        add(Query("probe", _exit_check(2),
                  argv=["eval", "--K", "1e8", "--map", "f", "--r", "0.5"]))

    def _ivt_check(self, ex, r0, lam, k):
        lo, hi = float(ex.breakpoint(2 * k)), float(ex.breakpoint(2 * k - 1))

        def check(t, exc, warns):
            if exc is not None or warns:
                return True, None
            res = abs(float(ex.rescaled(ex.f, Fraction(t), Fraction(r0))) - lam)
            ok = lo <= t <= hi and res <= self.IVT_TOL + 1e-12
            return False, None if ok else f"ivt_sample: t={t} residual {res:.3g}"
        return check

    def _eval_parse(self, ref, scale):
        def parse(text):
            header, rows = csv_rows(text)
            ok = (header == ["r", "log2_r", "value", "log2_value"] and len(rows) == 1
                  and error_units(float(rows[0][3]), ref, scale) <= ENVELOPE_C)
            return None if ok else f"cli eval: {text!r}"
        return parse

    def _ivt_parse(self, ex, r0, lam, k):
        check = self._ivt_check(ex, r0, lam, k)

        def parse(text):
            header, rows = csv_rows(text)
            if header != ["log2_t", "achieved_value", "residual"] or len(rows) != 1:
                return f"cli ivt: {text!r}"
            return check(float(rows[0][0]), None, [])[1]
        return parse

    def _iterate_parse(self, ex, x):
        K = float(ex.K)

        def parse(text):
            header, rows = csv_rows(text)
            ok = header == ["m", "log2_value", "value"] and len(rows) == 11 and all(
                error_units(float(row[1]), ex.evaluate("h_iterate", x, m=int(row[0])),
                            (abs(x) + int(row[0]) * float(ex.P) + 1.0) * K * K) <= ENVELOPE_C
                for row in rows)
            return None if ok else f"cli iterate: {text!r}"
        return parse

    def _alpha_parse(self, want):
        def parse(text):
            header, rows = csv_rows(text)
            ok = header == ["m", "K_O", "K_I", "K_max"] and len(rows) == 2 and all(
                abs(float(row[j + 1]) - w) <= 1e-12 * w
                for row in rows for j, w in enumerate(want))
            return None if ok else f"cli distortion: {text!r}"
        return parse

    def round(self):
        for i in self.rng.permutation(len(self.pool)):
            q = self.pool[i]
            with warnings.catch_warnings(record=True) as warns:
                warnings.simplefilter("always")
                if q.argv is not None:
                    code, text, t0, t1 = run_cli(self.lib.cli, q.argv)
                    value, exc = (code, text), None
                else:
                    t0 = time.perf_counter()
                    try:
                        value, exc = q.call(), None
                    except Exception as err:  # the checker classifies the outcome
                        value, exc = None, err
                    t1 = time.perf_counter()
            self.record(t0, t1, "python", 1, q.kind)
            failed, wrong = q.check(value, exc, warns)
            self.failed += failed
            self.expect(wrong is None, wrong)
        self.rounds += 1

    def summarize(self, timings):
        rate = _per_round_rate(timings)
        lat = _latency(timings)
        return {"work_per_s": rate, **lat, "queries_per_s": rate,
                "query_p50_ms": lat["op_p50_ms"], "query_p99_ms": lat["op_p99_ms"]}


class VerifySuite(Workload):
    """``run_verification()`` at K = 2 and K = 3 (default depth) and K = 2, depth 30000.

    A call mixes one-point bisection with all-pairs passes over arrays of up
    to 30000 breakpoints; the ``array`` kernel normalizes it.
    """

    KINDS = ("array",)

    CONFIGS = ((2.0, 10_000), (3.0, 10_000), (2.0, 30_000))
    DRIFT_CHECK = "breakpoints_closed_form_vs_recurrence"
    #: checks that fail at this commit: the float64 cumsum recurrence drifts past
    #: 1e-9 at K = 3, while the closed form stays within half an ulp.  A check
    #: that stops failing lowers ``failed``; one not listed here is an error.
    KNOWN_FAILURES = {(3.0, 10_000): {DRIFT_CHECK}}

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.reports = {}

    def round(self):
        for i in self.rng.permutation(len(self.CONFIGS)):
            K, depth = self.CONFIGS[i]
            t0 = time.perf_counter()
            rep = self.lib.rq.run_verification(K=K, depth=depth)
            t1 = time.perf_counter()
            self.sample()
            checks = rep["checks"]
            self.record(t0, t1, "array", len(checks),
                        "default" if depth == 10_000 else "deep", attempted=len(checks))
            self.failed += rep["failed"]
            failing = {c["name"] for c in checks if not c["passed"]}
            self.expect(failing <= self.KNOWN_FAILURES.get((K, depth), set()),
                        f"verify K={K} depth={depth}: failing checks {sorted(failing)}")
            self.expect(rep["passed"] + rep["failed"] == len(checks) == 42,
                        f"verify K={K} depth={depth}: {len(checks)} checks")
            self.expect(all(math.isfinite(c["measured"]) for c in checks),
                        f"verify K={K} depth={depth}: non-finite residual")
            text = json.dumps(rep, sort_keys=True)
            if (K, depth) in self.reports:
                self.expect(text == self.reports[(K, depth)],
                            f"verify K={K} depth={depth}: report changed between rounds")
            else:
                self.reports[(K, depth)] = text
                if self.DRIFT_CHECK in failing:
                    self._check_known_failure(K, depth, checks)
        self.rounds += 1

    def _check_known_failure(self, K, depth, checks):
        """Locate the K = 3 failure apart from the program: the closed form is
        exact to half an ulp, and the float64 recurrence carries the error."""
        ex = ExactMaps(K)
        n = np.arange(1, depth + 1)
        exact = [ex.breakpoint(int(i)) for i in n]
        closed = self.lib.powermap.breakpoint_log2(K, n)
        self.expect(all(abs(Fraction(float(c)) - e) <= Fraction(abs(np.spacing(float(c)))) / 2
                        for c, e in zip(closed, exact)),
                    f"verify K={K}: closed-form breakpoints off by more than half an ulp")
        recurrence = -np.cumsum(1.0 / np.where(n % 2 == 1, K, 1.0 / K))
        drift = max(abs(float(Fraction(float(r)) - e)) for r, e in zip(recurrence, exact))
        measured = next(c["measured"] for c in checks if c["name"] == self.DRIFT_CHECK)
        self.expect(abs(measured - drift) <= 1e-11,
                    f"verify K={K}: residual {measured} is not the recurrence drift {drift}")

    def summarize(self, timings):
        return {
            "work_per_s": _per_round_rate(timings),
            **_latency(timings),
            "verify_s": _median_s(timings, "default"),
            "verify_deep_s": _median_s(timings, "deep"),
        }


WORKLOADS = {"bulk_eval": BulkEval, "scalar_queries": ScalarQueries,
             "verify_suite": VerifySuite}
