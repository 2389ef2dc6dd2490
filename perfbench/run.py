"""Benchmark of radialqc: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload bulk_eval --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: radialqc is imported from ./src and
nowhere else, and a checkout without it ends with exit code 1 and no result.

``--trace 0`` measures set-up in fresh interpreters, then runs whole rounds of
the workload for ``--seconds`` with reference samples interleaved
(``clock.Clock``) and reports the end-to-end metrics at reference speed.
``--trace 1`` runs a fixed number of rounds instead, untraced and traced
(``tracing.Tracer``) in ABBA order, so that every call count repeats, and
reports the per-layer metrics, at reference speed too, with the tracing
overhead.

The lines before the last give the environment, the reference times and, for
each metric, the raw value and the speed factor R/R0 beside the normalized one.
The last line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from clock import R0, Clock  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metrics and their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "op_p50_ms": "ms",
              "op_p99_ms": "ms"}

#: rounds of each kind (untraced, traced) in a traced run.
TRACE_ROUNDS = {"bulk_eval": 4, "scalar_queries": 10, "verify_suite": 2}

SETUP_REPEATS = 15
#: a fresh interpreter times its own import of radialqc and the build of its
#: maps, between samples of an import-like reference kernel
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def load_library():
    """radialqc and its six modules, from ./src of this checkout only."""
    if not (SRC / "radialqc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no radialqc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import radialqc
    from radialqc import cli, distortion, powermap, uqrmap, verify, zoom

    if Path(radialqc.__file__).resolve().parent != SRC / "radialqc":
        sys.exit(f"perfbench: radialqc imported from {radialqc.__file__}, not {SRC}")
    return SimpleNamespace(rq=radialqc, cli=cli, distortion=distortion, powermap=powermap,
                           uqrmap=uqrmap, verify=verify, zoom=zoom)


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


def measure_setup():
    """Median (normalized, raw) set-up seconds over fresh interpreters."""
    cmd = [sys.executable, str(SETUP_PROBE), str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True)  # untimed: fills the bytecode cache
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        seconds, before, after = map(float, out.split())
        raw.append(seconds)
        norm.append(seconds * R0["module_exec"] / (0.5 * (before + after)))
    return statistics.median(norm), statistics.median(raw)


def end_to_end(workload, seconds):
    setup = measure_setup()
    clock = Clock(workload.KINDS)
    workload.sample = clock.sample
    with clock:
        # at least two rounds, so that a slow machine does not change which
        # operations the medians are taken over
        deadline = time.perf_counter() + seconds
        while workload.rounds < 2 or time.perf_counter() < deadline:
            workload.round()
    values = workload.summarize(workload.timings(clock.split))
    values["setup_s"] = setup
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["peak_rss_mb"] = (rss, rss)
    print(f"# rounds {workload.rounds}, operations {len(workload.ops)}")
    print(f"# reference module_exec (set-up): R0 {R0['module_exec']:.6g} s")
    for kind in clock.refs:
        print(f"# reference {kind}: R0 {R0[kind]:.6g} s, median R "
              f"{clock.median_ref(kind):.6g} s over {len(clock.refs[kind])} samples")
    detail = {}
    for name, (norm, raw) in values.items():
        factor = norm / raw if name.endswith("_per_s") else raw / norm
        detail[name] = {"value": norm, "raw": raw, "R_over_R0": factor}
        print(f"# {name:<20} {norm:>14.6g} at reference speed   raw {raw:>14.6g}"
              f"   R/R0 {factor:.4f}")
    print(json.dumps({"detail": detail, "R0": R0, "env": environment()}))
    return {name: {"value": values[name][0], "unit": unit}
            for name, unit in END_TO_END.items()}


def traced(workload, lib, name):
    """Per-layer metrics from untraced and traced rounds in ABBA order, after
    one untraced warm-up round.

    The reference kernels are sampled as in an end-to-end run, so a span is
    split at the samples like an operation: its time, the samples left out, is
    at reference speed, with the kernel of the operation that holds it, and
    ``trace.overhead_s`` compares the two kinds of round at reference speed.
    """
    tracer = Tracer()
    clock = Clock(workload.KINDS)
    workload.sample = clock.sample
    traced_rounds = set()
    with clock:
        workload.round()  # warm-up, and the checks against the exact reference
        for i in range(TRACE_ROUNDS[name]):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    traced_rounds.add(workload.rounds)
                    tracer.install(lib.rq)
                try:
                    workload.round()
                finally:
                    tracer.uninstall()
    cost = [0.0, 0.0]
    cli_rows = 0
    for rnd, group, units, _, norm in workload.timings(clock.split):
        if rnd == 0:
            continue
        on = rnd in traced_rounds
        cost[on] += norm
        if on and group == "cli":
            cli_rows += units
    print(f"# {TRACE_ROUNDS[name]} untraced and {TRACE_ROUNDS[name]} traced rounds: "
          f"{cost[0]:.6g} s and {cost[1]:.6g} s at reference speed, {len(tracer.spans)} spans")
    print(json.dumps({"env": environment()}))
    op_starts = [t0 for *_, t0, _ in workload.ops]

    def seconds(t0, t1):
        kind = workload.ops[bisect.bisect_right(op_starts, t0) - 1][2]
        return clock.split(t0, t1, kind)[1]

    summary = tracer.summary(seconds)
    return {k: {"value": v, "unit": u}
            for k, (v, u) in layer_metrics(summary, cli_rows, cost[1] - cost[0]).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    workload = WORKLOADS[args.workload](lib, args.seed)
    if args.trace:
        metrics = traced(workload, lib, args.workload)
    else:
        metrics = end_to_end(workload, args.seconds)
    for message in workload.errors[:20]:
        print(f"# check failed: {message}")
    print(json.dumps({"correct": not workload.errors, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
