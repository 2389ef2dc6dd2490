"""Per-call time of the one-point API and of one in-process CLI command.

Prints a Markdown table, each figure the best of 5 timeit repeats, and appends
it to the file named by ``$GITHUB_STEP_SUMMARY`` when that is set.  It holds
no threshold: the figures are there to be read next to those of earlier runs.

    PYTHONPATH=src python ci/point_latency.py
"""

import contextlib
import io
import os
import timeit

from radialqc import build_conjugated_map, build_standard_map, limit_function
from radialqc import cli

f = build_standard_map(2.0)
h = build_conjugated_map(f)
p2 = limit_function(f, "P2")


def cli_eval():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "--map", "f", "--log2-r=-0.3"])


CALLS = (
    ("f.eval_log(-3.7)", lambda: f.eval_log(-3.7), 20_000),
    ("h.eval_log(-3.7)", lambda: h.eval_log(-3.7), 20_000),
    ("P2.eval_log(-3.7)", lambda: p2.eval_log(-3.7), 20_000),
    ("f.locate_interval(-3.7)", lambda: f.locate_interval(-3.7), 20_000),
    ("h.local_exponent(-3.7)", lambda: h.local_exponent(-3.7), 20_000),
    ("build_standard_map(2.0)", lambda: build_standard_map(2.0), 2_000),
    ('cli.main(["eval", "--map", "f", "--log2-r=-0.3"])', cli_eval, 200),
)


def report():
    lines = ["| call | µs per call |", "|---|---:|"]
    for label, fn, number in CALLS:
        best = min(timeit.repeat(fn, number=number, repeat=5)) / number
        lines.append(f"| `{label}` | {best * 1e6:.2f} |")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a", encoding="utf-8") as out:
            out.write("### One-point calls\n\n" + table)


if __name__ == "__main__":
    report()
