"""The benchmark's tracer still sees every evaluator layer.

``perfbench/tracing.py`` wraps the public methods found in each class's own
body, and names the spans of ``LimitFunction.eval_log`` by the limit's kind, so
an evaluator inherited or moved out of its class would drop its per-layer
span from the benchmark without any error.
"""

import sys
from pathlib import Path

import radialqc

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_every_evaluator_records_its_span():
    tracer = Tracer()
    tracer.install(radialqc)
    try:
        f = radialqc.build_standard_map(2.0)
        h = radialqc.build_conjugated_map(f)
        f.eval_log(-1.0)
        f.inverse_eval_log(-1.0)
        h.eval_log(-1.0)
        for kind in radialqc.LIMIT_KINDS:
            radialqc.limit_function(h if kind[0] == "Q" else f, kind).eval_log(-1.0)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {
        "powermap.eval_log", "powermap.inverse_eval_log", "uqrmap.eval_log",
        "zoom.P1.eval_log", "zoom.P2.eval_log", "zoom.Q1.eval_log", "zoom.Q2.eval_log",
    } <= names
    assert radialqc.PiecewisePowerMap.eval_log.__name__ == "eval_log"
    assert not hasattr(radialqc.PiecewisePowerMap.eval_log, "__wrapped__")
