"""Command-line front end.

Subcommands: eval, zoom, ivt, iterate, distortion, verify.  Configuration
precedence is CLI flags > JSON config file > built-in defaults; outputs are
CSV (RFC 4180, floats at 17 significant digits) or JSON, written to stdout or
a file, and byte-identical for identical inputs.  Exit codes: 0 success,
1 assertion/invariant failure (including an unbracketed ivt target),
2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .distortion import (
    iterate_max_distortion,
    max_distortion,
    radial_power_distortion,
)
from .powermap import build_standard_map
from .uqrmap import build_conjugated_map
from .verify import SCHEMA_VERSION, run_verification
from .zoom import (
    BracketError,
    ivt_sample,
    limit_function,
    rescaled_eval,
    scale_at,
)

DEFAULTS = {
    "K": 2.0,
    "dimension": 2,
    "depth": 10_000,
    "grid_points": 1000,
    "tol": 1e-9,
    "output_format": "csv",
    "output_path": "-",
}

_MATCHED_LIMIT = {
    ("f", "even"): "P1",
    ("f", "odd"): "P2",
    ("h", "even"): "Q1",
    ("h", "odd"): "Q2",
}


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    K: float
    dimension: int
    depth: int
    grid_points: int
    tol: float
    output_format: str
    output_path: str


def _load_config(args) -> RunConfig:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a single JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for flag, key in (
        ("K", "K"),
        ("d", "dimension"),
        ("depth", "depth"),
        ("grid_points", "grid_points"),
        ("tol", "tol"),
        ("format", "output_format"),
        ("output", "output_path"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    try:
        cfg = RunConfig(
            K=float(merged["K"]),
            dimension=int(merged["dimension"]),
            depth=int(merged["depth"]),
            grid_points=int(merged["grid_points"]),
            tol=float(merged["tol"]),
            output_format=str(merged["output_format"]),
            output_path=str(merged["output_path"]),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration value: {exc}") from exc
    if not cfg.K > 1.0:
        raise UsageError("K must be > 1")
    if cfg.dimension < 2:
        raise UsageError("dimension must be >= 2")
    if cfg.depth < 2:
        raise UsageError("depth must be >= 2")
    if cfg.grid_points < 2:
        raise UsageError("grid_points must be >= 2")
    if not cfg.tol > 0.0:
        raise UsageError("tol must be > 0")
    if cfg.output_format not in ("csv", "json"):
        raise UsageError('output format must be "csv" or "json"')
    return cfg


def _fmt_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_text(cfg: RunConfig, text: str):
    if cfg.output_path == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_table(cfg: RunConfig, command, header, rows, extra=None):
    if cfg.output_format == "json":
        payload = {
            "command": command,
            "schema_version": SCHEMA_VERSION,
            "columns": list(header),
            "rows": [[c if isinstance(c, str) else _fmt_cell(c) for c in row] for row in rows],
        }
        if extra:
            payload.update(extra)
        _write_text(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)  # default \r\n line endings per RFC 4180
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(c) for c in row])
    if extra:
        for key, value in extra.items():
            writer.writerow([key] + [""] * (len(header) - 2) + [_fmt_cell(value)])
    _write_text(cfg, buf.getvalue())


def _parse_n_spec(spec):
    """Index list from "a..b", "a,b,c", or a single integer."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
            if lo < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad index spec {spec!r}: use N, a,b,c or a..b") from exc


def _parse_grid_spec(spec, cfg: RunConfig):
    if spec is None:
        period = cfg.K + 1.0 / cfg.K
        return np.linspace(-3.0 * period, 0.0, cfg.grid_points)
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: use lo:hi:count in log2") from exc
    if not (lo < hi <= 0.0 and count >= 2):
        raise UsageError("grid spec needs lo < hi <= 0 and count >= 2")
    return np.linspace(lo, hi, count)


def _gather_log2_radii(args):
    out = []
    for r in args.r or []:
        if not (0.0 < r <= 1.0):
            raise UsageError("--r values must lie in (0, 1]")
        out.append(float(np.log2(r)))
    for x in args.log2_r or []:
        if x > 0.0:
            raise UsageError("--log2-r values must be <= 0")
        out.append(float(x))
    if not out:
        raise UsageError("give at least one radius via --r or --log2-r")
    return out


def _eval_target(name, f, h):
    if name == "f":
        return f
    if name == "h":
        return h
    return limit_function(h if name.startswith("Q") else f, name)


def _cmd_eval(cfg: RunConfig, args) -> int:
    f = build_standard_map(cfg.K, cfg.depth)
    h = build_conjugated_map(f)
    target = _eval_target(args.map, f, h)
    rows = []
    for x in _gather_log2_radii(args):
        y = target.eval_log(x)
        rows.append((2.0**x, x, 2.0**y, y))
    _emit_table(cfg, "eval", ("r", "log2_r", "value", "log2_value"), rows)
    return 0


def _cmd_zoom(cfg: RunConfig, args) -> int:
    f = build_standard_map(cfg.K, cfg.depth)
    h = build_conjugated_map(f)
    map_ = f if args.map == "f" else h
    n_list = _parse_n_spec(args.n)
    if any(n < 1 for n in n_list):
        raise UsageError("zoom sequence indices must be >= 1")
    grid = _parse_grid_spec(args.grid, cfg)
    grid = grid[grid < 0.0]
    kind = args.against or _MATCHED_LIMIT[(args.map, args.seq)]
    lf = limit_function(map_, kind)
    rows = []
    max_dev = 0.0
    lim = np.atleast_1d(lf.eval_log(grid))
    for n in n_list:
        t = scale_at(map_, args.seq, n)
        res = np.atleast_1d(rescaled_eval(map_, t, grid))
        dev = np.abs(res - lim)
        max_dev = max(max_dev, float(dev.max()))
        for x, g, l, e in zip(grid, res, lim, dev):
            rows.append((n, t, x, g, l, e))
    _emit_table(
        cfg,
        "zoom",
        ("n", "log2_t", "log2_r", "rescaled", "matched_limit", "abs_dev"),
        rows,
        extra={"max_abs_dev": max_dev},
    )
    if max_dev > cfg.tol and not args.no_assert:
        print(f"zoom deviation {max_dev:.3e} exceeds tol {cfg.tol:.3e}", file=sys.stderr)
        return 1
    return 0


def _one_of(args, linear_name, log_name, what):
    linear = getattr(args, linear_name)
    logv = getattr(args, log_name)
    if (linear is None) == (logv is None):
        raise UsageError(f"give exactly one of --{what} or --log2-{what}")
    if linear is not None:
        if not (0.0 < linear <= 1.0):
            raise UsageError(f"--{what} must lie in (0, 1]")
        return float(np.log2(linear))
    if logv > 0.0:
        raise UsageError(f"--log2-{what} must be <= 0")
    return float(logv)


def _cmd_ivt(cfg: RunConfig, args) -> int:
    f = build_standard_map(cfg.K, cfg.depth)
    r0 = _one_of(args, "r0", "log2_r0", "r0")
    lam = _one_of(args, "lam", "log2_lam", "lambda")
    t = ivt_sample(f, r0, lam, cfg.tol, period_index=args.period)
    achieved = rescaled_eval(f, t, r0)
    _emit_table(
        cfg,
        "ivt",
        ("log2_t", "achieved_value", "residual"),
        [(t, achieved, abs(achieved - lam))],
    )
    return 0


def _cmd_iterate(cfg: RunConfig, args) -> int:
    f = build_standard_map(cfg.K, cfg.depth)
    h = build_conjugated_map(f)
    x0 = _one_of(args, "r", "log2_r", "r")
    if args.iterates < 0:
        raise UsageError("--iterates must be >= 0")
    orbit = h.iterate(x0, np.arange(args.iterates + 1)).tolist()
    rows = [(m, y, 2.0**y) for m, y in enumerate(orbit)]
    _emit_table(cfg, "iterate", ("m", "log2_value", "value"), rows)
    return 0


def _cmd_distortion(cfg: RunConfig, args) -> int:
    if (args.alpha is None) == (args.map is None):
        raise UsageError("give exactly one of --map {f,h} or --alpha")
    rows = []
    if args.alpha is not None:
        if args.alpha <= 0:
            raise UsageError("--alpha must be > 0")
        rep = radial_power_distortion(args.alpha, cfg.dimension)
        rows.append((1, rep.K_O, rep.K_I, rep.K_max))
        sup = rep
    else:
        f = build_standard_map(cfg.K, cfg.depth)
        h = build_conjugated_map(f)
        if args.map == "f":
            rep = max_distortion(f, cfg.dimension)
            rows.append((1, rep.K_O, rep.K_I, rep.K_max))
            sup = rep
        else:
            m_max = args.iterates if args.iterates is not None else 1
            if m_max < 1:
                raise UsageError("--iterates must be >= 1 for the conjugated map")
            reports = iterate_max_distortion(h, cfg.dimension, m_max)
            for m, rep in enumerate(reports, start=1):
                rows.append((m, rep.K_O, rep.K_I, rep.K_max))
            sup = max(reports, key=lambda rep: rep.K_max)
    rows.append(("sup", sup.K_O, sup.K_I, sup.K_max))
    _emit_table(cfg, "distortion", ("m", "K_O", "K_I", "K_max"), rows)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    report = run_verification(
        K=cfg.K,
        dimension=cfg.dimension,
        depth=cfg.depth,
        grid_points=cfg.grid_points,
        tol=cfg.tol,
    )
    _write_text(cfg, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_passed"] else 1


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--K", type=float, help="distortion parameter K > 1")
    parser.add_argument("--d", type=int, help="ambient dimension (>= 2)")
    parser.add_argument("--depth", type=int, help="cached breakpoint depth")
    parser.add_argument("--grid-points", dest="grid_points", type=int, help="default grid size")
    parser.add_argument("--tol", type=float, help="tolerance for assertions")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--output", help='output path, or "-" for stdout')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialqc",
        description="Piecewise power-law radial maps: evaluation, zooms, dynamics, distortion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate f, h, or a zoom limit at given radii")
    _add_common(p)
    p.add_argument("--map", required=True, choices=("f", "h", "P1", "P2", "Q1", "Q2"))
    p.add_argument("--r", type=float, action="append", help="radius in (0, 1]; repeatable")
    p.add_argument("--log2-r", dest="log2_r", type=float, action="append",
                   help="log2 radius <= 0; repeatable")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("zoom", help="rescaled zoom family vs its closed-form limit")
    _add_common(p)
    p.add_argument("--map", required=True, choices=("f", "h"))
    p.add_argument("--seq", required=True, choices=("even", "odd"))
    p.add_argument("--n", required=True, help="scale indices: N, a,b,c or a..b")
    p.add_argument("--grid", help="log2 grid as lo:hi:count (default spans 3 periods)")
    p.add_argument("--against", choices=("P1", "P2", "Q1", "Q2"),
                   help="compare against this limit instead of the matched one")
    p.add_argument("--no-assert", dest="no_assert", action="store_true",
                   help="report deviation without failing the exit code")
    p.set_defaults(func=_cmd_zoom)

    p = sub.add_parser("ivt", help="find a scale whose zoom value hits a target")
    _add_common(p)
    p.add_argument("--r0", type=float, help="radius in (0, 1]")
    p.add_argument("--log2-r0", dest="log2_r0", type=float)
    p.add_argument("--lambda", dest="lam", type=float, help="target value in (0, 1]")
    p.add_argument("--log2-lambda", dest="log2_lam", type=float)
    p.add_argument("--period", type=int, default=1, help="breakpoint period index (>= 1)")
    p.set_defaults(func=_cmd_ivt)

    p = sub.add_parser("iterate", help="iterate the conjugated map from a start radius")
    _add_common(p)
    p.add_argument("--map", default="h", choices=("h",))
    p.add_argument("--r", type=float)
    p.add_argument("--log2-r", dest="log2_r", type=float)
    p.add_argument("--iterates", type=int, default=10, help="number of steps (>= 0)")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("distortion", help="distortion reports for f, h iterates, or a power map")
    _add_common(p)
    p.add_argument("--map", choices=("f", "h"))
    p.add_argument("--alpha", type=float, help="pure radial power exponent")
    p.add_argument("--iterates", type=int, help="iterate count for --map h")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("verify", help="run the invariant suite, emit a JSON report")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(cfg, args)
    except BracketError as exc:
        print(f"radialqc: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, TypeError) as exc:
        print(f"radialqc: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
