"""Command-line front end.

Subcommands: eval, zoom, ivt, iterate, distortion, verify.  Each takes
``--config`` and the flags (``_FLAGS``) of the settings it reads; a config
file may hold any setting for any command.  Precedence is CLI flags >
JSON config file > built-in defaults.  Tables are CSV (RFC 4180, floats at 17
significant digits) or JSON, written to stdout or a file by one column writer,
``_emit_table``: each command hands it column arrays, and it streams them in
chunks of ``_CHUNK_ROWS`` rows, formatting each distinct value of a column
once per chunk, so memory stays flat in the row count.  Inputs are checked
before the first row is written, and output is byte-identical for identical
inputs.  Exit codes: 0 success, 1 assertion/invariant failure (an unbracketed
ivt target included) or a closed output pipe, 2 usage or input error (a count
too large to allocate included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import sys

import numpy as np

from .distortion import (
    iterate_max_distortion,
    max_distortion,
    radial_power_distortion,
)
from .powermap import (MAX_BREAKPOINT_INDEX, _count, _index_array, _period, _to_linear,
                       _to_log2, build_standard_map)
from .uqrmap import build_conjugated_map
from .verify import _MAX_GRID_POINTS, SCHEMA_VERSION, _checked_settings, run_verification
from .zoom import (
    _MATCHED,
    EVEN_BREAKPOINTS,
    LIMIT_KINDS,
    ODD_BREAKPOINTS,
    BracketError,
    ivt_sample,
    limit_function,
    rescaled_eval,
    scale_at,
)


class UsageError(ValueError):
    pass


#: the numeric settings, their defaults and checks are those of ``run_verification``,
#: but for the dimension that ``distortion`` reads
_SETTINGS = inspect.signature(run_verification).parameters
DEFAULTS = {
    **{key: p.default for key, p in _SETTINGS.items()},
    "dimension": 2,
    "output_format": "csv",
    "output_path": "-",
}


def _load_config(args) -> argparse.Namespace:
    """Every setting (flags > config file > ``DEFAULTS``), checked for every command."""
    merged = dict(DEFAULTS)
    if args.config:
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
        if any(v is None or isinstance(v, bool) for v in loaded.values()):
            raise UsageError("config values must be numbers or strings, not null or booleans")
        merged.update(loaded)
    merged.update({key: value for key, value in vars(args).items() if key in DEFAULTS})
    try:
        cfg = argparse.Namespace(**_checked_settings(**{key: merged[key] for key in _SETTINGS}),
                                 dimension=_count(merged["dimension"], "dimension", 2))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration value: {exc}") from exc
    cfg.output_format, cfg.output_path = str(merged["output_format"]), str(merged["output_path"])
    if cfg.output_format not in ("csv", "json"):
        raise UsageError('output format must be "csv" or "json"')
    return cfg


#: rows formatted and written at a time: bounds the writer's memory, and is
#: large enough that a zoom's repeated grid, limit and scale values format once
_CHUNK_ROWS = 16384


def _output(cfg):
    """The output stream: stdout, or the ``--output`` file opened for writing."""
    if cfg.output_path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(cfg.output_path, "w", encoding="utf-8", newline="")
    except OSError as exc:  # here only: a closed stdout pipe must stay a quiet exit 1
        raise UsageError(f"cannot write output file: {exc}") from exc


#: chunks of at most this many rows format every entry: there np.unique's
#: fixed cost (about 13 us a column) exceeds what formatting each value once saves
_FEW_ROWS = 16


def _cells(col):
    """Text of each entry of one column: floats at 17 significant digits,
    integers by ``str``, strings as they are.  Past ``_FEW_ROWS`` entries each
    distinct number is formatted once, floats keyed by bit pattern so that
    0.0 and -0.0 stay apart; the text is the same either way."""
    kind = col.dtype.kind
    if kind not in "fiu":
        return col.tolist()
    text_of = "%.17g".__mod__ if kind == "f" else str
    if len(col) <= _FEW_ROWS:
        return list(map(text_of, col.tolist()))
    uniq, inverse = np.unique(col.view(np.int64) if kind == "f" else col, return_inverse=True)
    text = list(map(text_of, (uniq.view(np.float64) if kind == "f" else uniq).tolist()))
    return list(map(text.__getitem__, inverse.tolist()))


def _emit_table(cfg, command, header, blocks, extra=None):
    """Write a table as CSV or JSON, streamed in chunks of ``_CHUNK_ROWS`` rows.

    ``blocks`` yields tuples of equal-length 1-D column arrays, one per header
    entry (float64, integer or string).  ``extra`` holds summary values known
    before the first row: one trailing CSV row each, top-level keys in JSON.
    CSV is RFC 4180 with CRLF line endings (no cell needs quoting); JSON has
    the layout of ``json.dumps(indent=2, sort_keys=True)``, every cell a string.
    """
    extra = extra or {}
    if cfg.output_format == "json":
        payload = {"command": command, "schema_version": SCHEMA_VERSION,
                   "columns": list(header), "rows": [], **extra}
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split('"rows": []')
        head += '"rows": ['
        row_open, cell_sep, row_close, row_sep = '\n    [\n      "', '",\n      "', '"\n    ]', ","
        end = "\n  ]" + tail + "\n"
    else:
        head = ",".join(header) + "\r\n"
        row_open, cell_sep, row_close, row_sep = "", ",", "\r\n", ""
        end = "".join(
            key + "," * (len(header) - 1) + "%.17g" % value + "\r\n" for key, value in extra.items()
        )
    between = row_close + row_sep + row_open
    with _output(cfg) as out:
        out.write(head)
        lead = row_open
        for columns in blocks:
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                cells = [_cells(col[lo:lo + _CHUNK_ROWS]) for col in columns]
                out.write(lead + between.join(map(cell_sep.join, zip(*cells))) + row_close)
                lead = row_sep + row_open
        out.write(end)


def _parse_n_spec(spec):
    """Scale indices from "a..b" (a range), "a,b,c" or a single integer, and
    the largest of them.

    Each must lie in 1..2**52, so that the breakpoint index 2n stays within
    ``MAX_BREAKPOINT_INDEX``; the bounds are checked without listing a range.
    """
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            ns = range(int(lo), int(hi) + 1)
            if not ns:
                raise ValueError
            least, most = ns[0], ns[-1]
        else:
            ns = [int(tok) for tok in spec.split(",")]
            least, most = min(ns), max(ns)
    except ValueError as exc:
        raise UsageError(f"bad index spec {spec!r}: use N, a,b,c or a..b") from exc
    _index_array([least, most], "zoom sequence indices", 1, MAX_BREAKPOINT_INDEX // 2)
    return ns, most


def _parse_grid_spec(spec, cfg):
    if spec is None:
        return np.linspace(-3.0 * _period(cfg.K), 0.0, cfg.grid_points)
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: use lo:hi:count in log2") from exc
    if not (np.isfinite(lo) and lo < hi <= 0.0 and count >= 2):
        raise UsageError("grid spec needs finite lo < hi <= 0 and count >= 2")
    return np.linspace(lo, hi, _count(count, "grid spec count", 2, _MAX_GRID_POINTS))


def _log2_inputs(args, flag, repeatable=False):
    """Log2 values of an input given as ``--{flag}`` in (0, 1] or as
    ``--log2-{flag}`` <= 0 (a NaN passes, for the callee to judge), linear ones
    first: all of a repeatable input, else the one flag given, whose last
    occurrence wins."""
    linear, log2 = getattr(args, flag) or [], getattr(args, "log2_" + flag) or []
    if not repeatable:
        linear, log2 = linear[-1:], log2[-1:]
        if len(linear) + len(log2) != 1:
            raise UsageError(f"give exactly one of --{flag} or --log2-{flag}")
    linear = _to_log2(linear, f"--{flag}", allow_zero_radius=False).tolist()
    if any(x > 0.0 for x in log2):
        raise UsageError(f"--log2-{flag} must be <= 0")
    return linear + [float(x) for x in log2]


def _eval_target(name, f, h):
    """The map ``--map`` names: f, h, or a zoom limit, whose source is always f."""
    return {"f": f, "h": h}[name] if name in _MATCHED else limit_function(f, name)


def _cmd_eval(cfg, args) -> int:
    f = build_standard_map(cfg.K)
    target = _eval_target(args.map, f, build_conjugated_map(f))
    xs = np.array(_log2_inputs(args, "r", repeatable=True))
    if not xs.size:
        raise UsageError("give at least one radius via --r or --log2-r")
    ys = target.eval_log(xs)
    _emit_table(cfg, "eval", ("r", "log2_r", "value", "log2_value"),
                [(_to_linear(xs), xs, _to_linear(ys), ys)])
    return 0


def _cmd_zoom(cfg, args) -> int:
    f = build_standard_map(cfg.K)
    map_ = _eval_target(args.map, f, build_conjugated_map(f))
    ns, deepest = _parse_n_spec(args.n)
    grid = _parse_grid_spec(args.grid, cfg)
    grid = grid[grid < 0.0]
    # the deepest point evaluated: a domain error surfaces before any pass
    rescaled_eval(map_, scale_at(map_, args.seq, deepest), grid[0])
    kind = args.against or _MATCHED[args.map][0 if args.seq == EVEN_BREAKPOINTS else 1]
    lim = limit_function(map_, kind).eval_log(grid)
    per_block = max(1, _CHUNK_ROWS // grid.size)

    def blocks():
        """(scale indices, scales, rescaled values, deviations), a block of
        scales at a time."""
        for lo in range(0, len(ns), per_block):
            n = np.array(ns[lo:lo + per_block])
            t = scale_at(map_, args.seq, n)
            rescaled = rescaled_eval(map_, t[:, None], grid)
            yield n, t, rescaled, np.abs(rescaled - lim)

    # a first pass finds the summary, which JSON writes before the rows
    max_dev = max(float(dev.max()) for *_, dev in blocks())
    columns = (
        (np.repeat(n, grid.size), np.repeat(t, grid.size), np.tile(grid, n.size),
         rescaled.ravel(), np.tile(lim, n.size), dev.ravel())
        for n, t, rescaled, dev in blocks()
    )
    _emit_table(cfg, "zoom", ("n", "log2_t", "log2_r", "rescaled", "matched_limit", "abs_dev"),
                columns, extra={"max_abs_dev": max_dev})
    if max_dev > cfg.tol and not args.no_assert:
        print(f"zoom deviation {max_dev:.3e} exceeds tol {cfg.tol:.3e}", file=sys.stderr)
        return 1
    return 0


def _cmd_ivt(cfg, args) -> int:
    f = build_standard_map(cfg.K)
    [r0] = _log2_inputs(args, "r0")
    [lam] = _log2_inputs(args, "lambda")
    t = ivt_sample(f, r0, lam, cfg.tol, period_index=args.period)
    achieved = rescaled_eval(f, t, r0)
    columns = tuple(np.array([[t], [achieved], [abs(achieved - lam)]]))
    _emit_table(cfg, "ivt", ("log2_t", "achieved_value", "residual"), [columns])
    return 0


def _cmd_iterate(cfg, args) -> int:
    f = build_standard_map(cfg.K)
    h = build_conjugated_map(f)
    [x0] = _log2_inputs(args, "r")
    _index_array(args.iterates, "--iterates", 0, MAX_BREAKPOINT_INDEX)
    if args.iterates:
        # the two deepest iterates, one odd and one even: a domain error of
        # either surfaces here, before any row is written
        h.iterate(x0, np.array([args.iterates - 1, args.iterates]))

    def blocks():
        for lo in range(0, args.iterates + 1, _CHUNK_ROWS):
            m = np.arange(lo, min(lo + _CHUNK_ROWS, args.iterates + 1))
            y = h.iterate(x0, m)
            yield m, y, _to_linear(y)

    _emit_table(cfg, "iterate", ("m", "log2_value", "value"), blocks())
    return 0


def _cmd_distortion(cfg, args) -> int:
    if (args.alpha is None) == (args.map is None):
        raise UsageError("give exactly one of --map {f,h} or --alpha")
    if args.iterates is not None and args.map != "h":
        raise UsageError("--iterates applies to --map h only")
    count = 1 if args.iterates is None else args.iterates
    _index_array(count, "--iterates", 1, MAX_BREAKPOINT_INDEX)
    if args.alpha is not None:
        reports = [radial_power_distortion(args.alpha, cfg.dimension)]
    elif args.map == "f":
        reports = [max_distortion(build_standard_map(cfg.K), cfg.dimension)]
    else:
        # the reports of h^m alternate: row m repeats that of m = 1 or m = 2
        h = build_conjugated_map(build_standard_map(cfg.K))
        reports = iterate_max_distortion(h, cfg.dimension, min(count, 2))
    table = np.array([(rep.K_O, rep.K_I, rep.K_max) for rep in reports])
    sup = table[[np.argmax(table[:, 2])]]  # the first report of the largest K_max

    def blocks():
        for lo in range(1, count + 1, _CHUNK_ROWS):
            m = np.arange(lo, min(lo + _CHUNK_ROWS, count + 1))
            yield (m, *table[(m - 1) % len(reports)].T)
        yield (np.array(["sup"]), *sup.T)

    _emit_table(cfg, "distortion", ("m", "K_O", "K_I", "K_max"), blocks())
    return 0


def _cmd_verify(cfg, args) -> int:
    report = run_verification(**{key: getattr(cfg, key) for key in _SETTINGS})
    with _output(cfg) as out:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_passed"] else 1


#: the flag of each setting, a key of ``DEFAULTS``; one not given sets no attribute of the args
_FLAGS = {
    "K": ("--K", {"type": float, "help": "distortion parameter, 1 < K <= 2**64"}),
    "dimension": ("--d", {"type": int, "help": "ambient dimension (>= 2)"}),
    "depth": ("--depth", {"type": int, "help": "breakpoint depth of the verify checks"}),
    "grid_points": ("--grid-points", {"type": int, "help": "default grid size"}),
    "tol": ("--tol", {"type": float, "help": "tolerance for assertions"}),
    "output_format": ("--format", {"choices": ("csv", "json"), "help": "output format"}),
    "output_path": ("--output", {"help": 'output path, or "-" for stdout'}),
}


def _add_config(parser, *keys):
    """``--config`` and the flags of the settings ``keys``."""
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for key in keys:
        flag, kwargs = _FLAGS[key]
        parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialqc",
        description="Piecewise power-law radial maps: evaluation, zooms, dynamics, distortion.",
    )
    # no flag is abbreviated: a prefix of a flag (verify's --d of --depth) is an unknown flag
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("eval", help="evaluate f, h, or a zoom limit at given radii")
    _add_config(p, "K", "output_format", "output_path")
    p.add_argument("--map", required=True, choices=(*_MATCHED, *LIMIT_KINDS))
    p.add_argument("--r", type=float, action="append", help="radius in (0, 1]; repeatable")
    p.add_argument("--log2-r", type=float, action="append", help="log2 radius <= 0; repeatable")
    p.set_defaults(func=_cmd_eval, parser=p)

    p = sub.add_parser("zoom", help="rescaled zoom family vs its closed-form limit")
    _add_config(p, "K", "grid_points", "tol", "output_format", "output_path")
    p.add_argument("--map", required=True, choices=tuple(_MATCHED))
    p.add_argument("--seq", required=True, choices=(EVEN_BREAKPOINTS, ODD_BREAKPOINTS))
    p.add_argument("--n", required=True, help="scale indices: N, a,b,c or a..b")
    p.add_argument("--grid", help="log2 grid as lo:hi:count (default spans 3 periods)")
    p.add_argument("--against", choices=LIMIT_KINDS,
                   help="compare against this limit instead of the matched one")
    p.add_argument("--no-assert", dest="no_assert", action="store_true",
                   help="report deviation without failing the exit code")
    p.set_defaults(func=_cmd_zoom, parser=p)

    p = sub.add_parser("ivt", help="find a scale whose zoom value hits a target")
    _add_config(p, "K", "tol", "output_format", "output_path")
    p.add_argument("--r0", type=float, action="append", help="radius in (0, 1]")
    p.add_argument("--log2-r0", type=float, action="append")
    p.add_argument("--lambda", type=float, action="append", help="target value in (0, 1]")
    p.add_argument("--log2-lambda", type=float, action="append")
    p.add_argument("--period", type=int, default=1, help="breakpoint period index (>= 1)")
    p.set_defaults(func=_cmd_ivt, parser=p)

    p = sub.add_parser("iterate", help="iterate the conjugated map from a start radius")
    _add_config(p, "K", "output_format", "output_path")
    p.add_argument("--r", type=float, action="append")
    p.add_argument("--log2-r", type=float, action="append")
    p.add_argument("--iterates", type=int, default=10, help="number of steps (>= 0)")
    p.set_defaults(func=_cmd_iterate, parser=p)

    p = sub.add_parser("distortion", help="distortion reports for f, h iterates, or a power map")
    _add_config(p, "K", "dimension", "output_format", "output_path")
    p.add_argument("--map", choices=("f", "h"))
    p.add_argument("--alpha", type=float, help="pure radial power exponent")
    p.add_argument("--iterates", type=int, help="iterate count for --map h")
    p.set_defaults(func=_cmd_distortion, parser=p)

    p = sub.add_parser("verify", help="run the invariant suite, emit a JSON report")
    _add_config(p, "K", "depth", "grid_points", "tol", "output_path")
    p.set_defaults(func=_cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the usage of the subcommand that did not take them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _load_config(args)
        return args.func(cfg, args)
    # UsageError, BracketError, and a count too large to allocate (MemoryError)
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"radialqc: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, BracketError) else 2


def console_main():
    """Entry point of ``radialqc`` and ``python -m radialqc``.  A reader that
    closes the pipe early ends the run quietly with exit 1, stdout pointed at
    devnull so that the flush at exit cannot fail again (the SIGPIPE note of
    the ``signal`` module docs)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
