"""Command-line interface: subcommand behavior, exit codes, output schemas,
config precedence, and byte-level determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radialqc
from radialqc import cli, verify
from radialqc.cli import main
from radialqc.distortion import iterate_max_distortion, max_distortion, radial_power_distortion
from radialqc.powermap import build_standard_map
from radialqc.uqrmap import build_conjugated_map
from radialqc.verify import SCHEMA_VERSION
from radialqc.zoom import ivt_sample, limit_function, rescaled_eval, scale_at


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- reference: the whole-table formatter and row-by-row command bodies that
# the streaming column writer replaced; outputs must match them byte for byte


def ref_fmt_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def ref_emit_table(output_format, command, header, rows, extra=None):
    if output_format == "json":
        payload = {
            "command": command,
            "schema_version": SCHEMA_VERSION,
            "columns": list(header),
            "rows": [[ref_fmt_cell(c) for c in row] for row in rows],
        }
        if extra:
            payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([ref_fmt_cell(c) for c in row])
    for key, value in (extra or {}).items():
        writer.writerow([key] + [""] * (len(header) - 2) + [ref_fmt_cell(value)])
    return buf.getvalue()


def reference_run(*argv):
    """(exit code, table text) of a table command, one row at a time."""
    args = cli.build_parser().parse_args(list(argv))
    cfg = cli._load_config(args)
    f = build_standard_map(cfg.K)
    h = build_conjugated_map(f)
    code, extra = 0, None
    if args.command == "eval":
        target = cli._eval_target(args.map, f, h)
        rows = []
        for x in cli._log2_inputs(args, "r", repeatable=True):
            y = target.eval_log(x)
            rows.append((2.0**x, x, 2.0**y, y))
        header = ("r", "log2_r", "value", "log2_value")
    elif args.command == "zoom":
        map_ = f if args.map == "f" else h
        grid = cli._parse_grid_spec(args.grid, cfg)
        grid = grid[grid < 0.0]
        matched = {"f": {"even": "P1", "odd": "P2"}, "h": {"even": "Q1", "odd": "Q2"}}
        lf = limit_function(map_, args.against or matched[args.map][args.seq])
        lim = np.atleast_1d(lf.eval_log(grid))
        rows, max_dev = [], 0.0
        for n in cli._parse_n_spec(args.n)[0]:
            t = scale_at(map_, args.seq, n)
            res = np.atleast_1d(rescaled_eval(map_, t, grid))
            dev = np.abs(res - lim)
            max_dev = max(max_dev, float(dev.max()))
            # Python floats format as the numpy scalars did, and faster
            cols = (grid.tolist(), res.tolist(), lim.tolist(), dev.tolist())
            rows.extend((n, t, x, g, v, e) for x, g, v, e in zip(*cols))
        header = ("n", "log2_t", "log2_r", "rescaled", "matched_limit", "abs_dev")
        extra = {"max_abs_dev": max_dev}
        code = int(max_dev > cfg.tol and not args.no_assert)
    elif args.command == "ivt":
        [r0] = cli._log2_inputs(args, "r0")
        [lam] = cli._log2_inputs(args, "lambda")
        t = ivt_sample(f, r0, lam, cfg.tol, period_index=args.period)
        achieved = rescaled_eval(f, t, r0)
        rows = [(t, achieved, abs(achieved - lam))]
        header = ("log2_t", "achieved_value", "residual")
    elif args.command == "iterate":
        [x0] = cli._log2_inputs(args, "r")
        orbit = h.iterate(x0, np.arange(args.iterates + 1)).tolist()
        rows = [(m, y, 2.0**y) for m, y in enumerate(orbit)]
        header = ("m", "log2_value", "value")
    else:
        if args.alpha is not None:
            reports = [radial_power_distortion(args.alpha, cfg.dimension)]
        elif args.map == "f":
            reports = [max_distortion(f, cfg.dimension)]
        else:
            reports = iterate_max_distortion(h, cfg.dimension, args.iterates or 1)
        rows = [(m, rep.K_O, rep.K_I, rep.K_max) for m, rep in enumerate(reports, start=1)]
        sup = max(reports, key=lambda rep: rep.K_max)
        rows.append(("sup", sup.K_O, sup.K_I, sup.K_max))
        header = ("m", "K_O", "K_I", "K_max")
    return code, ref_emit_table(cfg.output_format, args.command, header, rows, extra)


#: the table command lines of the README
README_TABLES = (
    "eval --map f --K 2 --r 0.8",
    "eval --map P2 --K 2 --log2-r -0.5",
    "zoom --map f --seq even --n 1..10",
    "zoom --map h --seq odd --n 1..10 --format json",
    "ivt --log2-r0 -0.5 --lambda 0.67",
    "iterate --r 0.8 --iterates 10",
    "distortion --map h --d 2 --iterates 40",
    "distortion --alpha 2 --d 3",
)


class TestStreamedTables:
    @pytest.mark.parametrize("K", ["2", "1.37", "9.99"])
    def test_readme_lines_match_reference(self, capsys, K):
        for line in README_TABLES:
            for fmt in ("csv", "json"):
                argv = (*line.split(), "--K", K, "--format", fmt)
                code, out, _ = run_cli(capsys, *argv)
                assert (code, out) == reference_run(*argv), argv

    def test_other_tables_match_reference(self, capsys, tmp_path):
        target = tmp_path / "table.out"
        for line in (
            "zoom --map f --seq odd --n 3,1,2 --against P1 --no-assert --grid=-9:0:300",
            "zoom --map h --seq even --n 1..3 --against Q2 --grid=-4:-0.5:40",
            "eval --map Q2 --r 0.3 --r 1 --log2-r=-inf --log2-r=-700.25",
            "iterate --log2-r=-3.5 --iterates 0",
            "distortion --map f --d 3",
            "distortion --map h --d 3 --iterates 1",
            "distortion --map h --d 4 --iterates 2",
        ):
            for fmt in ("csv", "json"):
                argv = (*line.split(), "--K", "1.37", "--format", fmt)
                want_code, want = reference_run(*argv)
                assert run_cli(capsys, *argv)[:2] == (want_code, want), argv
                assert run_cli(capsys, *argv, "--output", str(target))[:2] == (want_code, "")
                assert target.read_bytes().decode() == want, argv

    def test_chunk_boundaries(self, capsys, monkeypatch):
        # tables longer than a chunk, and zoom blocks split across chunks
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
        for line in (
            "zoom --map h --seq odd --n 1..4 --grid=-5:-0.01:30",
            "zoom --map f --seq even --n 2..5 --grid=-5:-0.01:5",
            "iterate --r 0.8 --iterates 29",
            "distortion --map h --iterates 14",
        ):
            for fmt in ("csv", "json"):
                argv = (*line.split(), "--format", fmt)
                code, out, _ = run_cli(capsys, *argv)
                assert (code, out) == reference_run(*argv), argv

    def test_signed_zeros_format_apart(self, capsys):
        # floats are de-duplicated by bit pattern, so -0.0 is not printed as 0
        col = np.array([0.0, -0.0, 1.5, -0.0, 0.0, np.inf, -np.inf])
        ints = np.arange(col.size)
        for fmt in ("csv", "json"):
            cfg = argparse.Namespace(**{**cli.DEFAULTS, "output_format": fmt})
            cli._emit_table(cfg, "t", ("i", "x"), [(ints, col)], extra={"s": -0.0})
            want = ref_emit_table(fmt, "t", ("i", "x"), zip(ints.tolist(), col.tolist()),
                                  extra={"s": -0.0})
            assert capsys.readouterr().out == want

    @pytest.mark.parametrize("rows", [*range(10), 40])
    def test_short_chunks_match_the_unique_path(self, capsys, monkeypatch, rows):
        # a chunk of at most _FEW_ROWS rows formats each entry; _FEW_ROWS = -1
        # sends every chunk through np.unique, and the bytes must not change
        pool = [0.0, -0.0, 1.5, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300, 1 / 3]
        col = np.array((pool * 4)[:rows])
        ints = np.arange(rows) - 3
        labels = np.array(["sup"] * rows)
        radii = " --log2-r=-0.0 --log2-r=-inf" * (rows // 2) + " --r 0.3" * (rows % 2)
        lines = [f"eval --map Q2 --K 1.37{radii or ' --r 1'}",
                 f"distortion --map h --d 3 --iterates {max(rows, 1)}",  # and the sup row
                 f"iterate --log2-r=-3.5 --iterates {max(rows - 1, 0)}"]

        def outputs():
            got = []
            for fmt in ("csv", "json"):
                cfg = argparse.Namespace(**{**cli.DEFAULTS, "output_format": fmt})
                cli._emit_table(cfg, "t", ("i", "x", "s"), [(ints, col, labels)] * 2,
                                extra={"s": -0.0})
                got.append(capsys.readouterr().out)
                got += [run_cli(capsys, *line.split(), "--format", fmt) for line in lines]
            assert all(out[0] == 0 for out in got[1:4] + got[5:]), got
            return got

        short = outputs()
        monkeypatch.setattr(cli, "_FEW_ROWS", -1)
        assert short == outputs()
        want = ref_emit_table("csv", "t", ("i", "x", "s"),
                              [*zip(ints.tolist(), col.tolist(), labels.tolist())] * 2,
                              extra={"s": -0.0})
        assert short[0] == want


class TestBounds:
    def test_index_specs_checked_before_any_row(self, capsys):
        for spec in ("1..100000000000000000", "0..3", "0,3", "4503599627370497", "5..4"):
            code, out, err = run_cli(capsys, "zoom", "--map", "f", "--seq", "even", "--n", spec)
            assert (code, out) == (2, ""), spec
        # in the index bound but outside the log2 domain: still no partial table
        code, out, err = run_cli(capsys, "zoom", "--map", "f", "--seq", "even",
                                 "--n", "3..4503599627370496")
        assert (code, out) == (2, "")
        assert err == "radialqc: t must be >= -2**52\n"

    def test_iterate_count_checked_before_any_row(self, capsys):
        for argv in (("--r", "0.5", "--iterates", str(2**53 + 1)),
                     ("--r", "0.5", "--iterates", "-1"),
                     ("--r", "1", "--iterates", str(2**53)),  # leaves the log2 domain
                     ("--log2-r=-4503599627370495.0", "--iterates", "2")):  # an even count does
            code, out, _ = run_cli(capsys, "iterate", *argv)
            assert (code, out) == (2, ""), argv

    def test_distortion_count_checked_before_any_row(self, capsys):
        for count in ("0", "-1", str(2**53 + 1)):
            code, out, err = run_cli(capsys, "distortion", "--map", "h", "--iterates", count)
            assert (code, out) == (2, ""), count
            assert "--iterates" in err

    def test_verify_depth_bound_checked_before_any_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("verify started before its depth was checked")

        monkeypatch.setattr(verify, "build_standard_map", no_work)
        for depth in (str(2**24 + 1), "3000000000", str(2**63)):
            assert run_cli(capsys, "verify", "--depth", depth) == (
                2, "", "radialqc: invalid configuration value: depth must be at most 2**24\n")

    def test_zoom_memory_flat_in_rows(self, tmp_path):
        # one child process writes 9,990 zoom rows, then 99,900 in CSV and in
        # JSON, then 500,000 distortion rows, and reports its peak RSS after
        # each; the row-list writer took about 400 B a zoom row, 36 MB more for
        # the larger tables, and a list of reports about 70 MB for the last one
        child = (
            "import resource, sys\n"
            "from radialqc.cli import main\n"
            "for n, fmt in (('1..10', 'csv'), ('1..100', 'csv'), ('1..100', 'json')):\n"
            "    assert main(['zoom', '--map', 'f', '--seq', 'even', '--n', n,\n"
            "                 '--format', fmt, '--output', sys.argv[1]]) == 0\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "assert main(['distortion', '--map', 'h', '--iterates', '500000',\n"
            "             '--output', sys.argv[1]]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(radialqc.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "z")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        peaks = [int(v) / 1024.0 for v in out.split()]  # ru_maxrss is in kB on Linux
        assert len(peaks) == 4
        assert peaks[-1] - peaks[0] < 10.0, peaks

    def test_closed_pipe_ends_quietly(self):
        # the reader stops after 100 bytes of a 40 MB table: no traceback
        env = {**os.environ, "PYTHONPATH": str(Path(radialqc.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "radialqc", "iterate", "--r", "0.5", "--iterates", "1000000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"m,log2_value,value\r\n0,-1,0.5\r\n")
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("argv", [
        ("eval", "--map", "f", "--r", "0.5"),
        ("verify",),
        ("zoom", "--map", "f", "--seq", "even", "--n", "3"),
        ("ivt", "--r0", "0.5", "--lambda", "0.5"),
        ("iterate", "--r", "0.5"),
        ("distortion", "--map", "f"),
    ], ids=["table", "verify", "zoom", "ivt", "iterate", "distortion"])
    @pytest.mark.parametrize("missing_dir", [True, False, None],
                             ids=["missing dir", "a directory", "under a file"])
    def test_unopenable_output_is_a_usage_error(self, capsys, tmp_path, argv, missing_dir):
        if missing_dir is None:  # a path component is a regular file: NotADirectoryError
            (tmp_path / "plain").write_text("")
            target = tmp_path / "plain" / "out.txt"
        else:
            target = tmp_path / "absent" / "out.txt" if missing_dir else tmp_path
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("radialqc: cannot write output file: ") and err.count("\n") == 1


#: the settings each subcommand reads, hence the only shared flags it takes
COMMAND_FIELDS = {
    "eval": ("K", "output_format", "output_path"),
    "zoom": ("K", "grid_points", "tol", "output_format", "output_path"),
    "ivt": ("K", "tol", "output_format", "output_path"),
    "iterate": ("K", "output_format", "output_path"),
    "distortion": ("K", "dimension", "output_format", "output_path"),
    "verify": ("K", "depth", "grid_points", "tol", "output_path"),
}
FIELD_FLAGS = {"K": "--K", "dimension": "--d", "depth": "--depth", "grid_points": "--grid-points",
               "tol": "--tol", "output_format": "--format", "output_path": "--output"}


class TestFlags:
    def test_each_command_takes_the_flags_of_the_fields_it_reads(self):
        [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(COMMAND_FIELDS)
        shared = {"--config", *FIELD_FLAGS.values()}
        taken = 0
        for command, parser in sub.choices.items():
            dest = {o: a.dest for a in parser._actions for o in a.option_strings if o in shared}
            want = {"--config": "config"} | {FIELD_FLAGS[k]: k for k in COMMAND_FIELDS[command]}
            assert dest == want, command
            taken += len(dest)
        assert taken == 30  # each command took all eight, 48 in all

    @pytest.mark.parametrize("line", [
        "eval --map f --r 0.5 --depth 5",
        "ivt --log2-r0 -0.5 --lambda 0.67 --d 3",
        "iterate --r 0.8 --tol 1e-3",
        "distortion --map f --grid-points 9",
        "verify --format csv",
        "verify --d 2",  # not read since the linear distortion is the closed form 1
    ])
    def test_flag_of_a_field_not_read_is_a_usage_error(self, capsys, line):
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments" in err
        assert err.startswith(f"usage: radialqc {line.split()[0]} ")  # the command's usage

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        lines = [line.split()[1:] for line in block.splitlines() if line.startswith("radialqc ")]
        assert len(lines) >= 9
        for argv in lines:
            cli.build_parser().parse_args(argv)  # a flag the command does not take exits 2

    def test_allocation_failure_is_a_usage_error(self, capsys, monkeypatch):
        # stands in for numpy's error at a verify depth or a zoom grid the
        # machine cannot hold (3e9 grid points are above the bound, which refuses them first)
        text = "Unable to allocate 128 MiB for an array with shape (16777217,)"

        def no_memory(*args, **kwargs):
            raise MemoryError(text)

        def bare(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(verify, "_distinct_breakpoints_log2", no_memory)
        assert run_cli(capsys, "verify", "--depth", "16777216") == (2, "", f"radialqc: {text}\n")
        monkeypatch.setattr(np, "linspace", no_memory)
        zoom = ("zoom", "--map", "f", "--seq", "even", "--n", "1")
        for grid in ("--grid=-5:-1:262144", "--grid-points=262144"):
            assert run_cli(capsys, *zoom, grid) == (2, "", f"radialqc: {text}\n"), grid
        for grid, error in (
            ("--grid=-5:-1:3000000000", "grid spec count"),
            ("--grid-points=3000000000", "invalid configuration value: grid_points"),
        ):
            want = f"radialqc: {error} must be at most 2**18\n"
            assert run_cli(capsys, *zoom, grid) == (2, "", want), grid
        monkeypatch.setattr(np, "linspace", bare)  # still a one-line message
        assert run_cli(capsys, *zoom) == (2, "", "radialqc: MemoryError\n")


class TestEval:
    def test_f_linear_radius(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "f", "--K", "2", "--r", "0.8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "log2_r", "value", "log2_value"]
        assert float(rows[0][2]) == pytest.approx(0.64, abs=1e-12)

    def test_p2_log2_radius(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--map", "P2", "--K", "2", "--log2-r", "-0.5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == -0.25

    def test_h_at_unit_radius(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "h", "--K", "2", "--r", "1.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(0.70710678118654757, abs=1e-12)

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--map", "f", "--r", "0.8")
        _, rows = parse_csv(out)
        assert rows[0][0] == "0.80000000000000004"

    def test_missing_radius_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--map", "f")
        assert code == 2
        assert "radius" in err

    def test_out_of_range_radius(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--map", "f", "--r", "1.5")
        assert code == 2

    @pytest.mark.parametrize("r", [0.8129368937733594, 0.8681700575335697, 0.9532073275490012])
    def test_linear_radius_takes_the_bits_of_math_log2(self, r):
        # np.log2 took them through numpy's CPU dispatch, whose AVX-512 loop and
        # baseline loop differ in the last bit on these radii
        args = cli.build_parser().parse_args(["ivt", "--r0", repr(r), "--lambda", repr(r)])
        assert [x.hex() for x in cli._log2_inputs(args, "r0")] == [math.log2(r).hex()]
        assert [x.hex() for x in cli._log2_inputs(args, "lambda")] == [math.log2(r).hex()]


class TestZoom:
    def test_matched_even_sequence_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "zoom", "--map", "f", "--seq", "even", "--n", "1..10",
            "--grid=-5:-0.01:50",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "log2_t", "log2_r", "rescaled", "matched_limit", "abs_dev"]
        assert rows[-1][0] == "max_abs_dev"
        assert float(rows[-1][-1]) <= 1e-9

    def test_matched_odd_sequence_on_h(self, capsys):
        code, out, _ = run_cli(
            capsys, "zoom", "--map", "h", "--seq", "odd", "--n", "1..10",
            "--grid=-5:-0.01:50",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][-1]) <= 1e-9

    def test_mismatched_against_fails_without_no_assert(self, capsys):
        code, _, err = run_cli(
            capsys, "zoom", "--map", "f", "--seq", "even", "--n", "1..3",
            "--against", "P2", "--grid=-5:-0.01:50",
        )
        assert code == 1
        assert "exceeds tol" in err

    def test_non_finite_tol_rejected(self, capsys, tmp_path):
        # an infinite tol let the 0.75 mismatch above exit 0
        zoom = ("zoom", "--map", "f", "--seq", "even", "--n", "1", "--against", "P2")
        for tol in ("inf", "nan", "-1", "0"):
            code, out, err = run_cli(capsys, *zoom, "--tol", tol)
            assert (code, out) == (2, ""), tol
            assert "tol must be a finite real > 0" in err
        cfg = tmp_path / "run.json"
        cfg.write_text('{"tol": 1e400}')  # json reads it as inf
        code, out, _ = run_cli(capsys, *zoom, "--config", str(cfg))
        assert (code, out) == (2, "")

    def test_mismatched_against_with_no_assert(self, capsys):
        code, out, _ = run_cli(
            capsys, "zoom", "--map", "f", "--seq", "even", "--n", "1..3",
            "--against", "P2", "--no-assert", "--grid=-5:-0.01:50",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][-1]) >= 0.3

    def test_bad_grid_spec(self, capsys):
        # a -inf lo would make linspace emit NaNs, which zoom trips over
        # (-inf:0:5) or silently drops (-inf:-1:2)
        for grid in ("oops", "-inf:0:5", "-inf:-1:2", "nan:0:5"):
            code, out, _ = run_cli(
                capsys, "zoom", "--map", "f", "--seq", "even", "--n", "1", f"--grid={grid}"
            )
            assert (code, out) == (2, ""), grid


class TestIvt:
    def test_bracketed_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "ivt", "--K", "2", "--log2-r0", "-0.5", "--lambda", "0.67"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["log2_t", "achieved_value", "residual"]
        assert float(rows[0][2]) <= 1e-9

    def test_endpoint_snaps_to_even_breakpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "ivt", "--K", "2", "--log2-r0", "-0.5", "--lambda", "0.5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == -2.5

    def test_no_bracket_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "ivt", "--K", "2", "--log2-r0", "-0.5", "--lambda", "0.95"
        )
        assert code == 1
        assert "bracket" in err

    def test_bad_period_exits_two(self, capsys):
        for period in ("0", "-3", str(2**53)):
            code, out, err = run_cli(capsys, "ivt", "--log2-r0", "-0.5", "--lambda", "0.67",
                                     "--period", period)
            assert (code, out) == (2, ""), period
            assert "period_index must lie in 1..2**52" in err

    def test_nan_target_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "ivt", "--K", "2", "--log2-r0", "-0.5", "--log2-lambda", "nan"
        )
        assert code == 2 and out == ""
        assert "not NaN" in err and "bracket" not in err


class TestIterate:
    def test_orbit_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "iterate", "--K", "2", "--r", "1.0", "--iterates", "4"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "log2_value", "value"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0
        assert float(rows[2][1]) == -2.5  # exact two-step similarity
        assert float(rows[4][1]) == -5.0


class TestDistortion:
    def test_map_f(self, capsys):
        code, out, _ = run_cli(capsys, "distortion", "--map", "f", "--K", "2", "--d", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][0] == "sup"
        assert float(rows[-1][3]) == 4.0

    def test_map_h_iterates(self, capsys):
        code, out, _ = run_cli(
            capsys, "distortion", "--map", "h", "--K", "2", "--d", "2", "--iterates", "40"
        )
        assert code == 0
        _, rows = parse_csv(out)
        body, sup = rows[:-1], rows[-1]
        assert [float(r[3]) for r in body[:4]] == [4.0, 1.0, 4.0, 1.0]
        assert float(sup[3]) == 4.0

    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "distortion", "--alpha", "2", "--d", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == 4.0

    def test_requires_exactly_one_target(self, capsys):
        code, _, _ = run_cli(capsys, "distortion", "--d", "3")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "distortion", "--map", "f", "--alpha", "2", "--d", "3"
        )
        assert code == 2

    def test_overflow_is_an_input_error(self, capsys):
        for argv in (("--alpha", "2", "--d", "2000"), ("--alpha", "1e300", "--d", "3"),
                     ("--map", "f", "--d", "2000"), ("--map", "h", "--d", "2000")):
            code, out, err = run_cli(capsys, "distortion", *argv)
            assert (code, out) == (2, ""), argv
            assert "overflows" in err

    def test_dimension_has_no_bound_of_its_own(self, capsys):
        # a value in float64 is a row, in any dimension; one that overflows exits 2
        code, out, _ = run_cli(capsys, "distortion", "--alpha", "1", "--d", "10000000")
        assert code == 0
        assert out == "m,K_O,K_I,K_max\r\n1,1,1,1\r\nsup,1,1,1\r\n"
        code, out, err = run_cli(capsys, "distortion", "--map", "f", "--d", "100000")
        assert (code, out) == (2, "")
        assert err == "radialqc: distortion of alpha = 2.0 in dimension 100000 overflows float64\n"

    def test_iterates_only_with_map_h(self, capsys):
        for target in (("--map", "f"), ("--alpha", "2")):
            code, _, err = run_cli(capsys, "distortion", *target, "--iterates", "5")
            assert code == 2
            assert "--iterates" in err


class TestVerify:
    def test_passes_and_reports(self, capsys):
        # K = 3 at the default depth: a plain float64 running sum of the
        # breakpoint recurrence drifted past 1e-9 there
        for flags in (("--depth", "300"), ("--K", "3")):
            code, out, _ = run_cli(capsys, "verify", *flags, "--grid-points", "120")
            assert code == 0
            report = json.loads(out)
            assert report["schema_version"] == 2
            assert report["all_passed"] is True
            assert report["failed"] == 0
            names = {c["name"] for c in report["checks"]}
            assert "breakpoints_closed_form_vs_recurrence" in names
            assert "zoom_h_odd_scales_match_q2" in names

    def test_sub_roundoff_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--depth", "300", "--grid-points", "120", "--tol", "1e-15"
        )
        assert code == 1
        report = json.loads(out)
        assert report["failed"] > 0


class TestConfigAndOutput:
    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"K": 3.0}))
        # config K = 3: f(0.5) sits on the second interval with slope 1/3
        _, out, _ = run_cli(
            capsys, "eval", "--config", str(cfg), "--map", "f", "--r", "0.5"
        )
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(-8.0 / 9.0 - 1.0 / 3.0, abs=1e-12)
        # explicit flag wins over the file
        _, out, _ = run_cli(
            capsys, "eval", "--config", str(cfg), "--K", "2", "--map", "f", "--r", "0.5"
        )
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == -1.25

    def test_unknown_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        # counts are integers, never truncated (2.9 used to run in dimension 2);
        # null and booleans are not coerced (null used to write a file "None",
        # true to run with tol = 1.0)
        for bad in (
            {"kay": 3.0}, {"dimension": 2.9}, {"grid_points": 3.7}, {"depth": 300.5},
            {"output_path": None}, {"tol": True}, {"K": None}, {"dimension": False},
            {"depth": 1}, {"depth": -5}, {"K": "2"},
        ):
            cfg.write_text(json.dumps(bad))
            code, _, _ = run_cli(
                capsys, "eval", "--config", str(cfg), "--map", "f", "--r", "0.5"
            )
            assert code == 2, bad
        assert not (tmp_path / "None").exists()
        cfg.write_text(json.dumps({"tol": True}))
        code, _, _ = run_cli(
            capsys, "zoom", "--config", str(cfg), "--map", "f", "--seq", "even", "--n", "1",
            "--against", "P2",
        )
        assert code == 2

    def test_unreadable_config_rejected(self, capsys, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):  # no file, and a directory
            code, out, err = run_cli(
                capsys, "eval", "--config", str(path), "--map", "f", "--r", "0.5"
            )
            assert (code, out) == (2, "") and err.startswith("radialqc: cannot read config file: ")
            assert err.count("\n") == 1, err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--map", "f", "--r", "0.8", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert payload["columns"] == ["r", "log2_r", "value", "log2_value"]

    def test_byte_identical_reruns(self, capsys):
        argv = ("zoom", "--map", "f", "--seq", "odd", "--n", "1..5", "--grid=-6:-0.01:40")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--map", "f", "--r", "0.8", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["r", "log2_r", "value", "log2_value"]
        assert len(rows) == 1

    def test_rfc4180_crlf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--map", "f", "--r", "0.8")
        assert "\r\n" in out

    def test_bad_K_rejected(self, capsys):
        # 1e8: consecutive breakpoints coincide in float64
        for bad_K in ("1.0", "1e8"):
            code, _, _ = run_cli(capsys, "eval", "--map", "f", "--K", bad_K, "--r", "0.5")
            assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("ivt", "--r0", "0.5", "--log2-r0", "-1", "--lambda", "0.6"), "r0"),
    (("iterate",), "r"),
])
def test_radius_needs_exactly_one_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"radialqc: give exactly one of --{flag} or --log2-{flag}\n")


def test_example_values_from_interface_docs(capsys):
    # K = 3 cross-check computed by hand: log2 C_2 = 1/9 - 1, slope 1/3
    code, out, _ = run_cli(capsys, "eval", "--map", "f", "--K", "3", "--log2-r", "-1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx((1.0 / 9.0 - 1.0) - 1.0 / 3.0, abs=1e-12)
    assert math.isclose(float(rows[0][2]), 2.0 ** float(rows[0][3]), rel_tol=1e-12)
