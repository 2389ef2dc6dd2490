"""Command-line interface: subcommand behavior, exit codes, output schemas,
config precedence, and byte-level determinism."""

import csv
import io
import json
import math

import pytest

from radialqc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
        code, _, _ = run_cli(
            capsys, "zoom", "--map", "f", "--seq", "even", "--n", "1", "--grid=oops"
        )
        assert code == 2


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
            assert report["schema_version"] == 1
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

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--map", "f", "--r", "0.8", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
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


def test_example_values_from_interface_docs(capsys):
    # K = 3 cross-check computed by hand: log2 C_2 = 1/9 - 1, slope 1/3
    code, out, _ = run_cli(capsys, "eval", "--map", "f", "--K", "3", "--log2-r", "-1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx((1.0 / 9.0 - 1.0) - 1.0 / 3.0, abs=1e-12)
    assert math.isclose(float(rows[0][2]), 2.0 ** float(rows[0][3]), rel_tol=1e-12)
