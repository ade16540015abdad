import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wderiv import (build_table, cli, closed_forms, numeric, parse_table,
                    properties, table_to_json, triangle, verify)
from wderiv.cli import main
from conftest import csv_text, src_env
from test_tableio import BAD_CSV_TABLES, BAD_JSON_TABLES

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_csv_contains_row3(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "3")
        assert code == 0
        assert "3,1,8\n" in out
        assert out.startswith("n,k,beta\n")

    def test_json_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [["1"]]

    def test_csv_row6(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "6")
        assert code == 0
        assert "6,0,7776\n" in out

    def test_round_trips_through_parser(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "12")
        assert code == 0
        assert parse_table(out) == build_table(12)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "triangle.csv"
        code, out, _ = run_cli(capsys, "table", "--n-max", "3", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_bytes().decode("ascii").endswith("3,2,2\n")

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n-max", "3",
                               "--out", "/nonexistent-dir/t.csv")
        assert code == 2
        assert "error" in err

    def test_bad_n_max(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n-max", "0")
        assert code == 2

    @pytest.mark.parametrize("fmt, to_text", [("csv", csv_text),
                                              ("json", table_to_json)])
    def test_stdout_bytes_equal_out_file(self, capsys, tmp_path, fmt, to_text):
        path = tmp_path / f"table.{fmt}"
        cmd = [sys.executable, "-m", "wderiv", "table", "--n-max", "30", "--format", fmt]
        printed = subprocess.run(cmd, capture_output=True, timeout=60, check=True,
                                 env=src_env())
        written = subprocess.run(cmd + ["--out", str(path)], capture_output=True,
                                 timeout=60, check=True, env=src_env())
        assert written.stdout == b""
        assert printed.stdout == path.read_bytes()
        assert printed.stdout == to_text(build_table(30)).encode("ascii")
        # the streamed decimal rows against the int table's writer, row by row
        for n in range(1, 61):
            argv = ["table", "--n-max", str(n), "--format", fmt]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
            expected = to_text(build_table(n))
            assert out == expected, n
            assert path.read_bytes() == expected.encode("ascii"), n

    @pytest.mark.parametrize("n_max", [1, 2, 30, 255, 400])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_golden_hashes(self, capsys, tmp_path, n_max, fmt):
        # sha256 of each export as written before the rows were made in decimal
        name = f"table_n{n_max}.{fmt}"
        lines = (GOLDEN / "table_exports.sha256").read_text(encoding="ascii")
        digest = dict(reversed(line.split()) for line in lines.splitlines())[name]
        path = tmp_path / name
        argv = ["table", "--n-max", str(n_max), "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestTableDigitLimit:
    """Past the interpreter's int-string limit `table` fails before any output.

    Under a limit of 640 digits, row 256 is the first with a longer entry.
    """

    @pytest.fixture
    def limit_640(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_is_not_created(self, capsys, tmp_path, limit_640, fmt):
        path = tmp_path / f"table.{fmt}"
        code, out, err = run_cli(capsys, "table", "--n-max", "260", "--format", fmt,
                                 "--out", str(path))
        assert code == 2
        assert err.startswith("error: Exceeds the limit (640 digits) for integer "
                              "string conversion")
        assert out == ""
        assert not path.exists()

    def test_message_is_cpythons(self, capsys, limit_640):
        with pytest.raises(ValueError) as cpython:
            str(10**640)
        code, _, err = run_cli(capsys, "table", "--n-max", "256")
        assert code == 2
        assert err == f"error: {cpython.value}\n"

    def test_limit_is_exact(self, capsys, limit_640):
        # row 256's largest entry has 642 digits, no other entry more
        table = build_table(256)
        assert 10**641 <= max(table.rows[256]) < 10**642
        sys.set_int_max_str_digits(641)
        code, out, err = run_cli(capsys, "table", "--n-max", "256", "--format", "json")
        assert (code, out) == (2, "")
        assert "Exceeds the limit (641 digits)" in err
        sys.set_int_max_str_digits(642)
        code, out, _ = run_cli(capsys, "table", "--n-max", "256", "--format", "json")
        assert code == 0
        assert out == table_to_json(table)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_stays_empty(self, capsys, limit_640, fmt):
        code, out, err = run_cli(capsys, "table", "--n-max", "260", "--format", fmt)
        assert code == 2
        assert "Exceeds the limit (640 digits)" in err
        assert out == ""

    def test_last_row_within_the_limit_is_written(self, capsys, limit_640):
        code, out, _ = run_cli(capsys, "table", "--n-max", "255", "--format", "json")
        assert code == 0
        assert out == table_to_json(build_table(255))

    def test_huge_n_max_is_refused_promptly(self, tmp_path):
        # the bound on the entries stops at its first partial product past
        # 10**4300, so a million rows cost no more to refuse than 1331
        path = tmp_path / "table.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "table", "--n-max", "1000000",
             "--out", str(path)],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: Exceeds the limit (4300 digits) for "
                                      "integer string conversion")
        assert not path.exists()


class TestVerifyCommand:
    def test_small_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
        assert code == 0
        assert out.startswith("OK")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["failures"] == []

    def test_route_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4",
                               "--routes", "recurrence,carlitz")
        assert code == 0

    def test_full_battery_to_40(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "40")
        assert code == 0
        assert out.startswith("OK")

    def test_unknown_route(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "4",
                               "--routes", "recurrence,turbo")
        assert code == 2
        assert "unknown routes" in err

    @pytest.mark.parametrize("routes", ["", ",", ",,"])
    def test_empty_route_list_is_usage_error(self, capsys, routes):
        code, out, err = run_cli(capsys, "verify", "--n-max", "4", "--routes", routes)
        assert (code, out) == (2, "")
        assert err == f"error: --routes names no route: {routes!r}\n"

    def test_corrupted_table_detected(self, capsys, tmp_path):
        table = build_table(6)
        rows = [list(r) for r in table.rows]
        rows[4][2] += 1
        corrupted = {"n_max": 6,
                     "rows": [[str(b) for b in row] for row in rows[1:]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(corrupted), encoding="ascii")
        code, out, _ = run_cli(capsys, "verify", "--table", str(path))
        assert code == 1
        assert "FAIL first failure: n=4 k=2" in out

    def test_clean_loaded_table(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(table_to_json(build_table(6)), encoding="ascii")
        code, out, _ = run_cli(capsys, "verify", "--table", str(path))
        assert code == 0

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_piped_in(self, tmp_path, fmt):
        """``table | verify --table /dev/stdin`` reads the pipe once; a
        bumped table piped in gives the report of the same bytes in a file."""
        wderiv = [sys.executable, "-m", "wderiv"]
        table = subprocess.Popen(wderiv + ["table", "--n-max", "12", "--format", fmt],
                                 stdout=subprocess.PIPE, env=src_env())
        with table:
            piped = subprocess.run(wderiv + ["verify", "--table", "/dev/stdin"],
                                   stdin=table.stdout, capture_output=True, text=True,
                                   timeout=60, env=src_env())
        assert (table.returncode, piped.returncode, piped.stderr) == (0, 0, "")
        assert piped.stdout.startswith("OK n_max=12 ")
        rows = [list(row) for row in build_table(12).rows]
        rows[9][4] += 1
        bumped = triangle.CoefficientTable(n_max=12, rows=tuple(map(tuple, rows)))
        text = csv_text(bumped) if fmt == "csv" else table_to_json(bumped)
        path = tmp_path / f"bumped.{fmt}"
        path.write_text(text, encoding="ascii")
        piped, filed = (
            subprocess.run(wderiv + ["verify", "--table", source], input=text,
                           capture_output=True, text=True, timeout=60, env=src_env())
            for source in ("/dev/stdin", str(path)))
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            filed.returncode, filed.stdout, filed.stderr)
        assert piped.returncode == 1
        assert piped.stdout.startswith("FAIL first failure: n=9 k=4 ")

    @pytest.mark.parametrize("name", sorted(BAD_JSON_TABLES))
    def test_corrupt_json_table_is_usage_error(self, tmp_path, name):
        path = tmp_path / "corrupt.json"
        path.write_text(BAD_JSON_TABLES[name], encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "verify", "--table", str(path)],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("name", sorted(BAD_CSV_TABLES))
    def test_corrupt_csv_table_is_usage_error(self, tmp_path, name):
        path = tmp_path / "corrupt.csv"
        path.write_text(BAD_CSV_TABLES[name], encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "verify", "--table", str(path)],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_lambda_samples_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "4", "--lambda-samples", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lambda-samples 3" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_table_with_horizon_below_one_is_usage_error(self, tmp_path, n_max):
        path = tmp_path / "t5.csv"
        path.write_text(csv_text(build_table(5)), encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "verify", "--table", str(path),
             "--n-max", n_max],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: n_max must be >= 1, got {n_max}\n"

    def test_built_table_with_horizon_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "0")
        assert (code, out, err) == (2, "", "error: n_max must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv, message", [
        (("--n-max", "0"), "n_max must be >= 1, got 0"),
        (("--n-max", "-3"), "n_max must be >= 1, got -3"),
        (("--n-max", "0", "--routes", "nope"), "unknown routes: ['nope']")],
        ids=["zero", "negative", "unknown-route"])
    @pytest.mark.parametrize("with_table", [False, True])
    def test_both_forms_refuse_bad_arguments_alike(
            self, capsys, tmp_path, with_table, argv, message):
        """One argument check: with and without ``--table`` the same
        arguments are refused with the same message, the routes before the
        horizon (with ``--table``, after the file is read).  The ``--table``
        form runs as ``python -m wderiv``."""
        if with_table:
            path = tmp_path / "t5.csv"
            path.write_text(csv_text(build_table(5)), encoding="ascii")
            proc = subprocess.run(
                [sys.executable, "-m", "wderiv", "verify", *argv, "--table", str(path)],
                capture_output=True, text=True, timeout=60, env=src_env())
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_table_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--table", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("text", [b"n,k,beta\n1,0,\xc3\xa91\n",
                                      b'{"n_max":1,"rows":[["\xc3\xa9"]]}'])
    def test_non_ascii_table_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "table"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "verify", "--table", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'ascii' codec can't decode byte 0xc3")


class TestVerifyHorizons:
    """The last row each verify stage reaches, seen through spies.

    The spies only watch: every check runs for real, so the default run is
    the whole battery and must pass.
    """

    @pytest.fixture
    def reached(self, monkeypatch):
        seen = {"routes": 0, "properties": 0, "identities": 0}

        def spy(stage, func, at):
            def wrapped(*args, **kwargs):
                seen[stage] = max(seen[stage], at(*args))
                return func(*args, **kwargs)
            return wrapped

        for name, row_of in closed_forms.ROUTE_ROWS.items():
            monkeypatch.setitem(closed_forms.ROUTE_ROWS, name,
                                spy("routes", row_of, lambda n: n))
        # the kernel-sum routes are decided on their inner values
        monkeypatch.setattr(closed_forms, "_kernel_inner_values",
                            spy("routes", closed_forms._kernel_inner_values,
                                lambda n, names: n))
        monkeypatch.setattr(properties, "is_positive",
                            spy("properties", properties.is_positive, len))
        # the inversion shares the routes' pass; the alternating sum is the
        # identities' own
        monkeypatch.setattr(triangle, "_alternating_sum",
                            spy("identities", triangle._alternating_sum, len))
        return seen

    @staticmethod
    def horizons(seen):
        return (seen["routes"], seen["properties"], seen["identities"])

    def test_defaults(self, capsys, reached):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert self.horizons(reached) == (40, 200, 40)

    def test_n_max_sets_every_stage(self, capsys, reached):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "12")
        assert code == 0
        assert self.horizons(reached) == (12, 12, 12)

    @pytest.mark.parametrize("n_max, want", [(None, (40, 200, 40)), ("12", (12, 12, 12))])
    def test_kernel_sum_routes_alone(self, capsys, reached, n_max, want):
        options = [] if n_max is None else ["--n-max", n_max]
        code, out, _ = run_cli(capsys, "verify", "--routes",
                               "explicit,rstirling,bernoulli,fdiff", *options)
        assert code == 0
        assert self.horizons(reached) == want

    def test_table_caps_every_stage(self, capsys, reached, tmp_path):
        path = tmp_path / "t12.json"
        path.write_text(table_to_json(build_table(12)), encoding="ascii")
        code, out, _ = run_cli(capsys, "verify", "--table", str(path),
                               "--n-max", "100")
        assert code == 0
        assert self.horizons(reached) == (12, 12, 12)


class TestEvalCommand:
    def test_first_derivative_at_e(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", str(math.e), "--n", "1")
        assert code == 0
        assert "W(x) = 1\n" in out
        assert "0.183939720585721" in out  # 1/(2e)

    def test_taylor_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "0", "--n", "1",
                               "--route", "taylor")
        assert code == 0
        assert "d^1W/dx^1 (taylor) = 1\n" in out

    def test_second_derivative_at_e(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", str(math.e), "--n", "2")
        assert code == 0
        assert "-0.050750731213729" in out  # -3/(8 e^2)

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--x", "1", "--n", "1")
        assert code == 0
        assert "W(x) = 0.56714329040978384\n" in out

    def test_fd_stencil_below_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x=1e-300", "--n", "2",
                                 "--route", "finite_difference")
        assert (code, out) == (2, "")
        assert err == ("error: finite-difference stencil x +- n*h = 1e-300 +- "
                       "2*0.0001220703125 reaches below 0: its low point is "
                       "-0.000244140625\n")

    @pytest.mark.parametrize("x, n, h", [("1e70", 5, "5.804665191941207e+67"),
                                         ("1e300", 3, "7.40095979741405e+296")])
    def test_fd_step_power_overflow_exits_2(self, capsys, monkeypatch, x, n, h):
        # rejected before any W
        monkeypatch.setattr(numeric, "lambert_w", None)
        monkeypatch.setattr(numeric, "_lambert", None)
        code, out, err = run_cli(capsys, "eval", f"--x={x}", "--n", str(n),
                                 "--route", "finite_difference")
        assert (code, out) == (2, "")
        assert err == (f"error: finite-difference route at x = {float(x)}, n = {n}: "
                       f"(2h)^n overflows binary64 for the step h = {h}\n")

    def test_taylor_below_zero(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x=-1e-3", "--n", "2",
                                 "--route", "taylor")
        assert (code, err) == (0, "")
        want = numeric.w_derivative_taylor(2, -1e-3).value
        assert out == f"d^2W/dx^2 (taylor) = {want:.17g}\n"

    def test_taylor_overflow_names_the_route_n_and_x(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x", "0.3", "--n", "5000",
                                 "--route", "taylor")
        assert (code, out) == (2, "")
        assert err == ("numeric fault: d^5000W/dx^5000 (taylor) at x = 0.3: "
                       "the series passes binary64 (math range error)\n")

    def test_taylor_overflow_at_zero_names_the_route_n_and_x(self, capsys):
        # it printed "numeric fault: int too large to convert to float"
        code, out, err = run_cli(capsys, "eval", "--x", "0", "--n", "144",
                                 "--route", "taylor")
        assert (code, out) == (2, "")
        assert err == ("numeric fault: d^144W/dx^144 (taylor) at x = 0.0: the series "
                       "passes binary64 (int too large to convert to float)\n")
        code, out, _ = run_cli(capsys, "eval", "--x", "0", "--n", "143", "--route", "taylor")
        assert code == 0
        assert out.endswith(f"d^143W/dx^143 (taylor) = {float(143 ** 142):.17g}\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_names_n(self, capsys, n):
        code, out, err = run_cli(capsys, "eval", "--x", "1", "--n", n)
        assert (code, out, err) == (2, "", f"error: n must be >= 1, got {n}\n")

    def test_domain_error_exits_2(self, capsys):
        for argv in (("--x", "-1", "--n", "1"),
                     ("--x", "0", "--n", "1"),  # closed form needs x > 0
                     ("--x", "1", "--n", "0"),
                     ("--x", "1", "--n", "6", "--route", "finite_difference")):
            code, out, err = run_cli(capsys, "eval", *argv)
            assert code == 2, argv
            assert out == "", argv  # nothing is written before the error
            assert err.startswith("error: "), argv

    @pytest.mark.parametrize("x, n, value", [("10", 138, "-inf"), ("1e308", 3, "0.0"),
                                             ("1e6", 80, "-0.0"),
                                             ("1e10", 35, "2.780702483116e-312")])
    def test_derivative_outside_the_normal_range_exits_2(self, capsys, x, n, value):
        # the library still returns the value; only eval refuses to print it
        table = build_table(n)
        assert repr(numeric.w_derivative(n, float(x), table).value) == value
        code, out, err = run_cli(capsys, "eval", "--x", x, "--n", str(n))
        assert (code, out) == (2, "")
        assert err == (f"numeric fault: d^{n}W/dx^{n} (closed_form) at x = {float(x)} "
                       f"came out {value}, outside the normal binary64 range\n")

    def test_power_overflow_exits_2_naming_n_and_x(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x", "1e10", "--n", "120")
        assert (code, out) == (2, "")
        assert err == ("numeric fault: d^120W/dx^120 (closed_form) at x = 10000000000.0 is "
                       "below 1e-420 in magnitude: (1 + W)^239 overflows binary64\n")

    def test_closed_form_stops_at_the_first_row_past_binary64(self, capsys, monkeypatch):
        """Row 139 holds the first entry a float cannot (1032 bits), so
        ``--n 500`` is refused there, before any row is made."""
        drawn = []
        rows = triangle._rows

        def spy_rows(*args):
            for row in rows(*args):
                drawn.append(row)
                yield row

        monkeypatch.setattr(triangle, "_rows", spy_rows)
        code, out, err = run_cli(capsys, "eval", "--x", "1", "--n", "500")
        assert (code, out) == (2, "")
        assert err == ("numeric fault: row 139 of the triangle has an entry past "
                       "binary64, so the closed form stops at n = 138\n")
        assert drawn == []

    def test_last_float_row_is_the_last_row_binary64_holds(self):
        last = cli._LAST_FLOAT_ROW
        table = build_table(last + 1)
        assert all(math.isfinite(float(b)) for b in table.rows[last])
        with pytest.raises(OverflowError):
            float(max(table.rows[last + 1]))

    def test_tiny_normal_derivative_is_printed(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--x", "1e6", "--n", "65")
        want = numeric.w_derivative(65, 1e6, build_table(65)).value
        assert abs(want) >= sys.float_info.min
        assert (code, err) == (0, "")
        assert out.endswith(f"d^65W/dx^65 (closed_form) = {want:.17g}\n")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5"])
    def test_bad_taylor_tolerance_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "eval", "--x", "0.1", "--n", "3",
                                 "--route", "taylor", "--tol-rel", tol)
        assert (code, out) == (2, "")
        assert err.startswith("error: rel_tol must be finite and positive")


class TestEvalExitCodes:
    """``eval`` verifies nothing, so it never exits 1: a fault on any route is
    exit 2 with stdout empty, in process and with no thread or process."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(), n=st.integers(min_value=-2, max_value=400),
           route=st.sampled_from(["closed_form", "taylor", "finite_difference"]))
    @example(x=-0.0, n=144, route="taylor")
    @example(x=5e-324, n=138, route="closed_form")
    @example(x=math.nan, n=1, route="finite_difference")
    @example(x=-math.inf, n=400, route="taylor")
    def test_exit_code_is_0_or_2(self, x, n, route):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", f"--x={x!r}", f"--n={n}", f"--route={route}"])
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 2
            assert out.getvalue() == ""
            assert err.getvalue().startswith(("error: ", "numeric fault: "))


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_verify_help_names_every_default_horizon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for stage, default in [("routes", verify.DEFAULT_ROUTE_N_MAX),
                               ("properties", verify.DEFAULT_PROPERTY_N_MAX),
                               ("identities", verify.DEFAULT_ROUTE_N_MAX)]:
            assert f"{stage} {default}" in text, stage
        assert "recurrence-only" not in text
        assert "Carlitz" not in text

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "table", "--n-max", "3"],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 0
        assert "3,1,8" in proc.stdout

    def test_retired_bench_command_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "bench", "--n-max", "3"],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "invalid choice: 'bench'" in proc.stderr

    def test_module_entry_point_verify(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wderiv", "verify", "--n-max", "4"],
            capture_output=True, text=True, timeout=120, env=src_env())
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK")
