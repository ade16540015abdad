import decimal
import io
import json
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import (
    CoefficientTable,
    build_table,
    built_table_chunks,
    load_table,
    parse_table,
    table_to_json,
    write_table,
)
from wderiv import tableio
from wderiv.cli import main
from wderiv.tableio import _check_digit_limit, _parse_entry
from conftest import csv_text, traced_peak

EXPECTED_CSV_3 = "n,k,beta\n1,0,1\n2,0,2\n2,1,1\n3,0,9\n3,1,8\n3,2,2\n"


# The whole-string writers the row-chunk writers replaced, kept as the
# reference for their bytes.
def reference_csv(table):
    lines = ["n,k,beta"]
    lines.extend(
        f"{n},{k},{b}"
        for n in range(1, table.n_max + 1)
        for k, b in enumerate(table.rows[n])
    )
    return "\n".join(lines) + "\n"


def reference_json(table):
    payload = {
        "n_max": table.n_max,
        "rows": [[str(b) for b in table.rows[n]] for n in range(1, table.n_max + 1)],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


WRITER_TABLES = [pytest.param(build_table(n), id=f"n_max={n}") for n in (1, 2, 12, 60)]
WRITER_TABLES.append(pytest.param(
    CoefficientTable(n_max=3, rows=((), (0,), (-7, 0), (0, -(10**30), 5))),
    id="zero_and_negative"))
FORMATS = {"csv": (csv_text, reference_csv), "json": (table_to_json, reference_json)}


class TestWriters:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("table", WRITER_TABLES)
    def test_bytes_match_reference(self, table, fmt):
        to_text, reference = FORMATS[fmt]
        expected = reference(table)
        assert to_text(table) == expected
        fh = io.StringIO()
        write_table(table, fh, fmt)
        assert fh.getvalue() == expected

    def test_unknown_format(self):
        fh = io.StringIO()
        with pytest.raises(ValueError, match="table format must be 'csv' or 'json'"):
            write_table(build_table(2), fh, "xml")
        assert fh.getvalue() == ""


class TestBuiltTableChunks:
    """The decimal export: the same bytes as the int table's writer."""

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_bytes_match_the_int_table(self, fmt):
        for n_max in (1, 2, 3, 45):
            expected = FORMATS[fmt][0](build_table(n_max))
            assert "".join(built_table_chunks(n_max, fmt)) == expected

    def test_arguments_are_checked_before_it_returns(self):
        with pytest.raises(ValueError, match="table format must be 'csv' or 'json'"):
            built_table_chunks(3, "xml")
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            built_table_chunks(0, "csv")

    def test_callers_decimal_context_is_left_alone(self):
        # the exact context is entered only while a row is being made
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            for _ in built_table_chunks(40, "json"):
                assert decimal.getcontext() is ctx
            assert decimal.Decimal(1) / 3 == decimal.Decimal("0.3333333")


class TestDigitLimitBound:
    """``_check_digit_limit`` skips its exact pass while prod_{m<n}(4m - 1),
    a bound on every entry of rows 1..n, stays below 10**limit; it must
    still raise exactly where the exact pass over the int rows does."""

    def test_raises_exactly_where_the_exact_pass_does(self, monkeypatch):
        maxima = [max(row) for row in build_table(300).rows[1:]]
        # The exact pass compares each row's largest entry with 10**limit;
        # serving it only that entry keeps some 4,700 passes cheap.
        monkeypatch.setattr(tableio, "_rows",
                            lambda n_max, first: ((m,) for m in maxima[:n_max]))
        passes = 0
        for limit in range(600, 701):
            # below 640 the interpreter refuses the limit, so it is only reported
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
            first_too_long = next(
                (n for n, m in enumerate(maxima, 1) if m >= 10**limit), 301)
            refusal = (ValueError, f"Exceeds the limit ({limit} digits) for integer "
                       "string conversion; use sys.set_int_max_str_digits() to "
                       "increase the limit")
            for n_max in range(1, 301):
                expected = refusal if n_max >= first_too_long else None
                assert outcome(_check_digit_limit, n_max) == expected, (limit, n_max)
            passes += first_too_long <= 300
        assert passes == 101  # every limit is reached by some row <= 300

    def test_bound_alone_decides_far_from_the_limit(self, monkeypatch):
        # at the default 4300 digits the bound settles n <= 1309 alone: no
        # int row is made
        monkeypatch.setattr(tableio, "_rows", None)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        _check_digit_limit(1309)


class TestCsv:
    def test_exact_bytes_for_small_table(self):
        assert csv_text(build_table(3)) == EXPECTED_CSV_3

    def test_round_trip(self, table40):
        assert parse_table(csv_text(table40)) == table40

    def test_deterministic(self, table8):
        assert csv_text(table8) == csv_text(build_table(8))

    def test_large_entries_survive(self):
        t = build_table(40)
        text = csv_text(t)
        assert f"40,0,{40**39}" in text
        assert parse_table(text).rows[40][0] == 40**39

    def test_lf_endings_no_quoting(self, table8):
        text = csv_text(table8)
        assert "\r" not in text
        assert '"' not in text
        assert text.endswith("\n")

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_table("nope\n1,0,1\n")
        with pytest.raises(ValueError):
            parse_table("n,k,beta\n1,0,1\n3,0,9\n")  # skips n=2
        with pytest.raises(ValueError):
            parse_table("n,k,beta\n1,0,1\n2,1,1\n")  # skips k=0
        with pytest.raises(ValueError):
            parse_table("n,k,beta\n")
        with pytest.raises(ValueError):
            parse_table("n,k,beta\n1,0\n")


class TestJson:
    def test_single_row_shape(self):
        payload = json.loads(table_to_json(build_table(1)))
        assert payload == {"n_max": 1, "rows": [["1"]]}

    def test_betas_are_strings(self, table8):
        payload = json.loads(table_to_json(table8))
        assert payload["rows"][5] == [str(b) for b in table8.rows[6]]
        assert all(isinstance(b, str) for row in payload["rows"] for b in row)

    def test_round_trip(self, table40):
        assert parse_table(table_to_json(table40)) == table40

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            parse_table('{"n_max": 2, "rows": [["1"]]}')
        with pytest.raises(ValueError):
            parse_table('{"rows": [["1"]]}')
        with pytest.raises(ValueError):
            parse_table('{"n_max": 1, "rows": [["1", "2"]]}')


def outcome(func, arg):
    """The table ``func(arg)`` returns, or the type and message of its ValueError."""
    try:
        return func(arg)
    except ValueError as err:
        return type(err), str(err)


def assert_load_matches_parse(tmp_path, text):
    """load_table of a file holding ``text`` acts as parse_table of ``text``."""
    path = tmp_path / "table"
    path.write_bytes(text.encode("ascii"))
    assert outcome(load_table, str(path)) == outcome(parse_table, text)


TABLE4_CSV = csv_text(build_table(4))
TABLE4_JSON = table_to_json(build_table(4))
# Files at the edges of format sniffing and line splitting.
LOAD_EDGES = {
    "json_after_spaces": "   " + TABLE4_JSON,
    "json_after_newline": "\n" + TABLE4_JSON,
    "json_after_file_separator": "\x1c" + TABLE4_JSON,
    "json_after_long_padding": " " * 10_000 + TABLE4_JSON,
    "json_crlf": TABLE4_JSON.replace("\n", "\r\n"),
    "csv_after_blank_lines": "\n\n\n" + TABLE4_CSV,
    "csv_crlf": TABLE4_CSV.replace("\n", "\r\n"),
    "csv_cr": TABLE4_CSV.replace("\n", "\r"),
    "csv_no_final_newline": TABLE4_CSV.rstrip("\n"),
    "csv_blank_lines_between": TABLE4_CSV.replace("\n", "\n\n"),
    "empty": "",
    "whitespace_only": " \t\n\r\n\x0b ",
}


# Corrupt files that used to load (entries truncated or coerced by int())
# or to escape as TypeError; each must now raise ValueError.
BAD_JSON_TABLES = {
    "float_entry": '{"n_max":2,"rows":[["1"],[2.9,"1"]]}',
    "bool_entry": '{"n_max":2,"rows":[["1"],[true,"1"]]}',
    "int_entry": '{"n_max":2,"rows":[["1"],[2,"1"]]}',
    "padded_entry": '{"n_max":2,"rows":[["1"],[" 2","1"]]}',
    "underscore_entry": '{"n_max":1,"rows":[["1_0"]]}',
    "null_n_max": '{"n_max": null, "rows": []}',
    "bool_n_max": '{"n_max": true, "rows": [["1"]]}',
    "float_n_max": '{"n_max": 1.0, "rows": [["1"]]}',
    "rows_not_list": '{"n_max": 1, "rows": 5}',
    "row_not_list": '{"n_max": 1, "rows": ["1"]}',
    "deep_nesting": '{"n_max":1,"rows":' + "[" * 100_000 + "]" * 100_000 + "}",
}

BAD_CSV_TABLES = {
    "padded_entry": "n,k,beta\n1,0, 1 \n",
    "underscore_entry": "n,k,beta\n1,0,1_0\n",
    "float_entry": "n,k,beta\n1,0,1.0\n",
    "padded_index": "n,k,beta\n 1,0,1\n",
    "plus_sign": "n,k,beta\n1,0,+1\n",
    "row_zero": "n,k,beta\n0,0,1\n",  # used to escape as IndexError
}


# every text of the tables above, named as in its own table
LOAD_TEXTS = {
    **LOAD_EDGES,
    **{f"bad_json_{name}": text for name, text in BAD_JSON_TABLES.items()},
    **{f"bad_csv_{name}": text for name, text in BAD_CSV_TABLES.items()},
}


@st.composite
def random_tables(draw):
    """Tables of 1 to 12 rows with zero, negative and up-to-2^200 entries."""
    n_max = draw(st.integers(min_value=1, max_value=12))
    entry = st.integers(min_value=-(2**200), max_value=2**200)
    rows = tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n)))
                 for n in range(1, n_max + 1))
    return CoefficientTable(n_max, ((),) + rows)


class TestRandomRoundTrip:
    @settings(max_examples=150)
    @given(random_tables())
    def test_parse_inverts_both_writers(self, table):
        assert parse_table(csv_text(table)) == table
        assert parse_table(table_to_json(table)) == table

    @settings(max_examples=100)
    @given(random_tables(), st.sampled_from(["csv", "json"]))
    def test_load_inverts_write_table(self, tmp_path_factory, table, fmt):
        path = tmp_path_factory.getbasetemp() / f"random_table.{fmt}"
        with open(path, "w", encoding="ascii", newline="") as fh:
            write_table(table, fh, fmt)
        assert load_table(str(path)) == table


class TestSniffAndLoad:
    def test_parse_table_sniffs(self, table8):
        assert parse_table(csv_text(table8)) == table8
        assert parse_table(table_to_json(table8)) == table8

    def test_load_table(self, tmp_path, table8):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(csv_text(table8), encoding="ascii")
        assert load_table(str(csv_path)) == table8
        json_path = tmp_path / "t.json"
        json_path.write_text(table_to_json(table8), encoding="ascii")
        assert load_table(str(json_path)) == table8

    @pytest.mark.parametrize("name", sorted(LOAD_TEXTS))
    def test_load_matches_parse_of_text(self, tmp_path, name):
        assert_load_matches_parse(tmp_path, LOAD_TEXTS[name])

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("name", sorted(LOAD_EDGES))
    def test_load_from_a_pipe_matches_load_from_a_file(self, tmp_path, name):
        # every edge fits in the pipe's buffer, so it is written whole first
        text = LOAD_EDGES[name]
        path = tmp_path / "table"
        path.write_bytes(text.encode("ascii"))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode("ascii"))
            os.close(write_end)
            piped = outcome(load_table, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert piped == outcome(load_table, str(path))

    @pytest.mark.parametrize("text", ["n,k,beta\n1,0,\u00e91\n",
                                      '{"n_max":1,"rows":[["\u00e9"]]}'])
    def test_non_ascii_byte_raises_decode_error(self, tmp_path, text):
        path = tmp_path / "table"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(UnicodeDecodeError):
            load_table(str(path))


class TestStrictParsing:
    # each bad input also goes through load_table from a file, which must
    # raise the same exception with the same message (test_load_matches_parse_of_text)
    @pytest.mark.parametrize("name", sorted(BAD_JSON_TABLES))
    def test_bad_json_raises_value_error(self, name):
        with pytest.raises(ValueError):
            parse_table(BAD_JSON_TABLES[name])

    @pytest.mark.parametrize("name", sorted(BAD_CSV_TABLES))
    def test_bad_csv_raises_value_error(self, name):
        with pytest.raises(ValueError):
            parse_table(BAD_CSV_TABLES[name])

    def test_negative_entries_still_parse(self, tmp_path):
        # a wrong sign is a verification failure, not a parse error
        table = parse_table('{"n_max":2,"rows":[["1"],["-2","1"]]}')
        assert table.rows[2] == (-2, 1)
        assert parse_table("n,k,beta\n1,0,-1\n").rows[1] == (-1,)
        assert_load_matches_parse(tmp_path, '{"n_max":2,"rows":[["1"],["-2","1"]]}')
        assert_load_matches_parse(tmp_path, "n,k,beta\n1,0,-1\n")


# The grammar of a table entry, as the regular expression the byte-level
# check replaced.
DECIMAL = re.compile(r"-?[0-9]+")


def reference_entry(text):
    if not DECIMAL.fullmatch(text):
        raise ValueError(f"table entry must be a decimal string, got {text!r:.40}")
    return int(text)


class TestEntryGrammar:
    @pytest.mark.parametrize(
        "text", ["", "-", "--1", "-0", "007", "+1", "1_000", " 1", "1 ", "12", "-34"])
    def test_edge_cases_match_reference(self, text):
        assert outcome(_parse_entry, text) == outcome(reference_entry, text)

    # Unicode digits (Arabic-Indic three, superscript two, fullwidth one)
    # pass str.isdigit or int() but not the grammar.
    @given(st.text(alphabet="0123456789-+_ \t\n\u0663\u00b2\uff11a", max_size=12))
    def test_matches_reference(self, text):
        assert outcome(_parse_entry, text) == outcome(reference_entry, text)


class TestMemory:
    """Writing and loading a 150-row table (about 2.3 MB) hold rows, not the text."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_command_peak_below_file_size(self, tmp_path, fmt):
        path = tmp_path / f"table.{fmt}"
        argv = ["table", "--n-max", "150", "--format", fmt, "--out", str(path)]
        peak = traced_peak(main, argv)
        assert peak < path.stat().st_size

    def test_csv_load_peak_below_file_size(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(csv_text(build_table(150)), encoding="ascii")
        assert traced_peak(load_table, str(path)) < path.stat().st_size

    def test_json_load_peak_below_two_point_six_file_sizes(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(table_to_json(build_table(150)), encoding="ascii")
        assert traced_peak(load_table, str(path)) < 2.6 * path.stat().st_size
