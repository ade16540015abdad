import json

import pytest

from wderiv import (
    build_table,
    load_table,
    parse_table,
    parse_table_csv,
    parse_table_json,
    table_to_csv,
    table_to_json,
)

EXPECTED_CSV_3 = "n,k,beta\n1,0,1\n2,0,2\n2,1,1\n3,0,9\n3,1,8\n3,2,2\n"


class TestCsv:
    def test_exact_bytes_for_small_table(self):
        assert table_to_csv(build_table(3)) == EXPECTED_CSV_3

    def test_round_trip(self, table40):
        assert parse_table_csv(table_to_csv(table40)) == table40

    def test_deterministic(self, table8):
        assert table_to_csv(table8) == table_to_csv(build_table(8))

    def test_large_entries_survive(self):
        t = build_table(40)
        text = table_to_csv(t)
        assert f"40,0,{40**39}" in text
        assert parse_table_csv(text).rows[40][0] == 40**39

    def test_lf_endings_no_quoting(self, table8):
        text = table_to_csv(table8)
        assert "\r" not in text
        assert '"' not in text
        assert text.endswith("\n")

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_table_csv("nope\n1,0,1\n")
        with pytest.raises(ValueError):
            parse_table_csv("n,k,beta\n1,0,1\n3,0,9\n")  # skips n=2
        with pytest.raises(ValueError):
            parse_table_csv("n,k,beta\n1,0,1\n2,1,1\n")  # skips k=0
        with pytest.raises(ValueError):
            parse_table_csv("n,k,beta\n")
        with pytest.raises(ValueError):
            parse_table_csv("n,k,beta\n1,0\n")


class TestJson:
    def test_single_row_shape(self):
        payload = json.loads(table_to_json(build_table(1)))
        assert payload == {"n_max": 1, "rows": [["1"]]}

    def test_betas_are_strings(self, table8):
        payload = json.loads(table_to_json(table8))
        assert payload["rows"][5] == [str(b) for b in table8.rows[6]]
        assert all(isinstance(b, str) for row in payload["rows"] for b in row)

    def test_round_trip(self, table40):
        assert parse_table_json(table_to_json(table40)) == table40

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            parse_table_json('{"n_max": 2, "rows": [["1"]]}')
        with pytest.raises(ValueError):
            parse_table_json('{"rows": [["1"]]}')
        with pytest.raises(ValueError):
            parse_table_json('{"n_max": 1, "rows": [["1", "2"]]}')


class TestSniffAndLoad:
    def test_parse_table_sniffs(self, table8):
        assert parse_table(table_to_csv(table8)) == table8
        assert parse_table(table_to_json(table8)) == table8

    def test_load_table(self, tmp_path, table8):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(table_to_csv(table8), encoding="ascii")
        assert load_table(str(csv_path)) == table8
        json_path = tmp_path / "t.json"
        json_path.write_text(table_to_json(table8), encoding="ascii")
        assert load_table(str(json_path)) == table8



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
}


class TestStrictParsing:
    @pytest.mark.parametrize("name", sorted(BAD_JSON_TABLES))
    def test_bad_json_raises_value_error(self, name):
        with pytest.raises(ValueError):
            parse_table(BAD_JSON_TABLES[name])

    @pytest.mark.parametrize("name", sorted(BAD_CSV_TABLES))
    def test_bad_csv_raises_value_error(self, name):
        with pytest.raises(ValueError):
            parse_table(BAD_CSV_TABLES[name])

    def test_negative_entries_still_parse(self):
        # a wrong sign is a verification failure, not a parse error
        table = parse_table('{"n_max":2,"rows":[["1"],["-2","1"]]}')
        assert table.rows[2] == (-2, 1)
        assert parse_table_csv("n,k,beta\n1,0,-1\n").rows[1] == (-1,)
