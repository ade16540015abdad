"""Serialization of coefficient tables.

Entries exceed 64 bits early (beta(n, 0) = n^(n-1) already needs 80 bits at
n = 16), so both formats carry them as decimal strings; round trips are
lossless and the emitted bytes are deterministic for a given table.  CSV
columns are ``n,k,beta`` with a header, LF line endings and no quoting; JSON
is ``{"n_max": N, "rows": [[...], ...]}`` with ``rows[0]`` holding row 1.

Both formats are written one row at a time: ``write_table`` hands a file
one chunk per row, and ``table_to_csv`` / ``table_to_json`` join the same
chunks into a string.  A decimal string needs no JSON escaping, so the JSON
bytes are those of ``json.dumps(payload, separators=(",", ":"))`` plus a
newline.  ``load_table`` sniffs the format from the first character that
is not whitespace; it feeds a CSV file to the parser line by line, and
decodes a JSON file with ``json.load``, which frees the file's text before
the entries are converted, row by row, to integers.

Parsing is strict: every CSV field and every JSON entry must be a decimal
string matching ``-?[0-9]+``, ``n_max`` a JSON integer and ``rows`` a list
of lists.  Anything else raises ``ValueError``.  Decimal strings are bound
by the interpreter's int-string limit (``sys.set_int_max_str_digits``) in
both directions; past it writing and parsing raise CPython's ``ValueError``.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from typing import TextIO

from .triangle import CoefficientTable

__all__ = [
    "table_to_csv",
    "table_to_json",
    "write_table",
    "parse_table_csv",
    "parse_table_json",
    "parse_table",
    "load_table",
]


def _csv_chunks(table: CoefficientTable) -> Iterator[str]:
    yield "n,k,beta\n"
    for n in range(1, table.n_max + 1):
        yield "".join([f"{n},{k},{b}\n" for k, b in enumerate(table.rows[n])])


def _json_chunks(table: CoefficientTable) -> Iterator[str]:
    yield f'{{"n_max":{table.n_max},"rows":['
    for n in range(1, table.n_max + 1):
        yield ('["' if n == 1 else ',["') + '","'.join(map(str, table.rows[n])) + '"]'
    yield "]}\n"


_WRITERS = {"csv": _csv_chunks, "json": _json_chunks}


def table_to_csv(table: CoefficientTable) -> str:
    return "".join(_csv_chunks(table))


def table_to_json(table: CoefficientTable) -> str:
    return "".join(_json_chunks(table))


def write_table(table: CoefficientTable, fh: TextIO, fmt: str) -> None:
    """Write ``table`` to the text file ``fh`` as ``"csv"`` or ``"json"``, row by row."""
    if fmt not in _WRITERS:
        raise ValueError(f"table format must be 'csv' or 'json', got {fmt!r:.40}")
    fh.writelines(_WRITERS[fmt](table))


def _parse_entry(text: object) -> int:
    """The integer written as a plain decimal string, in either format."""
    if not (isinstance(text, str) and text.isascii()
            and text.removeprefix("-").encode().isdigit()):
        raise ValueError(f"table entry must be a decimal string, got {text!r:.40}")
    return int(text)


def _table_from_rows(n_max: int, rows: list) -> CoefficientTable:
    if n_max != len(rows):
        raise ValueError(f"n_max {n_max} does not match {len(rows)} rows")
    return CoefficientTable(n_max=n_max, rows=((),) + tuple(tuple(r) for r in rows))


def _table_from_csv_lines(lines: Iterable[str]) -> CoefficientTable:
    """The table in CSV ``lines`` given without their line ends; empty ones are skipped."""
    lines = filter(None, lines)
    if next(lines, None) != "n,k,beta":
        raise ValueError("CSV table must start with the header 'n,k,beta'")
    rows: list[list[int]] = []
    for line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed CSV line: {line!r}")
        n, k, beta = map(_parse_entry, parts)
        if n == len(rows) + 1 and k == 0:
            rows.append([])
        if n != len(rows) or k != len(rows[-1]):
            raise ValueError(f"CSV entries out of order at n={n}, k={k}")
        rows[-1].append(beta)
    if not rows:
        raise ValueError("CSV table has no entries")
    return _table_from_rows(len(rows), rows)


def _table_from_payload(payload: object) -> CoefficientTable:
    """The table in a decoded JSON payload; each row's strings become ints in turn."""
    if not isinstance(payload, dict) or set(payload) != {"n_max", "rows"}:
        raise ValueError("JSON table must be an object with keys n_max and rows")
    n_max, rows = payload["n_max"], payload["rows"]
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r:.40}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("rows must be a list of lists")
    for i, row in enumerate(rows):
        rows[i] = tuple(map(_parse_entry, row))
    return _table_from_rows(n_max, rows)


def _table_from_json(decode: Callable, source) -> CoefficientTable:
    """The table in ``decode(source)``: ``json.loads`` of a text, ``json.load`` of a file."""
    try:
        payload = decode(source)
    except RecursionError:
        raise ValueError("JSON table is nested too deeply") from None
    return _table_from_payload(payload)


def parse_table_csv(text: str) -> CoefficientTable:
    return _table_from_csv_lines(text.split("\n"))


def parse_table_json(text: str) -> CoefficientTable:
    return _table_from_json(json.loads, text)


def parse_table(text: str) -> CoefficientTable:
    """Parse either serialization, sniffing the format from the first byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_table_json(text)
    return parse_table_csv(text)


def load_table(path: str) -> CoefficientTable:
    """Parse the file at ``path`` as ``parse_table`` parses its text, without holding it."""
    with open(path, "r", encoding="ascii") as fh:
        while (first := fh.read(1)).isspace():
            pass
        fh.seek(0)
        if first == "{":
            return _table_from_json(json.load, fh)
        return _table_from_csv_lines(line.rstrip("\n") for line in fh)
