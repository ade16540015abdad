"""Serialization of coefficient tables.

Entries exceed 64 bits early (beta(n, 0) = n^(n-1) already needs 80 bits at
n = 16), so both formats carry them as decimal strings; round trips are
lossless and the emitted bytes are deterministic for a given table.  CSV
columns are ``n,k,beta`` with a header, LF line endings and no quoting; JSON
is ``{"n_max": N, "rows": [[...], ...]}`` with ``rows[0]`` holding row 1.

Both formats are written one row at a time: ``write_table`` hands a file
one chunk per row, and ``table_to_csv`` / ``table_to_json`` join the same
chunks into a string; these are the reference for any int table.
``built_table_chunks`` gives the same bytes for ``build_table(n_max)``
without an int table: it runs the recurrence on ``Decimal`` rows in an
unrounded context and formats each row as it is made, since the digits of a
``Decimal`` cost a linear pass where ``str(int)`` is quadratic in CPython
3.11.  A decimal string needs no JSON escaping, so the JSON
bytes are those of ``json.dumps(payload, separators=(",", ":"))`` plus a
newline.  ``load_table`` sniffs the format from the first character that
is not whitespace; it feeds a CSV file to the parser line by line, and
decodes a JSON file with ``json.load``, which frees the file's text before
the entries are converted, row by row, to integers.

Parsing is strict: every CSV field and every JSON entry must be a decimal
string matching ``-?[0-9]+``, ``n_max`` a JSON integer and ``rows`` a list
of lists.  Anything else raises ``ValueError``.  Decimal strings are bound
by the interpreter's int-string limit (``sys.set_int_max_str_digits``) in
both directions; past it writing and parsing raise CPython's ``ValueError``
(``built_table_chunks`` raises the same text, checked on int rows before it
returns).
"""
from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterable, Iterator
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from typing import TextIO

from .triangle import CoefficientTable, _rows

__all__ = [
    "table_to_csv",
    "table_to_json",
    "write_table",
    "built_table_chunks",
    "parse_table_csv",
    "parse_table_json",
    "parse_table",
    "load_table",
]


def _csv_chunks(n_max: int, rows: Iterable[tuple]) -> Iterator[str]:
    yield "n,k,beta\n"
    for n, row in enumerate(rows, 1):
        yield "".join([f"{n},{k},{b}\n" for k, b in enumerate(row)])


def _json_chunks(n_max: int, rows: Iterable[tuple]) -> Iterator[str]:
    yield f'{{"n_max":{n_max},"rows":['
    for n, row in enumerate(rows, 1):
        yield ('["' if n == 1 else ',["') + '","'.join(map(str, row)) + '"]'
    yield "]}\n"


_WRITERS = {"csv": _csv_chunks, "json": _json_chunks}


def _writer(fmt: str) -> Callable[[int, Iterable[tuple]], Iterator[str]]:
    if fmt not in _WRITERS:
        raise ValueError(f"table format must be 'csv' or 'json', got {fmt!r:.40}")
    return _WRITERS[fmt]


def table_to_csv(table: CoefficientTable) -> str:
    return "".join(_csv_chunks(table.n_max, table.rows[1:]))


def table_to_json(table: CoefficientTable) -> str:
    return "".join(_json_chunks(table.n_max, table.rows[1:]))


def write_table(table: CoefficientTable, fh: TextIO, fmt: str) -> None:
    """Write ``table`` to the text file ``fh`` as ``"csv"`` or ``"json"``, row by row."""
    fh.writelines(_writer(fmt)(table.n_max, table.rows[1:]))


# Unrounded decimal arithmetic: sums and products of integers come out exact,
# and anything that would round raises instead of being written.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, Overflow, InvalidOperation])


def _check_digit_limit(n_max: int) -> None:
    """Raise CPython's ``ValueError`` if ``str`` would refuse an entry of rows 1..n_max.

    ``str`` refuses exactly the ints of more than ``sys.get_int_max_str_digits()``
    digits, i.e. those of absolute value at least 10**limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (or absent): no limit
    if limit == 0:
        return
    bound = 10**limit
    for row in _rows(n_max, 1):
        if max(map(abs, row)) >= bound:
            raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                             "conversion; use sys.set_int_max_str_digits() to "
                             "increase the limit")


def _exact_rows(n_max: int) -> Iterator[tuple[Decimal, ...]]:
    """Rows 1..n_max as ``Decimal`` tuples, each computed in the exact context.

    The context is entered around each step only, so the caller's code between
    rows keeps its own.
    """
    rows = _rows(n_max, Decimal(1))
    while True:
        with localcontext(_EXACT):
            row = next(rows, None)
        if row is None:
            return
        yield row


def built_table_chunks(n_max: int, fmt: str) -> Iterator[str]:
    """The text of ``write_table(build_table(n_max), fh, fmt)``, chunk by chunk.

    Arguments and the int-string limit are checked before this returns, so
    nothing is written for a table that cannot be written whole.  The rows
    are then made by the recurrence in exact decimal arithmetic, one at a
    time as the chunks are consumed: each entry's decimal string is read off
    a ``Decimal``, never converted from a finished int.
    """
    writer = _writer(fmt)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_digit_limit(n_max)
    return writer(n_max, _exact_rows(n_max))


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
