"""Serialization of coefficient tables.

Entries exceed 64 bits early (beta(n, 0) = n^(n-1) already needs 80 bits at
n = 16), so both formats carry them as decimal strings; round trips are
lossless and the emitted bytes are deterministic for a given table.  CSV
columns are ``n,k,beta`` with a header, LF line endings and no quoting; JSON
is ``{"n_max": N, "rows": [[...], ...]}`` with ``rows[0]`` holding row 1.

Both formats are written one row at a time: ``write_table`` hands a file
one chunk per row, the reference for any int table (``table_to_json`` joins
the same JSON chunks into a string).
``built_table_chunks`` gives the same bytes for ``build_table(n_max)``
without an int table: it formats the rows of ``triangle._exact_rows``, the
recurrence run on ``Decimal`` rows in an unrounded context, as they are
made, since the digits of a ``Decimal`` cost a linear pass where
``str(int)`` is quadratic in CPython 3.11.  A decimal string needs no JSON
escaping, so the JSON bytes are those of ``json.dumps(payload,
separators=(",", ":"))`` plus a newline.

Both formats are read by one streaming reader, ``_text_rows``, from a file
(``read_table_rows``, ``load_table``) or from a string (``parse_table``,
through ``io.StringIO`` with the same newline translation).  It reads the
text once, from start to end, so a pipe will do; sniffs the format from
the first character that is not whitespace; feeds CSV to the parser line
by line; decodes JSON with ``json.loads`` (the text is freed before the
first row); and yields each row as a tuple of validated decimal strings,
never as ints, since ``int(str)`` is quadratic too.

``_recurrence_differences`` gives what ``verify.verify_table_file`` needs
of a file: its row count and the rows whose values differ from the
recurrence's, compared as text with ``str`` of ``triangle._exact_rows``.
When it compares every row, a JSON file laid out as ``write_table`` lays
it out is not decoded at all: ``_json_differences`` streams its bytes
against the writer's own chunks of the recurrence rows, and decodes and
validates only a row whose bytes differ.  It answers only for a file it
matched from the header to the last byte; any other file, and any file
when only the rows up to a horizon are compared, is read by
``read_table_rows``.

Parsing is strict: every CSV field and every JSON entry must be a decimal
string matching ``-?[0-9]+``, ``n_max`` a JSON integer and ``rows`` a list
of lists.  Anything else raises ``ValueError``.  Decimal strings are bound
by the interpreter's int-string limit (``sys.set_int_max_str_digits``) in
both directions; past it writing and reading raise CPython's ``ValueError``
(``built_table_chunks`` raises the same text before it returns, after a
bound on the entries or, near the limit, the int rows themselves; the
reader asks ``int`` only about a string longer than the limit).

Only the commands that write or read a table file, ``wderiv table`` and
``wderiv verify --table``, import this module, and with it (through
``triangle._exact_rows``) ``decimal``.
"""
from __future__ import annotations

import io
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain
from operator import mul
from typing import TextIO

from .triangle import CoefficientTable, _differ, _exact_rows, _rows

# {n: (file row n, recurrence row n)} as decimal strings, on the rows that differ
_Differing = dict[int, tuple[tuple[str, ...], tuple[str, ...]]]

__all__ = [
    "table_to_json",
    "write_table",
    "built_table_chunks",
    "parse_table",
    "read_table_rows",
    "load_table",
]


def _csv_chunks(n_max: int, rows: Iterable[tuple]) -> Iterator[str]:
    yield "n,k,beta\n"
    for n, row in enumerate(rows, 1):
        yield "".join([f"{n},{k},{b}\n" for k, b in enumerate(row)])


def _json_row(n: int, row: tuple) -> str:
    return ('["' if n == 1 else ',["') + '","'.join(map(str, row)) + '"]'


def _json_chunks(n_max: int, rows: Iterable[tuple]) -> Iterator[str]:
    yield f'{{"n_max":{n_max},"rows":['
    for n, row in enumerate(rows, 1):
        yield _json_row(n, row)
    yield "]}\n"


_WRITERS = {"csv": _csv_chunks, "json": _json_chunks}


def _writer(fmt: str) -> Callable[[int, Iterable[tuple]], Iterator[str]]:
    if fmt not in _WRITERS:
        raise ValueError(f"table format must be 'csv' or 'json', got {fmt!r:.40}")
    return _WRITERS[fmt]


def table_to_json(table: CoefficientTable) -> str:
    return "".join(_json_chunks(table.n_max, table.rows[1:]))


def write_table(table: CoefficientTable, fh: TextIO, fmt: str) -> None:
    """Write ``table`` to the text file ``fh`` as ``"csv"`` or ``"json"``, row by row."""
    fh.writelines(_writer(fmt)(table.n_max, table.rows[1:]))


def _digit_limit() -> int:
    """The interpreter's int-string limit in digits; 0 (or no such limit) means none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _check_digit_limit(n_max: int) -> None:
    """Raise CPython's ``ValueError`` if ``str`` would refuse an entry of rows 1..n_max.

    ``str`` refuses exactly the ints of more than ``sys.get_int_max_str_digits()``
    digits, i.e. those of absolute value at least 10**limit.  Summed over k,
    the recurrence gives sum_k |beta(m+1, k)| <= (4m - 1) sum_k |beta(m, k)|
    (the three coefficients of beta(m, j) add up to (3m - j - 1) + m + j),
    so prod_{m<n_max} (4m - 1) bounds every entry; the exact pass over the
    int rows runs only when that bound, cut off at the first partial
    product that reaches 10**limit, does.
    """
    limit = _digit_limit()
    if limit == 0:
        return
    bound = 10**limit
    if all(partial < bound for partial in accumulate(range(3, 4 * n_max - 4, 4), mul)):
        return
    for row in _rows(n_max, 1):
        if max(map(abs, row)) >= bound:
            raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                             "conversion; use sys.set_int_max_str_digits() to "
                             "increase the limit")


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


def _decimal(text: object, limit: int) -> str:
    """``text`` if it is a plain decimal string that ``int`` accepts, in either format.

    Past ``limit`` digits ``int`` itself is asked, so it raises CPython's own
    ``ValueError``; a string within the limit is never converted here.
    """
    if not (isinstance(text, str) and text.isascii()
            and text.removeprefix("-").encode().isdigit()):
        raise ValueError(f"table entry must be a decimal string, got {text!r:.40}")
    if len(text) > limit:
        int(text)
    return text


def _parse_entry(text: object) -> int:
    """The integer written as a plain decimal string, in either format."""
    return int(_decimal(text, sys.maxsize))


def _whole(rows: Iterable[tuple[str, ...]], n_max: int | None) -> Iterator[tuple[str, ...]]:
    """``rows`` as they come, then the checks that need all of them.

    ``n_max`` is the count the file declares (None for CSV, which declares
    none).  The checks raise in the order in which building a
    ``CoefficientTable`` from the rows would.
    """
    count, wrong_length = 0, None
    for count, row in enumerate(rows, 1):
        if wrong_length is None and len(row) != count:
            wrong_length = count
        yield row
    if n_max is not None and n_max != count:
        raise ValueError(f"n_max {n_max} does not match {count} rows")
    if count < 1:
        raise ValueError("n_max must be >= 1")
    if wrong_length is not None:
        raise ValueError(f"row {wrong_length} must have exactly {wrong_length} entries")


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """The rows in CSV ``lines`` given without their line ends; empty ones are skipped."""
    limit = _digit_limit() or sys.maxsize

    def read() -> Iterator[tuple[str, ...]]:
        nonblank = filter(None, lines)
        if next(nonblank, None) != "n,k,beta":
            raise ValueError("CSV table must start with the header 'n,k,beta'")
        row: list[str] = []
        n_rows = 0
        for line in nonblank:
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"malformed CSV line: {line!r}")
            n, k = _parse_entry(parts[0]), _parse_entry(parts[1])
            beta = _decimal(parts[2], limit)
            if n == n_rows + 1 and k == 0:
                if n_rows:
                    yield tuple(row)
                row, n_rows = [], n
            if n < 1 or n != n_rows or k != len(row):
                raise ValueError(f"CSV entries out of order at n={n}, k={k}")
            row.append(beta)
        if not n_rows:
            raise ValueError("CSV table has no entries")
        yield tuple(row)

    return _whole(read(), None)


def _json_rows(payload: object) -> Iterator[tuple[str, ...]]:
    """The rows of a decoded JSON payload; each row is dropped from it as it is read."""
    if not isinstance(payload, dict) or set(payload) != {"n_max", "rows"}:
        raise ValueError("JSON table must be an object with keys n_max and rows")
    n_max, rows = payload["n_max"], payload["rows"]
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r:.40}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("rows must be a list of lists")
    limit = _digit_limit() or sys.maxsize

    def read() -> Iterator[tuple[str, ...]]:
        for i, row in enumerate(rows):
            rows[i] = None
            yield tuple([_decimal(text, limit) for text in row])

    return _whole(read(), n_max)


def _decoded(text: str) -> object:
    """``json.loads(text)``; nesting too deep for it raises ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON table is nested too deeply") from None


def _int_table(rows: Iterable[tuple[str, ...]]) -> CoefficientTable:
    """The table of validated decimal-string ``rows``, each converted as it is read."""
    int_rows = [tuple(map(int, row)) for row in rows]
    return CoefficientTable(n_max=len(int_rows), rows=((),) + tuple(int_rows))


def _text_rows(fh: TextIO) -> Iterator[tuple[str, ...]]:
    """Rows 1, 2, ... of the table text read from ``fh``, as validated decimal
    strings: a CSV row once its last entry is read, JSON rows once the
    text is decoded and freed."""
    spaces = []  # read while sniffing, so parsed with the rest
    while (first := fh.read(1)).isspace():
        spaces.append(first)
    start = "".join(spaces) + first
    if first != "{":
        # the parser skips the empty piece after a line end
        lines = (start + fh.readline()).split("\n")
        yield from _csv_rows(chain(lines, (line.rstrip("\n") for line in fh)))
        return
    yield from _json_rows(_decoded(start + fh.read()))


def read_table_rows(path: str) -> Iterator[tuple[str, ...]]:
    """Rows 1, 2, ... of the table file at ``path`` as validated decimal strings.

    The file is read once, from start to end, so it may be a pipe.  No
    entry is converted to ``int``; whatever is wrong with the file raises
    ``ValueError`` by the time the rows run out.
    """
    with open(path, "r", encoding="ascii") as fh:
        yield from _text_rows(fh)


def _json_differences(path: str) -> tuple[int, _Differing] | None:
    """``_recurrence_differences(path)`` if the file at ``path`` is a JSON
    table laid out as ``write_table`` lays it out; else None.

    The file is streamed and matched against ``_json_chunks`` of the
    recurrence rows, as many as its header declares: the header, one
    ``_json_row`` per row, then exactly ``]}\n`` at the end.  A row whose
    bytes differ from its chunk is cut at its first ``]``, decoded and
    validated as ``read_table_rows`` validates it, and is held only if some
    entry differs in value, so a row that is only spelled another way
    (``"007"``) is not.  None means the file is something else: another
    header or key order, whitespace outside a differing row, a row that
    does not decode or validate or has the wrong length, a wrong row count,
    another trailer, an entry past the int-string limit, or a file that
    cannot be opened or seeked.  ``read_table_rows`` decides such a file.
    """
    start = b'{"n_max":'
    limit = _digit_limit() or sys.maxsize
    try:
        with open(path, "rb") as fh:
            if not fh.seekable() or not (peeked := fh.peek(len(start))).startswith(start):
                return None
            n_max = int(peeked[len(start):peeked.index(b",")])
            if n_max < 1:
                return None
            header, trailer = (chunk.encode() for chunk in _json_chunks(n_max, ()))
            if fh.read(len(header)) != header:
                return None
            differing = {}
            for n, row in zip(range(1, n_max + 1), _exact_rows(None)):
                row = tuple(map(str, row))
                text = _json_row(n, row).encode()
                part = fh.read(len(text))
                if part == text:
                    if len(text) > limit and max(map(len, row)) > limit:
                        return None
                    continue
                lead = b",[" if n > 1 else b"["
                if not part.startswith(lead):
                    return None
                while (end := part.find(b"]")) < 0:
                    if not (more := fh.read(len(part))):
                        return None
                    part += more
                got = json.loads(part[len(lead) - 1:end + 1])
                if not isinstance(got, list) or len(got) != n:
                    return None
                got = tuple([_decimal(entry, limit) for entry in got])
                if any(map(_differ, got, row)):
                    differing[n] = (got, row)
                fh.seek(end + 1 - len(part), 1)  # to the byte after the row
            return (n_max, differing) if fh.read(len(trailer) + 1) == trailer else None
    except (OSError, ValueError, RecursionError):
        return None  # whatever went wrong, read_table_rows reads the file afresh


def _recurrence_differences(path: str, n_max: int | None) -> tuple[int, _Differing]:
    """The row count of the table file at ``path`` and {n: (file row,
    recurrence row)}, as decimal strings, for each row n <= n_max (every
    row if None) whose values differ from the recurrence's
    (``triangle._differ``: ``"007"`` is 7, ``"-0"`` is 0).

    When every row is compared, a JSON file laid out as ``write_table``
    lays it out is matched as bytes (``_json_differences``).  Any other
    file, and any file when n_max is given, is read by ``read_table_rows``,
    and its rows 1..n_max are compared as text with ``str`` of the
    recurrence's exact-decimal rows.  No entry is converted to ``int``.  A
    file that ``load_table`` rejects raises its ``ValueError`` either way.
    """
    if n_max is None and (found := _json_differences(path)) is not None:
        return found
    wanted = (tuple(map(str, row)) for row in _exact_rows(n_max))
    read, differing = 0, {}
    for read, got in enumerate(read_table_rows(path), 1):
        want = next(wanted, got)  # a row past n_max is not compared
        if want != got and any(map(_differ, got, want)):
            differing[read] = (got, want)
    return read, differing


def parse_table(text: str) -> CoefficientTable:
    """The table in ``text``, either format, read as ``load_table`` reads a
    file holding it: the same table or the same ``ValueError``, CRLF and CR
    line ends included."""
    return _int_table(_text_rows(io.StringIO(text, newline=None)))


def load_table(path: str) -> CoefficientTable:
    """The table in the file at ``path``, read once without holding its text."""
    return _int_table(read_table_rows(path))
