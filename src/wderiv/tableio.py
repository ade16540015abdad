"""Serialization of coefficient tables.

Entries exceed 64 bits early (beta(n, 0) = n^(n-1) already needs 80 bits at
n = 16), so both formats carry them as decimal strings; round trips are
lossless and the emitted bytes are deterministic for a given table.  CSV
columns are ``n,k,beta`` with a header, LF line endings and no quoting; JSON
is ``{"n_max": N, "rows": [[...], ...]}`` with ``rows[0]`` holding row 1.

Parsing is strict: every CSV field and every JSON entry must be a decimal
string matching ``-?[0-9]+``, ``n_max`` a JSON integer and ``rows`` a list
of lists.  Anything else raises ``ValueError``.
"""
from __future__ import annotations

import json
import re

from .triangle import CoefficientTable

__all__ = [
    "table_to_csv",
    "table_to_json",
    "parse_table_csv",
    "parse_table_json",
    "parse_table",
    "load_table",
]

_DECIMAL = re.compile(r"-?[0-9]+")


def table_to_csv(table: CoefficientTable) -> str:
    lines = ["n,k,beta"]
    lines.extend(
        f"{n},{k},{b}"
        for n in range(1, table.n_max + 1)
        for k, b in enumerate(table.rows[n])
    )
    return "\n".join(lines) + "\n"


def table_to_json(table: CoefficientTable) -> str:
    payload = {
        "n_max": table.n_max,
        "rows": [[str(b) for b in table.rows[n]] for n in range(1, table.n_max + 1)],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _parse_entry(text: object) -> int:
    """The integer written as a plain decimal string, in either format."""
    if not isinstance(text, str) or not _DECIMAL.fullmatch(text):
        raise ValueError(f"table entry must be a decimal string, got {text!r:.40}")
    return int(text)


def _table_from_rows(n_max: int, rows: list[list[int]]) -> CoefficientTable:
    if n_max != len(rows):
        raise ValueError(f"n_max {n_max} does not match {len(rows)} rows")
    return CoefficientTable(n_max=n_max, rows=((),) + tuple(tuple(r) for r in rows))


def parse_table_csv(text: str) -> CoefficientTable:
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != "n,k,beta":
        raise ValueError("CSV table must start with the header 'n,k,beta'")
    rows: list[list[int]] = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed CSV line: {line!r}")
        n, k, beta = (_parse_entry(part) for part in parts)
        if n == len(rows) + 1 and k == 0:
            rows.append([])
        if n != len(rows) or k != len(rows[-1]):
            raise ValueError(f"CSV entries out of order at n={n}, k={k}")
        rows[-1].append(beta)
    if not rows:
        raise ValueError("CSV table has no entries")
    return _table_from_rows(len(rows), rows)


def parse_table_json(text: str) -> CoefficientTable:
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON table is nested too deeply") from None
    if not isinstance(payload, dict) or set(payload) != {"n_max", "rows"}:
        raise ValueError("JSON table must be an object with keys n_max and rows")
    n_max, rows = payload["n_max"], payload["rows"]
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r:.40}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("rows must be a list of lists")
    return _table_from_rows(n_max, [[_parse_entry(e) for e in row] for row in rows])


def parse_table(text: str) -> CoefficientTable:
    """Parse either serialization, sniffing the format from the first byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_table_json(text)
    return parse_table_csv(text)


def load_table(path: str) -> CoefficientTable:
    with open(path, "r", encoding="ascii") as fh:
        return parse_table(fh.read())
