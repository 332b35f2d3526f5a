"""Scan results and their CSV/JSON serialization.

CSV: ``# key=value`` metadata comment lines, a header line, then
comma-separated rows with 9 significant digits, LF newlines, "." decimal
point.  JSON mirrors the same content in the indent=2 layout of
``json.dumps``; non-finite and ambiguous entries are the tagged strings
"inf" and "ambiguous" in both formats.

A table's rows are a list of rows, written cell by cell (``format_number``,
``_json_text``), or an ``(n, k)`` float array, written by one ``str.format``
call over a template, with the same bytes.  ``{:.9g}`` gives the text
``format_number`` gives for every float, inf and nan included, so a CSV
array is one repeated field.  JSON writes a finite cell v as
``repr(float(f"{v:.9g}"))``, which differs from its ``.9g`` text only when
that text is a whole number (json adds ".0") or when repr lays the value out
otherwise: repr is fixed notation from 1e-4 up to 1e16, where ``.9g`` takes
the exponent form from 1e9, and it gives a subnormal's shortest digits.  An
array cell is flagged when |v - rint(v)| <= 1e-8 max(|v|, 1) and written
with ``_json_text``; every other cell is its ``.9g`` text.  Why that holds:

- v lies within half a unit in the 9th digit of its text; when that text is
  a whole number W, |v - rint(v)| <= |v - W| <= 0.5e-8 |v|, so v is flagged;
- the test flags every |v| >= 5e7 (there 1e-8 |v| >= 0.5) and every
  |v| <= 1e-8, subnormals and zeros included, so an unflagged cell in the
  exponent form is a normal double below 1e-4.  repr writes such a value in
  the exponent form with ``.9g``'s layout, and as text's own digits: no two
  decimals of at most 15 digits round to one normal double, so no shorter
  decimal gives float(text) back;
- an unflagged cell in fixed notation has a "." in its text, which repr of
  float(text) then repeats.

A JSON array holding inf or nan, or no cell, is written as a list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScanResult:
    metadata: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    # a list of rows, or an (n, k) float array: a theta scan without an
    # "ambiguous" cell
    rows: list | np.ndarray = field(default_factory=list)


def format_number(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return f"{v:.9g}"  # inf, -inf and nan included


def write_csv(result: ScanResult) -> str:
    lines = [f"# {key}={value}" for key, value in result.metadata.items()]
    if result.columns:
        lines.append(",".join(result.columns))
    rows = result.rows
    if not isinstance(rows, np.ndarray):
        lines += [",".join(map(format_number, row)) for row in rows]
    elif len(rows):
        n, k = rows.shape
        lines.append("\n".join([",".join(["{:.9g}"] * k)] * n).format(*rows.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _json_text(v) -> str:
    if isinstance(v, str) or v is None or isinstance(v, bool):
        return json.dumps(v)
    text = f"{v:.9g}"  # 9 significant digits, as in the CSV output
    if not math.isfinite(v):
        return json.dumps(text)
    # outside the exponent form, |v| is a normal double, where no two
    # decimals of at most 9 digits round to one double: repr(float(text))
    # then has text's digits and layout, and adds ".0" to whole numbers
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


def _json_row(row) -> str:
    if not row:
        return "    []"
    return "    [\n      " + ",\n      ".join(map(_json_text, row)) + "\n    ]"


def _json_flags(rows: np.ndarray) -> np.ndarray:
    """True where a finite cell's JSON text may differ from its .9g text."""
    return np.abs(rows - np.rint(rows)) <= 1e-8 * np.maximum(np.abs(rows), 1.0)


def _json_array(rows: np.ndarray) -> str:
    """The JSON rows of a non-empty finite (n, k) array (see the module docstring)."""
    k = rows.shape[1]
    flags = _json_flags(rows)
    cells = rows.ravel().tolist()
    for i in np.flatnonzero(flags).tolist():
        cells[i] = _json_text(cells[i])
    # each cell's field with the layout around it; the last row ends in ",\n" too
    starts = ["    [\n      "] + [""] * (k - 1)
    ends = [",\n      "] * (k - 1) + ["\n    ],\n"]
    fields = np.array([[s + f + e for s, e in zip(starts, ends)] for f in ("{:.9g}", "{}")],
                      dtype=object)[flags.astype(np.intp), np.arange(k)]
    return "".join(fields.ravel().tolist())[:-2].format(*cells)


def write_json(result: ScanResult) -> str:
    head = json.dumps({"metadata": {k: str(v) for k, v in result.metadata.items()},
                       "columns": list(result.columns)}, indent=2)
    rows = result.rows
    if isinstance(rows, np.ndarray) and not (rows.size and np.isfinite(rows).all()):
        rows = rows.tolist()
    body = _json_array(rows) if isinstance(rows, np.ndarray) else ",\n".join(map(_json_row, rows))
    # json.dumps lays out the last key as '  "rows": [\n<rows>\n  ]' before '\n}'
    body = f"[\n{body}\n  ]" if len(rows) else "[]"
    return f'{head[:-2]},\n  "rows": {body}\n}}\n'


def serialize(result: ScanResult, fmt: str) -> str:
    if fmt == "csv":
        return write_csv(result)
    if fmt == "json":
        return write_json(result)
    raise ValueError(f"unknown output format {fmt!r}")
