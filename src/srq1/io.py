"""Scan results and their CSV/JSON serialization.

CSV: ``# key=value`` metadata comment lines, a header line, then
comma-separated rows with 9 significant digits, LF newlines, "." decimal
point.  JSON mirrors the same content in the indent=2 layout of
``json.dumps``; non-finite and ambiguous entries are the tagged strings
"inf" and "ambiguous" in both formats.

A table's rows are a list of rows, written cell by cell (``format_number``,
``_json_text``), or an ``(n, k)`` float array, written by one ``%`` call
over a template, with the same bytes.  A ``%.9g`` field gives the text
``format_number`` gives for every float, inf and nan included, so a CSV
array is one repeated field.  JSON writes a finite cell v as
``repr(float(f"{v:.9g}"))``, which differs from its ``.9g`` text only when
that text is a whole number (json adds ".0") or when repr lays the value out
otherwise: repr is fixed notation from 1e-4 up to 1e16, where ``.9g`` takes
the exponent form from 1e9, and it gives a subnormal's shortest digits.  An
array cell is flagged when it is inf or nan or when
|v - rint(v)| <= 1e-8 max(|v|, 1); a flagged cell is a ``%s`` field that
takes its ``_json_text``, and every other cell is a ``%.9g`` field.  Why
the unflagged text is right:

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

The ``%`` call writes a JSON array compactly, cells joined by "," and rows
by ";", and two replaces then lay that text out as json.dumps does.  No cell
text holds either mark: a ``.9g`` text is made of a sign, digits, "." and
an exponent such as "e-05", or is inf or nan, and ``_json_text`` writes such
a text, its repr, or one of them quoted.  List rows, and an array of no
cell, are written row by row (``_json_row``).
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
    # a list of rows, or an (n, k) float array, inf and nan allowed: a theta
    # scan without an "ambiguous" cell
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
        lines.append("\n".join([",".join(["%.9g"] * k)] * n) % tuple(rows.ravel().tolist()))
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
    if not len(row):  # a list, or a row of an array of no cell
        return "    []"
    return "    [\n      " + ",\n      ".join(map(_json_text, row)) + "\n    ]"


def _json_flags(rows: np.ndarray) -> np.ndarray:
    """True where a cell's JSON text may differ from its .9g text: inf, nan
    and the cells next to a whole number (see the module docstring)."""
    finite = np.isfinite(rows)
    # inf and nan are read as 0.0, a whole number, so they are flagged without
    # an inf - rint(inf)
    v = rows if finite.all() else np.where(finite, rows, 0.0)
    return np.abs(v - np.rint(v)) <= 1e-8 * np.maximum(np.abs(v), 1.0)


# the layout that json.dumps puts after a cell and after a row
_NEXT_CELL = ",\n      "
_NEXT_ROW = "\n    ],\n    [\n      "


def _json_array(rows: np.ndarray) -> str:
    """The JSON rows of an (n, k) array of at least one cell (see the module docstring)."""
    n, k = rows.shape
    flags = _json_flags(rows)
    cells = rows.ravel().tolist()
    for i in np.flatnonzero(flags).tolist():
        cells[i] = _json_text(cells[i])
    template = [",".join(["%.9g"] * k)] * n
    flagged = np.flatnonzero(flags.any(axis=1))
    fields = np.array(["%.9g", "%s"], dtype=object)[flags[flagged].astype(np.intp)]
    for i, row in zip(flagged.tolist(), fields.tolist()):
        template[i] = ",".join(row)
    # the compact rows, between the first row's opening and the last row's closing
    text = f"    [\n      {';'.join(template)}\n    ]" % tuple(cells)
    return text.replace(",", _NEXT_CELL).replace(";", _NEXT_ROW)


def write_json(result: ScanResult) -> str:
    head = json.dumps({"metadata": {k: str(v) for k, v in result.metadata.items()},
                       "columns": list(result.columns)}, indent=2)
    rows = result.rows
    if not len(rows):
        return f'{head[:-2]},\n  "rows": []\n}}\n'
    if isinstance(rows, np.ndarray) and rows.size:
        body = _json_array(rows)
    else:
        body = ",\n".join(map(_json_row, rows))
    # json.dumps lays out the last key as '  "rows": [\n<rows>\n  ]' before '\n}'
    return f'{head[:-2]},\n  "rows": [\n{body}\n  ]\n}}\n'


def serialize(result: ScanResult, fmt: str) -> str:
    if fmt == "csv":
        return write_csv(result)
    if fmt == "json":
        return write_json(result)
    raise ValueError(f"unknown output format {fmt!r}")
