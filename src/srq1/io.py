"""Scan results and their CSV/JSON serialization.

CSV: ``# key=value`` metadata comment lines, a header line, then
comma-separated rows with 9 significant digits, LF newlines, "." decimal
point.  JSON mirrors the same content in the indent=2 layout of
``json.dumps``; non-finite and ambiguous entries are the tagged strings
"inf" and "ambiguous" in both formats.

A scan's float rows are an ``(n, k)`` array, written by one ``%`` call over
a template; other rows (maxima's) are a list of rows, written cell by cell
(``format_number``, ``_json_row``).  Both give the bytes of the per-cell
writers.  An array cell named in ``ScanResult.texts`` is a text cell: its
float is a placeholder, and it is a ``%s`` field that takes its text, as it
is in CSV and as ``json.dumps(text)`` in JSON.  A ``%.9g`` field gives the
text ``format_number`` gives for every float, inf and nan included, so a CSV
array without text cells is one repeated field.

JSON writes a finite cell v as ``repr(float(f"{v:.9g}"))``, which differs
from its ``.9g`` text only when that text is a whole number (json adds ".0")
or when repr lays the value out otherwise: repr is fixed notation from 1e-4
up to 1e16, where ``.9g`` takes the exponent form from 1e9, and it gives a
subnormal's shortest digits.  An array cell is flagged when it is inf or nan
or when |v - rint(v)| <= 1e-8 max(|v|, 1).  A flagged cell with
v == rint(v) and |v| < 1e9 is a ``%.9g.0`` field: v is a whole number of at
most 9 digits, so its ``.9g`` text is those digits, with no "." and no "e",
and ``_json_text`` writes that text and ".0" ("-0.0" for -0.0).  Every other
flagged cell (inf, nan, |v| >= 1e9, a cell next to a whole number but not
one, a tiny non-zero cell) is a ``%s`` field that takes its ``_json_text``,
and an unflagged cell is a ``%.9g`` field.  Why the unflagged text is right:

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

The template holds the layout: CSV fields are joined by "," and rows by
"\\n"; JSON fields by ",\\n      " and rows by "\\n    ],\\n    [\\n      ", as
json.dumps lays them out.  A row whose fields are all ``%.9g`` is one shared
string; every other row's fields are given by its code, the sum over its
cells of field index x 3^j, and one row template is made per distinct code.
An array of no cell is written row by row (``_json_row``).
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
    # a scan's (n, k) float array, inf and nan allowed, or a list of rows
    # (maxima's)
    rows: list | np.ndarray = field(default_factory=list)
    # the text cells of an array: flat cell index -> text, written in place
    # of the cell's float (the double-limit cell's "ambiguous")
    texts: dict = field(default_factory=dict)


def format_number(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return f"{v:.9g}"  # inf, -inf and nan included


def _template(n, k, index, which, names, next_cell, next_row) -> str:
    """The ``%`` template of n rows of k cells, laid out by ``next_cell`` and
    ``next_row``: flat cell ``index[i]`` (ascending) is the field
    ``names[which[i]]``, which > 0, and every other cell ``names[0]``."""
    plain = next_cell.join([names[0]] * k)
    if not len(index):
        return next_row.join([plain] * n)
    row, col = np.divmod(index, k)
    first = np.flatnonzero(np.diff(row, prepend=-1))  # the first listed cell of each row
    power = 3 ** col if k < 40 else 3 ** col.astype(object)  # 3^40 > 2^63
    codes, inverse = np.unique(np.add.reduceat(which * power, first), return_inverse=True)
    made = [next_cell.join([names[c // 3 ** j % 3] for j in range(k)]) for c in codes.tolist()]
    template = [plain] * n
    for i, code in zip(row[first].tolist(), inverse.tolist()):
        template[i] = made[code]
    return next_row.join(template)


def write_csv(result: ScanResult) -> str:
    lines = [f"# {key}={value}" for key, value in result.metadata.items()]
    if result.columns:
        lines.append(",".join(result.columns))
    rows = result.rows
    if not isinstance(rows, np.ndarray):
        lines += [",".join(map(format_number, row)) for row in rows]
    elif len(rows):
        cells = rows.ravel().tolist()
        for i, text in result.texts.items():
            cells[i] = text
        index = np.array(sorted(result.texts), dtype=np.intp)
        lines.append(_template(*rows.shape, index, 1, ("%.9g", "%s"), ",", "\n")
                     % tuple(cells))
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


# the JSON fields of a cell, by field index: unflagged, whole, any other
_JSON_FIELDS = ("%.9g", "%.9g.0", "%s")


def _json_array(rows: np.ndarray, texts: dict) -> str:
    """The JSON rows of an (n, k) array of at least one cell (see the module docstring)."""
    cells = rows.ravel().tolist()
    index = np.flatnonzero(_json_flags(rows))
    v = rows.ravel()[index]
    which = np.where((v == np.rint(v)) & (np.abs(v) < 1e9), 1, 2)
    for i in index[which == 2].tolist():
        cells[i] = _json_text(cells[i])
    if texts:
        for i, text in texts.items():
            cells[i] = json.dumps(text)
        # a text cell's own field, in place of its float's
        index, first = np.unique(np.concatenate((list(texts), index)), return_index=True)
        which = np.concatenate((np.full(len(texts), 2), which))[first]
    # json.dumps lays out the cells of a row, and the rows, as the template does
    template = _template(*rows.shape, index, which, _JSON_FIELDS,
                         ",\n      ", "\n    ],\n    [\n      ")
    return f"    [\n      {template}\n    ]" % tuple(cells)


def write_json(result: ScanResult) -> str:
    head = json.dumps({"metadata": {k: str(v) for k, v in result.metadata.items()},
                       "columns": list(result.columns)}, indent=2)
    rows = result.rows
    if not len(rows):
        return f'{head[:-2]},\n  "rows": []\n}}\n'
    if isinstance(rows, np.ndarray) and rows.size:
        body = _json_array(rows, result.texts)
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
