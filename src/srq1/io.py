"""Scan results and their CSV/JSON serialization.

CSV: ``# key=value`` metadata comment lines, a header line, then
comma-separated rows with 9 significant digits, LF newlines, "." decimal
point.  JSON mirrors the same content; non-finite and ambiguous entries are
the tagged strings "inf" and "ambiguous" in both formats.

The rows of a theta scan hold floats only and take a fast path with the
same bytes.  ``{:.9g}`` gives the text ``format_number`` gives for any
float, so such a CSV row is one format string.  JSON rows are laid out here
in the indent=2 layout of ``json.dumps``, whose indenting encoder is pure
Python; a finite cell is written as ``repr(float(f"{v:.9g}"))``, the text
json writes for the value ``_json_cell`` makes of it.  Other cells (str,
bool, None, inf, nan and non-float numbers) go through ``format_number``
and ``_json_cell``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class ScanResult:
    metadata: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def format_number(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.9g}"


def write_csv(result: ScanResult) -> str:
    lines = [f"# {key}={value}" for key, value in result.metadata.items()]
    if result.columns:
        lines.append(",".join(result.columns))
    n = len(result.columns)
    if set(map(len, result.rows)) <= {n} and all(
            type(v) is float for row in result.rows for v in row):
        line = ",".join(["{:.9g}"] * n).format
        lines += [line(*row) for row in result.rows]
    else:
        lines += [",".join(map(format_number, row)) for row in result.rows]
    return "\n".join(lines) + "\n"


def _json_cell(v):
    if isinstance(v, str) or v is None or isinstance(v, bool):
        return v
    if math.isinf(v) or math.isnan(v):
        return format_number(v)
    # 9 significant digits, as in the CSV output
    return float(f"{v:.9g}")


def _json_text(v) -> str:
    if type(v) is float and math.isfinite(v):
        # outside the exponent form, |v| is a normal double, where no two
        # decimals of at most 9 digits round to one double: repr(float(text))
        # then has text's digits and layout, and adds ".0" to whole numbers
        text = f"{v:.9g}"
        if "e" in text:
            return repr(float(text))
        return text if "." in text else text + ".0"
    return json.dumps(_json_cell(v))


def _json_row(row) -> str:
    if not row:
        return "    []"
    return "    [\n      " + ",\n      ".join(map(_json_text, row)) + "\n    ]"


def write_json(result: ScanResult) -> str:
    head = json.dumps({"metadata": {k: str(v) for k, v in result.metadata.items()},
                       "columns": list(result.columns)}, indent=2)
    rows = ",\n".join(map(_json_row, result.rows))
    # json.dumps lays out the last key as '  "rows": [\n<rows>\n  ]' before '\n}'
    rows = f"[\n{rows}\n  ]" if result.rows else "[]"
    return f'{head[:-2]},\n  "rows": {rows}\n}}\n'


def serialize(result: ScanResult, fmt: str) -> str:
    if fmt == "csv":
        return write_csv(result)
    if fmt == "json":
        return write_json(result)
    raise ValueError(f"unknown output format {fmt!r}")
