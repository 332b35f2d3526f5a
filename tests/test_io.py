"""The CSV/JSON writers against the per-cell writers they replaced, byte for byte."""

import json
import math

import numpy as np
import pytest

from srq1.io import ScanResult, format_number, write_csv, write_json


def reference_csv(result):
    lines = [f"# {key}={value}" for key, value in result.metadata.items()]
    if result.columns:
        lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference_cell(v):
    if isinstance(v, str) or v is None or isinstance(v, bool):
        return v
    if math.isinf(v) or math.isnan(v):
        return format_number(v)
    return float(f"{v:.9g}")


def reference_json(result):
    doc = {
        "metadata": {k: str(v) for k, v in result.metadata.items()},
        "columns": list(result.columns),
        "rows": [[_reference_cell(v) for v in row] for row in result.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


_RNG = np.random.default_rng(11)
# finite floats of every magnitude, with the layout edges of repr and .9g:
# integral values, exponents 9..15 (fixed in repr, exponent form in .9g), 16
_EDGES = [0.0, -0.0, 1e-300, 5e-324, 1e22, 1e16, 1e15, 123456789.0, 1234567890.0,
          999999999.5, -9999999995.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0, 1.7976931348623157e308]
FLOATS = _EDGES + (_RNG.standard_normal(4000)
                   * 10.0 ** _RNG.integers(-320, 300, 4000)).tolist()
MIXED = [[0.25, -0.0], [1e-300, 1e22], [math.inf, -math.inf], [math.nan, "ambiguous"],
         [True, False], [None, "none"], [3, np.float64(0.1)], [1.5, 2.5]]

TABLES = {
    "floats": ScanResult({"quantity": "p", "beta": 0.5}, ["theta", "p"],
                         [FLOATS[i:i + 2] for i in range(0, len(FLOATS), 2)]),
    "float tuples": ScanResult({"quantity": "p"}, ["theta", "p"],
                               list(zip(FLOATS[::2], FLOATS[1::2]))),
    "floats and inf": ScanResult({"quantity": "power"}, ["beta", "power", "shape"],
                                 [[0.5, 1.25, 0.75], [1.0, math.inf, 2.0], [0.0, -0.0, 1.0]]),
    "mixed": ScanResult({"a": 1, "b": None}, ["x", "y"], MIXED),
    "ragged": ScanResult({"a": "b"}, ["x", "y"], [[1.0], [2.0, 3.0, 4.0], []]),
    "no columns": ScanResult({"quantity": "none"}, [], []),
    "no rows": ScanResult({"quantity": "p"}, ["theta", "p"], []),
    "empty": ScanResult(),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_writers_match_the_per_cell_reference(name):
    result = TABLES[name]
    assert write_csv(result) == reference_csv(result)
    assert write_json(result) == reference_json(result)
