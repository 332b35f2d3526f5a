"""The CSV/JSON writers against the per-cell writers they replaced, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srq1.io import ScanResult, _json_flags, _json_text, format_number, write_csv, write_json


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
# whole numbers W of 1 to 16 digits, and W +- 0.4 and 0.6 units of its 9th
# digit, whose .9g text is whole (json adds ".0") or not
_W = np.floor(10 ** _RNG.uniform(0, 9, 300)) * 10.0 ** _RNG.integers(0, 8, 300)
_UNIT = 10.0 ** (np.floor(np.log10(_W)) - 8)
_W *= _RNG.choice([-1.0, 1.0], 300)
NEAR_WHOLE = np.concatenate([_W, _W + 0.4 * _UNIT, _W - 0.4 * _UNIT, _W + 0.6 * _UNIT]).tolist()
# finite floats from 1e-12 to 1e12, where most cells are written as .9g text
MIDRANGE = (_RNG.standard_normal(3000) * 10.0 ** _RNG.uniform(-12, 12, 3000)).tolist()
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
    # theta scans: an (n, k) float array
    "float array": ScanResult({"quantity": "p"}, ["theta", "p"], np.reshape(FLOATS, (-1, 2))),
    "3-column array": ScanResult({"quantity": "power"}, ["beta", "power", "shape"],
                                 np.reshape(FLOATS[:4014] + NEAR_WHOLE + MIDRANGE, (-1, 3))),
    "empty array": ScanResult({"quantity": "p"}, ["theta", "p"], np.empty((0, 2))),
    "array of empty rows": ScanResult({"quantity": "p"}, [], np.empty((3, 0))),
    "array with inf and nan": ScanResult({"quantity": "p"}, ["theta", "p"], np.array(
        [[0.0, 0.25], [1.0, math.inf], [2.5, -math.inf], [1e-300, math.nan], [1e22, 3.0]])),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_writers_match_the_per_cell_reference(name):
    result = TABLES[name]
    assert write_csv(result) == reference_csv(result)
    assert write_json(result) == reference_json(result)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_CELLS = st.one_of(_FINITE, st.sampled_from(NEAR_WHOLE + MIDRANGE + FLOATS[:16]),
                   st.integers(-10**17, 10**17).map(float))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=_CELLS))
def test_finite_arrays_match_the_per_cell_reference(rows):
    result = ScanResult({"quantity": "p"}, ["x"] * rows.shape[1], rows)
    assert write_json(result) == reference_json(result)
    assert write_csv(result) == reference_csv(result)


def test_unflagged_cells_are_their_9g_text():
    cells = np.array(FLOATS + NEAR_WHOLE + MIDRANGE)
    flags = _json_flags(cells)
    assert 0 < flags.sum() < len(cells)
    assert [v for v in cells[~flags].tolist() if _json_text(v) != f"{v:.9g}"] == []
