"""The CSV/JSON writers against the per-cell writers they replaced, byte for byte."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import srq1.io
from srq1.io import ScanResult, _json_flags, _json_text, format_number, write_csv, write_json


def list_rows(result):
    """The rows of a result as a list of rows, each text cell its text."""
    if not isinstance(result.rows, np.ndarray):
        return result.rows
    k = result.rows.shape[1]
    rows = result.rows.tolist()
    for i, text in result.texts.items():
        rows[i // k][i % k] = text
    return rows


def reference_csv(result):
    lines = [f"# {key}={value}" for key, value in result.metadata.items()]
    if result.columns:
        lines.append(",".join(result.columns))
    for row in list_rows(result):
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
        "rows": [[_reference_cell(v) for v in row] for row in list_rows(result)],
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
# the edges of the whole-number field: whole numbers of at most 9 digits, the
# first ones of 10, and flagged cells next to a whole number
WHOLE = [0.0, -0.0, 1.0, -1.0, 999999999.0, -999999999.0, 1e9, -1e9, 50000000.5,
         2.000000001]
# a table with text cells in its first, a middle and its last row, among
# whole, flagged and plain cells; a text is written as it is, marks included
_TEXT_ROWS = np.reshape(WHOLE * 3 + [math.nan, math.inf] + MIDRANGE[:40] + NEAR_WHOLE[:60],
                        (-1, 2))
_TEXTS = {1: "ambiguous", len(_TEXT_ROWS) + 4: 'a "quoted", 100% text;',
          2 * len(_TEXT_ROWS) - 1: "ambiguous"}
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
    "whole-number edges": ScanResult({"quantity": "p"}, ["theta", "p"],
                                     np.reshape(WHOLE, (-1, 2))),
    "array with text cells": ScanResult({"quantity": "q_local"}, ["theta", "q"], _TEXT_ROWS,
                                        _TEXTS),
    "3-column array with text cells": ScanResult(
        {"quantity": "power"}, ["beta", "power", "shape"], np.reshape(_TEXT_ROWS, (-1, 3)),
        {0: "none", 3 * (len(_TEXT_ROWS) // 3) + 2: "ambiguous", 2 * len(_TEXT_ROWS) - 1: "x"}),
    # rows wider than an int64 code of one field index per cell
    "wide array with text cells": ScanResult(
        {"quantity": "p"}, [f"x{j}" for j in range(48)], np.reshape(
            (WHOLE + MIDRANGE[:38]) * 2 + (MIDRANGE[:48] + NEAR_WHOLE[:48]) * 2, (-1, 48)),
        {47: "ambiguous", 48 + 46: "ambiguous", 5 * 48: "none"}),
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


def test_non_finite_cells_are_flagged():
    assert _json_flags(np.array([[math.inf, -math.inf, math.nan, 0.5]])).tolist() == [
        [True, True, True, False]]


@pytest.mark.parametrize("name", ["array with inf and nan", "floats and inf"])
def test_non_finite_tables_are_written_without_a_warning(name):
    result = TABLES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert write_csv(result) == reference_csv(result)
        assert write_json(result) == reference_json(result)


def _assert_same_text(got, want):
    """got == want; a failure names the first line that differs, where a
    diff of megabytes of text would take minutes."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} and {len(w)} lines)")


def _large_table():
    """A seeded (n, 2) array of over 50 000 rows: a degree grid next to a
    seeded mix of the cells whose text takes each layout."""
    rng = np.random.default_rng(22)
    theta = np.tile(np.linspace(0.0, 180.0, 18001), 3)  # whole every 100th
    n = len(theta)
    pieces = [
        np.zeros(500), np.full(500, -0.0),
        rng.uniform(1.0, 10.0, 8000) * 10.0 ** rng.integers(-307, -4, 8000),  # below 1e-4
        rng.uniform(1.0, 10.0, 8000) * 10.0 ** rng.integers(9, 308, 8000),  # from 1e9 up
        rng.uniform(0.0, 2.2250738585072014e-308, 2000),  # subnormals
        5e-324 * rng.integers(1, 1000, 500),
        np.repeat([math.inf, -math.inf, math.nan], 300),
        rng.integers(-10**9, 10**9, 4000).astype(float),  # whole numbers
        rng.standard_normal(4000),
    ]
    mixed = np.concatenate(pieces)
    values = np.concatenate([mixed, rng.standard_normal(n - len(mixed))
                             * 10.0 ** rng.uniform(-8, 8, n - len(mixed))])
    rng.shuffle(values)
    values *= rng.choice([-1.0, 1.0], n)
    return np.column_stack((theta, values))


def test_large_array_matches_the_per_cell_reference():
    rows = _large_table()
    texts = {1: "ambiguous", 2 * 25000: "ambiguous", 2 * 25000 + 3: "none",
             rows.size - 1: "ambiguous"}
    result = ScanResult({"quantity": "freq", "angle_unit": "deg"}, ["theta", "omega"], rows,
                        texts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_text(write_csv(result), reference_csv(result))
        _assert_same_text(write_json(result), reference_json(result))


def test_json_text_is_called_only_for_cells_that_are_not_whole(monkeypatch):
    # a limits-like table: a degree grid next to a profile that is exactly 0
    # on half the rows, with a few flagged cells that are not whole numbers
    rng = np.random.default_rng(23)
    values = np.concatenate([np.zeros(2000), -np.zeros(500), rng.uniform(0.1, 2.0, 2500)])
    values[[3, 2600, 4999]] = [1e-12, 3.0000000001, 2.5e9]
    rows = np.column_stack((np.linspace(0.0, 180.0, 5000), values))
    flags = _json_flags(rows)
    whole = (rows == np.rint(rows)) & (np.abs(rows) < 1e9)
    assert flags.sum() > 2500
    calls = []

    def counted(v):
        calls.append(v)
        return _json_text(v)

    monkeypatch.setattr(srq1.io, "_json_text", counted)
    result = ScanResult({"quantity": "limits"}, ["theta", "p_bar"], rows)
    assert write_json(result) == reference_json(result)
    assert sorted(calls) == sorted(rows[flags & ~whole].tolist())
    assert len(calls) == 3
