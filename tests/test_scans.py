"""Beta tables: the x0 columns have the bits of x0(beta), each row of a
table has the bits of its one-beta value at any GRID_CHUNK, and a table
checks every beta first and raises the error that a sequential evaluation
meets first."""

import math
import re

import numpy as np
import pytest

from srq1 import analysis, boson, electron, family
from srq1.cli import parse_range
from srq1.errors import DomainError
from srq1.figures import FIGURE_SCANS
from srq1.kinematics import VALID_S
from srq1.quadrature import QuadratureConfig

FAMILIES = [(boson.BOSON, None), (electron.ELECTRON, -1), (electron.ELECTRON, 1)]
_IDS = ["boson", "electron-", "electron+"]


def _figure_betas():
    return sorted({b for group in FIGURE_SCANS.values() for argv in group if "--beta" in argv
                   for b in parse_range(argv[argv.index("--beta") + 1]).tolist()})


# 0, 1, every beta of the figures, 1 - 10^-k and seeded speeds
X0_BETAS = [0.0, 1.0, *_figure_betas(), *(1.0 - 10.0 ** -k for k in range(1, 16)),
            *np.random.default_rng(32).uniform(0.0, 1.0, 200).tolist()]


@pytest.mark.parametrize("fam", [boson.BOSON, electron.ELECTRON], ids=["boson", "electron"])
def test_x0_columns_keep_the_bits_of_x0(fam):
    columns = fam._x1(np.array(X0_BETAS), sqrt=np.sqrt)
    for i, beta in enumerate(X0_BETAS):
        assert [c[i].hex() for c in columns] == [v.hex() for v in fam._x1(beta)], beta
        assert columns[2][i].hex() == fam.x0(beta).hex()


# x0 on both sides of 1/sqrt2 (the electron's crosses it at beta = 0.985),
# next to 1, and 1
SCAN_BETAS = [0.0, 0.3, 0.5, 0.9, 0.98, 0.99, 0.999, 0.999999, 1.0 - 1e-12, 1.0, 0.7]


def _tables(fam, zeta):
    """(table of a list of betas, its one-beta row after beta) of each beta
    table of fam."""
    yield (lambda betas: fam.power_rows(None, betas)[:, [0, 2]],
           lambda beta: [fam.shape_integral(beta)])
    yield (lambda betas: fam.power_rows(zeta, betas), lambda beta: [*fam.total_power(zeta, beta)])
    for s in VALID_S:
        yield (lambda betas, s=s: fam.half_plane_fraction_rows(s, zeta, betas),
               lambda beta, s=s: [fam.half_plane_fraction(s, zeta, beta)])
    yield (lambda betas: fam.half_plane_fractions_rows(zeta, betas),
           lambda beta: [fam.half_plane_fraction(s, zeta, beta) for s in (1, -1, 2, 3)])


def _bits(rows):
    return [[v.hex() for v in row] for row in rows]


def _rows_of_one_beta(one, betas):
    return _bits([beta, *one(beta)] for beta in betas)


# chunks of every length from 1 to all of SCAN_BETAS
CHUNKS = (family.GRID_CHUNK, 1, 3, 4)


@pytest.mark.parametrize("fam, zeta", FAMILIES, ids=_IDS)
def test_scan_values_keep_the_bits_of_one_beta(fam, zeta, monkeypatch):
    for table, one in _tables(fam, zeta):
        want = _rows_of_one_beta(one, SCAN_BETAS)
        for chunk in CHUNKS:
            monkeypatch.setattr(family, "GRID_CHUNK", chunk)
            assert _bits(table(SCAN_BETAS).tolist()) == want, chunk


def test_ratio_and_table1_keep_the_bits_of_one_beta(monkeypatch):
    for zeta in (1, -1):
        want = _rows_of_one_beta(lambda beta: [analysis.power_ratio(zeta, beta)], SCAN_BETAS)
        for chunk in CHUNKS:
            monkeypatch.setattr(family, "GRID_CHUNK", chunk)
            assert _bits(analysis.power_ratio_rows(zeta, SCAN_BETAS).tolist()) == want, chunk
    monkeypatch.undo()
    for row in analysis.table1():
        assert row.f_b == boson.shape_integral_b(row.beta)
        assert row.f_e == electron.shape_integral_e(row.beta)
        assert row.k_minus == analysis.power_ratio(-1, row.beta)
        assert row.k_plus == analysis.power_ratio(1, row.beta)


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1)])
def test_width_scan_keeps_the_bits_of_one_beta(kind, zeta, monkeypatch):
    betas = [0.0, 0.5, 0.99, 1.0, 0.3]
    want = _rows_of_one_beta(lambda beta: [analysis.effective_angle(kind, 2, zeta, beta).delta],
                             betas)
    for chunk in (analysis.GRID_CHUNK, 1, 3):
        monkeypatch.setattr(analysis, "GRID_CHUNK", chunk)
        assert _bits(analysis.effective_angle_rows(kind, 2, zeta, betas).tolist()) == want


def _sequential(one, betas):
    """The rows of one(beta) in order up to the first that raises, and that
    error's type and text."""
    rows = []
    for beta in betas:
        try:
            rows.append(one(beta))
        except Exception as exc:  # noqa: BLE001  (the error a table must repeat)
            return rows, (type(exc), str(exc))
    return rows, None


def _raised(table, betas):
    """The type and text of the error that table(betas) raises, or None."""
    try:
        table(betas)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fam, zeta", FAMILIES, ids=_IDS)
def test_scans_raise_the_first_failing_beta_when_it_is_reached(fam, zeta, monkeypatch):
    # a tolerance that the series' bound meets at x0 = 0 and not at 0.95
    cfg = QuadratureConfig(abs_tol=4.2e-14, rel_tol=1e-300)
    betas = [0.0, 0.05, 0.95, 0.0]
    kind = "electron" if fam.spin else "boson"
    tables = [
        (lambda b: fam.power_rows(None, b, cfg), lambda beta: fam.shape_integral(beta, cfg)),
        (lambda b: fam.power_rows(zeta, b, cfg), lambda beta: fam.total_power(zeta, beta, cfg)),
        (lambda b: fam.half_plane_fraction_rows(2, zeta, b, cfg),
         lambda beta: fam.half_plane_fraction(2, zeta, beta, cfg)),
        (lambda b: analysis.power_ratio_rows(-1, b, cfg),
         lambda beta: analysis.power_ratio(-1, beta, cfg)),
        (lambda b: analysis.effective_angle_rows(kind, 2, zeta, b, cfg),
         lambda beta: analysis.effective_angle(kind, 2, zeta, beta, cfg)),
    ]
    for table, one in tables:
        rows, error = _sequential(one, betas)
        assert len(rows) == 2 and error is not None
        for chunk in (family.GRID_CHUNK, 1):
            monkeypatch.setattr(family, "GRID_CHUNK", chunk)
            monkeypatch.setattr(analysis, "GRID_CHUNK", chunk)
            assert _raised(table, betas) == error


def test_scans_check_every_beta_first_naming_the_first_bad_one():
    # in the order of a beta-by-beta check: beta, then zeta, then the next beta
    fam = electron.ELECTRON
    for betas, zeta, text in (([0.5, 1.5, math.nan], -1, "beta must lie in [0, 1], got 1.5"),
                              ([0.5, math.nan, 2.0], -1, "beta must lie in [0, 1], got nan"),
                              ([2.0, 0.5], 5, "beta must lie in [0, 1], got 2.0"),
                              ([0.5, 2.0], 5, "zeta must be +1 or -1, got 5")):
        tables = [lambda: fam.power_rows(zeta, betas),
                  lambda: fam.half_plane_fractions_rows(zeta, betas),
                  lambda: fam.half_plane_fraction_rows(0, zeta, betas),
                  lambda: fam.density_profiles(0, zeta, betas),
                  lambda: analysis.effective_angle_rows("electron", 0, zeta, betas),
                  lambda: list(analysis.max_angle_scan("electron", 0, zeta, betas))]
        for table in tables:
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                table()


def test_empty_grids_check_zeta():
    fam = electron.ELECTRON
    tables = [lambda zeta: fam.power_rows(zeta, []),
              lambda zeta: fam.half_plane_fractions_rows(zeta, []),
              lambda zeta: fam.half_plane_fraction_rows(0, zeta, []),
              lambda zeta: fam.half_plane_fraction_rows(2, zeta, []),
              lambda zeta: analysis.power_ratio_rows(zeta, []),
              lambda zeta: analysis.effective_angle_rows("electron", 0, zeta, []),
              lambda zeta: fam.density_profiles(0, zeta, [])[1],
              lambda zeta: list(analysis.max_angle_scan("electron", 0, zeta, []))]
    for table in tables:
        with pytest.raises(DomainError, match=r"^zeta must be \+1 or -1, got 5$"):
            table(5)
        assert len(table(-1)) == 0
