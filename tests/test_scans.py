"""Beta scans as columns: the x0 of a chunk has the bits of x0(beta), each
value of a scan has the bits of its one-beta scan, and a scan checks every
beta first and raises the error of a sequential evaluation when its beta is
reached."""

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


def _scans(fam, zeta):
    """(scan of a list of betas, its one-beta value) of each beta scan of fam."""
    yield (lambda betas: list(fam.shape_integral_scan(betas)), fam.shape_integral)
    yield (lambda betas: list(fam.total_power_scan(zeta, betas)),
           lambda beta: fam.total_power(zeta, beta))
    for s in VALID_S:
        yield (lambda betas, s=s: list(fam.half_plane_fraction_scan(s, zeta, betas)),
               lambda beta, s=s: fam.half_plane_fraction(s, zeta, beta))
    yield (lambda betas: list(fam.half_plane_fractions_scan(zeta, betas)),
           lambda beta: {s: fam.half_plane_fraction(s, zeta, beta) for s in VALID_S})


def _bits(value):
    if isinstance(value, dict):
        return {k: v.hex() for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(v.hex() for v in value)
    return value.hex()


@pytest.mark.parametrize("fam, zeta", FAMILIES, ids=_IDS)
def test_scan_values_keep_the_bits_of_one_beta(fam, zeta, monkeypatch):
    for scan, one in _scans(fam, zeta):
        want = [_bits(one(beta)) for beta in SCAN_BETAS]
        assert [_bits(v) for v in scan(SCAN_BETAS)] == want
        monkeypatch.setattr(family, "GRID_CHUNK", 3)  # chunks of 3, 3, 3 and 2 betas
        assert [_bits(v) for v in scan(SCAN_BETAS)] == want
        monkeypatch.undo()


def test_ratio_and_table1_keep_the_bits_of_one_beta(monkeypatch):
    for zeta in (1, -1):
        want = [analysis.power_ratio(zeta, beta).hex() for beta in SCAN_BETAS]
        assert [k.hex() for k in analysis.power_ratio_scan(zeta, SCAN_BETAS)] == want
        monkeypatch.setattr(family, "GRID_CHUNK", 4)
        assert [k.hex() for k in analysis.power_ratio_scan(zeta, SCAN_BETAS)] == want
        monkeypatch.undo()
    for row in analysis.table1():
        assert row.f_b == boson.shape_integral_b(row.beta)
        assert row.f_e == electron.shape_integral_e(row.beta)
        assert row.k_minus == analysis.power_ratio(-1, row.beta)
        assert row.k_plus == analysis.power_ratio(1, row.beta)


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1)])
def test_width_scan_keeps_the_bits_of_one_beta(kind, zeta):
    betas = [0.0, 0.5, 0.99, 1.0, 0.3]
    want = [analysis.effective_angle(kind, 2, zeta, beta).delta.hex() for beta in betas]
    assert [d.hex() for d in analysis.effective_angle_scan(kind, 2, zeta, betas)] == want


def _sequential(one, betas):
    """The values of one(beta) in order up to the first that raises, and that
    error's type and text."""
    values = []
    for beta in betas:
        try:
            values.append(_bits(one(beta)))
        except Exception as exc:  # noqa: BLE001  (the error a scan must repeat)
            return values, (type(exc), str(exc))
    return values, None


def _lazily(scan, betas):
    """The values a scan yields before it raises, and the error's type and text."""
    values = []
    try:
        for v in scan(betas):
            values.append(_bits(v))
    except Exception as exc:  # noqa: BLE001
        return values, (type(exc), str(exc))
    return values, None


@pytest.mark.parametrize("fam, zeta", FAMILIES, ids=_IDS)
def test_scans_raise_the_first_failing_beta_when_it_is_reached(fam, zeta, monkeypatch):
    # a tolerance that the series' bound meets at x0 = 0 and not at 0.95
    cfg = QuadratureConfig(abs_tol=4.2e-14, rel_tol=1e-300)
    betas = [0.0, 0.05, 0.95, 0.0]
    scans = [
        (lambda b: fam.shape_integral_scan(b, cfg), lambda beta: fam.shape_integral(beta, cfg)),
        (lambda b: fam.total_power_scan(zeta, b, cfg), lambda beta: fam.total_power(zeta, beta,
                                                                                   cfg)),
        (lambda b: fam.half_plane_fraction_scan(2, zeta, b, cfg),
         lambda beta: fam.half_plane_fraction(2, zeta, beta, cfg)),
        (lambda b: analysis.power_ratio_scan(-1, b, cfg),
         lambda beta: analysis.power_ratio(-1, beta, cfg)),
    ]
    for scan, one in scans:
        want = _sequential(one, betas)
        assert len(want[0]) == 2 and want[1] is not None
        assert _lazily(scan, betas) == want
        monkeypatch.setattr(family, "GRID_CHUNK", 1)
        assert _lazily(scan, betas) == want
        monkeypatch.undo()


def test_scans_check_every_beta_first_naming_the_first_bad_one():
    # in the order of a beta-by-beta check: beta, then zeta, then the next beta
    fam = electron.ELECTRON
    for betas, zeta, text in (([0.5, 1.5, math.nan], -1, "beta must lie in [0, 1], got 1.5"),
                              ([0.5, math.nan, 2.0], -1, "beta must lie in [0, 1], got nan"),
                              ([2.0, 0.5], 5, "beta must lie in [0, 1], got 2.0"),
                              ([0.5, 2.0], 5, "zeta must be +1 or -1, got 5")):
        scans = [lambda: next(fam.total_power_scan(zeta, betas)),
                 lambda: next(fam.half_plane_fractions_scan(zeta, betas)),
                 lambda: fam.density_profiles(0, zeta, betas)]
        if zeta == -1:
            scans.append(lambda: next(fam.shape_integral_scan(betas)))
        for scan in scans:
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                scan()
    assert list(fam.shape_integral_scan([])) == []
