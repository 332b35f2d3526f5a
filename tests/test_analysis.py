import math

import numpy as np
import pytest

from srq1 import analysis
from srq1.analysis import (asymptotic_max_angle, crossover_beta,
                           effective_angle, max_angle, power_ratio, table1)
from srq1.electron import x0
from srq1.errors import DomainError

HALF_PI = math.pi / 2


def test_power_ratio_at_rest():
    assert power_ratio(-1, 0.0) == pytest.approx(27.0 / 8.0, abs=1e-9)
    assert power_ratio(1, 0.0) == 0.0


def test_power_ratio_spin_relation():
    for beta in (0.3, 0.7, 0.9):
        assert power_ratio(1, beta) == pytest.approx(
            x0(beta) * power_ratio(-1, beta), rel=1e-12)


def test_crossover():
    beta0, gamma0 = crossover_beta()
    assert 0.81999 <= beta0 <= 0.82000
    assert 1.74709 <= gamma0 <= 1.74711
    assert gamma0 == pytest.approx(1.0 / math.sqrt(1.0 - beta0**2), rel=1e-12)


def test_crossover_computes_each_ratio_once(monkeypatch):
    # each bisection midpoint's ratio is reused when it becomes the lower
    # end: 2 bracket ends + 26 midpoints (39 calls when lo was recomputed)
    calls = []

    def counting(*args):
        calls.append(args)
        return power_ratio(*args)

    monkeypatch.setattr(analysis, "power_ratio", counting)
    beta0, gamma0 = crossover_beta()
    assert len(calls) == 28
    assert (beta0.hex(), gamma0.hex()) == ("0x1.a3d5e65666666p-1",
                                           "0x1.bf422a4f94451p+0")


def test_table1_structure():
    rows = table1()
    assert len(rows) == 11
    assert [r.beta for r in rows] == [i / 10 for i in range(11)]
    first = rows[0]
    assert first.f_b == pytest.approx(1.0, abs=1e-9)
    assert first.f_e == pytest.approx(1.0, abs=1e-9)
    assert first.k_minus == pytest.approx(27.0 / 8.0, abs=1e-9)
    assert first.k_plus == 0.0
    # internal consistency of the spin channels
    for r in rows[1:]:
        assert r.k_plus == pytest.approx(x0(r.beta) * r.k_minus, rel=1e-12)
    # f^b grows monotonically with beta
    fb = [r.f_b for r in rows]
    assert all(b > a for a, b in zip(fb, fb[1:]))


def test_max_angle_absent_below_thresholds():
    assert not max_angle("electron", 3, -1, 0.5).exists
    assert not max_angle("electron", 0, -1, 0.6).exists


def test_max_angle_present_above_thresholds():
    rep = max_angle("electron", 0, -1, 0.9)
    assert rep.exists and 0.0 < rep.theta_max < HALF_PI
    assert rep.p_max > 0


def test_max_angle_matches_asymptotics():
    gamma = 30.0
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    rep = max_angle("electron", 0, -1, beta)
    assert rep.exists
    deficit = HALF_PI - rep.theta_max
    assert deficit == pytest.approx(2.0 / gamma**2, rel=0.25)


def test_no_divergent_peaking():
    # the density maximum stays bounded as beta -> 1
    rep = max_angle("electron", 0, -1, 0.99)
    assert rep.exists and rep.p_max < 2.0


def test_asymptotic_max_angle_values():
    assert asymptotic_max_angle(0, 10.0) == pytest.approx(HALF_PI - 0.02, abs=1e-12)
    assert asymptotic_max_angle(1, 10.0) == pytest.approx(
        HALF_PI - 200.0 ** (-1.0 / 3.0), abs=1e-12)
    assert asymptotic_max_angle(3, 100.0) == pytest.approx(HALF_PI - 0.1, abs=1e-12)
    with pytest.raises(DomainError):
        asymptotic_max_angle(2, 10.0)
    with pytest.raises(DomainError):
        asymptotic_max_angle(0, 1.0)


def test_effective_angle_closed_form():
    # p_0(0; theta) = (3/8)(1 + cos^2): delta^2 = pi^2/4 - 17/9
    rep = effective_angle("boson", 0, None, 0.0)
    assert rep.definition_id == "rms"
    assert rep.delta == pytest.approx(math.sqrt(math.pi**2 / 4 - 17.0 / 9.0), abs=1e-9)


def test_effective_angle_rms_trends():
    # s = 0, 1, 2 widths decrease weakly toward a finite limit; under the
    # rms convention the pi-component width decreases as well
    for kind, zeta in (("boson", None), ("electron", -1)):
        for s in (0, 2, 3):
            deltas = [effective_angle(kind, s, zeta, b).delta for b in (0.3, 0.6, 0.9)]
            assert deltas[0] > deltas[1] > deltas[2]
            assert deltas[2] > 0.5
    d01 = effective_angle("boson", 0, None, 0.1).delta
    d09 = effective_angle("boson", 0, None, 0.9).delta
    assert d09 < d01 < 1.05 * d09  # weak decrease


def test_effective_angle_peak_convention():
    # under the equivalent-width convention the pi-component broadens
    deltas = [effective_angle("boson", 3, None, b, definition="peak").delta
              for b in (0.3, 0.6, 0.9)]
    assert deltas[0] < deltas[1] < deltas[2]
    rep = effective_angle("boson", 3, None, 0.5, definition="peak")
    assert rep.definition_id == "peak"
    with pytest.raises(DomainError):
        effective_angle("boson", 0, None, 0.5, definition="median")


def test_bad_kind():
    with pytest.raises(DomainError):
        max_angle("muon", 0, None, 0.9)
    with pytest.raises(DomainError):
        max_angle("electron", 2, -1, 0.9)
