import math

import numpy as np
import pytest

from srq1 import family, integrals
from srq1.errors import DomainError
from srq1.integrals import BOUNDARY_EPS, f_b, f_e

import oracles

E = math.e


def test_boson_values_at_zero():
    assert f_b(1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert f_b(2, 0.0) == pytest.approx(2.0, abs=1e-10)
    assert f_b(3, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert f_b(0, 0.0) == pytest.approx(8.0 / 3.0, abs=1e-10)


def test_boson_f1_at_one():
    assert f_b(1, 1.0) == pytest.approx(4.0 / E - 1.0, abs=1e-12)


def test_boson_vs_riemann():
    assert f_b(2, 0.2) == pytest.approx(oracles.f2_b_sub(0.2), abs=1e-7)
    assert f_b(3, 0.2) == pytest.approx(oracles.f3_b_sub(0.2), abs=1e-7)


def test_electron_values():
    assert f_e(1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert f_e(2, 0.0) == pytest.approx(2.0, abs=1e-10)
    assert f_e(3, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert f_e(2, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)
    assert f_e(3, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)
    assert f_e(1, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)


def test_electron_vs_riemann():
    assert f_e(3, 0.5) == pytest.approx(oracles.f3_e_sub(0.5), abs=1e-7)
    assert f_e(2, 0.5) == pytest.approx(oracles.f2_e_sub(0.5), abs=1e-7)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7])
def test_electron_yform_equivalence(x):
    # the improper y-form and the regularized t-form are the same integral
    assert f_e(2, x) == pytest.approx(oracles.f2_e_yform(x), abs=1e-8)
    assert f_e(3, x) == pytest.approx(oracles.f3_e_yform(x), abs=1e-8)


@pytest.mark.parametrize("x", [0.05, 0.15, 0.26])
def test_boson_yform_equivalence(x):
    assert f_b(2, x) == pytest.approx(oracles.f2_b_yform(x), abs=1e-8)
    assert f_b(3, x) == pytest.approx(oracles.f3_b_yform(x), abs=1e-8)


def test_electron_small_x_series():
    # deviations from the quadratic expansions must vanish faster than x^2
    series = {
        1: lambda x: 1.0 - x**2 / 6.0,
        2: lambda x: 2.0 * (1.0 - 3.0 / 5.0 * x**2),
        3: lambda x: 2.0 / 3.0 * (1.0 + 3.0 / 35.0 * x**2),
    }
    for k, approx in series.items():
        ratios = []
        for x in (1e-2, 1e-3):
            ratios.append(abs(f_e(k, x) - approx(x)) / x**2)
        assert ratios[1] < ratios[0]
        assert ratios[0] < 1e-1


def test_electron_boundary_expansion_path():
    x = 1.0 - 1e-7
    w = (1.0 - x) * math.log(1.0 - x)
    assert f_e(2, x) == pytest.approx(2.0 - 3.0 / E - 4.0 / E * w, rel=1e-12)
    assert f_e(3, x) == pytest.approx(2.0 - 3.0 / E + 2.0 / E * w, rel=1e-12)


def test_electron_boundary_switch_is_continuous():
    # the truncated expansion drops O(1-x) terms, so the handoff agrees
    # only to ~1e-5 at the switch point
    eps = BOUNDARY_EPS
    below = f_e(2, 1.0 - eps * 1.01)  # quadrature side
    above = f_e(2, 1.0 - eps * 0.99)  # expansion side
    assert abs(below - above) < 5e-5


@pytest.mark.parametrize("fam,xs", [
    (f_b, [0.05, 0.1, 0.2, 0.26]),
    (f_e, [0.1, 0.3, 0.6, 0.9]),
])
def test_continuity(fam, xs):
    for k in (1, 2, 3):
        for x in xs:
            assert abs(fam(k, x + 1e-6) - fam(k, x)) < 1e-4


@pytest.mark.parametrize("fam,x", [(f_b, 0.2), (f_e, 0.5)])
def test_f0_is_sum(fam, x):
    assert fam(0, x) == fam(2, x) + fam(3, x)


def test_domain_errors():
    with pytest.raises(DomainError):
        f_b(4, 0.5)
    with pytest.raises(DomainError):
        f_b(2, -0.1)
    with pytest.raises(DomainError):
        f_e(2, 1.1)
    with pytest.raises(DomainError):
        f_b(2, 1.0)  # boson quadrature form only valid below x = 1


def _integrand_reference(fam, k, x):
    # the f_2/f_3 integrand written without shared subexpressions
    def g(t):
        num = 1.0 - x * t * t
        if k == 3:
            num = num * t * t
        elif k == 2 and fam.k2_square:
            num = num * (1.0 + x * t * t) ** 2
        weight = np.exp(-x * (1.0 - t * t) / (1.0 - x * x * t * t))
        return num / (1.0 - x * x * t * t) ** fam.u_power * weight

    return g


def test_integrand_shares_subexpressions_bit_for_bit():
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0]])
    for fam in (family.BOSON, family.ELECTRON):
        for k in (2, 3):
            for x in [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]:
                got = integrals._integrand(fam, k, float(x))(t)
                want = _integrand_reference(fam, k, float(x))(t)
                assert got.tobytes() == want.tobytes(), (fam is family.BOSON, k, x)
