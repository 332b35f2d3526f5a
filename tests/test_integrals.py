import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srq1 import integrals
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
    boson_x_one = r"^boson f_2, f_3 are evaluated by quadrature only for x < 1$"
    for k in (0, 2, 3):  # boson quadrature form only valid below x = 1
        with pytest.raises(DomainError, match=boson_x_one):
            f_b(k, 1.0)


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
    for fam in (integrals._BOSON, integrals._ELECTRON):
        for k in (2, 3):
            for x in [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]:
                got = integrals._integrand(fam, k, float(x))(t)
                want = _integrand_reference(fam, k, float(x))(t)
                assert got.tobytes() == want.tobytes(), (fam is integrals._BOSON, k, x)


def test_integrals_does_not_load_family():
    # the f_k kernels live in integrals; family reads integrals, not the reverse
    code = "import sys, srq1.integrals; print('srq1.family' in sys.modules)"
    src = str(Path(integrals.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "False\n"


# float.hex of f_k(x) on every branch of the evaluator: the f_1 series
# (x < 1e-4), elementary f_1, quadrature (k = 0, 2, 3), the electron's
# boundary expansion (1 - x < BOUNDARY_EPS), its exact x = 1 values, and the
# boson's x = 1 error
PINS = [
    ("f_b", 1, 5e-05, "0x1.fffcb9200e68ap-1"),
    ("f_b", 0, 5e-05, "0x1.5550f6df7f750p+1"),
    ("f_b", 2, 0.0, "0x1.fffffffffffe5p+0"),
    ("f_b", 1, 0.3, "0x1.ae0cf64de4bb7p-1"),
    ("f_b", 0, 0.3, "0x1.f5414c7a9ad8ap+0"),
    ("f_b", 2, 0.3, "0x1.4f31b39a75b55p+0"),
    ("f_b", 3, 0.3, "0x1.4c1f31c04a46ap-1"),
    ("f_b", 0, 0.9, "0x1.0b15afbff06a4p+0"),
    ("f_b", 2, 0.9999999, "0x1.e2d590b4445bap-2"),
    ("f_b", 3, 0.9999999, "0x1.e2d590b4e996dp-2"),
    ("f_b", 1, 1.0, "0x1.e2d58d8b3bce0p-2"),
    ("f_e", 1, 5e-05, "0x1.fffffffc6bc36p-1"),
    ("f_e", 0, 5e-05, "0x1.5555554f329f2p+1"),
    ("f_e", 2, 0.0, "0x1.fffffffffffe5p+0"),
    ("f_e", 1, 0.3, "0x1.f95ff7fcff3dep-1"),
    ("f_e", 0, 0.3, "0x1.49540e00eb117p+1"),
    ("f_e", 2, 0.3, "0x1.e6616ff7114ffp+0"),
    ("f_e", 3, 0.3, "0x1.588d581589a5ep-1"),
    ("f_e", 0, 0.9, "0x1.f3a8555ad7c79p+0"),
    ("f_e", 2, 0.999998, "0x1.caf2abba492e1p-1"),
    ("f_e", 3, 0.999998, "0x1.caeda26b97ad2p-1"),
    ("f_e", 2, 0.9999999, "0x1.caf03a8173053p-1"),
    ("f_e", 3, 0.9999999, "0x1.caefc320f4d99p-1"),
    ("f_e", 0, 0.9999999, "0x1.caeffed133ef6p+0"),
    ("f_e", 1, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 2, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 3, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 0, 1.0, "0x1.caefeaebc992cp+0"),
]


@pytest.mark.parametrize("name, k, x, want", PINS)
def test_f_k_bits_on_every_branch(name, k, x, want):
    assert getattr(integrals, name)(k, x).hex() == want
