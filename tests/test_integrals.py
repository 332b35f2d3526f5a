import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srq1 import integrals, quadrature
from srq1.errors import DomainError
from srq1.integrals import S_FORM_X, f_b, f_e

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


def test_electron_boundary_expansion_path(monkeypatch):
    # above S_FORM_X, f_2 and f_3 run on the graded s-form pieces, and follow
    # f = 2 - 3/e -+ (2/e)(1 - x) ln(1 - x) + O(1 - x) as x -> 1: the remainder
    # over 1 - x stays bounded, which a log coefficient off by 2/e (the -4/e
    # of f_2's old truncated expansion) would make grow like ln(1 - x)
    intervals = []

    def capture(f, pieces, cfg):
        intervals.extend(pieces)
        return quadrature.quad_batch(f, pieces, cfg)

    monkeypatch.setattr(integrals, "quad_batch", capture)
    for x in (1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-12):
        d = 1.0 - x
        w = d * math.log(d)
        for k, sign in ((2, -1.0), (3, 1.0)):
            del intervals[:]
            remainder = (f_e(k, x) - (2.0 - 3.0 / E + sign * 2.0 / E * w)) / d
            assert abs(remainder) < 1.5, (k, d)
            assert intervals == integrals._s_pieces(x)
            assert intervals[0][0] == 0.0 and intervals[-1][1] == 1.0
            assert intervals[1][0] == pytest.approx(math.sqrt(d * (2.0 - d)) / x, rel=1e-15)


def test_electron_boundary_switch_is_continuous():
    # f_2, f_3 and f_0 at S_FORM_X (t-form) and the next double up (s-form)
    above = math.nextafter(S_FORM_X, 1.0)
    for k in (0, 2, 3):
        assert f_e(k, above) == pytest.approx(f_e(k, S_FORM_X), rel=1e-13, abs=0.0), k


def test_f1_series_switch_is_continuous():
    # f_1 at 1e-4 (expm1 form) and the next double down (series)
    below = math.nextafter(1e-4, 0.0)
    for fam in (f_b, f_e):
        assert fam(1, below) == pytest.approx(fam(1, 1e-4), rel=1e-13, abs=0.0)


def _oracle_xs():
    """(family, x) of the oracle sweep: 1 - x = 10^-1 ... 10^-15 for the
    electron, x = 10^-1 ... 10^-15 for both, and the boson up to its largest
    x, 2 - sqrt3."""
    near_one = [1.0 - 10.0 ** -p for p in range(1, 16)]
    near_zero = [10.0 ** -p for p in range(1, 16)]
    return ([("e", x) for x in near_one + near_zero]
            + [("b", x) for x in near_zero + [2.0 - math.sqrt(3.0)]])


@pytest.mark.parametrize("kind, x", _oracle_xs())
def test_f_k_against_the_mpmath_oracle(kind, x):
    oracle = oracles.bench_module("oracle")
    ref = oracle.Integrals(kind, oracle.mp.mpf(x), 1 - oracle.mp.mpf(x))
    fam = f_e if kind == "e" else f_b
    for k in (0, 1, 2, 3):
        want = float(getattr(ref, f"f{k}"))
        assert fam(k, x) == pytest.approx(want, rel=1e-13, abs=0.0), k


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


def _integrand_reference(kernel, k, x):
    # the f_2/f_3 integrand of one x and k, written without shared subexpressions
    def g(t):
        num = 1.0 - x * t * t
        if k == 3:
            num = num * t * t
        elif k == 2 and kernel.k2_square:
            num = num * (1.0 + x * t * t) ** 2
        weight = np.exp(-x * (1.0 - t * t) / (1.0 - x * x * t * t))
        return num / (1.0 - x * x * t * t) ** kernel.u_power * weight

    return g


def test_integrand_shares_subexpressions_bit_for_bit():
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0]])
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for k in (2, 3):
            for x in [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]:
                got = integrals._integrand(kernel, float(x), k == 3, t)
                want = _integrand_reference(kernel, k, float(x))(t)
                assert got.tobytes() == want.tobytes(), (kernel is integrals.BOSON_KERNEL, k, x)


def test_integrand_rows_of_mixed_x_and_k_bit_for_bit():
    # one call on rows of mixed x and k, as a batch of f_2 and f_3 pairs makes
    # it, gives each row the bits of the one-integral form on its own nodes
    rng = np.random.default_rng(11)
    xs = [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]
    pairs = [(k, float(x)) for x in xs for k in (2, 3)]
    t = rng.uniform(0.0, 1.0, (len(pairs), 15))
    t[:, :2] = 0.0, 1.0
    x = np.array([x for _, x in pairs])[:, None]
    k3 = np.array([k == 3 for k, _ in pairs])[:, None]
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        got = integrals._integrand(kernel, x, k3, t)
        for row, (k, xr) in enumerate(pairs):
            want = _integrand_reference(kernel, k, xr)(t[row])
            assert got[row].tobytes() == want.tobytes(), (kernel is integrals.BOSON_KERNEL, k, xr)
        # one x shared by an f_2 and an f_3 row, as in f_0 or a one-beta batch
        for xr in xs:
            got = integrals._integrand(kernel, float(xr), np.array([[False], [True]]), t[:2])
            for row, k in enumerate((2, 3)):
                want = _integrand_reference(kernel, k, float(xr))(t[row])
                assert got[row].tobytes() == want.tobytes(), (kernel is integrals.BOSON_KERNEL, k, xr)


def test_f_values_reports_domain_errors_per_pair():
    got = integrals.f_values(integrals.BOSON_KERNEL, [0, 4, 2, 3, 1],
                             [0.5, 0.5, 1.5, float("nan"), 0.5])
    messages = [str(v) for v in got[:4]]
    assert messages == ["integral index must be 1, 2 or 3, got 0",
                        "integral index must be 1, 2 or 3, got 4",
                        "argument must lie in [0, 1], got 1.5",
                        "argument must lie in [0, 1], got nan"]
    assert all(isinstance(v, DomainError) for v in got[:4])
    assert got[4] == f_b(1, 0.5)


def _loads(module):
    """The srq1 modules that importing ``module`` loads, in a fresh process."""
    code = f"import sys, {module}; print(*(m for m in sys.modules if m.startswith('srq1')))"
    src = str(Path(integrals.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return set(done.stdout.split())


def test_integrals_does_not_load_family():
    # the f_k kernels live in integrals, below the particle model
    assert "srq1.family" not in _loads("srq1.integrals")


def test_family_loads_neither_integrals_nor_a_particle():
    # the Family records live with their particles, which hand them f_k
    assert not _loads("srq1.family") & {"srq1.integrals", "srq1.boson", "srq1.electron"}


# float.hex of f_k(x) on every branch of the evaluator: the f_1 series
# (x < 1e-4), the expm1 (x < 0.25) and the closed-form f_1, the t-form
# quadrature (k = 0, 2, 3), the electron's s-form quadrature (x > S_FORM_X),
# its exact x = 1 values, and the boson's x = 1 error
PINS = [
    ("f_b", 1, 5e-05, "0x1.fffcb9200e68ap-1"),
    ("f_b", 0, 5e-05, "0x1.5550f6df7f750p+1"),
    ("f_b", 2, 0.0, "0x1.fffffffffffe5p+0"),
    ("f_b", 1, 0.1, "0x1.e5a615ef9be43p-1"),
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
    ("f_e", 1, 0.1, "0x1.ff30261837433p-1"),
    ("f_e", 1, 0.3, "0x1.f95ff7fcff3dep-1"),
    ("f_e", 0, 0.3, "0x1.49540e00eb117p+1"),
    ("f_e", 2, 0.3, "0x1.e6616ff7114ffp+0"),
    ("f_e", 3, 0.3, "0x1.588d581589a5ep-1"),
    ("f_e", 0, 0.9, "0x1.f3a8555ad7c79p+0"),
    ("f_e", 2, 0.999998, "0x1.caf2abba47760p-1"),
    ("f_e", 3, 0.999998, "0x1.caeda26b95f4fp-1"),
    ("f_e", 2, 0.9999999, "0x1.caf0158ea39dap-1"),
    ("f_e", 3, 0.9999999, "0x1.caefc64cdf2f9p-1"),
    ("f_e", 0, 0.9999999, "0x1.caefededc166ap+0"),
    ("f_e", 1, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 2, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 3, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 0, 1.0, "0x1.caefeaebc992cp+0"),
]


@pytest.mark.parametrize("name, k, x, want", PINS)
def test_f_k_bits_on_every_branch(name, k, x, want):
    assert getattr(integrals, name)(k, x).hex() == want
