import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from srq1 import boson, electron, integrals, quadrature, series_coefficients
from srq1.errors import ConvergenceError, DomainError
from srq1.family import Family
from srq1.integrals import f_b, f_e

import oracles
import series

E = math.e


def test_boson_values_at_zero():
    assert f_b(1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert f_b(2, 0.0) == pytest.approx(2.0, abs=1e-10)
    assert f_b(3, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert f_b(0, 0.0) == pytest.approx(8.0 / 3.0, abs=1e-10)


def test_boson_f1_at_one():
    assert f_b(1, 1.0) == pytest.approx(4.0 / E - 1.0, abs=1e-12)


def test_boson_vs_riemann():
    # against the exact power series at 40 digits, which replaced the Riemann sum
    assert f_b(2, 0.2) == pytest.approx(float(series.value("boson", 2, 0.2)), rel=1e-15, abs=0.0)
    assert f_b(3, 0.2) == pytest.approx(float(series.value("boson", 3, 0.2)), rel=1e-15, abs=0.0)


def test_electron_values():
    assert f_e(1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert f_e(2, 0.0) == pytest.approx(2.0, abs=1e-10)
    assert f_e(3, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert f_e(2, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)
    assert f_e(3, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)
    assert f_e(1, 1.0) == pytest.approx(2.0 - 3.0 / E, abs=1e-12)


def test_electron_vs_riemann():
    # against the exact power series at 40 digits, which replaced the Riemann sum
    assert f_e(3, 0.5) == pytest.approx(float(series.value("electron", 3, 0.5)), rel=1e-15,
                                        abs=0.0)
    assert f_e(2, 0.5) == pytest.approx(float(series.value("electron", 2, 0.5)), rel=1e-15,
                                        abs=0.0)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7])
def test_electron_yform_equivalence(x):
    # the y-form integral at 40 digits and the series are the same function
    assert f_e(2, x) == pytest.approx(float(series.yform("electron", 2, x)), rel=1e-15, abs=0.0)
    assert f_e(3, x) == pytest.approx(float(series.yform("electron", 3, x)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", [0.05, 0.15, 0.26])
def test_boson_yform_equivalence(x):
    assert f_b(2, x) == pytest.approx(float(series.yform("boson", 2, x)), rel=1e-15, abs=0.0)
    assert f_b(3, x) == pytest.approx(float(series.yform("boson", 3, x)), rel=1e-15, abs=0.0)


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
    # f_2 and f_3 follow f = 2 - 3/e -+ (2/e)(1 - x) ln(1 - x) + O(1 - x) as
    # x -> 1: the remainder over 1 - x stays bounded, which a log coefficient
    # off by 2/e (the -4/e of f_2's old truncated expansion) would make grow
    # like ln(1 - x)
    for x in (1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10, 1.0 - 1e-12):
        d = 1.0 - x
        w = d * math.log(d)
        for k, sign in ((2, -1.0), (3, 1.0)):
            remainder = (f_e(k, x) - (2.0 - 3.0 / E + sign * 2.0 / E * w)) / d
            assert abs(remainder) < 1.5, (k, d)


def test_series_and_closed_form_agree_across_series_x():
    # f_2, f_3 and f_0 of both kernels at SERIES_X, the last x of the series,
    # and at the next double up, the first of the closed form: within one
    # unit in the last place of each other
    below = integrals.SERIES_X
    above = math.nextafter(below, 1.0)
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for k in (0, 2, 3):
            got = integrals._f(kernel, k, above, quadrature.DEFAULT_CONFIG)
            want = integrals._f(kernel, k, below, quadrature.DEFAULT_CONFIG)
            assert abs(got - want) <= math.ulp(want), (kernel.electron, k)


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
        assert fam(k, x) == pytest.approx(want, rel=1.5e-15, abs=0.0), k


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
    boson_x_one = r"^boson f_2, f_3 are evaluated in closed form only for x < 1$"
    for k in (0, 2, 3):  # the boson's closed form holds below x = 1 only
        with pytest.raises(DomainError, match=boson_x_one):
            f_b(k, 1.0)


def test_f_columns_reports_domain_errors_per_x_and_k():
    # a k outside 1, 2, 3 fails at every x and an x outside [0, 1] at every
    # k, each (x, k) with an error of its own; the other values are those of
    # their one-x calls, and the boson's f_2, f_3 fail at x = 1 while its f_1
    # is served there
    table, errors = integrals.f_columns(integrals.BOSON_KERNEL, (0, 4, 2, 3, 1),
                                        np.array([0.5, 1.5, float("nan"), 1.0]))
    want = {(i, j): f"integral index must be 1, 2 or 3, got {k}"
            for i in range(4) for j, k in ((0, 0), (1, 4))}
    want.update({(i, j): f"argument must lie in [0, 1], got {x}"
                 for i, x in ((1, 1.5), (2, float("nan"))) for j in (2, 3, 4)})
    want.update({(3, j): "boson f_2, f_3 are evaluated in closed form only for x < 1"
                 for j in (2, 3)})
    assert {key: str(error) for key, error in errors.items()} == want
    assert all(isinstance(error, DomainError) for error in errors.values())
    assert len({id(error) for error in errors.values()}) == len(errors)
    assert all(math.isnan(table[key]) for key in errors)
    assert table[0, 2:].tolist() == [f_b(2, 0.5), f_b(3, 0.5), f_b(1, 0.5)]
    assert table[3, 4] == f_b(1, 1.0)


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
# (x < 1e-4) and the extended-precision expm1 form of f_1, the power series
# of f_2, f_3 (k = 0, 2, 3 up to x = 1/sqrt2), the closed form above it, and
# the electron's exact x = 1 values
PINS = [
    ("f_b", 1, 5e-05, "0x1.fffcb9200e68ap-1"),
    ("f_b", 0, 5e-05, "0x1.5550f6df7f761p+1"),
    ("f_b", 2, 0.0, "0x1.0000000000000p+1"),
    ("f_b", 1, 0.1, "0x1.e5a615ef9be44p-1"),
    ("f_b", 1, 0.3, "0x1.ae0cf64de4bb5p-1"),
    ("f_b", 0, 0.3, "0x1.f5414c7a9ada6p+0"),
    ("f_b", 2, 0.3, "0x1.4f31b39a75b68p+0"),
    ("f_b", 3, 0.3, "0x1.4c1f31c04a47cp-1"),
    ("f_b", 0, 0.9, "0x1.0b15afbff06b2p+0"),
    ("f_b", 2, 0.9999999, "0x1.e2d590b54bc86p-2"),
    ("f_b", 3, 0.9999999, "0x1.e2d590b54b436p-2"),
    ("f_b", 1, 1.0, "0x1.e2d58d8b3bcdfp-2"),
    ("f_e", 1, 5e-05, "0x1.fffffffc6bc36p-1"),
    ("f_e", 0, 5e-05, "0x1.5555554f32a03p+1"),
    ("f_e", 2, 0.0, "0x1.0000000000000p+1"),
    ("f_e", 1, 0.1, "0x1.ff30261837433p-1"),
    ("f_e", 1, 0.3, "0x1.f95ff7fcff3dap-1"),
    ("f_e", 0, 0.3, "0x1.49540e00eb128p+1"),
    ("f_e", 2, 0.3, "0x1.e6616ff711518p+0"),
    ("f_e", 3, 0.3, "0x1.588d581589a6fp-1"),
    ("f_e", 0, 0.9, "0x1.f3a8555ad7c93p+0"),
    ("f_e", 2, 0.999998, "0x1.caf2abba47779p-1"),
    ("f_e", 3, 0.999998, "0x1.caeda26b95f6ap-1"),
    ("f_e", 2, 0.9999999, "0x1.caf0158ea39e8p-1"),
    ("f_e", 3, 0.9999999, "0x1.caefc64cdf316p-1"),
    ("f_e", 0, 0.9999999, "0x1.caefededc167fp+0"),
    ("f_e", 1, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 2, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 3, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 0, 1.0, "0x1.caefeaebc992cp+0"),
]


@pytest.mark.parametrize("name, k, x, want", PINS)
def test_f_k_bits_on_every_branch(name, k, x, want):
    assert getattr(integrals, name)(k, x).hex() == want


class _AtX(Family):
    """A family whose x0 is its beta, so that its ``f_table`` takes the x."""

    def _x1(self, beta, cos2=None, sin2=None, sqrt=math.sqrt):
        return beta, beta, beta, beta


def _pin_xs(electron):
    """1 974 seeded x (1 975 for the electron) on every branch of the f_k
    evaluator: 0, [0, 1e-4) and 1e-4 with the doubles next to it, [1e-4,
    SERIES_X], SERIES_X and two doubles on each side of it, (SERIES_X, 1),
    1 - 10^-k for k = 1..15, and for the electron 1."""
    rng = np.random.default_rng(37)
    x = integrals.SERIES_X
    below, above = math.nextafter(x, 0.0), math.nextafter(x, 1.0)
    return [0.0, *rng.uniform(0.0, 1e-4, 300).tolist(),
            *(10.0 ** rng.uniform(-300.0, -4.0, 100)).tolist(),
            math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
            *rng.uniform(1e-4, x, 700).tolist(),
            math.nextafter(below, 0.0), below, x, above, math.nextafter(above, 1.0),
            *rng.uniform(x, 1.0, 700).tolist(),
            *(1.0 - 10.0 ** rng.uniform(-15.9, -1.0, 150)).tolist(),
            *(1.0 - 10.0 ** -k for k in range(1, 16))] + ([1.0] if electron else [])


def test_f_k_bits_are_pinned():
    # f_1, f_2 and f_3 of both families at the x of _pin_xs, each through
    # f_b or f_e and through the evaluator of Family.f_table, hashed in
    # float.hex: the two agree bit for bit, and their sha256 is the one
    # recorded when f_k were evaluated pair by pair
    digest = hashlib.sha256()
    for fam, one in ((boson.BOSON, integrals.f_b), (electron.ELECTRON, integrals.f_e)):
        xs = _pin_xs(fam.spin)
        alone = [one(k, x).hex() for x in xs for k in (1, 2, 3)]
        _, _, table, failed = _AtX(**vars(fam)).f_table((1, 2, 3), xs,
                                                        quadrature.DEFAULT_CONFIG)
        assert failed == [None] * len(xs)
        batch = [value.hex() for value in table.ravel().tolist()]
        assert batch == alone
        digest.update("\n".join(alone + batch).encode())
    assert digest.hexdigest() == (
        "e97984035cc249869469b4878f43dae8717f58d4e85957f140e1aff4f7f4ffd0")


_TABLES = [("boson", 2, "BOSON_F2"), ("boson", 3, "BOSON_F3"),
           ("electron", 2, "ELECTRON_F2"), ("electron", 3, "ELECTRON_F3")]


@pytest.mark.parametrize("family, k, name", _TABLES)
def test_series_coefficients_are_the_nearest_doubles(family, k, name):
    # c_0 ... c_{N+1} (N = 89 for the boson, 91 for the electron), each the
    # double nearest its exact c_n, and for the first HEAD terms the double
    # nearest what is left of c_n
    table = getattr(series_coefficients, name)
    assert len(table) == (91 if family == "boson" else 93)
    exact = series.coefficients(family, k, len(table))
    assert [float(c) for c in exact] == list(table)
    rest = getattr(series_coefficients, name + "_LO")
    assert len(rest) == integrals.HEAD
    assert [float(c - Fraction(t)) for c, t in zip(exact[:len(rest)], table)] == list(rest)


@pytest.mark.parametrize("family, k, name", _TABLES)
def test_series_tail_bound_holds_past_its_terms(family, k, name):
    # the tail bound (|c_N| x^N + |c_{N+1}| x^{N+1}) / (1 - x^2) takes each
    # parity of |c_n| to decrease from n = N on: checked up to n = 200
    n = len(getattr(series_coefficients, name)) - 2
    size = [abs(c) for c in series.coefficients(family, k, 200)]
    assert all(size[m + 2] <= size[m] for m in range(n, 198))


def test_series_serves_up_to_the_last_x_of_one_piece():
    # SERIES_X is the largest x with sqrt((1 - x)(1 + x)) >= x, that is t/x^2
    # >= 1: above it each step of the closed form's recurrence damps an error
    x = integrals.SERIES_X
    assert math.sqrt((1.0 - x) * (1.0 + x)) >= x
    above = math.nextafter(x, 1.0)
    assert math.sqrt((1.0 - above) * (1.0 + above)) < above


def _ulps(value, exact):
    return abs(float((mpmath.mpf(value) - exact) / mpmath.mpf(np.spacing(abs(value)))))


@pytest.mark.parametrize("kernel, family", [(integrals.BOSON_KERNEL, "boson"),
                                            (integrals.ELECTRON_KERNEL, "electron")])
def test_series_against_the_40_digit_yform(kernel, family):
    # the series on [0, 1/sqrt2], both ends included, against mpmath quadrature
    # of the y-form at 40 digits: within one unit in the last place
    rng = np.random.default_rng(18)
    xs = [0.0, 1e-9, 5e-5, 0.3, integrals.SERIES_X,
          *rng.uniform(0.0, integrals.SERIES_X, 6).tolist()]
    table, errors = integrals.f_columns(kernel, (2, 3), np.array(xs))
    assert errors == {}
    for k, values in zip((2, 3), table.T.tolist()):
        for x, value in zip(xs, values):
            assert _ulps(value, series.yform(family, k, x)) <= 1.0, (k, x)


def test_series_bound_is_reported_with_its_estimate():
    # a tolerance below a value's bound gives that f_k(x) a ConvergenceError
    # of its own with the bound and the estimate, which lies within the bound
    # of the exact sum
    cfg = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    xs = [0.0, 0.3, integrals.SERIES_X]
    for kernel, family in ((integrals.BOSON_KERNEL, "boson"),
                           (integrals.ELECTRON_KERNEL, "electron")):
        plain, _ = integrals.f_columns(kernel, (2, 3), np.array(xs))
        table, errors = integrals.f_columns(kernel, (2, 3), np.array(xs), cfg)
        assert sorted(errors) == [(i, j) for i in range(3) for j in range(2)]
        assert np.isnan(table).all()
        for (i, j), error in errors.items():
            value, k = plain[i, j].item(), j + 2
            assert isinstance(error, ConvergenceError)
            assert error.estimate == value
            assert 0.0 < error.error_bound <= kernel.series.worst
            tol = max(1e-300, 1e-300 * abs(value))
            assert str(error) == (f"power series error bound {error.error_bound:.3e} "
                                  f"exceeds tolerance {tol:.3e}")
            assert abs(value - series.value(family, k, xs[i])) <= error.error_bound


# 44 x from the first double above SERIES_X to 1 - 1e-15, evenly in ln(1 - x)
_CLOSED_XS = [math.nextafter(integrals.SERIES_X, 1.0),
              *(1.0 - np.geomspace(1.0 - integrals.SERIES_X, 1e-15, 44)[1:]).tolist()]


@pytest.mark.parametrize("kernel, family", [(integrals.BOSON_KERNEL, "boson"),
                                            (integrals.ELECTRON_KERNEL, "electron")])
def test_closed_form_against_the_40_digit_sform(kernel, family):
    # above SERIES_X, against mpmath quadrature of the s-form at 40 digits,
    # graded toward s = 0: within 2e-16 relative
    table, errors = integrals.f_columns(kernel, (2, 3), np.array(_CLOSED_XS))
    assert errors == {}
    for k, values in zip((2, 3), table.T.tolist()):
        for x, value in zip(_CLOSED_XS, values):
            exact = series.sform(family, k, x)
            assert abs(float((mpmath.mpf(value) - exact) / exact)) <= 2e-16, (k, x)


@pytest.mark.parametrize("kernel, family", [(integrals.BOSON_KERNEL, "boson"),
                                            (integrals.ELECTRON_KERNEL, "electron")])
def test_closed_form_bound_is_reported_with_its_estimate(kernel, family):
    # a tolerance below a value's bound gives that f_k(x) a ConvergenceError
    # of its own with the bound and the estimate, which lies within the bound
    # of the exact f_k
    cfg = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    plain, _ = integrals.f_columns(kernel, (2, 3), np.array(_CLOSED_XS))
    _, errors = integrals.f_columns(kernel, (2, 3), np.array(_CLOSED_XS), cfg)
    assert sorted(errors) == [(i, j) for i in range(len(_CLOSED_XS)) for j in range(2)]
    for (i, j), error in errors.items():
        value, k = plain[i, j].item(), j + 2
        assert isinstance(error, ConvergenceError)
        assert error.estimate == value
        assert 0.0 < error.error_bound <= integrals._CLOSED_WORST
        tol = max(1e-300, 1e-300 * abs(value))
        assert str(error) == (f"closed form error bound {error.error_bound:.3e} "
                              f"exceeds tolerance {tol:.3e}")
        assert abs(mpmath.mpf(value) - series.sform(family, k, _CLOSED_XS[i])) <= error.error_bound


def test_no_f_k_pair_reaches_the_quadrature(monkeypatch):
    # no f_k is integrated numerically: on every branch of both kernels, at
    # the default tolerance and at one below every bound
    def refuse(*args, **kwargs):
        raise AssertionError("an f_k reached the quadrature")

    for name in ("nodes", "sums", "settled", "quad_adaptive"):
        monkeypatch.setattr(quadrature, name, refuse)
    monkeypatch.setattr(integrals, "quad_adaptive", refuse)
    xs = np.array([0.0, 5e-5, 0.3, integrals.SERIES_X, math.nextafter(integrals.SERIES_X, 1.0),
                   0.9, 1.0 - 1e-15, 1.0])
    tight = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for cfg in (quadrature.DEFAULT_CONFIG, tight):
            table, _ = integrals.f_columns(kernel, (1, 2, 3), xs, cfg)
            assert table.shape == (len(xs), 3)


def test_f_columns_bits_do_not_depend_on_the_batch():
    # each value of a batch has the bits of its one-x call, and each failed
    # value its message, in batches of 1 to 2048 x, with x repeated, on both
    # sides of SERIES_X and up to 1, for ks in any order
    rng = np.random.default_rng(32)
    above = math.nextafter(integrals.SERIES_X, 1.0)
    xs = [0.0, 5e-5, integrals.SERIES_X, above,
          *rng.uniform(0.0, integrals.SERIES_X, 300).tolist(),
          *rng.uniform(above, 0.999, 40).tolist(), *(1.0 - rng.uniform(0.0, 1e-3, 20)).tolist(),
          1.0 - 1e-15, 1.0]
    pool = [xs[i] for i in rng.integers(0, len(xs), 2048)]
    tight = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for cfg, sizes in ((quadrature.DEFAULT_CONFIG, (1, 2, 3, 7, 8, 9, 79, 80, 81, 127, 128,
                                                        129, 160, 161, 256, 257, 1000, 2048)),
                           (tight, (1, 2, 81, 161))):
            one = {x: _cells(*integrals.f_columns(kernel, (1, 2, 3), np.array([x]), cfg))[0]
                   for x in set(pool)}
            for ks in ((1, 2, 3), (3, 1), (2,)):
                for n in sizes:
                    got = _cells(*integrals.f_columns(kernel, ks, np.array(pool[:n]), cfg))
                    assert got == [[one[x][k - 1] for k in ks] for x in pool[:n]], (ks, n)


def _cells(table, errors):
    """Each row of an f_columns table as float.hex, or the message of its error."""
    return [[str(errors[i, j]) if (i, j) in errors else value.hex()
             for j, value in enumerate(row)] for i, row in enumerate(table.tolist())]
