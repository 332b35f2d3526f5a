import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from srq1 import integrals, quadrature, series_coefficients
from srq1.errors import ConvergenceError, DomainError
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


def test_electron_boundary_expansion_path(monkeypatch):
    # f_2 and f_3 run on the graded s-form pieces, and follow
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


def _last_x_with_pieces(n, x):
    """The largest double that ``_s_pieces`` cuts into n pieces, from a guess x
    next to it."""
    while len(integrals._s_pieces(x)) > n:
        x = math.nextafter(x, 0.0)
    while len(integrals._s_pieces(math.nextafter(x, 1.0))) == n:
        x = math.nextafter(x, 1.0)
    return x


@pytest.mark.parametrize("n, guess", [(1, 1.0 / math.sqrt(2.0)),
                                      (2, 1.0 / math.sqrt(1.0 + 1.0 / 64.0))],
                         ids=["one-to-two", "two-to-three"])
def test_s_pieces_cuts_are_continuous(n, guess):
    # f_2, f_3 and f_0 of both kernels on the last x of n pieces and the next
    # double up, of n + 1
    # (the last x of one piece is the last x of the power series)
    below = _last_x_with_pieces(n, guess)
    above = math.nextafter(below, 1.0)
    assert len(integrals._s_pieces(above)) == n + 1
    assert (below == integrals.SERIES_X) == (n == 1)
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for k in (0, 2, 3):
            got = integrals._f(kernel, k, above, quadrature.DEFAULT_CONFIG)
            want = integrals._f(kernel, k, below, quadrature.DEFAULT_CONFIG)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), (kernel.electron, k)


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
    boson_x_one = r"^boson f_2, f_3 are evaluated by quadrature only for x < 1$"
    for k in (0, 2, 3):  # boson quadrature form only valid below x = 1
        with pytest.raises(DomainError, match=boson_x_one):
            f_b(k, 1.0)


def _integrand_reference(kernel, k, x):
    # the f_2/f_3 integrand of one x and k, the formulas of bench/oracle.py
    # written without shared subexpressions
    om = (1.0 - x) * (1.0 + x)

    def g(s):
        y = 1.0 - s * s
        w = 2.0 * (1.0 + x * y) * np.exp(-(x * y))
        q = om + x * x * (s * s)
        if kernel.electron:
            return w * np.sqrt(q) if k == 2 else w * (s * s) / np.sqrt(q)
        return w * (1.0 - x * y) ** 2 / np.sqrt(q) if k == 2 else w * (s * s) * np.sqrt(q)

    return g


def _integrand(kernel, x, k3, s):
    om = (1.0 - x) * (1.0 + x)
    return integrals._s_integrand(kernel.electron, x, om, k3, s)


def test_integrand_shares_subexpressions_bit_for_bit():
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0]])
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for k in (2, 3):
            for x in [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]:
                got = _integrand(kernel, float(x), k == 3, s)
                want = _integrand_reference(kernel, k, float(x))(s)
                assert got.tobytes() == want.tobytes(), (kernel.electron, k, x)


def test_integrand_rows_of_mixed_x_and_k_bit_for_bit():
    # one call on rows of mixed x and k, as a batch of f_2 and f_3 pairs makes
    # it, gives each row the bits of the one-integral form on its own nodes
    rng = np.random.default_rng(11)
    xs = [0.0, 0.5, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 10)]
    pairs = [(k, float(x)) for x in xs for k in (2, 3)]
    s = rng.uniform(0.0, 1.0, (len(pairs), 15))
    s[:, :2] = 0.0, 1.0
    x = np.array([x for _, x in pairs])[:, None]
    k3 = np.array([k == 3 for k, _ in pairs])[:, None]
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        got = _integrand(kernel, x, k3, s)
        for row, (k, xr) in enumerate(pairs):
            want = _integrand_reference(kernel, k, xr)(s[row])
            assert got[row].tobytes() == want.tobytes(), (kernel.electron, k, xr)
        # one x shared by an f_2 and an f_3 row, as in f_0 or a one-beta batch
        for xr in xs:
            got = _integrand(kernel, float(xr), np.array([[False], [True]]), s[:2])
            for row, k in enumerate((2, 3)):
                want = _integrand_reference(kernel, k, float(xr))(s[row])
                assert got[row].tobytes() == want.tobytes(), (kernel.electron, k, xr)


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
# (x < 1e-4) and the expm1 form of f_1, the power series of f_2, f_3 (k = 0,
# 2, 3 up to x = 1/sqrt2), the s-form quadrature above it, the electron's
# exact x = 1 values, and the boson's x = 1 error
PINS = [
    ("f_b", 1, 5e-05, "0x1.fffcb9200e68ap-1"),
    ("f_b", 0, 5e-05, "0x1.5550f6df7f761p+1"),
    ("f_b", 2, 0.0, "0x1.0000000000000p+1"),
    ("f_b", 1, 0.1, "0x1.e5a615ef9be43p-1"),
    ("f_b", 1, 0.3, "0x1.ae0cf64de4bb4p-1"),
    ("f_b", 0, 0.3, "0x1.f5414c7a9ada6p+0"),
    ("f_b", 2, 0.3, "0x1.4f31b39a75b68p+0"),
    ("f_b", 3, 0.3, "0x1.4c1f31c04a47cp-1"),
    ("f_b", 0, 0.9, "0x1.0b15afbff06b2p+0"),
    ("f_b", 2, 0.9999999, "0x1.e2d590b54bc88p-2"),
    ("f_b", 3, 0.9999999, "0x1.e2d590b54b439p-2"),
    ("f_b", 1, 1.0, "0x1.e2d58d8b3bce0p-2"),
    ("f_e", 1, 5e-05, "0x1.fffffffc6bc36p-1"),
    ("f_e", 0, 5e-05, "0x1.5555554f32a03p+1"),
    ("f_e", 2, 0.0, "0x1.0000000000000p+1"),
    ("f_e", 1, 0.1, "0x1.ff30261837433p-1"),
    ("f_e", 1, 0.3, "0x1.f95ff7fcff3dap-1"),
    ("f_e", 0, 0.3, "0x1.49540e00eb128p+1"),
    ("f_e", 2, 0.3, "0x1.e6616ff711518p+0"),
    ("f_e", 3, 0.3, "0x1.588d581589a6fp-1"),
    ("f_e", 0, 0.9, "0x1.f3a8555ad7c94p+0"),
    ("f_e", 2, 0.999998, "0x1.caf2abba47779p-1"),
    ("f_e", 3, 0.999998, "0x1.caeda26b95f66p-1"),
    ("f_e", 2, 0.9999999, "0x1.caf0158ea39f2p-1"),
    ("f_e", 3, 0.9999999, "0x1.caefc64cdf30fp-1"),
    ("f_e", 0, 0.9999999, "0x1.caefededc1680p+0"),
    ("f_e", 1, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 2, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 3, 1.0, "0x1.caefeaebc992cp-1"),
    ("f_e", 0, 1.0, "0x1.caefeaebc992cp+0"),
]


@pytest.mark.parametrize("name, k, x, want", PINS)
def test_f_k_bits_on_every_branch(name, k, x, want):
    assert getattr(integrals, name)(k, x).hex() == want


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
    # SERIES_X is the largest x with sqrt((1 - x)(1 + x)) >= x, where w0 >= 1
    # and [0, 1] needs no cut
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
    for k in (2, 3):
        values = integrals.f_values(kernel, [k] * len(xs), xs)
        for x, value in zip(xs, values):
            assert _ulps(value, series.yform(family, k, x)) <= 1.0, (k, x)


def test_series_bound_is_reported_with_its_estimate():
    # a tolerance below a pair's bound gives that pair a ConvergenceError with
    # the bound and the estimate, which lies within the bound of the exact sum
    cfg = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)
    xs = [0.0, 0.3, integrals.SERIES_X]
    for kernel, family in ((integrals.BOSON_KERNEL, "boson"),
                           (integrals.ELECTRON_KERNEL, "electron")):
        for k in (2, 3):
            plain = integrals.f_values(kernel, [k] * 3, xs)
            for x, value, error in zip(xs, plain, integrals.f_values(kernel, [k] * 3, xs, cfg)):
                assert isinstance(error, ConvergenceError)
                assert error.estimate == value
                assert 0.0 < error.error_bound <= kernel.series.worst
                tol = max(1e-300, 1e-300 * abs(value))
                assert str(error) == (f"power series error bound {error.error_bound:.3e} "
                                      f"exceeds tolerance {tol:.3e}")
                assert abs(value - series.value(family, k, x)) <= error.error_bound


def test_no_series_pair_reaches_quad_batch(monkeypatch):
    # f_2 and f_3 up to SERIES_X take no quadrature; above it they do
    batches = []

    def capture(f, intervals, cfg):
        batches.append(intervals)
        return quadrature.quad_batch(f, intervals, cfg)

    monkeypatch.setattr(integrals, "quad_batch", capture)
    xs = np.linspace(0.0, integrals.SERIES_X, 50).tolist() + [integrals.SERIES_X]
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        integrals.f_values(kernel, [1, 2, 3] * len(xs), [x for x in xs for _ in range(3)])
    assert batches == []
    integrals.f_values(integrals.ELECTRON_KERNEL, [2], [math.nextafter(integrals.SERIES_X, 1.0)])
    assert len(batches) == 1


def test_f_values_bits_do_not_depend_on_the_batch():
    # each value of a batch has the bits of its one-pair call, in batches of
    # 1 to 2048 pairs of mixed k, with x shared between pairs and on both
    # sides of SERIES_X; a failed pair's message too
    rng = np.random.default_rng(32)
    above = math.nextafter(integrals.SERIES_X, 1.0)
    xs = [0.0, integrals.SERIES_X, above, *rng.uniform(0.0, integrals.SERIES_X, 300).tolist(),
          *rng.uniform(above, 0.999, 4).tolist()]
    pairs = [(int(k), xs[i]) for k, i in zip(rng.integers(1, 4, 2048),
                                               rng.integers(0, len(xs), 2048))]
    tight = quadrature.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)
    for kernel in (integrals.BOSON_KERNEL, integrals.ELECTRON_KERNEL):
        for cfg, sizes in ((quadrature.DEFAULT_CONFIG, (1, 2, 3, 7, 8, 9, 127, 128, 129, 256,
                                                        257, 1000, 2048)),
                           (tight, (1, 2, 129))):
            if cfg is tight:  # the series pairs, whose errors cost no quadrature
                pool = [(k, x) for k, x in pairs if k > 1 and x <= integrals.SERIES_X]
            else:
                pool = pairs
            one = {p: _hex(integrals.f_values(kernel, [p[0]], [p[1]], cfg)[0]) for p in set(pool)}
            for n in sizes:
                got = integrals.f_values(kernel, [k for k, _ in pool[:n]],
                                         [x for _, x in pool[:n]], cfg)
                assert [_hex(v) for v in got] == [one[p] for p in pool[:n]], n


def _hex(value):
    return str(value) if isinstance(value, Exception) else value.hex()
