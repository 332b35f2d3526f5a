import math

import mpmath
import numpy as np
import pytest

from srq1 import analysis
from srq1.analysis import (ExtremumReport, asymptotic_max_angle, crossover_beta,
                           effective_angle, max_angle, max_angle_scan, power_ratio, table1)
from srq1.electron import x0
from srq1.errors import ConvergenceError, DomainError, checked
from srq1.quadrature import DEFAULT_CONFIG, QuadratureConfig

import oracles

HALF_PI = math.pi / 2
# the 40-digit mpmath densities and maxima of the improve-only check
compare_outputs = oracles.bench_module("compare_outputs", "scripts")


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
    # the 2 bracket ends and 9 steps of the root finder, each at a beta of
    # its own (28 calls when bisected to 1e-8)
    calls = []

    def counting(*args):
        calls.append(args)
        return power_ratio(*args)

    monkeypatch.setattr(analysis, "power_ratio", counting)
    beta0, gamma0 = crossover_beta()
    assert len(calls) == len(set(calls)) == 11
    assert (beta0.hex(), gamma0.hex()) == ("0x1.a3d5e65fe9ef4p-1",
                                           "0x1.bf422a646163ap+0")


def test_crossover_matches_the_oracle_root():
    # the secant root of the oracle's k(+1; beta) - 1 (bench/checks.py)
    assert abs(crossover_beta()[0] - compare_outputs.checks.crossover_beta()) <= 1e-12


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


def _max_angle_reference(kind, s, zeta, beta, cfg=DEFAULT_CONFIG):
    # max_angle one beta at a time: the 361-point scan of the beta's own
    # profile, then the root finder on the complex-step slope over cos in
    # the bracket of its best point
    if s not in (0, 1, 3):
        raise DomainError(f"extrema are tracked for s in (0, 1, 3), got {s}")
    fam = analysis.PARTICLES[kind].family
    profile, failed = fam.density_profiles(s, -1 if zeta is None else zeta, [beta], cfg)
    checked(failed)
    if fam.at_limit(beta):
        return ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta, theta_max=None,
                              p_max=None, exists=False)
    p_lo, p_hi = profile(0, np.array([0.0, HALF_PI])).tolist()
    grid = np.linspace(0.0, HALF_PI, 361)
    i = int(profile(0, grid).argmax())

    def slope(_, t):
        return analysis._slope(profile, np.array([0]), t[:, None])[:, 0]

    a, b = grid[[max(i - 1, 0)]], grid[[min(i + 1, 360)]]
    ga, gb = slope(None, a), slope(None, b)
    exists = False
    if ga[0] > 0 > gb[0]:
        theta = float(analysis._root(slope, a, b, ga, gb, 1e-14)[0])
        p_max = float(profile(0, np.array(theta)))
        exists = theta < HALF_PI and p_max > p_lo + 1e-12 and p_max > p_hi + 1e-12
    return ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta,
                          theta_max=theta if exists else None,
                          p_max=p_max if exists else None, exists=exists)


def _bits(report):
    hex_ = lambda v: None if v is None else float(v).hex()  # noqa: E731
    return (report.beta, report.exists, type(report.exists), hex_(report.theta_max),
            hex_(report.p_max))


def _reports(reports):
    """The bits of each report of an iterable, then the error that ended it."""
    got = []
    try:
        for report in reports:
            got.append(_bits(report))
    except (ConvergenceError, DomainError) as exc:
        return got, (type(exc), str(exc))
    return got, None


_KIND_ZETAS = [("boson", None), ("electron", -1), ("electron", 1), ("electron", None)]


@pytest.mark.parametrize("kind, zeta", _KIND_ZETAS)
@pytest.mark.parametrize("s", (0, 1, 3))
def test_max_angle_scan_matches_the_per_beta_loop(s, kind, zeta, monkeypatch):
    # beta = 1 rows, a row next to it, and seeded body rows share the
    # lockstep calls, and rows drop out of them as they converge; every
    # report keeps the bits of its one-beta search, also when the grid spans
    # several chunks.  The electron's beta = 1 profiles rise toward
    # pi/2 and have no interior maximum.
    rng = np.random.default_rng(1700 + s)
    betas = [0.0, 1.0, 1.0 - 1e-9, 0.9, *rng.uniform(0.0, 1.0, 10).tolist(),
             *(1.0 - 10.0 ** -rng.uniform(1.0, 9.0, 4)).tolist(), 1.0, 0.0]
    want = [_bits(_max_angle_reference(kind, s, zeta, b)) for b in betas]
    assert [_bits(r) for r in max_angle_scan(kind, s, zeta, betas)] == want
    assert [_bits(max_angle(kind, s, zeta, b)) for b in betas] == want
    monkeypatch.setattr(analysis, "GRID_CHUNK", 7)
    assert [_bits(r) for r in max_angle_scan(kind, s, zeta, betas)] == want
    # the electron has interior maxima among them, except the pi component
    # of the spin flip; the boson has none
    has_maxima = kind == "electron" and not (s == 3 and zeta == 1)
    assert any(w[1] for w in want) == has_maxima


@pytest.mark.parametrize("zeta", (1, -1))
@pytest.mark.parametrize("s", (0, 1, 3))
@pytest.mark.parametrize("kind", ("boson", "electron"))
def test_slope_is_dp_dtheta(kind, s, zeta):
    # the complex-step slope times cos, over p, against mpmath's numerical
    # derivative of the density written afresh, at seeded (beta, theta)
    rng = np.random.default_rng(3000 + 10 * s + zeta)
    betas = rng.uniform(0.05, 0.999, 6).tolist()
    thetas = rng.uniform(0.02, HALF_PI - 0.02, 6)
    profile, _ = analysis.PARTICLES[kind].family.density_profiles(s, zeta, betas)
    rows = np.arange(6)
    got = (analysis._slope(profile, rows, thetas[:, None])[:, 0] * np.cos(thetas)
           / profile(rows, thetas[:, None])[:, 0])
    for beta, theta, value in zip(betas, thetas.tolist(), got.tolist()):
        with mpmath.workdps(40):
            def p(t):
                cos = mpmath.cos(t)
                return compare_outputs._p_mp(kind, s, zeta, beta, cos if s == 1 else cos * cos)

            want = float(mpmath.diff(p, theta) / p(theta))
        assert value == pytest.approx(want, rel=1e-12, abs=0.0), (beta, theta)


# the 25 betas of figures 10 and 11, then 1 - beta = 1e-3 to 1e-6 and 1e-9,
# where the slope of s = 0, whose maximum lies within about 2/gamma^2 of
# pi/2, would carry any rounding of 1 - beta^2 sin^2(theta) into the root
_ROOT_BETAS = [*compare_outputs.checks.value_grid("0.75:0.995:25").tolist(),
               *(1.0 - 10.0 ** -k for k in (3, 4, 5, 6, 9))]


@pytest.mark.parametrize("zeta", (1, -1))
@pytest.mark.parametrize("s", (0, 1, 3))
def test_theta_max_is_the_root_of_the_slope(s, zeta):
    # against the 40-digit mpmath root of dp/dtheta wherever a maximum
    # exists, to 1e-12
    found = 0
    for rep in max_angle_scan("electron", s, zeta, _ROOT_BETAS):
        if rep.exists:
            found += 1
            root, margin = compare_outputs.max_angle_mp("electron", s, zeta, rep.beta,
                                                        rep.theta_max)
            assert abs(rep.theta_max - root) <= 1e-12, rep
            assert margin > 0.0
    # s = 1 has a maximum at every beta here, s = 0 at all but 1 - beta =
    # 1e-6 and 1e-9, s = 3 from beta = 0.8725 without spin flip and none with it
    assert found == {0: 28, 1: 30, 3: 18 if zeta == -1 else 0}[s]


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1), ("electron", 1)])
@pytest.mark.parametrize("s", (0, 1, 3))
def test_p_max_is_above_both_endpoint_values(kind, s, zeta):
    # next to beta = 1 a maximum's p_max stood below p(pi/2) when the
    # refinement's last bracket missed it; p at the root exceeds both
    fam = analysis.PARTICLES[kind].family
    for rep in max_angle_scan(kind, s, zeta, [1.0 - 10.0 ** -k for k in range(1, 11)]):
        if rep.exists:
            ends = fam.density(s, zeta, rep.beta, np.array([0.0, HALF_PI]))
            assert rep.p_max > ends.max() + 1e-12, rep


@pytest.mark.parametrize("kind, zeta, betas", [
    ("boson", None, [0.2, 0.5, 0.95]),
    ("electron", -1, [1.0, 0.99999999999999, 0.9, 0.95]),
    ("electron", 1, [0.99999999999999, 1.0, 0.3]),
])
def test_max_angle_scan_raises_the_first_failing_beta(kind, zeta, betas):
    # unreachable tolerances: the beta = 1 row and the x -> 1 expansion need no
    # quadrature, so their reports come first; the first quadrature fails
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)

    def reference():
        for beta in betas:
            yield _max_angle_reference(kind, 0, zeta, beta, cfg)

    want = _reports(reference())
    assert want[1] is not None and want[1][0] is ConvergenceError
    assert _reports(max_angle_scan(kind, 0, zeta, betas, cfg)) == want


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
    assert rep.delta == pytest.approx(math.sqrt(math.pi**2 / 4 - 17.0 / 9.0), abs=1e-9)


# 1 - beta from 0.5 down to 1e-12, the electron's widths narrowing to about
# 1/gamma around pi/2, and both ends of the beta range
_WIDTH_BETAS = [0.0, 0.5, *(1.0 - 10.0**-k for k in range(1, 13)), 1.0]


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1), ("electron", 1)])
@pytest.mark.parametrize("s", (0, 1, -1, 2, 3))
def test_effective_angle_scan_matches_the_graded_oracle(kind, zeta, s):
    got = analysis.effective_angle_rows(kind, s, zeta, _WIDTH_BETAS)[:, 1].tolist()
    rms_width = oracles.bench_module("oracle").rms_width
    want = [rms_width(kind, s, zeta, b) for b in _WIDTH_BETAS]
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1), ("electron", 1)])
def test_circular_widths_are_the_total_width(kind, zeta):
    # p_{+-1} = p_0/2 +- a term odd about pi/2 under an even weight
    widths = [[d.hex() for d in analysis.effective_angle_rows(kind, s, zeta, _WIDTH_BETAS)[:, 1]]
              for s in (0, 1, -1)]
    assert widths[1] == widths[0] and widths[2] == widths[0]


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


def test_bad_kind():
    with pytest.raises(DomainError):
        max_angle("muon", 0, None, 0.9)
    with pytest.raises(DomainError):
        max_angle("electron", 2, -1, 0.9)
    # s is checked before the particle
    with pytest.raises(DomainError, match="extrema are tracked"):
        max_angle("muon", 2, None, 0.9)
