import math

import numpy as np
import pytest

from srq1 import analysis
from srq1.analysis import (ExtremumReport, asymptotic_max_angle, crossover_beta,
                           effective_angle, max_angle, max_angle_scan, power_ratio, table1)
from srq1.electron import x0
from srq1.errors import ConvergenceError, DomainError
from srq1.quadrature import DEFAULT_CONFIG, QuadratureConfig

import oracles
from oracles import count_profile_values

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


def _max_angle_reference(kind, s, zeta, beta, cfg=DEFAULT_CONFIG, grids=None):
    # max_angle one beta at a time, as it was before the lockstep: eight
    # separate 361-point scans of the beta's own profile, each grid appended
    # to ``grids`` if given
    if s not in (0, 1, 3):
        raise DomainError(f"extrema are tracked for s in (0, 1, 3), got {s}")
    profile = analysis.PARTICLES[kind].family.density_profile(
        s, -1 if zeta is None else zeta, beta, cfg)
    p_lo = float(profile(0.0))
    p_hi = float(profile(HALF_PI))

    a, b = 0.0, HALF_PI
    best_t, best_p = 0.0, p_lo
    for _ in range(8):
        grid = np.linspace(a, b, 361)
        if grids is not None:
            grids.append(grid)
        vals = np.asarray(profile(grid))
        i = int(vals.argmax())
        if vals[i] > best_p:
            best_t, best_p = float(grid[i]), float(vals[i])
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]

    exists = (0.0 < best_t < HALF_PI and best_p > p_lo + 1e-12
              and best_p > p_hi + 1e-12)
    theta = 0.5 * (a + b) if exists else None
    return ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta, theta_max=theta,
                          p_max=float(profile(theta)) if exists else None,
                          exists=exists)


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


def _scan_values_read(betas, grids):
    """The values that ``max_angle_scan`` reads from its profile for these
    betas, the eight grids of each in ``grids``: p(0), p(pi/2) and p_max,
    and each grid in full, or once per distinct angle where fewer than half
    of its angles differ."""
    distinct = [np.unique(g).size for g in grids]
    return 3 * len(betas) + sum(d if 2 * d < 361 else 361 for d in distinct)


@pytest.mark.parametrize("kind, zeta", _KIND_ZETAS)
@pytest.mark.parametrize("s", (0, 1, 3))
def test_max_angle_scan_matches_the_per_beta_loop(s, kind, zeta, monkeypatch):
    # beta = 1 limit rows, a row next to it, and seeded body rows share the
    # lockstep calls; every body report keeps the bits of its one-beta scan,
    # also when the grid spans several chunks.  The electron's beta = 1 limit
    # profiles rise toward pi/2 and have no interior maximum.  Its last
    # brackets close to a few ulps at an interior maximum or at pi/2, but
    # on 361 distinct angles at theta = 0, where the floats are dense: the
    # first chunk of 7 mixes both kinds of row, each row takes its own path,
    # and the count of values read shows that the distinct-angle path ran.
    rng = np.random.default_rng(1700 + s)
    betas = [0.0, 1.0, 1.0 - 1e-9, 0.9, *rng.uniform(0.0, 1.0, 10).tolist(),
             *(1.0 - 10.0 ** -rng.uniform(1.0, 9.0, 4)).tolist(), 1.0, 0.0]
    grids = []
    refs = [_max_angle_reference(kind, s, zeta, b, grids=grids) for b in betas]
    want = [(b, False, bool, None, None) if kind == "electron" and b == 1.0
            else _bits(r) for b, r in zip(betas, refs)]
    collapsed = {2 * np.unique(g).size < 361 for g in grids[7:7 * 8:8]}
    assert collapsed == ({False, True} if kind == "electron" else {False})
    values = count_profile_values(monkeypatch)
    assert [_bits(r) for r in max_angle_scan(kind, s, zeta, betas)] == want
    assert values[0] == _scan_values_read(betas, grids)
    assert [_bits(max_angle(kind, s, zeta, b)) for b in betas] == want
    monkeypatch.setattr(analysis, "GRID_CHUNK", 7)
    values[0] = 0
    assert [_bits(r) for r in max_angle_scan(kind, s, zeta, betas)] == want
    assert values[0] == _scan_values_read(betas, grids)
    # the electron has interior maxima among them, except the pi component
    # of the spin flip; the boson has none
    has_maxima = kind == "electron" and not (s == 3 and zeta == 1)
    assert any(w[1] for w in want) == has_maxima


@pytest.mark.parametrize("kind, zeta, betas", [
    ("boson", None, [0.2, 0.5, 0.95]),
    ("electron", -1, [1.0, 0.99999999999999, 0.9, 0.95]),
    ("electron", 1, [0.99999999999999, 1.0, 0.3]),
])
def test_max_angle_scan_raises_the_first_failing_beta(kind, zeta, betas):
    # unreachable tolerances: the limit row and the x -> 1 expansion need no
    # quadrature, so their reports come first; the first quadrature fails
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)

    def reference():
        for beta in betas:
            yield _max_angle_reference(kind, 0, zeta, beta, cfg)

    want = _reports(reference())
    assert want[1] is not None and want[1][0] is ConvergenceError
    assert _reports(max_angle_scan(kind, 0, zeta, betas, cfg)) == want


def test_row_linspace_is_the_scalar_linspace():
    # the bracket of each beta's next scan is row i of _row_linspace; its
    # bits are those of np.linspace(a_i, b_i, 361), also for brackets a few
    # ulps wide and ones shrunk to a point (where np.linspace(a, b, 361,
    # axis=1) would change how every other row is formed)
    rng = np.random.default_rng(17)
    a = rng.uniform(0.0, HALF_PI, 64)
    b = np.minimum(a + 10.0 ** -rng.uniform(0.0, 16.0, 64), HALF_PI)
    ulps = rng.integers(0, 5, 16)
    a[:16] = rng.uniform(0.0, HALF_PI, 16)
    b[:16] = a[:16] + ulps * np.spacing(a[:16])
    a[16], b[16] = 0.0, HALF_PI
    assert (a == b).any() and (a < b).any()
    grid = analysis._row_linspace(a, b)
    assert grid.shape == (64, 361)
    for i in range(64):
        assert grid[i].tobytes() == np.linspace(a[i], b[i], 361).tobytes(), i


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


# 1 - beta from 0.5 down to 1e-12, the electron's widths narrowing to about
# 1/gamma around pi/2, and both ends of the beta range
_WIDTH_BETAS = [0.0, 0.5, *(1.0 - 10.0**-k for k in range(1, 13)), 1.0]


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1), ("electron", 1)])
@pytest.mark.parametrize("s", (0, 1, -1, 2, 3))
def test_effective_angle_scan_matches_the_graded_oracle(kind, zeta, s):
    got = list(analysis.effective_angle_scan(kind, s, zeta, _WIDTH_BETAS))
    rms_width = oracles.bench_module("oracle").rms_width
    want = [rms_width(kind, s, zeta, b) for b in _WIDTH_BETAS]
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kind, zeta", [("boson", None), ("electron", -1), ("electron", 1)])
def test_circular_widths_are_the_total_width(kind, zeta):
    # p_{+-1} = p_0/2 +- a term odd about pi/2 under an even weight
    widths = [[d.hex() for d in analysis.effective_angle_scan(kind, s, zeta, _WIDTH_BETAS)]
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
