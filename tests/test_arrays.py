"""Theta arrays against one-point calls, bit for bit.

The CLI evaluates each theta scan as one array call of the public point
functions.  Its output bytes stay those of a point-by-point evaluation only
if every array element equals the one-point value in every bit, so a numpy
whose array kernels (sin, cos, sqrt, exp, ...) drift from its scalar ones
fails here rather than changing printed digits silently.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

import srq1.io
from srq1 import analysis, boson, electron, kinematics
from srq1.cli import run_cli
from srq1.errors import AmbiguousLimitError, ConvergenceError, DomainError
from srq1.quadrature import DEFAULT_CONFIG, QuadratureConfig

HALF_PI = math.pi / 2
_RNG = np.random.default_rng(20261018)
THETAS = np.concatenate([[0.0, HALF_PI, math.pi], _RNG.uniform(0.0, math.pi, 200)])
BETAS = (0.0, float(_RNG.uniform(0.05, 0.95)), 1.0 - 1e-6, 1.0)
S_VALUES = (0, 1, -1, 2, 3)
ZETAS = (1, -1)


def assert_same_bits(f, thetas=THETAS):
    array = f(thetas)
    points = [f(float(t)) for t in thetas]
    assert all(type(p) is float for p in points)
    assert isinstance(array, np.ndarray) and array.shape == thetas.shape
    assert array.tobytes() == np.array(points).tobytes()


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_boson_density_and_q_local(s, beta):
    assert_same_bits(lambda t: boson.angular_density_b(s, beta, t))
    assert_same_bits(lambda t: boson.local_polarization_b(s, beta, t))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_electron_density_and_q_local(s, zeta, beta):
    assert_same_bits(lambda t: electron.angular_density_e(s, zeta, beta, t))
    if beta == 1.0:
        # q_local has no value at the double-limit point
        with pytest.raises(AmbiguousLimitError):
            electron.local_polarization_e(s, zeta, beta, THETAS)
        assert_same_bits(lambda t: electron.local_polarization_e(s, zeta, beta, t),
                         THETAS[THETAS != HALF_PI])
    else:
        assert_same_bits(lambda t: electron.local_polarization_e(s, zeta, beta, t))


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_limit_density(s, zeta):
    assert_same_bits(lambda t: electron.ultrarelativistic_density(s, zeta, t))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("spec", [kinematics.boson(), kinematics.electron(1),
                                  kinematics.electron(-1)])
def test_photon_frequency(spec, beta):
    state = kinematics.state_from_beta(spec, 1, beta)
    assert_same_bits(lambda t: kinematics.photon_frequency(
        spec, state, kinematics.PhotonRequest(1, t)))


# The CLI's density and the profile that analysis maximizes and integrates:
# at beta = 0, next to beta = 1 and at beta = 1 (the double limit), with pi/2
# on the grid
PROFILE_BETAS = (0.0, 1.0 - 1e-6, 1.0)
PARTICLE_ZETAS = [("boson", -1), ("electron", 1), ("electron", -1)]


@pytest.mark.parametrize("beta", PROFILE_BETAS)
@pytest.mark.parametrize("kind, zeta", PARTICLE_ZETAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_density_is_the_analysis_profile(s, kind, zeta, beta):
    api = analysis.PARTICLES[kind]
    profile = api.family.density_profile(s, zeta, beta, DEFAULT_CONFIG)
    got = api.density(s, zeta, beta, THETAS, DEFAULT_CONFIG)
    assert got.tobytes() == profile(THETAS).tobytes()
    for t in THETAS.tolist():
        assert api.density(s, zeta, beta, t, DEFAULT_CONFIG).hex() == float(profile(t)).hex()


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("kind, zeta", PARTICLE_ZETAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_analysis_profile_at_a_number_is_its_array_element(s, kind, zeta, beta):
    # Family.density reads the one-beta profile at a single angle and on a
    # grid, and density_profile_b/_e hand it to callers that may pass any
    # theta shape, such as an (n, 15) block of quadrature nodes
    profile = analysis.PARTICLES[kind].family.density_profile(s, zeta, beta, DEFAULT_CONFIG)
    assert_same_bits(lambda t: kinematics.like_theta(profile(t), t))
    nodes = THETAS[:195].reshape(13, 15)
    assert profile(nodes).tobytes() == profile(THETAS)[:195].tobytes()


def test_array_theta_is_validated_once_naming_the_first_bad_value():
    with pytest.raises(ValueError, match=r"got 3\.5$"):
        boson.angular_density_b(0, 0.5, np.array([0.1, 3.5, -1.0]))
    with pytest.raises(ValueError, match=r"got -1\.0$"):
        electron.ultrarelativistic_density(0, -1, np.array([0.1, -1.0, 3.5]))


# ---------- the double-limit point of the CLI scans ----------

_HEAD = ("# version=0.1.0\n# abs_tol=1e-10\n# rel_tol=1e-10\n# max_depth=60\n"
         "# angle_unit=rad\n# particle=electron\n# zeta=1\n# s=1\n# beta=1.0\n")
DOUBLE_LIMIT = {
    # literal output of the point-by-point evaluation
    "q_local": "# quantity=q_local\n" + _HEAD
    + "theta,q\n0,1\n0.523598776,1\n1.04719755,1\n1.57079633,ambiguous\n"
    "2.0943951,0\n2.61799388,0\n3.14159265,0\n",
    "p": "# quantity=p\n" + _HEAD
    + "# ambiguous=beta=1,theta=pi/2: double limit; fixed-beta theta-limit reported\n"
    "theta,p\n0,0.278905275\n0.523598776,0.319604672\n1.04719755,0.473705155\n"
    "1.57079633,0.410414067\n2.0943951,0\n2.61799388,0\n3.14159265,0\n",
}


def _run_quietly(argv):
    """stdout of a CLI call that must exit 0, write no stderr and warn nothing."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert run_cli(argv) == 0
    assert err.getvalue() == ""
    return out.getvalue()


@pytest.mark.parametrize("quantity", sorted(DOUBLE_LIMIT))
def test_double_limit_scan_warns_nothing(quantity):
    argv = ["scan", "--quantity", quantity, "--particle", "electron", "--zeta", "1",
            "--s", "1", "--beta", "1", "--theta", "0:pi:7"]
    assert _run_quietly(argv) == DOUBLE_LIMIT[quantity]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_double_limit_scan_takes_the_array_path(fmt, monkeypatch):
    # only beta scans are written row by row, cell by cell
    def raise_(*_):
        raise AssertionError("a theta scan written as list rows")

    monkeypatch.setattr(srq1.io, "_json_row", raise_)
    monkeypatch.setattr(srq1.io, "format_number", raise_)
    argv = ["scan", "--quantity", "q_local", "--particle", "electron", "--zeta", "1",
            "--s", "1", "--beta", "1", "--theta", "0:pi:7", "--format", fmt]
    got = _run_quietly(argv)
    lines = DOUBLE_LIMIT["q_local"].splitlines()
    if fmt == "csv":
        assert got == DOUBLE_LIMIT["q_local"]
        return
    cells = [row.split(",") for row in lines[lines.index("theta,q") + 1:]]
    assert got == json.dumps({
        "metadata": dict(line[2:].split("=", 1) for line in lines if line.startswith("# ")),
        "columns": ["theta", "q"],
        "rows": [[float(v) if v != "ambiguous" else v for v in row] for row in cells],
    }, indent=2) + "\n"


# ---------- theta within 1e-8 of pi/2 at beta = 1, not snapped to it ----------

# There sin^2(theta) rounds to 1, but 1 - x = 2r/(1 + r) with r = |cos(theta)|
# keeps its digits, and the linear components' share prints as 1/2.
_NEAR_HALF_PI = ("scan --quantity q_local --particle electron --s 2 --beta 1 "
                 "--theta 1.5707963267:1.5707963269:9").split()
_NEAR_HEAD = ("# quantity=q_local\n# version=0.1.0\n# abs_tol=1e-10\n# rel_tol=1e-10\n"
              "# max_depth=60\n# angle_unit=rad\n# particle=electron\n# zeta={}\n# s=2\n"
              "# beta=1.0\ntheta,q\n")
_NEAR_JSON = """{{
  "metadata": {{
    "quantity": "q_local",
    "version": "0.1.0",
    "abs_tol": "1e-10",
    "rel_tol": "1e-10",
    "max_depth": "60",
    "angle_unit": "rad",
    "particle": "electron",
    "zeta": "{}",
    "s": "2",
    "beta": "1.0"
  }},
  "columns": [
    "theta",
    "q"
  ],
  "rows": [
{}
  ]
}}
"""
NEAR_HALF_PI = {
    (zeta, "csv"): _NEAR_HEAD.format(zeta) + "1.57079633,0.5\n" * 9 for zeta in ("1", "-1")
} | {
    (zeta, "json"): _NEAR_JSON.format(zeta, ",\n".join(
        ["    [\n      1.57079633,\n      0.5\n    ]"] * 9)) for zeta in ("1", "-1")
}


@pytest.mark.parametrize("zeta, fmt", sorted(NEAR_HALF_PI))
def test_scan_next_to_the_double_limit_prints_its_known_values(zeta, fmt):
    got = _run_quietly(_NEAR_HALF_PI + ["--zeta", zeta, "--format", fmt])
    assert got == NEAR_HALF_PI[zeta, fmt]


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("s", (1, -1, 2, 3))
def test_beta_1_q_local_is_exact_on_a_fine_grid(s, zeta):
    # 1/2 for the linear components; (1 + s sign cos)/2 for the circular ones,
    # pi/2 at row 50 000 being the ambiguous cell
    out = _run_quietly(["scan", "--quantity", "q_local", "--particle", "electron",
                        "--s", str(s), "--zeta", str(zeta), "--beta", "1",
                        "--theta", "0:pi:100001"])
    lines = out.splitlines()
    q = [line.split(",")[1] for line in lines[lines.index("theta,q") + 1:]]
    assert len(q) == 100001 and q[50000] == "ambiguous"
    below, above = {1: ("1", "0"), -1: ("0", "1")}.get(s, ("0.5", "0.5"))
    assert set(q[:50000]) == {below} and set(q[50001:]) == {above}


def test_density_profiles_rows_match_each_profile():
    # one call for the profiles of a whole beta grid (the width scans) gives
    # each row the bits of its beta's own analysis profile, beta = 1 and its
    # pi/2 cell included, on (n, k) rows and on one (1, k) row for all
    rows = _RNG.integers(0, len(BETAS), 40)
    theta = _RNG.uniform(0.0, math.pi, (40, 15))
    theta[:8, 0] = HALF_PI
    for fam, zetas in ((boson.BOSON, (None,)), (electron.ELECTRON, ZETAS)):
        for zeta in zetas:
            for s in S_VALUES:
                profile, failed = fam.density_profiles(s, zeta, list(BETAS))
                assert failed == [None] * len(BETAS)
                got, shared = profile(rows, theta), profile(rows, theta[:1])
                for r, b in enumerate(rows):
                    one = fam.density_profile(s, zeta, BETAS[b])
                    assert got[r].tobytes() == one(theta[r]).tobytes(), (fam.spin, zeta, s, b)
                    assert shared[r].tobytes() == one(theta[0]).tobytes(), (fam.spin, zeta, s, b)


def test_density_profiles_report_each_failed_normalization():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    for fam in (boson.BOSON, electron.ELECTRON):
        _, failed = fam.density_profiles(0, -1, list(BETAS), cfg)
        for beta, error in zip(BETAS, failed):
            if fam.at_limit(beta):  # f_2 = f_3 = 2 - 3/e exactly, with no quadrature
                assert error is None
                continue
            with pytest.raises(ConvergenceError) as want:
                fam.density_profile(0, -1, beta, cfg)
            assert (str(error), error.estimate, error.error_bound) == (
                str(want.value), want.value.estimate, want.value.error_bound)


# ---------- the in-place density body against its plain expressions ----------

# Family._phi and Family._body as plain expressions: one new array per
# operation.  Every stage of the in-place chain must keep these bits.
def _row_reference(fam, beta):
    A, B, sqrt_A = fam.xmap
    bb2 = B * (beta * beta)
    lead = (A - B) + B * ((1.0 - beta) * (1.0 + beta))
    r0 = math.sqrt(lead)
    x0 = bb2 / (r0 + sqrt_A) / (r0 + sqrt_A)
    return (bb2, lead, x0, 2.0 * r0 / (r0 + sqrt_A)) if fam.spin else (bb2, lead, 1.0, 0.0)


def _map_reference(fam, theta, bb2, lead):
    cos = np.where(theta == HALF_PI, 0.0, np.cos(theta))
    sin = np.where(theta == math.pi, 0.0, np.sin(theta))
    r = np.sqrt(cos * cos * bb2 + lead)
    spr = r + fam.xmap[2]
    return cos, sin * sin, r, spr, sin * sin * bb2 / spr / spr, 2.0 * r / spr


def _phi_reference(fam, s, swap, theta, bb2, lead, a, oma):
    cos, sin2, r, spr, x, omx = _map_reference(fam, theta, bb2, lead)
    opx = 1.0 + x
    straight = a * omx + oma
    bent = opx * opx * (cos * cos) / straight
    phi0 = straight + bent
    if s in (2, 3):
        return (straight if (s == 2) != swap else bent), phi0
    if s == 0:
        return phi0, phi0
    with np.errstate(divide="ignore", invalid="ignore"):
        dark = oma * x + sin2 * (2.0 * lead) / ((r + (-s * fam.xmap[2]) * cos) * spr)
    root = np.where(s * cos < 0.0, dark, straight + s * opx * cos)
    return root * root / straight * 0.5, phi0


def _body_reference(fam, s, swap, theta, bb2, lead, a, oma, norm):
    x, omx = _map_reference(fam, theta, bb2, lead)[4:]
    phi_s = _phi_reference(fam, s, swap, theta, bb2, lead, a, oma)[0]
    num = np.power(1.0 + x, 3) * np.exp(-x) * phi_s
    return num / (omx * norm) if fam.spin else num / norm


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def _runtime_warnings(f):
    """f(), and the RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = f()
    return got, [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]


# beta = 0, seeded speeds, electron x0 on both sides of 0.9 (its f_2, f_3 in
# closed form), next to 1, and 1 itself where the body serves the boson
BODY_BETAS = (0.0, *_RNG.uniform(0.05, 0.95, 2).tolist(), 0.9985, 0.9987, 1.0 - 1e-12, 1.0)
_BODY_THETAS = np.concatenate([[0.0, HALF_PI, math.pi], _RNG.uniform(0.0, math.pi, 33)])


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("fam", [boson.BOSON, electron.ELECTRON], ids=["boson", "electron"])
@pytest.mark.parametrize("s", S_VALUES)
def test_body_keeps_the_bits_of_its_plain_expressions(s, fam, zeta):
    # not the electron's beta = 1 row, whose pi/2 cell, where the body is 0/0, is replaced
    betas = [b for b in BODY_BETAS if not fam.at_limit(b)]
    swap = fam._swap(zeta)
    rows0 = [_row_reference(fam, b) for b in betas]
    x0s = [float(_map_reference(fam, np.array([HALF_PI]), *row[:2])[4][0]) for row in rows0]
    assert x0s == [fam.x0(b) for b in betas]
    assert rows0 == [fam._row(b) for b in betas]
    fks, _ = fam.f((2, 3), np.array(x0s), DEFAULT_CONFIG)
    params = np.array([(*row, (1.0 + x0) ** 2 * (f2 + f3))
                       for row, x0, (f2, f3) in zip(rows0, x0s, fks.tolist())])
    profile, failed = fam.density_profiles(s, zeta, betas)
    assert failed == [None] * len(betas)
    # (n, k) rows and one (1, k) row broadcast against every beta
    rows = np.arange(len(betas)).repeat(3)
    theta = np.resize(_BODY_THETAS, (len(rows), 12))
    cols = params[rows].T[..., None]
    for t in (theta, theta[:1]):
        want, warned = _runtime_warnings(lambda: _body_reference(fam, s, swap, t, *cols))
        got, warns = _runtime_warnings(lambda: profile(rows, t))
        assert got.shape == theta.shape and _hex(got) == _hex(want)
        assert warns == warned
    for i, beta in enumerate(betas):
        def want(t):
            return _body_reference(fam, s, swap, t, *params[i])

        one = fam.density_profile(s, zeta, beta)
        for t in (_BODY_THETAS, _BODY_THETAS.reshape(4, 9)):
            assert _hex(one(t)) == _hex(want(t))
            assert _hex(fam.density(s, zeta, beta, t)) == _hex(want(t))
        for t in _BODY_THETAS.tolist():
            for arg in (t, np.array(t)):
                got, warns = _runtime_warnings(lambda: one(arg))
                assert type(got) is np.float64 and got.hex() == want(np.array(t)).hex()
                assert warns == _runtime_warnings(lambda: want(np.array(t)))[1]
                assert fam.density(s, zeta, beta, arg).hex() == got.hex()

        # phi_s and phi_s/phi_0, a float for a float or a 0-d theta
        phi_s, phi0 = _phi_reference(fam, s, swap, _BODY_THETAS, *params[i][:4])
        want_q = np.ones_like(phi0) if s == 0 else phi_s / phi0
        for t in (_BODY_THETAS, _BODY_THETAS.reshape(4, 9)):
            got, warns = _runtime_warnings(lambda: fam.local_polarization(s, zeta, beta, t))
            assert _hex(got) == _hex(want_q) and got.shape == t.shape and not warns
        for j, t in enumerate(_BODY_THETAS.tolist()):
            for arg in (t, np.array(t)):
                got = fam.local_polarization(s, zeta, beta, arg)
                assert type(got) is float and got.hex() == want_q[j].hex()
            assert fam.phi(s, zeta, beta, t).hex() == phi_s[j].hex()


# seeded speeds, 0, 1, the floats next to 1, and beta = 0.998614, where the
# electron's x0 crosses 0.9
_X1_RNG = np.random.default_rng(28)
X1_BETAS = [0.0, 1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-15, 0.998614,
            *_X1_RNG.uniform(0.0, 1.0, 1000).tolist()]
X1_THETAS = [0.0, HALF_PI, math.pi, *_X1_RNG.uniform(0.0, math.pi, len(X1_BETAS) - 3).tolist()]


@pytest.mark.parametrize("fam", [boson.BOSON, electron.ELECTRON], ids=["boson", "electron"])
def test_scalar_deformation_keeps_the_bits_of_the_array_map(fam):
    # x0 and the one-point x against the body's array map, which takes x0 at
    # pi/2, at a row of each beta's coefficients
    assert abs(electron.x0(0.998614) - 0.9) < 1e-5
    rows = np.array([fam._row(b) for b in X1_BETAS]).T
    for thetas, got in ((np.full(len(X1_BETAS), HALF_PI), [fam.x0(b) for b in X1_BETAS]),
                        (np.array(X1_THETAS), [fam.deformation(b, t)[1]
                                               for b, t in zip(X1_BETAS, X1_THETAS)])):
        assert all(type(x) is float for x in got)
        with np.errstate(invalid="ignore"):  # phi_0, not x, is 0/0 at the double limit
            want = fam._phi(0, False, thetas, *rows)[2].tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("fam", [boson.BOSON, electron.ELECTRON], ids=["boson", "electron"])
def test_x0_refuses_a_beta_outside_the_domain(fam):
    for beta in (1.1, 1.5, math.nextafter(1.0, 2.0), -0.1, -1e-300, math.nan, math.inf,
                 -math.inf):
        with pytest.raises(DomainError, match=re.escape(f"beta must lie in [0, 1], got {beta}")):
            fam.x0(beta)
