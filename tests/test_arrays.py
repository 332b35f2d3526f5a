"""Theta arrays against one-point calls, bit for bit.

The CLI evaluates each theta scan as one array call of the public point
functions.  Its output bytes stay those of a point-by-point evaluation only
if every array element equals the one-point value in every bit, so a numpy
whose array kernels (sin, cos, sqrt, exp, ...) drift from its scalar ones
fails here rather than changing printed digits silently.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from srq1 import analysis, boson, electron, kinematics
from srq1.cli import run_cli
from srq1.errors import AmbiguousLimitError, ConvergenceError
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
# at beta = 0, next to beta = 1 and at beta = 1 (limit profile), with pi/2
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


# ---------- theta within 1e-8 of pi/2 at beta = 1, not snapped to it ----------

# There sin^2(theta) rounds to 1, so the body formula would meet x = 1 and
# divide 0 or inf by inf; the ratio of the limit profiles is exactly 1/2.
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
    # each row the bits of its beta's own analysis profile, beta = 1 included
    rows = _RNG.integers(0, len(BETAS), 40)
    theta = _RNG.uniform(0.0, math.pi, (40, 15))
    theta[:8, 0] = HALF_PI
    for fam, zetas in ((boson.BOSON, (None,)), (electron.ELECTRON, ZETAS)):
        for zeta in zetas:
            for s in S_VALUES:
                profile, failed = fam.density_profiles(s, zeta, list(BETAS))
                assert failed == [None] * len(BETAS)
                got = profile(rows, theta)
                for r, b in enumerate(rows):
                    want = fam.density_profile(s, zeta, BETAS[b])(theta[r])
                    assert got[r].tobytes() == want.tobytes(), (fam.spin, zeta, s, BETAS[b])


def test_density_profiles_all_at_the_limit_match_the_mixed_rows():
    # a call whose rows are all at the beta = 1 limit takes the limit profile
    # on theta as it is; a mixed call takes it on the limit rows alone
    rows = _RNG.integers(0, 2, 40)
    theta = _RNG.uniform(0.0, math.pi, (40, 15))
    theta[:8, 0] = HALF_PI
    for zeta in ZETAS:
        for s in S_VALUES:
            at_limit, _ = electron.ELECTRON.density_profiles(s, zeta, [1.0, 1.0])
            mixed, _ = electron.ELECTRON.density_profiles(s, zeta, [0.5, 1.0])
            lim = rows == 1
            got = at_limit(rows, theta)[lim]
            assert got.tobytes() == mixed(rows, theta)[lim].tobytes(), (zeta, s)


def test_density_profiles_report_each_failed_normalization():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)
    for fam in (boson.BOSON, electron.ELECTRON):
        _, failed = fam.density_profiles(0, -1, list(BETAS), cfg)
        for beta, error in zip(BETAS, failed):
            if fam.at_limit(beta):  # the limit profile needs no f_k
                assert error is None
                continue
            with pytest.raises(ConvergenceError) as want:
                fam.density_profile(0, -1, beta, cfg)
            assert (str(error), error.estimate, error.error_bound) == (
                str(want.value), want.value.estimate, want.value.error_bound)
