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

from srq1 import boson, electron, kinematics
from srq1.cli import run_cli
from srq1.errors import AmbiguousLimitError, ConvergenceError
from srq1.quadrature import QuadratureConfig

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


# One-point values of the point-by-point code, at points where numpy's
# array pow (np.exp for the limit profile) would round differently; the
# comparisons above hold for either choice, these pins only for the right one.
PINNED = [
    ("angular_density_b", (1, 0.7, 0.04948505349978825), "0x1.5f54a187f8fafp-1"),
    ("angular_density_b", (1, 0.7, 0.07161679919643149), "0x1.5f16fb326b915p-1"),
    ("angular_density_e", (3, 1, 0.999999, 0.01970322167786832), "0x1.1da9c6cb38c87p-3"),
    ("angular_density_e", (3, 1, 0.999999, 0.02262993026007064), "0x1.1dae5031a9cbdp-3"),
    ("local_polarization_b", (1, 0.5, 2.6500939082230475), "0x1.75e1a5e34536ep-9"),
    ("local_polarization_e", (2, -1, 0.9, 2.035090840988652), "0x1.7055abbcf00c4p-1"),
    ("ultrarelativistic_density", (0, -1, 0.0028896027135477758), "0x1.1d99a651d937cp-2"),
    ("ultrarelativistic_density", (0, -1, 0.04605411250086979), "0x1.1de6eb0c5d3d8p-2"),
]


@pytest.mark.parametrize("name, args, value", PINNED)
def test_pinned_point_values(name, args, value):
    f = getattr(boson if name.endswith("_b") else electron, name)
    assert f(*args) == float.fromhex(value)
    assert f(*args[:-1], np.array([args[-1]]))[0] == float.fromhex(value)


def test_pinned_photon_frequency():
    spec = kinematics.electron(1)
    state = kinematics.state_from_beta(spec, 1, 0.8)
    theta = 2.035090840988652
    for t in (theta, np.array([theta])):
        omega = kinematics.photon_frequency(spec, state, kinematics.PhotonRequest(1, t))
        assert np.all(omega == float.fromhex("0x1.417b010fa703cp-1"))


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
    "2.0943951,0\n2.61799388,5.98049537e-17\n3.14159265,0\n",
    "p": "# quantity=p\n" + _HEAD
    + "# ambiguous=beta=1,theta=pi/2: double limit; fixed-beta theta-limit reported\n"
    "theta,p\n0,0.278905275\n0.523598776,0.319604672\n1.04719755,0.473705155\n"
    "1.57079633,0.410414067\n2.0943951,0\n2.61799388,0\n3.14159265,0\n",
}


@pytest.mark.parametrize("quantity", sorted(DOUBLE_LIMIT))
def test_double_limit_scan_warns_nothing(quantity):
    argv = ["scan", "--quantity", quantity, "--particle", "electron", "--zeta", "1",
            "--s", "1", "--beta", "1", "--theta", "0:pi:7"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert run_cli(argv) == 0
    assert err.getvalue() == ""
    assert out.getvalue() == DOUBLE_LIMIT[quantity]


# ---------- theta within 1e-8 of pi/2 at beta = 1, not snapped to it ----------

# Literal output of a known fault, kept visible until it is fixed: sin^2
# rounds to 1, x = 1, and phi_s/phi_0 is 0/inf (zeta -1, s 2) or inf/inf
# (zeta +1, s 2), so every row reads 0 or nan.  The nan table is the writers'
# non-finite case: JSON writes it as a list.
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
    ("-1", "csv"): _NEAR_HEAD.format("-1") + "1.57079633,0\n" * 9,
    ("1", "csv"): _NEAR_HEAD.format("1") + "1.57079633,nan\n" * 9,
    ("-1", "json"): _NEAR_JSON.format("-1", ",\n".join(
        ["    [\n      1.57079633,\n      0.0\n    ]"] * 9)),
    ("1", "json"): _NEAR_JSON.format("1", ",\n".join(
        ["    [\n      1.57079633,\n      \"nan\"\n    ]"] * 9)),
}


@pytest.mark.parametrize("zeta, fmt", sorted(NEAR_HALF_PI))
def test_scan_next_to_the_double_limit_prints_its_known_values(zeta, fmt):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli(_NEAR_HALF_PI + ["--zeta", zeta, "--format", fmt]) == 0
    assert out.getvalue() == NEAR_HALF_PI[zeta, fmt]


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


def test_density_profiles_report_each_failed_normalization():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_depth=10)
    for fam in (boson.BOSON, electron.ELECTRON):
        _, failed = fam.density_profiles(0, -1, list(BETAS), cfg)
        for beta, error in zip(BETAS, failed):
            if fam.limit is not None and beta == 1.0:  # the limit profile needs no f_k
                assert error is None
                continue
            with pytest.raises(ConvergenceError) as want:
                fam.density_profile(0, -1, beta, cfg)
            assert (str(error), error.estimate, error.error_bound) == (
                str(want.value), want.value.estimate, want.value.error_bound)
