"""The densities where a subtracted form would cancel, against mpmath.

Two places lose digits in a subtracted form: 1 - beta^2 sin^2(theta) next to
beta = 1 and theta = pi/2, where it is about 1 - beta, and the circular
components phi_{+-1} = phi_0/2 +- (1 + x) cos(theta) on their dark half,
+-cos(theta) < 0, where the two terms nearly cancel.  The reference is the
documented density written afresh with its subtractions, at 40 digits, which
cover what they cancel; a density is compared with its normalization taken
from the program, whose f_k are tested on their own.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from srq1 import boson, electron
from srq1.quadrature import DEFAULT_CONFIG

HALF_PI = math.pi / 2
FAMILIES = [("boson", boson.BOSON, None), ("electron", electron.ELECTRON, 1),
            ("electron", electron.ELECTRON, -1)]
# 1 - beta = 10^-k, k = 6..15, and theta within 1e-7 of pi/2, pi/2 included
NEAR_ONE = [1.0 - 10.0 ** -k for k in range(6, 16)]
NEAR_HALF_PI = [HALF_PI + d for d in (-1e-7, -3e-9, -1e-10, -2e-12, -1e-14, 0.0,
                                      1e-14, 2e-12, 1e-10, 3e-9, 1e-7)]


def _reference(kind, zeta, beta, theta):
    """({s: phi_s}, (1 + x)^3 e^-x / D(x)) at 40 digits, cos snapped to 0 at
    pi/2 and sin at pi as the program does."""
    with mp.workdps(40):
        spin = kind == "electron"
        A, B = (1, 1) if spin else (3, 2)
        b2 = mp.mpf(beta) ** 2
        cos = mp.mpf(0) if theta == HALF_PI else mp.cos(mp.mpf(theta))
        sin = mp.mpf(0) if theta == math.pi else mp.sin(mp.mpf(theta))

        def deform(u):
            r = mp.sqrt(A - B * u)
            return (mp.sqrt(A) - r) / (mp.sqrt(A) + r)

        x0, x = deform(b2), deform(b2 * sin * sin)
        straight = 1 - (x0 if spin else 1) * x
        bent = (1 + x) ** 2 * cos * cos / straight
        linear = (bent, straight) if spin and zeta == 1 else (straight, bent)
        phi = {0: straight + bent, 2: linear[0], 3: linear[1]}
        for g in (1, -1):
            phi[g] = phi[0] / 2 + g * (1 + x) * cos
        return phi, (1 + x) ** 3 * mp.exp(-x) / ((1 - x) if spin else 1)


def _norm(fam, beta):
    x0 = fam.x0(beta)
    f2, f3 = fam.f((2, 3), (x0, x0), DEFAULT_CONFIG)
    return (1.0 + x0) ** 2 * (f2 + f3)


def _assert_close(got, want, where):
    want = float(want)
    if want == 0.0:
        assert abs(got) <= 1e-15, where
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), where


@pytest.mark.parametrize("beta", NEAR_ONE)
@pytest.mark.parametrize("kind, fam, zeta", FAMILIES)
def test_next_to_half_pi_and_beta_one(kind, fam, zeta, beta):
    # q_local, phi and p_s of every s where 1 - beta^2 sin^2(theta) is about
    # 1 - beta, to 1e-13 relative (1e-15 absolute where the value is 0)
    theta = np.array(NEAR_HALF_PI)
    norm = _norm(fam, beta)
    for s in (0, 1, -1, 2, 3):
        p = fam.density(s, zeta, beta, theta)
        q = fam.local_polarization(s, zeta, beta, theta)
        for i, t in enumerate(NEAR_HALF_PI):
            phi, weight = _reference(kind, zeta, beta, t)
            where = (s, t)
            _assert_close(fam.phi(s, zeta, beta, t), phi[s], where)
            _assert_close(q[i], phi[s] / phi[0], where)
            _assert_close(p[i], weight * phi[s] / norm, where)


DARK_BETAS = [0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
# the dark half of s = 1, cos(theta) < 0; s = -1 takes pi - theta
DARK_THETAS = np.linspace(HALF_PI + 0.01, math.pi - 0.01, 25)


@pytest.mark.parametrize("beta", DARK_BETAS)
@pytest.mark.parametrize("kind, fam, zeta", FAMILIES)
def test_circular_components_on_the_dark_half(kind, fam, zeta, beta):
    # p_{+-1} and q_{+-1} where phi_0/2 and (1 + x)|cos| nearly cancel, to
    # 1e-13 relative
    norm = _norm(fam, beta)
    for g in (1, -1):
        theta = DARK_THETAS if g == 1 else math.pi - DARK_THETAS
        p = fam.density(g, zeta, beta, theta)
        q = fam.local_polarization(g, zeta, beta, theta)
        for i, t in enumerate(theta.tolist()):
            phi, weight = _reference(kind, zeta, beta, t)
            assert p[i] == pytest.approx(float(weight * phi[g] / norm), rel=1e-13, abs=0.0)
            assert q[i] == pytest.approx(float(phi[g] / phi[0]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("zeta", (1, -1))
def test_dark_half_is_exactly_zero_at_beta_one(zeta):
    fam = electron.ELECTRON
    for g in (1, -1):
        theta = np.concatenate([DARK_THETAS, [math.pi, HALF_PI + 1e-15]])
        theta = theta if g == 1 else math.pi - theta
        assert not fam.density(g, zeta, 1.0, theta).any()
        assert not fam.local_polarization(g, zeta, 1.0, theta).any()
        assert [fam.phi(g, zeta, 1.0, t) for t in theta.tolist()] == [0.0] * len(theta)
