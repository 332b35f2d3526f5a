"""Radiation of a spin-1/2 particle on the first excited level (n = nu = 1).

Deformation pair:

    x0(beta)       = (1 - sqrt(1 - beta^2)) / (1 + sqrt(1 - beta^2)) = (gamma-1)/(gamma+1)
    x(beta, theta) = same with beta^2 sin^2(theta),   0 <= x <= x0 <= 1.

The final state always has spin against the field, so zeta = +1 radiates
through a spin flip and is suppressed by the factor d(+1; beta) = x0, while
zeta = -1 has d = 1, and the two linear components switch places under
zeta -> -zeta.  The shapes, densities, polarization fractions and power
W_0 = d(zeta) (A(beta)/6) f(beta) are those of the ``family.ELECTRON``
record.

At beta = 1 the densities for theta != pi/2 are the closed-form limit
profiles; at (beta = 1, theta = pi/2) the two iterated limits disagree by a
factor 2 and the fixed-beta theta-limit values are served, flagged through
``is_double_limit_point``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .family import ELECTRON, HALF_PI, PowerResult  # noqa: F401  (re-exported)
from .family import _cos
from .integrals import f_e  # noqa: F401  (re-exported)
from .kinematics import elementwise_pow, like_theta
from .kinematics import power_prefactor, validate_s  # noqa: F401  (re-exported)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

_TWO_E_MINUS_3 = 2.0 * math.e - 3.0

x0 = ELECTRON.x0
spin_factor = ELECTRON.spin_factor
phi_e = ELECTRON.phi
shape_integral_e = ELECTRON.shape_integral
total_power_e = ELECTRON.total_power
half_plane_fraction_e = ELECTRON.half_plane_fraction
half_plane_fractions_e = ELECTRON.half_plane_fractions
local_polarization_e = ELECTRON.local_polarization
is_double_limit_point = ELECTRON.at_double_limit


@dataclass(frozen=True)
class ElectronDeformation:
    x0: float
    x: float


def electron_deformation(beta: float, theta: float) -> ElectronDeformation:
    return ElectronDeformation(*ELECTRON.deformation(beta, theta))


def _cos_and_limit_shape(theta):
    # cos with the snap at pi/2 of family._cos; Theta is formed per element
    # with math.exp and Python's pow, which np.exp and numpy's array pow do
    # not match in every last bit
    c = _cos(theta)
    a = np.abs(c)
    shape = [math.exp(2.0 * v / (1.0 + v)) / (1.0 + v) ** 3 for v in np.ravel(a).tolist()]
    return c, a, np.array(shape).reshape(a.shape)


def ultrarelativistic_density(s: int, zeta: int, theta):
    """Limit profile of p_s as beta -> 1 at fixed theta != pi/2; a float for
    a scalar theta and an array for a theta array.

    At theta = pi/2 the sign factor of the circular components is defined
    so both equal Theta/(2e-3) there (the limit-value convention); the
    result is zeta-independent.
    """
    validate_s(s)
    ELECTRON.check(0.0, theta, zeta)
    c, a, big_theta = _cos_and_limit_shape(theta)
    base = big_theta / _TWO_E_MINUS_3
    if s == 0:
        p = 2.0 * base
    elif s in (2, 3):
        p = base
    else:
        # the sign of cos(theta), 0 where cos snaps to 0
        p = base * (1.0 + np.divide(s * c, a, out=np.zeros_like(a), where=a != 0.0))
    return like_theta(p, theta)


def limit_shape(theta):
    """Theta(theta) = (1 + |cos|)^-3 exp(2|cos|/(1 + |cos|)); theta may be
    an array."""
    return like_theta(_cos_and_limit_shape(theta)[2], theta)


def density_profile_e(s: int, zeta: int, beta: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG, _pow=operator.pow) -> Callable:
    """Vectorized theta -> p_s(zeta; beta; theta), normalization computed
    once.  For beta = 1 the limit profile is used for theta != pi/2 and the
    fixed-beta theta-limit values at theta = pi/2 exactly; ``_pow`` is the
    pow of the beta < 1 profile (see ``family``)."""
    if beta != 1.0:
        return ELECTRON.density_profile(s, zeta, beta, cfg, _pow)
    ELECTRON.check(beta, zeta=zeta)
    # theta-limit values at the ambiguous point: the limit profile, except
    # that the linear component that survives the spin selection has twice
    # the beta-first limit and the other one none
    at_half_pi = ultrarelativistic_density(s, zeta, HALF_PI)
    if s in (2, 3):
        at_half_pi *= 2.0 if (s == 2) == (zeta == -1) else 0.0

    def profile(theta):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta == HALF_PI, at_half_pi, ultrarelativistic_density(s, zeta, theta))

    return profile


def angular_density_e(s: int, zeta: int, beta: float, theta,
                      cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Angular distribution p_s(zeta; beta; theta); p_2(zeta) = p_3(-zeta).
    A float for a scalar theta and an array for a theta array, each element
    equal to its one-point value."""
    ELECTRON.check(beta, theta, zeta)
    return like_theta(density_profile_e(s, zeta, beta, cfg, _pow=elementwise_pow)(theta),
                      theta)
