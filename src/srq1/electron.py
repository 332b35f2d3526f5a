"""Radiation of a spin-1/2 particle on the first excited level (n = nu = 1).

Deformation pair:

    x0(beta)       = (1 - sqrt(1 - beta^2)) / (1 + sqrt(1 - beta^2)) = (gamma-1)/(gamma+1)
    x(beta, theta) = same with beta^2 sin^2(theta),   0 <= x <= x0 <= 1.

The final state always has spin against the field, so zeta = +1 radiates
through a spin flip and is suppressed by the factor d(+1; beta) = x0, while
zeta = -1 has d = 1, and the two linear components switch places under
zeta -> -zeta.  The shapes, densities, polarization fractions and power
W_0 = d(zeta) (A(beta)/6) f(beta) are those of the ``ELECTRON`` record of
``family.Family``.  At beta = 1 its densities are the closed-form limit
profiles held here, except at theta = pi/2 (``is_double_limit_point``),
where the two iterated limits disagree and the fixed-beta theta-limit
values are served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import integrals
from .family import Family, _cos
from .kinematics import like_theta, validate_s
from .integrals import f_e  # noqa: F401  (only for bench/trace_layers to wrap)
from .kinematics import power_prefactor  # noqa: F401  (only for bench/trace_layers)

_TWO_E_MINUS_3 = 2.0 * math.e - 3.0

# limit is looked up here at each call, so that a wrapper installed here sees
# every call
ELECTRON = Family(
    xmap=(1.0, 1.0, 1.0), shape_power=1, power_const=(1.0, 6.0),
    f=partial(integrals.f_values, integrals.ELECTRON_KERNEL),
    limit=lambda s, zeta, theta: ultrarelativistic_density(s, zeta, theta))

x0 = ELECTRON.x0
spin_factor = ELECTRON.spin_factor
phi_e = ELECTRON.phi
shape_integral_e = ELECTRON.shape_integral
total_power_e = ELECTRON.total_power
half_plane_fraction_e = ELECTRON.half_plane_fraction
local_polarization_e = ELECTRON.local_polarization
is_double_limit_point = ELECTRON.at_double_limit
density_profile_e = ELECTRON.density_profile
angular_density_e = ELECTRON.density  # p_2(zeta) = p_3(-zeta)


@dataclass(frozen=True)
class ElectronDeformation:
    x0: float
    x: float


def electron_deformation(beta: float, theta: float) -> ElectronDeformation:
    return ElectronDeformation(*ELECTRON.deformation(beta, theta))


def _cos_and_limit_shape(theta):
    # cos with the snap at pi/2 of family._cos, |cos| and Theta
    c = _cos(theta)
    a = np.abs(c)
    return c, a, np.exp(2.0 * a / (1.0 + a)) / np.power(1.0 + a, 3)


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
