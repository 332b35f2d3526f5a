"""Radiation of a spin-0 particle on the first excited level (n = nu = 1).

The deformation pair is

    xbar0(beta)       = (sqrt3 - sqrt(3 - 2 beta^2)) / (sqrt3 + sqrt(3 - 2 beta^2))
    xbar(beta, theta) = same with beta^2 sin^2(theta),   0 <= xbar <= xbar0 <= 2 - sqrt3.

The shapes, densities, polarization fractions and power are those of the
``BOSON`` record of ``family.Family``; at beta = 1 the power is infinite
while every normalized quantity stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import integrals
from .family import Family, PowerResult
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .integrals import f_b  # noqa: F401  (only for bench/trace_layers to wrap)
from .kinematics import power_prefactor, validate_s  # noqa: F401  (only for bench/trace_layers)

SQRT3 = math.sqrt(3.0)
XBAR0_MAX = 2.0 - SQRT3

BOSON = Family(xmap=(3.0, 2.0, SQRT3), shape_power=2, power_const=(4.0, 81.0),
               f=partial(integrals.f_columns, integrals.BOSON_KERNEL), spin=False)

xbar0 = BOSON.x0
shape_integral_b = BOSON.shape_integral


@dataclass(frozen=True)
class BosonDeformation:
    xbar0: float
    xbar: float


def boson_deformation(beta: float, theta: float) -> BosonDeformation:
    return BosonDeformation(*BOSON.deformation(beta, theta))


def phi_b(s: int, beta: float, theta: float) -> float:
    """Polarization shape phi_s at (beta, theta)."""
    return BOSON.phi(s, None, beta, theta)


def total_power_b(beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PowerResult:
    return BOSON.total_power(None, beta, cfg)


def half_plane_fraction_b(s: int, beta: float,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Fraction q_s of the total power radiated into 0 <= theta <= pi/2."""
    return BOSON.half_plane_fraction(s, None, beta, cfg)


def density_profile_b(s: int, beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> Callable:
    """Vectorized theta -> p_s(beta; theta); finite for all beta in [0, 1]."""
    return BOSON.density_profile(s, None, beta, cfg)


def angular_density_b(s: int, beta: float, theta,
                      cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Angular distribution p_s(beta; theta), a float for a scalar theta and
    an array for a theta array, each element equal to its one-point value;
    integrates to 1 over the sphere for s = 0 (measure sin(theta) d(theta))."""
    return BOSON.density(s, None, beta, theta, cfg)


def local_polarization_b(s: int, beta: float, theta):
    """Pointwise polarization fraction phi_s/phi_0 at (beta, theta); theta
    may be an array."""
    return BOSON.local_polarization(s, None, beta, theta)
