"""One model of the n = nu = 1 radiation, written once for both particles.

A particle is a ``Family`` record.  With u = beta^2 sin^2(theta), or
u = beta^2 for x0:

    r = sqrt(A - B u),   x = (sqrt(A) - r) / (sqrt(A) + r)
    straight = 1 - a x,  bent = (1 + x)^2 cos^2(theta) / straight
    phi_2, phi_3 = straight, bent      (swapped for an electron with zeta = +1)
    phi_0 = phi_2 + phi_3,   phi_g = phi_0/2 + g (1 + x) cos(theta)
    p_s = (1 + x)^3 e^-x phi_s / (D(x) (1 + x0)^2 f_0(x0))
    f(beta) = 3 (1 + x0)^m f_0(x0) / 8,   W_0 = c(zeta) A(beta) f(beta)

              A, B, sqrt(A)   a    D(x)    m   c(zeta)
    boson     3, 2, sqrt(3)   1    1       2   4/81
    electron  1, 1, 1         x0   1 - x   1   d(zeta)/6

where d(+1) = x0 is the electron's spin-flip suppression and d(-1) = 1.
The boson has no spin and ignores zeta.  The integrals f_k of each family
are evaluated in ``integrals``, which holds their kernels.

Theta may be an array: ``local_polarization`` and the density profile
evaluate a whole theta scan in one pass, as the CLI's theta scans do.  On
arrays, numpy's pow (and ``np.exp``, against ``math.exp``) can differ from
the scalar pow of a one-point call in the last bit, while sin, cos, sqrt
and + - * / agree.  So the phi_s/profile body takes its pow as an argument:
the CLI's theta scans use ``kinematics.elementwise_pow``, Python's float
pow per element, and every array value is then the one-point value bit for
bit (the electron's beta = 1 limit profile likewise takes ``math.exp`` per
element).  The profile handed to ``analysis`` keeps numpy's array pow,
whose last bits its printed maxima were computed with.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import integrals, kinematics
from .errors import AmbiguousLimitError, DomainError
from .quadrature import DEFAULT_CONFIG

HALF_PI = math.pi / 2
SQRT3 = math.sqrt(3.0)


class PowerResult(NamedTuple):
    power: float  # units Q0; infinite at beta = 1
    shape: float  # the dimensionless factor f(beta)


def _deform(u, A, B, sqrt_A):
    r = np.sqrt(A - B * u)
    return (sqrt_A - r) / (sqrt_A + r)


def _cos(theta):
    # cos(float(pi/2)) is ~6e-17, not 0; snap so theta = pi/2 is exact
    c = np.cos(theta)
    return np.where(np.abs(c) < 1e-15, 0.0, c)


def _phi(s, swap, x, a, theta, power):
    """(phi_s, phi_0) at deformation x; a is the coupling in 1 - a x and
    power(v, n) computes v ** n."""
    cos = _cos(theta)
    straight = 1.0 - a * x
    bent = power(1.0 + x, 2) * cos * cos / straight
    phi0 = straight + bent
    if s in (2, 3):
        return (straight if (s == 2) != swap else bent), phi0
    if s == 0:
        return phi0, phi0
    return 0.5 * phi0 + s * (1.0 + x) * cos, phi0


@dataclass(frozen=True)
class Family:
    xmap: tuple         # (A, B, sqrt(A)) of the deformation map
    coupled: bool       # a = x0 in straight = 1 - a x (else a = 1)
    pole: bool          # the density carries 1/(1 - x)
    shape_power: int    # m, the power of (1 + x0) in f(beta)
    power_const: tuple  # (num, den): W_0 = num d(zeta) A(beta) / den f(beta)
    spin: bool          # zeta = +1 swaps phi_2, phi_3 and scales W_0 by x0
    f: Callable         # (k, x, cfg) -> f_k(x)

    def check(self, beta, theta=None, zeta=None):
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {beta}")
        if theta is not None:
            kinematics.validate_theta(theta)
        if self.spin and zeta is not None and zeta not in (1, -1):
            raise DomainError(f"zeta must be +1 or -1, got {zeta}")

    def x0(self, beta: float) -> float:
        return float(_deform(beta * beta, *self.xmap))

    def deformation(self, beta: float, theta: float) -> tuple[float, float]:
        self.check(beta, theta)
        s = math.sin(theta)
        return self.x0(beta), float(_deform(beta * beta * s * s, *self.xmap))

    def _phis(self, s, zeta, beta, theta):
        pow_ = kinematics.elementwise_pow
        x = _deform(beta * beta * pow_(np.sin(theta), 2), *self.xmap)
        a = self.x0(beta) if self.coupled else 1.0
        return _phi(s, self.spin and zeta == 1, x, a, theta, pow_)

    def phi(self, s: int, zeta, beta: float, theta: float) -> float:
        """Polarization shape phi_s(zeta; beta, theta)."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        return float(self._phis(s, zeta, beta, theta)[0])

    def at_double_limit(self, beta: float, theta: float) -> bool:
        """True at (beta = 1, theta = pi/2) of a family whose density has the
        1/(1 - x) pole: there the iterated limits of the densities disagree
        by a factor 2."""
        return self.pole and beta == 1.0 and theta == HALF_PI

    def local_polarization(self, s: int, zeta, beta: float, theta):
        """Pointwise polarization fraction phi_s/phi_0 at a scalar theta (a
        float) or a theta array (an array); AmbiguousLimitError if theta holds
        the double-limit point, where it depends on the order of the limits."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        if self.at_double_limit(beta, HALF_PI) and np.any(np.asarray(theta) == HALF_PI):
            raise AmbiguousLimitError(
                "local polarization at beta = 1, theta = pi/2 depends on the "
                "order of the limits beta -> 1 and theta -> pi/2"
            )
        if s == 0:
            return kinematics.like_theta(np.ones(np.shape(theta)), theta)
        phi_s, phi0 = self._phis(s, zeta, beta, theta)
        return kinematics.like_theta(phi_s / phi0, theta)

    def density_profile(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG,
                        _pow=operator.pow) -> Callable:
        """Vectorized theta -> p_s(zeta; beta; theta), normalization computed
        once.  theta is not checked; with the pole, beta must stay below 1.
        ``_pow`` is the pow of the profile body (see the module docstring)."""
        kinematics.validate_s(s)
        self.check(beta, zeta=zeta)
        x0 = self.x0(beta)
        norm = (1.0 + x0) ** 2 * self.f(0, x0, cfg)
        b2, xmap, swap, pole = beta * beta, self.xmap, self.spin and zeta == 1, self.pole
        a = x0 if self.coupled else 1.0

        def profile(theta):
            theta = np.asarray(theta, dtype=float)
            x = _deform(b2 * _pow(np.sin(theta), 2), *xmap)
            num = _pow(1.0 + x, 3) * np.exp(-x) * _phi(s, swap, x, a, theta, _pow)[0]
            return num / ((1.0 - x) * norm) if pole else num / norm

        return profile

    def half_plane_fractions(self, zeta, beta: float, cfg=DEFAULT_CONFIG) -> dict:
        """{s: q_s(zeta; beta)} from one evaluation of f_1, f_2, f_3: the share
        of the power of component s radiated into 0 <= theta <= pi/2, with
        q_0 = 1, q_2 + q_3 = 1, q_g + q_{-g} = 1 and q_2(zeta) = q_3(-zeta)."""
        self.check(beta, zeta=zeta)
        x0 = self.x0(beta)
        f1 = self.f(1, x0, cfg)
        f2 = self.f(2, x0, cfg)
        f0 = f2 + self.f(3, x0, cfg)
        z = 1 if self.spin and zeta == 1 else -1
        q1 = 0.5 + f1 / f0
        q2 = 0.5 * (1.0 + z - 2.0 * z * (f2 / f0))
        return {0: 1.0, 1: q1, -1: 1.0 - q1, 2: q2, 3: 1.0 - q2}

    def half_plane_fraction(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """q_s(zeta; beta) of ``half_plane_fractions``."""
        kinematics.validate_s(s)
        self.check(beta, zeta=zeta)
        return 1.0 if s == 0 else self.half_plane_fractions(zeta, beta, cfg)[s]

    def shape_integral(self, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """f(beta) = 3 (1 + x0)^m f_0(x0) / 8; equals 1 at beta = 0."""
        self.check(beta)
        x0 = self.x0(beta)
        return 3.0 * (1.0 + x0) ** self.shape_power / 8.0 * self.f(0, x0, cfg)

    def spin_factor(self, zeta, beta: float) -> float:
        """d(zeta; beta): spin-flip suppression x0 for zeta = +1, else 1."""
        self.check(beta, zeta=zeta)
        return self.x0(beta) if self.spin and zeta == 1 else 1.0

    def total_power(self, zeta, beta: float, cfg=DEFAULT_CONFIG) -> PowerResult:
        """W_0 (units Q0; infinite at beta = 1) and the shape factor f(beta)."""
        self.check(beta, zeta=zeta)
        shape = self.shape_integral(beta, cfg)
        num, den = self.power_const
        power = num * self.spin_factor(zeta, beta) * kinematics.power_prefactor(beta) / den
        return PowerResult(power=power * shape, shape=shape)


# f is looked up in ``integrals`` at each call, so that a wrapper installed
# there sees every call
BOSON = Family(
    xmap=(3.0, 2.0, SQRT3), coupled=False, pole=False, shape_power=2,
    power_const=(4.0, 81.0), spin=False, f=lambda k, x, cfg: integrals.f_b(k, x, cfg))
ELECTRON = Family(
    xmap=(1.0, 1.0, 1.0), coupled=True, pole=True, shape_power=1,
    power_const=(1.0, 6.0), spin=True, f=lambda k, x, cfg: integrals.f_e(k, x, cfg))
