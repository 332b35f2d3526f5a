"""One model of the n = nu = 1 radiation, written once for both particles.

A particle is a ``Family`` record; ``boson.BOSON`` and ``electron.ELECTRON``
live with their particles.  With u = beta^2 sin^2(theta), or u = beta^2 for x0:

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
``spin`` marks the electron's column: a = x0, D(x) = 1 - x, and zeta
selects phi_2/phi_3 and scales W_0; the boson ignores zeta.  A record reads
its f_k through ``f`` (``integrals`` evaluates them).  The pole 1/(1 - x)
leaves p_s no beta = 1 value, so there a spin record serves ``limit``, the
closed-form limit profile, for theta != pi/2, and at theta = pi/2, where the
two iterated limits disagree by a factor 2 (``at_double_limit``), the
fixed-beta theta-limit values.

Theta may be an array: ``local_polarization`` and the densities evaluate a
whole theta scan in one pass, as the CLI's theta scans do.  On arrays,
numpy's pow (and ``np.exp``, against ``math.exp``) can differ from the
scalar pow of a one-point call in the last bit, while sin, cos, sqrt and
+ - * / agree.  So the phi_s/profile body takes its pow as an argument:
``density``, the exact-point density of the CLI's theta scans, uses
``kinematics.elementwise_pow``, Python's float pow per element, and every
array value is then the one-point value bit for bit (the electron's limit
profile likewise takes ``math.exp`` per element).  ``density_profile``, the
profile handed to ``analysis``, keeps numpy's array pow, whose last bits its
printed maxima were computed with.

A beta scan (``shape_integral_scan``, ``total_power_scan``,
``half_plane_fraction[s]_scan``, and the profiles of ``density_profiles``)
checks every beta, then evaluates the f_k of ``GRID_CHUNK`` betas at a time
in one call of ``f``, so that their quadratures run together and the memory
of a scan stays bounded at any grid length.  It yields beta by beta and
raises a failed f_k when its beta is reached, in the order of a beta-by-beta
evaluation.  The one-beta methods are scans of one beta, so the arithmetic
after f_k is written once and the bits agree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kinematics
from .errors import AmbiguousLimitError, DomainError, checked
from .quadrature import DEFAULT_CONFIG

HALF_PI = math.pi / 2
# beta scans evaluate the integrals of this many betas at a time, which bounds
# their memory at any grid length
GRID_CHUNK = 1024


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
    spin: bool          # spin 1/2: a = x0, D(x) = 1 - x, zeta selects and scales
    shape_power: int    # m, the power of (1 + x0) in f(beta)
    power_const: tuple  # (num, den): W_0 = num d(zeta) A(beta) / den f(beta)
    f: Callable         # (ks, xs, cfg) -> f_k(x) of each pair, or the error it raises
    limit: Callable | None  # (s, zeta, theta) -> the beta = 1 density; set iff spin

    def check(self, beta, theta=None, zeta=None):
        kinematics.validate_beta(beta)
        if theta is not None:
            kinematics.validate_theta(theta)
        if self.spin and zeta is not None and zeta not in (1, -1):
            raise DomainError(f"zeta must be +1 or -1, got {zeta}")

    def _swap(self, zeta) -> bool:
        """True for zeta = +1 of spin 1/2: phi_2, phi_3 swap and W_0 scales by x0."""
        return self.spin and zeta == 1

    def x0(self, beta: float) -> float:
        return float(_deform(beta * beta, *self.xmap))

    def deformation(self, beta: float, theta: float) -> tuple[float, float]:
        self.check(beta, theta)
        s = math.sin(theta)
        return self.x0(beta), float(_deform(beta * beta * s * s, *self.xmap))

    def _phis(self, s, zeta, beta, theta):
        pow_ = kinematics.elementwise_pow
        x = _deform(beta * beta * pow_(np.sin(theta), 2), *self.xmap)
        a = self.x0(beta) if self.spin else 1.0
        return _phi(s, self._swap(zeta), x, a, theta, pow_)

    def phi(self, s: int, zeta, beta: float, theta: float) -> float:
        """Polarization shape phi_s(zeta; beta, theta)."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        return float(self._phis(s, zeta, beta, theta)[0])

    def at_double_limit(self, beta: float, theta) -> bool:
        """True at beta = 1 of a spin record if theta (a float or an array) holds
        pi/2: there the iterated limits of the densities disagree by a factor 2."""
        return self.spin and beta == 1.0 and bool(np.any(np.asarray(theta) == HALF_PI))

    def local_polarization(self, s: int, zeta, beta: float, theta):
        """Pointwise polarization fraction phi_s/phi_0 at a scalar theta (a
        float) or a theta array (an array); AmbiguousLimitError if theta holds
        the double-limit point, where it depends on the order of the limits."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        if self.at_double_limit(beta, theta):
            raise AmbiguousLimitError(
                "local polarization at beta = 1, theta = pi/2 depends on the "
                "order of the limits beta -> 1 and theta -> pi/2"
            )
        if s == 0:
            return kinematics.like_theta(np.ones(np.shape(theta)), theta)
        phi_s, phi0 = self._phis(s, zeta, beta, theta)
        return kinematics.like_theta(phi_s / phi0, theta)

    def density_profile(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG) -> Callable:
        """Vectorized theta -> p_s(zeta; beta; theta) with numpy's array pow,
        normalization computed once; theta is not checked.  At beta = 1 a record
        with a ``limit`` serves its limit profile (see the module docstring)."""
        return self._profile(s, zeta, beta, cfg, operator.pow)

    def density(self, s: int, zeta, beta: float, theta, cfg=DEFAULT_CONFIG):
        """Angular distribution p_s(zeta; beta; theta), a float for a scalar
        theta and an array for a theta array, each element equal to its
        one-point value; integrates to 1 over the sphere for s = 0 (measure
        sin(theta) d(theta))."""
        self.check(beta, theta, zeta)
        return kinematics.like_theta(
            self._profile(s, zeta, beta, cfg, kinematics.elementwise_pow)(theta), theta)

    def _f_rows(self, ks, betas, cfg):
        """[(x0, [f_k(x0) for k in ks])] at each beta, all integrals in one
        batch; an entry is the error its evaluation raises if it fails."""
        x0s = [self.x0(beta) for beta in betas]
        values = self.f(ks * len(x0s), [x0 for x0 in x0s for _ in ks], cfg)
        return [(x0, values[i * len(ks):(i + 1) * len(ks)]) for i, x0 in enumerate(x0s)]

    def _f_scan(self, ks, betas, cfg, zeta=None):
        """Yield (x0, [f_k(x0) for k in ks]) at each beta in order, after
        checking every beta.  The integrals of GRID_CHUNK betas at a time run
        as one batch, and the first error in the order of a sequential
        evaluation (betas, then ks) is raised when its beta is reached."""
        for beta in betas:
            self.check(beta, zeta=zeta)
        for start in range(0, len(betas), GRID_CHUNK):
            for x0, values in self._f_rows(ks, betas[start:start + GRID_CHUNK], cfg):
                yield x0, checked(values)

    def _limit_profile(self, s, zeta):
        """The beta = 1 density of a record with a ``limit``, with the
        theta-limit values at the double-limit point: the limit profile, except
        that the linear component that survives the spin selection has twice
        the beta-first limit and the other one none."""
        at_half_pi = self.limit(s, zeta, HALF_PI)
        if s in (2, 3):
            at_half_pi *= 2.0 if (s == 2) != self._swap(zeta) else 0.0

        def limit_profile(theta):
            theta = np.asarray(theta, dtype=float)
            return np.where(theta == HALF_PI, at_half_pi, self.limit(s, zeta, theta))

        return limit_profile

    def _body(self, s, swap, theta, b2, a, norm, _pow):
        """p_s at theta for beta^2 = b2, coupling a and normalization norm,
        each a float or a column per row of theta."""
        x = _deform(b2 * _pow(np.sin(theta), 2), *self.xmap)
        num = _pow(1.0 + x, 3) * np.exp(-x) * _phi(s, swap, x, a, theta, _pow)[0]
        return num / ((1.0 - x) * norm) if self.spin else num / norm

    def _body_params(self, betas, cfg):
        """Per beta: (beta^2, the coupling a, the normalization) of its body;
        None at the beta = 1 of a record with a ``limit``, whose profile is
        the limit profile; or the error that its normalization f_2, f_3
        raises.  The normalizations of all betas run as one batch."""
        params = [None] * len(betas)
        inside = [i for i, beta in enumerate(betas) if self.limit is None or beta != 1.0]
        for i, (x0, fk) in zip(inside, self._f_rows((2, 3), [betas[i] for i in inside], cfg)):
            error = next((v for v in fk if isinstance(v, Exception)), None)
            params[i] = error or (betas[i] * betas[i], x0 if self.spin else 1.0,
                                  (1.0 + x0) ** 2 * (fk[0] + fk[1]))
        return params

    def _profile(self, s, zeta, beta, cfg, _pow):
        """``density_profile`` with ``_pow`` as the pow of the beta < 1 body."""
        kinematics.validate_s(s)
        self.check(beta, zeta=zeta)
        (params,) = checked(self._body_params([beta], cfg))
        if params is None:
            return self._limit_profile(s, zeta)
        swap, (b2, a, norm) = self._swap(zeta), params
        return lambda theta: self._body(s, swap, np.asarray(theta, dtype=float), b2, a, norm,
                                        _pow)

    def density_profiles(self, s: int, zeta, betas, cfg=DEFAULT_CONFIG):
        """The ``density_profile`` of each beta as one function
        ``profile(rows, theta)``: row i of the (n, 15) array theta at
        ``betas[rows[i]]``, each value that of the beta's own profile.  Returned
        with, per beta, the error that its normalization f_2, f_3 raises, or
        None; the normalizations of all betas run as one batch."""
        kinematics.validate_s(s)
        for beta in betas:
            self.check(beta, zeta=zeta)
        swap = self._swap(zeta)
        setup = self._body_params(betas, cfg)
        at_limit = np.array([p is None for p in setup], bool)
        failed = [p if isinstance(p, Exception) else None for p in setup]
        params = np.array([p if isinstance(p, tuple) else (1.0,) * 3 for p in setup]).reshape(-1, 3)
        limit_profile = self._limit_profile(s, zeta) if at_limit.any() else None

        def profile(rows, theta):
            values = np.empty_like(theta)
            lim = at_limit[rows]
            if lim.any():
                values[lim] = limit_profile(theta[lim])
            body = ~lim
            b2, a, norm = params[rows[body]].T[:, :, None]
            values[body] = self._body(s, swap, theta[body], b2, a, norm, operator.pow)
            return values

        return profile, failed

    def half_plane_fraction_scan(self, s: int, zeta, betas, cfg=DEFAULT_CONFIG):
        """Yield q_s(zeta; beta) at each beta, in order (see ``_f_scan``)."""
        kinematics.validate_s(s)
        if s == 0:
            yield from (1.0 for _ in self._f_scan((), betas, cfg, zeta))
        else:
            yield from (q[s] for q in self.half_plane_fractions_scan(zeta, betas, cfg))

    def half_plane_fractions_scan(self, zeta, betas, cfg=DEFAULT_CONFIG):
        """Yield {s: q_s(zeta; beta)} at each beta, in order (see ``_f_scan``),
        from one evaluation of f_1, f_2, f_3 per beta."""
        z = 1 if self._swap(zeta) else -1
        for x0, (f1, f2, f3) in self._f_scan((1, 2, 3), betas, cfg, zeta):
            f0 = f2 + f3
            q1 = 0.5 + f1 / f0
            q2 = 0.5 * (1.0 + z - 2.0 * z * (f2 / f0))
            yield {0: 1.0, 1: q1, -1: 1.0 - q1, 2: q2, 3: 1.0 - q2}

    def half_plane_fractions(self, zeta, beta: float, cfg=DEFAULT_CONFIG) -> dict:
        """{s: q_s(zeta; beta)}: the share of the power of component s radiated
        into 0 <= theta <= pi/2, with q_0 = 1, q_2 + q_3 = 1, q_g + q_{-g} = 1
        and q_2(zeta) = q_3(-zeta)."""
        return next(self.half_plane_fractions_scan(zeta, [beta], cfg))

    def half_plane_fraction(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """q_s(zeta; beta) of ``half_plane_fractions``."""
        return next(self.half_plane_fraction_scan(s, zeta, [beta], cfg))

    def _shape_scan(self, betas, cfg, zeta=None):
        """Yield (x0, f(beta)) at each beta, in order (see ``_f_scan``)."""
        for x0, (f2, f3) in self._f_scan((2, 3), betas, cfg, zeta):
            yield x0, 3.0 * (1.0 + x0) ** self.shape_power / 8.0 * (f2 + f3)

    def shape_integral_scan(self, betas, cfg=DEFAULT_CONFIG):
        """Yield f(beta) at each beta, in order (see ``_f_scan``)."""
        yield from (shape for _, shape in self._shape_scan(betas, cfg))

    def shape_integral(self, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """f(beta) = 3 (1 + x0)^m f_0(x0) / 8; equals 1 at beta = 0."""
        return next(self.shape_integral_scan([beta], cfg))

    def spin_factor(self, zeta, beta: float) -> float:
        """d(zeta; beta): spin-flip suppression x0 for zeta = +1, else 1."""
        self.check(beta, zeta=zeta)
        return self.x0(beta) if self._swap(zeta) else 1.0

    def total_power_scan(self, zeta, betas, cfg=DEFAULT_CONFIG):
        """Yield ``total_power`` at each beta, in order (see ``_f_scan``)."""
        num, den = self.power_const
        swap = self._swap(zeta)
        for beta, (x0, shape) in zip(betas, self._shape_scan(betas, cfg, zeta)):
            power = num * (x0 if swap else 1.0) * kinematics.power_prefactor(beta) / den
            yield PowerResult(power=power * shape, shape=shape)

    def total_power(self, zeta, beta: float, cfg=DEFAULT_CONFIG) -> PowerResult:
        """W_0 (units Q0; infinite at beta = 1) and the shape factor f(beta)."""
        return next(self.total_power_scan(zeta, [beta], cfg))
