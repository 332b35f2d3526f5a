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
The pole 1/(1 - x) of the electron's column leaves its p_s no beta = 1
value, so its record carries ``limit``, the closed-form limit profile, and
``spin`` is that a record has one: a = x0, D(x) = 1 - x, and zeta selects
phi_2/phi_3 and scales W_0; the boson ignores zeta.  A record reads its f_k
through ``f`` (``integrals`` evaluates them).  At beta = 1 (``at_limit``)
a spin record serves the limit profile for theta != pi/2, and at theta =
pi/2, where the two iterated limits disagree by a factor 2
(``at_double_limit``), the fixed-beta theta-limit values.  There phi_s is
the ratio of its limit profiles times phi_0 = 4|cos|/(1 + |cos|), so the
local polarization is that ratio off pi/2.

Theta may be an array: ``local_polarization`` and the densities evaluate a
whole theta scan in one pass, as the CLI's theta scans do.  The density
body is written once, with numpy's pow and ``np.exp``, in the profiles of
``density_profiles``: ``density_profile`` is its profile of one beta, and
``density`` is that profile applied to theta.  Numpy's ufuncs give a
scalar, a 0-d array and every element of an array the same bits, so each
array value is its one-point value.  phi_s, behind ``phi`` and
``local_polarization``, squares by products as the body does, and both
read one ``_phi``.  The body runs in place: after the sine and the
deformation map each stage writes into an array it owns, with the operands
and order of the plain expression, whose bits it keeps; a 0-d theta runs
as a one-element array, and the rows of a profile call may share one
theta row.

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
    # cos(float(pi/2)) is ~6e-17, not 0; snap theta = pi/2 alone to exact 0
    cos = np.asarray(np.cos(theta))
    cos[theta == HALF_PI] = 0.0
    return cos


def _phi(s, swap, x, a, theta):
    """(phi_s, phi_0, 1 + x) at deformation x, an array of ndim >= 1 that is
    left as it is; a is the coupling in 1 - a x.  Each result is an array of
    its own (phi_s is phi_0 for s = 0), built in place."""
    cos = _cos(theta)
    opx = 1.0 + x
    straight = a * x
    np.subtract(1.0, straight, out=straight)
    bent = opx * opx
    bent *= cos
    bent *= cos
    bent /= straight
    if s in (2, 3):
        if (s == 2) != swap:
            return straight, np.add(straight, bent, out=bent), opx
        return bent, np.add(straight, bent, out=straight), opx
    phi0 = np.add(straight, bent, out=bent)
    if s == 0:
        return phi0, phi0, opx
    term = s * opx
    term *= cos
    phi_s = np.multiply(0.5, phi0, out=straight)
    phi_s += term
    return phi_s, phi0, opx


@dataclass(frozen=True)
class Family:
    xmap: tuple         # (A, B, sqrt(A)) of the deformation map
    shape_power: int    # m, the power of (1 + x0) in f(beta)
    power_const: tuple  # (num, den): W_0 = num d(zeta) A(beta) / den f(beta)
    f: Callable         # (ks, xs, cfg) -> f_k(x) of each pair, or the error it raises
    limit: Callable | None  # (s, zeta, theta) -> the beta = 1 density; None without the pole

    @property
    def spin(self) -> bool:
        """Spin 1/2: a = x0, D(x) = 1 - x, zeta selects and scales.  Its pole
        at beta = 1 is why a record has a ``limit``."""
        return self.limit is not None

    def at_limit(self, beta: float) -> bool:
        """True at beta = 1 of a record with a ``limit``, which serves it."""
        return self.limit is not None and beta == 1.0

    def check(self, beta, theta=None, zeta=None):
        kinematics.validate_beta(beta)
        if theta is not None:
            kinematics.validate_theta(theta)
        if self.spin and zeta is not None and zeta not in (1, -1):
            raise DomainError(f"zeta must be +1 or -1, got {zeta}")

    def _swap(self, zeta) -> bool:
        """True for zeta = +1 of spin 1/2: phi_2, phi_3 swap and W_0 scales by x0."""
        return self.spin and zeta == 1

    def _x1(self, u: float) -> float:
        """``_deform`` at one u in float arithmetic: the same operations in the
        same order, so the same bits, without numpy's cost per call."""
        A, B, sqrt_A = self.xmap
        r = math.sqrt(A - B * u)
        return (sqrt_A - r) / (sqrt_A + r)

    def x0(self, beta: float) -> float:
        kinematics.validate_beta(beta)
        return self._x1(beta * beta)

    def deformation(self, beta: float, theta: float) -> tuple[float, float]:
        self.check(beta, theta)
        s = math.sin(theta)
        return self.x0(beta), self._x1(beta * beta * s * s)

    def _x(self, b2, theta):
        """The deformation x at beta^2 = b2, a float or a column per row of
        theta, an array of ndim >= 1; in an array of its own."""
        sin2 = np.sin(theta)
        sin2 *= sin2
        return _deform(b2 * sin2, *self.xmap)

    def _phis(self, s, zeta, beta, theta):
        """(phi_s, phi_0) at theta, a float or an array.  ``at_limit`` phi_s is
        the ratio of the limit profiles times phi_0, which is 0 at pi/2 where
        the body formula is 0/0."""
        if self.at_limit(beta):
            c = np.abs(_cos(theta))
            phi0 = 4.0 * c / (1.0 + c)
            return self.limit(s, zeta, theta) / self.limit(0, zeta, theta) * phi0, phi0
        if np.ndim(theta) == 0:
            phi_s, phi0 = self._phis(s, zeta, beta, np.reshape(theta, 1))
            return phi_s[0], phi0[0]
        a = self.x0(beta) if self.spin else 1.0
        phi_s, phi0, _ = _phi(s, self._swap(zeta), self._x(beta * beta, theta), a, theta)
        return phi_s, phi0

    def phi(self, s: int, zeta, beta: float, theta: float) -> float:
        """Polarization shape phi_s(zeta; beta, theta)."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        return float(self._phis(s, zeta, beta, theta)[0])

    def at_double_limit(self, beta: float, theta) -> bool:
        """True ``at_limit`` if theta (a float or an array) holds pi/2: there
        the iterated limits of the densities disagree by a factor 2."""
        return self.at_limit(beta) and bool(np.any(np.asarray(theta) == HALF_PI))

    def local_polarization(self, s: int, zeta, beta: float, theta):
        """Pointwise polarization fraction phi_s/phi_0 at a scalar theta (a
        float) or a theta array (an array), the ratio of the limit profiles
        ``at_limit``; AmbiguousLimitError if theta holds the double-limit
        point, where it depends on the order of the limits."""
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
        """Vectorized theta -> p_s(zeta; beta; theta) of any shape, the
        ``density_profiles`` of one beta; theta is not checked."""
        profile, failed = self.density_profiles(s, zeta, [beta], cfg)
        checked(failed)
        return lambda theta: profile(0, np.asarray(theta, dtype=float))

    def density(self, s: int, zeta, beta: float, theta, cfg=DEFAULT_CONFIG):
        """Angular distribution p_s(zeta; beta; theta), a float for a scalar
        theta and an array for a theta array, each element equal to its
        one-point value; integrates to 1 over the sphere for s = 0 (measure
        sin(theta) d(theta))."""
        self.check(beta, theta, zeta)
        return kinematics.like_theta(self.density_profile(s, zeta, beta, cfg)(theta), theta)

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

    def _body(self, s, swap, theta, b2, a, norm):
        """p_s at theta for beta^2 = b2, coupling a and normalization norm,
        each a float or a column per row of theta.  The cube is np.power: ``**``
        on a numpy scalar would take C's pow, whose last bit can differ.  After
        the deformation map each stage writes into an array it owns."""
        if theta.ndim == 0:
            return self._body(s, swap, theta.reshape(1), b2, a, norm)[0]
        x = self._x(b2, theta)
        phi_s, _, opx = _phi(s, swap, x, a, theta)
        den = norm
        if self.spin:
            den = 1.0 - x
            den *= norm
        num = np.power(opx, 3, out=opx)
        np.negative(x, out=x)
        num *= np.exp(x, out=x)
        num *= phi_s
        num /= den
        return num

    def density_profiles(self, s: int, zeta, betas, cfg=DEFAULT_CONFIG):
        """The p_s(zeta; beta; theta) of each beta as one function
        ``profile(rows, theta)``: for an int ``rows``, theta of any shape at
        ``betas[rows]``; for 1-D rows, row i of the (n, k) array theta at
        ``betas[rows[i]]``, or a (1, k) theta at every row.  Returned with,
        per beta, the error that its normalization f_2, f_3 raises, or None;
        the normalizations of all betas run as one batch.  ``at_limit`` a
        beta takes the limit profile, which needs no f_k, and a call without
        a limit row evaluates the body on theta as it is."""
        kinematics.validate_s(s)
        for beta in betas:
            self.check(beta, zeta=zeta)
        swap = self._swap(zeta)
        at_limit = np.array([self.at_limit(beta) for beta in betas], bool)
        inside = np.flatnonzero(~at_limit).tolist()
        # per beta: beta^2, the coupling a and the normalization of the body
        params, failed = np.ones((len(betas), 3)), [None] * len(betas)
        for i, (x0, fk) in zip(inside, self._f_rows((2, 3), [betas[i] for i in inside], cfg)):
            failed[i] = next((v for v in fk if isinstance(v, Exception)), None)
            if failed[i] is None:
                params[i] = (betas[i] * betas[i], x0 if self.spin else 1.0,
                             (1.0 + x0) ** 2 * (fk[0] + fk[1]))
        if at_limit.any():
            # at the double-limit point the limit profile takes the fixed-beta
            # theta-limit values: the linear component that survives the spin
            # selection has twice the beta-first limit and the other one none
            at_half_pi = self.limit(s, zeta, HALF_PI)
            if s in (2, 3):
                at_half_pi *= 2.0 if (s == 2) != swap else 0.0

        def profile(rows, theta):
            lim = at_limit[rows]
            if not lim.any():
                b2, a, norm = params[rows] if np.ndim(rows) == 0 else params[rows].T[..., None]
                return self._body(s, swap, theta, b2, a, norm)
            if np.ndim(rows):
                theta = np.broadcast_to(theta, (len(rows), theta.shape[1]))
            if lim.all():
                return np.where(theta == HALF_PI, at_half_pi, self.limit(s, zeta, theta))
            values = np.empty(theta.shape)
            values[lim] = profile(rows[lim], theta[lim])
            values[~lim] = profile(rows[~lim], theta[~lim])
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
        from one evaluation of f_1, f_2, f_3 per beta: the share of the power of
        component s radiated into 0 <= theta <= pi/2, with q_0 = 1, q_2 + q_3 =
        1, q_g + q_{-g} = 1 and q_2(zeta) = q_3(-zeta)."""
        z = 1 if self._swap(zeta) else -1
        for x0, (f1, f2, f3) in self._f_scan((1, 2, 3), betas, cfg, zeta):
            f0 = f2 + f3
            q1 = 0.5 + f1 / f0
            q2 = 0.5 * (1.0 + z - 2.0 * z * (f2 / f0))
            yield {0: 1.0, 1: q1, -1: 1.0 - q1, 2: q2, 3: 1.0 - q2}

    def half_plane_fraction(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """q_s(zeta; beta) of ``half_plane_fractions_scan``."""
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
