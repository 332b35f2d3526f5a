"""One model of the n = nu = 1 radiation, written once for both particles.

A particle is a ``Family`` record; ``boson.BOSON`` and ``electron.ELECTRON``
live with their particles.  In exact arithmetic, with c = cos(theta):

    r = sqrt(A - B beta^2 sin^2(theta)),   x = (sqrt(A) - r) / (sqrt(A) + r)
    x0 = x at theta = pi/2,   straight = 1 - a x,   bent = (1 + x)^2 c^2 / straight
    phi_2, phi_3 = straight, bent      (swapped for an electron with zeta = +1)
    phi_0 = phi_2 + phi_3,   phi_g = phi_0/2 + g (1 + x) c
    p_s = (1 + x)^3 e^-x phi_s / (D(x) (1 + x0)^2 f_0(x0))
    f(beta) = 3 (1 + x0)^m f_0(x0) / 8,   W_0 = c(zeta) A(beta) f(beta)

              A, B, sqrt(A)   a    D(x)    m   c(zeta)
    boson     3, 2, sqrt(3)   1    1       2   4/81
    electron  1, 1, 1         x0   1 - x   1   d(zeta)/6

where d(+1) = x0 is the electron's spin-flip suppression and d(-1) = 1.
``spin`` marks the electron's column: a = x0, D(x) = 1 - x, and zeta
selects phi_2/phi_3 and scales W_0; the boson ignores zeta.  A record
reads its f_k through ``f`` (``integrals`` evaluates them).

Every beta-dependent term is a sum of terms of one sign (Higham, 2002,
ch. 1): lead = A - B beta^2 = (A - B) + B (1 - beta)(1 + beta), r =
sqrt(lead + B beta^2 c^2), x = B beta^2 sin^2 / (sqrt(A) + r)^2, 1 - x =
2r / (sqrt(A) + r), straight = (1 - a) + a (1 - x), and phi_g = root^2 /
(2 straight), root = straight + g (1 + x) c, which where g c < 0 is
(1 - a) x + 2 lead sin^2 / ((r + sqrt(A)|c|)(sqrt(A) + r)).  So one formula
serves every beta: at beta = 1 the electron's lead and 1 - x0 vanish, its
body stays finite off theta = pi/2, and its dark half is 0.  At pi/2
(``at_double_limit``) the body is 0/0 and the iterated limits differ by a
factor 2: the densities take the fixed-beta theta-limit values, the local
polarization has none, and phi_s is 0.

Theta may be an array, as in the CLI's theta scans; numpy's ufuncs give a
scalar, a 0-d array and every element of an array the same bits, so each
array value is its one-point value.  The density body is written once, in
the profiles of ``density_profiles`` (``density_profile`` and ``density``
are their one-beta cases), and runs in place: each stage writes into an
array it owns, with the operands and order of the plain expression.

A beta scan (``shape_integral_scan``, ``total_power_scan``,
``half_plane_fraction[s]_scan``, and the profiles of ``density_profiles``)
checks every beta, then evaluates the f_k of ``GRID_CHUNK`` betas at a time
in one call of ``f``, which bounds its memory at any grid length.  It yields
beta by beta and raises a failed f_k when its beta is reached, as a
beta-by-beta evaluation would; the one-beta methods are scans of one beta.
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


def _cos(theta):
    # cos(float(pi/2)) is ~6e-17, not 0; snap theta = pi/2 alone to exact 0
    cos = np.asarray(np.cos(theta))
    cos[theta == HALF_PI] = 0.0
    return cos


@dataclass(frozen=True)
class Family:
    xmap: tuple         # (A, B, sqrt(A)) of the deformation map
    shape_power: int    # m, the power of (1 + x0) in f(beta)
    power_const: tuple  # (num, den): W_0 = num d(zeta) A(beta) / den f(beta)
    f: Callable         # (ks, xs, cfg) -> f_k(x) of each pair, or the error it raises
    spin: bool          # spin 1/2: a = x0, D(x) = 1 - x, zeta selects and scales

    def at_limit(self, beta: float) -> bool:
        """True at beta = 1 of spin 1/2: the body is 0/0 at pi/2 alone."""
        return self.spin and beta == 1.0

    def check(self, beta, theta=None, zeta=None):
        kinematics.validate_beta(beta)
        if theta is not None:
            kinematics.validate_theta(theta)
        if self.spin and zeta is not None and zeta not in (1, -1):
            raise DomainError(f"zeta must be +1 or -1, got {zeta}")

    def _swap(self, zeta) -> bool:
        """True for zeta = +1 of spin 1/2: phi_2, phi_3 swap and W_0 scales by x0."""
        return self.spin and zeta == 1

    def _x1(self, beta, cos2=0.0, sin2=1.0):
        """(B beta^2, lead, x, 1 - x) at one beta, cos^2 and sin^2 (x0 by
        default), with the operations of ``_phi`` in its order, so its bits."""
        A, B, sqrt_A = self.xmap
        bb2 = B * (beta * beta)
        lead = (A - B) + B * ((1.0 - beta) * (1.0 + beta))
        r = math.sqrt(lead + bb2 * cos2)
        spr = r + sqrt_A
        return bb2, lead, sin2 * bb2 / spr / spr, 2.0 * r / spr

    def _row(self, beta):
        """(B beta^2, lead, a, 1 - a), the body's coefficients at one beta."""
        row = self._x1(beta)
        return row if self.spin else (*row[:2], 1.0, 0.0)

    def x0(self, beta: float) -> float:
        kinematics.validate_beta(beta)
        return self._x1(beta)[2]

    def deformation(self, beta: float, theta: float) -> tuple[float, float]:
        self.check(beta, theta)
        c = 0.0 if theta == HALF_PI else math.cos(theta)
        s = 0.0 if theta == math.pi else math.sin(theta)
        return self.x0(beta), self._x1(beta, c * c, s * s)[2]

    def _phi(self, s, swap, theta, bb2, lead, a, oma, phi0=True):
        """(phi_s, phi_0, x, 1 + x, 1 - x) at theta, an array of ndim >= 1
        left as it is, for the ``_row`` values, each a float or a column per
        row of theta; arrays of their own, built in place (without ``phi0``
        the phi_0 of s = +-1 is None).  A complex theta
        (the slope's complex step) stays analytic: the dark half is chosen by
        the real part of s cos, and |cos| is -s cos there."""
        cos = _cos(theta)
        cos2 = cos * cos
        sin2 = np.sin(theta)
        sin2[theta == math.pi] = 0.0  # sin(float(pi)) is ~1.2e-16, not 0
        sin2 *= sin2
        r = cos2 * bb2
        r += lead
        np.sqrt(r, out=r)
        spr = r + self.xmap[2]
        x = sin2 * bb2
        x /= spr
        x /= spr
        omx = 2.0 * r
        omx /= spr
        if s in (1, -1):
            # the root of phi_s on the dark half, s cos < 0
            dark = (cos.real < 0.0) if s == 1 else (cos.real > 0.0)
            if dark.any():
                dark_root = r + (-s * self.xmap[2]) * cos
                dark_root *= spr
                np.divide(sin2 * (2.0 * lead), dark_root, out=dark_root, where=dark)
                dark_root += oma * x
        # r and sqrt(A) + r are spent: their arrays take straight and 1 + x
        straight = np.multiply(a, omx, out=r)
        straight += oma
        opx = np.add(1.0, x, out=spr)
        if s in (1, -1):
            root = s * opx
            root *= cos
            root += straight
            if dark.any():
                np.copyto(root, dark_root, where=dark)
            root *= root
            root /= straight
            root *= 0.5
            if not phi0:
                return root, None, x, opx, omx
        bent = opx * opx
        bent *= cos2
        bent /= straight
        if s in (2, 3):
            if (s == 2) != swap:
                return straight, np.add(straight, bent, out=bent), x, opx, omx
            return bent, np.add(straight, bent, out=straight), x, opx, omx
        phi0 = np.add(straight, bent, out=bent)
        return (phi0 if s == 0 else root), phi0, x, opx, omx

    def _phis(self, s, zeta, beta, theta):
        """(phi_s, phi_0) at theta, a float or an array."""
        if np.ndim(theta) == 0:
            phi_s, phi0 = self._phis(s, zeta, beta, np.reshape(theta, 1))
            return phi_s[0], phi0[0]
        return self._phi(s, self._swap(zeta), theta, *self._row(beta))[:2]

    def phi(self, s: int, zeta, beta: float, theta: float) -> float:
        """Polarization shape phi_s(zeta; beta, theta); 0 at the double-limit
        point, where both iterated limits are 0 and the body is 0/0."""
        kinematics.validate_s(s)
        self.check(beta, theta, zeta)
        if self.at_double_limit(beta, theta):
            return 0.0
        return float(self._phis(s, zeta, beta, theta)[0])

    def at_double_limit(self, beta: float, theta) -> bool:
        """True ``at_limit`` if theta (a float or an array) holds pi/2: there
        the iterated limits of the densities disagree by a factor 2."""
        return self.at_limit(beta) and bool(np.any(np.asarray(theta) == HALF_PI))

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

    def _body(self, s, swap, theta, bb2, lead, a, oma, norm):
        """p_s at theta for the ``_row`` values and the normalization norm,
        each a float or a column per row of theta, in place.  The cube is
        np.power: ``**`` on a numpy scalar would take C's pow."""
        if theta.ndim == 0:
            return self._body(s, swap, theta.reshape(1), bb2, lead, a, oma, norm)[0]
        phi_s, _, x, opx, omx = self._phi(s, swap, theta, bb2, lead, a, oma, phi0=False)
        den = norm
        if self.spin:
            den = omx
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
        the normalizations run as one batch.  An ``at_limit`` cell at pi/2
        takes the fixed-beta theta-limit value, every other the body."""
        kinematics.validate_s(s)
        for beta in betas:
            self.check(beta, zeta=zeta)
        swap = self._swap(zeta)
        # per beta: the _row values, the normalization of the body, at_limit
        params, failed = np.ones((len(betas), 6)), [None] * len(betas)
        params[:, 5] = [self.at_limit(beta) for beta in betas]
        for i, (beta, (x0, fk)) in enumerate(zip(betas, self._f_rows((2, 3), betas, cfg))):
            failed[i] = next((v for v in fk if isinstance(v, Exception)), None)
            if failed[i] is None:
                params[i, :5] = (*self._row(beta), (1.0 + x0) ** 2 * (fk[0] + fk[1]))
        # as beta -> 1, p_s at pi/2 tends to 16/(e norm) phi_s/phi_0 at cos = 0:
        # the linear component that survives the spin selection takes all of
        # phi_0 and the other one none
        ratio = {0: 1.0, 1: 0.5, -1: 0.5}.get(s, float((s == 2) != swap))

        def profile(rows, theta):
            *cols, lim = params[rows] if np.ndim(rows) == 0 else params[rows].T[..., None]
            if not lim.any():
                return self._body(s, swap, theta, *cols)
            with np.errstate(invalid="ignore"):
                values = self._body(s, swap, theta, *cols)
            return np.where((lim == 1.0) & (theta == HALF_PI), 16.0 / (math.e * cols[4]) * ratio,
                            values)

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
