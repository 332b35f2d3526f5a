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

A beta quantity (``power_rows``, ``half_plane_fraction[s]_rows`` and the
profiles of ``density_profiles``) is one array over its beta grid, built on
``f_table``.  That checks every beta with one array test, which names the
first bad beta as a beta-by-beta check would (and zeta on an empty grid
too), takes the x0 of every beta from the array form of the one-beta map
(``_x1``), with its bits, and their f_k as an (n, k) array, from one call of
``f`` per ``GRID_CHUNK`` betas, which bounds the memory of the integrals at
any grid length.  q_s, f(beta) and W_0 are ufunc columns with the operands
and order of the one-beta expressions.  A power is taken by C's pow,
element by element, as Python's ``**`` takes it (``_pow``), since numpy's
own power loop differs in the last bit.  So each row has the bits of its
one-beta value, and a one-beta method reads row 0 of its table.  A table
raises the error that a beta-by-beta evaluation meets first, the first
failed f_k of the first beta with one, before any row is returned.
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

    def check_betas(self, betas, zeta=None):
        """``check`` of each beta with zeta, in order, as one array test; of
        zeta alone on an empty grid."""
        self.check(betas[0] if len(betas) else 0.0, zeta=zeta)
        if len(betas) > 1:
            kinematics.validate_betas(betas[1:])

    def _swap(self, zeta) -> bool:
        """True for zeta = +1 of spin 1/2: phi_2, phi_3 swap and W_0 scales by x0."""
        return self.spin and zeta == 1

    def _x1(self, beta, cos2=None, sin2=None, sqrt=math.sqrt):
        """(B beta^2, lead, x, 1 - x) at one beta, cos^2 and sin^2, with the
        operations of ``_phi`` in its order, so its bits; with np.sqrt, at an
        array of betas.  Without cos^2 and sin^2 it is x0, where they are 0
        and 1 and drop out exactly."""
        A, B, sqrt_A = self.xmap
        bb2 = B * (beta * beta)
        lead = (A - B) + B * ((1.0 - beta) * (1.0 + beta))
        r = sqrt(lead if cos2 is None else lead + bb2 * cos2)
        spr = r + sqrt_A
        return bb2, lead, (bb2 if sin2 is None else sin2 * bb2) / spr / spr, 2.0 * r / spr

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
        the normalizations are those of ``f_table``.  An ``at_limit`` cell at pi/2
        takes the fixed-beta theta-limit value, every other the body."""
        kinematics.validate_s(s)
        beta, (bb2, lead, x0, omx0), fk, failed = self.f_table((2, 3), betas, cfg, zeta)
        swap = self._swap(zeta)
        # per beta: the _row values, the normalization of the body, at_limit
        params = np.empty((6, len(beta)))
        params[0], params[1], params[4] = bb2, lead, _pow(1.0 + x0, 2) * (fk[:, 0] + fk[:, 1])
        params[2], params[3] = (x0, omx0) if self.spin else (1.0, 0.0)
        params[5] = self.spin & (beta == 1.0)
        params = params.T
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

    def f_table(self, ks, betas, cfg, zeta=None):
        """After checking every beta with zeta: the betas as an array, their
        ``_x1`` columns (B beta^2, lead, x0, 1 - x0), the (n, len(ks)) array
        of f_k(x0), nan where one failed, and per beta its first failed f_k,
        or None.  The integrals of GRID_CHUNK betas run as one call of ``f``."""
        self.check_betas(betas, zeta)
        beta = np.array(betas, dtype=float)
        x1 = self._x1(beta, sqrt=np.sqrt)
        f, failed = np.empty((len(beta), len(ks))), []
        for start in range(0, len(beta), GRID_CHUNK):
            x0 = x1[2][start:start + GRID_CHUNK].tolist()
            values = self.f(list(ks) * len(x0), [v for v in x0 for _ in ks], cfg)
            f[start:start + len(x0)], errors = _f_table(values, len(x0), len(ks))
            failed += errors
        return beta, x1, f, failed

    def half_plane_fractions_rows(self, zeta, betas, cfg=DEFAULT_CONFIG):
        """The (n, 5) array of beta, q_1, q_-1, q_2 and q_3 from one f_1, f_2,
        f_3 per beta: the share of the power of component s radiated into
        0 <= theta <= pi/2, with q_0 = 1, q_2 + q_3 = 1, q_g + q_{-g} = 1 and
        q_2(zeta) = q_3(-zeta)."""
        z = 1 if self._swap(zeta) else -1
        beta, _, f, failed = self.f_table((1, 2, 3), betas, cfg, zeta)
        checked(failed)
        f0 = f[:, 1] + f[:, 2]
        q1 = 0.5 + f[:, 0] / f0
        q2 = 0.5 * (1.0 + z - 2.0 * z * (f[:, 1] / f0))
        return np.column_stack((beta, q1, 1.0 - q1, q2, 1.0 - q2))

    def half_plane_fraction_rows(self, s: int, zeta, betas, cfg=DEFAULT_CONFIG):
        """The (n, 2) array of beta and q_s(zeta; beta)."""
        kinematics.validate_s(s)
        if s == 0:
            self.check_betas(betas, zeta)
            return np.column_stack((np.array(betas, dtype=float), np.ones(len(betas))))
        return self.half_plane_fractions_rows(zeta, betas, cfg)[:, [0, (1, -1, 2, 3).index(s) + 1]]

    def half_plane_fraction(self, s: int, zeta, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """q_s(zeta; beta), row 0 of ``half_plane_fraction_rows``."""
        return self.half_plane_fraction_rows(s, zeta, [beta], cfg)[0, 1].item()

    def shape(self, x0, f):
        """f(beta) = 3 (1 + x0)^m f_0(x0) / 8 at an array of x0, from the
        (f_2, f_3) rows f of ``f_table``."""
        return 3.0 * _pow(1.0 + x0, self.shape_power) / 8.0 * (f[:, 0] + f[:, 1])

    def shape_integral(self, beta: float, cfg=DEFAULT_CONFIG) -> float:
        """f(beta) = 3 (1 + x0)^m f_0(x0) / 8; equals 1 at beta = 0."""
        return self.power_rows(None, [beta], cfg)[0, 2].item()

    def spin_factor(self, zeta, beta: float) -> float:
        """d(zeta; beta): spin-flip suppression x0 for zeta = +1, else 1."""
        self.check(beta, zeta=zeta)
        return self.x0(beta) if self._swap(zeta) else 1.0

    def power_rows(self, zeta, betas, cfg=DEFAULT_CONFIG):
        """The (n, 3) array of beta, W_0 and f(beta)."""
        num, den = self.power_const
        beta, (_, _, x0, _), f, failed = self.f_table((2, 3), betas, cfg, zeta)
        checked(failed)
        shape = self.shape(x0, f)
        with np.errstate(divide="ignore"):  # A(1) = 1/0 = inf
            prefactor = _pow(beta, 6) / ((1.0 - beta) * (1.0 + beta))
        power = num * (x0 if self._swap(zeta) else 1.0) * prefactor / den
        return np.column_stack((beta, power * shape, shape))

    def total_power(self, zeta, beta: float, cfg=DEFAULT_CONFIG) -> PowerResult:
        """W_0 (units Q0; infinite at beta = 1) and the shape factor f(beta),
        row 0 of ``power_rows``."""
        return PowerResult(*self.power_rows(zeta, [beta], cfg)[0, 1:].tolist())


def _pow(base, exponent):
    """base ** exponent at each element of an array, as Python's float **
    takes it, by C's pow: numpy's power loop gives other last bits for about
    1 in 1000 squares and 1 in 20 sixth powers."""
    return np.array([b ** exponent for b in base.tolist()])


def _f_table(values, n, k):
    """The n x k values of a call of ``f`` as an (n, k) array, nan where one
    failed, and per row its first failed value or None."""
    try:
        return np.array(values, dtype=float).reshape(n, k), [None] * n
    except TypeError:  # an error among the values
        rows = [values[i * k:(i + 1) * k] for i in range(n)]
        errors = [next((v for v in row if isinstance(v, Exception)), None) for row in rows]
        table = [math.nan if isinstance(v, Exception) else v for v in values]
        return np.array(table).reshape(n, k), errors

