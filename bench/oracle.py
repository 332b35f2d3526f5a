"""Reference values for the benchmark checks, computed apart from srq1.

Nothing here imports srq1.  Every formula is written afresh from the
definitions in srq1's documentation:

* deformation maps  x0(beta) = (gamma - 1)/(gamma + 1)  (electron) and
  xbar0(beta) = (sqrt3 - sqrt(3 - 2 beta^2))/(sqrt3 + sqrt(3 - 2 beta^2))
  (boson), with x, xbar the same maps of beta^2 sin^2(theta);
* the polarization shapes phi_s and the densities
  p_s ~ (1 + x)^3 e^-x phi_s / [(1 - x)] / [(1 + x0)^2 f_0(x0)];
* the beta = 1 electron limit profile Theta/(2e - 3);
* the photon frequency  omega = r gamma beta^2 / (1 + sqrt(1 - r beta^2 sin^2))
  with r = 2/3 (boson) and 1 (electron);
* the integrals f_k from their original y-form representations

      f_2^e = int (1 + xy) e^-xy sqrt((1 - x^2 y)/(1 - y)) dy
      f_3^e = int (1 + xy) e^-xy sqrt((1 - y)/(1 - x^2 y)) dy
      f_2^b = int (1 + xy)(1 - xy)^2 e^-xy / sqrt((1 - y)(1 - x^2 y)) dy
      f_3^b = int (1 + xy) e^-xy sqrt((1 - y)(1 - x^2 y)) dy

  over y in [0, 1], with f_1 elementary and f_0 = f_2 + f_3.

The y-form integrands are improper at y = 1; the substitution y = 1 - s^2
removes the inverse square root.  Close to x = 1 the integrands have a
boundary layer of width sqrt(1 - x^2) in s, so there the integrals are done
with mpmath at 30 digits on panels graded towards that layer, and 1 - x^2 is
carried exactly from the float beta the program received.  Elsewhere scipy's
QUADPACK rule is used.

Wherever the program's formulas cancel (1 - x, 1 - x0 x, sqrt3 - r), the
forms here are rearranged so they do not, which keeps the reference accurate
to a few ulps up to beta = 1 - 1e-15.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

mp.mp.dps = 30

SQRT3 = math.sqrt(3.0)
TWO_E_MINUS_3 = 2.0 * math.e - 3.0
# electron: below this 1 - x0 the integrals are taken with mpmath
MP_BELOW = 1e-3


# ---------------------------------------------------------------- kinematics

def _mp(beta: float):
    return mp.mpf(beta)  # exact: a double converts without rounding


def electron_x0_mp(beta: float):
    """x0 and 1 - x0 at 30 digits, from 1 - beta^2 = (1 - beta)(1 + beta)."""
    b = _mp(beta)
    big_r = mp.sqrt((1 - b) * (1 + b))
    return b * b / (1 + big_r) ** 2, 2 * big_r / (1 + big_r)


def boson_xbar0_mp(beta: float):
    b = _mp(beta)
    r = mp.sqrt(3 - 2 * b * b)
    return 2 * b * b / (mp.sqrt(3) + r) ** 2


def electron_x0(beta: float) -> float:
    return float(electron_x0_mp(beta)[0])


def gamma(beta: float) -> float:
    if beta == 1.0:
        return math.inf
    b = _mp(beta)
    return float(1 / mp.sqrt((1 - b) * (1 + b)))


def frequency(kind: str, beta: float, theta: np.ndarray) -> np.ndarray:
    """omega(beta, theta) for n = nu = 1, units m0 c^2 / hbar."""
    ratio = 2.0 / 3.0 if kind == "boson" else 1.0
    s = np.sin(theta)
    g = gamma(beta)
    if math.isinf(g):
        return np.full_like(theta, math.inf)
    return ratio * g * beta * beta / (1.0 + np.sqrt(1.0 - ratio * beta * beta * s * s))


# ---------------------------------------------------------------- integrals

def _s_integrand(kind, k, x, om, exp, sqrt):
    # y = 1 - s^2, dy = 2 s ds; 1 - x^2 y = om + x^2 s^2 with om = 1 - x^2
    def g(s):
        y = 1 - s * s
        w = (1 + x * y) * exp(-x * y) * 2
        q = om + x * x * s * s
        if kind == "e" and k == 2:
            return w * sqrt(q)
        if kind == "e" and k == 3:
            return w * s * s / sqrt(q)
        if kind == "b" and k == 2:
            return w * (1 - x * y) ** 2 / sqrt(q)
        return w * s * s * sqrt(q)

    return g


def _f1(kind, x):
    if x == 0:
        return mp.mpf(1)
    if kind == "e":
        return (2 - (2 + x) * mp.exp(-x)) / x
    return ((1 + x) ** 2 * mp.exp(-x) - 1) / x


class Integrals:
    """f_k(x) of one family at one x, computed once; x given at 30 digits
    together with 1 - x (so that 1 - x^2 keeps its digits near x = 1)."""

    def __init__(self, kind: str, x, one_minus_x):
        self.f1 = _f1(kind, x)
        if kind == "e" and one_minus_x == 0:
            self.f2 = self.f3 = 2 - 3 / mp.e
        elif kind == "e" and one_minus_x < MP_BELOW:
            om = one_minus_x * (1 + x)
            layer = mp.sqrt(om) / x
            pts = [mp.mpf(0)]
            edge = layer / 16
            while edge < 1:
                pts.append(edge)
                edge *= 4
            pts.append(mp.mpf(1))
            self.f2 = mp.quad(_s_integrand(kind, 2, x, om, mp.exp, mp.sqrt), pts)
            self.f3 = mp.quad(_s_integrand(kind, 3, x, om, mp.exp, mp.sqrt), pts)
        else:
            xf = float(x)
            om = float(one_minus_x * (1 + x))
            pts = [math.sqrt(om) / xf] if 0 < xf and math.sqrt(om) / xf < 1 else None
            vals = []
            for k in (2, 3):
                g = _s_integrand(kind, k, xf, om, math.exp, math.sqrt)
                vals.append(mp.mpf(quad(g, 0.0, 1.0, points=pts, epsabs=0.0,
                                        epsrel=1e-13, limit=200)[0]))
            self.f2, self.f3 = vals
        self.f0 = self.f2 + self.f3


# ---------------------------------------------------------------- per-beta observables

class Electron:
    """Electron observables at one beta (float, exactly as the program got it)."""

    def __init__(self, beta: float):
        self.beta = beta
        x0, one_minus = electron_x0_mp(beta)
        self.x0_mp, self.one_minus_x0 = x0, one_minus
        self.x0 = float(x0)
        self.f = Integrals("e", x0, one_minus)

    def shape(self):
        return 3 * (1 + self.x0_mp) * self.f.f0 / 8

    def power(self, zeta):
        if self.beta == 1.0:
            return mp.inf
        b = _mp(self.beta)
        a = b ** 6 / ((1 - b) * (1 + b))
        d = self.x0_mp if zeta == 1 else 1
        return d * a / 6 * self.shape()

    def q_halfplane(self, s, zeta):
        f = self.f
        if s == 0:
            return mp.mpf(1)
        if s in (1, -1):
            return mp.mpf(0.5) + s * f.f1 / f.f0
        # phi_2 and phi_3 swap under zeta -> -zeta
        straight, bent = f.f2 / f.f0, f.f3 / f.f0
        if (s == 2) == (zeta == -1):
            return straight
        return bent


class Boson:
    def __init__(self, beta: float):
        self.beta = beta
        self.x0_mp = boson_xbar0_mp(beta)
        self.x0 = float(self.x0_mp)
        self.f = Integrals("b", self.x0_mp, 1 - self.x0_mp)

    def shape(self):
        return 3 * (1 + self.x0_mp) ** 2 * self.f.f0 / 8

    def power(self):
        if self.beta == 1.0:
            return mp.inf
        b = _mp(self.beta)
        return 4 * b ** 6 / ((1 - b) * (1 + b)) / 81 * self.shape()

    def q_halfplane(self, s):
        f = self.f
        if s == 0:
            return mp.mpf(1)
        if s in (1, -1):
            return mp.mpf(0.5) + s * f.f1 / f.f0
        return (f.f2 if s == 2 else f.f3) / f.f0


def halfplane_scale(particle, s: int):
    """Scale of the terms of q_s: q_g = 1/2 + g f_1/f_0 cancels for one sign
    of g, so the circular fractions are held to 1/2 + f_1/f_0."""
    f = particle.f
    if s in (1, -1):
        return mp.mpf(0.5) + abs(f.f1 / f.f0)
    return 0


def ratio(zeta: int, electron: Electron, boson: Boson):
    k = mp.mpf(27) / 8 * electron.shape() / boson.shape()
    return electron.x0_mp * k if zeta == 1 else k


# ---------------------------------------------------------------- angular shapes
#
# phi_g = phi_0/2 + g (1 + x) cos = (S + g (1 + x) cos)^2 / (2 S), with S the
# straight shape.  Where g cos < 0 the bracket cancels; it is computed there
# from a rearranged form (``gap``).  For s = +-1 the same-sign value
# phi_0/2 + (1 + x)|cos| is returned too, as the magnitude of the terms that
# a direct evaluation sums; the other components return 0 there.


def _one_minus_abs_cos(theta):
    # 1 - |cos| = 2 sin^2(theta'/2), theta' = min(theta, pi - theta)
    t = np.minimum(theta, math.pi - theta)
    return 2.0 * np.sin(0.5 * t) ** 2


def _shapes(s, zeta, straight, bent, x, c, gap):
    """(phi_s, magnitude of its terms where they cancel, else 0)."""
    if s in (2, 3):
        return (straight if (s == 2) == (zeta == -1) else bent), 0.0
    phi0 = straight + bent
    if s == 0:
        return phi0, 0.0
    same = straight + (1.0 + x) * np.abs(c)
    d = np.where(s * c >= 0.0, same, gap)
    return d * d / (2.0 * straight), same * same / (2.0 * straight)


def _cos(theta):
    # the double nearest pi/2 stands for pi/2 itself, as in srq1's docs
    return np.where(theta == math.pi / 2, 0.0, np.cos(theta))


def _boson_geometry(beta, theta):
    c = _cos(theta)
    a = np.abs(c)
    u = beta * beta * np.sin(theta) ** 2
    r = np.sqrt(3.0 - 2.0 * u)
    xb = 2.0 * u / (SQRT3 + r) ** 2
    # straight - (1 + xb)|cos| = (1 - a) - xb (1 + a)
    gap = _one_minus_abs_cos(theta) * (1.0 - 2.0 * beta * beta * (1.0 + a) ** 2
                                       / (SQRT3 + r) ** 2)
    return xb, c, gap


def _electron_geometry(beta, theta):
    """x, 1 - x, 1 - x0 x and the circular gap, without cancellation."""
    one_minus_b2 = (1.0 - beta) * (1.0 + beta)
    big_r = math.sqrt(one_minus_b2)
    c = _cos(theta)
    a = np.abs(c)
    r = np.sqrt(one_minus_b2 + beta * beta * c * c)
    u = beta * beta * np.sin(theta) ** 2
    x = u / (1.0 + r) ** 2
    one_minus_x = 2.0 * r / (1.0 + r)
    one_minus_x0x = 2.0 * (big_r + r) / ((1.0 + big_r) * (1.0 + r))
    # (1 - x0 x) - (1 + x)|cos|, using r - a = R^2 (1 - a^2) / (r + a)
    with np.errstate(invalid="ignore", divide="ignore"):
        tail = np.where(r + a > 0.0, big_r * (1.0 + a) / (r + a), 0.0)
    gap = (2.0 * big_r * _one_minus_abs_cos(theta) / ((1.0 + r) * (1.0 + big_r))
           * (1.0 + tail))
    return x, one_minus_x, one_minus_x0x, c, gap


def boson_phi(s, beta, theta):
    xb, c, gap = _boson_geometry(beta, theta)
    straight = 1.0 - xb
    bent = (1.0 + xb) ** 2 * c * c / straight
    phi, scale = _shapes(s, -1, straight, bent, xb, c, gap)
    return phi, scale, xb


def boson_density_unnormalized(s, beta, theta, with_scale=False):
    phi, scale, xb = boson_phi(s, beta, theta)
    w = (1.0 + xb) ** 3 * np.exp(-xb)
    return (w * phi, w * scale) if with_scale else w * phi


def boson_density(s, boson: Boson, theta):
    """(p_s, magnitude of cancelling terms) on a theta grid."""
    norm = float((1 + boson.x0_mp) ** 2 * boson.f.f0)
    p, scale = boson_density_unnormalized(s, boson.beta, theta, with_scale=True)
    return p / norm, scale / norm


def boson_q_local(s, beta, theta):
    phi, scale, _ = boson_phi(s, beta, theta)
    phi0, _, _ = boson_phi(0, beta, theta)
    return phi / phi0, scale / phi0


def electron_phi(s, zeta, beta, theta):
    x, one_minus_x, one_minus_x0x, c, gap = _electron_geometry(beta, theta)
    straight = one_minus_x0x
    with np.errstate(invalid="ignore", divide="ignore"):
        bent = (1.0 + x) ** 2 * c * c / straight
        phi, scale = _shapes(s, zeta, straight, bent, x, c, gap)
    return phi, scale, x, one_minus_x


def electron_density_unnormalized(s, zeta, beta, theta, with_scale=False):
    phi, scale, x, one_minus_x = electron_phi(s, zeta, beta, theta)
    w = (1.0 + x) ** 3 * np.exp(-x) / one_minus_x
    return (w * phi, w * scale) if with_scale else w * phi


def limit_density(s, theta):
    """beta -> 1 electron profile at fixed theta; at theta = pi/2 the
    circular components take the limit-value convention Theta/(2e - 3).
    Returns (p_bar, magnitude of cancelling terms)."""
    c = _cos(theta)
    a = np.abs(c)
    base = np.exp(2.0 * a / (1.0 + a)) / (1.0 + a) ** 3 / TWO_E_MINUS_3
    if s == 0:
        return 2.0 * base, 0.0
    if s in (2, 3):
        return base, 0.0
    sign = np.where(a == 0.0, 0.0, np.sign(c))
    return base * (1.0 + s * sign), 2.0 * base


def limit_density_at_half_pi(s, zeta):
    """lim beta -> 1 of the fixed-beta density at theta = pi/2.

    There x = x0, so p_2(-1) = (1 + x0)^2 e^-x0 / f_0(x0) -> 4 e^-1 / (2(2 - 3/e))
    = 2/(2e - 3), the bent shape vanishes with cos(theta), and the circular
    components share phi_0/2."""
    full = 2.0 / TWO_E_MINUS_3
    if s == 0:
        return full
    if s in (1, -1):
        return full / 2.0
    return full if (s == 2) == (zeta == -1) else 0.0


def electron_density(s, zeta, electron: Electron, theta):
    """(p_s, magnitude of cancelling terms) on a theta grid."""
    if electron.beta == 1.0:
        p, scale = limit_density(s, theta)
        at = limit_density_at_half_pi(s, zeta)
        half = theta == math.pi / 2
        return np.where(half, at, p), np.where(half, 0.0, scale)
    norm = float((1 + electron.x0_mp) ** 2 * electron.f.f0)
    p, scale = electron_density_unnormalized(s, zeta, electron.beta, theta,
                                             with_scale=True)
    return p / norm, scale / norm


def electron_q_local(s, zeta, beta, theta):
    phi, scale, _, _ = electron_phi(s, zeta, beta, theta)
    phi0, _, _, _ = electron_phi(0, zeta, beta, theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        return phi / phi0, scale / phi0


# ---------------------------------------------------------------- widths and maxima

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _graded_panels(width):
    """Panel edges on [0, pi], graded geometrically out from pi/2."""
    inner = []
    h = width
    while h < 0.5:
        inner.append(h)
        h *= 4.0
    half = math.pi / 2
    return np.array([0.0, 0.5] + [half - d for d in reversed(inner)] + [half]
                    + [half + d for d in inner] + [math.pi - 0.5, math.pi])


def _unnormalized(kind, s, zeta, beta, theta):
    if kind == "boson":
        return boson_density_unnormalized(s, beta, theta)
    return electron_density_unnormalized(s, zeta, beta, theta)


def rms_width(kind, s, zeta, beta):
    """sqrt(int (theta - pi/2)^2 p sin / int p sin) over [0, pi].

    The electron densities carry a structure of width ~1/gamma at pi/2, so
    the panels are graded out from there; 48-point Gauss-Legendre on each."""
    width = min(0.1, 1.0 / gamma(beta)) if beta < 1.0 else 0.1
    edges = _graded_panels(width)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
    w = 0.5 * (hi - lo) * _GL_W
    f = w * _unnormalized(kind, s, zeta, beta, t) * np.sin(t)
    return math.sqrt(float((f * (t - math.pi / 2) ** 2).sum() / f.sum()))


def density(kind, s, zeta, beta, theta, cache):
    """Normalized p_s on a theta grid, with the per-beta integrals cached."""
    if kind == "boson":
        return boson_density(s, cache.boson(beta), theta)
    return electron_density(s, zeta, cache.electron(beta), theta)


class Cache:
    """Per-beta reference objects, computed once per distinct beta."""

    def __init__(self):
        self._e, self._b = {}, {}

    def electron(self, beta) -> Electron:
        if beta not in self._e:
            self._e[beta] = Electron(beta)
        return self._e[beta]

    def boson(self, beta) -> Boson:
        if beta not in self._b:
            self._b[beta] = Boson(beta)
        return self._b[beta]
