"""Independent numerical oracles used only by the tests.

The midpoint Riemann sums evaluate the regularized (t-substituted)
integrands written out afresh; the y-form integrands are the original
improper representations, integrated with scipy's adaptive QUADPACK rule,
which handles the inverse-square-root endpoint singularity.
"""

import math

import numpy as np
from scipy.integrate import quad


def midpoint_riemann(f, a, b, n=10**6):
    t = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(f(t)) * (b - a) / n)


def _w(x, t):
    return np.exp(-x * (1.0 - t * t) / (1.0 - x * x * t * t))


# t-substituted integrand factors (prefactor included)

def f2_b_sub(x, n=10**6):
    g = lambda t: (1 - x * t**2) * (1 + x * t**2) ** 2 / (1 - x**2 * t**2) ** 4 * _w(x, t)
    return 2 * (1 + x) * (1 - x) ** 2 * midpoint_riemann(g, 0.0, 1.0, n)


def f3_b_sub(x, n=10**6):
    g = lambda t: (1 - x * t**2) * t**2 / (1 - x**2 * t**2) ** 4 * _w(x, t)
    return 2 * (1 + x) * (1 - x**2) ** 2 * midpoint_riemann(g, 0.0, 1.0, n)


def f2_e_sub(x, n=10**6):
    g = lambda t: (1 - x * t**2) / (1 - x**2 * t**2) ** 3 * _w(x, t)
    return 2 * (1 + x) * (1 - x**2) * midpoint_riemann(g, 0.0, 1.0, n)


def f3_e_sub(x, n=10**6):
    g = lambda t: (1 - x * t**2) * t**2 / (1 - x**2 * t**2) ** 3 * _w(x, t)
    return 2 * (1 + x) * (1 - x**2) * midpoint_riemann(g, 0.0, 1.0, n)


# original y-form representations (improper at y = 1)

def f2_b_yform(x):
    g = lambda y: (1 + x * y) * (1 - x * y) ** 2 / np.sqrt((1 - y) * (1 - x**2 * y)) * np.exp(-x * y)
    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]


def f3_b_yform(x):
    g = lambda y: (1 + x * y) * np.sqrt((1 - y) * (1 - x**2 * y)) * np.exp(-x * y)
    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]


def f2_e_yform(x):
    g = lambda y: (1 + x * y) * np.exp(-x * y) * np.sqrt((1 - x**2 * y) / (1 - y))
    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]


def f3_e_yform(x):
    g = lambda y: (1 + x * y) * np.exp(-x * y) * np.sqrt((1 - y) / (1 - x**2 * y))
    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=300)[0]


def shape_b_oracle(beta, n=10**6):
    """f^b(beta) built from the Riemann-sum integrals."""
    import math
    r = math.sqrt(3.0 - 2.0 * beta**2)
    x0 = (math.sqrt(3.0) - r) / (math.sqrt(3.0) + r)
    return 3.0 * (1.0 + x0) ** 2 / 8.0 * (f2_b_sub(x0, n) + f3_b_sub(x0, n))


def shape_e_oracle(beta, n=10**6):
    """f^e(beta) built from the Riemann-sum integrals."""
    import math
    r = math.sqrt(1.0 - beta**2)
    x0 = (1.0 - r) / (1.0 + r)
    if x0 == 1.0:
        f0 = 2.0 * (2.0 - 3.0 / math.e)
    else:
        f0 = f2_e_sub(x0, n) + f3_e_sub(x0, n)
    return 3.0 * (1.0 + x0) / 8.0 * f0


# RMS widths: the densities up to their normalization, in forms free of
# cancellation as beta -> 1, on 48-point Gauss-Legendre panels graded out
# from pi/2, where the electron's densities narrow to about 1/gamma

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _unnormalized_density(kind, s, zeta, beta, theta):
    c = np.where(theta == math.pi / 2, 0.0, np.cos(theta))
    sin2 = np.sin(theta) ** 2
    if kind == "boson":
        x = 2.0 * beta**2 * sin2 / (math.sqrt(3.0) + np.sqrt(3.0 - 2.0 * beta**2 * sin2)) ** 2
        straight, weight = 1.0 - x, (1.0 + x) ** 3 * np.exp(-x)
    else:
        # with R^2 = 1 - beta^2 and r^2 = 1 - beta^2 sin^2: x = (1 - r)/(1 + r),
        # 1 - x = 2r/(1 + r), 1 - x0 x = 2(R + r)/((1 + R)(1 + r))
        big_r = math.sqrt((1.0 - beta) * (1.0 + beta))
        r = np.sqrt(big_r**2 + beta**2 * c * c)
        x = beta**2 * sin2 / (1.0 + r) ** 2
        straight = 2.0 * (big_r + r) / ((1.0 + big_r) * (1.0 + r))
        weight = (1.0 + x) ** 3 * np.exp(-x) * (1.0 + r) / (2.0 * r)
    bent = (1.0 + x) ** 2 * c * c / straight
    if s in (2, 3):
        phi = straight if (s == 2) == (kind == "boson" or zeta == -1) else bent
    else:
        phi = straight + bent
        if s in (1, -1):
            phi = 0.5 * phi + s * (1.0 + x) * c
    return weight * phi


def rms_width(kind, s, zeta, beta):
    """sqrt(int (theta - pi/2)^2 p_s sin / int p_s sin) over [0, pi], with
    panel edges at pi/2 +- w 4^k (w 4^k < 0.5, w = min(0.1, 1/gamma)) and at
    0.5 and pi - 0.5."""
    w = 0.1 if beta == 1.0 else min(0.1, math.sqrt((1.0 - beta) * (1.0 + beta)))
    inner = []
    while w < 0.5:
        inner.append(w)
        w *= 4.0
    half = math.pi / 2
    edges = np.array([0.0, 0.5, *(half - d for d in reversed(inner)), half,
                      *(half + d for d in inner), math.pi - 0.5, math.pi])
    lo, hi = edges[:-1, None], edges[1:, None]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
    f = 0.5 * (hi - lo) * _GL_W * _unnormalized_density(kind, s, zeta, beta, t) * np.sin(t)
    return math.sqrt(float((f * (t - half) ** 2).sum() / f.sum()))
