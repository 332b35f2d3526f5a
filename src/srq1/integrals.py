"""Parametric integrals f_k(x) entering the n = 1 radiation formulas.

Two families, one per particle kind.  f_1 is elementary for both; f_2 and
f_3 are one-dimensional integrals evaluated in a regularized form obtained
by the substitution y = (1 - t^2)/(1 - x^2 t^2), whose integrand stays
finite for |x| < 1 (the original y-form integrands are improper at y = 1):
f_k = P_k(x) int_0^1 (1 - x t^2) c_k exp(-x (1 - t^2)/u) / u^p dt, with
u = 1 - x^2 t^2, c_3 = t^2 and

              p   c_2             P_2                  P_3
    boson     4   (1 + x t^2)^2   2 (1 + x)(1 - x)^2   2 (1 + x)(1 - x^2)^2
    electron  3   1               2 (1 + x)(1 - x^2)   2 (1 + x)(1 - x^2)

One evaluator and one integrand serve both families, through a kernel
record per family; the integrand forms u and x t^2 once per node and reuses
them in the numerator and in the weight.  f_0 = f_2 + f_3.

Electron f_2, f_3 develop a logarithmic boundary layer as x -> 1; close to
that endpoint the known (1 - x) ln(1 - x) expansions are used instead of
quadrature, and at x = 1 the exact limits f_1 = f_2 = f_3 = 2 - 3/e hold.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_adaptive

# below this x the elementary f_1 closed forms lose digits to cancellation
_SERIES_X = 1e-4
# electron boundary switch: use the (1-x)ln(1-x) expansion when 1-x < this
BOUNDARY_EPS = 1e-6

_F_AT_ONE_E = 2.0 - 3.0 / math.e


def f1_b(x: float) -> float:
    """Elementary member of the boson family, ((1+x)^2 e^-x - 1)/x."""
    if x < _SERIES_X:
        return 1.0 + x * (-0.5 + x * (-1.0 / 6.0 + x * 5.0 / 24.0))
    return ((1.0 + x) ** 2 * math.exp(-x) - 1.0) / x


def f1_e(x: float) -> float:
    """Elementary member of the electron family, (2 - (2+x) e^-x)/x."""
    if x < _SERIES_X:
        return 1.0 + x * x * (-1.0 / 6.0 + x / 12.0)
    return (2.0 - (2.0 + x) * math.exp(-x)) / x


def _integrand(fam, k, x):
    """The substituted f_2 or f_3 integrand of a family's kernel record."""
    power, square = fam.u_power, k == 2 and fam.k2_square

    def g(t):
        u = 1.0 - x * x * t * t
        xtt = x * t * t
        num = 1.0 - xtt
        if k == 3:
            num = num * t * t
        elif square:
            num = num * (1.0 + xtt) ** 2
        return num / u**power * np.exp(-x * (1.0 - t * t) / u)

    return g


class _Kernel(NamedTuple):
    f1: Callable       # the elementary f_1
    u_power: int       # p
    k2_square: bool    # c_2 = (1 + x t^2)^2, else 1
    prefactors: tuple  # x -> P_2, x -> P_3
    boundary: tuple | None  # (1 - x) ln(1 - x) coefficients of f_2, f_3 near x = 1


# the boson has no boundary form, and its quadrature form stops short of x = 1
_BOSON = _Kernel(f1_b, 4, True, (lambda x: 2.0 * (1.0 + x) * (1.0 - x) ** 2,
                                 lambda x: 2.0 * (1.0 + x) * (1.0 - x * x) ** 2), None)
_ELECTRON = _Kernel(f1_e, 3, False, (lambda x: 2.0 * (1.0 + x) * (1.0 - x * x),) * 2,
                    (-4.0 / math.e, 2.0 / math.e))


def _f(kernel, k, x, cfg):
    """f_k(x) of the family of ``kernel``."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"integral index must be 0, 1, 2 or 3, got {k}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {x}")
    if k == 0:
        return _f(kernel, 2, x, cfg) + _f(kernel, 3, x, cfg)
    if k == 1:
        return kernel.f1(x)
    if x == 1.0:
        if kernel.boundary is None:
            raise DomainError("boson f_2, f_3 are evaluated by quadrature only for x < 1")
        return _F_AT_ONE_E
    if kernel.boundary is not None and 1.0 - x < BOUNDARY_EPS:
        return _F_AT_ONE_E + kernel.boundary[k - 2] * ((1.0 - x) * math.log(1.0 - x))
    return kernel.prefactors[k - 2](x) * quad_adaptive(_integrand(kernel, k, x), 0.0, 1.0, cfg)


def f_b(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Boson integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(_BOSON, k, x, cfg)


def f_e(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(_ELECTRON, k, x, cfg)
