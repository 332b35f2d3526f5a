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

``f_values`` evaluates a list of (k, x) pairs of one family, and all their
quadratures run as one ``quad_batch``: each node row of an integrand call
carries its own x and k (f_2 and f_3 rows share the call, their numerators
selected by ``np.where``; an x or k that every pair shares is passed as a
number).  The integrand is elementwise, with x broadcast per row in the
operation order of the one-integral form, so each value has the bits of its
own ``quad_adaptive``.  A failed pair's entry is the error that evaluating
it alone raises, so that callers can raise the first one in their own order.

Electron f_2, f_3 develop a logarithmic boundary layer as x -> 1; close to
that endpoint the known (1 - x) ln(1 - x) expansions are used instead of
quadrature, and at x = 1 the exact limits f_1 = f_2 = f_3 = 2 - 3/e hold.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, checked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_batch
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)

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


def _integrand(kernel, x, k3, t):
    """The substituted f_2/f_3 integrand at nodes t; x and k3 (k = 3) are
    numbers, or columns with one entry per row of t."""
    u = 1.0 - x * x * t * t
    xtt = x * t * t
    num = 1.0 - xtt
    if k3 is True:
        num = num * t * t
    else:
        two = num * (1.0 + xtt) ** 2 if kernel.k2_square else num
        num = two if k3 is False else np.where(k3, num * t * t, two)
    return num / u**kernel.u_power * np.exp(-x * (1.0 - t * t) / u)


def _per_row(values):
    """rows -> a column of values[rows], or the one value all entries share.
    A shared value skips the row gathers and, for k, the np.where of both
    numerators; columns throughout made one-beta f_k calls 10-50% slower."""
    if values.count(values[0]) == len(values):
        return lambda rows: values[0]
    column = np.array(values)
    return lambda rows: column[rows, None]


class _Kernel(NamedTuple):
    f1: Callable       # the elementary f_1
    u_power: int       # p
    k2_square: bool    # c_2 = (1 + x t^2)^2, else 1
    prefactors: tuple  # x -> P_2, x -> P_3
    boundary: tuple | None  # (1 - x) ln(1 - x) coefficients of f_2, f_3 near x = 1


# the boson has no boundary form, and its quadrature form stops short of x = 1
BOSON_KERNEL = _Kernel(f1_b, 4, True, (lambda x: 2.0 * (1.0 + x) * (1.0 - x) ** 2,
                                       lambda x: 2.0 * (1.0 + x) * (1.0 - x * x) ** 2), None)
ELECTRON_KERNEL = _Kernel(f1_e, 3, False, (lambda x: 2.0 * (1.0 + x) * (1.0 - x * x),) * 2,
                          (-4.0 / math.e, 2.0 / math.e))


def f_values(kernel, ks, xs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """f_k(x) of the family of ``kernel`` for each pair of ``ks`` (1, 2 or 3)
    and ``xs`` (in [0, 1]): per pair the float, or the error that evaluating
    it alone raises (a DomainError for a k or an x outside those ranges).
    The quadratures of all pairs run as one batch."""
    values, quads = [], []
    for k, x in zip(ks, xs):
        if k not in (1, 2, 3):
            values.append(DomainError(f"integral index must be 1, 2 or 3, got {k}"))
        elif not 0.0 <= x <= 1.0:
            values.append(DomainError(f"argument must lie in [0, 1], got {x}"))
        elif k == 1:
            values.append(kernel.f1(x))
        elif x == 1.0:
            values.append(_F_AT_ONE_E if kernel.boundary is not None else DomainError(
                "boson f_2, f_3 are evaluated by quadrature only for x < 1"))
        elif kernel.boundary is not None and 1.0 - x < BOUNDARY_EPS:
            values.append(_F_AT_ONE_E + kernel.boundary[k - 2] * ((1.0 - x) * math.log(1.0 - x)))
        else:
            quads.append(len(values))
            values.append(None)
    if quads:
        x, k3 = _per_row([xs[i] for i in quads]), _per_row([ks[i] == 3 for i in quads])
        results = quad_batch(lambda rows, t: _integrand(kernel, x(rows), k3(rows), t),
                             [(0.0, 1.0)] * len(quads), cfg)
        for i, value in zip(quads, results):
            values[i] = value if isinstance(value, Exception) else (
                kernel.prefactors[ks[i] - 2](xs[i]) * value)
    return values


def _f(kernel, k, x, cfg):
    """f_k(x) of the family of ``kernel``."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"integral index must be 0, 1, 2 or 3, got {k}")
    ks = (2, 3) if k == 0 else (k,)
    values = checked(f_values(kernel, ks, (x,) * len(ks), cfg))
    return values[0] + values[1] if k == 0 else values[0]


def f_b(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Boson integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(BOSON_KERNEL, k, x, cfg)


def f_e(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(ELECTRON_KERNEL, k, x, cfg)
