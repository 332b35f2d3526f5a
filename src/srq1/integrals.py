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

``f_values`` evaluates a list of (k, x) pairs of one family, and the
quadratures of all its t-form pairs run as one ``quad_batch``: each node row
of an integrand call carries its own x and k (f_2 and f_3 rows share the
call, their numerators selected by ``np.where``; an x or k that every pair
shares is passed as a number).  The integrand is elementwise, with x
broadcast per row in the operation order of the one-integral form, so each
value has the bits of its own ``quad_adaptive``.  A failed pair's entry is
the error that evaluating it alone raises, so that callers can raise the
first one in their own order.

Electron f_2, f_3 develop a boundary layer as x -> 1: the t-form integrand
peaks in a layer of width about 1 - x at t = 1, and its quadrature bisects
ever more (22 integrand calls per f_2, f_3 pair at 1 - x = 1e-6).  Above
``S_FORM_X`` they are taken in the s-form of the original y-form integrals
instead, y = 1 - s^2, with no prefactor:

    f_2 = int_0^1 w sqrt(q) ds,   f_3 = int_0^1 w s^2 / sqrt(q) ds,
    w = 2 (1 + x y) e^{-x y},     q = (1 - x)(1 + x) + x^2 s^2,

whose only structure is the layer of width w0 = sqrt((1 - x)(1 + x))/x at
s = 0.  [0, 1] is cut at s = w0 8^k while below 1 (``_s_pieces``), each
piece is a member of one ``quad_batch`` of all s-form pairs, and a pair's
value is the sum of its pieces from s = 0 up, its error that of its first
failing piece.  One to three lockstep calls then settle every pair from
1 - x = 0.1 down to 1e-15, to about 4e-15 relative (the t-form's error
grows to 7e-12 at 1 - x = 1e-6).  The switch sits at x = 0.9
(gamma about 19) rather than lower because the electron ``maxima`` and
``eff_angle`` outputs that the benchmark's digests pin read f_2, f_3 only at
x <= 0.818, where the t-form keeps their bits.  At x = 1 the exact limits
f_1 = f_2 = f_3 = 2 - 3/e hold.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, checked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_batch
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)

# below this x the elementary f_1 closed forms lose digits to cancellation:
# up to _EXPM1_X they are written with expm1, and below _SERIES_X as series
_SERIES_X = 1e-4
_EXPM1_X = 0.25
# above this x the electron's f_2, f_3 are taken in the s-form
S_FORM_X = 0.9

_F_AT_ONE_E = 2.0 - 3.0 / math.e


def f1_b(x: float) -> float:
    """Elementary member of the boson family, ((1+x)^2 e^-x - 1)/x."""
    if x < _SERIES_X:
        return 1.0 + x * (-0.5 + x * (-1.0 / 6.0 + x * 5.0 / 24.0))
    if x < _EXPM1_X:
        return (math.expm1(-x) + x * (2.0 + x) * math.exp(-x)) / x
    return ((1.0 + x) ** 2 * math.exp(-x) - 1.0) / x


def f1_e(x: float) -> float:
    """Elementary member of the electron family, (2 - (2+x) e^-x)/x."""
    if x < _SERIES_X:
        return 1.0 + x * x * (-1.0 / 6.0 + x / 12.0)
    if x < _EXPM1_X:
        return (-2.0 * math.expm1(-x) - x * math.exp(-x)) / x
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


def _s_integrand(x, om, k3, s):
    """The electron's s-form f_2/f_3 integrand at nodes s, with om =
    (1 - x)(1 + x); x, om and k3 (k = 3) are numbers, or columns with one
    entry per row of s."""
    ss = s * s
    xy = x * (1.0 - ss)
    w = 2.0 * (1.0 + xy) * np.exp(-xy)
    root = np.sqrt(om + x * x * ss)
    if k3 is True:
        return w * ss / root
    if k3 is False:
        return w * root
    return np.where(k3, w * ss / root, w * root)


def _s_pieces(x):
    """The (lo, hi) pieces of [0, 1] that an s-form integral runs on, from 0
    up: cuts at s = w0 8^k while below 1, graded out of the boundary layer of
    width w0 = sqrt((1 - x)(1 + x))/x at s = 0."""
    w = math.sqrt((1.0 - x) * (1.0 + x)) / x
    edges = [0.0]
    while w < 1.0:
        edges.append(w)
        w *= 8.0
    edges.append(1.0)
    return list(zip(edges[:-1], edges[1:]))


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
    s_form: bool       # f_2, f_3 in the s-form above S_FORM_X, and 2 - 3/e at x = 1


# the boson's quadrature form stops short of x = 1
BOSON_KERNEL = _Kernel(f1_b, 4, True, (lambda x: 2.0 * (1.0 + x) * (1.0 - x) ** 2,
                                       lambda x: 2.0 * (1.0 + x) * (1.0 - x * x) ** 2), False)
ELECTRON_KERNEL = _Kernel(f1_e, 3, False, (lambda x: 2.0 * (1.0 + x) * (1.0 - x * x),) * 2,
                          True)


def _t_form(kernel, ks, xs, cfg):
    """f_k(x) of each pair in the t-form, as one batch."""
    x, k3 = _per_row(xs), _per_row([k == 3 for k in ks])
    results = quad_batch(lambda rows, t: _integrand(kernel, x(rows), k3(rows), t),
                         [(0.0, 1.0)] * len(xs), cfg)
    return [value if isinstance(value, Exception) else kernel.prefactors[k - 2](xr) * value
            for k, xr, value in zip(ks, xs, results)]


def _s_form(ks, xs, cfg):
    """The electron's f_k(x) of each pair in the s-form: the pieces of all
    pairs as one batch, each pair's added from s = 0 up."""
    pieces = [_s_pieces(x) for x in xs]

    def per_piece(per_pair):
        return _per_row([v for v, p in zip(per_pair, pieces) for _ in p])

    x, om = per_piece(xs), per_piece([(1.0 - xr) * (1.0 + xr) for xr in xs])
    k3 = per_piece([k == 3 for k in ks])
    results = iter(quad_batch(lambda rows, s: _s_integrand(x(rows), om(rows), k3(rows), s),
                              [piece for p in pieces for piece in p], cfg))
    values = []
    for p in pieces:
        parts = [next(results) for _ in p]
        error = next((v for v in parts if isinstance(v, Exception)), None)
        values.append(sum(parts) if error is None else error)
    return values


def f_values(kernel, ks, xs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """f_k(x) of the family of ``kernel`` for each pair of ``ks`` (1, 2 or 3)
    and ``xs`` (in [0, 1]): per pair the float, or the error that evaluating
    it alone raises (a DomainError for a k or an x outside those ranges).
    The quadratures of all pairs of one form run as one batch."""
    values, forms = [], {False: [], True: []}
    for k, x in zip(ks, xs):
        if k not in (1, 2, 3):
            values.append(DomainError(f"integral index must be 1, 2 or 3, got {k}"))
        elif not 0.0 <= x <= 1.0:
            values.append(DomainError(f"argument must lie in [0, 1], got {x}"))
        elif k == 1:
            values.append(kernel.f1(x))
        elif x == 1.0:
            values.append(_F_AT_ONE_E if kernel.s_form else DomainError(
                "boson f_2, f_3 are evaluated by quadrature only for x < 1"))
        else:
            forms[kernel.s_form and x > S_FORM_X].append(len(values))
            values.append(None)
    for s_form, indices in forms.items():
        if indices:
            pairs = [ks[i] for i in indices], [xs[i] for i in indices]
            done = _s_form(*pairs, cfg) if s_form else _t_form(kernel, *pairs, cfg)
            for i, value in zip(indices, done):
                values[i] = value
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
