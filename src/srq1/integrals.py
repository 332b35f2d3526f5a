"""Parametric integrals f_k(x) entering the n = 1 radiation formulas.

Two families, one per particle kind.  f_1 is elementary for both, written
with expm1, and as a series below x = 1e-4.  f_2 and f_3 are y-form
integrals, y = 1 - s^2,

    f = int_0^1 (1 + x y) e^{-x y} N(x, y) (1 - y)^{-1/2} dy

              f_2                               f_3
    boson     (1 - x y)^2 (1 - x^2 y)^{-1/2}    (1 - y) (1 - x^2 y)^{1/2}
    electron  (1 - x^2 y)^{1/2}                 (1 - y) (1 - x^2 y)^{-1/2}

f_0 = f_2 + f_3.  At x = 1 the electron's exact limits f_1 = f_2 = f_3 =
2 - 3/e hold; the boson's x stays below 2 - sqrt3, and its f_2, f_3 are
refused at x = 1.

Up to x = 1/sqrt2 (``SERIES_X``, which holds every boson x and the
electron's up to beta = 0.985) f_2 and f_3 are power series.  Expanded in x,
the x^n term of the integrand is a polynomial in y of degree at most n (one
more with the (1 - y) of f_3), and y^j integrates against (1 - y)^{-1/2} to
B(j + 1, 1/2) = 2^{2j+1} (j!)^2 / (2j + 1)!, so f = sum c_n x^n with rational
c_n, convergent for |x| < 1.  ``series_coefficients`` holds them as doubles.
The first N terms are summed, N = 89 for the boson and 91 for the electron:
the first ``HEAD`` of them in numpy's extended precision (x87's 64-bit
significand on x86-64), with c_n to 106 bits, the rest in doubles from the
smallest term up, so that f_k is correctly rounded at all but rare x.  Its
error bound is the tail, (|c_N| x^N + |c_{N+1}| x^{N+1}) / (1 - x^2) (each
parity of |c_n| decreases from N on), plus the rounding of the sum, N eps
sum |c_m x^m| (Higham, 2002, ch. 5).  A tolerance below the bound gives that
pair a ConvergenceError with the bound; ``max_depth`` plays no part.  The
series pairs of a call run together, ``_BLOCK`` at a time, as (terms,
pairs) arrays: every step is elementwise or a sum down a column, so each
value has the bits of its one-pair call.

Above 1/sqrt2 f_2 and f_3 are taken in the s-form, on [0, 1] with no
prefactor:

    w = 2 (1 + x y) e^{-x y},   q = (1 - x)(1 + x) + x^2 s^2,

              f_2                          f_3
    boson     int w (1 - x y)^2 / sqrt(q)  int w s^2 sqrt(q)
    electron  int w sqrt(q)                int w s^2 / sqrt(q)

One integrand serves both families, through a kernel record per family that
holds its f_1, its series and which numerators it takes; it forms w and
sqrt(q) once per node.  The boson's s-form serves the public ``f_b`` only:
the particle's x never needs it.  The integrands' only structure is a layer
of width w0 = sqrt((1 - x)(1 + x))/x < 1 at s = 0, which narrows as x -> 1.
[0, 1] is cut at s = w0 8^k while below 1 (``_s_pieces``): two pieces up to
x = 1/sqrt(1 + 1/64), and one more per factor 8 that w0 shrinks.  A pair's
value is the sum of its pieces from s = 0 up, its error that of its first
failing piece.  One to three lockstep rounds settle an f_2, f_3 pair, within
1.3e-15 relative of a 30-digit oracle up to 1 - x = 1e-15.

``f_values`` evaluates a list of (k, x) pairs of one family: its series
pairs as one array evaluation, and the pieces of its other f_2, f_3 pairs as
one ``quad_batch``: each node row of an integrand call carries its own x and
k (f_2 and f_3 rows share the call, their numerators selected by
``np.where``; an x or k that every row shares is passed as a number).  The
integrand is elementwise, with x broadcast per row in the operation order of
the one-integral form, so each value has the bits of its own
``quad_adaptive`` calls.  A failed pair's entry is the error that evaluating
it alone raises, so that callers can raise the first one in their own order.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import series_coefficients as coefficients
from .errors import ConvergenceError, DomainError, checked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_batch
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)

# below this x the elementary f_1 forms lose digits to cancellation, and
# are taken as series
_F1_SERIES_X = 1e-4

_F_AT_ONE_E = 2.0 - 3.0 / math.e

# the largest x with sqrt((1 - x)(1 + x)) >= x, that is w0 >= 1: up to here
# f_2 and f_3 are power series
SERIES_X = 1.0 / math.sqrt(2.0)
# the leading terms of a series, summed in extended precision
HEAD = 8
# eps, the spacing of doubles at 1
_EPS = 2.0 ** -52
# the series pairs evaluated at a time: their (terms, pairs) arrays of 96
# terms stay below 128 KiB, above which glibc's malloc maps fresh pages at
# every call
_BLOCK = 160


def f1_b(x: float) -> float:
    """Elementary member of the boson family, ((1+x)^2 e^-x - 1)/x."""
    if x < _F1_SERIES_X:
        return 1.0 + x * (-0.5 + x * (-1.0 / 6.0 + x * 5.0 / 24.0))
    return (math.expm1(-x) + x * (2.0 + x) * math.exp(-x)) / x


def f1_e(x: float) -> float:
    """Elementary member of the electron family, (2 - (2+x) e^-x)/x."""
    if x < _F1_SERIES_X:
        return 1.0 + x * x * (-1.0 / 6.0 + x / 12.0)
    return (-2.0 * math.expm1(-x) - x * math.exp(-x)) / x


def _s_integrand(electron, x, om, k3, s):
    """The f_2/f_3 integrand at nodes s, with the electron's numerators or
    the boson's, and om = (1 - x)(1 + x); x, om and k3 (k = 3) are numbers,
    or columns with one entry per row of s."""
    ss = s * s
    xy = x * (1.0 - ss)
    w = 2.0 * (1.0 + xy) * np.exp(-xy)
    root = np.sqrt(om + x * x * ss)
    if k3 is not True:
        two = w * root if electron else w * (1.0 - xy) ** 2 / root
        if k3 is False:
            return two
    three = w * ss / root if electron else w * ss * root
    return three if k3 is True else np.where(k3, three, two)


def _s_pieces(x):
    """The (lo, hi) pieces of [0, 1] that an s-form integral runs on, from 0
    up, for x > ``SERIES_X``: cuts at s = w0 8^k while below 1, graded out of
    the boundary layer of width w0 = sqrt((1 - x)(1 + x))/x < 1 at s = 0."""
    edges, w = [0.0], math.sqrt((1.0 - x) * (1.0 + x)) / x
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


def _running_powers(x, rows):
    """x^0 ... x^(rows - 1) as the rows of an array of x's type, each the
    last times x: a product down each column, so each column has the bits
    of its own x."""
    p = np.empty((rows, len(x)), x.dtype)
    p[0], p[1:] = 1.0, x
    return np.multiply.accumulate(p, axis=0, out=p)


def _tail_terms(terms, ks, x, low):
    """c_m x^m of each pair for HEAD <= m < N + 2, from the x^i, i < HEAD, of
    ``low``: x^(HEAD j + i) = x^(HEAD j) x^i."""
    high = _running_powers(low[HEAD - 1] * x, -(-len(terms) // HEAD))[1:]
    t = (high[:, None] * low).reshape(-1, len(x))[:len(terms) - HEAD]
    t *= terms[HEAD:, ks]
    return t


def _bound(terms, ks, x, low, t):
    """The error bound of each pair's sum of N terms: the tail, (|c_N| x^N +
    |c_{N+1}| x^{N+1}) / (1 - x^2), plus the rounding, N eps sum |c_m x^m|."""
    n = len(terms) - 2
    tail = (np.abs(t[-2]) + np.abs(t[-1])) / ((1.0 - x) * (1.0 + x))
    size = (np.add.reduce(np.abs(terms[:HEAD, ks] * low), axis=0)
            + np.add.reduce(np.abs(t[:n - HEAD]), axis=0))
    return tail + n * _EPS * size


class _Series(NamedTuple):
    terms: np.ndarray  # (N + 2, 4): c_0 ... c_{N+1} of f_k in column k, k = 2, 3
    head: np.ndarray   # (HEAD, 4): their c_0 ... c_{HEAD-1} to 106 bits, in extended precision
    worst: float       # the largest bound of a pair, that at SERIES_X


def _series_table(f2, f3, f2_lo, f3_lo):
    terms = np.zeros((len(f2), 4))
    terms[:, 2], terms[:, 3] = f2, f3
    head = terms[:HEAD].astype(np.longdouble)
    head[:, 2] += f2_lo
    head[:, 3] += f3_lo
    # the bound grows with x
    x = np.array([SERIES_X, SERIES_X])
    low = _running_powers(x, HEAD)
    worst = _bound(terms, [2, 3], x, low, _tail_terms(terms, [2, 3], x, low)).max()
    return _Series(terms, head, float(worst))


class _Kernel(NamedTuple):
    f1: Callable     # the elementary f_1
    electron: bool   # the electron's f_2, f_3 numerators and 2 - 3/e at x = 1, else the boson's
    series: _Series  # f_2 and f_3 up to SERIES_X


BOSON_KERNEL = _Kernel(f1_b, False, _series_table(
    coefficients.BOSON_F2, coefficients.BOSON_F3,
    coefficients.BOSON_F2_LO, coefficients.BOSON_F3_LO))
ELECTRON_KERNEL = _Kernel(f1_e, True, _series_table(
    coefficients.ELECTRON_F2, coefficients.ELECTRON_F3,
    coefficients.ELECTRON_F2_LO, coefficients.ELECTRON_F3_LO))


def _series(kernel, ks, xs, cfg):
    """f_k(x) of each pair (k = 2, 3 and x <= SERIES_X) from its power
    series, or the ConvergenceError of a pair whose bound exceeds its
    tolerance; every pair in one set of array steps."""
    if len(xs) > _BLOCK:
        return [v for i in range(0, len(xs), _BLOCK)
                for v in _series(kernel, ks[i:i + _BLOCK], xs[i:i + _BLOCK], cfg)]
    if len(xs) == 1:  # numpy sums a lone column pairwise, two or more in order
        return _series(kernel, ks * 2, xs * 2, cfg)[:1]
    terms, head, worst = kernel.series
    x = np.array(xs, dtype=float)
    low = _running_powers(x, HEAD)
    t = _tail_terms(terms, ks, x, low)
    top = _running_powers(x.astype(np.longdouble), HEAD)
    top *= head[:, ks]
    # the terms from c_{N-1} down to c_HEAD in doubles, then the rest in
    # extended precision, each sum the smallest first
    top[-1] += np.add.reduce(t[-3::-1], axis=0)
    values = np.add.reduce(top[::-1], axis=0).astype(float).tolist()
    if worst <= cfg.abs_tol:  # so is every bound
        return values
    bound = _bound(terms, ks, x, low, t)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(np.array(values)))
    for i in np.flatnonzero(~(bound <= tol)).tolist():
        values[i] = ConvergenceError(
            f"power series error bound {bound[i]:.3e} exceeds tolerance {tol[i]:.3e}",
            estimate=values[i], error_bound=float(bound[i]))
    return values


def _s_form(kernel, ks, xs, cfg):
    """f_k(x) of each pair (k = 2, 3 and SERIES_X < x < 1): the pieces of
    all pairs as one batch, each pair's added from s = 0 up.  The pieces are
    cut once per distinct x."""
    cuts = {x: _s_pieces(x) for x in xs}
    pieces = [cuts[x] for x in xs]

    def per_piece(per_pair):
        return _per_row([v for v, p in zip(per_pair, pieces) for _ in p])

    x, om = per_piece(xs), per_piece([(1.0 - xr) * (1.0 + xr) for xr in xs])
    k3 = per_piece([k == 3 for k in ks])
    results = iter(quad_batch(lambda rows, s: _s_integrand(kernel.electron, x(rows), om(rows),
                                                           k3(rows), s),
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
    The series of all pairs up to SERIES_X run as one array evaluation, and
    the quadratures of all others as one batch."""
    values, series, todo = [], [], []
    for k, x in zip(ks, xs):
        if k not in (1, 2, 3):
            values.append(DomainError(f"integral index must be 1, 2 or 3, got {k}"))
        elif not 0.0 <= x <= 1.0:
            values.append(DomainError(f"argument must lie in [0, 1], got {x}"))
        elif k == 1:
            values.append(kernel.f1(x))
        elif x <= SERIES_X:
            series.append(len(values))
            values.append(None)
        elif x == 1.0:
            values.append(_F_AT_ONE_E if kernel.electron else DomainError(
                "boson f_2, f_3 are evaluated by quadrature only for x < 1"))
        else:
            todo.append(len(values))
            values.append(None)
    for pairs, evaluate in ((series, _series), (todo, _s_form)):
        if pairs:
            done = evaluate(kernel, [ks[i] for i in pairs], [xs[i] for i in pairs], cfg)
            for i, value in zip(pairs, done):
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
