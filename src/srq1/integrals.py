"""Parametric integrals f_k(x) entering the n = 1 radiation formulas.

Two families, one per particle kind.  f_1 is elementary for both; f_2 and
f_3 are y-form integrals, y = 1 - s^2,

    f = int_0^1 (1 + x y) e^{-x y} N(x, y) (1 - y)^{-1/2} dy

              f_2                               f_3
    boson     (1 - x y)^2 (1 - x^2 y)^{-1/2}    (1 - y) (1 - x^2 y)^{1/2}
    electron  (1 - x^2 y)^{1/2}                 (1 - y) (1 - x^2 y)^{-1/2}

f_0 = f_2 + f_3.  At x = 1 the electron's exact limits f_1 = f_2 = f_3 =
2 - 3/e hold; the boson's x stays below 2 - sqrt3, and its f_2, f_3 are
refused at x = 1.  No f_k is integrated numerically.

f_1 is ((1 + x)^2 e^-x - 1)/x for the boson and (2 - (2 + x) e^-x)/x for the
electron, written with expm1, and a series below x = 1e-4.  The f_1 of all x
>= 1e-4 of a call are formed in one array step in numpy's extended
precision (x87's 64-bit significand on x86-64).

Up to x = 1/sqrt2 (``SERIES_X``, which holds every boson x and the
electron's up to beta = 0.985) f_2 and f_3 are power series.  Expanded in x,
the x^n term of the integrand is a polynomial in y of degree at most n (one
more with the (1 - y) of f_3), and y^j integrates against (1 - y)^{-1/2} to
B(j + 1, 1/2) = 2^{2j+1} (j!)^2 / (2j + 1)!, so f = sum c_n x^n with rational
c_n, convergent for |x| < 1.  ``series_coefficients`` holds them as doubles.
The first N terms are summed, N = 89 for the boson and 91 for the electron:
the first ``HEAD`` of them in extended precision, with c_n to 106 bits, the
rest in doubles from the smallest term up, so that f_k is correctly rounded
at all but rare x.  Its error bound is the tail, (|c_N| x^N + |c_{N+1}|
x^{N+1}) / (1 - x^2) (each parity of |c_n| decreases from N on), plus the
rounding of the sum, N eps sum |c_m x^m| (Higham, 2002, ch. 5).

Above 1/sqrt2 f_2 and f_3 are a closed form.  In s, with t = (1 - x)(1 + x)
and J = sqrt(t + x^2 s^2), the weight 2 (1 + x y) e^{-x y} is the entire
sum_m w_m s^{2m}, w_m = 2 e^-x (x^m / m!) (1 + x - m), and 1 - x y =
(1 - x) + x s^2, so

              f_2                           f_3
    boson     int w ((1 - x) + x s^2)^2/J   int w s^2 J
    electron  int w J                       int w s^2 / J

on [0, 1] are sums of w_m G_m over the moments K_m = int_0^1 s^{2m}/J ds and
I_m = int_0^1 s^{2m} J ds = t K_m + x^2 K_{m+1}: G_m is I_m (electron f_2),
K_{m+1} (electron f_3), (1 - x)^2 (K_m - K_{m+1}) + I_{m+1} (boson f_2) and
I_{m+1} (boson f_3).  As t + x^2 = 1, K_0 = atanh(x)/x, and the derivative
of s^{2m-1} J gives

    2m x^2 K_m = 1 - (2m - 1) t K_{m-1}.

Each step multiplies an error by (2m - 1) t / (2m x^2) < t/x^2, which is
below 1 exactly where x > 1/sqrt2 (Gautschi, SIAM Rev. 9, 1967): the
recurrence is stable where the series stops.  Unrolled, with r = t/x^2, it
reads x^2 K_m = sum_{l<m} T_ml r^l + C_m r^m x atanh(x) with rational T and
C, so the x^2 K_m of every x come from one matrix product with the powers of
r.  The first ``TERMS`` = 22 of the w_m G_m are summed, all in extended
precision; the rest add up to less than 4.3e-22.  Against 40-digit mpmath
quadrature the extended sums are within 3.1e-19 relative, and the doubles
within 1/2 ulp, at 44 x per f_k from nextafter(1/sqrt2, 1) to 1 - 1e-15, so
f_2 and f_3 are correctly rounded at all but rare x.  The error bound is that
tail plus the rounding: half an ulp of the double, and a first-order count
of the extended roundings, 8 (TERMS + 24) eps sum_m (m + 3) |w_m x^2
K_{m+j}|, combined as f_2 and f_3 are from the sums S_j = sum_m w_m x^2
K_{m+j} (each x^2 K_m, m < 24, is a sum of at most 24 terms whose sizes add
up to less than 4 (m + 1) x^2 K_m).  It is below 3.6e-16, and about 500
times the error measured above.  As for the series, a tolerance below it
gives that f_k(x) a ConvergenceError with the bound.

``f_columns`` evaluates one family at an array of x (the x0 of a
``GRID_CHUNK`` of betas) for a few k.  Each branch (f_1's series and its
extended step; the power series, the closed form and x = 1, each forming
f_2 and f_3 of an x together) runs once, on all the x with no copy where
they lie in it alone, else on one boolean selection, and writes its rows
straight into the table.  Every step is elementwise, a matrix product
(numpy's own loop, in the same order for any number of columns) or a sum
down two or more columns (in order), so each value has the bits of its
one-x call.  A failed f_k(x) is nan, and the error that evaluating it alone
raises is returned per (x, k).  ``f_b``, ``f_e``, ``f1_b`` and ``f1_e``
read row 0 of a one-x call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import series_coefficients as coefficients
from .errors import ConvergenceError, DomainError, checked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)

# below this x the elementary f_1 forms lose digits to cancellation, and
# are taken as series
_F1_SERIES_X = 1e-4

_F_AT_ONE_E = 2.0 - 3.0 / math.e

# the largest x with sqrt((1 - x)(1 + x)) >= x: up to here f_2 and f_3 are
# power series, above it the recurrence of their closed form is stable
SERIES_X = 1.0 / math.sqrt(2.0)
# the leading terms of a series, summed in extended precision
HEAD = 8
# eps, the spacing of doubles at 1
_EPS = 2.0 ** -52
# the columns of an array step, f_2 and f_3 of _BLOCK/2 series x or the
# closed form's _BLOCK x: their arrays stay below 128 KiB, above which
# glibc's malloc maps fresh pages at every call
_BLOCK = 160
# the terms w_m G_m of the closed form, m < TERMS, from K_0 ... K_{TERMS+1}
TERMS = 22
_ROWS = TERMS + 2


def _f1_below(kernel, x, cfg):
    """f_1 (one row) at each x < _F1_SERIES_X of x, where the elementary forms cancel."""
    if kernel.electron:
        return [1.0 + x * x * (-1.0 / 6.0 + x / 12.0)], []
    return [1.0 + x * (-0.5 + x * (-1.0 / 6.0 + x * 5.0 / 24.0))], []


def _f1_step(kernel, x, cfg):
    """f_1 (one row) at each x >= _F1_SERIES_X of the array x, in one
    extended-precision array step from m = expm1(-x): (m (2 + x) + x)/(-x)
    for the electron, and (m (1 + x)^2 + x (2 + x))/x for the boson."""
    x = x.astype(np.longdouble)
    m = np.expm1(-x)
    if kernel.electron:
        f = m * (2.0 + x)
        f += x
        f /= -x
    else:
        f = m * np.square(1.0 + x)
        f += x * (2.0 + x)
        f /= x
    return [f.astype(float)], []


def _in_blocks(block, args, x, size, form, cfg):
    """The (2, len(x)) values of block(*args, x), ``size`` x at a time, and the
    [row, i, ConvergenceError] of each whose error bound (the block's second
    array, None where all are met) exceeds its tolerance."""
    parts = [block(*args, x[i:i + size]) for i in range(0, len(x), size)]
    values = parts[0][0] if len(parts) == 1 else np.concatenate([v for v, _ in parts], axis=1)
    if parts[0][1] is None:
        return values, []
    bound = np.concatenate([b for _, b in parts], axis=1)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(values))
    return values, [[row, i, ConvergenceError(
        f"{form} error bound {bound[row, i]:.3e} exceeds tolerance {tol[row, i]:.3e}",
        estimate=values[row, i].item(), error_bound=bound[row, i].item())]
        for row, i in np.argwhere(~(bound <= tol)).tolist()]


def _running_powers(x, rows):
    """x^0 ... x^(rows - 1) as the rows of an array of x's type, each the
    last times x: a product down each column, so each column has the bits
    of its own x."""
    p = np.empty((rows, len(x)), x.dtype)
    p[0], p[1:] = 1.0, x
    return np.multiply.accumulate(p, axis=0, out=p)


def _tail_terms(terms, x, low):
    """c_m x^m of f_2 and f_3 at each x for HEAD <= m < N + 2, a (terms, 2,
    x) array, from the x^i, i < HEAD, of ``low``: x^(HEAD j + i) = x^(HEAD j) x^i."""
    high = _running_powers(low[HEAD - 1] * x, -(-len(terms) // HEAD))[1:]
    return (high[:, None] * low).reshape(-1, len(x))[:len(terms) - HEAD, None] * terms[HEAD:]


def _bound(terms, x, low, t):
    """The error bound of each sum of N terms: the tail, (|c_N| x^N +
    |c_{N+1}| x^{N+1}) / (1 - x^2), plus the rounding, N eps sum |c_m x^m|."""
    n = len(terms) - 2
    tail = (np.abs(t[-2]) + np.abs(t[-1])) / ((1.0 - x) * (1.0 + x))
    size = (np.add.reduce(np.abs(terms[:HEAD] * low[:, None]), axis=0)
            + np.add.reduce(np.abs(t[:n - HEAD]), axis=0))
    return tail + n * _EPS * size


class _Series(NamedTuple):
    terms: np.ndarray  # (N + 2, 2, 1): c_0 ... c_{N+1} of f_2 and f_3
    head: np.ndarray   # (HEAD, 2, 1): their c_0 ... c_{HEAD-1} to 106 bits, in extended precision
    worst: float       # the largest bound of a value, that at SERIES_X


def _series_table(f2, f3, f2_lo, f3_lo):
    terms = np.stack((f2, f3), axis=1)[:, :, None]
    head = terms[:HEAD].astype(np.longdouble)
    head[:, :, 0] += np.stack((f2_lo, f3_lo), axis=1)
    # the bound grows with x
    x = np.array([SERIES_X])
    low = _running_powers(x, HEAD)
    worst = _bound(terms, x, low, _tail_terms(terms, x, low)).max()
    return _Series(terms, head, float(worst))


class _Kernel(NamedTuple):
    electron: bool   # the electron's f_1, f_2, f_3 and 2 - 3/e at x = 1, else the boson's
    series: _Series  # f_2 and f_3 up to SERIES_X


BOSON_KERNEL = _Kernel(False, _series_table(
    coefficients.BOSON_F2, coefficients.BOSON_F3,
    coefficients.BOSON_F2_LO, coefficients.BOSON_F3_LO))
ELECTRON_KERNEL = _Kernel(True, _series_table(
    coefficients.ELECTRON_F2, coefficients.ELECTRON_F3,
    coefficients.ELECTRON_F2_LO, coefficients.ELECTRON_F3_LO))


def _series_block(series, tight, x):
    """f_2 and f_3 (rows) at each x of x from their power series, and with
    ``tight`` their error bounds, else None."""
    terms, head, _ = series
    low = _running_powers(x, HEAD)
    t = _tail_terms(terms, x, low)
    top = _running_powers(x.astype(np.longdouble), HEAD)[:, None] * head
    # the terms from c_{N-1} down to c_HEAD in doubles, then the rest in
    # extended precision, each sum the smallest first
    top[-1] += np.add.reduce(t[-3::-1], axis=0)
    values = np.add.reduce(top[::-1], axis=0).astype(float)
    return values, _bound(terms, x, low, t) if tight else None


def _series(kernel, x, cfg):
    """f_2 and f_3 (rows) at each x <= SERIES_X of x from their power
    series, with the refusals of ``_in_blocks``."""
    tight = kernel.series.worst > cfg.abs_tol
    return _in_blocks(_series_block, (kernel.series, tight), x, _BLOCK // 2, "power series", cfg)


def _nearest(num, den):
    """The extended-precision number nearest num/den (integers), to a
    rounding: the nearest double plus the double nearest what is left."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    return np.longdouble(hi) + np.longdouble((num * b - a * den) / (den * b))


def _unrolled_recurrence():
    """T (rows m, columns l) and the column C of x^2 K_m = sum_l T_ml r^l +
    x^2 C_m r^m K_0, m < _ROWS: from x^2 K_m = 1/(2m) + q_m r x^2 K_{m-1},
    q_m = -(2m - 1)/(2m), T_m0 = 1/(2m), T_ml = q_m T_{m-1,l-1} and C_m =
    q_m C_{m-1}, exact as (numerator, denominator) and then rounded."""
    t, c = [[(0, 1)] * _ROWS], [(1, 1)]
    for m in range(1, _ROWS):
        t.append([(1, 2 * m)] + [((1 - 2 * m) * n, 2 * m * d) for n, d in t[-1][:-1]])
        c.append(((1 - 2 * m) * c[-1][0], 2 * m * c[-1][1]))
    return (np.array([[_nearest(*v) for v in row] for row in t]),
            np.array([[_nearest(*v)] for v in c]))


_T, _C = _unrolled_recurrence()
# the divisors of x^m/m! = x^{m-1}/(m-1)! * x/m, and the m of 1 + x - m
_DIVISORS = np.arange(1, _ROWS, dtype=np.longdouble)[:, None]
_M = np.arange(TERMS, dtype=np.longdouble)[:, None]
# a sum down the columns of a (TERMS, n) array, in row order for every n, a
# lone column too (np.add.reduce sums a lone column pairwise)
_ONES = np.ones(TERMS, dtype=np.longdouble)
# the rounding bound's weight of |w_m x^2 K_{m+j}|
_ROUND = 8 * (TERMS + _ROWS) * float(np.finfo(np.longdouble).eps) * np.arange(3.0, TERMS + 3)
# the terms m >= TERMS: |w_m| <= 2 e^-1 (m - 2)/m!, G_m <= sqrt2/(2m + 2), and
# each |w_m G_m| is below 1/20 of the last
_TAIL = (2.0 / math.e * (TERMS - 2) / math.factorial(TERMS)
         * math.sqrt(2.0) / (2 * TERMS + 2) / 0.95)
# the largest bound of a value: f and every G_m are below sqrt2 int w <= 2 sqrt2,
# and |w_m| <= 2 (m + 2)/m!
_CLOSED_WORST = (_TAIL + 2.0 ** -53 * 2.0 * math.sqrt(2.0) + math.sqrt(2.0) * sum(
    b * 2.0 * (m + 2) / math.factorial(m) for m, b in enumerate(_ROUND)))


def _closed_sums(electron, tight, x):
    """f_2 and f_3 (rows) at each x of x in closed form, and with ``tight``
    their error bounds, else None: from S_j = sum_m w_m x^2 K_{m+j},
    m < TERMS, j = 0, 1 and for the boson 2, f_2 = r S_0 + S_1 and f_3 =
    S_1/x^2 for the electron, and f_2 = a^2 S_0 + 2a S_1 + S_2 and f_3 = r S_1
    + S_2 for the boson, r = t/x^2 and a = (1 - x)/x."""
    x = x.astype(np.longdouble)
    one_minus, one_plus = 1.0 - x, 1.0 + x
    xx = x * x
    r = one_minus * one_plus / xx
    # the powers r^l and 2 e^-x x^m/m!, each a product down its column
    p = np.empty((2, _ROWS, len(x)), np.longdouble)
    p[0, 0], p[0, 1:] = 1.0, r
    np.multiply(np.exp(-x), 2.0, out=p[1, 0])
    np.divide(x, _DIVISORS, out=p[1, 1:])
    np.multiply.accumulate(p, axis=1, out=p)
    powers, w = p[0], p[1, :TERMS]
    k = _T @ powers
    powers *= _C
    powers *= x * np.arctanh(x)
    k += powers
    w *= one_plus - _M
    g = np.empty((2 if electron else 3, TERMS, len(x)), np.longdouble)
    for j, row in enumerate(g):
        np.multiply(k[j:j + TERMS], w, out=row)
    if electron:
        def f23(s):
            return np.array((r * s[0] + s[1], s[1] / xx))
    else:
        a = one_minus / x

        def f23(s):
            return np.array(((a * a) * s[0] + (2.0 * a) * s[1] + s[2], r * s[1] + s[2]))

    sums = f23(_ONES @ g).astype(float)
    if not tight:
        return sums, None
    return sums, _TAIL + 2.0 ** -53 * np.abs(sums) + f23(_ROUND @ np.abs(g)).astype(float)


def _closed_form(kernel, x, cfg):
    """f_2 and f_3 (rows) at each x of x (SERIES_X < x < 1) in closed form,
    with the refusals of ``_in_blocks``."""
    tight = cfg.abs_tol <= _CLOSED_WORST
    return _in_blocks(_closed_sums, (kernel.electron, tight), x, _BLOCK, "closed form", cfg)


def _at_one(kernel, x, cfg):
    """f_2 and f_3 (rows) at x = 1: the electron's 2 - 3/e; the boson's fail."""
    if kernel.electron:
        return np.full((2, len(x)), _F_AT_ONE_E), []
    return np.full((2, len(x)), math.nan), [[row, i, DomainError(
        "boson f_2, f_3 are evaluated in closed form only for x < 1")]
        for i in range(len(x)) for row in (0, 1)]


# the forms of f_1 and of f_2, f_3 (rows 0 and 1), each with the closed
# interval of x it serves, and per k its group and row
_GROUPS = ((((0.0, math.nextafter(_F1_SERIES_X, 0.0)), _f1_below),
            ((_F1_SERIES_X, 1.0), _f1_step)),
           (((0.0, SERIES_X), _series),
            ((math.nextafter(SERIES_X, 1.0), math.nextafter(1.0, 0.0)), _closed_form),
            ((1.0, 1.0), _at_one)))
_K_ROWS = {1: (0, 0), 2: (1, 0), 3: (1, 1)}


def _rows(x, lo, hi, a, b):
    """The x of x (extremes lo, hi) in [a, b]: None, all as a slice, or a mask."""
    if hi < a or lo > b:
        return None
    if a <= lo and hi <= b:
        return slice(None)
    rows = (a <= x) & (x <= b)
    return rows if rows.any() else None


def f_columns(kernel, ks, x, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """The (len(x), len(ks)) table of f_k(x) of the family of ``kernel``, for
    the float array x and each k of ks, nan where one failed, and {(row,
    column): the error that evaluating that f_k(x) alone raises}."""
    table, errors = np.empty((len(x), len(ks))), {}
    if not len(x):
        return table, errors
    # numpy's reductions cost more than the rest of a branch test at one x
    lo, hi = (x.item(),) * 2 if len(x) == 1 else (np.minimum.reduce(x), np.maximum.reduce(x))
    runs, valid = [None, None], 0.0 <= lo and hi <= 1.0
    for j, k in enumerate(ks):
        if k not in _K_ROWS:
            valid = False
            continue
        group, row = _K_ROWS[k]
        if runs[group] is None:
            runs[group] = [(rows, *form(kernel, x[rows], cfg)) for (a, b), form in _GROUPS[group]
                           if (rows := _rows(x, lo, hi, a, b)) is not None]
        for rows, values, failed in runs[group]:
            table[rows, j] = values[row]
            if failed:
                index = range(len(x)) if isinstance(rows, slice) else np.flatnonzero(rows).tolist()
                errors.update({(index[i], j): error for r, i, error in failed if r == row})
    if not valid:  # a k outside 1, 2, 3 fails at every x, another k at each x outside [0, 1]
        outside = np.flatnonzero(~((0.0 <= x) & (x <= 1.0))).tolist()
        for j, k in enumerate(ks):
            for i in outside if k in _K_ROWS else range(len(x)):
                errors[i, j] = DomainError(
                    f"argument must lie in [0, 1], got {x[i]}" if k in _K_ROWS
                    else f"integral index must be 1, 2 or 3, got {k}")
    for i, j in errors:
        table[i, j] = math.nan
    return table, errors


def _f(kernel, k, x, cfg):
    """f_k(x) of the family of ``kernel``, row 0 of ``f_columns``."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"integral index must be 0, 1, 2 or 3, got {k}")
    ks = (2, 3) if k == 0 else (k,)
    table, errors = f_columns(kernel, ks, np.array([x], dtype=float), cfg)
    checked([errors.get((0, j)) for j in range(len(ks))])
    return sum(table[0].tolist())  # f_k, or f_0 = f_2 + f_3


def f1_b(x: float) -> float:
    """Elementary member of the boson family, ((1+x)^2 e^-x - 1)/x."""
    return _f(BOSON_KERNEL, 1, x, DEFAULT_CONFIG)


def f1_e(x: float) -> float:
    """Elementary member of the electron family, (2 - (2+x) e^-x)/x."""
    return _f(ELECTRON_KERNEL, 1, x, DEFAULT_CONFIG)


def f_b(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Boson integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(BOSON_KERNEL, k, x, cfg)


def f_e(k: int, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron integral f_k(x) for k in {0, 1, 2, 3}; f_0 = f_2 + f_3."""
    return _f(ELECTRON_KERNEL, k, x, cfg)
