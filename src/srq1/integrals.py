"""Parametric integrals f_k(x) entering the n = 1 radiation formulas.

Two families, one per particle kind.  f_1 is elementary for both, written
with expm1, and as a series below x = 1e-4.  f_2 and f_3 are taken in the
s-form of their y-form integrals, y = 1 - s^2, on [0, 1] with no prefactor:

    w = 2 (1 + x y) e^{-x y},   q = (1 - x)(1 + x) + x^2 s^2,

              f_2                          f_3
    boson     int w (1 - x y)^2 / sqrt(q)  int w s^2 sqrt(q)
    electron  int w sqrt(q)                int w s^2 / sqrt(q)

One integrand serves both families, through a kernel record per family that
holds its f_1 and which numerators it takes; it forms w and sqrt(q) once per
node.  f_0 = f_2 + f_3.  At x = 1 the electron's exact limits f_1 = f_2 =
f_3 = 2 - 3/e hold; the boson's x stays below 2 - sqrt3, and its f_2, f_3
are refused at x = 1.

The integrands' only structure is a layer of width w0 = sqrt((1 - x)(1 +
x))/x at s = 0, which narrows as x -> 1.  [0, 1] is cut at s = w0 8^k while
below 1 (``_s_pieces``): one piece up to x = 1/sqrt2, which holds every
boson x, two up to x = 1/sqrt(1 + 1/64), and one more per factor 8 that w0
shrinks.  A pair's value is the sum of its pieces from s = 0 up, its error
that of its first failing piece.  One to three lockstep rounds settle an
f_2, f_3 pair at any x, within 1.3e-15 relative of a 30-digit oracle from
x = 0 up to 1 - x = 1e-15.

``f_values`` evaluates a list of (k, x) pairs of one family, and the pieces
of all its pairs run as one ``quad_batch``: each node row of an integrand
call carries its own x and k (f_2 and f_3 rows share the call, their
numerators selected by ``np.where``; an x or k that every row shares is
passed as a number).  The integrand is elementwise, with x broadcast per row
in the operation order of the one-integral form, so each value has the bits
of its own ``quad_adaptive`` calls.  A failed pair's entry is the error that
evaluating it alone raises, so that callers can raise the first one in their
own order.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, checked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_batch
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)

# below this x the elementary f_1 forms lose digits to cancellation, and
# are taken as series
_SERIES_X = 1e-4

_F_AT_ONE_E = 2.0 - 3.0 / math.e


def f1_b(x: float) -> float:
    """Elementary member of the boson family, ((1+x)^2 e^-x - 1)/x."""
    if x < _SERIES_X:
        return 1.0 + x * (-0.5 + x * (-1.0 / 6.0 + x * 5.0 / 24.0))
    return (math.expm1(-x) + x * (2.0 + x) * math.exp(-x)) / x


def f1_e(x: float) -> float:
    """Elementary member of the electron family, (2 - (2+x) e^-x)/x."""
    if x < _SERIES_X:
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


_WHOLE = ((0.0, 1.0),)


def _s_pieces(x):
    """The (lo, hi) pieces of [0, 1] that an s-form integral runs on, from 0
    up: cuts at s = w0 8^k while below 1, graded out of the boundary layer of
    width w0 = sqrt((1 - x)(1 + x))/x at s = 0.  While w0 >= 1 (x <= 1/sqrt2,
    and x = 0) that is [0, 1] itself, the one tuple ``_WHOLE``."""
    root = math.sqrt((1.0 - x) * (1.0 + x))
    if root >= x:  # w0 >= 1, as root/x rounds below 1 exactly when root < x
        return _WHOLE
    edges, w = [0.0], root / x
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
    f1: Callable    # the elementary f_1
    electron: bool  # the electron's f_2, f_3 numerators and 2 - 3/e at x = 1, else the boson's


BOSON_KERNEL = _Kernel(f1_b, False)
ELECTRON_KERNEL = _Kernel(f1_e, True)


def _s_form(kernel, ks, xs, cfg):
    """f_k(x) of each pair: the pieces of all pairs as one batch, each pair's
    added from s = 0 up.  The pieces are cut once per distinct x, and a batch
    with no cut pair is quad_batch's list itself."""
    cuts = {x: _s_pieces(x) for x in xs}
    pieces = [cuts[x] for x in xs]
    intervals = [piece for p in pieces for piece in p]
    uncut = len(intervals) == len(pieces)

    def per_piece(per_pair):
        return _per_row(per_pair if uncut else
                        [v for v, p in zip(per_pair, pieces) for _ in p])

    x, om = per_piece(xs), per_piece([(1.0 - xr) * (1.0 + xr) for xr in xs])
    k3 = per_piece([k == 3 for k in ks])
    results = quad_batch(lambda rows, s: _s_integrand(kernel.electron, x(rows), om(rows),
                                                      k3(rows), s), intervals, cfg)
    if uncut:
        return results
    results, values = iter(results), []
    for p in pieces:
        parts = [next(results) for _ in p]
        error = next((v for v in parts if isinstance(v, Exception)), None)
        values.append(sum(parts) if error is None else error)
    return values


def f_values(kernel, ks, xs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """f_k(x) of the family of ``kernel`` for each pair of ``ks`` (1, 2 or 3)
    and ``xs`` (in [0, 1]): per pair the float, or the error that evaluating
    it alone raises (a DomainError for a k or an x outside those ranges).
    The quadratures of all pairs run as one batch."""
    values, todo = [], []
    for k, x in zip(ks, xs):
        if k not in (1, 2, 3):
            values.append(DomainError(f"integral index must be 1, 2 or 3, got {k}"))
        elif not 0.0 <= x <= 1.0:
            values.append(DomainError(f"argument must lie in [0, 1], got {x}"))
        elif k == 1:
            values.append(kernel.f1(x))
        elif x == 1.0:
            values.append(_F_AT_ONE_E if kernel.electron else DomainError(
                "boson f_2, f_3 are evaluated by quadrature only for x < 1"))
        else:
            todo.append(len(values))
            values.append(None)
    if todo:
        done = _s_form(kernel, [ks[i] for i in todo], [xs[i] for i in todo], cfg)
        for i, value in zip(todo, done):
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
