"""Exact power series of f_2 and f_3 of both families, used only by the tests.

In the y-form, y = 1 - s^2,

    f = int_0^1 (1 + x y) e^{-x y} N(x, y) (1 - y)^{-1/2} dy

              f_2                               f_3
    boson     (1 - x y)^2 (1 - x^2 y)^{-1/2}    (1 - y) (1 - x^2 y)^{1/2}
    electron  (1 - x^2 y)^{1/2}                 (1 - y) (1 - x^2 y)^{-1/2}

Every factor is a series in x whose x^n term carries y^j with j <= n (the
(1 - y) of f_3 adds one more power of y), and y^j integrates against the
weight to B(j + 1, 1/2) = 2^{2j+1} (j!)^2 / (2j + 1)!, so f = sum c_n x^n
with rational c_n.  ``coefficients`` gives them as Fractions, ``value`` sums
them in mpmath at 40 digits, and ``yform`` integrates the y-form in mpmath at
40 digits, for the check of the sums.  ``sform`` integrates the same integral,
written in s = sqrt(1 - y), at 40 digits on pieces graded toward s = 0, for
the check of the closed form above x = 1/sqrt2.
"""

import functools
from fractions import Fraction
from math import comb, factorial

import mpmath

# (family, k) -> (the power of (1 - x^2 y): -1/2 or 1/2, (1 - y) present,
# (1 - x y)^2 present)
SERIES = {
    ("boson", 2): (-1, False, True),
    ("boson", 3): (1, True, False),
    ("electron", 2): (1, False, False),
    ("electron", 3): (-1, True, False),
}


@functools.cache
def _beta(j, three_halves):
    """B(j + 1, 1/2), or B(j + 1, 3/2) = int y^j (1 - y)^{1/2} dy."""
    half = Fraction(2 ** (2 * j + 1) * factorial(j) ** 2, factorial(2 * j + 1))
    return half / (2 * j + 3) if three_halves else half


def _binomial_half(sign, j):
    """The coefficient of u^j in (1 - u)^{sign/2}."""
    if sign < 0:
        return Fraction(comb(2 * j, j), 4 ** j)
    # (1 - u)^{1/2} = 1 - sum_j>=1 C(2j, j) u^j / (4^j (2j - 1))
    return Fraction(1) if j == 0 else -Fraction(comb(2 * j, j), 4 ** j * (2 * j - 1))


@functools.cache
def coefficients(family, k, n):
    """The first n coefficients c_0 ... c_{n-1} of f_k of ``family``, exact."""
    sign, one_minus_y, square = SERIES[(family, k)]
    # (1 + u) e^{-u} = sum_m (-1)^m (1 - m) u^m / m!, u = x y: x^m y^m
    a = [Fraction((-1) ** m * (1 - m), factorial(m)) for m in range(n)]
    b = [_binomial_half(sign, j) for j in range(n // 2 + 1)]  # x^{2j} y^j
    d = [1, -2, 1] if square else [1]                         # x^l y^l
    out = []
    for total in range(n):
        c = Fraction(0)
        for j in range(total // 2 + 1):
            for l, dl in enumerate(d):
                m = total - 2 * j - l
                if m >= 0 and a[m]:
                    c += a[m] * b[j] * dl * _beta(m + j + l, one_minus_y)
        out.append(c)
    return tuple(out)


def value(family, k, x, n=200):
    """sum_{m < n} c_m x^m at 40 digits: for x <= 1/sqrt2 the tail past 200
    terms is below 1e-34 relative."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for c in reversed(coefficients(family, k, n)):
            total = total * x + mpmath.mpf(c.numerator) / c.denominator
        return +total


def yform(family, k, x):
    """f_k of ``family`` by mpmath quadrature of the y-form at 40 digits,
    written in s: 2 int_0^1 (1 + x y) e^{-x y} N(x, y) ds."""
    sign, one_minus_y, square = SERIES[(family, k)]
    with mpmath.workdps(40):
        x = mpmath.mpf(x)

        def g(s):
            y = 1 - s * s
            v = (1 + x * y) * mpmath.exp(-x * y) * (1 - x * x * y) ** (mpmath.mpf(sign) / 2)
            if one_minus_y:
                v *= s * s
            if square:
                v *= (1 - x * y) ** 2
            return 2 * v

        return mpmath.quad(g, [0, 1])


@functools.cache
def sform(family, k, x):
    """f_k of ``family`` for 1/sqrt2 < x < 1 by mpmath quadrature of the
    s-form at 40 digits, 2 int_0^1 (1 + x y) e^{-x y} N(x, y) ds, on [0, 1] cut
    at s = w0 4^j while below 1: the integrand has a layer of width w0 =
    sqrt((1 - x)(1 + x))/x at s = 0, which one panel over [0, 1] resolves
    badly as x -> 1."""
    sign, one_minus_y, square = SERIES[(family, k)]
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        t = (1 - x) * (1 + x)

        def g(s):
            y = 1 - s * s
            v = (1 + x * y) * mpmath.exp(-x * y) * (t + x * x * s * s) ** (mpmath.mpf(sign) / 2)
            if one_minus_y:
                v *= s * s
            if square:
                v *= (1 - x * y) ** 2
            return 2 * v

        cuts, w = [mpmath.mpf(0)], mpmath.sqrt(t) / x
        while w < 1:
            cuts.append(w)
            w *= 4
        return mpmath.quad(g, cuts + [mpmath.mpf(1)])
