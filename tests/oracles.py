"""Independent numerical oracles used only by the tests.

The midpoint Riemann sums evaluate the regularized (t-substituted)
integrands written out afresh; the y-form integrands are the original
improper representations, integrated with scipy's adaptive QUADPACK rule,
which handles the inverse-square-root endpoint singularity.  The widths
are checked against the benchmark's reference, ``bench/oracle``, which
``bench_module`` loads (as it loads the scripts).  ``count_profile_values`` counts the work of the
analysis scans that read p_s.
"""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def bench_module(name, folder="bench"):
    """<folder>/<name>.py, bench/ unless named, imported as
    scripts/compare_outputs.py does: without writing bytecode, so bench/ is
    left as it is."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(name, _ROOT / folder / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def count_profile_values(monkeypatch):
    """A one-item list that counts every value that the profiles of
    ``Family.density_profiles`` return from here on."""
    from srq1 import family

    seen = [0]
    real = family.Family.density_profiles

    def counted(self, *args, **kwargs):
        profile, failed = real(self, *args, **kwargs)

        def counting(rows, theta):
            values = profile(rows, theta)
            seen[0] += np.size(values)
            return values

        return counting, failed

    monkeypatch.setattr(family.Family, "density_profiles", counted)
    return seen


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
    r = math.sqrt(3.0 - 2.0 * beta**2)
    x0 = (math.sqrt(3.0) - r) / (math.sqrt(3.0) + r)
    return 3.0 * (1.0 + x0) ** 2 / 8.0 * (f2_b_sub(x0, n) + f3_b_sub(x0, n))


def shape_e_oracle(beta, n=10**6):
    """f^e(beta) built from the Riemann-sum integrals."""
    r = math.sqrt(1.0 - beta**2)
    x0 = (1.0 - r) / (1.0 + r)
    if x0 == 1.0:
        f0 = 2.0 * (2.0 - 3.0 / math.e)
    else:
        f0 = f2_e_sub(x0, n) + f3_e_sub(x0, n)
    return 3.0 * (1.0 + x0) / 8.0 * f0
