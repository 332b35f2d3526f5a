"""Independent numerical oracles used only by the tests.

The midpoint Riemann sum integrates densities over angles.  The shape
factors are built from the exact power series of f_2 and f_3 at 40 digits
(``series``).  The widths are checked against the benchmark's reference,
``bench/oracle``, which ``bench_module`` loads (as it loads the scripts).
``count_profile_values`` counts the work of the analysis scans that read
p_s.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import mpmath
import numpy as np

import series

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


def _shape_oracle(family, a, b, shape_power, beta):
    """f(beta) = 3 (1 + x0)^m (f_2 + f_3)(x0) / 8 at 40 digits, for an x0 up
    to 1/sqrt2, with x0 = (sqrt(A) - r) / (sqrt(A) + r), r = sqrt(A - B beta^2)."""
    with mpmath.workdps(40):
        r = mpmath.sqrt(a - b * mpmath.mpf(beta) ** 2)
        x0 = (mpmath.sqrt(a) - r) / (mpmath.sqrt(a) + r)
        assert x0 <= 1 / mpmath.sqrt(2)
        f0 = series.value(family, 2, x0) + series.value(family, 3, x0)
        return float(3 * (1 + x0) ** shape_power / 8 * f0)


def shape_b_oracle(beta):
    """f^b(beta) from the exact series."""
    return _shape_oracle("boson", 3, 2, 2, beta)


def shape_e_oracle(beta):
    """f^e(beta) from the exact series."""
    return _shape_oracle("electron", 1, 1, 1, beta)
