import math

import numpy as np
import pytest

from srq1.errors import ConvergenceError
from srq1.quadrature import QuadratureConfig, quad_adaptive

from oracles import midpoint_riemann


def test_constant():
    assert quad_adaptive(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_quadratic():
    assert quad_adaptive(lambda t: t**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_reversed_interval():
    assert quad_adaptive(lambda t: t, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)


def test_boson_integrand_vs_riemann():
    x = 0.26

    def g(t):
        u = 1 - x**2 * t**2
        return (1 - x * t**2) * (1 + x * t**2) ** 2 / u**4 * np.exp(-x * (1 - t**2) / u)

    assert quad_adaptive(g, 0.0, 1.0) == pytest.approx(
        midpoint_riemann(g, 0.0, 1.0), abs=1e-8)


def test_deterministic():
    g = lambda t: np.sin(50 * t) ** 2 / (1 + t)
    assert quad_adaptive(g, 0.0, math.pi) == quad_adaptive(g, 0.0, math.pi)


def test_convergence_error_carries_estimate():
    cfg = QuadratureConfig(max_depth=10)
    g = lambda t: 1.0 / np.sqrt(t**2 + 1e-14)
    with pytest.raises(ConvergenceError) as exc_info:
        quad_adaptive(g, 0.0, 1.0, cfg)
    err = exc_info.value
    assert err.estimate is not None and math.isfinite(err.estimate)
    assert err.error_bound > 0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=5)
