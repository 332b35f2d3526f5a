import heapq
import math

import numpy as np
import pytest

from srq1 import analysis, integrals, quadrature
from srq1.errors import ConvergenceError
from srq1.quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_adaptive

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


# --- the paired bisection against the sequential loop it replaced ---------

def _gk15_reference(f, a, b):
    half = 0.5 * (b - a)
    y = f(0.5 * (a + b) + half * quadrature._NODES)
    kronrod = half * float(quadrature._KRONROD_W @ y)
    gauss = half * float(quadrature._GAUSS_W @ y)
    return kronrod, abs(kronrod - gauss)


def _quad_reference(f, a, b, cfg=DEFAULT_CONFIG):
    # the adaptive loop with one 15-node call per half of a bisected panel
    if b == a:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    span = b - a
    whole, err0 = _gk15_reference(f, a, b)
    heap = [(-err0, a, b, whole, 0)]
    total = whole
    total_err = err0
    frozen_err = 0.0
    while heap:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol or frozen_err > tol:
            break
        neg_err, lo, hi, est, depth = heapq.heappop(heap)
        if -neg_err <= 0.0:
            break
        width = hi - lo
        if depth >= cfg.max_depth or width <= 1e-15 * span:
            frozen_err += -neg_err
            continue
        mid = 0.5 * (lo + hi)
        left_est, left_err = _gk15_reference(f, lo, mid)
        right_est, right_err = _gk15_reference(f, mid, hi)
        total += left_est + right_est - est
        total_err += left_err + right_err + neg_err
        heapq.heappush(heap, (-left_err, lo, mid, left_est, depth + 1))
        heapq.heappush(heap, (-right_err, mid, hi, right_est, depth + 1))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
    if total_err > tol and frozen_err > 0.0:
        raise ConvergenceError(
            f"quadrature did not converge at max_depth={cfg.max_depth}: "
            f"residual error bound {total_err:.3e} exceeds tolerance {tol:.3e}",
            estimate=sign * total,
            error_bound=total_err,
        )
    return sign * total


def _recorded(f):
    calls = []

    def g(t):
        calls.append(np.array(t))
        return f(t)

    return g, calls


def _outcome(quad, f, a, b, cfg):
    try:
        return quad(f, a, b, cfg).hex()
    except ConvergenceError as exc:
        return str(exc), exc.estimate.hex(), exc.error_bound.hex()


def assert_same_as_reference(f, a, b, cfg=DEFAULT_CONFIG):
    """Same float.hex (or the same ConvergenceError) as the sequential loop,
    from the same nodes in the same order: 15, then 30 (two panels) per call."""
    f_new, new = _recorded(f)
    f_ref, ref = _recorded(f)
    assert _outcome(quad_adaptive, f_new, a, b, cfg) == _outcome(_quad_reference, f_ref, a, b, cfg)
    assert [t.size for t in new] == [15] + [30] * (len(new) - 1)
    assert len(ref) == 2 * len(new) - 1
    assert new[0].tobytes() == ref[0].tobytes()
    for i, t in enumerate(new[1:]):
        assert t.tobytes() == np.concatenate(ref[2 * i + 1:2 * i + 3]).tobytes()
    return len(ref)  # GK15 panels


def test_paired_bisection_matches_reference_on_f2_f3():
    rng = np.random.default_rng(2024)
    xs = [0.0, 0.5, 0.99, 1.0 - 1e-6, *rng.uniform(0.0, 1.0 - 1e-6, 12)]
    for fam in (integrals._BOSON, integrals._ELECTRON):
        for k in (2, 3):
            for x in xs:
                assert_same_as_reference(integrals._integrand(fam, k, float(x)), 0.0, 1.0)


def test_paired_bisection_pins_the_panel_count():
    # electron f_2 next to its boundary switch: 43 GK15 panels in 22 calls
    g = integrals._integrand(integrals._ELECTRON, 2, 1.0 - 1e-6)
    assert assert_same_as_reference(g, 0.0, 1.0) == 43


def test_paired_bisection_matches_reference_on_effective_angle(monkeypatch):
    integrands = []

    def capture(f, a, b, cfg=DEFAULT_CONFIG):
        integrands.append((f, a, b, cfg))
        return quad_adaptive(f, a, b, cfg)

    monkeypatch.setattr(analysis, "quad_adaptive", capture)
    for kind, zetas in (("boson", (None,)), ("electron", (1, -1))):
        for zeta in zetas:
            for s in (0, 1, 2, 3):
                for beta in (0.0, 0.6, 0.95):
                    analysis.effective_angle(kind, s, zeta, beta)
    assert len(integrands) == 2 * 3 * 4 * 3  # weighted and plain
    for f, a, b, cfg in integrands:
        assert_same_as_reference(f, a, b, cfg)


def test_paired_bisection_matches_reference_reversed():
    assert_same_as_reference(lambda t: np.exp(t) * np.cos(30.0 * t), 2.0, -1.0)


def test_paired_bisection_matches_reference_on_convergence_errors():
    failures = 0
    for max_depth in (10, 14, 20):
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_depth=max_depth)
        for eps in (1e-10, 1e-14, 1e-20):
            for f in (lambda t: 1.0 / np.sqrt(t * t + eps), lambda t: np.log(t + eps)):
                try:
                    quad_adaptive(f, 0.0, 1.0, cfg)
                except ConvergenceError:
                    failures += 1
                assert_same_as_reference(f, 0.0, 1.0, cfg)
    assert failures >= 6


def test_pair_reduction_equals_separate_dots():
    # the (2, 15) @ (15, 2) product must add up each column in the order of a
    # 15-term dot product; a BLAS whose kernels differ fails here
    rng = np.random.default_rng(5)
    weights = np.stack((quadrature._KRONROD_W, quadrature._GAUSS_W), axis=1)
    for _ in range(4000):
        y = rng.standard_normal(30) * 10.0 ** rng.uniform(-300, 300, 30)
        dots = [float(w @ half) for half in (y[:15], y[15:])
                for w in (quadrature._KRONROD_W, quadrature._GAUSS_W)]
        assert (y.reshape(2, 15) @ weights).ravel().tolist() == dots
        lo, mid, hi = sorted(rng.uniform(-3.0, 3.0, 3))
        halves = quadrature._gk15_halves(lambda t: y, lo, mid, hi)
        ref = (_gk15_reference(lambda t: y[:15], lo, mid)
               + _gk15_reference(lambda t: y[15:], mid, hi))
        assert [v.hex() for v in halves] == [v.hex() for v in ref]
