import math
import tracemalloc

import numpy as np
import pytest

from srq1 import analysis
from srq1.analysis import effective_angle_rows, max_angle_scan
from srq1.boson import (BOSON, XBAR0_MAX, angular_density_b, boson_deformation,
                        density_profile_b, half_plane_fraction_b,
                        local_polarization_b, phi_b, shape_integral_b,
                        total_power_b, xbar0)
from srq1.errors import DomainError
from srq1.family import GRID_CHUNK

import oracles

BETAS = [0.0, 0.3, 0.5, 0.8, 0.9, 0.99, 1.0]
THETAS = np.linspace(0.0, math.pi, 41)


def test_xbar0_endpoints():
    assert xbar0(0.0) == 0.0
    assert xbar0(1.0) == pytest.approx(XBAR0_MAX, abs=1e-12)


def test_deformation_bounds():
    for beta in BETAS:
        for theta in THETAS:
            d = boson_deformation(beta, float(theta))
            assert 0.0 <= d.xbar <= d.xbar0 + 1e-15
            assert d.xbar0 <= XBAR0_MAX + 1e-15


def test_phi_decompositions():
    for beta in (0.2, 0.7, 0.95):
        for theta in THETAS:
            t = float(theta)
            phi0 = phi_b(0, beta, t)
            assert phi_b(2, beta, t) + phi_b(3, beta, t) == pytest.approx(phi0, rel=1e-12)
            assert phi_b(1, beta, t) + phi_b(-1, beta, t) == pytest.approx(phi0, rel=1e-12)


def test_pi_component_vanishes_in_orbit_plane():
    for beta in BETAS:
        assert angular_density_b(3, beta, math.pi / 2) == 0.0


def test_shape_integral_at_zero():
    assert shape_integral_b(0.0) == pytest.approx(1.0, abs=1e-10)


def test_shape_integral_vs_riemann():
    # against f(beta) from the exact power series, which replaced the Riemann sum
    for beta in (0.5, 0.9):
        assert shape_integral_b(beta) == pytest.approx(oracles.shape_b_oracle(beta), rel=1e-15,
                                                       abs=0.0)


def test_power_is_prefactor_times_shape():
    beta = 0.8
    power, shape = total_power_b(beta)
    assert power == pytest.approx(4.0 / 81.0 * beta**6 / (1 - beta**2) * shape, rel=1e-12)


def test_power_at_limits():
    assert total_power_b(0.0).power == 0.0
    res = total_power_b(1.0)
    assert math.isinf(res.power) and math.isfinite(res.shape)


def test_normalization():
    for beta in (0.0, 0.5, 0.9, 0.99):
        p0 = density_profile_b(0, beta)
        integral = oracles.midpoint_riemann(
            lambda t: p0(t) * np.sin(t), 0.0, math.pi)
        assert integral == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("s", [1, -1, 2, 3])
def test_half_plane_identity(s):
    # 2 * integral of p_s over the upper half plane equals q_s
    beta = 0.7
    p = density_profile_b(s, beta)
    half = 2.0 * oracles.midpoint_riemann(
        lambda t: p(t) * np.sin(t), 0.0, math.pi / 2)
    assert half == pytest.approx(half_plane_fraction_b(s, beta), abs=1e-8)


def test_half_plane_values_at_rest():
    assert half_plane_fraction_b(0, 0.0) == 1.0
    assert half_plane_fraction_b(2, 0.0) == pytest.approx(0.75, abs=1e-8)
    for g in (1, -1):
        assert half_plane_fraction_b(g, 0.0) == pytest.approx((4 + 3 * g) / 8, abs=1e-8)


def test_half_plane_sums():
    for beta in (0.2, 0.6, 0.9):
        q2 = half_plane_fraction_b(2, beta)
        q3 = half_plane_fraction_b(3, beta)
        qp = half_plane_fraction_b(1, beta)
        qm = half_plane_fraction_b(-1, beta)
        assert q2 + q3 == pytest.approx(1.0, abs=1e-12)
        assert qp + qm == pytest.approx(1.0, abs=1e-12)


def test_density_symmetries():
    beta = 0.85
    for s in (0, 2, 3):
        for theta in np.linspace(0.0, math.pi / 2, 19):
            t = float(theta)
            assert angular_density_b(s, beta, t) == pytest.approx(
                angular_density_b(s, beta, math.pi - t), rel=1e-12)
    # circular components reflect into each other
    for theta in np.linspace(0.0, math.pi / 2, 19):
        t = float(theta)
        assert angular_density_b(1, beta, t) == pytest.approx(
            angular_density_b(-1, beta, math.pi - t), rel=1e-12)


def test_local_polarization_sums_to_one():
    beta = 0.6
    for theta in THETAS:
        t = float(theta)
        assert local_polarization_b(2, beta, t) + local_polarization_b(3, beta, t) \
            == pytest.approx(1.0, rel=1e-12)
        assert local_polarization_b(1, beta, t) + local_polarization_b(-1, beta, t) \
            == pytest.approx(1.0, rel=1e-12)
    assert local_polarization_b(0, beta, 0.3) == 1.0


def test_field_direction_fully_right_polarized():
    # along the field only the right circular component survives
    for beta in (0.0, 0.5, 0.9):
        assert local_polarization_b(1, beta, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert local_polarization_b(-1, beta, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        angular_density_b(0, 1.2, 0.5)
    with pytest.raises(DomainError):
        angular_density_b(0, 0.5, -0.1)
    with pytest.raises(DomainError):
        angular_density_b(4, 0.5, 0.5)
    with pytest.raises(DomainError):
        half_plane_fraction_b(2, -0.5)


def _growth_per_beta(table, one_chunk):
    """How much more memory, per extra beta, a table of 8 copies of a
    one-chunk grid peaks at than a table of that grid; each run starts warm,
    so every chunk of both does the same work."""
    def peak(betas):
        tracemalloc.start()
        rows = table(betas)
        used = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(rows) == len(betas)
        return used

    table(one_chunk * 8)
    return (peak(one_chunk * 8) - peak(one_chunk)) / (7 * len(one_chunk))


def test_beta_scan_memory_is_bounded_by_its_chunk():
    # the integrals of a beta table run GRID_CHUNK betas at a time, so a
    # longer table adds little more than its rows: about 75 bytes a beta,
    # where integrals of the whole grid at once would add about 300
    betas = [0.999 * i / (GRID_CHUNK - 1) for i in range(GRID_CHUNK)]
    assert _growth_per_beta(lambda b: BOSON.power_rows(None, b), betas) < 200


def test_max_angle_scan_memory_is_bounded_by_its_chunk():
    # max_angle_scan refines GRID_CHUNK betas at a time on (n, 361) grids, so
    # a scan 4 times longer peaks at about the memory of one chunk
    def peak(n):
        betas = [0.999 * i / (n - 1) for i in range(n)]
        tracemalloc.start()
        found = sum(1 for _ in max_angle_scan("boson", 0, None, betas))
        used = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert found == n
        return used

    assert peak(4 * GRID_CHUNK) < 2 * peak(GRID_CHUNK)


def test_effective_angle_scan_memory_is_bounded_by_its_chunk(monkeypatch):
    # effective_angle_rows integrates the graded width pieces of GRID_CHUNK
    # betas at a time, up to 8 pieces per electron beta next to 1, so a
    # longer table adds little more than its rows: about 85 bytes a beta,
    # where the pieces of the whole grid at once would add about 16000 (a
    # smaller chunk keeps the electron's x -> 1 quadratures short)
    monkeypatch.setattr(analysis, "GRID_CHUNK", 64)
    betas = [1.0 - 10.0 ** -(2.0 + 7.0 * i / 63) for i in range(64)]
    growth = _growth_per_beta(lambda b: effective_angle_rows("electron", 0, -1, b), betas)
    assert growth < 200
