import math
import tracemalloc

import numpy as np
import pytest

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
    assert shape_integral_b(0.5) == pytest.approx(oracles.shape_b_oracle(0.5), abs=1e-7)
    assert shape_integral_b(0.9) == pytest.approx(oracles.shape_b_oracle(0.9), abs=1e-7)


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


def test_beta_scan_memory_is_bounded_by_its_chunk():
    # the integrals of a beta scan run GRID_CHUNK betas at a time, so a scan
    # 8 times longer peaks at about the memory of one chunk
    def peak(n):
        betas = [0.999 * i / (n - 1) for i in range(n)]
        tracemalloc.start()
        powers = list(BOSON.total_power_scan(None, betas))
        used = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(powers) == n
        return used

    assert peak(8 * GRID_CHUNK) < 2 * peak(GRID_CHUNK)
