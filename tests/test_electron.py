import math

import numpy as np
import pytest

from srq1.electron import (angular_density_e, density_profile_e,
                           electron_deformation, half_plane_fraction_e,
                           is_double_limit_point, limit_shape,
                           local_polarization_e, phi_e, shape_integral_e,
                           spin_factor, total_power_e,
                           ultrarelativistic_density, x0)
from srq1.errors import AmbiguousLimitError, DomainError

import oracles

E = math.e
TWO_E_MINUS_3 = 2 * E - 3
HALF_PI = math.pi / 2
THETAS = np.linspace(0.0, math.pi, 41)


def test_x0_endpoints():
    assert x0(0.0) == 0.0
    assert x0(1.0) == 1.0
    gamma = 3.0
    beta = math.sqrt(1 - 1 / gamma**2)
    assert x0(beta) == pytest.approx((gamma - 1) / (gamma + 1), abs=1e-12)


def test_deformation_bounds():
    for beta in (0.0, 0.4, 0.9, 1.0):
        for theta in THETAS:
            d = electron_deformation(beta, float(theta))
            assert 0.0 <= d.x <= d.x0 + 1e-15 <= 1.0 + 1e-15


def test_spin_factor():
    assert spin_factor(-1, 0.7) == 1.0
    assert spin_factor(1, 0.7) == pytest.approx(x0(0.7), abs=1e-15)


def test_spin_swap_of_linear_components():
    # phi_2(zeta) = phi_3(-zeta) identically
    for beta in (0.3, 0.8, 0.99):
        for theta in THETAS:
            t = float(theta)
            assert phi_e(2, 1, beta, t) == phi_e(3, -1, beta, t)
            assert phi_e(2, -1, beta, t) == phi_e(3, 1, beta, t)
            assert angular_density_e(2, 1, beta, t) == angular_density_e(3, -1, beta, t)


def test_circular_shapes_are_zeta_independent():
    for beta in (0.3, 0.9):
        for theta in THETAS:
            t = float(theta)
            for g in (1, -1):
                assert phi_e(g, 1, beta, t) == phi_e(g, -1, beta, t)


def test_power_spin_ratio_is_x0():
    for beta in (0.2, 0.6, 0.9):
        ratio = total_power_e(1, beta).power / total_power_e(-1, beta).power
        assert ratio == pytest.approx(x0(beta), abs=1e-12)


def test_shape_integral():
    assert shape_integral_e(0.0) == pytest.approx(1.0, abs=1e-10)
    assert shape_integral_e(0.5) == pytest.approx(oracles.shape_e_oracle(0.5), abs=1e-7)
    assert shape_integral_e(1.0) == pytest.approx(
        3.0 / 4.0 * 2.0 * (2.0 - 3.0 / E), abs=1e-10)


def test_normalization():
    for beta in (0.0, 0.5, 0.9, 0.99):
        for zeta in (1, -1):
            p0 = density_profile_e(0, zeta, beta)
            integral = oracles.midpoint_riemann(
                lambda t: p0(t) * np.sin(t), 0.0, math.pi)
            assert integral == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("s", [1, -1, 2, 3])
@pytest.mark.parametrize("zeta", [1, -1])
def test_half_plane_identity(s, zeta):
    beta = 0.7
    p = density_profile_e(s, zeta, beta)
    half = 2.0 * oracles.midpoint_riemann(
        lambda t: p(t) * np.sin(t), 0.0, math.pi / 2)
    assert half == pytest.approx(half_plane_fraction_e(s, zeta, beta), abs=1e-8)


def test_half_plane_limits():
    assert half_plane_fraction_e(2, -1, 0.0) == pytest.approx(0.75, abs=1e-8)
    for g in (1, -1):
        assert half_plane_fraction_e(g, -1, 0.0) == pytest.approx((4 + 3 * g) / 8, abs=1e-8)
        assert half_plane_fraction_e(g, -1, 1.0) == pytest.approx((1 + g) / 2, abs=1e-6)
    assert half_plane_fraction_e(2, -1, 1.0) == pytest.approx(0.5, abs=1e-6)
    # q_2(zeta) = q_3(-zeta)
    for beta in (0.3, 0.9):
        assert half_plane_fraction_e(2, 1, beta) == pytest.approx(
            half_plane_fraction_e(3, -1, beta), abs=1e-12)


def test_limit_shape_properties():
    assert limit_shape(HALF_PI) == pytest.approx(1.0, abs=1e-12)
    assert limit_shape(0.0) == pytest.approx(E / 8.0, rel=1e-12)
    for theta in np.linspace(0.0, HALF_PI, 21):
        t = float(theta)
        assert limit_shape(t) == pytest.approx(limit_shape(math.pi - t), rel=1e-12)


def test_limit_density_and_shape_share_one_formula():
    # the s = 0 limit density is 2 Theta / (2e - 3), bit for bit
    for theta in (0.0, 0.3, 1.0, HALF_PI, 2.5, math.pi):
        assert ultrarelativistic_density(0, -1, theta) == 2.0 * limit_shape(theta) / TWO_E_MINUS_3
    assert limit_shape(HALF_PI) == 1.0  # cos(pi/2) snaps to 0


def test_ultrarelativistic_density_values():
    # total is twice each linear component; circular halves away from poles
    for theta in (0.3, 1.0, 2.5):
        p0 = ultrarelativistic_density(0, -1, theta)
        assert ultrarelativistic_density(2, -1, theta) == pytest.approx(p0 / 2, rel=1e-12)
        assert ultrarelativistic_density(3, -1, theta) == pytest.approx(p0 / 2, rel=1e-12)
    assert ultrarelativistic_density(0, -1, HALF_PI) == pytest.approx(
        2.0 / TWO_E_MINUS_3, rel=1e-12)
    # only the co-rotating circular component survives toward the field axis
    assert ultrarelativistic_density(-1, -1, 0.1) < ultrarelativistic_density(1, -1, 0.1)


def test_ultrarelativistic_limit_is_normalized():
    integral = oracles.midpoint_riemann(
        lambda t: np.array([ultrarelativistic_density(0, -1, float(v)) for v in t])
        * np.sin(t), 0.0, math.pi, n=10**5)
    assert integral == pytest.approx(1.0, abs=1e-8)


def test_density_approaches_limit_away_from_plane():
    beta = 0.999999
    p0 = density_profile_e(0, -1, beta)
    for theta in np.linspace(0.0, HALF_PI - 0.1, 20):
        t = float(theta)
        assert float(p0(t)) == pytest.approx(
            ultrarelativistic_density(0, -1, t), abs=1e-3)


def test_double_limit_point():
    assert is_double_limit_point(1.0, HALF_PI)
    assert not is_double_limit_point(0.999, HALF_PI)
    assert not is_double_limit_point(1.0, 1.0)
    # a theta array holds the point if any element is pi/2
    assert is_double_limit_point(1.0, np.array([0.0, HALF_PI, math.pi]))
    assert not is_double_limit_point(0.999, np.array([0.0, HALF_PI]))
    assert not is_double_limit_point(1.0, np.array([0.0, 1.0, math.pi]))
    assert not is_double_limit_point(1.0, np.array([]))


def test_beta_one_profile_serves_theta_limit_at_half_pi():
    # fixed-beta theta-limits, in units of 1/(2e - 3): the limit profile,
    # except that the linear component that survives the spin selection has
    # twice the iterated (beta-first) limit and the other one none
    want = {(0, 1): 2.0, (0, -1): 2.0, (1, 1): 1.0, (1, -1): 1.0, (-1, 1): 1.0,
            (-1, -1): 1.0, (2, 1): 0.0, (2, -1): 2.0, (3, 1): 2.0, (3, -1): 0.0}
    for (s, zeta), units in want.items():
        got = float(density_profile_e(s, zeta, 1.0)(HALF_PI))
        assert got == pytest.approx(units / TWO_E_MINUS_3, rel=1e-12, abs=0.0), (s, zeta)
        assert angular_density_e(s, zeta, 1.0, HALF_PI) == got, (s, zeta)
    # away from pi/2 the beta = 1 profile is the limit profile
    p2 = density_profile_e(2, -1, 1.0)
    assert float(p2(1.0)) == pytest.approx(
        ultrarelativistic_density(2, -1, 1.0), rel=1e-12)


def test_local_polarization():
    beta = 0.8
    for theta in np.linspace(0.0, math.pi, 21):
        t = float(theta)
        for zeta in (1, -1):
            assert local_polarization_e(2, zeta, beta, t) + \
                local_polarization_e(3, zeta, beta, t) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(AmbiguousLimitError):
        local_polarization_e(2, -1, 1.0, HALF_PI)
    # fine at beta = 1 away from the ambiguous angle
    assert 0.0 <= local_polarization_e(2, -1, 1.0, 1.0) <= 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        angular_density_e(0, 0, 0.5, 0.5)
    with pytest.raises(DomainError):
        angular_density_e(0, -1, 1.5, 0.5)
    with pytest.raises(DomainError):
        angular_density_e(5, -1, 0.5, 0.5)
    with pytest.raises(DomainError):
        spin_factor(2, 0.5)
