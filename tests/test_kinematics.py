import math

import mpmath
import numpy as np
import pytest

from srq1.errors import DomainError
from srq1.kinematics import (PhotonRequest, boson, electron, photon_frequency,
                             power_prefactor, state_from_beta, state_from_field)


def test_state_from_field_electron():
    st = state_from_field(electron(), 1, 0.5)
    assert st.gamma == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert st.beta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_state_from_field_boson():
    st = state_from_field(boson(), 1, 1.0)
    assert st.gamma == pytest.approx(2.0, abs=1e-12)
    assert st.beta == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_state_from_field_zero():
    st = state_from_field(electron(), 1, 0.0)
    assert st.gamma == 1.0 and st.beta == 0.0


def test_state_from_beta_inversions():
    assert state_from_beta(electron(), 1, math.sqrt(2.0 / 3.0)).B == pytest.approx(1.0, abs=1e-12)
    assert state_from_beta(boson(), 1, math.sqrt(3.0 / 4.0)).B == pytest.approx(1.0, abs=1e-12)
    assert state_from_beta(electron(), 1, 0.0).B == 0.0


def test_beta_one_representable():
    st = state_from_beta(electron(), 1, 1.0)
    assert math.isinf(st.B) and math.isinf(st.gamma)
    with pytest.raises(DomainError):
        state_from_field(electron(), 1, math.inf)


@pytest.mark.parametrize("B", np.linspace(0.01, 5.0, 17))
@pytest.mark.parametrize("make", [boson, electron])
def test_round_trip_field_beta(make, B):
    spec = make()
    st = state_from_field(spec, 1, float(B))
    assert state_from_beta(spec, 1, st.beta).B == pytest.approx(float(B), abs=1e-12)
    # internal consistency of the state itself
    assert st.beta**2 == pytest.approx(1.0 - 1.0 / st.gamma**2, abs=1e-12)


def test_frequency_theta_zero():
    spec = electron()
    for beta in (0.3, 0.8, 0.99):
        st = state_from_beta(spec, 1, beta)
        expected = st.gamma * beta**2 / 2.0
        assert photon_frequency(spec, st, PhotonRequest(1, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_frequency_orbit_plane_closed_form():
    spec = electron()
    st = state_from_beta(spec, 1, 1.0 / math.sqrt(2.0))
    freq = photon_frequency(spec, st, PhotonRequest(1, math.pi / 2))
    assert freq == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


def test_electron_exceeds_boson_at_equal_gamma():
    gamma = 1.7
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    e_spec, b_spec = electron(), boson()
    e_st = state_from_beta(e_spec, 1, beta)
    b_st = state_from_beta(b_spec, 1, beta)
    for theta in np.linspace(0.0, math.pi, 61):
        we = photon_frequency(e_spec, e_st, PhotonRequest(1, float(theta)))
        wb = photon_frequency(b_spec, b_st, PhotonRequest(1, float(theta)))
        assert we > wb


def test_frequency_monotone_and_symmetric():
    spec = boson()
    st = state_from_beta(spec, 1, 0.9)
    thetas = np.linspace(0.0, math.pi / 2, 91)
    vals = [photon_frequency(spec, st, PhotonRequest(1, float(t))) for t in thetas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for t in np.linspace(0.0, math.pi / 2, 31):
        left = photon_frequency(spec, st, PhotonRequest(1, float(t)))
        right = photon_frequency(spec, st, PhotonRequest(1, float(math.pi - t)))
        assert left == pytest.approx(right, rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        state_from_field(electron(), 1, -0.1)
    with pytest.raises(DomainError):
        state_from_field(electron(), -1, 0.5)
    with pytest.raises(DomainError):
        state_from_beta(electron(), 1, 1.5)
    spec = electron()
    st = state_from_beta(spec, 1, 0.5)
    with pytest.raises(DomainError):
        photon_frequency(spec, st, PhotonRequest(2, 0.0))
    with pytest.raises(DomainError):
        photon_frequency(spec, st, PhotonRequest(1, 4.0))


def test_spec_validation():
    with pytest.raises(DomainError):
        electron(0)
    from srq1.kinematics import ParticleSpec
    with pytest.raises(DomainError):
        ParticleSpec("boson", zeta=1)
    with pytest.raises(DomainError):
        ParticleSpec("muon")
    with pytest.raises(DomainError):
        ParticleSpec("electron")


def test_power_prefactor():
    assert power_prefactor(0.0) == 0.0
    assert math.isinf(power_prefactor(1.0))
    beta = 0.6
    assert power_prefactor(beta) == pytest.approx(beta**6 / (1 - beta**2), rel=1e-14)


@pytest.mark.parametrize("k", range(6, 16))
def test_power_prefactor_next_to_beta_one(k):
    # beta^6/((1 - beta)(1 + beta)) against 40-digit mpmath at the float beta:
    # 1 - beta is exact there, where 1 - beta^2 would round beta^2 first
    beta = 1.0 - 10.0 ** -k
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        want = b ** 6 / ((1 - b) * (1 + b))
    assert power_prefactor(beta) == pytest.approx(float(want), rel=1e-14, abs=0.0)
