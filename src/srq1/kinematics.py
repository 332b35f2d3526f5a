"""Energy/field/velocity relations and emitted photon frequencies.

A particle of kind ``boson`` (spin 0) or ``electron`` (spin 1/2) on level
n in a uniform field B = H/H0 has

    gamma^2 = 1 + (2n + 1) B   (boson)
    gamma^2 = 1 + 2 n B        (electron)

with beta^2 = 1 - 1/gamma^2.  Only negative charge is modeled.  beta = 1 is
representable (B is then infinite); field-based constructors never produce
it and cannot be asked for it.

``photon_frequency`` takes a scalar theta or a theta array.  Its array
helpers also serve ``family`` (densities, polarization) and ``electron``
(limit profiles).  ``elementwise_pow`` takes Python's float pow per element:
numpy's array pow may differ from the scalar pow of one point in the last
bit, and a theta scan must give the same floats as a point-by-point
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

VALID_S = (0, 1, -1, 2, 3)


def validate_s(s: int) -> int:
    if s not in VALID_S:
        raise DomainError(f"polarization label must be one of {VALID_S}, got {s}")
    return s


def validate_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")


def validate_theta(theta):
    """Reject a scalar or array theta outside [0, pi], naming the first such value."""
    t = np.asarray(theta)
    inside = (0.0 <= t) & (t <= math.pi)
    if not inside.all():
        bad = theta if t.ndim == 0 else float(t[inside.argmin()])
        raise DomainError(f"theta must lie in [0, pi], got {bad}")


def elementwise_pow(v, n):
    """v ** n with Python's float pow, one element at a time: the same bits as
    the scalar pow of each point, which numpy's array pow does not promise."""
    flat = np.ravel(v).tolist()
    return np.fromiter(map(pow, flat, itertools.repeat(n)), float, len(flat)).reshape(
        np.shape(v))


def like_theta(values, theta):
    """values as a float for a scalar theta, else as an array."""
    return float(values) if np.ndim(theta) == 0 else np.asarray(values, dtype=float)


@dataclass(frozen=True)
class ParticleSpec:
    """Particle kind plus, for electrons, the initial transverse spin."""

    kind: str
    zeta: int | None = None

    def __post_init__(self):
        if self.kind not in ("boson", "electron"):
            raise DomainError(f"kind must be 'boson' or 'electron', got {self.kind!r}")
        if self.kind == "electron":
            if self.zeta not in (1, -1):
                raise DomainError("electron spec requires zeta in {+1, -1}")
        elif self.zeta is not None:
            raise DomainError("boson spec must not carry a spin quantum number")


def boson() -> ParticleSpec:
    return ParticleSpec("boson")


def electron(zeta: int = -1) -> ParticleSpec:
    return ParticleSpec("electron", zeta)


@dataclass(frozen=True)
class KinematicState:
    beta: float
    gamma: float
    B: float
    n: int


@dataclass(frozen=True)
class PhotonRequest:
    nu: int
    theta: float  # or an array of angles


def _nbar(spec: ParticleSpec, n: int) -> float:
    # effective level: gamma^2 = 1 + 2 nbar B
    return n + 0.5 if spec.kind == "boson" else float(n)


def _check_level(n):
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"level must be a nonnegative integer, got {n}")


def state_from_field(spec: ParticleSpec, n: int, B: float) -> KinematicState:
    """State of a level-n particle in field B (units of the critical field)."""
    _check_level(n)
    if not B >= 0:
        raise DomainError(f"field must be nonnegative, got {B}")
    if math.isinf(B):
        raise DomainError("field-based construction rejects B = infinity; "
                          "use state_from_beta with beta = 1")
    gamma = math.sqrt(1.0 + 2 * _nbar(spec, n) * B)
    beta = math.sqrt(1.0 - 1.0 / gamma**2)
    return KinematicState(beta=beta, gamma=gamma, B=B, n=n)


def state_from_beta(spec: ParticleSpec, n: int, beta: float) -> KinematicState:
    """State with given speed; inverts the level equation for B."""
    _check_level(n)
    validate_beta(beta)
    m = 2 * _nbar(spec, n)
    if beta == 1.0:
        return KinematicState(beta=1.0, gamma=math.inf, B=math.inf, n=n)
    gamma = 1.0 / math.sqrt(1.0 - beta**2)
    if m == 0:
        if beta > 0:
            raise DomainError("electron at n = 0 has no field giving beta > 0")
        return KinematicState(beta=0.0, gamma=1.0, B=0.0, n=n)
    B = (gamma**2 - 1.0) / m
    return KinematicState(beta=beta, gamma=gamma, B=B, n=n)


def photon_frequency(spec: ParticleSpec, state: KinematicState, req: PhotonRequest):
    """Frequency of harmonic nu at angle theta (a scalar or an array), in
    units m0*c^2/hbar.

    Maximal at theta = pi/2, minimal at theta = 0; for equal gamma and
    n = nu = 1 the electron frequency exceeds the boson one.
    """
    if not 1 <= req.nu <= state.n:
        raise DomainError(f"harmonic nu={req.nu} is not radiated from level n={state.n}")
    validate_theta(req.theta)
    r = req.nu / _nbar(spec, state.n)
    b2 = state.beta**2
    sin2 = elementwise_pow(np.sin(req.theta), 2)
    return like_theta(r * state.gamma * b2 / (1.0 + np.sqrt(1.0 - r * b2 * sin2)), req.theta)


def power_prefactor(beta: float) -> float:
    """A(beta) = beta^6/(1 - beta^2); infinite at beta = 1."""
    validate_beta(beta)
    if beta == 1.0:
        return math.inf
    return beta**6 / (1.0 - beta**2)
