"""Cross-particle comparisons and derived observables.

Power ratio at equal gamma and level, its crossover speed, the reference
table of shape factors, interior maxima of the angular densities with their
large-gamma asymptotics, and RMS effective angular widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import boson, electron, family
from .errors import ConvergenceError, DomainError
from .family import HALF_PI
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_adaptive


# golden-section interior-point ratios
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class Particle(NamedTuple):
    """A particle's public functions with the electron's signatures (the
    boson's drop zeta).  Each is looked up on its module at every call, so
    a wrapper or test double installed there sees the call."""

    family: family.Family
    profile: Callable      # (s, zeta, beta, cfg) -> (theta -> p_s)
    density: Callable      # (s, zeta, beta, theta, cfg) -> p_s, theta an array or not
    q_local: Callable      # (s, zeta, beta, theta) -> phi_s/phi_0
    q_halfplane: Callable  # (s, zeta, beta, cfg) -> q_s
    fractions: Callable    # (zeta, beta, cfg) -> {s: q_s}
    power: Callable        # (zeta, beta, cfg) -> PowerResult


PARTICLES = {
    "boson": Particle(
        family.BOSON,
        lambda s, zeta, beta, cfg: boson.density_profile_b(s, beta, cfg),
        lambda s, zeta, beta, theta, cfg: boson.angular_density_b(s, beta, theta, cfg),
        lambda s, zeta, beta, theta: boson.local_polarization_b(s, beta, theta),
        lambda s, zeta, beta, cfg: boson.half_plane_fraction_b(s, beta, cfg),
        lambda zeta, beta, cfg: boson.half_plane_fractions_b(beta, cfg),
        lambda zeta, beta, cfg: boson.total_power_b(beta, cfg)),
    "electron": Particle(
        family.ELECTRON,
        lambda *args: electron.density_profile_e(*args),
        lambda *args: electron.angular_density_e(*args),
        lambda *args: electron.local_polarization_e(*args),
        lambda *args: electron.half_plane_fraction_e(*args),
        lambda *args: electron.half_plane_fractions_e(*args),
        lambda *args: electron.total_power_e(*args)),
}


@dataclass(frozen=True)
class RatioRow:
    beta: float
    f_b: float
    f_e: float
    k_minus: float  # zeta = -1 (no spin flip)
    k_plus: float   # zeta = +1 (spin flip), equals x0(beta) * k_minus


@dataclass(frozen=True)
class ExtremumReport:
    kind: str
    s: int
    zeta: int | None
    beta: float
    theta_max: float | None
    p_max: float | None
    exists: bool


@dataclass(frozen=True)
class EffectiveAngleReport:
    kind: str
    s: int
    zeta: int | None
    beta: float
    delta: float
    definition_id: str = "rms"


def power_ratio(zeta: int, beta: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron-to-boson total power ratio k(zeta; beta) at equal gamma, n = 1.

    k(-1; beta) = (27/8) f_e(beta)/f_b(beta); k(+1) = x0(beta) * k(-1).
    """
    if zeta not in (1, -1):
        raise DomainError(f"zeta must be +1 or -1, got {zeta}")
    k_minus = 27.0 / 8.0 * electron.shape_integral_e(beta, cfg) / boson.shape_integral_b(beta, cfg)
    return k_minus if zeta == -1 else electron.x0(beta) * k_minus


def crossover_beta(cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Speed beta0 where the spin-flip channel starts to outradiate the
    boson (k(+1; beta0) = 1), found by bisection to 1e-8, plus gamma0."""
    lo, hi = 0.5, 0.95
    f_lo = power_ratio(1, lo, cfg) - 1.0
    f_hi = power_ratio(1, hi, cfg) - 1.0
    if f_lo * f_hi > 0:
        raise ConvergenceError(
            "crossover not bracketed on [0.5, 0.95]; upstream regression?"
        )
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        f_mid = power_ratio(1, mid, cfg) - 1.0
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    beta0 = 0.5 * (lo + hi)
    return beta0, 1.0 / math.sqrt(1.0 - beta0 * beta0)


def table1(cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[RatioRow]:
    """Shape factors and power ratios for beta = 0.0, 0.1, ..., 1.0."""
    rows = []
    for i in range(11):
        beta = i / 10.0
        fb = boson.shape_integral_b(beta, cfg)
        fe = electron.shape_integral_e(beta, cfg)
        k_minus = 27.0 / 8.0 * fe / fb
        rows.append(RatioRow(beta=beta, f_b=fb, f_e=fe, k_minus=k_minus,
                             k_plus=electron.x0(beta) * k_minus))
    return rows


def _golden_max(f, a, b, tol=1e-10):
    h = b - a
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
    return 0.5 * (a + b)


def _density_profile(kind, s, zeta, beta, cfg):
    if kind not in PARTICLES:
        raise DomainError(f"kind must be 'boson' or 'electron', got {kind!r}")
    return PARTICLES[kind].profile(s, -1 if zeta is None else zeta, beta, cfg)


def max_angle(kind: str, s: int, zeta: int | None, beta: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> ExtremumReport:
    """Locate an interior maximum of p_s on (0, pi/2), if any.

    A coarse 361-point scan is refined around its best point (the maxima
    approach pi/2 faster than any fixed grid resolves as gamma grows); an
    interior maximum is declared only if some refined interior value
    exceeds both endpoint values by more than 1e-12.  Eight scans shrink
    the bracket by 180^8 to a few ulps, and its midpoint is theta_max.
    """
    if s not in (0, 1, 3):
        raise DomainError(f"extrema are tracked for s in (0, 1, 3), got {s}")
    profile = _density_profile(kind, s, zeta, beta, cfg)
    p_lo = float(profile(0.0))
    p_hi = float(profile(HALF_PI))

    a, b = 0.0, HALF_PI
    best_t, best_p = 0.0, p_lo
    for _ in range(8):
        grid = np.linspace(a, b, 361)
        vals = np.asarray(profile(grid))
        i = int(vals.argmax())
        if vals[i] > best_p:
            best_t, best_p = float(grid[i]), float(vals[i])
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]

    exists = (0.0 < best_t < HALF_PI and best_p > p_lo + 1e-12
              and best_p > p_hi + 1e-12)
    theta = 0.5 * (a + b) if exists else None
    return ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta, theta_max=theta,
                          p_max=float(profile(theta)) if exists else None,
                          exists=exists)


def asymptotic_max_angle(s: int, gamma: float) -> float:
    """Large-gamma position of the interior maximum of p_s."""
    if not gamma > 1.0:
        raise DomainError(f"gamma must exceed 1, got {gamma}")
    if s == 0:
        return HALF_PI - 2.0 / gamma**2
    if s == 1:
        return HALF_PI - (2.0 * gamma**2) ** (-1.0 / 3.0)
    if s == 3:
        return HALF_PI - gamma**-0.5
    raise DomainError(f"asymptotics are known for s in (0, 1, 3), got {s}")


def effective_angle(kind: str, s: int, zeta: int | None, beta: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG,
                    definition: str = "rms") -> EffectiveAngleReport:
    """Angular width of p_s about the orbit plane.

    definition="rms" (default):

        delta^2 = int (theta - pi/2)^2 p_s dOmega / int p_s dOmega

    over [0, pi].  definition="peak" is the equivalent half-width
    int p_s sin(theta) dtheta / (2 max_theta p_s): the half-width of the
    rectangular profile with the same area and peak height.  The convention
    used is recorded in ``definition_id``.
    """
    if definition not in ("rms", "peak"):
        raise DomainError(f"unknown width definition {definition!r}")
    profile = _density_profile(kind, s, zeta, beta, cfg)

    def plain(theta):
        return profile(theta) * np.sin(theta)

    if definition == "rms":
        def weighted(theta):
            return (theta - HALF_PI) ** 2 * profile(theta) * np.sin(theta)

        num = quad_adaptive(weighted, 0.0, math.pi, cfg)
        den = quad_adaptive(plain, 0.0, math.pi, cfg)
        delta = math.sqrt(num / den)
    else:
        area = quad_adaptive(plain, 0.0, math.pi, cfg)
        grid = np.linspace(0.0, math.pi, 2001)
        i = int(np.asarray(profile(grid)).argmax())
        peak = float(profile(_golden_max(
            lambda t: float(profile(t)),
            grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])))
        delta = area / (2.0 * peak)
    return EffectiveAngleReport(kind=kind, s=s, zeta=zeta, beta=beta,
                                delta=delta, definition_id=definition)
