"""Cross-particle comparisons and derived observables.

Power ratio at equal gamma and level, its crossover speed, the reference
table of shape factors, interior maxima of the angular densities with their
large-gamma asymptotics, and RMS effective angular widths.

The beta scans ``power_ratio_scan``, ``effective_angle_scan`` and
``max_angle_scan`` (and ``table1``) evaluate ``GRID_CHUNK`` betas at a time
together: the f_2, f_3 of each particle in one batch, the weighted and
plain width integrals of every beta in one more, and the refinement scans
of the maxima in lockstep, one (n, 361) profile call per level.  A width
integrates over [0, pi/2] only, on pieces graded toward pi/2 at 1/gamma,
and s = +-1 takes the width of s = 0.  Each value keeps the bits of its
one-beta evaluation, which is the scan of one beta, and the error raised
is the one a beta-by-beta evaluation meets first: betas in grid order, the
electron's f_k before the boson's in a ratio (the boson's first in
``table1``), and a width's f_2, f_3, weighted pieces, then plain pieces.
The maxima and widths read p_s from the profiles of
``Family.density_profiles``, the peak width from its one-beta
``density_profile``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import boson, electron, family, kinematics
from .errors import ConvergenceError, DomainError, checked
from .family import GRID_CHUNK, HALF_PI
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_adaptive, quad_batch


# golden-section interior-point ratios
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# points of each refinement scan of max_angle
_SCAN_POINTS = 361


class Particle(NamedTuple):
    """A particle's record and its public functions with the electron's
    signatures (the boson's drop zeta).  Each function is looked up on its
    module at every call, so a wrapper or test double installed there sees
    the call."""

    family: family.Family
    density: Callable      # (s, zeta, beta, theta, cfg) -> p_s, theta an array or not
    q_local: Callable      # (s, zeta, beta, theta) -> phi_s/phi_0


PARTICLES = {
    "boson": Particle(
        boson.BOSON,
        lambda s, zeta, beta, theta, cfg: boson.angular_density_b(s, beta, theta, cfg),
        lambda s, zeta, beta, theta: boson.local_polarization_b(s, beta, theta)),
    "electron": Particle(
        electron.ELECTRON,
        lambda *args: electron.angular_density_e(*args),
        lambda *args: electron.local_polarization_e(*args)),
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


def power_ratio_scan(zeta: int, betas, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Yield ``power_ratio`` at each beta, in order.  The f_2, f_3 of both
    particles at GRID_CHUNK betas at a time run as one batch per particle,
    and the first error of a sequential evaluation (betas in order, the
    electron's before the boson's) is raised when its beta is reached."""
    if zeta not in (1, -1):
        raise DomainError(f"zeta must be +1 or -1, got {zeta}")
    shapes = zip(electron.ELECTRON.shape_integral_scan(betas, cfg),
                 boson.BOSON.shape_integral_scan(betas, cfg))
    for beta, (fe, fb) in zip(betas, shapes):
        k_minus = 27.0 / 8.0 * fe / fb
        yield k_minus if zeta == -1 else electron.x0(beta) * k_minus


def power_ratio(zeta: int, beta: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron-to-boson total power ratio k(zeta; beta) at equal gamma, n = 1.

    k(-1; beta) = (27/8) f_e(beta)/f_b(beta); k(+1) = x0(beta) * k(-1).
    """
    return next(power_ratio_scan(zeta, [beta], cfg))


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
    betas = [i / 10.0 for i in range(11)]
    rows = []
    # the boson's errors come first, as in a sequential evaluation
    shapes = zip(boson.BOSON.shape_integral_scan(betas, cfg),
                 electron.ELECTRON.shape_integral_scan(betas, cfg))
    for beta, (fb, fe) in zip(betas, shapes):
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


def _particle(kind):
    if kind not in PARTICLES:
        raise DomainError(f"kind must be 'boson' or 'electron', got {kind!r}")
    return PARTICLES[kind]


def _row_linspace(a, b):
    """Row i is np.linspace(a[i], b[i], 361), bit for bit: k * step + a[i] with
    step = (b[i] - a[i]) / 360, and b[i] last.  np.linspace(a, b, 361, axis=1)
    is not: once any bracket has shrunk to a point, it forms k / 360 * (b - a)
    in every row."""
    step = (b - a) / (_SCAN_POINTS - 1)
    grid = np.arange(_SCAN_POINTS, dtype=float) * step[:, None] + a[:, None]
    grid[:, -1] = b
    return grid


def max_angle_scan(kind: str, s: int, zeta: int | None, betas,
                   cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Yield the ``max_angle`` report of each beta, in order.

    The betas of GRID_CHUNK at a time are located in lockstep: one batch of
    normalizations, one profile call for p(0) and p(pi/2) of every beta, one
    call on an (n, 361) grid per refinement level, whose row i refines beta
    i's bracket exactly as a one-beta scan would, and one call for p_max.  The
    error of the first beta whose normalization fails is raised when that
    beta is reached.  A beta = 1 limit profile has no interior maximum.
    """
    if s not in (0, 1, 3):
        raise DomainError(f"extrema are tracked for s in (0, 1, 3), got {s}")
    fam = _particle(kind).family
    for start in range(0, len(betas), GRID_CHUNK):
        chunk = betas[start:start + GRID_CHUNK]
        profile, failed = fam.density_profiles(s, -1 if zeta is None else zeta, chunk, cfg)
        rows = np.array([i for i, e in enumerate(failed) if e is None], int)
        row = np.arange(len(rows))
        p_lo, p_hi = profile(rows, np.tile([0.0, HALF_PI], (len(rows), 1))).T
        a, b = np.zeros(len(rows)), np.full(len(rows), HALF_PI)
        best_t, best_p = np.zeros(len(rows)), p_lo
        for _ in range(8):
            grid = _row_linspace(a, b)
            vals = profile(rows, grid)
            i = vals.argmax(axis=1)
            better = vals[row, i] > best_p
            best_t = np.where(better, grid[row, i], best_t)
            best_p = np.where(better, vals[row, i], best_p)
            a = grid[row, np.maximum(i - 1, 0)]
            b = grid[row, np.minimum(i + 1, _SCAN_POINTS - 1)]

        exists = ((0.0 < best_t) & (best_t < HALF_PI) & (best_p > p_lo + 1e-12)
                  & (best_p > p_hi + 1e-12))
        theta = 0.5 * (a + b)
        found = zip(exists.tolist(), theta.tolist(), profile(rows, theta[:, None])[:, 0].tolist())
        for beta, error in zip(chunk, failed):
            if error is not None:
                raise error
            ok, theta_max, p_max = next(found)
            # a beta = 1 limit profile depends on theta through |cos theta|
            # alone and rises toward pi/2: it has no interior maximum
            ok = ok and not fam.at_limit(beta)
            yield ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta,
                                 theta_max=theta_max if ok else None,
                                 p_max=p_max if ok else None, exists=ok)


def max_angle(kind: str, s: int, zeta: int | None, beta: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> ExtremumReport:
    """Locate an interior maximum of p_s on (0, pi/2), if any.

    A coarse 361-point scan is refined around its best point (the maxima
    approach pi/2 faster than any fixed grid resolves as gamma grows); an
    interior maximum is declared only if some refined interior value
    exceeds both endpoint values by more than 1e-12.  Eight scans shrink
    the bracket by 180^8 to a few ulps, and its midpoint is theta_max.
    This is ``max_angle_scan`` of one beta, which runs the scans of a whole
    beta grid in lockstep.
    """
    return next(max_angle_scan(kind, s, zeta, [beta], cfg))


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


def _width_pieces(beta):
    """The (lo, hi) pieces of [0, pi/2] that a width integrates, from 0 up:
    cuts at pi/2 - w 4^k while w 4^k < 0.5, with w = min(0.1, 1/gamma) (0.1
    at beta = 1), graded toward the orbit plane where the electron's
    densities narrow to about 1/gamma."""
    w = 0.1 if beta == 1.0 else min(0.1, math.sqrt((1.0 - beta) * (1.0 + beta)))
    cuts = []
    while w < 0.5:
        cuts.append(HALF_PI - w)
        w *= 4.0
    edges = [0.0, *reversed(cuts), HALF_PI]
    return list(zip(edges[:-1], edges[1:]))


def effective_angle_scan(kind: str, s: int, zeta: int | None, betas,
                         cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Yield the RMS width delta of ``effective_angle`` at each beta, in order.

    p_0, p_2 and p_3 are even about pi/2, at the beta = 1 limit too, and so
    is the weight (theta - pi/2)^2, so both integrals run over [0, pi/2]
    only.  p_{+-1} = p_0/2 +- a term odd about pi/2, so s = +-1 integrates
    p_0 and its width is delta_0, bit for bit.  The integrals of GRID_CHUNK
    betas at a time run as two batches: the normalizations f_2, f_3 of their
    profiles, then, for each beta whose normalization converged, the
    weighted and the plain integral on each of its ``_width_pieces``.  A
    beta's sums add its pieces from theta = 0 up.  The first error of a
    sequential evaluation (betas in order; within a beta f_2, f_3, the
    weighted pieces, then the plain pieces) is raised when its beta is
    reached.
    """
    fam = _particle(kind).family
    kinematics.validate_s(s)
    s = 0 if s in (1, -1) else s
    zeta = -1 if zeta is None else zeta
    for start in range(0, len(betas), GRID_CHUNK):
        chunk = betas[start:start + GRID_CHUNK]
        profile, failed = fam.density_profiles(s, zeta, chunk, cfg)
        # a converged beta's weighted pieces, then its plain pieces, in order
        intervals, owner, weighted = [], [], []
        for i, (beta, error) in enumerate(zip(chunk, failed)):
            if error is None:
                beta_pieces = _width_pieces(beta)
                n = len(beta_pieces)
                intervals += beta_pieces * 2
                owner += [i] * (2 * n)
                weighted += [True] * n + [False] * n
        owner, weighted = np.array(owner, int), np.array(weighted, bool)

        def integrand(rows, theta):
            p = profile(owner[rows], theta)
            return np.where(weighted[rows, None], (theta - HALF_PI) ** 2 * p, p) * np.sin(theta)

        values = iter(quad_batch(integrand, intervals, cfg))
        for beta, error in zip(chunk, failed):
            if error is not None:
                raise error
            n = len(_width_pieces(beta))
            parts = checked([next(values) for _ in range(2 * n)])
            yield math.sqrt(sum(parts[:n]) / sum(parts[n:]))


def effective_angle(kind: str, s: int, zeta: int | None, beta: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG,
                    definition: str = "rms") -> EffectiveAngleReport:
    """Angular width of p_s about the orbit plane.

    definition="rms" (default):

        delta^2 = int (theta - pi/2)^2 p_s dOmega / int p_s dOmega

    over [0, pi], which ``effective_angle_scan`` evaluates over [0, pi/2].
    definition="peak" is the equivalent half-width
    int p_s sin(theta) dtheta / (2 max_theta p_s): the half-width of the
    rectangular profile with the same area and peak height.  The convention
    used is recorded in ``definition_id``.
    """
    if definition not in ("rms", "peak"):
        raise DomainError(f"unknown width definition {definition!r}")
    if definition == "rms":
        delta = next(effective_angle_scan(kind, s, zeta, [beta], cfg))
    else:
        profile = _particle(kind).family.density_profile(
            s, -1 if zeta is None else zeta, beta, cfg)
        area = quad_adaptive(lambda theta: profile(theta) * np.sin(theta), 0.0, math.pi, cfg)
        grid = np.linspace(0.0, math.pi, 2001)
        i = int(np.asarray(profile(grid)).argmax())
        peak = float(profile(_golden_max(
            lambda t: float(profile(t)),
            grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])))
        delta = area / (2.0 * peak)
    return EffectiveAngleReport(kind=kind, s=s, zeta=zeta, beta=beta,
                                delta=delta, definition_id=definition)
