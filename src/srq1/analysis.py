"""Cross-particle comparisons and derived observables.

Power ratio at equal gamma and level, its crossover speed, the reference
table of shape factors, interior maxima of the angular densities with their
large-gamma asymptotics, and RMS effective angular widths.

A beta quantity (``power_ratio_rows``, ``table1_rows`` and
``effective_angle_rows``) is one array over its beta grid, as in
``family``: the f_2, f_3 of each particle from ``Family.f_table``, the
ratios as columns, and the weighted and plain width integrals of
``GRID_CHUNK`` betas from one profile call at the nodes of a fixed
Gauss-Legendre rule (``quadrature``).  ``max_angle_scan`` yields a report per
beta and locates ``GRID_CHUNK`` betas at a time in lockstep: one coarse
scan of [0, pi/2], one row broadcast against the betas, brackets each
maximum, and ``_root`` finds the zero of the slope dp/dtheta in every
bracket together, one profile call per step.  The slope is the complex
step of the density body itself (``_slope``), so there is no second
formula.  ``crossover_beta`` takes its root with ``_root`` too.  A width
integrates over [0, pi/2] only, on pieces graded toward pi/2 at 1/gamma,
where the integrands are analytic, so a fixed rule converges geometrically
on each; s = +-1 takes the width of s = 0.  Each value keeps the bits of its
one-beta evaluation, which reads row 0 of its table (the report of a scan
of one beta for a maximum).  A table checks its betas before any integral,
as ``family``'s do (a width table and ``max_angle_scan`` per ``GRID_CHUNK``
of them), and then raises, before any row is returned, the first failed
integral in grid order: the electron's f_k before the boson's in a ratio
(the boson's first in ``table1``), and a width's f_2, f_3, then its
weighted integral, then its plain one, each failing as soon as its error
estimate exceeds the tolerance.
The maxima and widths read p_s from the profiles of
``Family.density_profiles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import boson, electron, family, kinematics, quadrature
from .errors import ConvergenceError, DomainError, checked
from .family import GRID_CHUNK, HALF_PI
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .quadrature import quad_adaptive  # noqa: F401  (only for bench/trace_layers to wrap)


# the coarse scan of max_angle, one row for every beta
_COARSE = np.linspace(0.0, HALF_PI, 361)[None]
# the complex step of the slope of p: Im p(theta + ih)/h
_STEP = 1e-100


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


def _shapes(first, second, betas, cfg):
    """(beta, f(beta) of ``first``, f(beta) of ``second``, the electron's x0)
    as arrays, from the f_2, f_3 of each particle; after every beta is
    checked, raises the first failed f_k in beta order, ``first``'s before
    ``second``'s."""
    (beta, (_, _, x_a, _), f_a, failed_a), (_, (_, _, x_b, _), f_b, failed_b) = (
        fam.f_table((2, 3), betas, cfg) for fam in (first, second))
    checked([a if a is not None else b for a, b in zip(failed_a, failed_b)])
    return beta, first.shape(x_a, f_a), second.shape(x_b, f_b), x_a if first.spin else x_b


def power_ratio_rows(zeta: int, betas, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The (n, 2) array of beta and ``power_ratio``."""
    if zeta not in (1, -1):
        raise DomainError(f"zeta must be +1 or -1, got {zeta}")
    beta, fe, fb, x0 = _shapes(electron.ELECTRON, boson.BOSON, betas, cfg)
    k_minus = 27.0 / 8.0 * fe / fb
    return np.column_stack((beta, k_minus if zeta == -1 else x0 * k_minus))


def power_ratio(zeta: int, beta: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Electron-to-boson total power ratio k(zeta; beta) at equal gamma, n = 1.

    k(-1; beta) = (27/8) f_e(beta)/f_b(beta); k(+1) = x0(beta) * k(-1).
    """
    return power_ratio_rows(zeta, [beta], cfg)[0, 1].item()


def crossover_beta(cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Speed beta0 where the spin-flip channel starts to outradiate the
    boson (k(+1; beta0) = 1), the root of k(+1) - 1 on [0.5, 0.95] by
    ``_root`` to 1e-13, plus gamma0."""
    def f(_, betas):
        return power_ratio_rows(1, betas, cfg)[:, 1] - 1.0

    lo, hi = np.array([0.5]), np.array([0.95])
    f_lo, f_hi = f(None, lo), f(None, hi)
    if f_lo[0] * f_hi[0] > 0:
        raise ConvergenceError(
            "crossover not bracketed on [0.5, 0.95]; upstream regression?"
        )
    beta0 = float(_root(f, lo, hi, f_lo, f_hi, 1e-13)[0])
    return beta0, 1.0 / math.sqrt(1.0 - beta0 * beta0)


def table1_rows(cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The (11, 5) array of ``table1``: beta, f_b, f_e, k_minus and k_plus."""
    # the boson's errors come first, as in a sequential evaluation
    beta, fb, fe, x0 = _shapes(boson.BOSON, electron.ELECTRON, [i / 10.0 for i in range(11)], cfg)
    k_minus = 27.0 / 8.0 * fe / fb
    return np.column_stack((beta, fb, fe, k_minus, x0 * k_minus))


def table1(cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[RatioRow]:
    """Shape factors and power ratios for beta = 0.0, 0.1, ..., 1.0."""
    return [RatioRow(*row) for row in table1_rows(cfg).tolist()]


def _particle(kind):
    if kind not in PARTICLES:
        raise DomainError(f"kind must be 'boson' or 'electron', got {kind!r}")
    return PARTICLES[kind]


def _root(g, a, b, ga, gb, tol):
    """A root of g in each bracket [a[i], b[i]], whose end values ga[i] =
    g(a[i]) and gb[i] = g(b[i]) differ in sign, to tol: the end of smaller
    |g| once the bracket is at most tol wide.  g(i, x) is the values at x[j]
    of the rows i[j].  The rows run in lockstep until the slowest has
    converged, each on its own values alone.  A row takes the secant step
    through its last two iterates, its bracket ends at first, where that
    step stays in its bracket and is shorter than half its step before
    last, and bisects otherwise; a step shorter than tol/2 goes tol/2
    toward the far end of the bracket, which then closes on a root that
    close (Brent, 1973, ch. 4).  Superlinear next to a simple root, and never
    slower than one halving in two steps."""
    root = np.array(b, dtype=float)
    i = np.arange(len(root))
    x0, g0, x1, g1 = a, ga, b, gb
    d1 = d2 = np.full(len(i), np.inf)  # the last step and the one before
    while i.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x1 - g1 * (x1 - x0) / (g1 - g0)
        # the last iterate is an end of the bracket
        inside = (a < x) & (x < b) | (x == x1)
        x = np.where(inside & (np.abs(x - x1) < 0.5 * d2), x, a + 0.5 * (b - a))
        x = np.where(np.abs(x - x1) < 0.5 * tol, x1 + np.where(x1 == a, 0.5, -0.5) * tol, x)
        x0, g0, x1, g1, d1, d2 = x1, g1, x, g(i, x), np.abs(x - x1), d1
        left = (g1 > 0) == (ga > 0)
        a, ga = np.where(left, x1, a), np.where(left, g1, ga)
        b, gb = np.where(left, b, x1), np.where(left, gb, g1)
        root[i] = np.where(np.abs(ga) < np.abs(gb), a, b)
        going = b - a > tol
        i, x0, g0, x1, g1, d1, d2, a, b, ga, gb = (
            v[going] for v in (i, x0, g0, x1, g1, d1, d2, a, b, ga, gb))
    return root


def _slope(profile, rows, theta):
    """(dp/dtheta)/cos(theta) of the profile's row rows[i] at theta[i, j]:
    dp/dtheta is the complex step Im p(theta + ih)/h (Squire & Trapp, SIAM
    Rev. 40, 1998), exact to rounding since no difference is taken.  Over
    cos it keeps its sign at pi/2, where dp/dtheta of s = 0 and 3 vanishes
    by symmetry.  A single angle is evaluated twice: numpy multiplies one
    complex value in place by another loop than two or more, and its last
    bit can differ."""
    z = np.repeat(theta, 2, axis=1) if theta.size == 1 else theta
    return (profile(rows, z + _STEP * 1j).imag / _STEP / np.cos(z))[:, :theta.shape[1]]


def max_angle_scan(kind: str, s: int, zeta: int | None, betas,
                   cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Yield the ``max_angle`` report of each beta, in order.

    The betas of GRID_CHUNK at a time are located in lockstep: one batch of
    normalizations, then profile calls for p(0) and p(pi/2) of every beta,
    for the coarse scan, for the slopes at the bracket ends, one per step of
    ``_root`` on the rows still converging, and one for p_max.  A row's
    values are those of its one-beta scan.  The error of the first beta
    whose normalization fails is raised when that beta is reached.
    """
    if s not in (0, 1, 3):
        raise DomainError(f"extrema are tracked for s in (0, 1, 3), got {s}")
    fam = _particle(kind).family
    fam.check_betas(betas[:1], zeta)  # zeta on an empty grid too
    for start in range(0, len(betas), GRID_CHUNK):
        chunk = betas[start:start + GRID_CHUNK]
        profile, failed = fam.density_profiles(s, zeta, chunk, cfg)
        # the electron's beta = 1 profile depends on theta through |cos theta|
        # alone and rises toward pi/2: it has no interior maximum
        body = [e is None and not fam.at_limit(beta) for beta, e in zip(chunk, failed)]
        rows = np.flatnonzero(body)
        p_lo, p_hi = profile(rows, np.array([[0.0, HALF_PI]])).T
        i = profile(rows, _COARSE).argmax(axis=1)
        a = _COARSE[0, np.maximum(i - 1, 0)]
        b = _COARSE[0, np.minimum(i + 1, _COARSE.size - 1)]
        ga, gb = _slope(profile, rows, np.stack([a, b], axis=1)).T
        # the rows whose p rises into the bracket and falls out of it
        up = np.flatnonzero((ga > 0) & (gb < 0))
        theta = np.full(len(rows), HALF_PI)  # where no root is bracketed
        theta[up] = _root(lambda j, t: _slope(profile, rows[up[j]], t[:, None])[:, 0],
                          a[up], b[up], ga[up], gb[up], 1e-14)
        p_max = np.zeros(len(rows))
        p_max[up] = profile(rows[up], theta[up, None])[:, 0]
        exists = (theta < HALF_PI) & (p_max > p_lo + 1e-12) & (p_max > p_hi + 1e-12)
        found = zip(exists.tolist(), theta.tolist(), p_max.tolist())
        for beta, error, in_body in zip(chunk, failed, body):
            if error is not None:
                raise error
            ok, theta_max, p = next(found) if in_body else (False, None, None)
            yield ExtremumReport(kind=kind, s=s, zeta=zeta, beta=beta,
                                 theta_max=theta_max if ok else None,
                                 p_max=p if ok else None, exists=ok)


def max_angle(kind: str, s: int, zeta: int | None, beta: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> ExtremumReport:
    """Locate an interior maximum of p_s on (0, pi/2), if any.

    The best point of a 361-point scan of [0, pi/2] and its two neighbours
    bracket the maximum; where the slope g = (dp/dtheta)/cos(theta) falls
    from positive to negative across that bracket, theta_max is its root,
    to 1e-14 (``_root``).  (The maxima approach pi/2 faster
    than any fixed grid resolves as gamma grows, so a maximum may sit in the
    last cell; over cos, the slope keeps its sign at pi/2.)  An interior
    maximum is declared only if p_max, p at theta_max, exceeds both endpoint
    values by more than 1e-12.  This is ``max_angle_scan`` of one beta,
    which runs the root finder over a whole beta grid in lockstep.
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


def _chunk_widths(profile, failed, chunk, cfg):
    """The widths of a chunk of betas from its ``density_profiles``: one
    profile call at the ``quadrature.nodes`` of every ``_width_pieces`` piece
    of each beta whose normalization converged.  The weighted and the plain
    integral of a piece come from the same profile values, reduced by one
    ``quadrature.sums``; a beta's two integrals add its pieces' values and
    error estimates from theta = 0 up.  Raises the first failure in beta
    order (within a beta f_2, f_3, the weighted integral, then the plain
    one).  Its arrays go when it returns, before the next chunk's."""
    pieces = [[] if error is not None else _width_pieces(beta)
              for beta, error in zip(chunk, failed)]
    counts = [len(q) for q in pieces]
    lo, hi = np.array([piece for q in pieces for piece in q]).reshape(-1, 2).T
    theta, half = quadrature.nodes(lo, hi)
    p = profile(np.repeat(np.arange(len(chunk)), counts), theta) * np.sin(theta)
    # every piece's weighted integral, then every piece's plain integral
    values, errors = quadrature.sums(np.concatenate(((theta - HALF_PI) ** 2 * p, p)),
                                     np.concatenate((half, half)))
    n = len(lo)
    parts = np.column_stack((values[:n], errors[:n], values[n:], errors[n:])).tolist()
    ends = np.cumsum(counts).tolist()
    deltas = []
    for error, i, j in zip(failed, [0, *ends], ends):
        checked([error])
        weighted, weighted_err, plain, plain_err = map(sum, zip(*parts[i:j]))
        weighted, plain = checked([
            quadrature.settled(weighted, weighted_err, cfg, 0.0, HALF_PI),
            quadrature.settled(plain, plain_err, cfg, 0.0, HALF_PI)])
        deltas.append(math.sqrt(weighted / plain))
    return deltas


def effective_angle_rows(kind: str, s: int, zeta: int | None, betas,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The (n, 2) array of beta and the RMS width delta of ``effective_angle``.

    p_0, p_2 and p_3 are even about pi/2, at the beta = 1 limit too, and so
    is the weight (theta - pi/2)^2, so both integrals run over [0, pi/2]
    only.  p_{+-1} = p_0/2 +- a term odd about pi/2, so s = +-1 integrates
    p_0 and its width is delta_0, bit for bit.  Per GRID_CHUNK betas: the
    normalizations f_2, f_3 of their profiles as one batch, then their
    widths by ``_chunk_widths``.  The betas of a chunk are checked first;
    the error then raised is the first in beta order.
    """
    fam = _particle(kind).family
    kinematics.validate_s(s)
    s = 0 if s in (1, -1) else s
    fam.check_betas(betas[:1], zeta)  # zeta on an empty grid too
    deltas = []
    for start in range(0, len(betas), GRID_CHUNK):
        chunk = betas[start:start + GRID_CHUNK]
        deltas += _chunk_widths(*fam.density_profiles(s, zeta, chunk, cfg), chunk, cfg)
    return np.column_stack((np.array(betas, dtype=float), deltas))


def effective_angle(kind: str, s: int, zeta: int | None, beta: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> EffectiveAngleReport:
    """RMS angular width of p_s about the orbit plane,

        delta^2 = int (theta - pi/2)^2 p_s dOmega / int p_s dOmega

    over [0, pi], row 0 of ``effective_angle_rows``, which evaluates it over
    [0, pi/2].
    """
    delta = effective_angle_rows(kind, s, zeta, [beta], cfg)[0, 1].item()
    return EffectiveAngleReport(kind=kind, s=s, zeta=zeta, beta=beta, delta=delta)
