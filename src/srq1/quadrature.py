"""Adaptive Gauss-Kronrod quadrature on a finite interval.

A 15-point Kronrod rule with its embedded 7-point Gauss rule provides the
local estimate and error; the interval with the largest error estimate is
bisected until the summed error meets the global tolerance.  Subdivision
order is fixed, so results are deterministic for a given configuration.

The integrand is called once on the 15 nodes of the whole interval, then
once per bisection on the 30 nodes of both halves (left half first), which
halves the number of calls.  This gives the same bits as two 15-node calls:
the node arithmetic is elementwise, the integrands are elementwise array
expressions, and the (2, 15) @ (15, 2) product that reduces both halves
sums in the same order as the separate 15-term dot products (a test pins
this; a matrix-vector product does not).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Gauss-Kronrod 7-15 abscissae (all 15, ascending) and weights.  Gauss
# weights are zero at the Kronrod-only nodes.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_W = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])
# columns: Kronrod, Gauss
_WEIGHTS = np.stack((_KRONROD_W, _GAUSS_W), axis=1)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision limit for adaptive quadrature.

    Defaults give comfortably more than the 5 decimals needed by the
    reference tables.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 60

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_depth < 10:
            raise DomainError(f"max_depth must be >= 10, got {self.max_depth}")


DEFAULT_CONFIG = QuadratureConfig()


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    y = f(0.5 * (a + b) + half * _NODES)
    kronrod = half * float(_KRONROD_W @ y)
    gauss = half * float(_GAUSS_W @ y)
    return kronrod, abs(kronrod - gauss)


def _gk15_halves(f, lo, mid, hi):
    """GK15 estimates and errors of [lo, mid] and [mid, hi] from one call."""
    centre = np.array([0.5 * (lo + mid), 0.5 * (mid + hi)])
    half = np.array([0.5 * (mid - lo), 0.5 * (hi - mid)])
    y = f((centre[:, None] + half[:, None] * _NODES).ravel())
    (lk, lg), (rk, rg) = (half[:, None] * (np.reshape(y, (2, 15)) @ _WEIGHTS)).tolist()
    return lk, abs(lk - lg), rk, abs(rk - rg)


def quad_adaptive(f, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integrate ``f`` over [a, b] to the tolerances in ``cfg``.

    ``f`` must be vectorized and finite on [a, b]: it is called with an
    array of 15 nodes (the whole interval) or 30 nodes (the two halves of a
    bisected panel) and returns their values, elementwise, so that a node's
    value does not depend on the other nodes of the call.  Raises
    ConvergenceError (carrying the best estimate and an error bound) if
    some subinterval still fails its tolerance share at ``max_depth``.
    """
    if b == a:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    span = b - a
    whole, err0 = _gk15(f, a, b)

    # worst-error-first refinement with a global error budget; the (lo, hi)
    # tuple entries break ties deterministically
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
            break  # remaining refinable error is zero; nothing to gain
        width = hi - lo
        if depth >= cfg.max_depth or width <= 1e-15 * span:
            # cannot refine further; its error stays in the budget
            frozen_err += -neg_err
            continue
        mid = 0.5 * (lo + hi)
        left_est, left_err, right_est, right_err = _gk15_halves(f, lo, mid, hi)
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
