"""Adaptive Gauss-Kronrod quadrature on finite intervals, many integrals at once.

A 15-point Kronrod rule with its embedded 7-point Gauss rule provides the
local estimate and error of a panel; the panel with the largest error
estimate is bisected until the summed error meets the global tolerance.
Subdivision order is fixed, so results are deterministic for a given
configuration.

``quad_batch`` runs a batch of independent integrals in lockstep.  Each
integral keeps its own heap of panels, tolerance test, frozen error and
result, exactly as if it ran alone (``quad_adaptive`` is the batch of one).
A round first evaluates the whole interval of every integral, then each
round takes one bisection from every integral that is not finished, and
the two halves of all of them share one integrand call on an (n, 15) node
array and one (n, 15) @ (15, 2) product.  This gives the bits of evaluating
each panel on its own:

- the nodes and the integrands are elementwise array expressions, so a
  node's value does not depend on the other rows of the call;
- the rows of an (n, 15) @ (15, 2) product with n >= 2 sum in the order of
  the separate 15-term dot products, for every n (a test pins n = 2 to
  4096, on prefixes and on gathered rows).  A (1, 15) product goes to a
  matrix-vector kernel and differs in the last bit, so a lone panel (the
  first of a batch of one) is reduced by the two dot products themselves;
- an integral's sequence of pops, pushes and sums does not depend on when
  its panels are evaluated.
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


def _panels(f, rows, centre, half):
    """[kronrod, gauss] of each panel, given by lists of centres and half
    widths, row r of integral rows[r], from one integrand call."""
    if len(rows) == 1:  # reduced by the two dot products: see the module docstring
        half = half[0]
        y = f(rows, centre[0] + half * _NODES.reshape(1, 15))[0]
        return [[half * float(_KRONROD_W @ y), half * float(_GAUSS_W @ y)]]
    half = np.array(half).reshape(-1, 1)
    y = f(rows, np.array(centre).reshape(-1, 1) + half * _NODES)
    return (half * (y @ _WEIGHTS)).tolist()


class _Integral:
    """The refinement state of one integral of a batch: worst-error-first
    bisection with a global error budget; the (lo, hi) entries of its heap
    break ties deterministically."""

    __slots__ = ("index", "sign", "a", "b", "heap", "total", "total_err", "frozen_err")

    def __init__(self, index, sign, a, b):
        self.index, self.sign, self.a, self.b = index, sign, a, b
        self.frozen_err = 0.0

    def result(self, cfg):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(self.total))
        if self.total_err > tol and self.frozen_err > 0.0:
            return ConvergenceError(
                f"quadrature did not converge at max_depth={cfg.max_depth}: "
                f"residual error bound {self.total_err:.3e} exceeds tolerance {tol:.3e}",
                estimate=self.sign * self.total,
                error_bound=self.total_err,
            )
        return self.sign * self.total


def quad_batch(f, intervals, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Integrate integral i over [a, b] = ``intervals[i]`` for every i, in lockstep.

    ``f(rows, t)`` takes an (n, 15) array ``t`` of nodes, row r belonging to
    integral ``rows[r]`` (a list of ints), and returns the (n, 15) values,
    elementwise, so that a node's value does not depend on the other nodes of
    the call.  Each integrand must be finite on its interval.  Returns, per
    integral, its value, or the ConvergenceError (carrying the best estimate
    and an error bound) that ``quad_adaptive`` raises for it when some
    subinterval still fails its tolerance share at ``max_depth``.
    """
    abs_tol, rel_tol, max_depth = cfg.abs_tol, cfg.rel_tol, cfg.max_depth
    results = [0.0] * len(intervals)
    # (integral, the panel it bisects, or None for its whole interval) of each
    # integral whose panels the next round evaluates
    waiting, rows, centre, half = [], [], [], []
    for i, (a, b) in enumerate(intervals):
        if b != a:
            sign = 1.0
            if b < a:
                a, b, sign = b, a, -1.0
            waiting.append((_Integral(i, sign, a, b), None))
            rows.append(i)
            centre.append(0.5 * (a + b))
            half.append(0.5 * (b - a))
    while waiting:
        panels = iter(_panels(f, rows, centre, half))
        evaluated, waiting, rows, centre, half = waiting, [], [], [], []
        for q, split in evaluated:
            left, left_g = next(panels)
            if split is None:
                total_err = abs(left - left_g)
                heap = q.heap = [(-total_err, q.a, q.b, left, 0)]
                total = left
            else:
                neg_err, lo, mid, hi, est, depth = split
                right, right_g = next(panels)
                left_err, right_err = abs(left - left_g), abs(right - right_g)
                total = q.total + (left + right - est)
                total_err = q.total_err + (left_err + right_err + neg_err)
                heap = q.heap
                heapq.heappush(heap, (-left_err, lo, mid, left, depth + 1))
                heapq.heappush(heap, (-right_err, mid, hi, right, depth + 1))
            q.total, q.total_err, frozen_err, split = total, total_err, q.frozen_err, None
            while heap:
                tol = max(abs_tol, rel_tol * abs(total))
                if total_err <= tol or frozen_err > tol:
                    break
                neg_err, lo, hi, est, depth = heapq.heappop(heap)
                if -neg_err <= 0.0:
                    break  # remaining refinable error is zero; nothing to gain
                if depth >= max_depth or hi - lo <= 1e-15 * (q.b - q.a):
                    # cannot refine further; its error stays in the budget
                    frozen_err += -neg_err
                    continue
                mid = 0.5 * (lo + hi)
                split = (neg_err, lo, mid, hi, est, depth)
                break
            q.frozen_err = frozen_err
            if split is None:
                results[q.index] = q.result(cfg)
                continue
            waiting.append((q, split))
            rows += (q.index, q.index)
            centre += (0.5 * (lo + mid), 0.5 * (mid + hi))
            half += (0.5 * (mid - lo), 0.5 * (hi - mid))
    return results


def quad_adaptive(f, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integrate ``f`` over [a, b] to the tolerances in ``cfg``: the batch of
    one of ``quad_batch``.

    ``f`` must be vectorized and finite on [a, b]: it is called with an
    (n, 15) array of nodes and returns their values, elementwise.  Raises
    ConvergenceError (carrying the best estimate and an error bound) if
    some subinterval still fails its tolerance share at ``max_depth``.
    """
    (value,) = quad_batch(lambda rows, t: f(t), [(a, b)], cfg)
    if isinstance(value, ConvergenceError):
        raise value
    return value
