"""Adaptive Gauss-Kronrod quadrature on finite intervals, many integrals at once.

A 15-point Kronrod rule with its embedded 7-point Gauss rule provides the
local estimate and error of a panel, the error kept at or above the rounding
level 50 eps times the panel's integral of |f| as in QUADPACK's dqk15, so
that no tolerance below rounding is met; the panel with the largest error
estimate is bisected until the summed error meets the global tolerance.
Subdivision order is fixed, so results are deterministic for a given
configuration.

``quad_batch`` runs a batch of independent integrals in lockstep.  Each
integral keeps its own heap of panels, tolerance test, frozen error and
result, exactly as if it ran alone (``quad_adaptive`` is the batch of one).
A round first evaluates the whole interval of every integral.  An integral
whose whole-interval panel meets its tolerance is settled there, with no
heap, and with the bits the heap loop would give it; the others start their
heap loop with the bisection of [a, b].  Each further round takes one
bisection from every integral that is not finished, and the two halves of
all of them share one integrand call on an (n, 15) node array, with the
integrals of its rows as one index array, and two (n, 15) @ (15, 2)
products, of f and of |f|.  This gives the bits of evaluating each panel on
its own:

- the nodes and the integrands are elementwise array expressions, so a
  node's value does not depend on the other rows of the call;
- the rows of an (n, 15) @ (15, 2) product with n >= 2 sum in the order of
  the separate 15-term dot products, for every n (a test pins n = 2 to
  4096, on prefixes and on gathered rows).  A (1, 15) product goes to a
  matrix-vector kernel and differs in the last bit, so a lone panel (the
  first of a batch of one) is reduced by dot products;
- an integral's sequence of pops, pushes and sums does not depend on when
  its panels are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import ConvergenceError, DomainError

# Gauss-Kronrod 7-15 abscissae (all 15, ascending) and weights, from the
# 33-digit decimals of QUADPACK's dqk15 (Piessens et al., 1983): each double
# is the one nearest to the exact rule.  Each tuple runs from the outermost
# node to the centre.  Gauss weights are zero at the Kronrod-only nodes.
_XGK = ("0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
        "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
        "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
        "0.207784955007898467600689403773245", "0")
_WGK = ("0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
        "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
        "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
        "0.204432940075298892414161999234649", "0.209482141084727828012999174891714")
_WG = ("0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
       "0.381830050505118944950369775488975", "0.417959183673469387755102040816327")


def _symmetric(outside_in):
    """The 2n - 1 doubles of n decimals given from the outermost node in,
    mirrored about the centre."""
    half = [float(v) for v in outside_in]
    return np.array(half + half[-2::-1])


_NODES = _symmetric(_XGK)
_NODES[:7] *= -1.0
_KRONROD_W = _symmetric(_WGK)
_GAUSS_W = np.zeros(15)
_GAUSS_W[1::2] = _symmetric(_WG)
# columns: Kronrod, Gauss
_WEIGHTS = np.stack((_KRONROD_W, _GAUSS_W), axis=1)
# a panel's error estimate is at least this times its Kronrod sum of |f|, the
# rounding level of QUADPACK's dqk15: where the Kronrod and Gauss sums agree
# to the last bit, their difference says nothing below rounding
_ROUNDING = 50.0 * math.ulp(1.0)


# the largest abs_tol or rel_tol accepted
MAX_TOL = 1e-3


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision limit for adaptive quadrature.

    Defaults give comfortably more than the 5 decimals needed by the
    reference tables; a tolerance is a positive number up to ``MAX_TOL``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 60

    def __post_init__(self):
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not tol > 0:
                raise DomainError(f"{name} must be positive, got {tol}")
            if tol == math.inf:  # every integral would meet it on its first panel
                raise DomainError(f"{name} must be finite, got {tol}")
            if tol > MAX_TOL:  # so would most integrals, silently wrong
                raise DomainError(f"{name} must be at most {MAX_TOL}, got {tol}")
        if self.max_depth < 10:
            raise DomainError(f"max_depth must be >= 10, got {self.max_depth}")


DEFAULT_CONFIG = QuadratureConfig()


def _panels(f, rows, bounds):
    """The (kronrod, error) of each panel as an (n, 2) array, from one
    integrand call, the error being |kronrod - gauss| or the rounding level,
    whichever is larger: ``bounds`` lists the centre and the half width of
    each panel in turn, and panel r belongs to integral rows[r]."""
    panels = np.array(bounds).reshape(-1, 2)
    half = panels[:, 1:]
    y = f(rows, panels[:, :1] + half * _NODES)
    if len(rows) == 1:  # reduced by dot products: see the module docstring
        half, y = bounds[1], y[0]
        kronrod = half * float(_KRONROD_W @ y)
        err = abs(kronrod - half * float(_GAUSS_W @ y))
        return np.array([[kronrod, max(err, _ROUNDING * (half * float(_KRONROD_W @ np.abs(y))))]])
    magnitude = half * (np.abs(y) @ _WEIGHTS)
    panels = half * (y @ _WEIGHTS)
    panels[:, 1] = np.maximum(np.abs(panels[:, 0] - panels[:, 1]), _ROUNDING * magnitude[:, 0])
    return panels


class _Integral:
    """The refinement state of an integral of a batch that its first panel
    did not settle: worst-error-first bisection with a global error budget;
    the (lo, hi) entries of its heap break ties deterministically."""

    __slots__ = ("index", "sign", "a", "b", "min_width", "heap", "total", "total_err",
                 "frozen_err")

    def __init__(self, index, sign, a, b, total, total_err):
        self.index, self.sign, self.a, self.b = index, sign, a, b
        self.min_width = 1e-15 * (b - a)  # a panel this narrow is not bisected
        self.heap, self.total, self.total_err, self.frozen_err = [], total, total_err, 0.0

    def result(self, cfg, tol):
        if self.total_err > tol and self.frozen_err > 0.0:
            return ConvergenceError(
                f"quadrature did not converge at max_depth={cfg.max_depth}: "
                f"residual error bound {self.total_err:.3e} exceeds tolerance {tol:.3e}",
                estimate=self.sign * self.total,
                error_bound=self.total_err,
            )
        return self.sign * self.total


def _not_finite(a, b):
    return DomainError(f"integrand is not finite on [{a}, {b}]")


def quad_batch(f, intervals, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Integrate integral i over [a, b] = ``intervals[i]`` for every i, in lockstep.

    ``f(rows, t)`` takes an (n, 15) array ``t`` of nodes, row r belonging to
    integral ``rows[r]`` (an integer array), and returns the (n, 15) values,
    elementwise, so that a node's value does not depend on the other nodes of
    the call.  Each integrand must be finite on its interval.  Returns, per
    integral, its value, or the error that ``quad_adaptive`` raises for it:
    a ConvergenceError (carrying the best estimate and an error bound) when
    some subinterval still fails its tolerance share at ``max_depth``, or a
    DomainError as soon as its error sum is not finite.
    """
    abs_tol, rel_tol, max_depth, inf = cfg.abs_tol, cfg.rel_tol, cfg.max_depth, math.inf
    results = [0.0] * len(intervals)
    first, rows, bounds = [], [], []
    for i, (a, b) in enumerate(intervals):
        if b != a:
            sign = 1.0
            if b < a:
                a, b, sign = b, a, -1.0
            first.append((i, sign, a, b))
            rows.append(i)
            bounds += (0.5 * (a + b), 0.5 * (b - a))
    if not first:
        return results
    panels = _panels(f, np.array(rows), bounds).tolist()
    # (integral, the panel it bisects) of each integral whose two halves the
    # next round evaluates
    waiting, rows, bounds = [], [], []
    for (i, sign, a, b), (whole, err) in zip(first, panels):
        if not err < inf:  # a node value is inf or nan
            results[i] = _not_finite(a, b)
        elif err <= max(abs_tol, rel_tol * abs(whole)):  # settled by its first panel
            results[i] = sign * whole
        else:
            mid = 0.5 * (a + b)
            waiting.append((_Integral(i, sign, a, b, whole, err), (-err, a, mid, b, whole, 0)))
            rows += (i, i)
            bounds += (0.5 * (a + mid), 0.5 * (mid - a), 0.5 * (mid + b), 0.5 * (b - mid))
    while waiting:
        # per integral: the kronrod value and error of its left half, then its right half's
        panels = _panels(f, np.array(rows), bounds).reshape(-1, 4).tolist()
        evaluated, waiting, rows, bounds = waiting, [], [], []
        for (q, split), (left, left_err, right, right_err) in zip(evaluated, panels):
            neg_err, lo, mid, hi, est, depth = split
            total = q.total + (left + right - est)
            total_err = q.total_err + (left_err + right_err + neg_err)
            heap = q.heap
            heappush(heap, (-left_err, lo, mid, left, depth + 1))
            heappush(heap, (-right_err, mid, hi, right, depth + 1))
            if not total_err < inf:
                results[q.index] = _not_finite(q.a, q.b)
                continue
            q.total, q.total_err, frozen_err, split = total, total_err, q.frozen_err, None
            tol = max(abs_tol, rel_tol * abs(total))
            while heap and total_err > tol and frozen_err <= tol:
                neg_err, lo, hi, est, depth = heappop(heap)
                if -neg_err <= 0.0:
                    break  # remaining refinable error is zero; nothing to gain
                if depth >= max_depth or hi - lo <= q.min_width:
                    # cannot refine further; its error stays in the budget
                    frozen_err += -neg_err
                    continue
                mid = 0.5 * (lo + hi)
                split = (neg_err, lo, mid, hi, est, depth)
                break
            q.frozen_err = frozen_err
            if split is None:
                results[q.index] = q.result(cfg, tol)
                continue
            waiting.append((q, split))
            rows += (q.index, q.index)
            bounds += (0.5 * (lo + mid), 0.5 * (mid - lo), 0.5 * (mid + hi), 0.5 * (hi - mid))
    return results


def quad_adaptive(f, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integrate ``f`` over [a, b] to the tolerances in ``cfg``: the batch of
    one of ``quad_batch``.

    ``f`` must be vectorized and finite on [a, b]: it is called with an
    (n, 15) array of nodes and returns their values, elementwise.  Raises
    ConvergenceError (carrying the best estimate and an error bound) if
    some subinterval still fails its tolerance share at ``max_depth``, and
    DomainError if ``f`` is not finite at a node.
    """
    (value,) = quad_batch(lambda rows, t: f(t), [(a, b)], cfg)
    if isinstance(value, Exception):
        raise value
    return value
