"""Fixed Gauss-Legendre quadrature on finite pieces, many pieces at once.

Each piece [lo, hi] takes an N = 40 point Gauss-Legendre rule for its value
and an M = 30 point rule beside it, the N + M nodes of both evaluated in one
integrand call; the nodes and weights are numpy's ``leggauss``, computed once
at import.  The error estimate of a piece is |I_N - I_M|, at least the
rounding level 50 eps times the N-point integral of |f| (QUADPACK's dqk15
floors a panel's error the same way), so that two sums that agree to the last
bit never meet a tolerance below rounding.  An integral sums the values and
the estimates of its pieces and meets its tolerance or fails at once: there
is no refinement.

Where the integrand is analytic in the Bernstein ellipse of parameter rho
about a piece, I_N and I_M converge like rho^-2N and rho^-2M (Trefethen,
"Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008), so
the difference is about the error of I_M and overstates that of I_N.  It is
an estimate, not a certified bound: an integrand that both rules miss in the
same way passes it.

``sums`` reduces the node values of many pieces by one (pieces, N + M) @
(N + M, 2) product, for the value and the difference.  The product is
einsum's own loop, which sums each row in node order: BLAS kernels sum a row
of 70 terms in an order that depends on the number of rows, so a piece's
sums would depend on the other pieces of the call.  Nodes and integrands are
elementwise array expressions, so each integral has the bits of its
evaluation alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, checked

# the N-point rule gives the value, the M-point rule the error estimate
_N, _M = 40, 30
_RULES = [np.polynomial.legendre.leggauss(n) for n in (_N, _M)]
# the nodes of both rules on [-1, 1], the N-point rule's first
_NODES = np.concatenate([x for x, _ in _RULES])
# columns: the N-point value and its difference from the M-point value
_WEIGHTS = np.zeros((_N + _M, 2))
_WEIGHTS[:_N] = _RULES[0][1][:, None]
_WEIGHTS[_N:, 1] = -_RULES[1][1]
# a piece's error estimate is at least this times its N-point integral of |f|
_ROUNDING = 50.0 * math.ulp(1.0)


# the largest abs_tol or rel_tol accepted
MAX_TOL = 1e-3


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the numerical integrals.

    Defaults give comfortably more than the 5 decimals needed by the
    reference tables; a tolerance is a positive number up to ``MAX_TOL``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not tol > 0:
                raise DomainError(f"{name} must be positive, got {tol}")
            if tol == math.inf:  # every integral would meet it
                raise DomainError(f"{name} must be finite, got {tol}")
            if tol > MAX_TOL:  # so would most integrals, silently wrong
                raise DomainError(f"{name} must be at most {MAX_TOL}, got {tol}")


DEFAULT_CONFIG = QuadratureConfig()


def nodes(lo, hi):
    """The (k, N + M) nodes of the pieces [lo[i], hi[i]], lo and hi 1-D
    arrays, and their half widths as a (k, 1) column."""
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (lo + hi)[:, None] + half * _NODES, half


def sums(y, half):
    """The N-point value and the error estimate of each row of y, the values
    of an integrand at the ``nodes`` of a piece of half width half[row]: two
    1-D arrays."""
    value, diff = (half * np.einsum("ij,jk->ik", y, _WEIGHTS)).T
    size = np.abs(half[:, 0]) * np.einsum("ij,j->i", np.abs(y[:, :_N]), _WEIGHTS[:_N, 0])
    return value, np.maximum(np.abs(diff), _ROUNDING * size)


def settled(value, error, cfg, lo, hi):
    """``value``, an integral over [lo, hi] with this error estimate, or the
    error it raises under ``cfg``: a DomainError if the estimate is not
    finite (an integrand value is inf or nan), a ConvergenceError carrying
    the value and the estimate if that fails the tolerance."""
    if not error < math.inf:
        return DomainError(f"integrand is not finite on [{min(lo, hi)}, {max(lo, hi)}]")
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if error > tol:
        return ConvergenceError(
            f"Gauss-Legendre error estimate {error:.3e} exceeds tolerance {tol:.3e}",
            estimate=value, error_bound=error)
    return value


def quad_adaptive(f, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integrate ``f`` over [a, b] to the tolerances in ``cfg``: the rule of
    this module on the one piece [a, b], with no refinement (the name stays
    for the callers that wrap it).

    ``f`` must be vectorized: it is called with a (1, N + M) array of nodes
    and returns their values, elementwise.  Raises ConvergenceError
    (carrying the value and the error estimate) if the estimate fails the
    tolerance, and DomainError if ``f`` is not finite at a node.
    """
    t, half = nodes(np.array([a], dtype=float), np.array([b], dtype=float))
    (value,), (error,) = sums(f(t), half)
    return checked([settled(float(value), float(error), cfg, a, b)])[0]
