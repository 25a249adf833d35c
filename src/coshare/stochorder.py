"""Convex-order predicates and mean-preserving-contraction primitives.

The convex order is checked through stop-loss functions.  Both stop-loss
curves are piecewise linear with kinks only at support points, so comparing
them on the union of the two supports (plus the equal-means check, which
covers the far-left asymptote) is exact, not a sampled approximation.
Convex order is a law property, so variables on different spaces compare
through their distributions.
"""

import numpy as np

from .errors import ContractError
from .probspace import RandomVariable, distribution_of

CX_DEFAULT_TOL = 1e-9
WEIGHT_IDENTITY_TOL = 1e-12


def stop_loss(X, t):
    """E[(X - t)^+] over the atom distribution."""
    return float(X.space.probs @ np.maximum(X.values - t, 0.0))


def _dist_stop_loss(dist, t):
    return sum(p * (v - t) for v, p in dist if v > t)


def _dist_mean(dist):
    return sum(p * v for v, p in dist)


def convex_order_leq(Y, X, tol=CX_DEFAULT_TOL):
    """True iff Y precedes X in convex order, within tol.

    Checks |E[Y] - E[X]| <= tol and stop-loss dominance at every point of the
    merged supports.  Piecewise linearity of both curves makes the merged
    support grid sufficient.
    """
    dy = distribution_of(Y)
    dx = distribution_of(X)
    if abs(_dist_mean(dy) - _dist_mean(dx)) > tol:
        return False
    grid = sorted({v for v, _ in dy} | {v for v, _ in dx})
    return all(_dist_stop_loss(dy, t) <= _dist_stop_loss(dx, t) + tol for t in grid)


def pigou_dalton_transfer(X, atom_down, atom_up, a, b):
    """Mean-preserving contraction moving mass between two atoms.

    Lowers X at ``atom_down`` by ``a`` and raises it at ``atom_up`` by ``b``.
    Requires a, b >= 0 with p_down * a == p_up * b (mean preservation) and,
    when a > 0, X(atom_down) > X(atom_up) together with the no-crossing bound
    a <= (X(atom_down) - X(atom_up)) * p_up / (p_down + p_up), so the two
    values never strictly reverse their order.  The result is a convex-order
    reduction of X.
    """
    if a < 0 or b < 0:
        raise ContractError("transfer amounts must be nonnegative")
    p = X.space.probs
    if abs(p[atom_down] * a - p[atom_up] * b) > WEIGHT_IDENTITY_TOL:
        raise ContractError(
            f"weight identity violated: p_down*a={p[atom_down] * a!r} vs p_up*b={p[atom_up] * b!r}"
        )
    if a == 0.0 and b == 0.0:
        return X
    gap = X.values[atom_down] - X.values[atom_up]
    if gap <= 0.0:
        raise ContractError("transfer requires X(atom_down) > X(atom_up)")
    bound = gap * p[atom_up] / (p[atom_down] + p[atom_up])
    if a > bound + WEIGHT_IDENTITY_TOL:
        raise ContractError(f"transfer overshoots: a={a!r} exceeds the no-crossing bound {bound!r}")
    values = X.values.copy()
    values[atom_down] -= a
    values[atom_up] += b
    return RandomVariable(X.space, values)
