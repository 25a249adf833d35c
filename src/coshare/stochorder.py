"""Convex-order predicates and mean-preserving-contraction primitives.

Y precedes X in convex order iff E[Y] = E[X] and the stop-loss curves
SL(t) = E[(. - t)^+] satisfy SL_Y <= SL_X.  Both curves are piecewise linear
with kinks only at atoms, so comparing them at the merged atoms of Y and X
(plus the equal-means check, which covers the far-left asymptote) is exact,
not a sampled approximation.  Convex order is a law property, so variables
on different spaces compare through their atoms and probabilities.

One row-batched kernel computes every stop-loss value.  It sorts each row's
merged atoms once, largest first (h_0 >= h_1 >= ...), and with signed weights
(Y's probabilities, minus X's) takes two running sums from the top:
SL_Y(h_j) - SL_X(h_j) = sum_{l<j} (h_l - h_{l+1}) (P(Y > h_{l+1}) - P(X > h_{l+1})).
Near ties are not merged: atoms within VALUE_MERGE_TOL stay separate grid
points, which moves a stop-loss value by at most that distance.  Values are
compared within VALUE_TOL times each row pair's own value_scale, as there is
no aggregate to take a scale from.
"""

import numpy as np

from .errors import ContractError
from .probspace import VALUE_TOL, RandomVariable, rows_all

WEIGHT_IDENTITY_TOL = 1e-12


def _stop_loss_rows(V, w):
    """(order, h, sl): each row's atom indices in stable descending order of
    value, h = the row's values in that order, and sl[:, j] = sum_k w_k
    (V_k - t)^+ at t = h[:, j], for signed atom weights w shared by the rows."""
    order = np.argsort(-V, axis=1, kind="stable")
    h = V[np.arange(V.shape[0])[:, None], order]
    above = np.cumsum(w[order], axis=1)  # weight of the sorted atoms up to each
    sl = np.zeros_like(h)
    np.cumsum((h[:, :-1] - h[:, 1:]) * above[:, :-1], axis=1, out=sl[:, 1:])
    return order, h, sl


def stop_loss(X, t):
    """E[(X - t)^+]: the kernel's value at t, added as an atom of weight zero."""
    t = min(float(t), X.values.max())  # 0 from the top atom on; inf * 0 is nan
    order, _, sl = _stop_loss_rows(np.append(X.values, t)[None, :],
                                   np.append(X.space.probs, 0.0))
    return sl[0, order[0] == X.space.size].item()


def convex_order_mask(Y, py, X, px):
    """Rows i with Y[i] preceding X[i] in convex order.

    Y is rows x atoms with atom probabilities py, X is rows x atoms with its
    own atom count and probabilities px.  Checks |E[Y] - E[X]| <= tol and
    SL_Y <= SL_X + tol at every merged atom of the row pair, with tol =
    VALUE_TOL * max(1, max |value|) over the row pair.  No reduction loops
    over a row's atoms one row at a time: max |value| is read from the ends
    of the kernel's sorted row (nan, sorted last, still gives nan), and
    "every atom within tol" is probspace.rows_all, a boolean matrix product.
    """
    V = np.hstack((Y, X))
    w = np.concatenate((py, -px))
    _, h, gaps = _stop_loss_rows(V, w)
    span = np.maximum(np.abs(h[:, 0]), np.abs(h[:, -1]))
    tol = VALUE_TOL * np.maximum(span, 1.0)
    return (np.abs(V @ w) <= tol) & rows_all(gaps <= tol[:, None])


def convex_order_leq(Y, X):
    """True iff Y precedes X in convex order: the one-row convex_order_mask."""
    return bool(convex_order_mask(Y.values[None, :], Y.space.probs,
                                  X.values[None, :], X.space.probs)[0])


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
