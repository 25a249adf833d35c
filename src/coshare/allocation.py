"""Clearing allocations, comonotonicity tests, and comonotonic improvement.

The improvement runs in two phases on the level sets of the aggregate S,
one probspace.level_partition per call.  Phase one replaces every share by
its conditional expectation given those level sets, as condition_on_aggregate
does, which is a componentwise convex-order reduction and collapses the
state space to the support of S.  Phase two repairs monotonicity violations
by mean-preserving transfers between pairs of S-levels: whenever agent i
decreases from level s to level s' > s, a partner j with an increasing gap
absorbs the move, so clearing is preserved level by level.

Transfer sizing.  Write g_i = x_i(s) - x_i(s') > 0 for the violating gap and
g_j = x_j(s') - x_j(s) > 0 for the partner's gap.

* Equal level masses: both agents move by t = min(g_i, g_j / 2) on each
  level.  The violator's pair contracts or swaps outright (never widening,
  since t <= g_i), the partner's pair contracts without flipping its order
  (t <= g_j / 2), and the variance potential strictly decreases.  Capping at
  g_i rather than g_i / 2 lets the violator's two values trade places
  exactly, which is what removes the violation in one step instead of
  stalling at the midpoint.
* Unequal level masses: a mass-weighted no-crossing transfer with
  t = min(g_i, g_j), amounts a = t p' / (p + p') down at s and
  b = t p / (p + p') up at s' (so p a = p' b).  One of the two gaps closes
  exactly on every transfer.

Every executed transfer strictly decreases sum_i Var(X_i), the termination
witness; the run aborts with a diagnostic if the transfer cap is exceeded.

Schedule.  Sweeps visit the level pairs (k, l), k < l, in order; on each
pair, transfers repeat with the first violating agent and the first agent
of largest rise until no agent falls by more than LEVEL_GAP_EPS from k to l.
Sweeps repeat until one makes no transfer.  The loop runs on one Python
float list per level, with the float operations of a numpy pair loop in the
same order, so every transfer and output bit is that loop's.  Before row k
of a sweep, one numpy test on a level-matrix mirror asks whether any agent
lies more than LEVEL_GAP_EPS above its minimum over the levels after k; if
none does, the row is skipped.  The skip is exact: x_i(k) - min_l x_i(l) is
the largest of the row's gaps (rounding is monotone), and a row's transfers
touch only level k and levels after it, so a skipped row would have made no
transfer.  The mirror is rewritten for every level a pair changed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NonterminationError, ValidationError
from .probspace import VALUE_TOL, RandomVariable, level_partition, value_scale
from .riskmeasures import evaluate
from .stochorder import convex_order_mask

LEVEL_GAP_EPS = 1e-12
MAX_TRANSFERS = 10 ** 6


class Allocation:
    """n shares on one space, intended to clear an aggregate S.

    The aggregate defaults to the pathwise sum of the shares (which then
    clears by construction).  Pass it explicitly to represent candidate
    allocations whose clearing still needs checking.
    """

    __slots__ = ("space", "shares", "aggregate")

    def __init__(self, space, shares, aggregate=None):
        shares = tuple(shares)
        if not shares:
            raise ValidationError("an allocation needs at least one agent")
        for share in shares:
            if share.space != space:
                raise ValidationError("all shares must live on the allocation's space")
        if aggregate is None:
            total = np.zeros(space.size)
            for share in shares:
                total = total + share.values
            aggregate = RandomVariable(space, total)
        elif aggregate.space != space:
            raise ValidationError("aggregate must live on the allocation's space")
        self.space = space
        self.shares = shares
        self.aggregate = aggregate

    @property
    def n_agents(self):
        return len(self.shares)

    def share_matrix(self):
        return np.array([share.values for share in self.shares])


@dataclass(frozen=True)
class ImprovementCertificate:
    """Audit trail of one improvement run.

    convex_order_ok[i] certifies improved share i against the original in
    convex order; comonotonic_ok and clearing_residual describe the output;
    objective_deltas holds rho_i(improved) - rho_i(original) for measures
    supplied by the caller; transfers counts executed level-pair moves.
    """

    convex_order_ok: tuple
    comonotonic_ok: bool
    clearing_residual: float
    transfers: int
    objective_deltas: tuple = None

    @property
    def all_verified(self):
        return self.comonotonic_ok and all(self.convex_order_ok)


def check_clearing(A):
    """(clears, worst atom residual) for sum_i X_i = S; clears means a
    residual within VALUE_TOL * value_scale(S)."""
    S_values = A.aggregate.values
    residual = float(np.abs(A.share_matrix().sum(axis=0) - S_values).max())
    return residual <= VALUE_TOL * value_scale(S_values), residual


def _require_clearing(A):
    ok, residual = check_clearing(A)
    if not ok:
        raise ContractError(f"allocation does not clear its aggregate (residual {residual:g})")
    return residual


def comonotone_mask(tensors, s_values, probs):
    """Rows of the share tensors (one rows x atoms array per agent) in which
    every share is a nondecreasing function of the aggregate values.

    Two requirements per share, within VALUE_TOL * value_scale(s_values): (a)
    it is constant on every level set of the aggregate, and (b) across levels
    sorted by value, its probability-weighted level mean is nondecreasing.
    Each share is reordered once into level order, atoms x rows, and its
    level spreads and means are reduceat over the atoms; a level mean is the
    sum of p * value in level order over the level's mass, whatever the rows
    beside it.  Every reduction runs along the atoms axis with the rows
    innermost, so none loops over a short axis one row at a time, and no
    Python loop runs over atoms or levels.
    """
    tol = VALUE_TOL * value_scale(s_values)
    part = level_partition(s_values, probs)
    mask = np.ones(tensors[0].shape[0], dtype=bool)
    p = probs[part.order, None]
    masses = part.masses[:, None]
    pooled = part.starts.size < part.order.size  # some level holds several atoms
    for V in tensors:
        W = V.T[part.order]  # atoms x rows, in level order
        if pooled:
            spread = (np.maximum.reduceat(W, part.starts)
                      - np.minimum.reduceat(W, part.starts))
            mask &= (spread <= tol).all(axis=0)
            rep = np.add.reduceat(W * p, part.starts) / masses
        else:
            rep = W * p / masses
        mask &= (rep[1:] >= rep[:-1] - tol).all(axis=0)
    return mask


def is_comonotonic(A):
    """True iff every share is a nondecreasing function of the aggregate,
    in the sense of comonotone_mask."""
    _require_clearing(A)
    rows = [share.values[None, :] for share in A.shares]
    return bool(comonotone_mask(rows, A.aggregate.values, A.space.probs)[0])


def _level_means(values, part, probs):
    """Phase one on share rows: each share, on each level of part where it is
    not constant, becomes its probability-weighted mean on that level."""
    out = values.copy()
    for group, mass in zip(np.split(part.order, part.starts[1:]), part.masses):
        if len(group) > 1:
            block = values[:, group]
            p = probs[group]
            # constant blocks stay as they are (p*v/p would cost an ulp); the
            # dot takes a contiguous copy, as a strided one can round otherwise
            for i in np.flatnonzero(block.max(axis=1) != block.min(axis=1)):
                out[i, group] = float(p @ values[i, group] / mass)
    return out


def condition_on_aggregate(A):
    """Replace each share by its conditional expectation given sigma(S).

    Idempotent on sigma(S)-measurable allocations; output clears S and each
    output share is a convex-order reduction of its input share.
    """
    _require_clearing(A)
    values = _level_means(A.share_matrix(), level_partition(A.aggregate.values, A.space.probs),
                          A.space.probs)
    return Allocation(A.space, tuple(RandomVariable(A.space, v) for v in values), A.aggregate)


def comonotonic_improvement(A, measures=None):
    """Comonotonic allocation dominating A componentwise in convex order.

    Returns (improved allocation, certificate).  The output clears S, passes
    is_comonotonic at tolerance VALUE_TOL * value_scale(S), and every output
    share precedes its input share in convex order; the certificate records
    the verdicts.
    ``measures`` optionally supplies one RiskMeasureSpec per agent whose
    objective deltas are reported.
    """
    _require_clearing(A)
    if measures is not None and len(measures) != A.n_agents:
        raise ContractError("need one measure per agent")

    probs = A.space.probs
    part = level_partition(A.aggregate.values, probs)
    m = part.starts.size
    masses = part.masses.tolist()
    # x[i, k] = share i on level k after phase one; the loop works on
    # cols[k][i] and keeps x as a mirror for the row test
    values = A.share_matrix()
    x = _level_means(values, part, probs)[:, part.order[part.starts]]
    cols = x.T.tolist()

    partner_tol = VALUE_TOL * value_scale(A.aggregate.values)
    max_transfers = MAX_TRANSFERS  # read once per call; a local in the loop
    transfers = 0
    changed = True
    while changed:
        changed = False
        for k in range(m - 1):
            if not ((x[:, k] - x[:, k + 1:].min(axis=1)) > LEVEL_GAP_EPS).any():
                continue  # no pair (k, l) has a violator
            ck = cols[k]
            row_moved = False
            for l in range(k + 1, m):
                cl = cols[l]
                pair_moved = False
                while True:
                    gaps = [a - b for a, b in zip(ck, cl)]
                    if max(gaps) <= LEVEL_GAP_EPS:
                        break
                    i = next(t for t, g in enumerate(gaps) if g > LEVEL_GAP_EPS)
                    gap_i = gaps[i]
                    low = min(gaps)
                    j = gaps.index(low)  # first agent with the largest rise
                    gap_j = -low
                    if gap_j <= 0.0:
                        # no partner left: a real breach unless the residual
                        # violation is below the comonotonicity tolerance
                        if gap_i > partner_tol:
                            raise ContractError(
                                "no transfer partner found; clearing must have been violated"
                            )
                        break
                    p_k, p_l = masses[k], masses[l]
                    if abs(p_k - p_l) <= LEVEL_GAP_EPS:
                        amount = min(gap_i, gap_j / 2.0)
                        down, up = amount, amount
                        # 2 p t (g - t) per agent with t <= g; positive for both
                        drop = 2.0 * p_k * amount * (gap_i + gap_j - 2.0 * amount)
                    else:
                        amount = min(gap_i, gap_j)
                        down = amount * p_l / (p_k + p_l)
                        up = amount * p_k / (p_k + p_l)
                        moved = amount * p_k * p_l / (p_k + p_l)
                        drop = moved * (2.0 * gap_i - amount) + moved * (2.0 * gap_j - amount)
                    if drop <= 0.0:
                        raise NonterminationError(
                            "variance potential failed to decrease",
                            state={"levels": (k, l), "agents": (i, j), "transfers": transfers},
                        )
                    ck[i] -= down
                    cl[i] += up
                    ck[j] += down
                    cl[j] -= up
                    transfers += 1
                    pair_moved = True
                    if transfers > max_transfers:
                        raise NonterminationError(
                            f"transfer cap {max_transfers} exceeded",
                            state={"level_values": np.array(cols).T.copy(),
                                   "transfers": transfers},
                        )
                if pair_moved:
                    x[:, l] = cl
                    row_moved = True
            if row_moved:
                x[:, k] = ck
                changed = True

    atom_values = x[:, part.level_of]
    improved = Allocation(A.space, tuple(RandomVariable(A.space, v) for v in atom_values),
                          A.aggregate)

    cx_ok = tuple(convex_order_mask(atom_values, probs, values, probs).tolist())
    residual = _require_clearing(improved)
    deltas = None
    if measures is not None:
        deltas = tuple(
            evaluate(spec, improved.shares[i]) - evaluate(spec, A.shares[i])
            for i, spec in enumerate(measures)
        )
    certificate = ImprovementCertificate(
        convex_order_ok=cx_ok,
        comonotonic_ok=bool(comonotone_mask(atom_values[:, None, :], A.aggregate.values,
                                            probs)[0]),
        clearing_residual=residual,
        transfers=transfers,
        objective_deltas=deltas,
    )
    return improved, certificate
