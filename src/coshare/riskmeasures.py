"""Risk measures in the loss convention, with convex-order-consistency flags.

Expected shortfall uses the tail-average form

    ES_a(X) = (1/(1-a)) * integral_a^1 quantile(X, u) du,

the average of the worst (1-a) fraction of the loss distribution, with the
boundary atom split exactly rather than interpolated.  Value-at-risk is the
lower quantile.  Every measure is evaluated by one batch kernel,
``measure_values``, over the rows of a (rows x atoms) array; the scalar
functions are its one-row calls.
"""

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .probspace import CUM_PROB_TOL, _real

# ES and VaR on a block of at most _NARROW_ATOMS atoms and at least
# _NARROW_ROWS rows per atom take _narrow_tail (numpy sums a longer row out
# of order; below that many rows a stable argsort is faster), _NARROW_SPAN
# rows at a time so that its columns stay in cache
_NARROW_ATOMS = 7
_NARROW_ROWS = 256
_NARROW_SPAN = 8192


class Consistency(enum.Enum):
    """Whether a measure is monotone with respect to the convex order."""

    CONSISTENT = "consistent"
    NOT_CONSISTENT = "not_consistent"


VAR = "var"
ES = "es"
MEAN_VARIANCE = "mean_variance"
EXPECTED_CONVEX_LOSS = "expected_convex_loss"

_KINDS = (VAR, ES, MEAN_VARIANCE, EXPECTED_CONVEX_LOSS)


def _validate_ladder(ladder):
    try:
        alpha, beta, retention, width = (_real(x, "every ladder parameter") for x in ladder)
    except (TypeError, ValueError, ValidationError):  # not four reals
        raise ValidationError("ladder parameters must be four reals (alpha, beta, R, B)")
    if not np.isfinite((alpha, beta, retention, width)).all():
        raise ValidationError("ladder parameters must be finite")
    if not 0.0 <= alpha <= beta:
        raise ValidationError("ladder slopes need 0 <= alpha <= beta")
    if width < 0.0:
        raise ValidationError("ladder layer width must be nonnegative")
    return alpha, beta, retention, width


@dataclass(frozen=True)
class RiskMeasureSpec:
    """Descriptor for one of the four supported measures.

    kind is one of "var", "es", "mean_variance", "expected_convex_loss";
    level is the tail level for var/es, delta the variance weight, ladder the
    (alpha, beta, R, B) parameters of the convex piecewise-linear load.
    """

    kind: str
    level: float = None
    delta: float = None
    ladder: tuple = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        for name, value in (("level", self.level), ("delta", self.delta)):
            if value is not None:
                _real(value, name)  # checked; the field keeps the caller's number
        if self.kind in (VAR, ES):
            if self.level is None or not 0.0 < self.level < 1.0:
                raise ValidationError("var/es need a level in (0,1)")
        if self.kind == MEAN_VARIANCE:
            if self.delta is None or not self.delta > 0.0:
                raise ValidationError("mean_variance needs delta > 0")
            if self.delta == np.inf:
                raise ValidationError("mean_variance needs a finite delta")
        if self.kind == EXPECTED_CONVEX_LOSS:
            object.__setattr__(self, "ladder", _validate_ladder(self.ladder))

    @classmethod
    def var(cls, level):
        return cls(VAR, level=_real(level, "level"))

    @classmethod
    def es(cls, level):
        return cls(ES, level=_real(level, "level"))

    @classmethod
    def mean_variance(cls, delta):
        return cls(MEAN_VARIANCE, delta=_real(delta, "delta"))

    @classmethod
    def expected_convex_loss(cls, alpha, beta, retention, width):
        return cls(EXPECTED_CONVEX_LOSS, ladder=(alpha, beta, retention, width))

    def describe(self):
        if self.kind == VAR:
            return f"VaR({self.level:g})"
        if self.kind == ES:
            return f"ES({self.level:g})"
        if self.kind == MEAN_VARIANCE:
            return f"MeanVariance({self.delta:g})"
        return f"ExpectedConvexLoss{self.ladder}"


def measure_values(spec, V, probs):
    """spec evaluated on every row of V (rows x atoms) under the atom
    probabilities probs.  Mean-variance uses the centred variance, which
    reads inf where it passes the float range.

    VaR and ES sort each row with its probabilities, stably, then take the
    cumulative masses and either the first value whose mass reaches the
    level or the tail-weighted sum.  Which sort runs depends on V's shape
    alone: a block of at most _NARROW_ATOMS atoms and at least _NARROW_ROWS
    rows per atom goes through _narrow_tail, any other through a stable
    argsort; both give the same bits."""
    if spec.kind == MEAN_VARIANCE:
        mean = V @ probs
        with np.errstate(over="ignore"):
            dev = V - mean[:, None]
            np.square(dev, out=dev)
            return mean + spec.delta * (dev @ probs)
    if spec.kind == EXPECTED_CONVEX_LOSS:
        return _ladder_mean(V, probs, spec.ladder)
    rows, atoms = V.shape
    if atoms <= _NARROW_ATOMS and rows >= _NARROW_ROWS * atoms:
        return np.concatenate([_narrow_tail(spec, V[k:k + _NARROW_SPAN], probs)
                               for k in range(0, rows, _NARROW_SPAN)])
    sv, sp = _sort_rows(V, probs)
    cum = np.cumsum(sp, axis=1)
    if spec.kind == VAR:
        hit = cum >= spec.level - CUM_PROB_TOL
        hit[:, -1] = True
        return sv[np.arange(len(sv)), np.argmax(hit, axis=1)]
    weights = np.minimum(np.maximum(cum - spec.level, 0.0), sp)
    return (weights * sv).sum(axis=1) / (1.0 - spec.level)


def _sort_rows(V, probs):
    """Each row of V in ascending order, with its atom probabilities, by a
    stable argsort: tied values keep their atom order.  The sort order is
    dropped on return, which lowers the oracle's peak memory."""
    order = np.argsort(V, axis=1, kind="stable")
    return V[np.arange(len(V))[:, None], order], probs[order]


def _narrow_tail(spec, V, probs):
    """VaR or ES on the rows of V, column by column, with the bits of the
    argsort path.

    Adjacent columns are compare-exchanged in bubble-sort order, swapping
    only where the left value is strictly greater: a stable sort, so the
    sorted columns, and the probabilities carried with them, are those of
    _sort_rows.  Both move as their bits, blended by the swap mask, so a
    swap keeps -0.0 exact.  The running masses add in np.cumsum's order,
    and the tail sum adds the columns in order from 0.0, as numpy sums a
    row of at most _NARROW_ATOMS atoms."""
    m = V.shape[1]
    # a copy, whatever V's layout: the swaps below work in place
    sv = list(np.array(V.T, dtype=np.float64, order="C").view(np.int64))
    sp = list(np.asarray(probs, dtype=np.float64).view(np.int64))  # scalars until swapped
    for top in range(m - 1, 0, -1):
        for a in range(top):
            swap = sv[a].view(np.float64) > sv[a + 1].view(np.float64)
            for cols in (sv, sp):
                d = cols[a] ^ cols[a + 1]
                if d.ndim or d:  # equal scalar probabilities need no swap
                    d = d * swap
                    cols[a] ^= d
                    cols[a + 1] ^= d
    sp = [col.view(np.float64) for col in sp]
    cums = list(itertools.accumulate(sp))
    if spec.kind == VAR:
        # the first column whose mass reaches the level, else the last
        pick = sv[-1]
        for a in range(m - 2, -1, -1):
            pick = pick ^ ((pick ^ sv[a]) * (cums[a] >= spec.level - CUM_PROB_TOL))
        return pick.view(np.float64)
    total = 0.0
    for a in range(m):
        weight = np.minimum(np.maximum(cums[a] - spec.level, 0.0), sp[a])
        total = total + weight * sv[a].view(np.float64)
    return total / (1.0 - spec.level)


def _ladder_mean(V, probs, ladder):
    return convex_ladder(V, ladder) @ probs


def _one_row(spec, X):
    return float(measure_values(spec, X.values[None, :], X.space.probs)[0])


def var(X, alpha):
    """Lower alpha-quantile of the loss X: inf{x : P(X <= x) >= alpha}.

    Cumulative probabilities reaching alpha within CUM_PROB_TOL count.  Atoms
    within VALUE_MERGE_TOL of each other are not merged, so on near ties the
    result may be the larger value of the pair, off by at most VALUE_MERGE_TOL.
    """
    alpha = _real(alpha, "quantile level")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {alpha!r}")
    return _one_row(RiskMeasureSpec.var(alpha), X)


def es(X, alpha):
    """Average of the worst (1 - alpha) tail mass, boundary atom split exactly."""
    alpha = _real(alpha, "es level")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"es level must lie in (0,1), got {alpha!r}")
    return _one_row(RiskMeasureSpec.es(alpha), X)


def mean_variance(X, delta):
    """E[X] + delta * Var(X)."""
    delta = _real(delta, "delta")
    if not 0.0 < delta < np.inf:
        raise DomainError(f"delta must be positive and finite, got {delta!r}")
    return _one_row(RiskMeasureSpec.mean_variance(delta), X)


def convex_ladder(x, ladder):
    """Pointwise ladder phi(x) = alpha(x-R)^+ + (beta-alpha)(x-R-B)^+.

    Accepts a real number or an array x, and a ladder as RiskMeasureSpec
    takes one.
    """
    if not isinstance(x, np.ndarray):
        x = _real(x, "x")
    alpha, beta, retention, width = _validate_ladder(ladder)
    first = np.maximum(x - retention, 0.0)
    second = np.maximum(x - retention - width, 0.0)
    return alpha * first + (beta - alpha) * second


def expected_convex_loss(X, ladder):
    """E[phi(X)] for the convex piecewise-linear ladder phi."""
    return _one_row(RiskMeasureSpec(EXPECTED_CONVEX_LOSS, ladder=ladder), X)


def evaluate(spec, X):
    """Apply a RiskMeasureSpec to a RandomVariable."""
    return _one_row(spec, X)


def cx_consistency_flag(spec):
    """ES, MeanVariance, ExpectedConvexLoss are convex-order consistent; VaR is not."""
    if spec.kind == VAR:
        return Consistency.NOT_CONSISTENT
    return Consistency.CONSISTENT
