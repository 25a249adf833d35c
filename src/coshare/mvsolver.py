"""Mean-variance risk sharing with box caps.

Machinery: the unconstrained proportional rule, the capped optimum via a
statewise shadow price (exact piecewise-linear inversion of the clipped
aggregate response, every state in one batched pass) together with the
intercept fixed point, zero-intercept saturation curves in exact rational
arithmetic, the two-agent intercept fixed-point interval, and the two-agent
value-at-risk ceiling scenario on a Gamma(2,1) aggregate with closed-form
piecewise moments.

The intercept fixed points are the minimisers of a convex, piecewise
quadratic potential G(c) = E[sum_i delta_i (x_i(c, S) - c_i)^2], whose
gradient is -2 D_delta (E[X(c)] - c).  solve_capped_mv takes Newton steps
on G, keeps the whole step wherever G falls there, and ends it by an exact
line search only where G starts to rise before the full step and does not
fall at its end.  A step reads E[X(c)] and the regime (the agents interior
in each state) from the pieces of the clipped response H (at most 2n + 1,
and the runs of kinks between them), each state only by the piece it falls on,
and reads eta there off that piece's own affine form of H, never between
two kinks: a cap that never binds costs no precision however far out it
lies, and kinks and levels past the float range read +-inf.  The solve
stops at a residual relative to the aggregate's largest magnitude.
The fixed points form a continuum where caps leave room for a constant
shift among agents (the two-agent interval above is the simplest case);
solve_capped_mv reports the one nearest the proportional intercepts a E[S].
One locator, _locate, sorts H's kinks, in float or exact arithmetic: the
final shares and the report are read from the last step's pieces, and
statewise_projection, the shift and saturation_curve locate once each.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .allocation import Allocation, clearing_tol
from .errors import (
    ContractError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    ValidationError,
)
from .probspace import (
    VALUE_TOL,
    FiniteSpace,
    GammaAggregate,
    RandomVariable,
    _instance,
    _real,
    gamma_quantile,
    value_scale,
)
from .riskmeasures import mean_variance

FIXED_POINT_TOL = 1e-10
# 10x the most Newton steps a seeded test solve takes: a stall raises in well
# under a second
FIXED_POINT_MAX_ITERS = 100
# the regime matrix's eigenvalues up to PINV_RCOND * max |lam| count as 0
# (numpy pinv's default cutoff)
PINV_RCOND = 1e-15
# Kinks of H closer than RUN_RTOL (relative) are one run of the solver's
# pieces (see _locate).  Agents that saturate together give kinks a few ulps
# apart, and without runs the last bits of eta would decide which of them
# count as interior in a state between those kinks.  RUN_RTOL covers the
# rounding of the kinks, no more; the report's merge width, the solve's own
# precision, is far wider and would join kinks that bound real pieces.
RUN_RTOL = 64 * sys.float_info.epsilon


def _floats(values, what):
    """values as a float tuple, each read by probspace._real."""
    return tuple(_real(v, what) for v in values)


def _exact(x):
    """Whether x is an int or a Fraction (not a bool), which the exact
    paths keep exact."""
    return isinstance(x, (Integral, Fraction)) and not isinstance(x, bool)


def _fraction(x):
    """x, for which _exact holds, as a Fraction of Python ints: a numpy
    integer's own arithmetic wraps at 64 bits."""
    return Fraction(int(x.numerator), int(x.denominator))


def _positive_deltas(delta):
    """delta as floats, each positive and finite with a reciprocal that is a
    finite normal float: a weight past 1 / sys.float_info.min (about
    4.5e307) has a subnormal reciprocal, which the solve cannot carry."""
    out = _floats(delta, "every variance weight")
    if not out:
        raise ValidationError("need at least one agent")
    if not all(0.0 < d and sys.float_info.min <= 1.0 / d < math.inf for d in out):
        raise DomainError("every variance weight must be positive and finite, "
                          "and its reciprocal a finite normal float")
    return out


def _caps(delta, lower, upper):
    """(deltas, lower, upper) as float tuples: positive finite variance
    weights and one cap pair with lower < upper per agent."""
    deltas = _positive_deltas(delta)
    lower = _floats(lower, "every lower cap")
    upper = _floats(upper, "every upper cap")
    if not (len(lower) == len(upper) == len(deltas)):
        raise ValidationError("delta, lower, upper must have equal length")
    if not all(l < u for l, u in zip(lower, upper)):  # a NaN cap fails too
        raise ValidationError("caps need lower < upper for every agent")
    return deltas, lower, upper


def _cap_sum(caps):
    """The caps' sum, exactly rounded, or +-inf past the float range (where
    math.fsum raises OverflowError on a partial sum)."""
    try:
        return math.fsum(caps)
    except OverflowError:
        return sum(caps)


def _outside_caps(lower, upper, s_min, s_max):
    """(s_min < sum L, s_max > sum U), each beyond VALUE_TOL * value_scale(S)."""
    below, above = _cap_sum(lower) - s_min, s_max - _cap_sum(upper)
    tol = VALUE_TOL * value_scale((s_min, s_max)) if max(below, above) > 0.0 else 0.0
    return below > tol, above > tol


def unconstrained_shares(delta):
    """Proportional slopes a_i = (1/delta_i) / sum_j (1/delta_j).

    Integer or Fraction inputs give exact Fractions; floats give floats.
    """
    if delta is None or not len(delta):  # len: an ndarray has no truth value
        raise ValidationError("need at least one agent")
    deltas = ([_fraction(d) for d in delta] if all(map(_exact, delta))
              else _positive_deltas(delta))
    if not all(d > 0 for d in deltas):  # an exact weight has an exact reciprocal
        raise DomainError("every variance weight must be positive")
    weights = [1 / d for d in deltas]
    total = sum(weights)
    return tuple(w / total for w in weights)


def statewise_projection(c, delta, lower, upper, s):
    """Shadow price eta and shares x_i = clip(c_i + eta/delta_i, L_i, U_i)
    with sum x_i = s.

    The clipped response H(eta) = sum_i clip(c_i + eta/delta_i, L_i, U_i) is
    nondecreasing and piecewise linear with kinks where a clip activates;
    eta is read from the piece of H that s falls on (see _place), the
    midpoint of the solution interval when H is flat at level s.
    """
    deltas, lower, upper = _caps(delta, lower, upper)
    c = _floats(c, "every intercept")
    if len(c) != len(deltas):
        raise ValidationError("one intercept per agent")
    s = _real(s, "the state")
    if not all(map(math.isfinite, c + (s,))):
        raise ValidationError("intercepts and the state must be finite")
    # no lower cap is +inf and no upper cap -inf (see _caps)
    if any(_outside_caps(lower, upper, s, s)):
        raise InfeasibleError(f"s = {s:g} outside the feasible cap range "
                              f"[{_cap_sum(lower):g}, {_cap_sum(upper):g}]")
    agg = _aggregate(*map(np.array, (deltas, lower, upper, [s])), np.ones(1))
    c = np.array(c)
    with np.errstate(over="ignore"):  # kinks and levels past the float range read +-inf
        eta, x = _shares(c, _place(c, agg), agg)
    return float(eta[0]), x[0]


@dataclass(frozen=True)
class MVProblem:
    """Variance weights, box caps, and a finite aggregate (space, S)."""

    delta: tuple
    lower: tuple
    upper: tuple
    aggregate: object

    def __post_init__(self):
        caps = _caps(self.delta, self.lower, self.upper)
        for name, value in zip(("delta", "lower", "upper"), caps):
            object.__setattr__(self, name, value)
        try:
            space, S = self.aggregate
        except (TypeError, ValueError):
            space = S = None
        if not isinstance(space, FiniteSpace) or not isinstance(S, RandomVariable):
            raise ValidationError("aggregate must be a (FiniteSpace, RandomVariable) pair")
        if S.space != space:
            raise ValidationError("aggregate S must live on the given space")
        below, above = _outside_caps(self.lower, self.upper, S.values.min(), S.values.max())
        if below:
            raise ValidationError("sum of lower caps exceeds the smallest aggregate value")
        if above:
            raise ValidationError("sum of upper caps is below the largest aggregate value")

    @property
    def n_agents(self):
        return len(self.delta)


@dataclass(frozen=True)
class RegimeReport:
    """Piecewise-affine share curves: breakpoints in s, the active set and
    per-agent slope in each regime, anchor share vectors at the breakpoints,
    the intercepts, the intercept fixed-point residual, and the solver
    passes that produced them (0 where no solve ran): iterations counts
    every pass, the last one being the pass that found the residual at most
    FIXED_POINT_TOL * max |S|; searches counts the Newton steps before it
    that a line search cut short, where G rose before the whole step and
    did not fall at its end (see solve_capped_mv).

    Regime r covers s between breakpoints r-1 and r; there is one more
    regime than breakpoints.  anchors holds (s, shares) pairs; with no
    breakpoints a single reference anchor is stored.
    """

    breakpoints: tuple
    active_sets: tuple
    slopes: tuple
    intercepts: tuple
    residual: float = 0.0
    anchors: tuple = ()
    terminal_s: object = None
    iterations: int = 0
    searches: int = 0

    def __post_init__(self):
        k = len(self.breakpoints)
        if len(self.active_sets) != k + 1 or len(self.slopes) != k + 1:
            raise ValidationError("need one regime more than breakpoints")
        if len(self.anchors) != max(k, 1):
            raise ValidationError("need an anchor per breakpoint (or one reference)")

    @property
    def n_agents(self):
        return len(self.intercepts)

    def share_at(self, agent, s):
        """Exact piecewise-linear evaluation of one agent's curve."""
        r = bisect.bisect_left(self.breakpoints, s)
        s0, shares0 = self.anchors[max(r - 1, 0)]
        return shares0[agent] + self.slopes[r][agent] * (s - s0)


_Pieces = namedtuple("_Pieces", "kinks levels inside kinkless code hold base width "
                                "mass mean shares target active", defaults=(None,) * 5)
_Aggregate = namedtuple("_Aggregate", "deltas inv lower upper s probs ps values")


def _locate(c, deltas, inv, lower, upper):
    """The kinks delta_i (L_i - c_i), delta_i (U_i - c_i) of the clipped
    response H(eta) = sum_i clip(c_i + eta/delta_i, L_i, U_i), sorted and
    grouped into runs, and the open pieces between the runs and past either
    end: the only code that sorts H's kinks.

    Arguments have one entry per agent, float arrays or object arrays of
    Fractions (infinite caps as float infinities), and the results keep that
    arithmetic.  Float kinks closer than RUN_RTOL (relative to the larger
    magnitude) form a run; exact kinks form no runs.  The kink of an
    infinite cap, or a float kink past the float range, is +-inf: no kink
    of H.  Returns (kinks, levels, inside, kinkless, mids, base): kinks and
    levels (H, the sum of the clipped shares) at each run's first and last
    kink, a lone kink twice; inside, the agents strictly inside their caps
    on each open piece, delta_i (L_i - c_i) < mid < delta_i (U_i - c_i) at
    its midpoint (on a tail, -+ the float maximum or the outermost kink,
    whichever lies further out); kinkless, True when no kink is finite,
    where one kink at 0 stands in; mids, the midpoint of each group of
    _place (a tail's at its end kink); and base on each open piece, the
    inside agents' c plus every other agent's cap on the side it has passed.
    """
    low, high = deltas * (lower - c), deltas * (upper - c)
    exact = c.dtype == object
    if exact:
        # a Fraction weight that rounds to float 0 times an infinite cap is nan
        low = np.where(lower == -math.inf, lower, low)
        high = np.where(upper == math.inf, upper, high)
    kinks = np.array(sorted({k for k in np.concatenate((low, high)).tolist()
                             if -math.inf < k < math.inf}), dtype=c.dtype)
    kinkless = kinks.size == 0
    if kinkless:
        kinks, responses = np.array([Fraction(0) if exact else 0.0], dtype=c.dtype), c[None, :]
    else:
        responses = np.minimum(np.maximum(c + kinks[:, None] * inv, lower), upper)
    levels = np.add.reduce(responses, axis=1)
    left, right = kinks[:-1], kinks[1:]
    gap = right - left > (0 if exact else RUN_RTOL) * np.maximum(-left, right)
    knots = np.concatenate(([1], gap)) + np.concatenate((gap, [1]))
    kinks = kinks.repeat(knots)
    half = kinks / 2
    mids = np.concatenate((kinks[:1], half[:-1] + half[1:], kinks[-1:]))
    bound = max(sys.float_info.max, -kinks[0], kinks[-1])
    probe = mids[0::2, None].copy()
    probe[0], probe[-1] = -bound, bound
    below_upper = probe < high
    inside = (low < probe) & below_upper
    base = np.where(inside, c, np.where(below_upper, lower, upper)).sum(axis=1)
    return kinks, levels.repeat(knots), inside, kinkless, mids, base


def _report(c, located, inv, lower, upper, width=0.0, **fields):
    """RegimeReport of the share curves x(s) = clip(c + eta(s)/delta, L, U),
    read from the kinks, levels, inside and kinkless of c (the first fields
    of _locate's tuple, or a _Pieces) in its arithmetic, with the solver's
    residual and step counts as fields.

    Runs whose gap is at most width are one group: at solved intercepts,
    known to within the solve's precision, agents that saturate together
    give kinks a rounding apart, which would open regimes whose active sets
    that rounding decides.  A group's breakpoint and anchor are H and the
    shares x at its first kink (+-inf past the float range), and the regime
    after it is the open piece after its last run.  Exact kinks come with
    width 0: no group merges.
    """
    kinks, levels, inside, kinkless = located[:4]
    intercepts = tuple(c.tolist())
    weights = inv.tolist()

    def slopes_for(active):
        total = sum(weights[i] for i in active)
        return tuple(w / total if i in active else 0 * w for i, w in enumerate(weights))

    if kinkless:
        active = tuple(range(len(weights)))
        return RegimeReport(
            breakpoints=(), active_sets=(active,), slopes=(slopes_for(active),),
            intercepts=intercepts, anchors=((sum(intercepts), intercepts),), **fields)
    first, last = kinks[0::2], kinks[1::2]
    starts = np.flatnonzero(np.concatenate(([True], first[1:] - last[:-1] > width)))
    active_sets = tuple(tuple(i for i, inside in enumerate(row) if inside)
                        for row in inside[np.append(starts, first.size)].tolist())
    breakpoints = tuple(levels[0::2][starts].tolist())
    responses = np.clip(c + first[starts][:, None] * inv, lower, upper)
    return RegimeReport(
        breakpoints=breakpoints, active_sets=active_sets,
        slopes=tuple(map(slopes_for, active_sets)), intercepts=intercepts,
        anchors=tuple(zip(breakpoints, map(tuple, responses.tolist()))), **fields)


def _aggregate(deltas, lower, upper, s, probs, values=None):
    """The arrays _place and _pieces read: the caps (float arrays, one entry
    per agent), w = 1/delta, the states s with their probabilities p and
    p s, and the values whose scale _shares measures the clearing dust by
    (by default s)."""
    return _Aggregate(deltas, 1.0 / deltas, lower, upper, s, probs, probs * s,
                      s if values is None else values)


def _place(c, agg):
    """Each state's group of H's pieces at c (see _locate): the code
    #(runs whose first level is <= s) + #(runs whose last level is < s) of
    a state s is even on an open piece, odd in a run, and a state on a flat
    level of H gets a flat piece.  On an open piece whose inside agents'
    weights sum to W > 0, H = base + eta W, so eta = (s - base) / W, that
    piece's own form; a run, or a piece where every agent is at a cap, holds
    eta at its midpoint, a flat tail at its end kink.  Returns a _Pieces
    without the state sums: the fields of _locate but mids, code per state,
    and per group hold, base and width of eta = hold + (s - base) / width
    (width infinite where eta is held; see _eta)."""
    kinks, levels, inside, kinkless, hold, base = _locate(
        c, agg.deltas, agg.inv, agg.lower, agg.upper)
    code = (levels[0::2].searchsorted(agg.s, "right")
            + levels[1::2].searchsorted(agg.s, "left"))
    weight = inside @ agg.inv
    flat = weight == 0.0
    weight[flat] = math.inf
    hold[0::2] *= flat  # a rising piece reads eta off its form alone
    width = np.full(hold.size, math.inf)
    width[0::2] = weight
    offset = np.zeros(hold.size)
    offset[0::2] = base
    return _Pieces(kinks, levels, inside, kinkless, code, hold, offset, width)


def _eta(s, at, g):
    """eta at the states s on the groups g of the _Pieces at, off each
    group's own form (see _place)."""
    return at.hold[g] + (s - at.base[g]) / at.width[g]


def _pieces(c, agg):
    """E[X(c)] and the regime at c, from the groups of states of _place.
    No share crosses a cap inside an open piece, so E[X] sums
    mass * clip(c + eta/delta, L, U) over the groups with states, eta taken
    at the group's mean s.  A run's active set is the agents interior on
    both sides of it.  Returns the _Pieces of _place with mass and mean s
    per group (mean 0 where a group holds no state), shares = the clipped
    shares at the means of the groups with states, target = E[X(c)] and
    active per group."""
    at = _place(c, agg)
    groups = at.hold.size
    mass = np.bincount(at.code, agg.probs, groups)
    live = np.flatnonzero(mass)
    mean = np.zeros(groups)
    mean[live] = np.bincount(at.code, agg.ps, groups)[live] / mass[live]
    eta = _eta(mean[live], at, live)
    shares = np.minimum(np.maximum(c + eta[:, None] * agg.inv, agg.lower), agg.upper)
    # each open piece's row twice: row g of active is then an open piece's
    # own (g even) or the AND of a run's two neighbours (g odd)
    inside = at.inside.repeat(2, axis=0)
    return _Pieces(*at[:-5], mass, mean, shares, mass[live] @ shares,
                   inside[:-1] & inside[1:])


def _shares(c, at, agg):
    """Shadow prices eta and shares x[k] = clip(c + eta[k]/delta, L, U) with
    sum x[k] = s[k] for every state of agg, read from the _Pieces at of c
    on each state's group (see _eta).  Returns eta with shape (m,) and x
    with shape (m, n).  Shares whose sum passes the float range (S at the
    float maximum, split unevenly), before or after the dust is handed on,
    raise DomainError: check_clearing reads that sum as +-inf."""
    eta = _eta(agg.s, at, at.code)
    x = np.clip(c + eta[:, None] * agg.inv, agg.lower, agg.upper)
    residual = agg.s - x.sum(axis=1)
    rows = np.flatnonzero(residual)
    if rows.size:
        # exact clearing: hand the float dust to the first agent inside its
        # box by twice the dust (a dust that is not finite finds none)
        dust = residual[rows]
        margin = 2.0 * np.abs(dust)[:, None]
        inside = (x[rows] - margin > agg.lower) & (x[rows] + margin < agg.upper)
        agent = inside.argmax(axis=1)
        fixed = inside[np.arange(rows.size), agent]
        x[rows[fixed], agent[fixed]] += dust[fixed]
        # summed over agents in order, as check_clearing sums them (a dust
        # that is not finite leaves its row's sum so)
        if not np.isfinite(x[rows].T.sum(axis=0)).all():
            raise DomainError("the shares' sum passes the float range")
        if not fixed.all():
            lost = dust[~fixed]
            lost = lost[np.abs(lost) > clearing_tol(agg.values)]
            if lost.size:
                raise ContractError(
                    f"projection residual {lost[0]:g} with every agent at a cap")
    return eta, x


def _potential(c, at, agg, unit):
    """G(c) = E[sum_i delta_i (x_i(c, S) - c_i)^2] over unit^2 (see _psi),
    from the _Pieces at of c.  On a group of states x - c is the shares at
    the group's mean s less c, plus (s - mean) / (W delta_i) for each inside
    agent on a rising piece of width W: G sums mass * sum_i delta_i
    (shares_i - c_i)^2 over the groups with states, and
    p (s - mean)^2 / W over the states of the rising pieces, the spread
    taken about each group's own mean (width is infinite elsewhere)."""
    gap = (at.shares - c) / unit
    spread = agg.s / unit - (at.mean / unit)[at.code]
    return float(at.mass[at.mass > 0.0] @ (gap * gap @ agg.deltas)
                 + np.bincount(at.code, agg.probs * spread * spread, at.mass.size)
                 @ (1.0 / at.width))


def _same_regime(a, b):
    """Whether every state has the same active set in the _Pieces a and b:
    compared once for each pair of groups that share a state."""
    width = b.mass.size
    pairs = np.flatnonzero(np.bincount(a.code * width + b.code,
                                       minlength=a.mass.size * width))
    return np.array_equal(a.active[pairs // width], b.active[pairs % width])


def _regime_matrix(at, inv, root):
    """The symmetric M = D_w^(-1/2) J D_w^(1/2) = diag(1 - p A) + D_w^(1/2)
    A^T diag(p/(A w)) A D_w^(1/2) of the regime of the _Pieces at (J as in
    solve_capped_mv, A its mask per group, p the masses, w = inv, root = w^(1/2))."""
    A = at.active.astype(float)
    load = A @ inv
    weight = np.divide(at.mass, load, out=np.zeros_like(load), where=load > 0.0)
    M = (A.T * weight) @ A
    M *= np.multiply.outer(root, root)
    M.flat[::M.shape[0] + 1] += 1.0 - at.mass @ A
    return M


def _newton_step(at, f, inv, root):
    """d = pinv(J) f = D_w^(1/2) pinv(M) D_w^(-1/2) f for f = F(c) in the
    regime of the _Pieces at, over M's eigenvalues above PINV_RCOND max |lam|.
    The rest carry no part of f: M's null vectors are D_w^(-1/2) d for the
    shifts d, sum d = 0, among agents interior in every state, where
    F_j = w_j E[eta], so d^T D_w^(-1) F = E[eta] sum d = 0.  M w^(1/2) =
    w^(1/2) is always kept."""
    lam, V = np.linalg.eigh(_regime_matrix(at, inv, root))
    live = lam > PINV_RCOND * np.abs(lam).max()
    V = V[:, live]
    return (root[:, None] * V * (V.T @ (f / root))) @ (1.0 / lam[live])


_End = namedtuple("_End", "t point at psi line")


def _psi(du, f, deltas, unit):
    """psi = d^T D_delta f over unit^2, from du = d / unit.  unit is a power
    of two, so the divisions are exact: psi keeps its sign, and its ratio to
    a curvature read on du (see _line_search), to every bit, while the
    product of two values neither overflows nor underflows."""
    return float(du @ (deltas * (f / unit)))


def _line_search(c, d, at0, at1, psi1, agg, inv, root, w_unit, unit):
    """(c + t d, its _Pieces) at the root t in (0, 1) of
    psi(t) = d^T D_delta F(c + t d) (see _psi: every psi and curvature here
    is over unit^2), from the _Pieces at t = 0 and t = 1 and psi1 = psi(1),
    where psi(0) > 0 > psi(1).

    psi is minus half G's slope along d: piecewise linear and nonincreasing,
    with slope -d^T D_delta J d = -e^T M e, e = d/w^(1/2), while a regime
    holds (M its _regime_matrix).  M is read from the solve's inv = w / w_unit,
    w_unit a power of two, and root = inv^(1/2) (see solve_capped_mv), and
    so e^T M e as e'^T M e' / w_unit, e' = d / root.  A regime is convex in c, so
    between two points of one regime psi is one line.  The search keeps a
    bracket lo < root < hi and tries the root of psi's line through the end
    whose line puts it nearer; landing in that end's regime, it is psi's
    root.  Any other landing narrows the bracket, and a line root outside
    the bracket gives way to the bracket's midpoint.  The search also ends
    at psi = 0, and where the bracket, or the step from the nearer end, no
    longer splits in floats (then at the end with the smaller |psi|)."""
    du = d / unit
    e = du / root

    def end(t, point, at, psi):
        q = float(e @ _regime_matrix(at, inv, root) @ e) / w_unit
        return _End(t, point, at, psi, t + psi / q if q > 0.0 else math.copysign(math.inf, psi))

    # d is the Newton step of the regime at t = 0, so that line's root is 1
    lo = _End(0.0, c, at0, _psi(du, at0.target - c, agg.deltas, unit), 1.0)
    hi = end(1.0, c + d, at1, psi1)
    while True:
        near = lo if lo.line - lo.t <= hi.t - hi.line else hi
        t = near.line
        if t == near.t:
            return near.point, near.at
        if not lo.t < t < hi.t:
            near, t = None, 0.5 * (lo.t + hi.t)
        if not lo.t < t < hi.t:
            best = lo if lo.psi <= -hi.psi else hi
            return best.point, best.at
        point = c + t * d
        at = _pieces(point, agg)
        psi = _psi(du, at.target - point, agg.deltas, unit)
        if psi == 0.0 or near is not None and _same_regime(at, near.at):
            return point, at
        if psi > 0.0:
            lo = end(t, point, at, psi)
        else:
            hi = end(t, point, at, psi)


@np.errstate(over="ignore")  # kinks, levels and anchors past the float range read +-inf
def solve_capped_mv(problem):
    """Capped mean-variance optimum on a finite aggregate.

    Shares take the truncated-affine form X_i = clip(c_i + eta(S)/delta_i,
    L_i, U_i) where eta(s) is the statewise shadow price; the intercepts
    satisfy c_i = E[X_i].  Returns (Allocation, RegimeReport).

    The optimum need not be unique.  The objective is strictly convex in
    the centred shares, so the optima are X* + y for the constant vectors y
    with sum y = 0 and L_i - min X*_i <= y_i <= U_i - max X*_i, and their
    intercepts are c* + y.  The rule is: the reported intercepts are the
    ones nearest a E[S], a the proportional slopes, in the norm
    sum_i delta_i (.)^2.  From any optimum they are c* + y with
    y = clip(a E[S] - c* + eta/delta, L - min X*, U - max X*) and sum y = 0:
    one more H, of a single state 0, read by _place.  They are skipped when c*
    passes the optimality test min delta_i (c_i - a_i E[S]) over the agents
    with room to rise >= max over the agents with room to fall, less the
    solve's own slack FIXED_POINT_TOL * max |S| * max delta (c* is known
    only that well).  The shares then are X* + y, clipped to the caps
    against rounding: X(c* + y) without reading every state again.

    The fixed points minimise G(c) = E[sum_i delta_i (x_i(c, S) - c_i)^2],
    convex and piecewise quadratic with gradient -2 D_delta F(c),
    F(c) = E[X(c)] - c.  With A the mask of agents strictly inside their
    caps in each state and w = 1/delta, F has slope -J in the regime of A,
    J = I - E[P] and E[P] = diag(p A) - D_w A^T diag(p/(A w)) A.  From
    c = a E[S], each step takes the Newton direction d = pinv(J) F(c) from
    one eigendecomposition (see _newton_step) and moves to c + t d:

    - t = 1 when psi(t) = d^T D_delta F(c + t d), minus half G's slope
      along d, is still >= 0 there, when c + d is a fixed point by the
      stop below, or when G(c + d) < G(c), read from the pieces both points
      already have (see _potential) only where the first two fail;
    - otherwise t = the root of psi in (0, 1), from an exact line search
      (see _line_search), which the report counts.

    Every step so lowers G.

    E[X(c)] and the regime depend on S only through its mass and mean on
    each piece of H (see _pieces), so a step is O(m) one-dimensional work
    plus O(n pieces), and two points share a regime when every pair of
    groups that shares a state has one active set.  The solve stops at the
    first iterate whose residual is at most FIXED_POINT_TOL * max |S|, at
    every scale; an exact fixed point stops it even when S is 0.  The final
    shares and the report are read from that iterate's own pieces (see
    _shares and _report); the report's runs of kinks merge within the
    solve's slack above, and after a shift it reads one _locate at the
    shifted intercepts.  ConvergenceError after FIXED_POINT_MAX_ITERS steps.
    """
    problem = _instance(problem, MVProblem, "problem")
    space, S = problem.aggregate
    deltas, lower, upper = map(np.array, (problem.delta, problem.lower, problem.upper))
    agg = _aggregate(deltas, lower, upper, S.values, space.probs)
    # M, the Newton step and the curvature do not change when w = 1/delta
    # is scaled, so they read w over a power of two that tracks its scale
    # (the middle of its binades): then delta / 2^k gives the same bits,
    # where sqrt(2^k w) is not 2^(k/2) sqrt(w) for odd k
    w_unit = math.ldexp(1.0, -((math.frexp(min(problem.delta))[1]
                                + math.frexp(max(problem.delta))[1]) // 2))
    inv = agg.inv / w_unit
    root = np.sqrt(inv)
    mean_s = float(S.values @ space.probs)
    top = float(np.abs(S.values).max())
    fixed_point_tol = FIXED_POINT_TOL * top
    unit = math.ldexp(1.0, min(math.frexp(top)[1], sys.float_info.max_exp - 1))
    proportional = np.array([float(a) * mean_s for a in unconstrained_shares(problem.delta)])

    c = proportional
    at = _pieces(c, agg)
    searches = 0
    for iterations in range(1, FIXED_POINT_MAX_ITERS + 1):
        f = at.target - c
        residual = float(np.max(np.abs(f)))
        if residual <= fixed_point_tol:
            break
        d = _newton_step(at, f, inv, root)
        step = c + d
        at_step = _pieces(step, agg)
        f_step = at_step.target - step
        psi = _psi(d / unit, f_step, deltas, unit)
        if (psi < 0.0 and np.max(np.abs(f_step)) > fixed_point_tol
                and _potential(step, at_step, agg, unit) >= _potential(c, at, agg, unit)):
            step, at_step = _line_search(c, d, at, at_step, psi, agg, inv, root, w_unit, unit)
            searches += 1
        c, at = step, at_step
    else:
        raise ConvergenceError(
            "intercept fixed point did not converge",
            last_iterate=tuple(c), residual=residual)

    shares = _shares(c, at, agg)[1]
    located = at
    low, high = shares.min(axis=0), shares.max(axis=0)
    gap = deltas * (c - proportional)
    slack = fixed_point_tol * float(deltas.max())
    if (gap[high < upper].min(initial=math.inf)
            < gap[low > lower].max(initial=-math.inf) - slack):
        box = _aggregate(deltas, lower - low, upper - high, np.zeros(1), np.ones(1), S.values)
        y = _shares(proportional - c, _place(proportional - c, box), box)[1][0]
        c = c + y
        shares = np.clip(shares + y, lower, upper)
        located = _locate(c, deltas, agg.inv, lower, upper)
    allocation = Allocation(
        space, tuple(RandomVariable(space, col.copy()) for col in shares.T), S)
    return allocation, _report(c, located, agg.inv, lower, upper, slack, residual=residual,
                               iterations=iterations, searches=searches)


def mv_objective(delta, allocation):
    """sum_i E[X_i] + delta_i Var(X_i)."""
    deltas = _positive_deltas(delta)
    allocation = _instance(allocation, Allocation, "the allocation")
    if len(deltas) != allocation.n_agents:
        raise ValidationError("one variance weight per agent")
    return sum(mean_variance(share, d) for d, share in zip(deltas, allocation.shares))


def two_agent_fixed_point(a, C, S):
    """All intercepts beta with beta = E[clip(a S + beta, 0, C)] - a E[S].

    The residual is continuous, nonincreasing, and piecewise linear in beta,
    and the solution set is a closed interval, returned as (beta_minus,
    beta_plus).  It is solve_capped_mv's reading at n = 2: agent 0 uncapped
    with delta_0 = 1/(1 - a), agent 1 in [0, C] with delta_1 = 1/a, so that
    X_1 = clip(a S + beta, 0, C) with beta = c_1 - a (c_0 + c_1), and the
    optima X* + y of the solver's docstring put beta in
    [beta - min X*_1, beta + C - max X*_1].  Both ends solve the fixed point
    to the solver's stop, FIXED_POINT_TOL relative to max |S|.
    """
    a, C = _real(a, "slope a"), _real(C, "cap C")
    if not 0.0 < a < 1.0:
        raise DomainError("slope a must lie strictly between 0 and 1")
    if not 0.0 < C < math.inf:
        raise DomainError("cap C must be positive and finite")
    S = _instance(S, RandomVariable, "S")
    allocation, report = solve_capped_mv(
        MVProblem((1.0 / (1.0 - a), 1.0 / a), (-math.inf, 0.0), (math.inf, C), (S.space, S)))
    c0, c1 = report.intercepts
    beta = c1 - a * (c0 + c1)
    x = allocation.shares[1].values
    return beta - float(x.min()), beta + (C - float(x.max()))


def _as_fraction(x, name):
    """x as a Fraction: an int or Fraction exactly, another real number as
    probspace._real reads it."""
    x = _fraction(x) if _exact(x) else _real(x, name)
    # the kinks meet infinite caps in float arithmetic, so every value must
    # convert to a finite float
    if not abs(x) <= sys.float_info.max:
        raise ValidationError(f"{name} must be finite")
    return Fraction(x)


def saturation_curve(delta, upper):
    """Zero-intercept clipped quota-share curve in exact rational arithmetic.

    Agents share s proportionally until each hits its upper cap, after which
    the remaining agents re-share with renormalized slopes.  Returns a
    RegimeReport whose breakpoints, slopes, and anchors are Fractions when
    the inputs are rational; share_at then evaluates exactly.  With every
    cap finite the curve ends at sum(U), reported as terminal_s.
    """
    n = len(delta)
    if n == 0:
        raise ValidationError("need at least one agent")
    deltas = [_as_fraction(d, "delta") for d in delta]
    if any(d <= 0 for d in deltas):
        raise DomainError("every variance weight must be positive")
    if len(upper) != n:
        raise ValidationError("one upper cap per agent")
    caps = [math.inf if u == math.inf else _as_fraction(u, "upper cap")
            for u in upper]
    if any(cap <= 0 for cap in caps):
        raise ValidationError("every cap must be positive")

    deltas = np.array(deltas, dtype=object)
    c = np.array([Fraction(0)] * n, dtype=object)
    lower, upper = np.full(n, -math.inf, dtype=object), np.array(caps, dtype=object)
    with np.errstate(invalid="ignore"):  # the nan kinks of tiny weights
        located = _locate(c, deltas, 1 / deltas, lower, upper)
    return _report(c, located, 1 / deltas, lower, upper,
                   terminal_s=None if math.inf in caps else sum(caps))


# Gamma(2,1) partial moments: G_m(x) = integral_0^x t^m e^(-t) dt for the
# integer m needed by affine pieces (the density is s e^(-s), so the k-th
# partial power moment over [lo, hi] is G_{k+1}(hi) - G_{k+1}(lo)).

def _g1(x):
    if x == math.inf:
        return 1.0
    return 1.0 - math.exp(-x) * (1.0 + x)


def _g2(x):
    if x == math.inf:
        return 2.0
    return 2.0 - math.exp(-x) * (2.0 + 2.0 * x + x * x)


def _g3(x):
    if x == math.inf:
        return 6.0
    return 6.0 - math.exp(-x) * (6.0 + 6.0 * x + 3.0 * x * x + x ** 3)


def _piece_moments(lo, hi, y0, v, x0):
    """(E[h 1], E[h^2 1], E[s h 1]) over S in [lo, hi) for the piece
    h(s) = y0 + v (s - x0) = u + v s, u = y0 - v x0."""
    u = y0 - v * x0
    i0 = _g1(hi) - _g1(lo)
    i1 = _g2(hi) - _g2(lo)
    i2 = _g3(hi) - _g3(lo)
    e = u * i0 + v * i1
    e2 = u * u * i0 + 2.0 * u * v * i1 + v * v * i2
    es = u * i1 + v * i2
    return e, e2, es


def _variance_pair(pieces):
    """(Var h(S), Var(S - h(S))) for a piecewise-affine h covering [0, inf),
    a table of pieces (lo, hi, y0, v, x0) (see _piece_moments)."""
    e = e2 = es = 0.0
    for piece in pieces:
        de, de2, des = _piece_moments(*piece)
        e += de
        e2 += de2
        es += des
    var_h = e2 - e * e
    cov = es - 2.0 * e  # E[S] = 2
    var_rest = 2.0 + var_h - 2.0 * cov  # Var(S) = 2
    return var_h, var_rest


@dataclass(frozen=True)
class VarScenarioReport:
    """Two-agent mean-variance sharing of a Gamma(2,1) aggregate under
    X_i >= 0 and VaR ceilings, with agent 2 the variance-averse one.

    Carries the four objective values (unconstrained, constrained,
    comonotone-restricted, autarky), the optimal four-regime rule
    parameters, the comonotone family parameters, the jump sizes at q, and
    a non-comonotonicity witness straddling q.
    """

    delta: tuple
    var_level: float
    ceiling: float
    lam: float
    q: float
    m_star: float
    a: float
    r: float
    unconstrained: float
    constrained: float
    comonotone_restricted: float
    autarky: float
    com_params: tuple
    jump_agent1: float
    jump_agent2: float
    witness: tuple

    def constrained_shares(self, s):
        """(X_1, X_2) under the optimal four-regime rule; vectorized."""
        f = _read_pieces(_four_regime_pieces(self.m_star, self.lam, self.q, self.ceiling), s)
        return s - f, f

    def comonotone_shares(self, s):
        """(X_1, X_2) under the best comonotone rule found; vectorized."""
        g = _read_pieces(_comonotone_pieces(*self.com_params, self.q, self.ceiling), s)
        return g, s - g


def _read_pieces(pieces, s):
    """h(s) = y0 + v (s - x0) on the first piece (lo, hi, y0, v, x0) of the
    table with s <= hi; vectorized."""
    _, hi, y0, v, x0 = np.array(pieces).T
    k = hi[:-1].searchsorted(s)
    return y0[k] + v[k] * (s - x0[k])


def _four_regime_pieces(m, lam, q, ceiling):
    """Agent 2's share under the four-regime rule of intercept m: s, then
    m + lam s from a, s - ceiling from r (agent 1 at the ceiling) and
    m + lam s again from q."""
    a, r = m / (1.0 - lam), (ceiling + m) / (1.0 - lam)
    return ((0.0, a, 0.0, 1.0, 0.0), (a, r, m, lam, 0.0),
            (r, q, -ceiling, 1.0, 0.0), (q, math.inf, m, lam, 0.0))


def _comonotone_pieces(s_c, k1, k2, q, ceiling):
    """Agent 1's share under the comonotone family: zero until s0, slope k1
    up to the ceiling at s_c <= q, flat at the ceiling until q, slope k2
    after."""
    s0 = s_c - ceiling / k1
    return ((0.0, s0, 0.0, 0.0, 0.0), (s0, s_c, 0.0, k1, s0),
            (s_c, q, ceiling, 0.0, 0.0), (q, math.inf, ceiling, k2, q))


def _minimize_bounded(func, lo, hi, xatol, maxfun=500):
    """(x, func(x)) at a local minimum of func on [lo, hi], to within about
    xatol, by Brent's golden-section and parabolic search (Algorithms for
    Minimization without Derivatives, 1973, ch. 5), step for step as the
    widely used Python fminbound, whose results it repeats bit for bit; it
    stops after maxfun calls of func."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def var_scenario():
    """The two-agent VaR-ceiling scenario on the Gamma(2,1) aggregate.

    Fixed-parameter reproduction: delta = (1/100, 1), level 0.95, ceiling 3.
    The optimal rule gives agent 2 the four-regime share f(S) and is
    discontinuous at q, the 0.95 quantile of the aggregate, so the optimum
    is not comonotonic; the comonotone-restricted value is strictly worse.
    """
    d1, d2 = 0.01, 1.0
    var_level = 0.95
    ceiling = 3.0
    lam = d1 / (d1 + d2)
    q = gamma_quantile(GammaAggregate(), var_level)

    # exact rational values: the proportional optimum and autarky
    d1_frac, d2_frac = Fraction(1, 100), Fraction(1)
    lam_frac = d1_frac / (d1_frac + d2_frac)
    unconstrained = float(
        2 + 2 * (d1_frac * (1 - lam_frac) ** 2 + d2_frac * lam_frac ** 2))
    autarky = float(2 + d1_frac + d2_frac)

    def constrained_value(m):
        var_f, var_rest = _variance_pair(_four_regime_pieces(m, lam, q, ceiling))
        return 2.0 + d1 * var_rest + d2 * var_f

    m_hi = (1.0 - lam) * q - ceiling
    m_star, constrained = _minimize_bounded(
        constrained_value, 1e-9, m_hi - 1e-9, 1e-10)
    m_star, constrained = float(m_star), float(constrained)
    a, r = (hi for _, hi, *_ in _four_regime_pieces(m_star, lam, q, ceiling)[:2])

    def com_value(s_c, k1, k2):
        var_g, var_rest = _variance_pair(_comonotone_pieces(s_c, k1, k2, q, ceiling))
        return 2.0 + d1 * var_g + d2 * var_rest

    def best_k2(s_c, k1):
        k2, value = _minimize_bounded(lambda k2: com_value(s_c, k1, k2), 0.0, 1.0, 1e-8)
        return float(k2), float(value)

    def best_k1(s_c):
        lo = ceiling / s_c
        k1, _ = _minimize_bounded(lambda k1: best_k2(s_c, k1)[1], lo, 1.0, 1e-7)
        return float(k1), best_k2(s_c, float(k1))[1]

    s_c = float(_minimize_bounded(lambda s_c: best_k1(s_c)[1], ceiling, q, 1e-6)[0])
    k1 = best_k1(s_c)[0]
    k2, comonotone = best_k2(s_c, k1)

    f_left = q - ceiling
    f_right = m_star + lam * q
    x1_left = ceiling
    x1_right = (1.0 - lam) * q - m_star
    h = 1e-3
    s_lo, s_hi = q - h, q + h
    # agent 1 rises across q while agent 2 falls: the comonotonicity breach
    witness = (
        (s_lo, s_hi),
        (ceiling, (1.0 - lam) * s_hi - m_star),
        (s_lo - ceiling, m_star + lam * s_hi),
    )

    return VarScenarioReport(
        delta=(d1, d2), var_level=var_level, ceiling=ceiling, lam=lam, q=q,
        m_star=m_star, a=a, r=r, unconstrained=unconstrained,
        constrained=constrained, comonotone_restricted=comonotone,
        autarky=autarky, com_params=(s_c, k1, k2),
        jump_agent1=x1_right - x1_left, jump_agent2=f_right - f_left,
        witness=witness)
