"""Mean-variance risk sharing with box caps.

Machinery: the unconstrained proportional rule, the capped optimum via a
statewise shadow price (exact piecewise-linear inversion of the clipped
aggregate response, every state in one batched pass) together with the
intercept fixed point, zero-intercept saturation curves in exact rational
arithmetic, the two-agent intercept fixed-point interval, and the two-agent
value-at-risk ceiling scenario on a Gamma(2,1) aggregate with closed-form
piecewise moments.

The intercept fixed point can be non-unique when caps bind (the two-agent
interval above is the simplest case).  solve_capped_mv reports the limit of
the damped iteration c <- (c + E[X(c)]) / 2 from c = a E[S].  It reaches
that limit by regime-limit jumps: E[X(c)] - c is piecewise affine in c, so
within one regime (the agents interior in each state) the damped iteration's
limit has a closed form, and a jump goes straight there.  A jump that does
not at least halve the residual is replaced by one damped step.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral

import numpy as np

from .allocation import Allocation
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
    distribution_of,
    gamma_quantile,
    value_scale,
)
from .riskmeasures import mean_variance

FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITERS = 10 ** 4
FIXED_POINT_DAMPING = 0.5
KINK_MERGE_RTOL = 1e-12
RESIDUAL_ZERO_TOL = 1e-12


def _positive_deltas(delta):
    out = tuple(float(d) for d in delta)
    if not out:
        raise ValidationError("need at least one agent")
    if any(d <= 0.0 or not math.isfinite(d) for d in out):
        raise DomainError("every variance weight must be positive and finite")
    return out


def _caps(delta, lower, upper):
    """(deltas, lower, upper) as float tuples: positive finite variance
    weights and one cap pair with lower < upper per agent."""
    deltas = _positive_deltas(delta)
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)
    if not (len(lower) == len(upper) == len(deltas)):
        raise ValidationError("delta, lower, upper must have equal length")
    if not all(l < u for l, u in zip(lower, upper)):  # a NaN cap fails too
        raise ValidationError("caps need lower < upper for every agent")
    return deltas, lower, upper


def unconstrained_shares(delta):
    """Proportional slopes a_i = (1/delta_i) / sum_j (1/delta_j).

    Integer or Fraction inputs give exact Fractions; floats give floats.
    """
    if not delta:
        raise ValidationError("need at least one agent")
    exact = all(isinstance(d, (Integral, Fraction)) and not isinstance(d, bool)
                for d in delta)
    deltas = [Fraction(d) if exact else float(d) for d in delta]
    if not all(0 < d < math.inf for d in deltas):
        raise DomainError("every variance weight must be positive and finite")
    weights = [1 / d for d in deltas]
    total = sum(weights)
    return tuple(w / total for w in weights)


def _extended_sum(values):
    if any(v == -math.inf for v in values):
        return -math.inf
    if any(v == math.inf for v in values):
        return math.inf
    return math.fsum(values)


def _kink_responses(c, deltas, inv, lower, upper):
    """Sorted distinct kinks delta_i (L_i - c_i), delta_i (U_i - c_i) of the
    clipped response H(eta) = sum_i clip(c_i + eta/delta_i, L_i, U_i), and
    the clipped responses at each kink, one row per kink; H at the kinks is
    their row sum.  Arguments have one entry per agent and are either float
    arrays or object arrays of Fractions (infinite caps as float infinities),
    and the results keep that arithmetic."""
    kinks = np.concatenate((deltas * (lower - c), deltas * (upper - c)))
    # an infinite cap puts its kink at infinity: no kink.  So does the nan
    # of a Fraction weight that rounds to float 0 times an infinite cap.
    # np.isfinite rejects object arrays, so filter in Python.
    kinks = np.array(sorted({k for k in kinks.tolist() if -math.inf < k < math.inf}),
                     dtype=c.dtype)
    return kinks, np.clip(c + kinks[:, None] * inv, lower, upper)


def _project_states(c, deltas, inv, lower, upper, s):
    """Shadow prices eta and shares x[k] = clip(c + eta[k]/delta, L, U) with
    sum x[k] = s[k], for every state value in s at once.

    H is nondecreasing and piecewise linear, so one sort of its kinks and
    two searchsorted calls over H at the kinks locate every state.
    Strictly between two kinks eta is interpolated; past either end the
    agents with an infinite cap on that side drive H, and eta stops at the
    end kink when there are none; exactly on kink levels eta is the
    midpoint of the flat kink run.  Returns eta with shape (m,) and x with
    shape (m, n).
    """
    kinks, responses = _kink_responses(c, deltas, inv, lower, upper)
    if kinks.size == 0:
        eta = (s - c.sum()) / inv.sum()
    else:
        levels = responses.sum(axis=1)
        # piece j holds the states above j kink levels; on it eta =
        # kinks[a] + (s - levels[a]) * rise / run with a = max(j - 1, 0).
        # The tails rise 1 over the slope of the agents uncapped on that
        # side, or 0 over 1 when H is flat there.
        below = inv[lower == -math.inf].sum()
        above = inv[upper == math.inf].sum()
        rise = np.concatenate(
            ([float(below > 0.0)], kinks[1:] - kinks[:-1], [float(above > 0.0)]))
        run = np.concatenate(([below or 1.0], levels[1:] - levels[:-1], [above or 1.0]))
        piece = levels.searchsorted(s)
        a = np.maximum(piece - 1, 0)
        eta = kinks[a] + (s - levels[a]) * rise[piece] / run[piece]
        end = levels.searchsorted(s, "right")
        flat = piece < end
        if flat.any():
            eta[flat] = 0.5 * (kinks[piece[flat]] + kinks[end[flat] - 1])

    x = np.clip(c + eta[:, None] * inv, lower, upper)
    residual = s - x.sum(axis=1)
    rows = np.flatnonzero(residual)
    if rows.size:
        # exact clearing: hand the float dust to the first agent strictly
        # inside its box
        dust = residual[rows]
        margin = np.maximum(2.0 * np.abs(dust), 1e-12)[:, None]
        inside = (x[rows] - margin > lower) & (x[rows] + margin < upper)
        agent = inside.argmax(axis=1)
        fixed = inside[np.arange(rows.size), agent]
        x[rows[fixed], agent[fixed]] += dust[fixed]
        if not fixed.all():
            lost = dust[~fixed]
            lost = lost[np.abs(lost) > VALUE_TOL * value_scale(s)]
            if lost.size:
                raise ContractError(
                    f"projection residual {lost[0]:g} with every agent at a cap")
    return eta, x


def statewise_projection(c, delta, lower, upper, s):
    """Shadow price eta and shares x_i = clip(c_i + eta/delta_i, L_i, U_i)
    with sum x_i = s.

    The clipped response H(eta) = sum_i clip(c_i + eta/delta_i, L_i, U_i) is
    nondecreasing and piecewise linear with kinks where a clip activates;
    eta is found by exact inversion over the sorted kink set, taking the
    midpoint of the solution interval when H is flat at level s.
    """
    deltas, lower, upper = _caps(delta, lower, upper)
    c = tuple(float(v) for v in c)
    if len(c) != len(deltas):
        raise ValidationError("one intercept per agent")
    s = float(s)
    total_lower = _extended_sum(lower)
    total_upper = _extended_sum(upper)
    if s < total_lower - 1e-12 or s > total_upper + 1e-12:
        raise InfeasibleError(
            f"s = {s:g} outside the feasible cap range [{total_lower:g}, {total_upper:g}]")
    deltas = np.array(deltas)
    eta, x = _project_states(np.array(c), deltas, 1.0 / deltas, np.array(lower),
                             np.array(upper), np.array([s]))
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
        s_min, s_max = float(S.values.min()), float(S.values.max())
        if _extended_sum(self.lower) > s_min + 1e-12:
            raise ValidationError("sum of lower caps exceeds the smallest aggregate value")
        if _extended_sum(self.upper) < s_max - 1e-12:
            raise ValidationError("sum of upper caps is below the largest aggregate value")

    @property
    def n_agents(self):
        return len(self.delta)


@dataclass(frozen=True)
class RegimeReport:
    """Piecewise-affine share curves: breakpoints in s, the active set and
    per-agent slope in each regime, anchor share vectors at the breakpoints,
    the intercepts, the intercept fixed-point residual, and the number of
    solver steps (regime-limit jumps or damped steps, see solve_capped_mv)
    that produced them, counting the pass that found the residual below
    FIXED_POINT_TOL * value_scale(S) (0 where no solve ran).

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


def _regimes_from_intercepts(c, deltas, inv, lower, upper, residual, iterations):
    """RegimeReport of the share curves x(s) = clip(c + eta(s)/delta, L, U),
    in the arithmetic of the arguments (see _kink_responses).

    Float kinks closer than KINK_MERGE_RTOL (relative) are one kink: agents
    that saturate together at solved intercepts give kinks a few ulps
    apart, which would open regimes of width ~1e-16 whose active sets
    rounding decides.  Each run of close kinks keeps its first.  Exact
    (Fraction) kinks are never merged.
    """
    n = len(deltas)
    kinks, responses = _kink_responses(c, deltas, inv, lower, upper)
    if kinks.dtype != object and kinks.size > 1:
        gaps = kinks[1:] - kinks[:-1]
        keep = np.concatenate(
            ([True], gaps > KINK_MERGE_RTOL * np.maximum(1.0, np.abs(kinks[1:]))))
        kinks, responses = kinks[keep], responses[keep]
    intercepts = tuple(c.tolist())
    weights = inv.tolist()

    def slopes_for(active):
        total = sum(weights[i] for i in active)
        return tuple(w / total if i in active else 0 * w for i, w in enumerate(weights))

    if kinks.size == 0:
        active = tuple(range(n))
        return RegimeReport(
            breakpoints=(), active_sets=(active,), slopes=(slopes_for(active),),
            intercepts=intercepts, residual=residual,
            anchors=((sum(intercepts), intercepts),), iterations=iterations)

    probes = np.concatenate(
        ([kinks[0] - 1], (kinks[:-1] + kinks[1:]) / 2, [kinks[-1] + 1]))
    free = c + probes[:, None] * inv
    active_sets = tuple(tuple(i for i, inside in enumerate(row) if inside)
                        for row in ((lower < free) & (free < upper)).tolist())
    breakpoints = tuple(responses.sum(axis=1).tolist())
    return RegimeReport(
        breakpoints=breakpoints, active_sets=active_sets,
        slopes=tuple(slopes_for(a) for a in active_sets),
        intercepts=intercepts, residual=residual,
        anchors=tuple(zip(breakpoints, (tuple(row) for row in responses.tolist()))),
        iterations=iterations)


def solve_capped_mv(problem):
    """Capped mean-variance optimum on a finite aggregate.

    Shares take the truncated-affine form X_i = clip(c_i + eta(S)/delta_i,
    L_i, U_i) where eta(s) is the statewise shadow price; the intercepts
    satisfy c_i = E[X_i].  Returns (Allocation, RegimeReport).

    The intercept fixed point need not be unique: with caps binding, a
    continuum of intercepts can reach the same objective.  The rule is: the
    reported intercepts are the limit of the damped iteration
    c <- (c + E[X(c)]) / 2 from c = a E[S], a the proportional slopes.

    Each step first tries a regime-limit jump.  With A the mask of agents
    strictly inside their caps in each state and w = 1/delta, F(c) =
    E[X(c)] - c has slope -J in the regime of A, J = I - E[P] and E[P] =
    diag(p A) - D_w A^T diag(p/(A w)) A.  The damped iteration, while that
    regime holds, converges to c + J^# F(c), J^# the group inverse of J; the
    jump goes there.  It is taken if it at least halves the max-norm
    residual, or lands on a fixed point in the same regime; otherwise the
    step is one damped step.  Every step projects all states at once, and
    the report counts the steps.  ConvergenceError after
    FIXED_POINT_MAX_ITERS steps.
    """
    if not isinstance(problem, MVProblem):
        raise ValidationError("solve_capped_mv needs an MVProblem")
    space, S = problem.aggregate
    deltas = np.array(problem.delta)
    inv = 1.0 / deltas
    root = np.sqrt(inv)
    lower = np.array(problem.lower)
    upper = np.array(problem.upper)
    probs = space.probs
    support = S.values
    mean_s = float(support @ probs)
    fixed_point_tol = FIXED_POINT_TOL * value_scale(support)
    slopes = unconstrained_shares(problem.delta)
    c = np.array([float(a) * mean_s for a in slopes])

    def evaluate(c):
        # E[X(c)] and the mask of agents strictly inside their caps: there
        # x = c + eta/delta, as clipped agents sit exactly on a cap and the
        # clearing dust goes to an agent well inside its box
        x = _project_states(c, deltas, inv, lower, upper, support)[1]
        return probs @ x, (lower < x) & (x < upper)

    def regime_limit(active, f):
        # J^# F for the regime of active: J = D_w^(1/2) M D_w^(-1/2) with
        # M = diag(1 - p A) + D_w^(1/2) A^T diag(p/(A w)) A D_w^(1/2)
        # symmetric, so J^# = D_w^(1/2) pinv(M) D_w^(-1/2)
        A = active.astype(float)
        load = A @ inv
        weight = np.divide(probs, load, out=np.zeros_like(load), where=load > 0.0)
        M = (A.T * weight) @ A
        M *= np.multiply.outer(root, root)
        M[np.diag_indices_from(M)] += 1.0 - probs @ A
        return root * (np.linalg.pinv(M, hermitian=True) @ (f / root))

    target, active = evaluate(c)
    residual = math.inf
    for iterations in range(1, FIXED_POINT_MAX_ITERS + 1):
        f = target - c
        residual = float(np.max(np.abs(f)))
        if residual < fixed_point_tol:
            c = target
            break
        jump = c + regime_limit(active, f)
        target_jump, active_jump = evaluate(jump)
        r_jump = float(np.max(np.abs(target_jump - jump)))
        if r_jump <= 0.5 * residual or (
                r_jump < fixed_point_tol and np.array_equal(active_jump, active)):
            c, target, active = jump, target_jump, active_jump
        else:
            c = (1.0 - FIXED_POINT_DAMPING) * c + FIXED_POINT_DAMPING * target
            target, active = evaluate(c)
    else:
        raise ConvergenceError(
            "intercept fixed point did not converge",
            last_iterate=tuple(c), residual=residual)

    shares = _project_states(c, deltas, inv, lower, upper, support)[1]
    allocation = Allocation(
        space, tuple(RandomVariable(space, col.copy()) for col in shares.T), S)
    report = _regimes_from_intercepts(
        c, deltas, inv, lower, upper, residual, iterations)
    return allocation, report


def mv_objective(delta, allocation):
    """sum_i E[X_i] + delta_i Var(X_i)."""
    deltas = _positive_deltas(delta)
    if len(deltas) != allocation.n_agents:
        raise ValidationError("one variance weight per agent")
    total = 0.0
    for d, share in zip(deltas, allocation.shares):
        total += mean_variance(share, d)
    return total


def two_agent_fixed_point(a, C, S):
    """All intercepts beta with beta = E[clip(a S + beta, 0, C)] - a E[S].

    The residual is continuous, nonincreasing, and piecewise linear in beta;
    the solution set is a closed interval, returned as (beta_minus,
    beta_plus) with both endpoints solving the fixed point within 1e-10 at unit
    scale; kink residuals within RESIDUAL_ZERO_TOL * value_scale(S) count as zero.
    """
    a = float(a)
    C = float(C)
    if not 0.0 < a < 1.0:
        raise DomainError("slope a must lie strictly between 0 and 1")
    if not 0.0 < C < math.inf:
        raise DomainError("cap C must be positive and finite")
    values, probs = map(np.array, zip(*distribution_of(S)))
    mean_term = a * float(values @ probs)

    def residual(beta):
        return float(np.clip(a * values + beta, 0.0, C) @ probs) - mean_term - beta

    kinks = sorted({-a * v for v in values} | {C - a * v for v in values})
    r_vals = [residual(k) for k in kinks]
    tol = RESIDUAL_ZERO_TOL * value_scale(values)
    last = len(kinks) - 1

    def root(j):
        # zero of the residual on the piece right of kink j (j = -1: left
        # of every kink); both tails have slope -1
        if j < 0:
            return kinks[0] + r_vals[0]
        if j == last:
            return kinks[-1] + r_vals[-1]
        r_a, r_b = r_vals[j], r_vals[j + 1]
        k_a, k_b = kinks[j], kinks[j + 1]
        return k_a + r_a * (k_b - k_a) / (r_a - r_b)

    # the roots run from the piece before the first kink with r <= tol to
    # the piece after the last kink of the run that follows with r >= -tol
    j0 = next((j for j, r in enumerate(r_vals) if r <= tol), len(kinks))
    j1 = j0 - 1
    while j1 < last and r_vals[j1 + 1] >= -tol:
        j1 += 1
    return root(j0 - 1), root(j1)


def _as_fraction(x, name):
    if isinstance(x, bool) or not isinstance(x, (Integral, Fraction, float)):
        raise ValidationError(f"{name} must be a real number")
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
    with np.errstate(invalid="ignore"):  # the nan kinks of tiny weights
        report = _regimes_from_intercepts(
            np.array([Fraction(0)] * n, dtype=object), deltas, 1 / deltas,
            np.full(n, -math.inf, dtype=object),
            np.array(caps, dtype=object), residual=0.0, iterations=0)
    if math.inf not in caps:
        report = replace(report, terminal_s=sum(caps))
    return report


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


def _piece_moments(lo, hi, u, v):
    """(E[h 1], E[h^2 1], E[s h 1]) over S in [lo, hi) for h(s) = u + v s."""
    i0 = _g1(hi) - _g1(lo)
    i1 = _g2(hi) - _g2(lo)
    i2 = _g3(hi) - _g3(lo)
    e = u * i0 + v * i1
    e2 = u * u * i0 + 2.0 * u * v * i1 + v * v * i2
    es = u * i1 + v * i2
    return e, e2, es


def _variance_pair(pieces):
    """(Var h(S), Var(S - h(S))) for a piecewise-affine h covering [0, inf)."""
    e = e2 = es = 0.0
    for lo, hi, u, v in pieces:
        de, de2, des = _piece_moments(lo, hi, u, v)
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
        s = np.asarray(s, dtype=float)
        f = np.where(
            s <= self.a, s,
            np.where(s <= self.r, self.m_star + self.lam * s,
                     np.where(s <= self.q, s - self.ceiling,
                              self.m_star + self.lam * s)))
        return s - f, f

    def comonotone_shares(self, s):
        """(X_1, X_2) under the best comonotone rule found; vectorized."""
        s_c, k1, k2 = self.com_params
        s0 = s_c - self.ceiling / k1
        s = np.asarray(s, dtype=float)
        g = np.where(
            s <= s0, 0.0,
            np.where(s <= s_c, k1 * (s - s0),
                     np.where(s <= self.q, self.ceiling,
                              self.ceiling + k2 * (s - self.q))))
        return g, s - g


def _four_regime_pieces(m, lam, q, ceiling):
    one_minus = 1.0 - lam
    a = m / one_minus
    r = (ceiling + m) / one_minus
    return a, r, (
        (0.0, a, 0.0, 1.0),
        (a, r, m, lam),
        (r, q, -ceiling, 1.0),
        (q, math.inf, m, lam),
    )


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
        _, _, pieces = _four_regime_pieces(m, lam, q, ceiling)
        var_f, var_rest = _variance_pair(pieces)
        return 2.0 + d1 * var_rest + d2 * var_f

    m_hi = (1.0 - lam) * q - ceiling
    m_star, constrained = _minimize_bounded(
        constrained_value, 1e-9, m_hi - 1e-9, 1e-10)
    m_star, constrained = float(m_star), float(constrained)
    a, r, _ = _four_regime_pieces(m_star, lam, q, ceiling)

    # comonotone family for agent 1: zero until s0, slope k1 up to the
    # ceiling at s_c <= q, flat at the ceiling until q, slope k2 after
    def com_value(s_c, k1, k2):
        s0 = s_c - ceiling / k1
        pieces = (
            (0.0, s0, 0.0, 0.0),
            (s0, s_c, -k1 * s0, k1),
            (s_c, q, ceiling, 0.0),
            (q, math.inf, ceiling - k2 * q, k2),
        )
        var_g, var_rest = _variance_pair(pieces)
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
