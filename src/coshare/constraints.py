"""Constraint descriptors, feasibility checks, and solidity classification.

A constraint set is *solid* when it is closed under componentwise
convex-order reduction inside the clearing class: replacing a feasible
allocation by one whose shares are all smaller in convex order, and which
still clears the aggregate, can never leave the feasible region.  Solid sets
admit comonotonic optimizers, so the classification gates whether the
comonotonic search spaces used by the solvers are exhaustive.

Classification is syntactic over the constraint grammar and never semantic:
a NotSolid verdict means "not certified solid".  ``falsify_solidity``
searches for an empirical witness, a feasible allocation together with an
infeasible convex-order reduction of it, and absence of a witness is not a
proof of solidity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .allocation import (Allocation, _require_clearing, check_clearing,
                         comonotonic_improvement, condition_on_aggregate)
from .errors import ValidationError
from .probspace import (VALUE_TOL, RandomVariable, agent_sum, rows_all, rows_any,
                        value_scale)
from .riskmeasures import (
    VAR,
    Consistency,
    RiskMeasureSpec,
    _ladder_mean,
    _validate_ladder,
    cx_consistency_flag,
    measure_values,
)
from .stochorder import convex_order_mask

ENVELOPE_SLOPE_TOL = 1e-12
FALSIFY_CHAIN_LIMIT = 16
# candidate cells (chains x steps x agents x atoms) the falsifier builds and
# verifies at once, and share cells (grid points x agents x atoms) the oracle
# checks at once; peak memory is a few times this, whatever the budget or grid
_BLOCK_CELLS = 2 ** 20


class Solidity(enum.Enum):
    SOLID = "Solid"
    NOT_SOLID = "NotSolid"
    UNKNOWN = "Unknown"


_MEET_RANK = {Solidity.NOT_SOLID: 0, Solidity.UNKNOWN: 1, Solidity.SOLID: 2}


@dataclass(frozen=True)
class SolidityVerdict:
    status: Solidity
    reason: str
    witness: object = None


def _format_slope(slope):
    frac = Fraction(slope).limit_denominator(10 ** 6)
    if abs(float(frac) - slope) <= 1e-9:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return f"{slope:.6g}"


class _Kind:
    """Base of the constraint kinds; each kind defines, in one place:

    - band(V, s_values, probs, tol) -> (value, lower, upper) on the rows of
      V (rows x atoms): a row is feasible where lower - tol <= value <=
      upper + tol in every column, tol already times value_scale(S).
      Statewise kinds return V itself, with scalar or per-atom bounds that
      do not depend on the rows, so a share value passes or fails on its
      own (_statewise_limits reads the bounds from a band of no rows, and
      the oracle prunes its grid axes by them); the others give a rows x 1
      column of per-row values with scalar bounds;
    - message(agent, value, bound, below, s): the text of a breach past
      bound, where s is the aggregate at the atom (None unless statewise);
    - solidity(): the kind's SolidityVerdict;
    - check_aggregate(s_values): raise ValidationError unless the kind
      applies to the aggregate; it runs before any band does.
    """

    statewise = False

    def check_aggregate(self, s_values):
        pass


def _require_finite(kind, field, message):
    """Store kind.field as a float; raise ValidationError(message) unless finite."""
    value = float(getattr(kind, field))
    object.__setattr__(kind, field, value)
    if not math.isfinite(value):
        raise ValidationError(message)


@dataclass(frozen=True)
class PathwiseBounds(_Kind):
    """Statewise box lower <= X(w) <= upper; either side may be infinite."""

    lower: float = -math.inf
    upper: float = math.inf
    statewise = True

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValidationError("pathwise bounds must not be NaN")
        if self.lower > self.upper:
            raise ValidationError("pathwise bounds need lower <= upper")

    def band(self, V, s_values, probs, tol):
        return V, self.lower, self.upper

    def message(self, agent, value, bound, below, s):
        side = "below lower" if below else "above upper"
        return f"agent {agent} share {value:g} {side} bound {bound:g}"

    def solidity(self):
        return SolidityVerdict(
            Solidity.SOLID,
            "convex-order reductions never leave the closed interval spanned "
            "by the original support")


_RELATIONS = ("<=", "==", ">=")


@dataclass(frozen=True)
class ExpectationConstraint(_Kind):
    """E[X] relation bound, with relation one of <=, ==, >=."""

    relation: str
    bound: float

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValidationError(f"relation must be one of {_RELATIONS}")
        _require_finite(self, "bound", "expectation bound must be finite")

    def band(self, V, s_values, probs, tol):
        lower = -math.inf if self.relation == "<=" else self.bound
        upper = math.inf if self.relation == ">=" else self.bound
        return (V @ probs)[:, None], lower, upper

    def message(self, agent, value, bound, below, s):
        return f"agent {agent} mean {value:g} fails E[X] {self.relation} {self.bound:g}"

    def solidity(self):
        return SolidityVerdict(
            Solidity.SOLID, "convex-order reductions preserve the mean exactly")


@dataclass(frozen=True)
class OrliczBound(_Kind):
    """E[phi(X)] <= bound for the convex ladder phi with parameters
    (alpha, beta, R, B)."""

    ladder: tuple
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "ladder", _validate_ladder(self.ladder))
        _require_finite(self, "bound", "penalty bound must be finite")

    def band(self, V, s_values, probs, tol):
        return _ladder_mean(V, probs, self.ladder)[:, None], -math.inf, self.bound

    def message(self, agent, value, bound, below, s):
        return f"agent {agent} convex penalty {value:g} exceeds {bound:g}"

    def solidity(self):
        return SolidityVerdict(
            Solidity.SOLID,
            "expected convex penalties never increase under convex-order reduction")


class _MeasureBound(_Kind):
    """Validation shared by RiskCeiling and RiskFloor; _side names the kind
    in its error texts."""

    def __post_init__(self):
        if not isinstance(self.measure, RiskMeasureSpec):
            raise ValidationError(f"{self._side} needs a RiskMeasureSpec")
        _require_finite(self, "bound", f"{self._side} bound must be finite")


@dataclass(frozen=True)
class RiskCeiling(_MeasureBound):
    """measure(X) <= bound."""

    measure: RiskMeasureSpec
    bound: float
    _side = "ceiling"

    def band(self, V, s_values, probs, tol):
        return measure_values(self.measure, V, probs)[:, None], -math.inf, self.bound

    def message(self, agent, value, bound, below, s):
        return (f"agent {agent} {self.measure.describe()} = {value:g} exceeds "
                f"ceiling {bound:g}")

    def solidity(self):
        if cx_consistency_flag(self.measure) is Consistency.CONSISTENT:
            return SolidityVerdict(
                Solidity.SOLID,
                f"ceiling on {self.measure.describe()}, which never increases "
                "under convex-order reduction")
        return SolidityVerdict(
            Solidity.NOT_SOLID,
            f"ceiling on {self.measure.describe()}, which is not convex-order "
            "consistent; a reduction can raise the quantile")


@dataclass(frozen=True)
class RiskFloor(_MeasureBound):
    """measure(X) >= bound."""

    measure: RiskMeasureSpec
    bound: float
    _side = "floor"

    def band(self, V, s_values, probs, tol):
        return measure_values(self.measure, V, probs)[:, None], self.bound, math.inf

    def message(self, agent, value, bound, below, s):
        return f"agent {agent} {self.measure.describe()} = {value:g} below floor {bound:g}"

    def solidity(self):
        if cx_consistency_flag(self.measure) is Consistency.CONSISTENT:
            return SolidityVerdict(
                Solidity.NOT_SOLID,
                f"floor on {self.measure.describe()}; convex-order reductions "
                "can push a consistent measure below any floor above the mean")
        return SolidityVerdict(
            Solidity.UNKNOWN,
            f"floor on {self.measure.describe()} is outside the certified grammar")


@dataclass(frozen=True)
class IdiosyncraticRetention(_Kind):
    """Below the deductible the share must equal the endowment exactly;
    at or above it the share must stay at or above the deductible."""

    endowment: RandomVariable
    deductible: float
    statewise = True

    def __post_init__(self):
        if not isinstance(self.endowment, RandomVariable):
            raise ValidationError("retention endowment must be a RandomVariable")
        _require_finite(self, "deductible", "deductible must be finite")

    def band(self, V, s_values, probs, tol):
        # below the deductible the band pins the share to the endowment
        z = self.endowment.values
        low = z < self.deductible - tol
        return V, np.where(low, z, self.deductible), np.where(low, z, math.inf)

    def message(self, agent, value, bound, below, s):
        # on a retained state the band's only edge is the deductible
        if bound == self.deductible:
            return (f"agent {agent} share {value:g} below deductible "
                    f"{self.deductible:g} on a retained state")
        return (f"agent {agent} share {value:g} must equal endowment {bound:g} "
                f"below deductible {self.deductible:g}")

    def solidity(self):
        # pinned by the band's rule; with no aggregate, the endowment sets the scale
        z = self.endowment.values
        if not (z < self.deductible - VALUE_TOL * value_scale(z)).any():
            return SolidityVerdict(
                Solidity.SOLID,
                "pins no state: the endowment is at or above the deductible on "
                "every atom, so the band is the pathwise floor at the deductible")
        return SolidityVerdict(
            Solidity.NOT_SOLID,
            "couples a share to a variable that is not a function of the "
            "aggregate; conditioning on the aggregate breaks the tie")


def _normalize_breakpoints(points, label):
    try:
        pts = tuple((float(s), float(v)) for s, v in points)
    except (TypeError, ValueError):
        raise ValidationError(f"{label} envelope needs (s, value) breakpoint pairs")
    if not pts:
        raise ValidationError(f"{label} envelope needs at least one breakpoint")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValidationError(f"{label} envelope breakpoints must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValidationError(f"{label} envelope breakpoints must have increasing s")
    return pts


def _pl_eval(points, s):
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return np.interp(s, xs, ys)


def _check_envelope_coverage(kind, s_values):
    smin, smax = float(np.min(s_values)), float(np.max(s_values))
    tol = VALUE_TOL * value_scale(s_values)
    for name, points in (("lower", kind.lower), ("upper", kind.upper)):
        if smin < points[0][0] - tol or smax > points[-1][0] + tol:
            raise ValidationError(
                f"{name} envelope breakpoints do not cover the aggregate support"
            )


@dataclass(frozen=True)
class AggregateEnvelope(_Kind):
    """Statewise band lower(S(w)) <= X(w) <= upper(S(w)) given by
    piecewise-linear breakpoint lists covering the aggregate support."""

    lower: tuple
    upper: tuple
    statewise = True

    def __post_init__(self):
        object.__setattr__(self, "lower", _normalize_breakpoints(self.lower, "lower"))
        object.__setattr__(self, "upper", _normalize_breakpoints(self.upper, "upper"))
        grid = sorted({p[0] for p in self.lower} | {p[0] for p in self.upper})
        lo = _pl_eval(self.lower, grid)
        hi = _pl_eval(self.upper, grid)
        if np.any(lo > hi + 1e-12):
            raise ValidationError("lower envelope exceeds upper envelope")

    def check_aggregate(self, s_values):
        _check_envelope_coverage(self, s_values)

    def band(self, V, s_values, probs, tol):
        return V, _pl_eval(self.lower, s_values), _pl_eval(self.upper, s_values)

    def message(self, agent, value, bound, below, s):
        side = "below" if below else "above"
        return f"agent {agent} share {value:g} {side} envelope {bound:g} at S = {s:g}"

    def solidity(self):
        # certified breakable when the upper envelope rises faster than the
        # aggregate between adjacent breakpoints
        worst = max(((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1)
                     in zip(self.upper, self.upper[1:])), default=None)
        if worst is not None and worst > 1.0 + ENVELOPE_SLOPE_TOL:
            return SolidityVerdict(
                Solidity.NOT_SOLID,
                f"upper envelope rises with slope {_format_slope(worst)} > 1 between "
                "adjacent aggregate states, so rearranging mass across states can "
                "breach it")
        return SolidityVerdict(
            Solidity.UNKNOWN,
            "aggregate envelopes are not certified solid; no upper segment has "
            "slope above one")


@dataclass(frozen=True)
class Constraint:
    """One constraint kind applied to a single agent (scope=index) or to
    every agent (scope=None)."""

    kind: object
    scope: int = None

    def __post_init__(self):
        if not isinstance(self.kind, _Kind):
            raise ValidationError(f"unsupported constraint kind {type(self.kind).__name__}")
        if self.scope is not None:
            scope = int(self.scope)
            if scope < 0:
                raise ValidationError("scope must be a nonnegative agent index or None")
            object.__setattr__(self, "scope", scope)

    def agents(self, n_agents):
        if self.scope is None:
            return range(n_agents)
        if self.scope >= n_agents:
            raise ValidationError(
                f"constraint scoped to agent {self.scope} but allocation has {n_agents}"
            )
        return (self.scope,)


@dataclass(frozen=True)
class Violation:
    """One feasibility breach: which constraint, which agent, where, and by
    how much (magnitude is always the positive overshoot)."""

    constraint_index: int
    agent: int
    atom: str
    magnitude: float
    message: str


def _kind_of(constraint):
    if not isinstance(constraint, Constraint):
        raise ValidationError("constraints must be Constraint instances")
    return constraint.kind


def _require_space(constraints, space):
    """Every constraint is a Constraint with any retention endowment on space."""
    for constraint in constraints:
        kind = _kind_of(constraint)
        if isinstance(kind, IdiosyncraticRetention) and kind.endowment.space != space:
            raise ValidationError("retention endowment lives on a different space")


def _bands(constraints, n_agents, s_values):
    """(constraint index, kind, agent) per constrained agent, in constraint
    order; every constraint, its scope and its fit to the aggregate are
    checked before any band runs."""
    bands = []
    for ci, constraint in enumerate(constraints):
        kind = _kind_of(constraint)
        agents = constraint.agents(n_agents)
        kind.check_aggregate(s_values)
        bands.extend((ci, kind, i) for i in agents)
    return bands


def _statewise_limits(constraints, n_agents, s_values, probs):
    """(floor, ceiling), each n_agents x atoms, that the statewise bands
    allow a share value at each atom: x fails some band of agent i exactly
    where x < floor[i, a] or x > ceiling[i, a].  That is feasible_mask's
    comparison, with floor the largest lower - tol and ceiling the smallest
    upper + tol over the agent's bands, and +-inf where no band bounds the
    atom.  The bounds come from a band of no rows (see _Kind); _bands checks
    every constraint first."""
    tol = VALUE_TOL * value_scale(s_values)
    m = s_values.size
    floor = np.full((n_agents, m), -np.inf)
    ceiling = np.full((n_agents, m), np.inf)
    for _, kind, i in _bands(constraints, n_agents, s_values):
        if kind.statewise:
            _, lower, upper = kind.band(np.empty((0, m)), s_values, probs, tol)
            np.maximum(floor[i], lower - tol, out=floor[i])
            np.minimum(ceiling[i], upper + tol, out=ceiling[i])
    return floor, ceiling


def _breaches(tensors, s_values, probs, constraints, tol):
    """(constraint index, kind, agent, value, lower, upper, below, above) per
    constrained agent: kind.band's output and where value < lower - tol and
    value > upper + tol."""
    for ci, kind, i in _bands(constraints, len(tensors), s_values):
        value, lower, upper = kind.band(tensors[i], s_values, probs, tol)
        yield ci, kind, i, value, lower, upper, value < lower - tol, value > upper + tol


def feasible_mask(tensors, s_values, probs, constraints):
    """Rows of the share tensors (one rows x atoms array per agent, over an
    aggregate s_values) that satisfy every constraint within
    VALUE_TOL * value_scale(s_values).

    Each (constraint, agent) band runs, in constraint order, only on the
    rows that passed every band before it, and none runs once no row is
    left.  Row-wise bands give the same verdicts as on every row; a band
    that takes V @ probs can round a row differently with fewer rows.  A
    breach on any atom is found with probspace.rows_any, a boolean matrix
    product, not a reduction over the atoms one row at a time."""
    tol = VALUE_TOL * value_scale(s_values)
    rows = None  # every row has passed: the bands see the tensors themselves
    for _, kind, i in _bands(constraints, len(tensors), s_values):
        V = tensors[i] if rows is None else tensors[i].take(rows, axis=0)
        value, lower, upper = kind.band(V, s_values, probs, tol)
        ok = ~rows_any((value < lower - tol) | (value > upper + tol))
        if ok.all():
            continue
        rows = np.flatnonzero(ok) if rows is None else rows[ok]
        if not rows.size:
            break
    mask = np.full(tensors[0].shape[0], rows is None)
    if rows is not None:
        mask[rows] = True
    return mask


def check_feasible(A, constraints):
    """Evaluate every constraint within VALUE_TOL * value_scale(S), as feasible_mask does.

    Returns (feasible, violations); violations are ordered by constraint,
    then agent, then atom.  The allocation must clear its aggregate.
    """
    _require_clearing(A)
    _require_space(constraints, A.space)
    labels = A.space.labels
    s_values = A.aggregate.values
    rows = [share.values[None, :] for share in A.shares]
    violations = []
    for ci, kind, i, value, lower, upper, below, above in _breaches(
            rows, s_values, A.space.probs, constraints, VALUE_TOL * value_scale(s_values)):
        row, below = value[0], below[0]
        for a in np.flatnonzero(below | above[0]):
            v = float(row[a])
            bound = float(np.broadcast_to(lower if below[a] else upper, row.shape)[a])
            violations.append(Violation(
                ci, i, labels[a] if kind.statewise else None,
                bound - v if below[a] else v - bound,
                kind.message(i, v, bound, below[a],
                             s_values[a] if kind.statewise else None)))
    return len(violations) == 0, violations


def classify_constraint(constraint):
    """Per-member verdict; see classify_solidity for the set-level meet."""
    return _kind_of(constraint).solidity()


def _implied_var_ceiling(constraint, constraints):
    """True for a VaR ceiling that a pathwise upper bound at or below it on
    the same agents implies: X <= u gives VaR(X) <= u, so the set without
    the ceiling is the same set."""
    kind = constraint.kind
    return (isinstance(kind, RiskCeiling) and kind.measure.kind == VAR
            and any(isinstance(other.kind, PathwiseBounds)
                    and other.kind.upper <= kind.bound
                    and other.scope in (None, constraint.scope)
                    for other in constraints))


def classify_solidity(constraints):
    """Meet of the member verdicts: Solid only if every member is certified,
    NotSolid as soon as one member is certified breakable.  A VaR ceiling
    that a pathwise upper bound implies leaves the set unchanged, so it
    takes no part in the meet."""
    constraints = tuple(constraints)
    verdicts = [classify_constraint(c) for c in constraints]
    if not verdicts:
        return SolidityVerdict(Solidity.SOLID, "empty constraint set restricts nothing")
    verdicts = [(idx, v) for idx, v in enumerate(verdicts)
                if not _implied_var_ceiling(constraints[idx], constraints)]
    status = min((v.status for _, v in verdicts), key=_MEET_RANK.get)
    if status is Solidity.SOLID:
        return SolidityVerdict(status, "every member is certified solid")
    for idx, v in verdicts:
        if v.status is status:
            return SolidityVerdict(status, f"constraint {idx}: {v.reason}")
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SolidityWitness:
    """Feasible allocation plus an infeasible componentwise convex-order
    reduction of it, with the search stage that produced it."""

    feasible: Allocation
    reduction: Allocation
    method: str


def _witness_mask(Y, X, s_values, probs, constraints):
    """Rows of Y (candidates x agents x atoms) that witness against the
    allocation X (agents x atoms): the row clears s_values within
    VALUE_TOL * value_scale(s_values), is infeasible, and each of its shares
    precedes X's in convex order.  Each check runs only on the rows that
    passed the ones before it, and a check that every row reaches reads Y
    itself, not a copy.  The shares are summed with probspace.agent_sum
    (agent by agent, from 0.0, in one buffer), and "every atom clears" and
    "every share is a reduction" are probspace.rows_all, so no reduction
    loops over a short axis row by row and none over the atoms in Python."""
    n, m = X.shape
    residual = agent_sum(Y[:, i] for i in range(n))
    np.subtract(residual, s_values, out=residual)
    hit = rows_all(np.abs(residual, out=residual) <= VALUE_TOL * value_scale(s_values))
    rows = np.flatnonzero(hit)
    if rows.size:
        Z = Y if rows.size == hit.size else Y[rows]
        hit[rows] = ~feasible_mask(list(Z.transpose(1, 0, 2)), s_values,
                                   probs, constraints)
        rows = rows[hit[rows]]
    if rows.size:
        Z = Y if rows.size == hit.size else Y[rows]
        hit[rows] = rows_all(convex_order_mask(Z.reshape(-1, m), probs,
                                               np.tile(X, (rows.size, 1)),
                                               probs).reshape(-1, n))
    return hit


def _feasible_seed(constraints, space, S):
    """The start of a search without one: every agent under a scoped
    retention keeps its endowment and the others split the residual evenly.
    None when no retention is scoped, or when that allocation does not clear
    or is infeasible.  (Without a retention the candidate would be the even
    split S/n, which is comonotone: no search stage moves it.)"""
    retained = {c.scope: c.kind.endowment for c in constraints
                if isinstance(c.kind, IdiosyncraticRetention) and c.scope is not None}
    if not retained:
        return None
    n = max(2, *(c.scope + 1 for c in constraints if c.scope is not None))
    free = [i for i in range(n) if i not in retained]
    residual = S.values - sum(z.values for z in retained.values())
    # with no free agent this is pure autarky, rejected below unless the
    # endowments already sum to S
    values = [retained[i].values.copy() if i in retained else residual / len(free)
              for i in range(n)]
    A = Allocation(space, tuple(RandomVariable(space, v) for v in values), S)
    if check_clearing(A)[0] and check_feasible(A, constraints)[0]:
        return A
    return None


def _transfer_witness(base, s_values, probs, constraints, budget, seed):
    """Stage 3 of falsify_solidity from the start share matrix base (agents
    x atoms): the first verified candidate's share matrix, or None.

    Each block of chains runs in lockstep, one lane per chain, and every
    step draws all its lanes with one integers and one uniform call.  A
    block's candidates are verified together, so the search stops at the
    first block that holds a witness."""
    n, m = base.shape
    if n < 2 or m < 2:
        return None
    rng = np.random.default_rng(seed)
    min_gap = VALUE_TOL * value_scale(s_values)
    length = FALSIFY_CHAIN_LIMIT
    lanes = max(1, _BLOCK_CELLS // (length * n * m))
    for first in range(0, -(-budget // length), lanes):
        # lane c runs chain first + c; only the search's last chain can be
        # short, so the lanes still drawing at a step are a prefix
        block_draws = min(lanes * length, budget - first * length)
        width = -(-block_draws // length)
        state = np.repeat(base[None], width, axis=0)
        candidates = np.empty((width, length, n, m))
        moved = np.zeros((width, length), dtype=bool)
        for step in range(min(length, block_draws)):
            live = -(-(block_draws - step) // length)
            ijab = rng.integers(0, (n, n - 1, m, m - 1), size=(live, 4))
            u = rng.uniform(0.25, 1.0, size=live)
            lane = np.arange(live)
            i, a = ijab[:, 0], ijab[:, 2]
            j = (i + 1 + ijab[:, 1]) % n
            b = (a + 1 + ijab[:, 3]) % m
            gap_i = state[lane, i, a] - state[lane, i, b]
            gap_j = state[lane, j, b] - state[lane, j, a]
            useful = (gap_i > min_gap) & (gap_j > min_gap)
            lane, i, j, a, b = lane[useful], i[useful], j[useful], a[useful], b[useful]
            p_a, p_b = probs[a], probs[b]
            # no-crossing cap keeps the step a contraction for both agents
            down = (np.minimum(gap_i, gap_j)[useful] * p_b / (p_a + p_b)
                    * u[useful])
            up = down * p_a / p_b
            state[lane, i, a] -= down
            state[lane, i, b] += up
            state[lane, j, a] += down
            state[lane, j, b] -= up
            candidates[lane, step] = state[lane]
            moved[lane, step] = True
        rows = candidates[moved]
        hit = np.flatnonzero(_witness_mask(rows, base, s_values, probs, constraints))
        if hit.size:
            return rows[hit[0]]
    return None


def falsify_solidity(constraints, space, S, budget=10 ** 4, seed=0, start=None):
    """Seeded search for a solidity counterexample.

    Tries, in order: the comonotonic improvement of the start allocation,
    plain conditioning on the aggregate, then ``budget`` draws of random
    paired no-crossing transfers.  The draws form chains of
    FALSIFY_CHAIN_LIMIT draws, and every chain restarts from the start:
    draw t is step t % FALSIFY_CHAIN_LIMIT of chain t // FALSIFY_CHAIN_LIMIT.
    A draw moves its chain only when both of its gaps are positive, and
    every moved state is a candidate; the first verified candidate in this
    chain-major draw order is returned.  Returns a verified SolidityWitness
    or None; None is absence of evidence, not a proof.  Without a start,
    only a set with a scoped retention is searched, from _feasible_seed.
    """
    _require_space(constraints, space)
    if start is not None:
        if start.space != space:
            raise ValidationError("start allocation must live on the problem's space")
        if not np.array_equal(start.aggregate.values, S.values):
            raise ValidationError("start allocation's aggregate must be S")
    X = start if start is not None else _feasible_seed(constraints, space, S)
    if X is None:
        return None
    ok, _ = check_clearing(X)
    if not ok:
        raise ValidationError("start allocation must clear the aggregate")
    feasible, _ = check_feasible(X, constraints)
    if not feasible:
        raise ValidationError("start allocation must be feasible")

    base = X.share_matrix()
    probs = space.probs

    def verified(Y):
        return _witness_mask(Y.share_matrix()[None], base, S.values, probs, constraints)[0]

    improved, _cert = comonotonic_improvement(X)
    if verified(improved):
        return SolidityWitness(X, improved, "comonotonic improvement")
    conditioned = condition_on_aggregate(X)
    if verified(conditioned):
        return SolidityWitness(X, conditioned, "aggregate conditioning")

    rows = _transfer_witness(base, S.values, probs, constraints, budget, seed)
    if rows is None:
        return None
    reduction = Allocation(space, tuple(RandomVariable(space, v) for v in rows), S)
    return SolidityWitness(X, reduction, "paired transfers")
