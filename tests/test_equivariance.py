"""Power-of-two equivariance: f(2^k x) = 2^k f(x), bit for bit.

Every value tolerance in the library is VALUE_TOL times the largest magnitude
of the values it compares, and a float times 2^k is exact unless it
overflows or goes subnormal.  So a problem whose values are all scaled by
2^k, k in [-60, 60], gets the unit problem's verdicts, and its answers
times 2^k exactly: the same bits, not a tolerance.  Variance weights scale
by 2^-k, so mean-variance values scale by 2^k too.

Exclusions, which the draws respect rather than test:
- overflow and subnormal ranges: the drawn values lie between about 1e-3
  and 10 in magnitude (or are 0), so with |k| <= 60 every value, product and
  residual the pipelines form stays far inside the normal float range;
- inputs drawn to clear at scale 1: clearing alone floors its scale at 1
  (allocation.clearing_tol), so a sum of shares that missed S by more than
  rounding could clear at one scale and not at another.  Every drawn
  allocation clears to rounding, far inside VALUE_TOL.

Each test's examples are derandomized by the conftest profile.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coshare import (
    AggregateEnvelope,
    Allocation,
    Constraint,
    ExpectationConstraint,
    FiniteSpace,
    GridSpec,
    IdiosyncraticRetention,
    InfeasibleError,
    MVProblem,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskFloor,
    RiskMeasureSpec,
    check_feasible,
    comonotone_minimize,
    comonotonic_improvement,
    convex_order_leq,
    es,
    falsify_solidity,
    grid_minimize,
    solve_capped_mv,
)

INF = math.inf
K = st.integers(-60, 60)
SEED = st.integers(0, 2 ** 32 - 1)


def space_of(probs):
    return FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))


def alloc(space, rows, aggregate=None):
    S = None if aggregate is None else RandomVariable(space, aggregate)
    return Allocation(space, tuple(RandomVariable(space, r) for r in rows), S)


def bits_equal(got, want, k):
    """got equals want times 2^k, bit for bit."""
    return np.array_equal(np.asarray(got), np.ldexp(np.asarray(want, dtype=float), k))


def draw_rows(rng, n, m):
    """(rows, S): n share rows on m atoms that sum to S, either normal rows
    or quarter-grid rows over an aggregate with ties."""
    if rng.random() < 0.5:
        rows = rng.normal(size=(n, m))
        return rows, None
    s = rng.integers(0, 4, size=m) * 0.5
    rows = rng.integers(-8, 9, size=(n - 1, m)) * 0.25
    return np.vstack([rows, s - rows.sum(axis=0)]), s


@settings(max_examples=30)
@given(k=K, seed=SEED)
def test_improvement(k, seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 13))
    space = space_of(rng.dirichlet(np.ones(m)))
    rows, s = draw_rows(rng, n, m)
    unit, unit_cert = comonotonic_improvement(alloc(space, rows, s))
    got, cert = comonotonic_improvement(
        alloc(space, np.ldexp(rows, k), None if s is None else np.ldexp(s, k)))
    assert bits_equal(got.share_matrix(), unit.share_matrix(), k)
    assert cert.transfers == unit_cert.transfers
    assert (cert.convex_order_ok, cert.comonotonic_ok) == (unit_cert.convex_order_ok,
                                                          unit_cert.comonotonic_ok)
    assert cert.clearing_residual == math.ldexp(unit_cert.clearing_residual, k)


@settings(max_examples=60)
@given(k=K, seed=SEED)
def test_convex_order(k, seed):
    # Y a contraction of X towards its mean, or X nudged by about the
    # tolerance, so verdicts fall on both sides of it; both directions
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    p = rng.dirichlet(np.ones(m))
    x = rng.integers(-8, 9, size=m) * 0.25
    if rng.random() < 0.5:
        y = p @ x + rng.choice((0.5, 1.0, 1.5)) * (x - p @ x)
    else:
        y = x + rng.choice((0.0, 1e-10, 1e-9, 3e-9)) * rng.normal(size=m)
    space = space_of(p)
    for a, b in ((y, x), (x, y)):
        want = convex_order_leq(RandomVariable(space, a), RandomVariable(space, b))
        assert convex_order_leq(RandomVariable(space, np.ldexp(a, k)),
                                RandomVariable(space, np.ldexp(b, k))) == want


def feasibility_constraints(rng, rows, probs, s, c):
    """Constraints of every value-scaled kind, bounds taken from the shares
    themselves (so many values sit exactly on a bound) and times c."""
    n, m = rows.shape
    out = []
    for i in range(n):
        x = rows[i]
        off = float(rng.choice((0.0, 0.0, -0.25, 0.25)))
        kind = int(rng.integers(6))
        if kind == 0:
            lo = float(x.min()) + off
            hi = max(lo, float(x.max()) - float(rng.choice((0.0, 0.25))))
            made = PathwiseBounds(lo * c, hi * c)
        elif kind == 1:
            rel = str(rng.choice(("<=", "==", ">=")))
            made = ExpectationConstraint(rel, (float(probs @ x) + off) * c)
        elif kind in (2, 3):
            spec = (RiskMeasureSpec.es if kind == 2 else RiskMeasureSpec.var)(
                float(rng.choice((0.25, 0.5, 0.75))))
            bound = float(es(RandomVariable(space_of(probs), x), 0.5)) + off
            made = (RiskCeiling if rng.random() < 0.5 else RiskFloor)(spec, bound * c)
        elif kind == 4:
            ends = (float(s.min()) * c, (float(s.max()) + 1.0) * c)
            top = float(x.max()) + off
            made = AggregateEnvelope(tuple((e, (top - 9.0) * c) for e in ends),
                                     tuple((e, top * c) for e in ends))
        else:
            endowment = RandomVariable(space_of(probs), x * c)
            made = IdiosyncraticRetention(endowment, float(np.median(x)) * c)
        out.append(Constraint(made, i))
    return tuple(out)


@settings(max_examples=40)
@given(k=K, seed=SEED)
def test_feasibility(k, seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
    probs = rng.dirichlet(np.ones(m))
    space = space_of(probs)
    rows, s = draw_rows(rng, n, m)
    s = rows.sum(axis=0) if s is None else s
    state = rng.bit_generator.state
    unit_ok, unit_v = check_feasible(
        alloc(space, rows, s), feasibility_constraints(rng, rows, probs, s, 1.0))
    rng.bit_generator.state = state
    ok, violations = check_feasible(
        alloc(space, np.ldexp(rows, k), np.ldexp(s, k)),
        feasibility_constraints(rng, rows, probs, s, math.ldexp(1.0, k)))
    assert ok == unit_ok
    assert ([(v.constraint_index, v.agent, v.atom) for v in violations]
            == [(v.constraint_index, v.agent, v.atom) for v in unit_v])
    assert bits_equal([v.magnitude for v in violations], [v.magnitude for v in unit_v], k)


def solidity_case(rng, c):
    """(constraints, space, S, start) of a NotSolid set on four atoms, as
    the benchmark draws them, or an ES floor at the ES of the start's
    improvement, which only a paired transfer can breach; every value
    times c."""
    m = 4
    probs = rng.dirichlet(np.ones(m) * 2.0)
    space = space_of(probs)
    s = rng.choice([0.0, 1.0, 2.0, 3.0], size=m)
    s[0], s[-1] = 0.0, 3.0
    x0 = s * rng.uniform(0.2, 0.8) + rng.normal(scale=0.4, size=m)
    rows = np.array([x0, s - x0])
    kind = int(rng.integers(4))
    if kind == 0:
        spec = RiskMeasureSpec.var(float(rng.uniform(0.3, 0.8)))
        constraints = (Constraint(RiskCeiling(spec, float(np.max(x0)) * c), scope=0),)
    elif kind == 1:
        level = float(rng.uniform(0.3, 0.8))
        floor = es(RandomVariable(space, x0), level) - 0.05
        constraints = (Constraint(RiskFloor(RiskMeasureSpec.es(level), floor * c), scope=0),)
    elif kind == 2:
        rows = rng.integers(0, 2, size=(2, m)).astype(float)
        rows[:, 0], rows[:, -1] = 0.0, 1.0
        s = rows.sum(axis=0)
        constraints = tuple(
            Constraint(IdiosyncraticRetention(RandomVariable(space, rows[i] * c), c), scope=i)
            for i in range(2))
    else:
        level = float(rng.uniform(0.3, 0.8))
        improved, _ = comonotonic_improvement(alloc(space, rows, s))
        floor = es(improved.shares[0], level)
        constraints = (Constraint(RiskFloor(RiskMeasureSpec.es(level), floor * c), scope=0),)
    S = RandomVariable(space, s * c)
    return constraints, space, S, alloc(space, rows * c, s * c)


@settings(max_examples=40)
@given(k=K, seed=SEED)
def test_falsify_solidity(k, seed):
    unit, got = (
        falsify_solidity(constraints, space, S, budget=1000, seed=seed, start=start)
        for constraints, space, S, start in (
            solidity_case(np.random.default_rng(seed), c) for c in (1.0, math.ldexp(1.0, k))))
    assert (got is None) == (unit is None)
    if got is not None:
        assert got.method == unit.method
        assert bits_equal(got.reduction.share_matrix(), unit.reduction.share_matrix(), k)
        assert bits_equal(got.feasible.share_matrix(), unit.feasible.share_matrix(), k)


def grid_problem(rng, c):
    """One free agent on 2-3 equally likely atoms, ES or VaR objectives,
    pathwise bounds, and a grid of half steps, every value times c."""
    m = int(rng.integers(2, 4))
    space = FiniteSpace.uniform(m)
    S = RandomVariable(space, np.sort(rng.choice([0.0, 1.0, 2.0, 3.0], size=m)) * c)
    make = (RiskMeasureSpec.es, RiskMeasureSpec.var)
    objectives = tuple(make[int(rng.integers(2))](float(rng.choice((0.25, 0.5, 0.75))))
                       for _ in range(2))
    lower, upper = float(rng.choice([-3.0, -2.0, -0.5])), float(rng.choice([1.0, 3.0, 4.0]))
    constraints = (Constraint(PathwiseBounds(lower * c, upper * c)),)
    return space, S, objectives, constraints, GridSpec.uniform(1, m, -c, 3.0 * c, 0.5 * c)


@settings(max_examples=30)
@given(k=K, seed=SEED, minimize=st.sampled_from((grid_minimize, comonotone_minimize)))
def test_grid_minimize(k, seed, minimize):
    outcomes = []
    for c in (1.0, math.ldexp(1.0, k)):
        try:
            best, value = minimize(*grid_problem(np.random.default_rng(seed), c))
            outcomes.append((best.share_matrix(), value))
        except InfeasibleError as exc:
            outcomes.append(exc.details)
    unit, got = outcomes
    if isinstance(unit, dict):
        assert got == unit
    else:
        assert bits_equal(got[0], unit[0], k) and got[1] == math.ldexp(unit[1], k)


def mv_problem(rng, k):
    """An mv-capped-shaped problem (Gamma(2,1) S on m equally likely atoms,
    lower caps 0, agent 0 uncapped, the others capped at 3/n) with S and
    the caps times 2^k and the variance weights times 2^-k."""
    m, n = int(rng.choice((2, 4, 8))), int(rng.choice((2, 3, 4)))
    s = rng.gamma(2.0, 1.0, size=m)
    delta = np.sort(rng.uniform(0.5, 2.0, size=n))
    upper = np.array((INF,) + (3.0 / n,) * (n - 1))
    space = FiniteSpace.uniform(m)
    return MVProblem(tuple(np.ldexp(delta, -k)), (0.0,) * n, tuple(np.ldexp(upper, k)),
                     (space, RandomVariable(space, np.ldexp(s, k))))


@settings(max_examples=30)
@given(k=K, seed=SEED)
def test_solve_capped_mv(k, seed):
    unit, unit_report = solve_capped_mv(mv_problem(np.random.default_rng(seed), 0))
    got, report = solve_capped_mv(mv_problem(np.random.default_rng(seed), k))
    assert bits_equal(got.share_matrix(), unit.share_matrix(), k)
    assert bits_equal(report.intercepts, unit_report.intercepts, k)
    assert report.residual == math.ldexp(unit_report.residual, k)
    assert (report.iterations, report.searches) == (unit_report.iterations,
                                                    unit_report.searches)
