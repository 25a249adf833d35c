"""Seeded workloads for the coshare benchmark: inputs, operations, checks.

Every workload is a list of rounds.  A round is a fixed multiset of cells,
one operation per entry, generated from ``numpy.random.default_rng`` seeded
with (workload seed, round index); the stretch operations are generated once
per run.  The library receives only the generated objects.

Each operation is an ``Op``: ``call()`` runs the timed library work and
``check(result)`` returns None when the output is correct or a one-line
reason when it is not.  Checks recompute what they can with plain numpy
(clearing, caps, comonotonicity, convex order) instead of asking the library
to grade itself.  Library functions are looked up on the ``coshare`` package
at call time, so the tracer's rebinding sees the benchmark's own calls.
"""

import csv
import io
import json
import math
import os

import numpy as np

import coshare as cs
from coshare import (
    Allocation,
    AggregateEnvelope,
    Constraint,
    ExpectationConstraint,
    FiniteSpace,
    GridSpec,
    IdiosyncraticRetention,
    MVProblem,
    OrliczBound,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskFloor,
    RiskMeasureSpec,
    Solidity,
)

INF = math.inf
CLEAR_TOL = 1e-9
CAP_TOL = 1e-9
COMONOTONE_TOL = 1e-9
LEVEL_TOL = 1e-12
RESIDUAL_TOL = 1e-10
CX_TOL = 1e-9

# Per-operation time budgets (seconds).  Stretch cells get a few seconds, about
# what their ROADMAP gates ask for (m=1e4, n=32 under 1 s; m=1e4, n=8 "in
# seconds"); everything else gets room far above today's worst case.
DEFAULT_BUDGET_S = 30.0
MV_STRETCH_BUDGET_S = 2.0
IMPROVE_STRETCH_BUDGET_S = 3.0
CLI_BUDGET_S = 60.0

# Failures of today's library that every run keeps and counts, as
# (workload, cell prefix, status, reason prefix).  The stretch cells run over
# their budgets (or give up with an error); about one tiny solver-vs-oracle
# instance in 250 stalls in the damped intercept fixed point; ``run --out``
# creates a directory where the report should go and dies with a traceback.
# Any other failed operation makes a run incorrect.
KNOWN_FAILURES = (
    ("mv-capped", "stretch-", "timeout", ""),
    ("mv-capped", "stretch-", "error", ""),
    ("improve-certify", "stretch-", "timeout", ""),
    ("improve-certify", "stretch-", "error", ""),
    ("crosscheck-small", "solver-oracle-", "timeout", ""),
    ("crosscheck-small", "solver-oracle-", "error", "ConvergenceError"),
    ("cli-reproduce", "run-reproduce-out-file", "error", "traceback: IsADirectoryError"),
)


def known_failure(workload, cell, status, reason):
    return any(workload == w and cell.startswith(c) and status == s
               and (reason or "").startswith(r) for w, c, s, r in KNOWN_FAILURES)


class Op:
    """One timed library call plus the check that grades its output."""

    __slots__ = ("cell", "budget", "call", "check")

    def __init__(self, cell, call, check, budget=DEFAULT_BUDGET_S):
        self.cell = cell
        self.call = call
        self.check = check
        self.budget = budget


def round_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def gamma21_quantile(u):
    """Quantiles of Gamma(2,1), cdf 1 - (1+q)e^-q, by vectorised bisection."""
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    hi = np.full_like(u, 64.0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = 1.0 - (1.0 + mid) * np.exp(-mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def stratified_unit(rng, k):
    """k points in (0,1), one in the middle half of each of k equal strata."""
    return (np.arange(k) + 0.25 + 0.5 * rng.random(k)) / k


# ---------------------------------------------------------------------------
# independent checks

def _matrix(allocation):
    return np.vstack([share.values for share in allocation.shares])


def clearing_error(X, S):
    return float(np.max(np.abs(X.sum(axis=0) - S)))


def comonotone_error(X, S):
    """Largest breach of 'every row is a nondecreasing function of S'."""
    order = np.argsort(S, kind="stable")
    s = S[order]
    x = X[:, order]
    tied = np.diff(s) <= LEVEL_TOL
    dx = np.diff(x, axis=1)
    worst = 0.0
    if tied.any():
        worst = max(worst, float(np.max(np.abs(dx[:, tied]))))
    if (~tied).any():
        worst = max(worst, float(np.max(-dx[:, ~tied])))
    return worst


def stop_loss_dominated(y, x, probs, tol=CX_TOL):
    """True iff the law of y precedes the law of x in convex order."""
    if abs(float(probs @ y) - float(probs @ x)) > tol:
        return False
    grid = np.union1d(y, x)
    sl_y = np.maximum(y[None, :] - grid[:, None], 0.0) @ probs
    sl_x = np.maximum(x[None, :] - grid[:, None], 0.0) @ probs
    return bool(np.all(sl_y <= sl_x + tol))


# ---------------------------------------------------------------------------
# mv-capped

MV_CELLS = (4, 8, 16)
MV_AGENTS = (2, 4, 8)
# Copies per round of each (m, n) cell.  The cheap cells repeat so that each
# m gets a similar share of the time, and m=4, n=8 (a tight ~80 ms group)
# repeats most so that the median falls inside one cell, not on a boundary
# between cells whose costs differ several-fold.
MV_COPIES = {(4, 2): 4, (4, 4): 4, (4, 8): 8, (8, 2): 2, (8, 4): 2, (8, 8): 2,
             (16, 2): 1, (16, 4): 1, (16, 8): 1}
MV_STRETCH = (10_000, 32)


def mv_problem(rng, m, n):
    """Gamma(2,1) S on m equally likely atoms (stratified draw), delta in
    [0.5, 2] (stratified, ascending by agent), lower caps 0, agent 0 uncapped
    and the other n-1 agents capped at 3/n, so every cell has caps binding on
    a sizeable share of states."""
    S = rng.permutation(gamma21_quantile(stratified_unit(rng, m)))
    delta = 0.5 + 1.5 * stratified_unit(rng, n)
    upper = (INF,) + (3.0 / n,) * (n - 1)
    space = FiniteSpace.uniform(m)
    return MVProblem(tuple(float(d) for d in delta), (0.0,) * n, upper,
                     (space, RandomVariable(space, S)))


def check_mv(problem, result):
    allocation, report = result
    X = _matrix(allocation)
    S = problem.aggregate[1].values
    err = clearing_error(X, S)
    if not err <= CLEAR_TOL:
        return f"clearing error {err:.3g}"
    lower = np.array(problem.lower)[:, None]
    upper = np.array(problem.upper)[:, None]
    if np.any(X < lower - CAP_TOL) or np.any(X > upper + CAP_TOL):
        return "a share leaves its caps"
    err = comonotone_error(X, S)
    if not err <= COMONOTONE_TOL:
        return f"not comonotone (breach {err:.3g})"
    if not report.residual < RESIDUAL_TOL:
        return f"fixed-point residual {report.residual:.3g}"
    return None


def _mv_op(cell, problem, budget=DEFAULT_BUDGET_S):
    return Op(cell, lambda: cs.solve_capped_mv(problem),
              lambda result: check_mv(problem, result), budget)


def mv_capped_round(rng):
    ops = []
    for m in MV_CELLS:
        for n in MV_AGENTS:
            for _ in range(MV_COPIES[m, n]):
                ops.append(_mv_op(f"m{m}-n{n}", mv_problem(rng, m, n)))
    return ops


def mv_capped_stretch(rng):
    m, n = MV_STRETCH
    return [_mv_op(f"stretch-m{m}-n{n}", mv_problem(rng, m, n), MV_STRETCH_BUDGET_S)]


# ---------------------------------------------------------------------------
# improve-certify

IMPROVE_ATOMS = (50, 100, 200)
IMPROVE_AGENTS = (2, 4, 8)
# m=200, n=4 runs twice per round so that the tail percentile (10 samples
# above it) falls inside that cell rather than between two cells.
IMPROVE_COPIES = {(200, 4): 2}
IMPROVE_TIED_ATOMS = 100
IMPROVE_COMONOTONE_ATOMS = 200
IMPROVE_STRETCH = (10_000, 8)


def cycle_measures(rng, n):
    """One measure per agent, cycling through ES, MV, VaR and ECL."""
    makers = (
        lambda: RiskMeasureSpec.es(float(rng.uniform(0.8, 0.95))),
        lambda: RiskMeasureSpec.mean_variance(float(rng.uniform(0.5, 2.0))),
        lambda: RiskMeasureSpec.var(float(rng.uniform(0.8, 0.95))),
        lambda: RiskMeasureSpec.expected_convex_loss(
            0.5, 1.5, float(rng.uniform(-0.5, 0.5)), 1.0),
    )
    return tuple(makers[i % 4]() for i in range(n))


def random_allocation(rng, m, n, tied=False):
    """Random-normal shares; with tied=True the aggregate takes few levels
    and atoms carry Dirichlet masses (the unequal-mass transfer branch)."""
    if tied:
        probs = rng.dirichlet(np.ones(m))
        space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
        S = 0.5 * rng.integers(0, 24, size=m)
        rows = rng.normal(size=(n - 1, m))
        rows = np.vstack([rows, S - rows.sum(axis=0)])
    else:
        space = FiniteSpace.uniform(m)
        rows = rng.normal(size=(n, m))
        S = rows.sum(axis=0)
    return Allocation(space, tuple(RandomVariable(space, r) for r in rows),
                      RandomVariable(space, S))


def comonotone_allocation(rng, m, n):
    """Shares w_i S + b_i with w >= 0 summing to one and b summing to zero."""
    space = FiniteSpace.uniform(m)
    S = rng.normal(size=m) * 2.0
    w = rng.dirichlet(np.ones(n))
    b = rng.normal(size=n)
    b -= b.mean()
    rows = np.outer(w, S) + b[:, None]
    return Allocation(space, tuple(RandomVariable(space, r) for r in rows),
                      RandomVariable(space, rows.sum(axis=0)))


def check_improvement(A, measures, result, expect_zero_transfers=False):
    improved, cert = result
    if not cert.all_verified:
        return "certificate not verified"
    if not cert.clearing_residual <= CLEAR_TOL:
        return f"certificate clearing residual {cert.clearing_residual:.3g}"
    if expect_zero_transfers and cert.transfers != 0:
        return f"{cert.transfers} transfers on a comonotone input"
    S = A.aggregate.values
    X = _matrix(improved)
    err = clearing_error(X, S)
    if not err <= CLEAR_TOL:
        return f"clearing error {err:.3g}"
    err = comonotone_error(X, S)
    if not err <= COMONOTONE_TOL:
        return f"not comonotone (breach {err:.3g})"
    probs = A.space.probs
    for new, old in zip(X, _matrix(A)):
        if not stop_loss_dominated(new, old, probs):
            return "an improved share is not a convex-order reduction"
    if measures is not None:
        for spec, delta in zip(measures, cert.objective_deltas):
            if spec.kind != "var" and not delta <= 1e-9:
                return f"{spec.describe()} rose by {delta:.3g}"
    return None


def _improve_op(cell, rng, A, budget=DEFAULT_BUDGET_S, zero=False):
    measures = cycle_measures(rng, A.n_agents)
    return Op(cell, lambda: cs.comonotonic_improvement(A, measures=measures),
              lambda result: check_improvement(A, measures, result, zero), budget)


def improve_certify_round(rng):
    ops = []
    for m in IMPROVE_ATOMS:
        for n in IMPROVE_AGENTS:
            for _ in range(IMPROVE_COPIES.get((m, n), 1)):
                ops.append(_improve_op(f"m{m}-n{n}", rng, random_allocation(rng, m, n)))
    for n in IMPROVE_AGENTS:
        m = IMPROVE_TIED_ATOMS
        ops.append(_improve_op(f"tied-m{m}-n{n}", rng,
                               random_allocation(rng, m, n, tied=True)))
    for n in IMPROVE_AGENTS:
        m = IMPROVE_COMONOTONE_ATOMS
        ops.append(_improve_op(f"comonotone-m{m}-n{n}", rng,
                               comonotone_allocation(rng, m, n), zero=True))
    return ops


def improve_certify_stretch(rng):
    m, n = IMPROVE_STRETCH
    return [_improve_op(f"stretch-m{m}-n{n}", rng, random_allocation(rng, m, n),
                        IMPROVE_STRETCH_BUDGET_S)]


# ---------------------------------------------------------------------------
# crosscheck-small

CROSSCHECK_COPIES = 40         # copies per round of each tiny property op
# Transfers the falsifier may try (the library default is 10^4, ~0.35 s when
# nothing is found).  At 5000 a search that finds nothing is the slowest
# regular operation, so the tail percentile lands among such searches.
FALSIFY_BUDGET = 5000
SOLIDITY_ATOMS = 4
# A tiny instance takes milliseconds; 0.5 s cuts a stalled fixed point short
# (it still counts as failed) so one stall does not dominate a run's wall time.
TINY_BUDGET_S = 0.5
SOLIDITY_KINDS = ("pathwise", "expectation", "orlicz", "es-ceiling",
                  "var-ceiling", "es-floor", "retention", "envelope")


def solver_vs_oracle_op(rng):
    """Capped MV solver against grid_minimize on a grid around its answer."""
    n = 2 if rng.random() < 0.7 else 3
    m = int(rng.integers(2, 5)) if n == 2 else int(rng.integers(2, 4))
    probs = rng.dirichlet(np.ones(m))
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    svals = np.sort(rng.uniform(0.0, 3.0, size=m))
    S = RandomVariable(space, svals)
    delta = rng.uniform(0.3, 3.0, size=n)
    upper = np.where(rng.random(n) < 0.5, INF, rng.uniform(0.8, 2.5, size=n))
    if np.isfinite(upper).all() and upper.sum() < svals.max() + 0.2:
        upper[int(rng.integers(n))] = INF
    problem = MVProblem(tuple(delta), (-INF,) * n, tuple(upper), (space, S))
    objectives = tuple(RiskMeasureSpec.mean_variance(float(d)) for d in delta)
    caps = tuple(Constraint(PathwiseBounds(upper=float(u)), scope=i)
                 for i, u in enumerate(upper) if np.isfinite(u))

    def call():
        best, _ = cs.solve_capped_mv(problem)
        ranges = tuple(tuple((v - 0.5, v + 0.5, 0.25) for v in best.shares[i].values)
                       for i in range(n - 1))
        _, oracle_value = cs.grid_minimize(space, S, objectives, caps, GridSpec(ranges=ranges))
        return best, oracle_value

    def check(result):
        best, oracle_value = result
        solver_value = cs.mv_objective(problem.delta, best)
        if not abs(oracle_value - solver_value) <= 1e-6:
            return f"solver {solver_value!r} vs oracle {oracle_value!r}"
        return None

    return Op(f"solver-oracle-n{n}-m{m}", call, check, TINY_BUDGET_S)


def improve_idempotent_op(rng):
    """Improvement of a tiny random allocation, then of its own output."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(3, 7))
    probs = rng.dirichlet(np.ones(m))
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    svals = rng.choice([0.0, 1.0, 1.0, 2.0, 3.0], size=m)
    rows = rng.normal(size=(n - 1, m))
    rows = np.vstack([rows, svals - rows.sum(axis=0)])
    A = Allocation(space, tuple(RandomVariable(space, r) for r in rows),
                   RandomVariable(space, svals))

    def call():
        improved, cert = cs.comonotonic_improvement(A)
        again, _ = cs.comonotonic_improvement(improved)
        return improved, cert, again

    def check(result):
        improved, cert, again = result
        reason = check_improvement(A, None, (improved, cert))
        if reason is not None:
            return reason
        if not np.allclose(_matrix(again), _matrix(improved), atol=1e-11):
            return "second improvement moved the allocation"
        return None

    return Op(f"improve-idem-n{n}-m{m}", call, check, TINY_BUDGET_S)


def central_equality_op(rng):
    """grid_minimize and comonotone_minimize agree on a Solid set."""
    m = int(rng.integers(2, 4))
    space = FiniteSpace.uniform(m)
    svals = np.sort(rng.choice([0.0, 1.0, 2.0, 3.0], size=m))
    S = RandomVariable(space, svals)
    levels = rng.choice([0.25, 0.5, 0.75], size=2)
    measures = tuple(RiskMeasureSpec.es(float(l)) for l in levels)
    constraints = [Constraint(PathwiseBounds(lower=float(rng.choice([-3.0, -2.0])),
                                             upper=float(rng.choice([3.0, 4.0]))))]
    u = rng.random()
    if u < 0.3:
        constraints.append(Constraint(ExpectationConstraint("<=", float(svals.mean()))))
    elif u < 0.6:
        lev = float(rng.choice([0.25, 0.5]))
        constraints.append(Constraint(RiskCeiling(RiskMeasureSpec.es(lev), cs.es(S, lev) + 0.5)))
    constraints = tuple(constraints)
    grid = GridSpec.uniform(1, m, -1.0, 3.0, 0.5)

    def call():
        verdict = cs.classify_solidity(constraints)
        _, v_free = cs.grid_minimize(space, S, measures, constraints, grid)
        _, v_com = cs.comonotone_minimize(space, S, measures, constraints, grid)
        return verdict, v_free, v_com

    def check(result):
        verdict, v_free, v_com = result
        if verdict.status is not Solidity.SOLID:
            return f"expected Solid, got {verdict.status.value}"
        if not (v_com >= v_free - 1e-12 and v_com - v_free <= 1e-9):
            return f"comonotone {v_com!r} vs free {v_free!r}"
        return None

    return Op(f"central-m{m}", call, check, TINY_BUDGET_S)


def solidity_case(rng, kind):
    """(constraints, space, S, feasible start, expected status)."""
    m = SOLIDITY_ATOMS
    probs = rng.dirichlet(np.ones(m) * 2.0)
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    svals = rng.choice([0.0, 1.0, 2.0, 3.0], size=m)
    svals[0], svals[-1] = 0.0, 3.0
    S = RandomVariable(space, svals)
    x0 = svals * rng.uniform(0.2, 0.8) + rng.normal(scale=0.4, size=m)
    start = Allocation(space, (RandomVariable(space, x0),
                               RandomVariable(space, svals - x0)), S)
    X0 = start.shares[0]
    expected = Solidity.SOLID
    if kind == "pathwise":
        lo = float(np.min(_matrix(start))) - rng.uniform(0.0, 0.5)
        hi = float(np.max(_matrix(start))) + rng.uniform(0.0, 0.5)
        constraints = (Constraint(PathwiseBounds(lo, hi)),)
    elif kind == "expectation":
        constraints = (Constraint(ExpectationConstraint("<=", float(probs @ x0) + 0.1), scope=0),)
    elif kind == "orlicz":
        ladder = (0.5, 1.5, float(rng.uniform(-0.5, 0.5)), 1.0)
        value = float(probs @ (0.5 * np.maximum(x0 - ladder[2], 0.0)
                               + np.maximum(x0 - ladder[2] - 1.0, 0.0)))
        constraints = (Constraint(OrliczBound(ladder, value + 0.05), scope=0),)
    elif kind == "es-ceiling":
        spec = RiskMeasureSpec.es(float(rng.uniform(0.3, 0.8)))
        constraints = (Constraint(RiskCeiling(spec, cs.es(X0, spec.level) + 0.05), scope=0),)
    elif kind == "var-ceiling":
        spec = RiskMeasureSpec.var(float(rng.uniform(0.3, 0.8)))
        ceiling = float(np.max(x0))
        constraints = (Constraint(RiskCeiling(spec, ceiling), scope=0),)
        expected = Solidity.NOT_SOLID
    elif kind == "es-floor":
        spec = RiskMeasureSpec.es(float(rng.uniform(0.3, 0.8)))
        constraints = (Constraint(RiskFloor(spec, cs.es(X0, spec.level) - 0.05), scope=0),)
        expected = Solidity.NOT_SOLID
    elif kind == "retention":
        zeta = rng.integers(0, 2, size=(2, m)).astype(float)
        zeta[:, 0] = (0.0, 0.0)
        zeta[:, -1] = (1.0, 1.0)
        S = RandomVariable(space, zeta.sum(axis=0))
        start = Allocation(space, tuple(RandomVariable(space, z) for z in zeta), S)
        constraints = tuple(Constraint(IdiosyncraticRetention(start.shares[i], 1.0), scope=i)
                            for i in range(2))
        expected = Solidity.NOT_SOLID
    else:  # envelope with a segment steeper than the aggregate
        lo_pts = ((0.0, -10.0), (3.0, -10.0))
        top = float(np.max(x0)) + 0.5
        hi_pts = ((0.0, top), (1.0, top), (2.0, top + 2.5), (3.0, top + 2.5))
        constraints = (Constraint(AggregateEnvelope(lo_pts, hi_pts), scope=0),)
        expected = Solidity.NOT_SOLID
    return constraints, space, S, start, expected


def solidity_op(rng, kind):
    """check_feasible + classify_solidity + falsify_solidity on one set."""
    constraints, space, S, start, expected = solidity_case(rng, kind)
    seed = int(rng.integers(0, 2 ** 31))

    def call():
        feasible, _ = cs.check_feasible(start, constraints)
        verdict = cs.classify_solidity(constraints)
        witness = cs.falsify_solidity(constraints, space, S, budget=FALSIFY_BUDGET,
                                      seed=seed, start=start)
        return feasible, verdict, witness

    def check(result):
        feasible, verdict, witness = result
        if not feasible:
            return "generated start reported infeasible"
        if verdict.status is not expected:
            return f"expected {expected.value}, got {verdict.status.value}"
        if witness is None:
            return None
        if verdict.status is Solidity.SOLID:
            return "witness returned for a Solid set"
        err = clearing_error(_matrix(witness.reduction), S.values)
        if not err <= CLEAR_TOL:
            return f"witness clearing error {err:.3g}"
        if cs.check_feasible(witness.reduction, constraints)[0]:
            return "witness reduction is feasible"
        probs = space.probs
        for new, old in zip(_matrix(witness.reduction), _matrix(witness.feasible)):
            if not stop_loss_dominated(new, old, probs):
                return "witness is not a convex-order reduction"
        return None

    return Op(f"solidity-{kind}", call, check)


def crosscheck_small_round(rng):
    ops = []
    for _ in range(CROSSCHECK_COPIES):
        ops.append(solver_vs_oracle_op(rng))
        ops.append(improve_idempotent_op(rng))
        ops.append(central_equality_op(rng))
    for kind in SOLIDITY_KINDS:
        ops.append(solidity_op(rng, kind))
    return ops


# ---------------------------------------------------------------------------
# cli-reproduce: problem documents and output checks

REPRODUCE_CASES = ("ex-3.1", "ex-4.2", "ex-4.3", "fig-6.3", "sec-6.4")
RUN_REPRODUCE_CASE = "fig-6.3"
OUT_FILE_CASE = "ex-3.1"
FORMATS = ("json", "csv", "text")


def _atoms(probs):
    return [{"label": f"w{k}", "prob": float(p)} for k, p in enumerate(probs)]


def cli_documents(rng):
    """Problem documents of every task kind, keyed by kind, plus what each
    check-solidity document must classify as."""
    m = 8
    S = gamma21_quantile(stratified_unit(rng, m))
    solve = {
        "schema_version": 1,
        "space": {"atoms": _atoms(np.full(m, 1.0 / m))},
        "aggregate": [float(v) for v in S],
        "agents": [{"delta": float(d)} for d in 0.5 + 1.5 * stratified_unit(rng, 3)],
        "task": {"kind": "solve-mv", "lower": [0, 0, 0], "upper": ["inf", 1.0, 1.0]},
    }
    m = 12
    rows = rng.normal(size=(3, m))
    improve = {
        "schema_version": 1,
        "space": {"atoms": _atoms(np.full(m, 1.0 / m))},
        "aggregate": [float(v) for v in rows.sum(axis=0)],
        "agents": [{"measure": {"kind": "es", "level": 0.9}},
                   {"measure": {"kind": "mean_variance", "delta": 1.0}},
                   {"measure": {"kind": "var", "level": 0.9}}],
        "task": {"kind": "improve", "shares": [[float(v) for v in r] for r in rows]},
    }
    m = 3
    svals = np.sort(rng.choice([0.0, 1.0, 2.0, 3.0], size=m))
    oracle = {
        "schema_version": 1,
        "space": {"atoms": _atoms(np.full(m, 1.0 / m))},
        "aggregate": [float(v) for v in svals],
        "agents": [{"measure": {"kind": "es", "level": float(rng.choice([0.25, 0.5]))}},
                   {"measure": {"kind": "es", "level": float(rng.choice([0.5, 0.75]))}}],
        "constraints": [{"kind": "pathwise_bounds", "lower": -1, "upper": 4}],
        "task": {"kind": "oracle", "comonotone": bool(rng.random() < 0.5),
                 "grid": {"ranges": [[[-1, 3, 0.25]] * m]}},
    }
    m = 4
    zeta = rng.integers(0, 2, size=(2, m)).astype(float)
    zeta[:, 0] = (0.0, 0.0)
    zeta[:, -1] = (1.0, 1.0)
    solidity = {
        "schema_version": 1,
        "space": {"atoms": _atoms(np.full(m, 1.0 / m))},
        "endowments": [[float(v) for v in z] for z in zeta],
        "constraints": [{"kind": "retention", "endowment": [float(v) for v in z],
                         "deductible": 1, "scope": i} for i, z in enumerate(zeta)],
        "task": {"kind": "check-solidity", "seed": int(rng.integers(0, 1000)),
                 "budget": 2000,
                 "start": [[float(v) for v in z] for z in zeta]},
    }
    reproduce = {"schema_version": 1, "space": {"gamma": {}},
                 "task": {"kind": "reproduce", "case": RUN_REPRODUCE_CASE}}
    return {"solve-mv": solve, "improve": improve, "oracle": oracle,
            "check-solidity": solidity, "reproduce": reproduce}


def csv_tables(text):
    """{table name: rows} from csv-format output; raises ValueError."""
    tables = {}
    for chunk in text.split("# table: ")[1:]:
        name, _, body = chunk.partition("\n")
        rows = list(csv.reader(io.StringIO(body.strip("\n"))))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError(f"ragged table {name}")
        tables[name] = rows
    if text.strip() and not tables:
        raise ValueError("csv output has no tables")
    return tables


def text_fields(text):
    """{dotted key: value} from the scalar lines of text-format output."""
    fields = {}
    for line in text.splitlines():
        if line.startswith("[") or not line.strip():
            break
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparsed text line {line!r}")
        fields[key] = value
    return fields


def _table_clears(rows):
    header, body = rows[0], rows[1:]
    if header[:3] != ["atom", "prob", "S"]:
        return "allocation table header"
    for row in body:
        s = float(row[2])
        total = sum(float(v) for v in row[3:])
        if abs(total - s) > 1e-8 * (1.0 + abs(s)):
            return f"allocation row {row[0]} does not clear"
    return None


def parse_output(fmt, text):
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return csv_tables(text)
    fields = text_fields(text)
    if not fields:
        raise ValueError("empty text report")
    return fields


def check_reproduce_output(fmt, text, cwd, case):
    try:
        parsed = parse_output(fmt, text)
    except ValueError as exc:
        return f"{fmt} output does not parse: {exc}"
    artifacts = sorted(f for f in os.listdir(cwd) if f.startswith(case + "-"))
    if not artifacts:
        return "no CSV artifacts written"
    if fmt == "json":
        if parsed.get("case") != case or not parsed.get("checks"):
            return "report lacks the case or its checks"
        if not all(c["ok"] for c in parsed["checks"]):
            return "a reproduce check is not ok"
    elif fmt == "text":
        oks = [v for k, v in parsed.items() if k.startswith("checks[") and k.endswith(".ok")]
        if not oks or any(v != "true" for v in oks):
            return "a reproduce check is not ok"
    else:
        for name, rows in parsed.items():
            path = os.path.join(cwd, f"{case}-{name}.csv")
            with open(path, encoding="utf-8") as fh:
                if list(csv.reader(fh)) != rows:
                    return f"printed table {name} differs from its artifact"
    return None


def check_run_output(kind, fmt, text, cwd):
    try:
        parsed = parse_output(fmt, text)
    except ValueError as exc:
        return f"{fmt} output does not parse: {exc}"
    if kind == "reproduce":
        return check_reproduce_output(fmt, text, cwd, RUN_REPRODUCE_CASE)
    if fmt == "csv":
        if kind == "check-solidity":
            return None
        return _table_clears(parsed["allocation"])
    get = parsed.get
    if kind == "solve-mv":
        if str(get("comonotonic")).lower() != "true":
            return "solve-mv allocation not comonotonic"
        if not float(get("residual")) < RESIDUAL_TOL:
            return "solve-mv residual too large"
        if fmt == "json":
            return _table_clears([parsed["tables"]["allocation"]["header"]]
                                 + [[str(v) for v in r]
                                    for r in parsed["tables"]["allocation"]["rows"]])
    elif kind == "improve":
        if str(get("all_verified")).lower() != "true":
            return "improvement certificate not verified"
        if not float(get("clearing_residual")) <= CLEAR_TOL:
            return "improvement does not clear"
    elif kind == "oracle":
        value = float(get("value"))
        if not math.isfinite(value):
            return "oracle value not finite"
        if fmt == "json" and abs(sum(parsed["objective_parts"]) - value) > 1e-8:
            return "oracle parts do not sum to its value"
    elif kind == "check-solidity":
        if get("status") != Solidity.NOT_SOLID.value:
            return f"retention set classified {get('status')}"
    return None
