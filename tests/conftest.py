"""Shared fixtures and the acceptance-criterion summary.

Tests marked ``@pytest.mark.criterion(n, title)`` are collected into a
summary section printed at the end of the run, one PASS/FAIL line per
criterion.  Expensive pipelines (the 1.19M-point grid of the four-atom
example, the Gamma(2,1) scenario) run once per session here.
"""

import gc
import time
import types

import numpy as np
import pytest
from hypothesis import settings

import coshare.constraints as constraints_module
from coshare import (
    Allocation,
    Constraint,
    convex_ladder,
    FiniteSpace,
    GridSpec,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskMeasureSpec,
    comonotone_minimize,
    grid_minimize,
    check_clearing,
    check_feasible,
    convex_order_leq,
    var_scenario,
)
from coshare.allocation import LEVEL_GAP_EPS, MAX_TRANSFERS
from coshare.constraints import FALSIFY_CHAIN_LIMIT
from coshare.errors import ContractError, NonterminationError
from coshare.probspace import CUM_PROB_TOL, VALUE_TOL

CRITERION_TITLES = {
    1: "three-state ES pair: 19/8 vs 29/12, gap 1/24",
    2: "four-atom VaR-ceiling grids: 2, 25/12, 9/4",
    3: "retention counterexample witness and NotSolid verdict",
    4: "exact comonotonic improvement (1/4, 3/4, 5/4)",
    5: "saturation curve breakpoints 12, 31/2, 20 as rationals",
    6: "Gamma(2,1) scenario: 2.0198 < 2.0517 < 2.0972 < 3.01",
    7: "property suites, 200+ instances each",
    8: "two-agent fixed-point residual and interval scan",
}

_RESULTS = {}

# every hypothesis test is seedless and deterministic: derived from the test
# itself, with no example database and no deadline
settings.register_profile("coshare", derandomize=True, database=None, deadline=None)
settings.load_profile("coshare")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion test")


def pytest_collection_finish(session):
    # what exists once the tests are collected (modules, hypothesis, pytest's
    # own state) lives for the whole run: frozen, full collections skip it
    gc.collect()
    gc.freeze()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num = marker.args[0]
    if report.when == "call":
        _RESULTS[num] = report.passed
    elif report.failed:
        _RESULTS[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERION_TITLES):
        if num in _RESULTS:
            status = "PASS" if _RESULTS[num] else "FAIL"
        else:
            status = "NOT RUN"
        terminalreporter.write_line(
            f"criterion {num}: {status} - {CRITERION_TITLES[num]}")


@pytest.fixture(scope="session")
def three_state_instance():
    """Two ES agents on S = (1,2,3), envelope pinning X_1 except at S=3."""
    from coshare import AggregateEnvelope
    from fractions import Fraction

    space = FiniteSpace((f"s{k}", Fraction(1, 3)) for k in (1, 2, 3))
    S = RandomVariable(space, (1.0, 2.0, 3.0))
    measures = (RiskMeasureSpec.es(0.2), RiskMeasureSpec.es(1.0 / 3.0))
    envelope = AggregateEnvelope(
        lower=((1.0, 0.25), (2.0, 0.25), (3.0, 0.25)),
        upper=((1.0, 0.25), (2.0, 0.25), (3.0, 1.75)))
    constraints = (Constraint(envelope, scope=0),
                   Constraint(PathwiseBounds(lower=0.0)))
    grid = GridSpec.from_family(
        base=((0.25, 0.25, 0.0),), direction=((0.0, 0.0, 1.0),),
        lo=0.25, hi=1.75, step=0.01)
    return space, S, measures, constraints, grid


@pytest.fixture(scope="session")
def four_atom_instance():
    """Two ES agents on the 0.9925/0.0025^3 space with a VaR ceiling."""
    space = FiniteSpace(zip(("A0", "A1a", "A1b", "A2"),
                            (0.9925, 0.0025, 0.0025, 0.0025)))
    S = RandomVariable(space, (0.0, 2.0, 2.0, 4.0))
    measures = (RiskMeasureSpec.es(0.99), RiskMeasureSpec.es(0.9925))
    constraints = (
        Constraint(PathwiseBounds(lower=0.0)),
        Constraint(RiskCeiling(RiskMeasureSpec.var(0.995), 1.0)),
    )
    return space, S, measures, constraints


@pytest.fixture(scope="session")
def four_atom_grids(four_atom_instance):
    """The three enumerations on the step-1/8 grid, with wall time."""
    space, S, measures, constraints = four_atom_instance
    grid = GridSpec.uniform(1, 4, 0.0, 4.0, 0.125)
    t0 = time.perf_counter()
    free = grid_minimize(space, S, measures, (), grid)
    constrained = grid_minimize(space, S, measures, constraints, grid)
    comonotone = comonotone_minimize(space, S, measures, constraints, grid)
    elapsed = time.perf_counter() - t0
    return {
        "free": free,
        "constrained": constrained,
        "comonotone": comonotone,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def gamma_scenario():
    """var_scenario() with wall time; everything in it is deterministic."""
    t0 = time.perf_counter()
    report = var_scenario()
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


# Scalar reference evaluators: the per-atom loops that the batch kernels
# (riskmeasures.measure_values, probspace.level_partition,
# stochorder.convex_order_mask) replaced, the numpy pair loop that the
# improvement's scalar repair replaced, and the falsifier's transfer stage one
# lane at a time.  The library is checked against these
# on seeded inputs.  They group atoms into levels with their own loop, so a
# fault in the library's partition cannot pass on both sides.  They scale
# their value tolerances by the largest |value| themselves, so a fault in
# the library's scale rule cannot pass on both sides either.

def reference_levels(values):
    """Atom indices by level: stable sorted order, each level holding the
    atoms within VALUE_TOL times the largest |value| of its first value."""
    merge = VALUE_TOL * float(np.max(np.abs(values)))
    levels = []
    for idx in np.argsort(values, kind="stable").tolist():
        if levels and values[idx] - values[levels[-1][0]] <= merge:
            levels[-1].append(idx)
        else:
            levels.append([idx])
    return levels


def reference_distribution(X):
    # a level's mass is the numpy sum of its probabilities in sorted order
    return [(float(X.values[group[0]]), float(X.space.probs[group].sum()))
            for group in reference_levels(X.values)]


def reference_measure(spec, X):
    dist = reference_distribution(X)
    if spec.kind == "var":
        cum = 0.0
        for v, p in dist:
            cum += p
            if cum >= spec.level - CUM_PROB_TOL:
                return v
        return dist[-1][0]
    if spec.kind == "es":
        tail = 1.0 - spec.level
        need = tail
        acc = 0.0
        for value, prob in reversed(dist):
            take = prob if prob < need else need
            acc += value * take
            need -= take
            if need <= CUM_PROB_TOL:
                break
        return acc / tail
    if spec.kind == "mean_variance":
        p = X.space.probs
        mean = float(p @ X.values)
        variance = float(p @ (X.values - mean) ** 2)
        return mean + spec.delta * max(variance, 0.0)
    return float(sum(p * convex_ladder(v, spec.ladder)
                     for v, p in zip(X.values, X.space.probs)))


def reference_convex_order(Y, X):
    """Convex order on the atoms: the means, then one stop-loss sum per
    support point, within 1e-9 times the pair's largest |value|.  The laws
    are not merged as distribution_of merges them: its merge width is as
    wide as this tolerance, so a merged law's stop-loss sums could move by
    as much as the tolerance allows."""
    dy = list(zip(Y.values.tolist(), Y.space.probs.tolist()))
    dx = list(zip(X.values.tolist(), X.space.probs.tolist()))
    tol = 1e-9 * max(*np.abs(Y.values), *np.abs(X.values))

    def mean(dist):
        return sum(p * v for v, p in dist)

    def stop_loss(dist, t):
        return sum(p * (v - t) for v, p in dist if v > t)

    if abs(mean(dy) - mean(dx)) > tol:
        return False
    grid = sorted({v for v, _ in dy} | {v for v, _ in dx})
    return all(stop_loss(dy, t) <= stop_loss(dx, t) + tol for t in grid)


def reference_condition(A):
    """Per-level, per-share conditioning on sigma(S): one row per share."""
    probs = A.space.probs
    new_values = [share.values.copy() for share in A.shares]
    for group in reference_levels(A.aggregate.values):
        mass = probs[group].sum()
        for i, share in enumerate(A.shares):
            block = share.values[group]
            if block.max() == block.min():
                continue
            new_values[i][group] = float(probs[group] @ block / mass)
    return np.array(new_values)


def reference_repair(A, max_transfers=MAX_TRANSFERS):
    """(x, transfers): the improvement's level matrix x[i, k] (share i on
    level k of the aggregate) after the numpy (k, l) pair loop, run on the
    conditioned allocation with the same transfer rule, checks and cap.
    Each row k goes straight to its next pair with a violator, found by one
    numpy test of the pair visit's own subtraction and comparison on all of
    the row's later levels, unless the next pair has one: the pairs passed
    over would move nothing, and level k does not move until a pair does.
    A pair's transfers run on its two levels as Python float lists, whose
    operations are numpy's on float64, element by element."""
    groups = reference_levels(A.aggregate.values)
    conditioned = reference_condition(A)
    m = len(groups)
    masses = np.array([A.space.probs[g].sum() for g in groups])
    x = np.array([[row[g[0]] for g in groups] for row in conditioned])
    scale = float(np.max(np.abs(A.aggregate.values)))
    # a fall no agent can absorb is the difference of two levels' clearing
    # residuals, each within VALUE_TOL * max(1, scale)
    partner_tol = 2.0 * VALUE_TOL * max(1.0, scale)
    gap_tol = LEVEL_GAP_EPS * scale

    transfers = 0
    while True:
        changed = False
        for k in range(m):
            ck = x[:, k].tolist()
            l = k + 1
            while l < m:
                cl = x[:, l].tolist()
                if max(a - b for a, b in zip(ck, cl)) <= gap_tol:
                    falls = ((x[:, k, None] - x[:, l + 1:]) > gap_tol).any(axis=0)
                    if not falls.any():
                        break
                    l += 1 + int(falls.argmax())
                    cl = x[:, l].tolist()
                p_k, p_l = float(masses[k]), float(masses[l])
                while True:
                    gaps = [a - b for a, b in zip(ck, cl)]
                    for i, gap in enumerate(gaps):
                        if gap > gap_tol:
                            break
                    else:
                        break  # no violator left
                    # the first agent of largest rise -gap
                    low = min(gaps)
                    j = gaps.index(low)
                    if -low <= 0.0:
                        if gaps[i] > partner_tol:
                            raise ContractError("no transfer partner found")
                        break
                    gap_i = gaps[i]
                    gap_j = -low
                    if abs(p_k - p_l) <= CUM_PROB_TOL:
                        amount = min(gap_i, gap_j / 2.0)
                        down, up = amount, amount
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
                    changed = True
                    if transfers > max_transfers:
                        x[:, k], x[:, l] = ck, cl
                        raise NonterminationError(
                            f"transfer cap {max_transfers} exceeded",
                            state={"level_values": x.copy(), "transfers": transfers},
                        )
                x[:, k], x[:, l] = ck, cl
                l += 1
        if not changed:
            return x, transfers


def reference_transfers(X, constraints, budget, seed):
    """Stage 3 of falsify_solidity from the start X, one lane at a time: the
    share matrix of the first verified candidate, or None.  It makes the
    library's two rng calls per block, one row per step and lane, decodes
    each move code with Python divmod, moves each chain in Python floats,
    and checks each candidate on its own with check_clearing, check_feasible
    and convex_order_leq."""
    space, S = X.space, X.aggregate
    n, m = X.n_agents, space.size
    if n < 2 or m < 2:
        return None
    p = space.probs.tolist()
    rng = np.random.default_rng(seed)
    min_gap = VALUE_TOL * float(np.max(np.abs(S.values)))
    length = FALSIFY_CHAIN_LIMIT
    # read at call time, so a test that shrinks the blocks shrinks both sides
    lanes = max(1, constraints_module._BLOCK_CELLS // (length * n * m))
    chains = -(-budget // length)
    for first in range(0, chains, lanes):
        block = range(first, min(first + lanes, chains))
        states = [X.share_matrix().tolist() for _ in block]
        moved = [[] for _ in block]
        codes = rng.integers(0, n * (n - 1) * m * (m - 1), size=(length, len(block))).tolist()
        uniforms = rng.uniform(0.25, 1.0, size=(length, len(block))).tolist()
        for step in range(length):
            live = [c for c, chain in enumerate(block) if chain * length + step < budget]
            for c in live:
                rest, db = divmod(codes[step][c], m - 1)
                rest, a = divmod(rest, m)
                i, dj = divmod(rest, n - 1)
                j, b = dj + (dj >= i), db + (db >= a)
                uc = uniforms[step][c]
                x = states[c]
                gap_i = x[i][a] - x[i][b]
                gap_j = x[j][b] - x[j][a]
                if gap_i <= min_gap or gap_j <= min_gap:
                    continue
                down = min(gap_i, gap_j) * p[b] / (p[a] + p[b]) * uc
                up = down * p[a] / p[b]
                x[i][a] -= down
                x[i][b] += up
                x[j][a] += down
                x[j][b] -= up
                moved[c].append([row[:] for row in x])
        for rows in (rows for chain in moved for rows in chain):
            Y = Allocation(space, tuple(RandomVariable(space, r) for r in rows), S)
            if (check_clearing(Y)[0] and not check_feasible(Y, constraints)[0]
                    and all(convex_order_leq(y, x) for y, x in zip(Y.shares, X.shares))):
                return np.array(rows)
    return None


def draw_allocation(rng):
    """Seeded clearing allocation: n 2-8 agents on m 2-60 atoms (m drawn
    log-uniformly), uniform or Dirichlet masses, distinct or tied aggregate
    values, scale 1e-6 to 1e4."""
    n = int(rng.integers(2, 9))
    m = int(np.exp(rng.uniform(np.log(2.0), np.log(61.0))))
    probs = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else np.full(m, 1.0 / m)
    scale = 10.0 ** rng.uniform(-6.0, 4.0)
    if rng.random() < 0.5:
        s = rng.normal(size=m)
    else:
        s = rng.integers(0, max(2, m // 4), size=m) * 0.5
    s = s * scale
    rows = [rng.normal(size=m) * scale for _ in range(n - 1)]
    rows.append(s - np.sum(rows, axis=0))
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    return Allocation(space, tuple(RandomVariable(space, r) for r in rows),
                      RandomVariable(space, s))


def draw_variable(rng, m):
    """Seeded random variable on m atoms: Dirichlet probabilities, values on
    a coarse grid (exact ties) with some nudged by 1e-13 (near ties)."""
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
    values = rng.integers(-4, 5, size=m) * 0.5
    near = rng.random(m) < 0.3
    values[near] += 1e-13 * rng.choice((-1.0, 1.0), size=int(near.sum()))
    if rng.random() < 0.3:
        values = rng.normal(scale=3.0, size=m)
    return RandomVariable(space, values)


@pytest.fixture
def reference():
    """Namespace of the scalar reference evaluators and the input generator."""
    return types.SimpleNamespace(levels=reference_levels,
                                 distribution=reference_distribution,
                                 measure=reference_measure,
                                 convex_order=reference_convex_order,
                                 condition=reference_condition,
                                 repair=reference_repair,
                                 transfers=reference_transfers,
                                 draw=draw_variable,
                                 draw_allocation=draw_allocation)
