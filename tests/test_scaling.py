"""Value tolerances scale with the aggregate: rescaling a problem by c
rescales its answers by c and leaves every verdict unchanged.

Each case draws the same seeded problems at every scale.  At scales up to 1
the tolerances stay absolute (VALUE_TOL = 1e-9); above 1 they grow with
value_scale, max(1, max |value|).  The capped solver's fixed-point stop is
relative at every scale, so its intercepts scale below 1 as well.
"""

import math

import numpy as np
import pytest

from coshare import (
    Allocation,
    Constraint,
    ExpectationConstraint,
    FiniteSpace,
    MVProblem,
    PathwiseBounds,
    RandomVariable,
    ValidationError,
    check_feasible,
    comonotonic_improvement,
    falsify_solidity,
    solve_capped_mv,
    two_agent_fixed_point,
)
from coshare.probspace import VALUE_TOL, value_scale

INF = math.inf


def alloc(probs, rows):
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    return Allocation(sp, tuple(RandomVariable(sp, r) for r in rows))


def mv_problem(rng, c):
    """An mv-capped-shaped problem (Gamma(2,1) S on m equally likely atoms,
    lower caps 0, agent 0 uncapped, the others capped at 3/n) with S and
    the caps times c and the variance weights divided by c."""
    m, n = int(rng.choice((4, 8, 16))), int(rng.choice((2, 4, 8)))
    s = rng.gamma(2.0, 1.0, size=m)
    delta = np.sort(rng.uniform(0.5, 2.0, size=n))
    upper = np.array((INF,) + (3.0 / n,) * (n - 1))
    sp = FiniteSpace.uniform(m)
    return MVProblem(tuple(delta / c), (0.0,) * n, tuple(upper * c),
                     (sp, RandomVariable(sp, s * c)))


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e4, 1e8))
def test_improvement_certificates_verify(c):
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(3, 30))
        probs = rng.dirichlet(np.ones(m))
        _, cert = comonotonic_improvement(alloc(probs, rng.normal(size=(n, m)) * c))
        assert cert.all_verified, cert


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e4, 1e6, 1e8))
def test_capped_mv_intercepts_scale(c):
    unit_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(60):
        unit = np.array(solve_capped_mv(mv_problem(unit_rng, 1.0))[1].intercepts)
        got = np.array(solve_capped_mv(mv_problem(rng, c))[1].intercepts)
        assert np.max(np.abs(got / c - unit)) <= 1e-10 * max(1.0, np.abs(unit).max())


@pytest.mark.parametrize("c", (1e4, 1e8))
def test_feasibility_verdicts_do_not_change(c):
    # pathwise and expectation bounds taken from the shares themselves, so
    # many values sit exactly on a bound at unit scale
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(200):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(m))
        rows = rng.integers(-8, 9, size=(n, m)) * 0.25
        if rng.random() < 0.5:
            rows = rng.normal(size=(n, m))
        unit, scaled = [], []
        for i in range(n):
            x = rows[i]
            off = float(rng.choice((0.0, 0.0, -0.25, 0.25)))
            if rng.random() < 0.5:
                lo = float(x.min()) + off
                hi = max(lo, float(x.max()) - float(rng.choice((0.0, 0.25))))
                unit.append(Constraint(PathwiseBounds(lo, hi), i))
                scaled.append(Constraint(PathwiseBounds(lo * c, hi * c), i))
            else:
                rel = str(rng.choice(("<=", "==", ">=")))
                b = float(probs @ x) + off
                unit.append(Constraint(ExpectationConstraint(rel, b), i))
                scaled.append(Constraint(ExpectationConstraint(rel, b * c), i))
        verdict = check_feasible(alloc(probs, rows), tuple(unit))[0]
        assert check_feasible(alloc(probs, rows * c), tuple(scaled))[0] == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_no_false_witness_against_a_solid_set():
    # pathwise bounds plus a mean pinned to the start's: Solid, so any
    # witness would be float dust read as a breach
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(3, 9))
        probs = rng.dirichlet(np.ones(m))
        rows = rng.normal(size=(n, m)) * 1e8
        A = alloc(probs, rows)
        constraints = (
            Constraint(PathwiseBounds(float(rows.min()), float(rows.max()))),
            Constraint(ExpectationConstraint("==", float(probs @ rows[0])), 0))
        assert falsify_solidity(constraints, A.space, A.aggregate, budget=200,
                                seed=seed, start=A) is None


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e4, 1e8))
def test_cap_range_verdicts_do_not_change(c):
    # caps w max S (upper) or w min S (lower), w from a Dirichlet, sum to
    # the end of S's range up to rounding: -6e-8 at c = 1e8, refused by an
    # absolute 1e-12 before.  Caps 10 tolerances short are still refused.
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        s = rng.gamma(2.0, 1.0, size=5) * c
        sp = FiniteSpace.uniform(5)
        S = RandomVariable(sp, s)
        tol = VALUE_TOL * value_scale(s)
        upper = rng.dirichlet(np.ones(n)) * s.max()
        lower = rng.dirichlet(np.ones(n)) * s.min()
        step = np.zeros(n)
        step[upper.argmax()] = 10 * tol
        for lo, up, short, message in (
                (np.zeros(n), upper, (np.zeros(n), upper - step), "upper caps"),
                (lower, np.full(n, INF), (lower + step, np.full(n, INF)), "lower caps")):
            allocation, _ = solve_capped_mv(MVProblem((1.0,) * n, tuple(lo), tuple(up), (sp, S)))
            X = np.array([share.values for share in allocation.shares])
            assert np.max(np.abs(X.sum(axis=0) - s)) <= tol
            assert np.all((X >= lo[:, None]) & (X <= up[:, None]))
            with pytest.raises(ValidationError, match=message):
                MVProblem((1.0,) * n, *map(tuple, short), (sp, S))


@pytest.mark.parametrize("c", (1e4, 1e8, 1e200))
def test_two_agent_interval_scales(c):
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        values = rng.integers(0, 9, size=m) * 0.5
        if rng.random() < 0.5:
            values = rng.uniform(0.0, 8.0, size=m)
        sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
        a = float(rng.uniform(0.05, 0.95))
        C = float(rng.choice((0.5, 2.0, 10.0))) * float(rng.uniform(0.5, 1.5))
        lo, hi = two_agent_fixed_point(a, C, RandomVariable(sp, values))
        lo_c, hi_c = two_agent_fixed_point(a, C * c, RandomVariable(sp, values * c))
        scale = max(1.0, abs(lo), abs(hi))
        assert abs(lo_c / c - lo) <= 1e-9 * scale
        assert abs(hi_c / c - hi) <= 1e-9 * scale


def far_scale_problem(rng, c):
    """Agent 0 uncapped and the others in [0, U c], U uniform on (0, 8),
    with S uniform on (0, 8 c) and delta in [0.3, 3]: kinks and intercepts
    scale with c, and the fixed point's potential with c^2."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
    S = RandomVariable(sp, rng.uniform(0.0, 8.0, size=m) * c)
    delta = tuple(rng.uniform(0.3, 3.0, size=n))
    upper = (INF,) + tuple(rng.uniform(0.0, 8.0, size=n - 1) * c)
    return MVProblem(delta, (-INF,) + (0.0,) * (n - 1), upper, (sp, S))


@pytest.mark.parametrize("c", (1e-250, 1e17, 1e100, 1e300))
def test_capped_mv_solves_at_far_scales(c):
    # past 2^53 a kink plus one is the kink itself, and past about 1e154
    # (below about 1e-154) the line search's products of two values
    # overflow (underflow): the solve still matches the unit solve
    unit_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        unit = np.array(solve_capped_mv(far_scale_problem(unit_rng, 1.0))[1].intercepts)
        got = np.array(solve_capped_mv(far_scale_problem(rng, c))[1].intercepts)
        assert np.max(np.abs(got / c - unit)) <= 1e-10 * max(1.0, np.abs(unit).max())


@pytest.mark.parametrize("top", (2.0 ** 1023, 1e308))
def test_capped_mv_solves_at_the_top_binade(top):
    # max |S| in [2^1023, 2^1024): the solve's power-of-two unit is 2^1023,
    # not 2^1024 (which overflowed), and S = (top, 1, 1) solves as
    # (1, 1/top, 1/top) does
    sp = FiniteSpace.uniform(3)
    for upper in ((INF,) * 3, (INF, 0.25, 0.5), (INF, 0.05, 0.5)):
        got, unit = (
            np.array(solve_capped_mv(MVProblem(
                (1.0, 2.0, 3.0), (0.0,) * 3, tuple(np.multiply(upper, c)),
                (sp, RandomVariable(sp, np.array((1.0, 1.0 / top, 1.0 / top)) * c))))[1]
                .intercepts)
            for c in (top, 1.0))
        assert np.max(np.abs(got / top - unit)) <= 1e-10 * max(1.0, np.abs(unit).max())
    for C in (0.1, 0.5):
        got = two_agent_fixed_point(0.3, C * top, RandomVariable(sp, (top, 1.0, 1.0)))
        unit = two_agent_fixed_point(0.3, C, RandomVariable(sp, (1.0, 1.0 / top, 1.0 / top)))
        assert np.max(np.abs(np.divide(got, top) - unit)) <= 1e-10


def two_agent_residual(a, C, S, beta):
    p, v = S.space.probs, S.values
    return float(np.clip(a * v + beta, 0.0, C) @ p) - a * float(v @ p) - beta


def test_two_agent_interval_with_caps_far_above_s():
    # the cap's kinks C - a v round to C itself once ulp(C) passes a v: the
    # interval still runs from the lower kinks' root to about C
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
        S = RandomVariable(sp, rng.uniform(0.0, 8.0, size=m))
        C = 10.0 ** rng.uniform(150.0, 307.0)
        lo, hi = two_agent_fixed_point(0.3, C, S)
        assert lo <= hi
        for beta in (lo, hi):
            assert abs(two_agent_residual(0.3, C, S, beta)) <= 1e-10 * max(1.0, abs(beta))


@pytest.mark.parametrize("a", (0.05, 0.5, 0.99))
def test_two_agent_cap_near_float_max(a):
    # C = 1.7e308: the cap's kink C/a is a float only for a above about
    # 0.95; below, it reads inf, a cap H never reaches, and the interval
    # still runs up to about C
    sp = FiniteSpace.uniform(4)
    S = RandomVariable(sp, np.random.default_rng(0).uniform(1.0, 2.0, size=4))
    C = 1.7e308
    lo, hi = two_agent_fixed_point(a, C, S)
    assert lo == pytest.approx(two_agent_fixed_point(a, 100.0, S)[0], abs=1e-12)
    assert hi == pytest.approx(C, rel=1e-15)
    for beta in (lo, hi):
        assert abs(two_agent_residual(a, C, S, beta)) <= 1e-10 * max(1.0, abs(beta))
