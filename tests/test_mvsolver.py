"""Capped mean-variance solver, saturation curves, and the VaR scenario."""

import bisect
import importlib.util
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

import coshare.mvsolver as mvsolver_module
from coshare import (
    Constraint,
    ContractError,
    ConvergenceError,
    DomainError,
    FiniteSpace,
    GammaAggregate,
    GridSpec,
    InfeasibleError,
    MVProblem,
    OrliczBound,
    PathwiseBounds,
    RandomVariable,
    RiskMeasureSpec,
    ValidationError,
    distribution_of,
    expected_convex_loss,
    gamma_quantile,
    grid_minimize,
    mean_variance,
    moments,
    mv_objective,
    saturation_curve,
    solve_capped_mv,
    statewise_projection,
    two_agent_fixed_point,
    unconstrained_shares,
)
from coshare.probspace import VALUE_TOL, value_scale

F = Fraction
NEG_INF = -math.inf
INF = math.inf


def finite_aggregate(values, probs=None):
    n = len(values)
    probs = probs if probs is not None else (1.0 / n,) * n
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    return sp, RandomVariable(sp, values)


def reference_projection(c, delta, lower, upper, s):
    """Reference for the batched projection: one state at a time, by
    bisection over the sorted kink set."""
    n = len(delta)
    inv = np.array([1.0 / d for d in delta])
    c_arr, lo_arr, up_arr = np.array(c), np.array(lower), np.array(upper)

    kinks = sorted({delta[i] * (b - c[i]) for i in range(n)
                    for b in (lower[i], upper[i]) if math.isfinite(b)})
    if not kinks:
        eta = (s - c_arr.sum()) / inv.sum()
    else:
        # H(eta) = sum_i clip(c_i + eta/delta_i, L_i, U_i) at every kink
        h_vals = np.clip(c_arr + np.array(kinks)[:, None] * inv,
                         lo_arr, up_arr).sum(axis=1).tolist()
        lo, hi = bisect.bisect_left(h_vals, s), bisect.bisect_right(h_vals, s)
        if lo < hi:
            eta = 0.5 * (kinks[lo] + kinks[hi - 1])
        elif lo == 0:
            slope = float(inv[lo_arr == NEG_INF].sum())
            eta = kinks[0] - (h_vals[0] - s) / slope if slope > 0.0 else kinks[0]
        elif lo == len(kinks):
            slope = float(inv[up_arr == INF].sum())
            eta = kinks[-1] + (s - h_vals[-1]) / slope if slope > 0.0 else kinks[-1]
        else:
            k_a, k_b, h_a, h_b = kinks[lo - 1], kinks[lo], h_vals[lo - 1], h_vals[lo]
            eta = k_a + (s - h_a) * (k_b - k_a) / (h_b - h_a)
    shares = np.clip(c_arr + eta * inv, lo_arr, up_arr)
    residual = s - float(shares.sum())
    if residual != 0.0:
        margin = max(2.0 * abs(residual), 1e-12)
        for i in range(n):
            if shares[i] - margin > lower[i] and shares[i] + margin < upper[i]:
                shares[i] += residual
                break
    return float(eta), shares


def reference_solve(problem, tol=1e-14, max_iterations=10 ** 5):
    """The damped intercept iteration from c = a E[S] with one projection
    per state, run until the intercepts move less than tol; returns (shares
    by agent, intercepts)."""
    space, S = problem.aggregate
    probs = space.probs
    c = np.array([float(a) * float(S.values @ probs)
                  for a in unconstrained_shares(problem.delta)])

    def shares_at(c):
        shares = np.empty((problem.n_agents, space.size))
        for k, s in enumerate(S.values):
            shares[:, k] = reference_projection(
                c, problem.delta, problem.lower, problem.upper, s)[1]
        return shares

    for _ in range(max_iterations):
        target = shares_at(c) @ probs
        if np.max(np.abs(target - c)) < tol:
            return shares_at(target), target
        c = 0.5 * c + 0.5 * target
    raise AssertionError("reference iteration did not converge")


def mv_capped_problem(rng, m, n):
    """Gamma(2,1) S on m equally likely atoms, delta in [0.5, 2], lower caps
    0, agent 0 uncapped and the others capped at 3/n: caps bind on a
    sizeable share of states."""
    agg = finite_aggregate(rng.gamma(2.0, 1.0, size=m))
    return MVProblem(tuple(np.sort(rng.uniform(0.5, 2.0, size=n))), (0.0,) * n,
                     (INF,) + (3.0 / n,) * (n - 1), agg)


def crosscheck_problems(seed, count):
    """The problem generator of the solver-vs-oracle property suite: n <= 3
    agents, m <= 4 atoms, caps above only.  Yields (trial, problem)."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = 2 if rng.random() < 0.7 else 3
        m = int(rng.integers(2, 5)) if n == 2 else int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(m))
        svals = np.sort(rng.uniform(0.0, 3.0, size=m))
        delta = rng.uniform(0.3, 3.0, size=n)
        upper = np.where(rng.random(n) < 0.5, INF, rng.uniform(0.8, 2.5, size=n))
        if np.isfinite(upper).all() and upper.sum() < svals.max() + 0.2:
            upper[int(rng.integers(n))] = INF
        yield trial, MVProblem(tuple(delta), (NEG_INF,) * n, tuple(upper),
                               finite_aggregate(svals, probs))


def dirichlet_problems(seed, count, alpha, floor=0.0, atoms=(8, 16), agents=(4, 8)):
    """mv-capped-shaped problems with uneven state masses: m in atoms and
    n in agents drawn first, then Dirichlet(alpha) masses (each raised to
    at least floor and renormalised), Gamma(2,1) S, delta in [0.5, 2],
    lower caps 0, agent 0 uncapped and the others capped at 3/n.  Yields
    (trial, problem)."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, n = int(rng.choice(atoms)), int(rng.choice(agents))
        probs = rng.dirichlet(np.full(m, alpha))
        if floor:
            probs = np.maximum(probs, floor)
            probs /= probs.sum()
        agg = finite_aggregate(rng.gamma(2.0, 1.0, size=m), probs)
        yield trial, MVProblem(tuple(np.sort(rng.uniform(0.5, 2.0, size=n))), (0.0,) * n,
                               (INF,) + (3.0 / n,) * (n - 1), agg)


def nearest_optimum(problem, shares, c):
    """The optimum nearest the proportional intercepts a E[S] in the norm
    sum_i delta_i (.)^2 among the shifts (shares + y, c + y) of the optimum
    (shares, c) with sum y = 0 that keep every share within its caps, by
    bisection on the multiplier of sum y = 0: y_i = clip(t_i + eta/delta_i,
    lo_i, hi_i) with t = a E[S] - c and the box read from the shares (one row
    per agent).  Returns (shares + y, c + y)."""
    space, S = problem.aggregate
    delta = np.array(problem.delta)
    t = (np.array([float(a) for a in unconstrained_shares(problem.delta)])
         * float(S.values @ space.probs) - c)
    lo = np.array(problem.lower) - shares.min(axis=1)
    hi = np.array(problem.upper) - shares.max(axis=1)

    def shift(eta):
        return np.clip(t + eta / delta, lo, hi)

    below, above = -1.0, 1.0
    while shift(below).sum() > 0.0:
        below *= 2.0
    while shift(above).sum() < 0.0:
        above *= 2.0
    for _ in range(200):
        mid = 0.5 * (below + above)
        if shift(mid).sum() < 0.0:
            below = mid
        else:
            above = mid
    y = shift(0.5 * (below + above))
    return shares + y[:, None], c + y


class TestMVProblem:
    def test_validation(self):
        agg = finite_aggregate((0.0, 2.0))
        with pytest.raises(DomainError):
            MVProblem((0.0, 1.0), (NEG_INF,) * 2, (INF,) * 2, agg)
        for delta in ((0, 1), (0.0, 1.0), (F(-1), 1), (1.0, math.nan)):
            with pytest.raises(DomainError):
                unconstrained_shares(delta)
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (NEG_INF,), (INF,) * 2, agg)
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (1.0, 0.0), (0.5, INF), agg)
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2, "gamma")
        # caps must leave the aggregate range reachable
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (1.5, 1.5), (INF,) * 2, agg)
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (NEG_INF,) * 2, (0.5, 0.5), agg)

    def test_aggregate_on_another_space(self):
        space, _ = finite_aggregate((0.0, 2.0))
        _, S = finite_aggregate((0.0, 2.0), (0.25, 0.75))
        with pytest.raises(ValidationError, match="live on the given space"):
            MVProblem((1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2, (space, S))

    def test_gamma_rejected_by_finite_solver(self):
        # the finite-state solver cannot take a continuous aggregate, so the
        # problem it solves refuses one when it is built
        with pytest.raises(ValidationError):
            MVProblem((1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2, GammaAggregate())


class TestUnconstrainedShares:
    def test_exact_fractions(self):
        assert unconstrained_shares((F(1), F(2))) == (F(2, 3), F(1, 3))
        assert unconstrained_shares((1, 1, 2)) == (F(2, 5), F(2, 5), F(1, 5))
        # an exact weight has an exact reciprocal, however small or large
        assert unconstrained_shares((F(1, 10 ** 400), 1))[1] == F(1, 10 ** 400 + 1)
        assert unconstrained_shares((10 ** 400, 1))[0] == F(1, 10 ** 400 + 1)

    def test_floats(self):
        a = unconstrained_shares((0.5, 1.0))
        assert a == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_largest_float_weight_solves(self):
        # the largest weight with a normal reciprocal: agent 0 moves only
        # where agent 1 sits at a cap, so X_1 = (0, 1/4, 1)
        delta = 1.0 / sys.float_info.min
        assert unconstrained_shares((delta, 1.0))[0] == pytest.approx(1.0 / delta, rel=1e-15)
        allocation, report = solve_capped_mv(MVProblem(
            (delta, 1.0), (0.0, 0.0), (INF, 1.0), finite_aggregate((0.5, 1.0, 2.0))))
        assert report.intercepts == pytest.approx((0.75, 5 / 12), abs=1e-15)
        assert allocation.shares[1].values == pytest.approx((0.0, 0.25, 1.0), abs=1e-15)


class TestStatewiseProjection:
    def test_interior(self):
        eta, x = statewise_projection((0.0, 0.0), (1.0, 1.0),
                                      (NEG_INF,) * 2, (INF,) * 2, 2.0)
        assert eta == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_cap_active(self):
        eta, x = statewise_projection((0.0, 0.0), (1.0, 1.0),
                                      (NEG_INF,) * 2, (0.5, INF), 2.0)
        assert eta == pytest.approx(1.5, abs=1e-12)
        assert x == pytest.approx((0.5, 1.5), abs=1e-12)

    def test_validation(self):
        # the caps are checked as MVProblem checks them
        c, free = (0.0, 0.0), ((NEG_INF,) * 2, (INF,) * 2)
        with pytest.raises(DomainError):
            statewise_projection(c, (0.0, 1.0), *free, 1.0)
        with pytest.raises(ValidationError, match="equal length"):
            statewise_projection(c, (1.0, 1.0), (NEG_INF,), (INF,) * 2, 1.0)
        with pytest.raises(ValidationError, match="lower < upper"):
            statewise_projection(c, (1.0, 1.0), (1.0, 0.0), (0.5, INF), 1.0)
        with pytest.raises(ValidationError, match="one intercept per agent"):
            statewise_projection((0.0,), (1.0, 1.0), *free, 1.0)

    def test_state_outside_cap_range_is_infeasible(self):
        # the caps admit sums in [-1, 3]
        caps = ((0.0, 0.0), (1.0, 1.0), (-1.0, 0.0), (1.0, 2.0))
        for s in (-1.5, 3.5):
            with pytest.raises(InfeasibleError, match="outside the feasible cap range"):
                statewise_projection(*caps, s)
        for s in (-1.0, 3.0):
            assert statewise_projection(*caps, s)[1].sum() == pytest.approx(s, abs=1e-12)

    @pytest.mark.parametrize("scale", (1.0, 1e9))
    def test_cap_range_follows_the_scale_rule(self, scale):
        # the caps admit sums in [-scale, 3 scale], each end within
        # VALUE_TOL * value_scale(s), the clearing dust _shares drops (1e-7
        # past 1e9 was refused by an absolute 1e-12)
        caps = ((0.0, 0.0), (1.0, 1.0), (-scale, 0.0), (scale, 2.0 * scale))
        tol = VALUE_TOL * scale
        for s in (-scale - 0.5 * tol, 3 * scale + 1.5 * tol):
            assert statewise_projection(*caps, s)[1].sum() == pytest.approx(s, abs=2 * tol)
        for s in (-scale - 10 * tol, 3 * scale + 30 * tol):
            with pytest.raises(InfeasibleError, match="outside the feasible cap range"):
                statewise_projection(*caps, s)

    def test_dust_with_every_agent_at_a_cap(self):
        # past the cap range, the rows every agent is capped in keep a
        # residual: dropped within VALUE_TOL * value_scale(S), a
        # ContractError beyond (statewise_projection refuses such states
        # first, so _shares is called here directly)
        delta, lower, upper = np.ones(2), np.zeros(2), np.array([1.0, 2.0])
        for dust, fails in ((0.5, False), (2.0, True)):
            s = np.array([1.0, 3.0 + dust * 3 * VALUE_TOL])
            agg = mvsolver_module._aggregate(delta, lower, upper, s, np.full(2, 0.5))
            c = np.zeros(2)
            at = mvsolver_module._place(c, agg)
            if fails:
                with pytest.raises(ContractError, match="with every agent at a cap"):
                    mvsolver_module._shares(c, at, agg)
            else:
                x = mvsolver_module._shares(c, at, agg)[1]
                assert x[1].tolist() == [1.0, 2.0]
                assert x[0].sum() == 1.0

    def test_flat_interval_midpoint(self):
        # H is flat at level 4 for eta in [1, 3]; the midpoint is reported
        eta, x = statewise_projection((0.0, 0.0), (1.0, 1.0),
                                      (0.0, 3.0), (1.0, 4.0), 4.0)
        assert eta == pytest.approx(2.0, abs=1e-12)
        assert x == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_clearing_and_kkt(self, rng):
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 5))
            c = rng.normal(size=n)
            delta = rng.uniform(0.2, 3.0, size=n)
            lower = rng.uniform(-2.0, 0.0, size=n)
            upper = rng.uniform(1.0, 3.0, size=n)
            s = float(rng.uniform(lower.sum(), upper.sum()))
            cases.append((c, delta, lower, upper, s))
        # s exactly on a kink level: H is flat at 4 for eta in [1, 3]
        flat = ((0.0, 0.0), (1.0, 1.0), (0.0, 3.0), (1.0, 4.0), 4.0)
        cases.append(flat)
        # below the first kink and above the last, where the agents with an
        # infinite cap on that side carry H
        tails = ((0.0, 0.0, 0.0), (1.0, 2.0, 4.0), (NEG_INF, -1.0, NEG_INF),
                 (INF, 1.0, 2.0))
        cases += [tails + (-10.0,), tails + (20.0,)]
        # clipped shares miss s by float dust, which goes to agent 0
        dust = ((0.1, 0.2), (1.0, 3.0), (NEG_INF, 0.0), (INF, 1.0), 0.1)
        cases.append(dust)

        for c, delta, lower, upper, s in cases:
            c, delta, lower, upper = map(np.asarray, (c, delta, lower, upper))
            eta, x = statewise_projection(c, delta, lower, upper, s)
            assert np.sum(x) == pytest.approx(s, abs=1e-9)
            assert np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9)
            for i in range(len(c)):
                if lower[i] + 1e-7 < x[i] < upper[i] - 1e-7:
                    want = c[i] + eta / delta[i]
                    assert x[i] == pytest.approx(want, abs=1e-6 * (1 + abs(want)))
            ref_eta, ref_x = reference_projection(c, delta, lower, upper, s)
            assert eta == pytest.approx(ref_eta, abs=1e-12)
            assert x == pytest.approx(ref_x, abs=1e-12)

        assert statewise_projection(*flat)[0] == 2.0
        assert statewise_projection(*tails, -10.0)[0] == pytest.approx(
            -2.0 - 6.5 / 1.25, abs=1e-12)
        assert statewise_projection(*tails, 20.0)[0] == pytest.approx(
            8.0 + 9.0, abs=1e-12)
        c, delta, lower, upper, s = dust
        eta, x = statewise_projection(*dust)
        clipped = np.clip(np.array(c) + eta * (1.0 / np.array(delta)), lower, upper)
        assert clipped.sum() != s and x.sum() == s


class TestSolveCappedMV:
    def test_capped_two_agent(self):
        agg = finite_aggregate((0.0, 2.0))
        problem = MVProblem((1.0, 1.0), (NEG_INF,) * 2, (0.5, INF), agg)
        best, report = solve_capped_mv(problem)
        assert best.shares[0].values == pytest.approx((-0.5, 0.5), abs=1e-9)
        assert best.shares[1].values == pytest.approx((0.5, 1.5), abs=1e-9)
        assert report.intercepts == pytest.approx((0.0, 1.0), abs=1e-8)
        assert report.residual <= 1e-10
        assert mv_objective(problem.delta, best) == pytest.approx(1.5, abs=1e-9)

    def test_step_cap_raises_with_last_iterate(self, monkeypatch):
        # the capped problem above needs more than one step from a E[S]
        monkeypatch.setattr(mvsolver_module, "FIXED_POINT_MAX_ITERS", 1)
        agg = finite_aggregate((0.0, 2.0))
        problem = MVProblem((1.0, 1.0), (NEG_INF,) * 2, (0.5, INF), agg)
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            solve_capped_mv(problem)
        assert exc.value.residual > 1e-10
        assert len(exc.value.last_iterate) == 2
        assert all(math.isfinite(c) for c in exc.value.last_iterate)

    def test_uncapped_matches_proportional_rule(self):
        agg = finite_aggregate((0.0, 3.0))
        problem = MVProblem((1.0, 2.0), (NEG_INF,) * 2, (INF,) * 2, agg)
        best, _ = solve_capped_mv(problem)
        # fluctuations split by the proportional slopes (2/3, 1/3)
        for share, slope in zip(best.shares, (2 / 3, 1 / 3)):
            centered = share.values - moments(share)[0]
            want = slope * (agg[1].values - 1.5)
            assert centered == pytest.approx(want, abs=1e-8)
        assert mv_objective(problem.delta, best) == pytest.approx(3.0, abs=1e-9)

    def test_caps_only_bind_when_needed(self, rng):
        # solver value is never better than the uncapped optimum
        for _ in range(20):
            values = np.sort(rng.uniform(0.0, 4.0, size=3))
            agg = finite_aggregate(values, rng.dirichlet(np.ones(3)))
            delta = tuple(rng.uniform(0.5, 2.0, size=2))
            free = MVProblem(delta, (NEG_INF,) * 2, (INF,) * 2, agg)
            capped = MVProblem(delta, (NEG_INF,) * 2,
                               (float(values.max()), INF), agg)
            _, _ = solve_capped_mv(free)
            a_free, _ = solve_capped_mv(free)
            a_capped, _ = solve_capped_mv(capped)
            assert (mv_objective(delta, a_capped)
                    >= mv_objective(delta, a_free) - 1e-9)


    @pytest.mark.parametrize("m", (4, 16))
    @pytest.mark.parametrize("n", (2, 8))
    def test_matches_per_state_iteration(self, m, n):
        # the reported optimum is the limit of the damped iteration from
        # a E[S], run here one state at a time to 1e-14, moved to the optimum
        # nearest a E[S] (where the two differ, the fixed points form a
        # continuum)
        rng = np.random.default_rng(1000 * m + n)
        problems = [MVProblem(tuple(rng.uniform(0.5, 2.0, size=n)), (0.0,) * n,
                              (INF,) + (3.0 / n,) * (n - 1),
                              finite_aggregate(rng.gamma(2.0, 1.0, size=m),
                                               rng.dirichlet(np.ones(m))))
                    for _ in range(3)]
        # 100 more cells of 2-8 agents on 2-6 atoms, and Dirichlet(0.3)
        # trial 53, whose damped iteration takes 2,804 steps
        if (m, n) == (4, 2):
            problems += [mv_capped_problem(rng, int(rng.integers(2, 7)),
                                           int(rng.integers(2, 9)))
                         for _ in range(100)]
            problems.append(dict(dirichlet_problems(7, 54, 0.3, floor=1e-9))[53])
        for problem in problems:
            best, report = solve_capped_mv(problem)
            ref_shares, ref_c = nearest_optimum(problem, *reference_solve(problem))
            shares = np.array([x.values for x in best.shares])
            assert shares == pytest.approx(ref_shares, abs=1e-10)
            assert report.intercepts == pytest.approx(ref_c, abs=1e-10)

    def test_reports_the_optimum_nearest_the_proportional_intercepts(self):
        # problems with a continuum of optima on which Newton steps from
        # a E[S] end 1.6e-4 to 3.0e-2 x max |S| from the nearest one: trials
        # 25, 150 and 342 of a mixed mv-capped set and trial 120 of the
        # sparse Dirichlet set.  The objectives are those of a solve that
        # ended elsewhere on the same continuum.
        rng = np.random.default_rng(1)
        mixed = [mv_capped_problem(rng, int(rng.choice((4, 8, 16))), int(rng.choice((2, 4, 8))))
                 for _ in range(343)]
        sparse = dict(dirichlet_problems(7, 121, 0.3, floor=1e-9))
        cases = ((mixed[25], 3.8350862334353297), (mixed[150], 2.6080751233591575),
                 (mixed[342], 2.4788118468997613), (sparse[120], 2.825245098807644))
        for problem, objective in cases:
            best, report = solve_capped_mv(problem)
            shares = np.array([x.values for x in best.shares])
            c = np.array(report.intercepts)
            _, nearest = nearest_optimum(problem, shares, c)
            scale = float(np.abs(problem.aggregate[1].values).max())
            assert np.max(np.abs(c - nearest)) <= 1e-9 * scale
            assert mv_objective(problem.delta, best) == pytest.approx(objective, rel=1e-12)

    def test_shift_measures_its_dust_by_the_aggregate(self):
        # upper caps summing to max S at scale 1e8: every agent reaches its
        # cap in the top state, so the shift's box has no room above, and
        # its one-state projection keeps the problem's rounding (-1.5e-8).
        # That dust is measured by max |S|, not by the shift's state 0; it
        # was a ContractError
        space, S = finite_aggregate((179977310.10010237, 270133456.78660804,
                                     243515902.15522307, 347489389.07930756,
                                     260760562.59768313))
        upper = np.array([4350762.173411705, 79477550.34052108,
                          79836744.70633402, 183824331.85904077])
        allocation, _ = solve_capped_mv(MVProblem((1.0,) * 4, (0.0,) * 4, tuple(upper),
                                                  (space, S)))
        X = np.array([share.values for share in allocation.shares])
        assert np.max(np.abs(X.sum(axis=0) - S.values)) <= VALUE_TOL * S.values.max()
        assert np.all((X >= 0.0) & (X <= upper[:, None]))

    def test_known_stalls_converge(self):
        # trials on which the damped iteration stopped at its 10^4 step cap
        # with residuals 4.1e-6 and 1.5e-7
        problems = dict(crosscheck_problems(1, 1821))
        for trial in (477, 1820):
            problem = problems[trial]
            best, report = solve_capped_mv(problem)
            assert report.residual < 1e-10
            n = problem.n_agents
            space, S = problem.aggregate
            ranges = tuple(tuple((v - 0.5, v + 0.5, 0.25) for v in best.shares[i].values)
                           for i in range(n - 1))
            objectives = tuple(RiskMeasureSpec.mean_variance(d) for d in problem.delta)
            caps = tuple(Constraint(PathwiseBounds(upper=u), scope=i)
                         for i, u in enumerate(problem.upper) if u < INF)
            _, oracle_value = grid_minimize(space, S, objectives, caps,
                                            GridSpec(ranges=ranges))
            assert mv_objective(problem.delta, best) == pytest.approx(
                oracle_value, abs=1e-6)

    def test_crosscheck_generator_never_raises(self):
        for _, problem in crosscheck_problems(1, 3000):
            _, report = solve_capped_mv(problem)
            assert report.residual < 1e-10

    def test_step_count(self):
        # Newton steps take a handful where the damped iteration alone took
        # 143-254; the residual stays below the absolute 1e-10 of
        # perfbench's mv-capped check, although the solver stops at
        # FIXED_POINT_TOL times the aggregate's scale
        rng = np.random.default_rng(404)
        reports = [solve_capped_mv(mv_capped_problem(rng, m, n))[1]
                   for m in (4, 8, 16) for n in (2, 4, 8) for _ in range(5)]
        assert max(r.iterations for r in reports) <= 50
        assert max(r.residual for r in reports) < 1e-10

    def test_jump_is_the_pinv_jump(self, monkeypatch):
        # at every step of the seeded sets, the direction _newton_step takes
        # over the eigenvalues it keeps is
        # D_w^(1/2) pinv(M) D_w^(-1/2) f = pinv(J) F
        steps = []

        def spy_step(at, f, inv, root):
            d = newton_step(at, f, inv, root)
            steps.append((at.active, at.mass, inv, root, f, d))
            return d

        newton_step = mvsolver_module._newton_step
        monkeypatch.setattr(mvsolver_module, "_newton_step", spy_step)
        rng = np.random.default_rng(404)
        problems = [mv_capped_problem(rng, m, n)
                    for m in (4, 8, 16) for n in (2, 4, 8) for _ in range(5)]
        problems += [problem for _, problem in dirichlet_problems(5, 20, 1.0)]
        problems += [problem for _, problem in dirichlet_problems(7, 60, 0.3, floor=1e-9)]
        for problem in problems:
            solve_capped_mv(problem)
        assert len(steps) > 300
        for active, probs, inv, root, f, d in steps:
            A = active.astype(float)
            load = A @ inv
            weight = np.divide(probs, load, out=np.zeros_like(load), where=load > 0.0)
            M = np.outer(root, root) * ((A.T * weight) @ A) + np.diag(1.0 - probs @ A)
            want = root * (np.linalg.pinv(M, hermitian=True) @ (f / root))
            # two roundings of one solve: rel 1e-12, widened by the condition
            # number of the eigenvalues pinv keeps (up to ~1e7 on sparse masses)
            s = np.abs(np.linalg.eigvalsh(M))
            cond = s.max() / s[s > 1e-15 * s.max()].min()
            assert np.max(np.abs(d - want)) <= (
                1e-12 * np.max(np.abs(want)) + 1e-14 * cond * np.max(np.abs(f)))

    def test_zero_aggregate_stops_on_its_fixed_point(self):
        # the stop is relative to max |S| (test_scaling.py checks c < 1), so
        # with S = 0 it takes an exact fixed point
        for lower, upper in (((NEG_INF,) * 2, (INF,) * 2), ((0.0, 0.0), (INF, 1.0))):
            problem = MVProblem((1.0, 2.0), lower, upper, finite_aggregate((0.0,) * 3))
            _, report = solve_capped_mv(problem)
            assert report.intercepts == (0.0, 0.0)
            assert (report.residual, report.iterations) == (0.0, 1)

    def test_simultaneous_saturation_is_one_breakpoint(self):
        # both agents reach their lower cap 0 at s = 0, at float kinks an ulp
        # or so apart: one breakpoint, not a second one at 0 or 1.1e-16
        agg = finite_aggregate((0.0, 1.0, 2.0))
        for delta in ((0.3, 1.1), (0.1, 0.3)):
            problem = MVProblem(delta, (0.0, 0.0), (INF, INF), agg)
            best, report = solve_capped_mv(problem)
            assert report.breakpoints == pytest.approx((0.0,), abs=1e-15)
            assert report.active_sets == ((), (0, 1))
            assert report.share_at(0, 2.0) == pytest.approx(
                best.shares[0].values[2], abs=1e-12)

    def test_breakpoints_hold_within_the_solve_precision(self):
        # kinks closer than the solve fixes them, FIXED_POINT_TOL * max |S|
        # in the intercepts and so that times max delta in the kinks, are
        # one kink: moving the intercepts by 1e-12 leaves the report's
        # regimes as they are (a relative merge width of 1e-12 split kinks
        # that agents saturating together put ~1e-16 apart)
        problems = dict(dirichlet_problems(7, 114, 0.3, floor=1e-9))
        for trial in (2, 113):
            problem = problems[trial]
            _, report = solve_capped_mv(problem)
            c = np.array(report.intercepts)
            delta, lower, upper = map(np.array, (problem.delta, problem.lower, problem.upper))
            width = (mvsolver_module.FIXED_POINT_TOL
                     * float(np.abs(problem.aggregate[1].values).max()) * delta.max())
            n = c.size
            for signs in (np.ones(n), -np.ones(n), (-1.0) ** np.arange(n),
                          -(-1.0) ** np.arange(n)):
                moved_c = c + 1e-12 * signs
                located = mvsolver_module._locate(moved_c, delta, 1.0 / delta, lower, upper)
                moved = mvsolver_module._report(moved_c, located, 1.0 / delta, lower, upper,
                                                width)
                assert moved.active_sets == report.active_sets
                assert moved.breakpoints == pytest.approx(report.breakpoints, abs=1e-10)


def reference_kinks(c, delta, lower, upper):
    """Every distinct finite kink of H(eta) = sum_i clip(c_i + eta/delta_i,
    L_i, U_i), sorted, and H there, computed as the solver computes them."""
    kinks = np.concatenate((delta * (lower - c), delta * (upper - c)))
    kinks = np.array(sorted({k for k in kinks.tolist() if math.isfinite(k)}))
    responses = np.clip(c + kinks[:, None] * (1.0 / delta), lower, upper)
    return kinks, np.add.reduce(responses, axis=1)


def piece_problems(seed, count):
    """(c, aggregate arrays) for the grouped evaluation: n <= 8 agents,
    m <= 40 states with ties in S, Dirichlet masses, each cap finite or
    infinite, flat stretches of H and states placed on H's kink levels."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 41))
        delta = rng.uniform(0.2, 3.0, size=n)
        base = rng.uniform(-1.0, 0.5, size=n)
        lower = np.where(rng.random(n) < 0.3, NEG_INF, base)
        upper = np.where(rng.random(n) < 0.3, INF, base + rng.uniform(0.1, 2.0, size=n))
        if rng.random() < 0.3:
            # every cap finite: H is flat past both ends
            lower, upper = base, base + rng.uniform(0.1, 2.0, size=n)
        twins = n > 1 and rng.random() < 0.3
        if twins:
            delta[1], lower[1], upper[1] = delta[0], lower[0], upper[0]
        lo_sum, up_sum = max(np.sum(lower), -8.0), min(np.sum(upper), 8.0)
        if rng.random() < 0.5:
            s = rng.uniform(lo_sum, up_sum, size=m)
        else:  # ties
            s = lo_sum + (up_sum - lo_sum) * rng.integers(0, 5, size=m) / 4.0
        c = rng.uniform(-1.0, 1.0, size=n) + float(np.mean(s)) / n
        if twins:
            # agents 0 and 1 saturate together: their kinks are a few ulps
            # apart
            c[1] = c[0] + float(rng.integers(1, 8)) * np.spacing(c[0])
        kinks, levels = reference_kinks(c, delta, lower, upper)
        if kinks.size and rng.random() < 0.5:
            # states on kink levels, flat ones included
            on = rng.random(m) < 0.5
            s[on] = rng.choice(levels, size=int(on.sum()))
        probs = rng.dirichlet(np.full(m, float(rng.choice((0.3, 1.0)))))
        probs = np.maximum(probs, 1e-12)
        probs /= probs.sum()
        yield c, mvsolver_module._aggregate(delta, lower, upper, s, probs)


class TestPieces:
    """The solver's steps read E[X(c)] and the regime from H's pieces."""

    def test_expectation_matches_every_state(self):
        flat = ties = on_level = together = 0
        for c, agg in piece_problems(24, 600):
            at = mvsolver_module._pieces(c, agg)
            x = np.array([reference_projection(c, agg.deltas, agg.lower, agg.upper, s)[1]
                          for s in agg.s])
            want = agg.probs @ x
            assert np.max(np.abs(at.target - want)) <= 1e-14 * np.max(np.abs(agg.s))
            # a state on a kink level of H sits in a run (odd code), or on a
            # flat piece where every agent is capped, and no agent with a
            # kink within RUN_RTOL of that one counts as interior there
            kinks, levels = reference_kinks(c, agg.deltas, agg.lower, agg.upper)
            on = np.isin(agg.s, levels)
            code = at.code[on]
            assert ((code % 2 == 1) | ~at.active[code].any(axis=1)).all()
            k = kinks[levels.searchsorted(agg.s[on])][:, None]
            tol = mvsolver_module.RUN_RTOL * np.abs(k)
            own = ((np.abs(agg.deltas * (agg.lower - c) - k) <= tol)
                   | (np.abs(agg.deltas * (agg.upper - c) - k) <= tol))
            assert not (at.active[code] & own).any()
            together += bool(own.sum(axis=1).max(initial=0) > 1)
            flat += bool(np.isfinite(agg.lower).all() or np.isfinite(agg.upper).all())
            ties += len(set(agg.s.tolist())) < agg.s.size
            on_level += code.size > 0
        assert flat > 50 and ties > 100 and on_level > 100 and together > 20

    def test_shares_match_every_state(self):
        # each state's shares, read off its piece's own form of H, are the
        # one-state reference's (the largest gap was 4.2e-16 of the scale)
        states = 0
        for c, agg in piece_problems(24, 600):
            x = mvsolver_module._shares(c, mvsolver_module._place(c, agg), agg)[1]
            want = np.array([reference_projection(c, agg.deltas, agg.lower, agg.upper, s)[1]
                             for s in agg.s])
            assert np.max(np.abs(x - want)) <= 1e-15 * max(1.0, np.max(np.abs(agg.s)))
            states += agg.s.size
        assert states == 12_258

    @staticmethod
    def check_one_projection(monkeypatch, problem):
        # _pieces runs over the states only at the start, once per step and
        # once per line-search probe; the final shares are read once, from
        # the pieces of the iterate whose residual passed the stop
        pieces, probes, reads = [], [], []

        def spy_pieces(c, agg):
            at = locate(c, agg)
            pieces.append((c.copy(), agg.s.size, at))
            return at

        def spy_search(*args):
            before = len(pieces)
            out = search(*args)
            probes.append(len(pieces) - before)
            return out

        def spy_shares(c, at, agg):
            reads.append((c.copy(), agg.s.size, at))
            return read(c, at, agg)

        locate, search, read = (mvsolver_module._pieces, mvsolver_module._line_search,
                                mvsolver_module._shares)
        monkeypatch.setattr(mvsolver_module, "_pieces", spy_pieces)
        monkeypatch.setattr(mvsolver_module, "_line_search", spy_search)
        monkeypatch.setattr(mvsolver_module, "_shares", spy_shares)
        m = problem.aggregate[1].values.size
        _, report = solve_capped_mv(problem)
        assert report.iterations > 1 and report.searches == len(probes)
        every = [(c, at) for c, size, at in pieces if size == m]
        assert len(every) == report.iterations + sum(probes)
        [(c, at)] = [(c, at) for c, size, at in reads if size == m]
        assert any(got is at and np.array_equal(got_c, c) for got_c, got in every)
        assert np.max(np.abs(at.target - c)) == report.residual
        scale = float(np.abs(problem.aggregate[1].values).max())
        assert report.residual <= mvsolver_module.FIXED_POINT_TOL * scale
        return report

    def test_one_projection_per_solve(self, monkeypatch):
        # m = 10^4: G falls at every whole step, so no line search runs
        problem = mv_capped_problem(np.random.default_rng(24), 10_000, 32)
        assert self.check_one_projection(monkeypatch, problem).searches == 0

    def test_one_projection_per_searching_solve(self, monkeypatch):
        # a Dirichlet(0.3) draw where G rises at six whole steps
        problem = dict(dirichlet_problems(7, 21, 0.3, floor=1e-9))[20]
        assert self.check_one_projection(monkeypatch, problem).searches == 6

    def test_nearest_point_test_allows_the_solve_slack(self, monkeypatch):
        # the single-state shift to the optimum nearest a E[S] runs only
        # where the optimality test fails by more than the solve's slack,
        # not where two agents' gaps differ by rounding (137 shifts here;
        # rounding alone failed the test on 1,889 solves)
        shifts = []

        def spy_place(c, agg):
            shifts.append(agg.s.size == 1)
            return place(c, agg)

        place = mvsolver_module._place
        monkeypatch.setattr(mvsolver_module, "_place", spy_place)
        for _, problem in crosscheck_problems(1, 3000):
            solve_capped_mv(problem)
        assert 100 <= sum(shifts) <= 150

    def test_one_kink_sort_per_location(self, monkeypatch):
        # _locate is the only code that sorts H's kinks.  A solve sorts the
        # problem's kinks once per step and line-search probe, reads its
        # report from the last step's pieces, and sorts them once more for a
        # report at shifted intercepts; the shift's own one-state H adds a
        # sort of its own kinks
        calls, sorts, probes = [], [], []

        def spy_locate(c, deltas, inv, lower, upper):
            calls.append(lower)
            return locate(c, deltas, inv, lower, upper)

        def spy_sorted(values):
            sorts.append(None)
            return sorted(values)

        def spy_search(*args):
            before = len(calls)
            out = search(*args)
            probes.append(len(calls) - before)
            return out

        locate, search = mvsolver_module._locate, mvsolver_module._line_search
        monkeypatch.setattr(mvsolver_module, "_locate", spy_locate)
        monkeypatch.setattr(mvsolver_module, "sorted", spy_sorted, raising=False)
        monkeypatch.setattr(mvsolver_module, "_line_search", spy_search)
        problems = [problem for _, problem in crosscheck_problems(1, 300)]
        problems += [problem for _, problem in dirichlet_problems(7, 60, 0.3, floor=1e-9)]
        shifted = searched = 0
        for problem in problems:
            for spied in (calls, sorts, probes):
                spied.clear()
            _, report = solve_capped_mv(problem)
            own = sum(lower is calls[0] for lower in calls)
            shift = len(calls) - own
            assert shift in (0, 1) and len(sorts) == len(calls)
            assert own == report.iterations + sum(probes) + shift
            shifted += shift
            searched += bool(probes)
        assert shifted > 5 and searched > 5 and shifted < len(problems)

    def test_one_state_reads_no_state_sums(self, monkeypatch):
        # statewise_projection locates its state with no per-state bincount,
        # no E[X] and no per-group active sets
        def refuse(*args, **kwargs):
            raise AssertionError("a one-state projection summed over states")

        monkeypatch.setattr(mvsolver_module, "_pieces", refuse)
        monkeypatch.setattr(np, "bincount", refuse)
        tails = ((0.0, 0.0, 0.0), (1.0, 2.0, 4.0), (NEG_INF, -1.0, NEG_INF), (INF, 1.0, 2.0))
        for s in (-10.0, 0.5, 20.0):
            eta, x = statewise_projection(*tails, s)
            want_eta, want_x = reference_projection(*tails, s)
            assert eta == pytest.approx(want_eta, abs=1e-12)
            assert x == pytest.approx(want_x, abs=1e-12)


def reference_regimes(c, deltas, inv, lower, upper, width=0.0, **fields):
    """RegimeReport of x(s) = clip(c + eta(s)/delta, L, U) by the solver's
    former separate pass: its own sort of the kinks, each chain of kinks
    less than width apart kept at its first, H and the anchors at the kept
    kinks, and each regime's active set probed halfway between kept kinks
    (1 past either end).  Float arrays, or object arrays of Fractions."""
    n = len(deltas)
    kinks = np.concatenate((deltas * (lower - c), deltas * (upper - c)))
    kinks = np.array(sorted({k for k in kinks.tolist() if NEG_INF < k < INF}), dtype=c.dtype)
    responses = np.clip(c + kinks[:, None] * inv, lower, upper)
    if width and kinks.size > 1:
        keep = np.concatenate(([True], kinks[1:] - kinks[:-1] > width))
        kinks, responses = kinks[keep], responses[keep]
    intercepts = tuple(c.tolist())
    weights = inv.tolist()

    def slopes_for(active):
        total = sum(weights[i] for i in active)
        return tuple(w / total if i in active else 0 * w for i, w in enumerate(weights))

    if kinks.size == 0:
        active = tuple(range(n))
        return mvsolver_module.RegimeReport(
            breakpoints=(), active_sets=(active,), slopes=(slopes_for(active),),
            intercepts=intercepts, anchors=((sum(intercepts), intercepts),), **fields)
    probes = np.concatenate(
        ([kinks[0] - 1], (kinks[:-1] + kinks[1:]) / 2, [kinks[-1] + 1]))
    free = c + probes[:, None] * inv
    active_sets = tuple(tuple(i for i, inside in enumerate(row) if inside)
                        for row in ((lower < free) & (free < upper)).tolist())
    breakpoints = tuple(responses.sum(axis=1).tolist())
    return mvsolver_module.RegimeReport(
        breakpoints=breakpoints, active_sets=active_sets,
        slopes=tuple(slopes_for(a) for a in active_sets), intercepts=intercepts,
        anchors=tuple(zip(breakpoints, (tuple(row) for row in responses.tolist()))),
        **fields)


def perfbench_workloads():
    """The benchmark's own workload module."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl


def perfbench_mv_problems(seed, rounds):
    """The benchmark's mv-capped problems of the given rounds, generated by
    its own workload module."""
    wl = perfbench_workloads()
    for r in range(rounds):
        rng = wl.round_rng(seed, r)
        for m in wl.MV_CELLS:
            for n in wl.MV_AGENTS:
                for _ in range(wl.MV_COPIES[m, n]):
                    yield wl.mv_problem(rng, m, n)


# every case of TestSaturationCurve and of criterion 5, a weight that rounds
# to float 0 with no finite kink, and caps 1e-20 apart (exact kinks form no
# runs, however close)
SATURATION_CASES = (((2, 3, 5, 6), (5, 8, 3, INF)), ((1, 1), (1, 1)), ((1, 2), (INF, INF)),
                    ((F(1, 10 ** 400), 1), (1, INF)), ((F(1, 10 ** 400), 1), (INF, INF)),
                    ((1, 1), (1, 1 + F(1, 10 ** 20))))


SOLVER_SETS = {
    "perfbench": lambda: enumerate(perfbench_mv_problems(1, 20)),
    "crosscheck": lambda: crosscheck_problems(1, 3000),
    "dirichlet-one": lambda: dirichlet_problems(5, 100, 1.0),
    "dirichlet-sparse": lambda: dirichlet_problems(7, 200, 0.3, floor=1e-9),
    "dirichlet-large": lambda: dirichlet_problems(13, 8, 0.3, floor=1e-9, atoms=(1000, 4000),
                                                  agents=(4, 8, 16)),
}


class TestReportFromPieces:
    """RegimeReport is read from the located pieces of H: field for field
    the report of the former separate pass, reference_regimes, in float and
    in exact arithmetic (repr tells a Fraction from an equal float)."""

    @pytest.mark.parametrize("name", SOLVER_SETS)
    def test_solver_reports_match_reference(self, name):
        for _, problem in SOLVER_SETS[name]():
            _, report = solve_capped_mv(problem)
            delta, lower, upper = map(np.array, (problem.delta, problem.lower, problem.upper))
            fixed_point_tol = (mvsolver_module.FIXED_POINT_TOL
                               * float(np.abs(problem.aggregate[1].values).max()))
            want = reference_regimes(
                np.array(report.intercepts), delta, 1.0 / delta, lower, upper,
                fixed_point_tol * float(delta.max()), residual=report.residual,
                iterations=report.iterations, searches=report.searches)
            assert repr(report) == repr(want)

    @pytest.mark.parametrize("delta, upper", SATURATION_CASES)
    def test_saturation_curves_match_reference(self, delta, upper):
        report = saturation_curve(delta, upper)
        n = len(delta)
        deltas = np.array([F(d) for d in delta], dtype=object)
        with np.errstate(invalid="ignore"):
            want = reference_regimes(
                np.array([F(0)] * n, dtype=object), deltas, 1 / deltas,
                np.full(n, NEG_INF, dtype=object),
                np.array([u if u == INF else F(u) for u in upper], dtype=object))
        if INF not in upper:
            want = replace(want, terminal_s=sum(F(u) for u in upper))
        assert repr(report) == repr(want)


class TestDirichletMasses:
    """Uneven state masses: regimes whose Newton step lands outside them,
    where damped steps alone crawl at rate 1 - p_min/2 and a line search
    cuts the step short where G does not fall at its end."""

    @staticmethod
    def solve_all(problems):
        reports = {}
        for trial, problem in problems:
            _, report = solve_capped_mv(problem)
            scale = float(np.abs(problem.aggregate[1].values).max())
            assert report.residual <= mvsolver_module.FIXED_POINT_TOL * scale
            assert report.iterations <= 50
            assert report.searches < report.iterations
            reports[trial] = report
        return reports

    def test_dirichlet_one(self):
        reports = self.solve_all(dirichlet_problems(5, 100, 1.0))
        # the line search runs somewhere in the suite
        assert sum(r.searches for r in reports.values()) > 0

    def test_dirichlet_sparse(self):
        reports = self.solve_all(dirichlet_problems(7, 200, 0.3, floor=1e-9))
        assert sum(r.searches for r in reports.values()) > 0

    def test_large_sparse_masses(self):
        # m in {1000, 4000}: each step reads thousands of states
        self.solve_all(dirichlet_problems(13, 8, 0.3, floor=1e-9, atoms=(1000, 4000),
                                          agents=(4, 8, 16)))


def far_cap_problems(seed, count):
    """Caps far out or within S's range, and kinks past the float range:
    m <= 6 atoms with Dirichlet masses, n <= 4 agents, delta = 10^U(-8, 8),
    S uniform on (0, 8) times 10^U(-3, 150), each lower cap -10^U(100, 308)
    or 0 and each upper cap 10^U(100, 308) or within S's range, agent 0's
    upper cap infinite."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        scale = 10.0 ** rng.uniform(-3.0, 150.0)
        agg = finite_aggregate(scale * rng.uniform(0.0, 8.0, size=m), rng.dirichlet(np.ones(m)))
        delta = tuple(10.0 ** rng.uniform(-8.0, 8.0, size=n))
        lower = [-10.0 ** rng.uniform(100.0, 308.0) if rng.random() < 0.5 else 0.0
                 for _ in range(n)]
        upper = [10.0 ** rng.uniform(100.0, 308.0) if rng.random() < 0.5
                 else scale * rng.uniform(0.5, 8.0) for _ in range(n)]
        upper[0] = INF
        yield MVProblem(delta, tuple(lower), tuple(upper), agg)


class TestFarCaps:
    """A cap that never binds costs the solver no precision, however far
    out it lies: eta on each piece of H is read off that piece's own form,
    not between the kinks at its ends."""

    @pytest.mark.parametrize("bound", (1e8, 1e12, 1e17, 1e300))
    def test_stand_in_cap_leaves_the_proportional_rule(self, bound):
        # caps +-bound never bind, so X_2 = S/3 and the objective is
        # E[S] + (2/3) Var(S) = 101/24, as with no caps
        sp, S = finite_aggregate((1.0, 2.0, 3.0, 5.0))
        problem = MVProblem((1.0, 2.0), (NEG_INF, -bound), (INF, bound), (sp, S))
        allocation, _ = solve_capped_mv(problem)
        assert np.max(np.abs(allocation.shares[1].values - S.values / 3)) <= 1e-12
        assert mv_objective(problem.delta, allocation) == pytest.approx(101 / 24, rel=1e-15)

    @pytest.mark.parametrize("bound", (1e9, 1e15))
    def test_stand_in_caps_match_infinite_caps(self, bound):
        rng = np.random.default_rng(33)
        for _ in range(60):
            m, n = int(rng.choice((4, 8, 16))), int(rng.choice((2, 4, 8)))
            problem = mv_capped_problem(rng, m, n)
            far = replace(problem, lower=(-bound,) + problem.lower[1:],
                          upper=(bound,) + problem.upper[1:])
            want, want_report = solve_capped_mv(problem)
            got, report = solve_capped_mv(far)
            scale = float(np.abs(problem.aggregate[1].values).max())
            for x, y in zip(got.shares, want.shares):
                assert np.max(np.abs(x.values - y.values)) <= 1e-12 * scale
            assert (report.iterations, report.searches) == (want_report.iterations,
                                                            want_report.searches)

    def test_far_cap_sweep(self):
        for problem in far_cap_problems(1, 300):
            allocation, report = solve_capped_mv(problem)
            S = problem.aggregate[1].values
            X = np.array([x.values for x in allocation.shares])
            top = float(np.abs(S).max())
            assert np.max(np.abs(X.sum(axis=0) - S)) <= VALUE_TOL * value_scale(S)
            assert report.residual <= mvsolver_module.FIXED_POINT_TOL * top
            mean = X @ problem.aggregate[0].probs
            assert np.max(np.abs(mean - report.intercepts)) <= (
                mvsolver_module.FIXED_POINT_TOL * top)
            assert (X >= np.array(problem.lower)[:, None]).all()
            assert (X <= np.array(problem.upper)[:, None]).all()


class TestWholeSteps:
    """The solver keeps the whole Newton step c + d wherever the potential
    G(c) = E[sum_i delta_i (x_i(c, S) - c_i)^2] falls there, and runs the
    exact line search only where it does not."""

    def test_few_searches_on_the_benchmark_problems(self):
        # 464 line searches over these 500 solves when every step on which
        # G rose before its end was searched
        reports = [solve_capped_mv(problem)[1] for _, problem in SOLVER_SETS["perfbench"]()]
        assert sum(r.searches for r in reports) <= 50
        assert max(r.iterations for r in reports) <= 12

    def test_stretch_solves_keep_every_whole_step(self):
        # the benchmark's m = 10^4, n = 32 problems: two searches each before
        wl = perfbench_workloads()
        for seed in (1, 2, 3):
            _, report = solve_capped_mv(wl.mv_problem(np.random.default_rng(seed), *wl.MV_STRETCH))
            assert report.searches == 0

    def test_every_step_lowers_the_potential(self, monkeypatch):
        # G summed state by state, from each state's own shares, at every
        # accepted iterate: the iterates whose pieces a Newton step starts
        # from, and the one whose pieces the final shares are read from.  A
        # step from a residual above 1e-8 * max |S| lowers G by more than
        # its rounding (by 6e-14 relative at least here); the last steps,
        # from just above the stop, move G by less than that
        pieces, starts, finals = {}, [], []

        def spy_pieces(c, agg):
            at = locate(c, agg)
            pieces[id(at)] = (c.copy(), at)
            return at

        def spy_step(at, *args):
            starts.append(pieces[id(at)][0])
            return step(at, *args)

        def spy_shares(c, at, agg):
            finals.append(c.copy())
            return read(c, at, agg)

        locate, step, read = (mvsolver_module._pieces, mvsolver_module._newton_step,
                              mvsolver_module._shares)
        monkeypatch.setattr(mvsolver_module, "_pieces", spy_pieces)
        monkeypatch.setattr(mvsolver_module, "_newton_step", spy_step)
        monkeypatch.setattr(mvsolver_module, "_shares", spy_shares)

        def potential(agg, c):
            x = read(c, mvsolver_module._place(c, agg), agg)[1]
            return float(agg.probs @ ((x - c) ** 2 @ agg.deltas)), float(
                np.max(np.abs(agg.probs @ x - c)))

        problems = [problem for _, problem in dirichlet_problems(5, 100, 1.0)]
        problems += [problem for _, problem in dirichlet_problems(7, 200, 0.3, floor=1e-9)]
        problems += list(far_cap_problems(1, 300))
        falls = 0
        for problem in problems:
            for spied in (pieces, starts, finals):
                spied.clear()
            solve_capped_mv(problem)
            space, S = problem.aggregate
            agg = mvsolver_module._aggregate(
                *map(np.array, (problem.delta, problem.lower, problem.upper)),
                S.values, space.probs)
            top = float(np.abs(S.values).max())
            with np.errstate(over="ignore"):
                trail = [potential(agg, c) for c in starts + finals[:1]]
            for (before, residual), (after, _) in zip(trail, trail[1:]):
                if residual > 1e-8 * top:
                    assert after < before
                    falls += 1
                else:
                    assert after <= before * (1.0 + 4.0 * sys.float_info.epsilon)
        assert falls > 1000

    def test_a_stalled_solve_stops_within_the_step_budget(self, monkeypatch):
        # steps that never move: ConvergenceError after FIXED_POINT_MAX_ITERS
        # of them, one _pieces each, in well under a second
        calls = []

        def spy_pieces(c, agg):
            calls.append(None)
            return locate(c, agg)

        locate = mvsolver_module._pieces
        monkeypatch.setattr(mvsolver_module, "_pieces", spy_pieces)
        monkeypatch.setattr(mvsolver_module, "_newton_step", lambda at, f, inv, root: 0.0 * f)
        problem = dict(dirichlet_problems(7, 21, 0.3, floor=1e-9))[20]
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_capped_mv(problem)
        assert len(calls) == mvsolver_module.FIXED_POINT_MAX_ITERS + 1 <= 101


class TestSaturationCurve:
    def test_three_breakpoint_curve_exact(self):
        report = saturation_curve((2, 3, 5, 6), (5, 8, 3, INF))
        assert report.breakpoints == (F(12), F(31, 2), F(20))
        assert report.terminal_s is None
        assert report.anchors == (
            (F(12), (F(5), F(10, 3), F(2), F(5, 3))),
            (F(31, 2), (F(5), F(5), F(3), F(5, 2))),
            (F(20), (F(5), F(8), F(3), F(4))),
        )
        assert report.slopes == (
            (F(5, 12), F(5, 18), F(1, 6), F(5, 36)),
            (F(0), F(10, 21), F(2, 7), F(5, 21)),
            (F(0), F(2, 3), F(0), F(1, 3)),
            (F(0), F(0), F(0), F(1)),
        )

    def test_share_at_exact(self):
        report = saturation_curve((2, 3, 5, 6), (5, 8, 3, INF))
        assert report.share_at(0, F(12)) == F(5)
        assert report.share_at(1, F(12)) == F(10, 3)
        assert report.share_at(1, F(31, 2)) == F(5)
        assert report.share_at(1, F(14)) == F(30, 7)  # interpolated regime 2
        assert report.share_at(3, F(20)) == F(4)
        assert report.share_at(3, F(51, 2)) == F(19, 2)
        # below the first breakpoint the curve is the proportional rule
        assert report.share_at(0, F(6)) == F(5, 2)

    def test_shares_clear_everywhere(self):
        report = saturation_curve((2, 3, 5, 6), (5, 8, 3, INF))
        for s in (F(1), F(12), F(14), F(31, 2), F(18), F(20), F(40)):
            total = sum(report.share_at(i, s) for i in range(4))
            assert total == s

    def test_simultaneous_saturation(self):
        report = saturation_curve((1, 1), (1, 1))
        assert report.breakpoints == (F(2),)
        assert report.terminal_s == F(2)
        assert report.share_at(0, F(1)) == F(1, 2)
        assert report.share_at(0, F(2)) == F(1)
        assert report.share_at(0, F(3)) == F(1)  # saturated curve stays flat

    def test_no_kink_anchor_is_exact(self):
        report = saturation_curve((1, 2), (INF, INF))
        assert report.breakpoints == () and report.terminal_s is None
        ((s0, shares0),) = report.anchors
        assert type(s0) is F and s0 == 0
        assert shares0 == (F(0), F(0)) and all(type(x) is F for x in shares0)
        assert report.slopes == ((F(2, 3), F(1, 3)),)
        assert report.share_at(1, F(2)) == F(2, 3)

    def test_rational_below_float_range(self):
        # a weight that rounds to float 0 still has its one finite kink
        tiny = F(1, 10 ** 400)
        report = saturation_curve((tiny, 1), (1, INF))
        assert report.breakpoints == (1 + tiny,)
        assert report.active_sets == ((0, 1), (1,))

    def test_validation(self):
        with pytest.raises(ValidationError, match="must be finite"):
            saturation_curve((1.0, math.nan), (1, 1))
        with pytest.raises(ValidationError, match="must be finite"):
            saturation_curve((1, 1), (1, 10 ** 400))
        for cap in (0, -1):
            with pytest.raises(ValidationError, match="every cap must be positive"):
                saturation_curve((1, 1), (cap, 2))


def reference_two_agent_fixed_point(a, C, S):
    """The fixed-point interval scan with its separate strict-sign-change and
    plateau branches."""
    a, C = float(a), float(C)
    dist = distribution_of(S)
    values = np.array([v for v, _ in dist])
    probs = np.array([p for _, p in dist])
    mean_term = a * float(values @ probs)

    def residual(beta):
        return float(np.clip(a * values + beta, 0.0, C) @ probs) - mean_term - beta

    kinks = sorted({-a * v for v in values} | {C - a * v for v in values})
    r_vals = [residual(k) for k in kinks]
    tol = 1e-12 * max(1.0, *np.abs(values))
    if all(r > tol for r in r_vals):
        beta = kinks[-1] + r_vals[-1]
        return beta, beta
    if all(r < -tol for r in r_vals):
        beta = kinks[0] + r_vals[0]
        return beta, beta
    j0 = next(i for i, r in enumerate(r_vals) if r <= tol)
    if r_vals[j0] < -tol:
        if j0 == 0:
            beta = kinks[0] + r_vals[0]
        else:
            r_a, r_b = r_vals[j0 - 1], r_vals[j0]
            k_a, k_b = kinks[j0 - 1], kinks[j0]
            beta = k_a + r_a * (k_b - k_a) / (r_a - r_b)
        return beta, beta
    if j0 == 0:
        beta_minus = kinks[0] + r_vals[0]
    else:
        r_a = r_vals[j0 - 1]
        k_a, k_b = kinks[j0 - 1], kinks[j0]
        r_b = r_vals[j0]
        if r_a > tol:
            beta_minus = k_a + r_a * (k_b - k_a) / (r_a - r_b) if r_a != r_b else k_b
        else:
            beta_minus = k_a
    j1 = j0
    while j1 + 1 < len(kinks) and r_vals[j1 + 1] >= -tol:
        j1 += 1
    if j1 == len(kinks) - 1:
        beta_plus = kinks[-1] + r_vals[-1]
    else:
        r_a, r_b = r_vals[j1], r_vals[j1 + 1]
        k_a, k_b = kinks[j1], kinks[j1 + 1]
        beta_plus = k_a + r_a * (k_b - k_a) / (r_a - r_b)
    return beta_minus, beta_plus


class TestTwoAgentFixedPoint:
    def test_point_solution(self):
        _, S = finite_aggregate((0.0, 10.0))
        lo, hi = two_agent_fixed_point(0.5, 3.0, S)
        assert lo == pytest.approx(-1.0, abs=1e-10)
        assert hi == pytest.approx(-1.0, abs=1e-10)
        assert type(lo) is float and type(hi) is float

    def test_flat_interval(self):
        # every beta in [-0.1, 9.8] is a fixed point
        _, S = finite_aggregate((1.0, 2.0))
        lo, hi = two_agent_fixed_point(0.1, 10.0, S)
        assert lo == pytest.approx(-0.1, abs=1e-10)
        assert hi == pytest.approx(9.8, abs=1e-10)

    def test_endpoints_solve_residual(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            _, S = finite_aggregate(
                np.sort(rng.uniform(0.0, 8.0, size=n)), rng.dirichlet(np.ones(n)))
            a = float(rng.uniform(0.05, 0.95))
            C = float(rng.uniform(0.5, 6.0))
            lo, hi = two_agent_fixed_point(a, C, S)
            assert lo <= hi + 1e-12
            probs, values = S.space.probs, S.values

            def residual(beta):
                clipped = np.clip(a * values + beta, 0.0, C)
                return float(clipped @ probs) - a * float(values @ probs) - beta

            for beta in (lo, hi, 0.5 * (lo + hi)):
                assert abs(residual(beta)) <= 1e-10
            # strictly outside, the residual keeps one sign each side
            assert residual(lo - 0.5) >= -1e-12
            assert residual(hi + 0.5) <= 1e-12

    def test_matches_reference(self):
        # the capped solver's reading agrees with the branchy scan to well
        # within the solve's stop, and both tell point solutions from
        # plateaus alike
        rng = np.random.default_rng(30_000)
        intervals = points = 0
        for _ in range(3000):
            m = int(rng.integers(1, 7))
            values = rng.integers(0, 9, size=m) * 0.5
            if rng.random() < 0.5:
                values = rng.uniform(0.0, 8.0, size=m)
            _, S = finite_aggregate(values, rng.dirichlet(np.ones(m)))
            a = float(rng.uniform(0.05, 0.95))
            C = float(rng.choice((0.5, 2.0, 10.0))) * float(rng.uniform(0.5, 1.5))
            got = two_agent_fixed_point(a, C, S)
            want = reference_two_agent_fixed_point(a, C, S)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-11 * value_scale(values)
            assert (got[0] < got[1]) == (want[0] < want[1])
            intervals += got[0] < got[1]
            points += got[0] == got[1]
        assert intervals > 500 and points > 500

    def test_solver_reports_the_fixed_point_nearest_zero(self):
        # agent 0 uncapped and agent 1 in [0, C]: c_1 = E[X_1] makes
        # beta = c_1 - a_1 E[S] a root of the two-agent map, and c nearest
        # a E[S] (c_0 + c_1 = E[S]) takes beta nearest 0 in [beta_-, beta_+]
        rng = np.random.default_rng(708)
        wide = 0
        for _ in range(500):
            m = int(rng.integers(2, 9))
            space, S = finite_aggregate(rng.uniform(0.0, 8.0, size=m), rng.dirichlet(np.ones(m)))
            delta = tuple(rng.uniform(0.3, 3.0, size=2))
            C = float(rng.uniform(0.5, 10.0))
            _, report = solve_capped_mv(MVProblem(delta, (NEG_INF, 0.0), (INF, C), (space, S)))
            a = unconstrained_shares(delta)[1]
            lo, hi = two_agent_fixed_point(a, C, S)
            beta = report.intercepts[1] - a * float(S.values @ space.probs)
            assert beta == pytest.approx(min(max(0.0, lo), hi), abs=1e-10)
            wide += hi - lo > 1e-9
        assert wide > 300

    def test_domain(self):
        _, S = finite_aggregate((0.0, 1.0))
        with pytest.raises(DomainError):
            two_agent_fixed_point(0.0, 1.0, S)
        with pytest.raises(DomainError):
            two_agent_fixed_point(1.0, 1.0, S)
        with pytest.raises(DomainError):
            two_agent_fixed_point(0.5, 0.0, S)
        # S must be a RandomVariable, not its values
        with pytest.raises(ValidationError):
            two_agent_fixed_point(0.3, 1.0, [1, 2, 3])


class TestVarScenario:
    def test_frozen_parameters(self, gamma_scenario):
        report, _ = gamma_scenario
        assert report.delta == (0.01, 1.0)
        assert report.var_level == 0.95 and report.ceiling == 3.0
        assert report.q == pytest.approx(
            gamma_quantile(GammaAggregate(), 0.95), abs=1e-9)
        assert report.q == pytest.approx(4.743864518390577, abs=1e-6)
        assert report.lam == pytest.approx(1.0 / 101.0, abs=1e-15)

    def test_objective_ladder(self, gamma_scenario):
        report, _ = gamma_scenario
        assert report.unconstrained == pytest.approx(
            2.0 + 2.0 / 101.0, abs=1e-12)
        assert report.constrained == pytest.approx(2.051689052803553, abs=1e-6)
        assert report.comonotone_restricted == pytest.approx(
            2.0972246524221503, abs=1e-6)
        assert report.autarky == 3.01
        assert (report.unconstrained < report.constrained
                < report.comonotone_restricted < report.autarky)

    def test_optimal_rule_parameters(self, gamma_scenario):
        report, _ = gamma_scenario
        assert report.m_star == pytest.approx(0.6336702536442997, abs=1e-6)
        assert report.a == pytest.approx(0.6400069561807428, abs=1e-6)
        assert report.r == pytest.approx(3.670006956180743, abs=1e-6)

    def test_jump_witness(self, gamma_scenario):
        report, _ = gamma_scenario
        assert report.jump_agent1 == pytest.approx(-report.jump_agent2, abs=1e-9)
        assert abs(report.jump_agent2) == pytest.approx(1.0632253091186, abs=1e-6)
        (s_lo, s_hi), x1, x2 = report.witness
        assert s_lo < report.q < s_hi
        assert x1[0] + x2[0] == pytest.approx(s_lo, abs=1e-9)
        assert x1[1] + x2[1] == pytest.approx(s_hi, abs=1e-9)
        # agent 2 drops across q while S rises: not comonotone
        assert x2[1] < x2[0]

    def test_comonotone_family(self, gamma_scenario):
        report, _ = gamma_scenario
        s_c, k1, k2 = report.com_params
        s0 = s_c - report.ceiling / k1
        grid = np.linspace(0.0, 12.0, 241)
        g, rest = report.comonotone_shares(grid)
        assert np.all(np.diff(g) >= -1e-12)
        assert np.all(np.diff(rest) >= -1e-12)
        assert g[grid <= s0].max(initial=0.0) == 0.0
        assert np.allclose(g + rest, grid, atol=1e-12)
        g_at = report.comonotone_shares(np.array([s_c, report.q]))[0]
        assert g_at == pytest.approx((report.ceiling, report.ceiling), abs=1e-9)

    def test_curves_carry_the_reported_objectives(self, gamma_scenario):
        # each share curve is the rule whose objective the report gives:
        # E[X_1 + X_2] + delta_1 Var X_1 + delta_2 Var X_2 under Gamma(2,1),
        # summed on a grid of step 1e-4 (off by 7e-7 at most)
        report, _ = gamma_scenario
        s = np.linspace(0.0, 60.0, 600_001)
        p = s * np.exp(-s)
        p /= p.sum()

        def value(x1, x2):
            return (p @ (x1 + x2) + report.delta[0] * (p @ x1 ** 2 - (p @ x1) ** 2)
                    + report.delta[1] * (p @ x2 ** 2 - (p @ x2) ** 2))

        assert value(*report.constrained_shares(s)) == pytest.approx(
            report.constrained, abs=1e-5)
        assert value(*report.comonotone_shares(s)) == pytest.approx(
            report.comonotone_restricted, abs=1e-5)

    def test_bounded_minimizer_matches_scipy(self):
        """The private bounded minimizer repeats scipy's
        minimize_scalar(method="bounded") bit for bit, also when it stops at
        the call cap."""
        rng = np.random.default_rng(20261019)
        for case in range(1500):
            lo = float(rng.normal(scale=3.0))
            hi = lo + float(rng.exponential(3.0))
            c = float(rng.uniform(lo - 1.0, hi + 1.0))
            w = float(rng.exponential())
            family = case % 4
            if family == 0:
                def f(x, c=c, w=w):
                    return (x - c) ** 2 + w
            elif family == 1:
                def f(x, c=c, w=w):
                    return abs(x - c) ** 1.5 - w * x
            elif family == 2:  # several local minima
                def f(x, k=float(rng.uniform(0.5, 10.0)), w=w):
                    return math.cos(k * x) + w * x * x
            else:  # var_scenario's own objective, at a random intercept
                def f(m, s=float(rng.uniform(4.0, 5.0))):
                    pieces = mvsolver_module._four_regime_pieces(m, 1 / 101, s, 3.0)
                    var_f, var_rest = mvsolver_module._variance_pair(pieces)
                    return 2.0 + 0.01 * var_rest + var_f
                lo, hi = 1e-9, float(rng.uniform(0.5, 1.5))
            xatol = float(rng.choice((1e-3, 1e-5, 1e-8, 1e-10)))
            maxfun = 500 if case % 5 else int(rng.integers(1, 12))
            want = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                            options={"xatol": xatol, "maxiter": maxfun})
            got = mvsolver_module._minimize_bounded(f, lo, hi, xatol, maxfun)
            assert got == (want.x, want.fun)


NAN = math.nan
AGG = finite_aggregate((0.0, 2.0))


@pytest.mark.parametrize("call, error", (
    (lambda: RiskMeasureSpec.mean_variance(NAN), ValidationError),
    (lambda: RiskMeasureSpec.mean_variance(INF), ValidationError),
    (lambda: mean_variance(AGG[1], NAN), DomainError),
    (lambda: mean_variance(AGG[1], INF), DomainError),
    (lambda: expected_convex_loss(AGG[1], (0.5, 1.5, NAN, 1.0)), ValidationError),
    (lambda: expected_convex_loss(AGG[1], (0.5, INF, 0.0, 1.0)), ValidationError),
    (lambda: OrliczBound((0.5, 1.5, NAN, 1.0), 1.0), ValidationError),
    (lambda: OrliczBound((0.5, 1.5, 0.0, INF), 1.0), ValidationError),
    (lambda: MVProblem((1.0, 1.0), (NAN, NEG_INF), (INF,) * 2, AGG), ValidationError),
    (lambda: solve_capped_mv(MVProblem((1.0, 1.0), (NEG_INF,) * 2, (NAN, INF), AGG)),
     ValidationError),
    (lambda: statewise_projection((0.0, 0.0), (1.0, 1.0), (NEG_INF,) * 2, (INF, NAN),
                                  1.0), ValidationError),
    (lambda: statewise_projection((0.0, 0.0), (1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2,
                                  NAN), ValidationError),
    (lambda: statewise_projection((0.0, 0.0), (1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2,
                                  INF), ValidationError),
    (lambda: statewise_projection((NAN, 0.0), (1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2,
                                  1.0), ValidationError),
    (lambda: statewise_projection((0.0, -INF), (1.0, 1.0), (NEG_INF,) * 2, (INF,) * 2,
                                  1.0), ValidationError),
    (lambda: two_agent_fixed_point(0.5, NAN, AGG[1]), DomainError),
    (lambda: two_agent_fixed_point(0.5, INF, AGG[1]), DomainError),
    # weights whose reciprocal overflows
    (lambda: unconstrained_shares((1e-320, 1.0)), DomainError),
    (lambda: MVProblem((1e-320, 1.0), (NEG_INF,) * 2, (INF,) * 2, AGG), DomainError),
    (lambda: statewise_projection((0.0, 0.0), (1.0, 5e-324), (NEG_INF,) * 2, (INF,) * 2,
                                  1.0), DomainError),
    # weights whose reciprocal is subnormal: unchecked, the capped solve
    # warned of an invalid value and raised ConvergenceError
    (lambda: unconstrained_shares((1.7976931348623157e308, 1.0)), DomainError),
    (lambda: MVProblem((1.7976931348623157e308, 1.0), (0.0, 0.0), (INF, 1.0),
                       finite_aggregate((0.5, 1.0, 2.0))), DomainError),
    (lambda: statewise_projection((0.0, 0.0), (1.0, 1e308), (NEG_INF,) * 2, (INF,) * 2,
                                  1.0), DomainError),
    # an int or Fraction that float() cannot convert: each raised a bare
    # OverflowError
    (lambda: MVProblem((10 ** 400, 1.0), (0, 0), (INF, 1), AGG), DomainError),
    (lambda: MVProblem((1.0, 1.0), (-10 ** 400, 0), (INF, 1), AGG), DomainError),
    (lambda: MVProblem((1.0, 1.0), (0, 0), (INF, F(10 ** 400)), AGG), DomainError),
    (lambda: unconstrained_shares((10 ** 400, 1.0)), DomainError),
    (lambda: two_agent_fixed_point(0.5, 10 ** 400, AGG[1]), DomainError),
    (lambda: statewise_projection((10 ** 400, 0), (1, 1), (NEG_INF,) * 2, (INF,) * 2,
                                  1.0), DomainError),
    (lambda: statewise_projection((0, 0), (1, 1), (NEG_INF,) * 2, (INF,) * 2,
                                  10 ** 400), DomainError),
), ids=("spec-delta-nan", "spec-delta-inf", "mean-variance-nan", "mean-variance-inf",
        "ladder-nan", "ladder-inf", "orlicz-nan", "orlicz-inf", "mv-problem-cap-nan",
        "solve-cap-nan", "projection-cap-nan", "projection-state-nan",
        "projection-state-inf", "projection-intercept-nan", "projection-intercept-inf",
        "fixed-point-cap-nan",
        "fixed-point-cap-inf", "proportional-reciprocal-inf", "mv-problem-reciprocal-inf",
        "projection-reciprocal-inf", "proportional-reciprocal-subnormal",
        "mv-problem-reciprocal-subnormal", "projection-reciprocal-subnormal",
        "mv-problem-weight-past-float", "mv-problem-lower-past-float",
        "mv-problem-upper-past-float", "proportional-weight-past-float",
        "fixed-point-cap-past-float", "projection-intercept-past-float",
        "projection-state-past-float"))
def test_non_finite_parameters_are_rejected(call, error):
    # unchecked, each answered nan or stalled; an infinite cap stays legal
    # (TestStatewiseProjection.test_interior)
    with pytest.raises(error):
        call()

