"""Capped mean-variance solver, saturation curves, and the VaR scenario."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

import coshare.mvsolver as mvsolver_module
from coshare import (
    Constraint,
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

    def test_floats(self):
        a = unconstrained_shares((0.5, 1.0))
        assert a == pytest.approx((2 / 3, 1 / 3), abs=1e-15)


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
        dust = ((0.1, 0.1), (1.0, 3.0), (NEG_INF, 0.0), (INF, 1.0), 0.3)
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
        # the reported intercepts are the limit of the damped iteration from
        # a E[S], run here one state at a time to 1e-14
        rng = np.random.default_rng(1000 * m + n)
        problems = [MVProblem(tuple(rng.uniform(0.5, 2.0, size=n)), (0.0,) * n,
                              (INF,) + (3.0 / n,) * (n - 1),
                              finite_aggregate(rng.gamma(2.0, 1.0, size=m),
                                               rng.dirichlet(np.ones(m))))
                    for _ in range(3)]
        # 100 more cells of 2-8 agents on 2-6 atoms
        if (m, n) == (4, 2):
            problems += [mv_capped_problem(rng, int(rng.integers(2, 7)),
                                           int(rng.integers(2, 9)))
                         for _ in range(100)]
        for problem in problems:
            best, report = solve_capped_mv(problem)
            ref_shares, ref_c = reference_solve(problem)
            shares = np.array([x.values for x in best.shares])
            assert shares == pytest.approx(ref_shares, abs=1e-10)
            assert report.intercepts == pytest.approx(ref_c, abs=1e-10)

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
        # the regime jumps take a handful of steps where the damped
        # iteration alone took 143-254; the residual stays below the
        # absolute 1e-10 of perfbench's mv-capped check, although the
        # solver stops at FIXED_POINT_TOL times the aggregate's scale
        rng = np.random.default_rng(404)
        reports = [solve_capped_mv(mv_capped_problem(rng, m, n))[1]
                   for m in (4, 8, 16) for n in (2, 4, 8) for _ in range(5)]
        assert max(r.iterations for r in reports) <= 50
        assert max(r.residual for r in reports) < 1e-10

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
        # bitwise equal to the branchy scan, point solutions and plateaus alike
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
            assert got == reference_two_agent_fixed_point(a, C, S)
            intervals += got[0] < got[1]
            points += got[0] == got[1]
        assert intervals > 500 and points > 500

    def test_domain(self):
        _, S = finite_aggregate((0.0, 1.0))
        with pytest.raises(DomainError):
            two_agent_fixed_point(0.0, 1.0, S)
        with pytest.raises(DomainError):
            two_agent_fixed_point(1.0, 1.0, S)
        with pytest.raises(DomainError):
            two_agent_fixed_point(0.5, 0.0, S)


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
                    _, _, pieces = mvsolver_module._four_regime_pieces(m, 1 / 101, s, 3.0)
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
    (lambda: two_agent_fixed_point(0.5, NAN, AGG[1]), DomainError),
    (lambda: two_agent_fixed_point(0.5, INF, AGG[1]), DomainError),
), ids=("spec-delta-nan", "spec-delta-inf", "mean-variance-nan", "mean-variance-inf",
        "ladder-nan", "ladder-inf", "orlicz-nan", "orlicz-inf", "mv-problem-cap-nan",
        "solve-cap-nan", "projection-cap-nan", "fixed-point-cap-nan",
        "fixed-point-cap-inf"))
def test_non_finite_parameters_are_rejected(call, error):
    # unchecked, each answered nan or stalled; an infinite cap stays legal
    # (TestStatewiseProjection.test_interior)
    with pytest.raises(error):
        call()
