"""Constraint grammar, feasibility reports, and solidity classification."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from coshare import (
    AggregateEnvelope,
    Allocation,
    Constraint,
    ContractError,
    ExpectationConstraint,
    FiniteSpace,
    IdiosyncraticRetention,
    OrliczBound,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskFloor,
    RiskMeasureSpec,
    Solidity,
    ValidationError,
    Violation,
    check_clearing,
    check_feasible,
    classify_constraint,
    classify_solidity,
    convex_order_leq,
    es,
    evaluate,
    expected_convex_loss,
    falsify_solidity,
    moments,
    var,
)
import coshare.constraints as constraints_module
from coshare.probspace import VALUE_TOL, value_scale
from coshare.constraints import (FALSIFY_CHAIN_LIMIT, _check_envelope_coverage, _moves,
                                 _pl_eval, _transfer_witness, feasible_mask)


def alloc(probs, *share_rows, aggregate=None):
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    shares = tuple(RandomVariable(sp, row) for row in share_rows)
    agg = RandomVariable(sp, aggregate) if aggregate is not None else None
    return Allocation(sp, shares, aggregate=agg)


class TestDescriptors:
    def test_pathwise_bounds(self):
        box = PathwiseBounds()
        assert box.lower == -math.inf and box.upper == math.inf
        with pytest.raises(ValidationError):
            PathwiseBounds(lower=1.0, upper=0.0)
        with pytest.raises(ValidationError):
            PathwiseBounds(lower=math.nan)

    def test_expectation(self):
        with pytest.raises(ValidationError):
            ExpectationConstraint("<", 1.0)
        with pytest.raises(ValidationError):
            ExpectationConstraint("<=", math.inf)

    def test_orlicz(self):
        with pytest.raises(ValidationError):
            OrliczBound((2.0, 1.0, 0.0, 1.0), 5.0)  # alpha > beta
        with pytest.raises(ValidationError):
            OrliczBound((0.5, 1.0, 0.0, 1.0), math.inf)

    def test_risk_ceiling_floor(self):
        spec = RiskMeasureSpec.es(0.9)
        with pytest.raises(ValidationError):
            RiskCeiling("es", 1.0)
        with pytest.raises(ValidationError):
            RiskCeiling(spec, math.inf)
        with pytest.raises(ValidationError):
            RiskFloor(spec, -math.inf)

    def test_retention(self):
        sp = FiniteSpace.uniform(2)
        zeta = RandomVariable(sp, (0.0, 1.0))
        with pytest.raises(ValidationError):
            IdiosyncraticRetention((0.0, 1.0), 1.0)
        with pytest.raises(ValidationError):
            IdiosyncraticRetention(zeta, math.inf)

    def test_envelope(self):
        with pytest.raises(ValidationError):
            AggregateEnvelope((), ((0.0, 1.0),))
        with pytest.raises(ValidationError):
            AggregateEnvelope(((0.0, 0.0), (0.0, 1.0)), ((0.0, 2.0),))
        with pytest.raises(ValidationError):
            AggregateEnvelope(((0.0, math.inf),), ((0.0, 1.0),))
        with pytest.raises(ValidationError):
            AggregateEnvelope(((0.0, 2.0), (1.0, 2.0)), ((0.0, 1.0), (1.0, 3.0)))

    def test_pinned_envelope_within_rounding(self):
        # upper = lower plus one breakpoint on the same segment: lower,
        # interpolated there, exceeds it by 1.2e-7 from rounding alone
        lower = ((40973523.93619469, 16527635.528529095),
                 (269786713.7638703, 813270239.2002723))
        upper = (lower[0], (230935255.05489585, 677986900.020629), lower[1])
        assert AggregateEnvelope(lower, upper).upper == upper
        # a real crossing at that scale is still refused
        crossed = (lower[0], (230935255.05489585, 677986800.0), lower[1])
        with pytest.raises(ValidationError, match="lower envelope exceeds upper"):
            AggregateEnvelope(lower, crossed)
        with pytest.raises(ValidationError, match="lower envelope exceeds upper"):
            AggregateEnvelope(((0.0, 0.0), (1.0, 1e-6)), ((0.0, 0.0), (1.0, 0.0)))

    def test_envelope_at_the_float_maximum(self):
        # the upper value plus its rounding allowance passes the float range:
        # no crossing, and no overflow warning
        top = 1.7976931348623157e308
        upper = ((1.0, top), (3.0, 3.5))
        assert AggregateEnvelope(((1.0, -0.25), (3.0, 0.0)), upper).upper == upper
        with pytest.raises(ValidationError, match="lower envelope exceeds upper"):
            AggregateEnvelope(((1.0, top), (3.0, 0.0)), ((1.0, 0.0), (3.0, top)))

    def test_envelope_slope_in_the_reason(self):
        # a slope within 1e-9 of a fraction of denominator <= 10^6 prints as
        # that fraction (sqrt 2 as its convergent 665857/470832), any other
        # to six digits
        lower = ((0.0, -10.0), (2.0, -10.0))
        for slope, text in ((3.0 / 2.0, "3/2"), (math.sqrt(2.0), "665857/470832"),
                            (1.5 + 1e-7, "1.5"), (2.0, "2")):
            upper = ((0.0, 0.0), (2.0, 2.0 * slope))
            verdict = AggregateEnvelope(lower, upper).solidity()
            assert verdict.status is Solidity.NOT_SOLID
            assert f"slope {text} > 1" in verdict.reason

    def test_overflowing_envelope_slope_in_the_reason(self):
        # 1e300 over 1e-300 overflows to inf, which no fraction can print
        verdict = classify_solidity([Constraint(AggregateEnvelope(
            ((0, 0), (1e-300, 1)), ((0, 0), (1e-300, 1e300))))])
        assert verdict.status is Solidity.NOT_SOLID
        assert "slope inf > 1" in verdict.reason

    def test_constraint_wrapper(self):
        box = PathwiseBounds(lower=0.0)
        with pytest.raises(ValidationError):
            Constraint("not a kind")
        with pytest.raises(ValidationError):
            Constraint(box, scope=-1)
        # a scope is an integer count, not a bool, float or string that
        # int() would truncate or parse to agent 1
        for bad in (1.5, True, "1"):
            with pytest.raises(ValidationError, match="nonnegative agent index"):
                Constraint(box, scope=bad)
        assert Constraint(box, scope=np.int64(1)).scope == 1
        assert tuple(Constraint(box).agents(3)) == (0, 1, 2)
        assert Constraint(box, scope=1).agents(3) == (1,)
        with pytest.raises(ValidationError):
            Constraint(box, scope=5).agents(2)


class TestCheckFeasible:
    def test_violations_ordered(self):
        A = alloc((0.5, 0.5), (-1.0, 2.0), (1.0, -0.5))
        constraints = (
            Constraint(PathwiseBounds(lower=0.0)),
            Constraint(RiskCeiling(RiskMeasureSpec.es(0.5), 0.1)),
        )
        feasible, violations = check_feasible(A, constraints)
        assert not feasible
        keys = [(v.constraint_index, v.agent, v.atom) for v in violations]
        assert keys == [(0, 0, "w0"), (0, 1, "w1"), (1, 0, None), (1, 1, None)]
        assert violations[0].magnitude == pytest.approx(1.0)
        assert all(v.magnitude > 0 for v in violations)
        # every constraint is checked on the whole allocation, in either order
        _, violations = check_feasible(A, constraints[::-1])
        keys = [(v.constraint_index, v.agent, v.atom) for v in violations]
        assert keys == [(0, 0, None), (0, 1, None), (1, 0, "w0"), (1, 1, "w1")]

    def test_expectation_relations(self):
        A = alloc((0.5, 0.5), (1.0, 3.0))  # mean 2
        ok, _ = check_feasible(A, (Constraint(ExpectationConstraint("<=", 2.0)),))
        assert ok
        ok, v = check_feasible(A, (Constraint(ExpectationConstraint("<=", 1.5)),))
        assert not ok and v[0].magnitude == pytest.approx(0.5)
        ok, _ = check_feasible(A, (Constraint(ExpectationConstraint(">=", 2.0)),))
        assert ok
        ok, _ = check_feasible(A, (Constraint(ExpectationConstraint("==", 2.0)),))
        assert ok
        ok, _ = check_feasible(A, (Constraint(ExpectationConstraint("==", 2.1)),))
        assert not ok

    def test_orlicz_bound(self):
        A = alloc((1 / 3,) * 3, (0.0, 1.0, 3.0))
        # E[phi(X)] = 1.25 for the (0.5, 2, 0.5, 1) ladder
        ok, _ = check_feasible(A, (Constraint(OrliczBound((0.5, 2.0, 0.5, 1.0), 1.25)),))
        assert ok
        ok, v = check_feasible(A, (Constraint(OrliczBound((0.5, 2.0, 0.5, 1.0), 1.0)),))
        assert not ok and v[0].magnitude == pytest.approx(0.25)

    def test_risk_floor(self):
        A = alloc((0.5, 0.5), (0.0, 2.0))  # ES_0.5 = 2
        ok, _ = check_feasible(A, (Constraint(RiskFloor(RiskMeasureSpec.es(0.5), 2.0)),))
        assert ok
        ok, v = check_feasible(A, (Constraint(RiskFloor(RiskMeasureSpec.es(0.5), 2.5)),))
        assert not ok and "below" in v[0].message

    def test_retention_semantics(self):
        sp = FiniteSpace((f"w{k}", 0.25) for k in range(4))
        zeta = RandomVariable(sp, (0.0, 0.5, 1.0, 2.0))
        c = (Constraint(IdiosyncraticRetention(zeta, 1.0), scope=0),)
        S = RandomVariable(sp, (1.0, 1.0, 2.0, 3.0))

        good = Allocation(sp, (zeta, S - zeta), S)
        assert check_feasible(good, c)[0]

        # retained states may rise above the deductible but not fall below
        up = RandomVariable(sp, (0.0, 0.5, 1.5, 1.2))
        assert check_feasible(Allocation(sp, (up, S - up), S), c)[0]
        down = RandomVariable(sp, (0.0, 0.5, 0.8, 2.0))
        ok, v = check_feasible(Allocation(sp, (down, S - down), S), c)
        assert not ok and "retained state" in v[0].message
        assert v[0].magnitude == pytest.approx(0.2)

        # below the deductible the share must track the endowment exactly
        drift = RandomVariable(sp, (0.5, 0.5, 1.0, 2.0))
        ok, v = check_feasible(Allocation(sp, (drift, S - drift), S), c)
        assert not ok
        assert v[0].message == (
            "agent 0 share 0.5 must equal endowment 0 below deductible 1")

    def test_envelope_interpolates(self):
        A = alloc((1 / 3,) * 3, (0.5, 1.0, 2.6), (-0.5, 0.0, -0.6))
        env = AggregateEnvelope(((0.0, 0.0), (2.0, 0.0)), ((0.0, 1.0), (2.0, 2.5)))
        ok, v = check_feasible(A, (Constraint(env, scope=0),))
        assert not ok
        assert len(v) == 1 and v[0].atom == "w2"
        assert v[0].magnitude == pytest.approx(0.1, abs=1e-12)

    def test_envelope_coverage(self):
        A = alloc((1 / 3,) * 3, (0.5, 1.0, 2.0), (-0.5, 0.0, 0.0))
        env = AggregateEnvelope(((0.0, 0.0), (1.0, 0.0)), ((0.0, 3.0), (1.0, 3.0)))
        with pytest.raises(ValidationError, match="cover the aggregate support"):
            check_feasible(A, (Constraint(env, scope=0),))

    def test_clearing_and_types_enforced(self):
        A = alloc((0.5, 0.5), (1.0, 2.0), aggregate=(0.0, 0.0))
        with pytest.raises(ContractError):
            check_feasible(A, ())
        B = alloc((0.5, 0.5), (1.0, 2.0))
        with pytest.raises(ValidationError):
            check_feasible(B, (PathwiseBounds(),))  # missing Constraint wrapper


def reference_check_feasible(A, constraints):
    """The per-kind scalar ladder that check_feasible replaced, within 1e-9
    times the aggregate's largest |value|."""
    tol = 1e-9 * max(np.abs(A.aggregate.values))
    ok, residual = check_clearing(A)
    if not ok:
        raise ContractError(f"allocation does not clear the aggregate (residual {residual:g})")
    labels = A.space.labels
    violations = []
    for ci, constraint in enumerate(constraints):
        kind = constraint.kind
        for i in constraint.agents(A.n_agents):
            share = A.shares[i]
            if isinstance(kind, PathwiseBounds):
                for a, v in enumerate(share.values):
                    if v < kind.lower - tol:
                        violations.append(Violation(
                            ci, i, labels[a], kind.lower - float(v),
                            f"agent {i} share {v:g} below lower bound {kind.lower:g}"))
                    elif v > kind.upper + tol:
                        violations.append(Violation(
                            ci, i, labels[a], float(v) - kind.upper,
                            f"agent {i} share {v:g} above upper bound {kind.upper:g}"))
            elif isinstance(kind, ExpectationConstraint):
                mean, _ = moments(share)
                if kind.relation == "<=":
                    gap = mean - kind.bound
                elif kind.relation == ">=":
                    gap = kind.bound - mean
                else:
                    gap = abs(mean - kind.bound)
                if gap > tol:
                    violations.append(Violation(
                        ci, i, None, gap,
                        f"agent {i} mean {mean:g} fails E[X] {kind.relation} {kind.bound:g}"))
            elif isinstance(kind, OrliczBound):
                value = expected_convex_loss(share, kind.ladder)
                if value > kind.bound + tol:
                    violations.append(Violation(
                        ci, i, None, value - kind.bound,
                        f"agent {i} convex penalty {value:g} exceeds {kind.bound:g}"))
            elif isinstance(kind, RiskCeiling):
                value = evaluate(kind.measure, share)
                if value > kind.bound + tol:
                    violations.append(Violation(
                        ci, i, None, value - kind.bound,
                        f"agent {i} {kind.measure.describe()} = {value:g} exceeds "
                        f"ceiling {kind.bound:g}"))
            elif isinstance(kind, RiskFloor):
                value = evaluate(kind.measure, share)
                if value < kind.bound - tol:
                    violations.append(Violation(
                        ci, i, None, kind.bound - value,
                        f"agent {i} {kind.measure.describe()} = {value:g} below "
                        f"floor {kind.bound:g}"))
            elif isinstance(kind, IdiosyncraticRetention):
                zeta = kind.endowment
                for a in range(A.space.size):
                    z = float(zeta.values[a])
                    x = float(share.values[a])
                    if z < kind.deductible - tol:
                        dev = abs(x - z)
                        if dev > tol:
                            violations.append(Violation(
                                ci, i, labels[a], dev,
                                f"agent {i} share {x:g} must equal endowment {z:g} "
                                f"below deductible {kind.deductible:g}"))
                    elif x < kind.deductible - tol:
                        violations.append(Violation(
                            ci, i, labels[a], kind.deductible - x,
                            f"agent {i} share {x:g} below deductible "
                            f"{kind.deductible:g} on a retained state"))
            else:
                s_values = A.aggregate.values
                _check_envelope_coverage(kind, s_values)
                lo = _pl_eval(kind.lower, s_values)
                hi = _pl_eval(kind.upper, s_values)
                for a, v in enumerate(share.values):
                    if v < lo[a] - tol:
                        violations.append(Violation(
                            ci, i, labels[a], float(lo[a] - v),
                            f"agent {i} share {v:g} below envelope {lo[a]:g} "
                            f"at S = {s_values[a]:g}"))
                    elif v > hi[a] + tol:
                        violations.append(Violation(
                            ci, i, labels[a], float(v - hi[a]),
                            f"agent {i} share {v:g} above envelope {hi[a]:g} "
                            f"at S = {s_values[a]:g}"))
    return len(violations) == 0, violations


def random_constraint(rng, A):
    """One constraint of a random kind; bounds are often taken exactly from
    the allocation, so values land on a bound."""
    i = int(rng.integers(A.n_agents))
    share = A.shares[i]
    exact = rng.random() < 0.5

    def pick(value):
        return value if exact else value + float(rng.choice((-0.5, -0.25, 0.25, 0.5)))

    spec = (RiskMeasureSpec.var(0.7), RiskMeasureSpec.es(0.6),
            RiskMeasureSpec.mean_variance(1.5),
            RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.0, 0.5))[int(rng.integers(4))]
    ladder = (0.5, 2.0, 0.0, 0.5)
    kind = int(rng.integers(7))
    if kind == 0:
        lower, upper = sorted(pick(float(v)) for v in rng.choice(share.values, size=2))
        kind = PathwiseBounds(lower=lower, upper=upper if rng.random() < 0.7 else math.inf)
    elif kind == 1:
        kind = ExpectationConstraint(str(rng.choice(("<=", "==", ">="))),
                                     pick(moments(share)[0]))
    elif kind == 2:
        kind = OrliczBound(ladder, pick(expected_convex_loss(share, ladder)))
    elif kind == 3:
        kind = RiskCeiling(spec, pick(evaluate(spec, share)))
    elif kind == 4:
        kind = RiskFloor(spec, pick(evaluate(spec, share)))
    elif kind == 5:
        z = share.values + rng.choice((0.0, 0.0, 0.5), size=share.values.size)
        kind = IdiosyncraticRetention(RandomVariable(A.space, z),
                                      pick(float(rng.choice(share.values))))
    else:
        s = A.aggregate.values
        xs = np.unique(s)
        at = [int(np.flatnonzero(s == x)[0]) for x in xs]
        lower = [pick(float(share.values[a])) for a in at]
        upper = [lo + float(rng.choice((0.0, 0.25, 1.0))) for lo in lower]
        kind = AggregateEnvelope(tuple(zip(xs, lower)), tuple(zip(xs, upper)))
    return Constraint(kind, scope=i if rng.random() < 0.6 else None)


class TestAgainstReference:
    def test_check_feasible_matches_scalar_ladder(self, rng, reference):
        kinds_violated = set()
        for _ in range(400):
            m = int(rng.integers(1, 9))
            X = reference.draw(rng, m)
            rows = [X.values] + [reference.draw(rng, m).values
                                 for _ in range(int(rng.integers(0, 3)))]
            A = Allocation(X.space, tuple(RandomVariable(X.space, r) for r in rows))
            constraints = tuple(random_constraint(rng, A)
                                for _ in range(int(rng.integers(1, 4))))
            got = check_feasible(A, constraints)
            assert got == reference_check_feasible(A, constraints)
            mask = feasible_mask([s.values[None, :] for s in A.shares],
                                 A.aggregate.values, A.space.probs, constraints)
            assert bool(mask[0]) == got[0]
            kinds_violated |= {type(constraints[v.constraint_index].kind) for v in got[1]}
        assert len(kinds_violated) == 7


def row_wise(constraint):
    """True when the constraint's band reads each row on its own, with no
    V @ probs, so its verdict on a row cannot depend on the other rows."""
    kind = constraint.kind
    if isinstance(kind, (RiskCeiling, RiskFloor)):
        return kind.measure.kind in ("var", "es")
    return not isinstance(kind, (ExpectationConstraint, OrliczBound))


def unstaged_mask(tensors, s_values, probs, constraints):
    """The AND of every band's own verdict over all rows."""
    tol = VALUE_TOL * value_scale(s_values)
    mask = np.ones(tensors[0].shape[0], dtype=bool)
    for _, kind, i in constraints_module._bands(constraints, len(tensors), s_values):
        value, lower, upper = kind.band(tensors[i], s_values, probs, tol)
        mask &= ~((value < lower - tol) | (value > upper + tol)).any(axis=1)
    return mask


class RecordedBox(PathwiseBounds):
    """A pathwise box that keeps every share tensor its band is given."""

    seen = []

    def band(self, V, s_values, probs, tol):
        self.seen.append(V)
        return super().band(V, s_values, probs, tol)


class TestStagedFeasibility:
    @pytest.mark.parametrize("dyadic", (False, True))
    def test_matches_unstaged_reference(self, rng, dyadic):
        """Staged feasible_mask equals the AND of every band over all rows,
        in any constraint order.  With Dirichlet masses only row-wise kinds
        are drawn; with masses in sixteenths every V @ probs is exact, so
        every kind is drawn."""
        outcomes, kinds = set(), set()
        for _ in range(250):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            if dyadic:
                probs = (1 + rng.multinomial(16 - m, np.full(m, 1.0 / m))) / 16
            else:
                probs = rng.dirichlet(np.ones(m))
            space = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
            base = rng.integers(-8, 9, size=(n, m)) / 4.0
            A = Allocation(space, tuple(RandomVariable(space, row) for row in base))
            constraints, k = [], int(rng.integers(1, 5))
            while len(constraints) < k:
                c = random_constraint(rng, A)
                if dyadic or row_wise(c):
                    constraints.append(c)
            noise = rng.choice((-0.5, -0.25, 0.0, 0.0, 0.0, 0.25, 0.5),
                               size=(n, int(rng.choice((1, 8, 64))), m))
            if rng.random() < 0.25:
                noise[:] = 0.0  # every row is the base allocation
            tensors = list(base[:, None, :] + noise)
            s = A.aggregate.values
            want = unstaged_mask(tensors, s, probs, constraints)
            for _ in range(3):
                order = [constraints[j] for j in rng.permutation(len(constraints))]
                assert np.array_equal(feasible_mask(tensors, s, probs, order), want)
            outcomes.add("all" if want.all() else "some" if want.any() else "none")
            kinds |= {type(c.kind) for c in constraints}
        assert outcomes == {"all", "some", "none"}
        assert len(kinds) == (7 if dyadic else 5)

    def test_each_band_sees_only_the_rows_still_feasible(self):
        s, probs = np.array([1.0, 1.0]), np.full(2, 0.5)
        V = np.array([[0.0, 1.0], [-1.0, 2.0], [0.5, 0.5], [2.0, -1.0]])
        tensors = [V, s - V]
        RecordedBox.seen = []
        mask = feasible_mask(tensors, s, probs,
                             (Constraint(PathwiseBounds(lower=0.0), scope=0),
                              Constraint(RecordedBox(upper=0.75), scope=1)))
        assert mask.tolist() == [False, False, True, False]
        assert len(RecordedBox.seen) == 1
        assert np.array_equal(RecordedBox.seen[0], tensors[1][[0, 2]])
        # while every row passes, a band gets the tensor itself
        RecordedBox.seen = []
        assert feasible_mask(tensors, s, probs,
                             (Constraint(RecordedBox(lower=-5.0)),)).all()
        assert [W is T for W, T in zip(RecordedBox.seen, tensors)] == [True, True]
        # once no row is left, no band runs
        RecordedBox.seen = []
        assert not feasible_mask(tensors, s, probs,
                                 (Constraint(PathwiseBounds(lower=5.0)),
                                  Constraint(RecordedBox()))).any()
        assert RecordedBox.seen == []

    @pytest.mark.parametrize("late", (
        Constraint(PathwiseBounds(), scope=3),
        Constraint(AggregateEnvelope(((0.0, 0.0), (1.0, 1.0)), ((0.0, 1.0), (1.0, 2.0)))),
    ), ids=("scope", "envelope-coverage"))
    def test_every_constraint_is_checked_before_any_band(self, late):
        """A constraint no row reaches is still checked against the agent
        count and the aggregate."""
        with pytest.raises(ValidationError):
            feasible_mask([np.zeros((3, 2))], np.array([0.0, 2.0]), np.full(2, 0.5),
                          (Constraint(PathwiseBounds(lower=5.0)), late))


class TestClassify:
    def test_solid_members(self):
        solid = (
            PathwiseBounds(lower=0.0),
            ExpectationConstraint("<=", 1.0),
            OrliczBound((0.5, 2.0, 0.5, 1.0), 5.0),
            RiskCeiling(RiskMeasureSpec.es(0.9), 1.0),
        )
        for kind in solid:
            assert classify_constraint(Constraint(kind)).status is Solidity.SOLID
        with pytest.raises(ValidationError, match="Constraint instances"):
            classify_constraint(solid[0])
        verdict = classify_solidity(tuple(Constraint(k) for k in solid))
        assert verdict.status is Solidity.SOLID
        assert verdict.reason == "every member is certified solid"

    def test_empty_set(self):
        verdict = classify_solidity(())
        assert verdict.status is Solidity.SOLID

    def test_var_ceiling_not_solid(self):
        verdict = classify_constraint(Constraint(RiskCeiling(RiskMeasureSpec.var(0.9), 1.0)))
        assert verdict.status is Solidity.NOT_SOLID
        assert "not convex-order" in verdict.reason

    def test_var_ceiling_implied_by_pathwise_upper(self):
        # X <= 1 gives VaR(X) <= 1 <= 2: the set is {X <= 1}, which is Solid
        var_2 = RiskCeiling(RiskMeasureSpec.var(0.9), 2.0)
        for scopes in ((None, None), (None, 1), (1, 1)):
            verdict = classify_solidity((Constraint(PathwiseBounds(upper=1.0), scopes[0]),
                                         Constraint(var_2, scopes[1])))
            assert verdict.status is Solidity.SOLID
        # an upper bound above the ceiling, or on another agent, implies
        # nothing: the ceiling still cuts the set
        for upper, scopes in ((3.0, (None, None)), (1.0, (0, 1)), (1.0, (0, None))):
            verdict = classify_solidity((Constraint(PathwiseBounds(upper=upper), scopes[0]),
                                         Constraint(var_2, scopes[1])))
            assert verdict.status is Solidity.NOT_SOLID
            assert verdict.reason.startswith("constraint 1: ceiling on VaR(0.9)")

    def test_floors(self):
        assert classify_constraint(Constraint(
            RiskFloor(RiskMeasureSpec.es(0.9), 1.0))).status is Solidity.NOT_SOLID
        assert classify_constraint(Constraint(
            RiskFloor(RiskMeasureSpec.var(0.9), 1.0))).status is Solidity.UNKNOWN

    def test_retention_not_solid(self):
        zeta = RandomVariable(FiniteSpace.uniform(2), (0.0, 1.0))
        verdict = classify_constraint(Constraint(IdiosyncraticRetention(zeta, 1.0)))
        assert verdict.status is Solidity.NOT_SOLID
        assert "conditioning on the aggregate breaks the tie" in verdict.reason

    @pytest.mark.parametrize("scale", (1.0, 1e8))
    def test_retention_pinning_no_state_is_solid(self, scale):
        # z >= d on every atom: the band is the pathwise floor X >= d, which
        # no convex-order reduction leaves; a value below d within the
        # tolerance pins nothing, and one beyond it pins its state
        space = FiniteSpace.uniform(4)
        d = scale
        for z in ((d, 2 * d, 3 * d, d), (d * (1 - 1e-10), d, 2 * d, 2 * d)):
            zeta = RandomVariable(space, z)
            verdict = classify_constraint(Constraint(IdiosyncraticRetention(zeta, d)))
            assert verdict.status is Solidity.SOLID
            assert verdict.reason.startswith("pins no state")
        zeta = RandomVariable(space, (d * (1 - 1e-6), d, 2 * d, 2 * d))
        assert classify_constraint(Constraint(IdiosyncraticRetention(
            zeta, d))).status is Solidity.NOT_SOLID
        # nor does the falsifier find a witness against the floor
        S = RandomVariable(space, (2 * d, 3 * d, 4 * d, 5 * d))
        X1 = RandomVariable(space, (d, 2 * d, 3 * d, d))
        constraints = (Constraint(IdiosyncraticRetention(X1, d), scope=0),)
        assert classify_solidity(constraints).status is Solidity.SOLID
        start = Allocation(space, (X1, S - X1), S)
        assert falsify_solidity(constraints, space, S, start=start, budget=300) is None

    def test_envelope_slope_rule(self):
        steep = AggregateEnvelope(
            ((1.0, 0.25), (2.0, 0.25), (3.0, 0.25)),
            ((1.0, 0.25), (2.0, 0.25), (3.0, 1.75)))
        verdict = classify_constraint(Constraint(steep))
        assert verdict.status is Solidity.NOT_SOLID
        assert "3/2" in verdict.reason

        flat = AggregateEnvelope(((0.0, 0.0), (2.0, 1.0)), ((0.0, 1.0), (2.0, 2.0)))
        assert classify_constraint(Constraint(flat)).status is Solidity.UNKNOWN

    def test_meet_picks_worst_and_names_it(self):
        verdict = classify_solidity((
            Constraint(PathwiseBounds(lower=0.0)),
            Constraint(RiskCeiling(RiskMeasureSpec.var(0.9), 1.0)),
        ))
        assert verdict.status is Solidity.NOT_SOLID
        assert verdict.reason.startswith("constraint 1:")

        verdict = classify_solidity((
            Constraint(PathwiseBounds(lower=0.0)),
            Constraint(RiskFloor(RiskMeasureSpec.var(0.9), 1.0)),
        ))
        assert verdict.status is Solidity.UNKNOWN


class TestFalsify:
    def coin_pair(self):
        space = FiniteSpace((label, 0.25) for label in
                            ("(0,0)", "(0,1)", "(1,0)", "(1,1)"))
        zeta1 = RandomVariable(space, (0.0, 0.0, 1.0, 1.0))
        zeta2 = RandomVariable(space, (0.0, 1.0, 0.0, 1.0))
        constraints = (
            Constraint(IdiosyncraticRetention(zeta1, 1.0), scope=0),
            Constraint(IdiosyncraticRetention(zeta2, 1.0), scope=1),
        )
        return space, zeta1, zeta2, constraints

    def test_retention_witness(self):
        space, zeta1, zeta2, constraints = self.coin_pair()
        S = zeta1 + zeta2
        autarky = Allocation(space, (zeta1, zeta2), S)
        witness = falsify_solidity(constraints, space, S, start=autarky)
        assert witness is not None
        assert witness.method == "comonotonic improvement"
        half = 0.5 * S.values
        for i in (0, 1):
            assert np.array_equal(witness.reduction.shares[i].values, half)
            assert convex_order_leq(witness.reduction.shares[i],
                                    autarky.shares[i])
        ok, violations = check_feasible(witness.reduction, constraints)
        assert not ok
        messages = [v.message for v in violations]
        assert ("agent 0 share 0.5 must equal endowment 0 below deductible 1"
                in messages)

    def test_constraints_may_be_an_iterator(self):
        # each entry point reads its constraints once, so an iterator gives
        # the verdicts of the tuple it yields
        space, zeta1, zeta2, constraints = self.coin_pair()
        S = zeta1 + zeta2
        autarky = Allocation(space, (zeta1, zeta2), S)
        halves = Allocation(space, (S * 0.5, S * 0.5), S)
        assert not check_feasible(halves, constraints)[0]
        assert check_feasible(halves, iter(constraints)) == check_feasible(halves, constraints)
        witness = falsify_solidity(iter(constraints), space, S, start=autarky)
        assert witness is not None and witness.method == "comonotonic improvement"

    def test_default_seed_finds_same_witness(self):
        # without a start, a scoped retention seeds the search with its
        # endowments: on ex-3.1 that is autarky
        space, zeta1, zeta2, constraints = self.coin_pair()
        S = zeta1 + zeta2
        autarky = Allocation(space, (zeta1, zeta2), S)
        witness = falsify_solidity(constraints, space, S)
        want = falsify_solidity(constraints, space, S, start=autarky)
        assert witness.method == want.method == "comonotonic improvement"
        for got, expected in ((witness.feasible, want.feasible),
                              (witness.reduction, want.reduction)):
            assert np.array_equal(got.share_matrix(), expected.share_matrix())

    def test_no_start_without_retention_finds_nothing(self, monkeypatch):
        # the only start-free seed is a retention's: every other set, and the
        # empty one, is not searched at all
        checked = []
        monkeypatch.setattr(constraints_module, "_witness_mask",
                            lambda Y, *args: checked.append(Y.shape[0]))
        rng = np.random.default_rng(7)
        for trial in range(5 * len(FALSIFIER_KINDS)):
            kind = FALSIFIER_KINDS[trial % len(FALSIFIER_KINDS)]
            if kind == "retention":
                continue
            constraints, X = falsifier_case(rng, kind)
            assert falsify_solidity(constraints, X.space, X.aggregate,
                                    budget=400, seed=trial) is None, (trial, kind)
            assert falsify_solidity((), X.space, X.aggregate) is None
        assert checked == []

    def test_infeasible_retention_seed_is_not_searched(self):
        # the seed keeps agent 0's endowment and gives agent 1 the rest
        space, zeta1, zeta2, retentions = self.coin_pair()
        S = zeta1 + zeta2
        capped = (retentions[0], Constraint(PathwiseBounds(upper=0.5), scope=1))
        assert falsify_solidity(capped, space, S) is None
        # both agents retained: their endowments must sum to S
        assert falsify_solidity(retentions, space, S + 1.0) is None

    def test_floor_witness(self):
        # contraction drops a consistent measure below its floor
        space = FiniteSpace.uniform(2)
        S = RandomVariable(space, (0.0, 2.0))
        X1 = RandomVariable(space, (-1.0, 2.0))
        start = Allocation(space, (X1, S - X1), S)
        constraints = (Constraint(RiskFloor(RiskMeasureSpec.es(0.5), 1.9), scope=0),)
        witness = falsify_solidity(constraints, space, S, start=start)
        assert witness is not None
        assert es(witness.reduction.shares[0], 0.5) < 1.9

    def test_solid_set_yields_nothing(self):
        space = FiniteSpace.uniform(2)
        S = RandomVariable(space, (0.0, 2.0))
        X1 = RandomVariable(space, (-1.0, 2.0))
        start = Allocation(space, (X1, S - X1), S)
        constraints = (Constraint(PathwiseBounds(lower=-50.0, upper=50.0)),)
        assert falsify_solidity(constraints, space, S, start=start,
                                budget=300) is None

    def test_retention_endowment_on_another_space(self):
        space, zeta1, zeta2, constraints = self.coin_pair()
        S = zeta1 + zeta2
        autarky = Allocation(space, (zeta1, zeta2), S)
        for other in (FiniteSpace((f"v{k}", 0.25) for k in range(4)),
                      FiniteSpace.uniform(3)):
            zeta = RandomVariable(other, np.arange(other.size, dtype=float))
            moved = (Constraint(IdiosyncraticRetention(zeta, 1.0), scope=0),)
            for start in (None, autarky):
                with pytest.raises(ValidationError, match="different space"):
                    falsify_solidity(moved, space, S, start=start)

    def test_start_must_clear_and_be_feasible(self):
        space = FiniteSpace.uniform(2)
        S = RandomVariable(space, (0.0, 2.0))
        bad_clear = Allocation(
            space, (RandomVariable(space, (1.0, 1.0)),), aggregate=S)
        with pytest.raises(ValidationError, match="clear"):
            falsify_solidity((), space, S, start=bad_clear)
        X1 = RandomVariable(space, (-1.0, 2.0))
        start = Allocation(space, (X1, S - X1), S)
        constraints = (Constraint(PathwiseBounds(lower=0.0)),)
        with pytest.raises(ValidationError, match="feasible"):
            falsify_solidity(constraints, space, S, start=start)

    def test_budget_and_seed_must_be_counts(self):
        space = FiniteSpace.uniform(2)
        S = RandomVariable(space, (0.0, 2.0))
        for budget in (1e4, 2.5, -1, True, "10"):
            with pytest.raises(ValidationError, match="budget must be a nonnegative integer"):
                falsify_solidity((), space, S, budget=budget)
        for seed in (-1, 0.5, False, None):
            with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
                falsify_solidity((), space, S, seed=seed)
        assert falsify_solidity((), space, S, budget=np.int64(10), seed=np.uint8(3)) is None

    @pytest.mark.parametrize("kind", (PathwiseBounds(-5.0, 5.0),
                                      RiskFloor(RiskMeasureSpec.es(0.5), -5.0)))
    def test_start_must_live_on_the_problem(self, kind):
        space = FiniteSpace.uniform(3)
        S = RandomVariable(space, (0.0, 1.0, 2.0))
        four = FiniteSpace.uniform(4)
        X1 = RandomVariable(four, (0.0, 1.0, 0.0, 1.0))
        elsewhere = Allocation(four, (X1, X1))
        with pytest.raises(ValidationError, match="problem's space"):
            falsify_solidity((Constraint(kind),), space, S, start=elsewhere)
        Y1 = RandomVariable(space, (0.0, 1.0, 1.0))
        other = Allocation(space, (Y1, Y1))
        with pytest.raises(ValidationError, match="aggregate must be S"):
            falsify_solidity((Constraint(kind),), space, S, start=other)


FALSIFIER_KINDS = ("pathwise", "expectation", "orlicz", "es-ceiling",
                   "var-ceiling", "es-floor", "retention", "envelope")
SOLID_KINDS = FALSIFIER_KINDS[:4]


def falsifier_case(rng, kind):
    """(constraints, feasible start) shaped like the crosscheck benchmark's
    solidity cases: two agents on four Dirichlet atoms, S on {0, 1, 2, 3},
    one of the eight kinds.  Every bound but retention's sits within 0.01
    of the start's value, so that transfers often breach the NotSolid
    kinds."""
    m = 4
    probs = rng.dirichlet(np.ones(m) * 2.0)
    s = rng.choice([0.0, 1.0, 2.0, 3.0], size=m)
    s[0], s[-1] = 0.0, 3.0
    x0 = s * rng.uniform(0.2, 0.8) + rng.normal(scale=1.0, size=m)
    start = alloc(probs, x0, s - x0, aggregate=s)
    X0 = start.shares[0]
    slack = rng.uniform(0.0, 0.01)
    level = float(rng.uniform(0.3, 0.8))
    if kind == "pathwise":
        rows = start.share_matrix()
        kinds = (PathwiseBounds(rows.min() - slack, rows.max() + slack),)
    elif kind == "expectation":
        kinds = (ExpectationConstraint("<=", float(probs @ x0) + slack),)
    elif kind == "orlicz":
        ladder = (0.5, 1.5, float(rng.uniform(-0.5, 0.5)), 1.0)
        kinds = (OrliczBound(ladder, expected_convex_loss(X0, ladder) + slack),)
    elif kind == "es-ceiling":
        kinds = (RiskCeiling(RiskMeasureSpec.es(level), es(X0, level) + slack),)
    elif kind == "var-ceiling":
        kinds = (RiskCeiling(RiskMeasureSpec.var(level), var(X0, level) + slack),)
    elif kind == "es-floor":
        kinds = (RiskFloor(RiskMeasureSpec.es(level), es(X0, level) - slack),)
    elif kind == "retention":
        zeta = rng.integers(0, 2, size=(2, m)).astype(float)
        zeta[:, 0], zeta[:, -1] = 0.0, 1.0
        start = alloc(probs, *zeta)
        kinds = tuple(IdiosyncraticRetention(z, 1.0) for z in start.shares)
    else:  # an upper envelope steeper than the aggregate
        top = float(np.max(x0)) + slack
        kinds = (AggregateEnvelope(((0.0, -10.0), (3.0, -10.0)),
                                   ((0.0, top), (1.0, top), (2.0, top + 2.5),
                                    (3.0, top + 2.5))),)
    return tuple(Constraint(k, scope=i) for i, k in enumerate(kinds)), start


def transfer_stage(X, constraints, budget, seed):
    return _transfer_witness(X.share_matrix(), X.aggregate.values, X.space.probs,
                             constraints, budget, seed)


class TestTransferStage:
    # three chains per block on these cases, so searches cross blocks
    SMALL_BLOCKS = 3 * 2 * 4 * FALSIFY_CHAIN_LIMIT

    def test_witness_mask_applies_every_check(self):
        # agent 0's ES at 1/2 must stay at or above 1.9 on two equal atoms;
        # a transfer never builds the last two rows, so the reference
        # comparison cannot reach their checks
        X = alloc((0.5, 0.5), (-1.0, 2.0), (1.0, 0.0))
        constraints = (Constraint(RiskFloor(RiskMeasureSpec.es(0.5), 1.9), scope=0),)
        Y = np.array([X.share_matrix(),             # feasible
                      [[-0.5, 1.5], [0.5, 0.5]],    # an infeasible reduction
                      [[0.0, 1.5], [0.0, 0.5]],     # infeasible, moves the means
                      [[-0.5, 1.5], [0.6, 0.4]]])   # reductions that do not clear
        mask = constraints_module._witness_mask(Y, X.share_matrix(), X.aggregate.values,
                                                X.space.probs, constraints)
        assert mask.tolist() == [False, True, False, False]

    def test_one_agent_or_one_atom_has_no_pair(self):
        one_agent = alloc((0.5, 0.5), (0.0, 2.0))
        one_atom = alloc((1.0,), (1.0,), (2.0,))
        for X in (one_agent, one_atom):
            assert transfer_stage(X, (), FALSIFY_CHAIN_LIMIT, 0) is None

    @pytest.mark.parametrize("cells", (None, SMALL_BLOCKS))
    def test_matches_scalar_reference(self, reference, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(constraints_module, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(13)
        witnesses = 0
        for trial in range(304):
            kind = FALSIFIER_KINDS[trial % len(FALSIFIER_KINDS)]
            constraints, X = falsifier_case(rng, kind)
            budget = int(rng.integers(0, 400))
            expected = reference.transfers(X, constraints, budget, trial)
            got = transfer_stage(X, constraints, budget, trial)
            if expected is None:
                assert got is None, (trial, kind)
            else:
                assert kind not in SOLID_KINDS
                assert np.array_equal(got, expected), (trial, kind)
                witnesses += 1
            witness = falsify_solidity(constraints, X.space, X.aggregate,
                                       budget=budget, seed=trial, start=X)
            if witness is None:
                assert expected is None
            elif witness.method == "paired transfers":
                assert np.array_equal(witness.reduction.share_matrix(), expected)
        assert witnesses >= 40

    @pytest.mark.parametrize("cells", (None, SMALL_BLOCKS))
    def test_edge_budgets(self, reference, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(constraints_module, "_BLOCK_CELLS", cells)
        L = FALSIFY_CHAIN_LIMIT
        rng = np.random.default_rng(29)
        outcomes = set()
        for trial in range(40):
            constraints, X = falsifier_case(rng, ("var-ceiling", "es-floor")[trial % 2])
            for budget in (0, 1, L - 1, L, L + 1, 3 * L + 5, 7 * L):
                expected = reference.transfers(X, constraints, budget, trial)
                got = transfer_stage(X, constraints, budget, trial)
                if budget == 0:
                    assert got is None
                if expected is None:
                    assert got is None, (trial, budget)
                else:
                    assert np.array_equal(got, expected), (trial, budget)
                outcomes.add((budget, expected is None))
        # a budget short of one chain, just past it and past three chains
        # each both finds and misses a witness
        assert {(b, f) for b in (L - 1, L + 1, 3 * L + 5) for f in (True, False)} <= outcomes

    @pytest.mark.parametrize("n, m", ((2, 2), (2, 5), (3, 2), (4, 7), (8, 3)))
    def test_move_codes_decode_one_to_one(self, n, m):
        i, j, a, b = _moves(np.arange(n * (n - 1) * m * (m - 1)), n, m)
        moves = set(zip(i.tolist(), j.tolist(), a.tolist(), b.tolist()))
        assert moves == {(p, q, x, y) for p in range(n) for q in range(n) if q != p
                         for x in range(m) for y in range(m) if y != x}
        assert len(moves) == i.size

    def test_two_rng_calls_per_block(self, monkeypatch):
        monkeypatch.setattr(constraints_module, "_BLOCK_CELLS", self.SMALL_BLOCKS)
        calls = {"integers": 0, "uniform": 0}
        default_rng = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, low, high, **kwargs):
                # one scalar bound, not an array of per-axis bounds
                assert np.ndim(low) == 0 and np.ndim(high) == 0
                calls["integers"] += 1
                return self.rng.integers(low, high, **kwargs)

            def uniform(self, *args, **kwargs):
                calls["uniform"] += 1
                return self.rng.uniform(*args, **kwargs)

        # a Solid set, so the search runs every block
        X = alloc((0.25, 0.25, 0.25, 0.25), (0.0, 1.0, 2.0, 3.0), (3.0, 1.0, 0.0, 0.0))
        constraints = (Constraint(PathwiseBounds(-10.0, 10.0)),)
        monkeypatch.setattr(np.random, "default_rng", Counted)
        L = FALSIFY_CHAIN_LIMIT
        for budget, blocks in ((1, 1), (3 * L, 1), (3 * L + 1, 2), (7 * L - 3, 3)):
            calls.update(integers=0, uniform=0)
            assert transfer_stage(X, constraints, budget, 0) is None
            assert calls == {"integers": blocks, "uniform": blocks}, budget

    def test_memory_does_not_grow_with_budget(self, monkeypatch):
        # a Solid set: every one of the 10^4 draws is searched.  Kept as one
        # array, its 2,600 candidates of 8 x 4000 cells would take 670 MB
        rng = np.random.default_rng(0)
        n, m = 8, 4000
        rows = rng.normal(size=(n, m))
        # S on four levels keeps stages 1 and 2 quick at this size
        rows[-1] = rng.integers(0, 4, size=m) - rows[:-1].sum(axis=0)
        X = alloc(rng.dirichlet(np.ones(m)), *rows)
        constraints = (Constraint(PathwiseBounds(rows.min(), rows.max())),)
        blocks = []
        mask = constraints_module._witness_mask

        def counted(Y, *args):
            blocks.append(Y.shape[0])
            return mask(Y, *args)

        monkeypatch.setattr(constraints_module, "_witness_mask", counted)
        lanes = constraints_module._BLOCK_CELLS // (FALSIFY_CHAIN_LIMIT * n * m)
        tracemalloc.start()
        try:
            began = time.perf_counter()
            witness = falsify_solidity(constraints, X.space, X.aggregate,
                                       budget=10 ** 4, start=X)
            elapsed = time.perf_counter() - began
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness is None
        # stages 1 and 2, then every block of chains
        assert len(blocks) == 2 + -(-10 ** 4 // (FALSIFY_CHAIN_LIMIT * lanes))
        assert sum(blocks[2:]) > 10 ** 3
        assert peak < 64 * 2 ** 20
        assert elapsed < 60.0
