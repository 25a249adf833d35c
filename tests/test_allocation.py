"""Allocations, aggregate conditioning, and the comonotonic improvement."""

import contextlib
import signal

import numpy as np
import pytest

from coshare import (
    Allocation,
    ContractError,
    DomainError,
    FiniteSpace,
    NonterminationError,
    RandomVariable,
    RiskMeasureSpec,
    ValidationError,
    check_clearing,
    comonotonic_improvement,
    condition_on_aggregate,
    convex_order_leq,
    evaluate,
    is_comonotonic,
    moments,
)
import coshare.allocation as allocation_module

RESIDUAL_TOL = 1e-9


def alloc(probs, *share_rows, aggregate=None):
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    shares = tuple(RandomVariable(sp, row) for row in share_rows)
    agg = RandomVariable(sp, aggregate) if aggregate is not None else None
    return Allocation(sp, shares, aggregate=agg)


def capped_improvement(A, cap):
    """comonotonic_improvement(A) with its transfer cap set to cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation_module, "MAX_TRANSFERS", cap)
        return comonotonic_improvement(A)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds`` of wall
    time, so that a loop that never ends fails the test rather than hangs."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def three_state():
    # S = (1, 2, 3) on uniform thirds, two agents
    return alloc((1 / 3,) * 3, (0.25, 0.25, 1.75), (0.75, 1.75, 1.25))


class TestAllocation:
    def test_aggregate_defaults_to_sum(self, three_state):
        assert np.array_equal(three_state.aggregate.values, (1.0, 2.0, 3.0))
        assert three_state.n_agents == 2
        assert three_state.share_matrix().shape == (2, 3)

    def test_validation(self):
        sp = FiniteSpace.uniform(2)
        other = FiniteSpace((("a", 0.4), ("b", 0.6)))
        with pytest.raises(ValidationError):
            Allocation(sp, ())
        with pytest.raises(ValidationError):
            Allocation(sp, (RandomVariable(other, (1.0, 2.0)),))
        with pytest.raises(ValidationError):
            Allocation(sp, (RandomVariable(sp, (1.0, 2.0)),),
                       aggregate=RandomVariable(other, (1.0, 2.0)))

    def test_check_clearing(self):
        A = alloc((0.5, 0.5), (1.0, 2.0), (0.0, 1.0), aggregate=(1.0, 3.5))
        ok, residual = check_clearing(A)
        assert not ok and residual == pytest.approx(0.5)

    def test_share_sum_past_the_float_range(self):
        # the sum reads inf, with no overflow warning: it does not clear,
        # and as a default aggregate it is refused
        big = (1.7976931348623157e308, 1.0)
        assert check_clearing(alloc((0.5, 0.5), big, big, aggregate=(1.0, 2.0))) == (False, np.inf)
        with pytest.raises(ValidationError, match="finite"):
            alloc((0.5, 0.5), big, big)

    def test_improvement_that_loses_clearing_names_its_output(self):
        # the input clears S = (0, 0, 1) exactly; transfers at 1e308 round
        # the unit away, and the error says so instead of blaming the input
        A = alloc((1 / 3,) * 3, (1.5e308, -1.5e308, 0.0), (-1.5e308, 1.5e308, 1.0))
        assert check_clearing(A) == (True, 0.0)
        with pytest.raises(DomainError, match=r"improved allocation lost clearing at the "
                           r"shares' scale \(residual 1, max \|share\| 1.5e\+308\)"):
            comonotonic_improvement(A)

    def test_clearing_tolerance_scales_with_aggregate(self, rng):
        # float dust on shares of size 1e8 clears; at scale <= 1 the
        # tolerance stays 1e-9
        small = alloc((0.5, 0.5), (0.25, 0.5), (0.75, 0.5), aggregate=(1.0, 1.0 + 2e-9))
        assert not check_clearing(small)[0]
        for _ in range(100):
            n, m = int(rng.integers(2, 6)), int(rng.integers(3, 30))
            shares = rng.normal(size=(n, m)) * 1e8
            A = alloc(rng.dirichlet(np.ones(m)), *shares)
            improved, cert = comonotonic_improvement(A)
            assert check_clearing(improved)[0]
            assert cert.clearing_residual <= 1e-9 * np.abs(A.aggregate.values).max()


class TestComonotonicity:
    def test_monotone_shares(self):
        A = alloc((0.5, 0.5), (0.0, 1.0), (1.0, 1.5))
        assert is_comonotonic(A)

    def test_anticomonotone_pair(self):
        A = alloc((0.5, 0.5), (1.0, 0.0), (0.0, 2.0))
        assert not is_comonotonic(A)

    def test_single_agent(self):
        A = alloc((0.5, 0.5), (2.0, -1.0))
        assert is_comonotonic(A)

    def test_level_set_constancy_required(self):
        # S = (1, 2, 2): shares differ inside the S = 2 level set
        A = alloc((1 / 3,) * 3, (0.0, 1.5, 0.5), (1.0, 0.5, 1.5))
        assert not is_comonotonic(A)

    def test_tolerance(self):
        A = alloc((0.5, 0.5), (1.0, 1.0 - 1e-12), (0.0, 1.0 + 1e-12))
        assert is_comonotonic(A)

    def test_requires_clearing(self):
        A = alloc((0.5, 0.5), (1.0, 2.0), aggregate=(0.0, 0.0))
        with pytest.raises(ContractError):
            is_comonotonic(A)

    def test_matches_scalar_loop(self, rng, reference):
        # the per-level loop is_comonotonic had before it became a one-row
        # call of the oracle's comonotone mask
        def reference_is_comonotonic(A):
            tol = 1e-9 * max(np.abs(A.aggregate.values))
            order = np.argsort(A.aggregate.values, kind="stable")
            groups, first = [], None
            for idx in order:
                v = A.aggregate.values[idx]
                if groups and v - first <= tol:
                    groups[-1].append(int(idx))
                else:
                    groups.append([int(idx)])
                    first = v
            for share in A.shares:
                prev = None
                for group in groups:
                    block = share.values[group]
                    if block.max() - block.min() > tol:
                        return False
                    rep = float(block.mean())
                    if prev is not None and rep < prev - tol:
                        return False
                    prev = rep
            return True

        verdicts = set()
        for _ in range(400):
            m = int(rng.integers(1, 12))
            S = reference.draw(rng, m)
            n = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                # comonotone by construction: nondecreasing functions of S
                # through the S-ranks, perturbed on some atoms
                ranks = np.searchsorted(np.unique(S.values), S.values)
                steps = rng.dirichlet(np.ones(n))
                rows = [steps[i] * S.values for i in range(n - 1)]
                rows = [r + (0.25 * ranks if i == 0 else 0.0) for i, r in enumerate(rows)]
                if rng.random() < 0.5:
                    rows = [r + rng.choice((0.0, 1e-10, -0.5), size=m) for r in rows]
            else:
                rows = [reference.draw(rng, m).values for _ in range(n - 1)]
            rows.append(S.values - sum(rows) if rows else S.values)
            A = Allocation(S.space, tuple(RandomVariable(S.space, r) for r in rows), S)
            got = is_comonotonic(A)
            assert got == reference_is_comonotonic(A)
            verdicts.add(got)
        assert verdicts == {True, False}


class TestConditioning:
    def test_hand_case(self):
        # S = (1, 2, 2, 3); inside the S = 2 level set the shares average
        A = alloc((0.25,) * 4, (0.5, 1.0, 3.0, 1.5), (0.5, 1.0, -1.0, 1.5))
        C = condition_on_aggregate(A)
        assert np.array_equal(C.shares[0].values, (0.5, 2.0, 2.0, 1.5))
        assert np.array_equal(C.shares[1].values, (0.5, 0.0, 0.0, 1.5))
        assert check_clearing(C)[0]

    def test_constant_blocks_untouched_bitwise(self):
        # 1.75 * (1/3) / (1/3) != 1.75 in floats; constant blocks are skipped
        A = alloc((1 / 3,) * 3, (0.7, 1.75, 1.75), (0.3, 0.25, 0.25))
        C = condition_on_aggregate(A)
        assert C.shares[0].values[1].hex() == (1.75).hex()
        assert np.array_equal(C.shares[0].values, A.shares[0].values)

    def test_idempotent_bitwise(self, rng):
        for _ in range(25):
            n_atoms = int(rng.integers(3, 7))
            probs = rng.dirichlet(np.ones(n_atoms))
            s = rng.choice([1.0, 2.0, 2.0, 3.0], size=n_atoms)
            x1 = rng.normal(size=n_atoms)
            A = alloc(probs, x1, s - x1)
            C = condition_on_aggregate(A)
            CC = condition_on_aggregate(C)
            for a, b in zip(C.shares, CC.shares):
                assert np.array_equal(a.values, b.values)

    def test_matches_reference_bitwise(self, rng, reference):
        for _ in range(200):
            A = reference.draw_allocation(rng)
            C = condition_on_aggregate(A)
            assert np.array_equal(C.share_matrix(), reference.condition(A))

    def test_componentwise_convex_reduction(self, rng):
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            s = np.sort(rng.choice([0.0, 1.0, 1.0, 2.0], size=4))
            x1 = rng.normal(size=4)
            A = alloc(probs, x1, s - x1)
            C = condition_on_aggregate(A)
            for old, new in zip(A.shares, C.shares):
                assert convex_order_leq(new, old)
                assert moments(new)[0] == pytest.approx(moments(old)[0], abs=1e-12)


class TestImprovement:
    def test_three_state_exact(self, three_state):
        measures = (RiskMeasureSpec.es(0.2), RiskMeasureSpec.es(0.2))
        improved, cert = comonotonic_improvement(three_state, measures=measures)
        assert np.array_equal(improved.shares[0].values, (0.25, 0.75, 1.25))
        assert np.array_equal(improved.shares[1].values, (0.75, 1.25, 1.75))
        assert cert.transfers == 1
        assert cert.all_verified
        assert cert.comonotonic_ok and all(cert.convex_order_ok)
        assert cert.clearing_residual <= 1e-12
        assert cert.objective_deltas == (0.0, 0.0)

    def test_unequal_level_masses(self):
        # one weighted transfer settles both gaps at once
        A = alloc((0.6, 0.2, 0.2), (1.0, -1.0, -1.0), (0.0, 3.0, 3.0))
        improved, cert = comonotonic_improvement(A)
        assert np.allclose(improved.shares[0].values, 0.2, atol=1e-12)
        assert np.allclose(improved.shares[1].values, (0.8, 1.8, 1.8), atol=1e-12)
        assert cert.transfers == 1
        assert cert.all_verified
        assert cert.objective_deltas is None

    def test_already_comonotone_is_fixed_point(self):
        A = alloc((0.5, 0.5), (0.0, 1.0), (1.0, 2.0))
        improved, cert = comonotonic_improvement(A)
        assert cert.transfers == 0
        for old, new in zip(A.shares, improved.shares):
            assert np.array_equal(old.values, new.values)

    def test_measure_count_checked(self, three_state):
        with pytest.raises(ContractError):
            comonotonic_improvement(three_state, measures=(RiskMeasureSpec.es(0.2),))

    def test_measure_entries_checked_before_the_loop(self, three_state, monkeypatch):
        # each entry must be a RiskMeasureSpec, checked before any level
        # partition or transfer runs
        def refuse(*args):
            raise AssertionError("the improvement ran")

        monkeypatch.setattr(allocation_module, "level_partition", refuse)
        for measures in ([None, None], ["es", "es"], (RiskMeasureSpec.es(0.2), None)):
            with pytest.raises(ValidationError, match="RiskMeasureSpec"):
                comonotonic_improvement(three_state, measures=measures)

    def test_nonclearing_rejected(self):
        A = alloc((0.5, 0.5), (1.0, 2.0), aggregate=(9.0, 9.0))
        with pytest.raises(ContractError):
            comonotonic_improvement(A)

    def test_transfer_cap(self, three_state, rng, reference):
        with pytest.raises(NonterminationError):
            capped_improvement(three_state, 0)
        # the cap's state is the level matrix right after transfer cap + 1
        checked = 0
        while checked < 20:
            A = reference.draw_allocation(rng)
            _, cert = comonotonic_improvement(A)
            if cert.transfers == 0:
                continue
            for cap in {0, cert.transfers // 2, cert.transfers - 1}:
                with pytest.raises(NonterminationError) as got:
                    capped_improvement(A, cap)
                with pytest.raises(NonterminationError) as want:
                    reference.repair(A, max_transfers=cap)
                assert got.value.state["transfers"] == cap + 1
                assert np.array_equal(got.value.state["level_values"],
                                      want.value.state["level_values"])
            checked += 1

    def test_comonotone_input_needs_no_transfer(self):
        A = alloc((0.25,) * 4, (0.0, 1.0, 1.0, 2.0), (1.0, 1.5, 1.5, 4.0))
        improved, cert = capped_improvement(A, 0)
        assert cert.transfers == 0
        assert np.array_equal(improved.share_matrix(), A.share_matrix())

    def test_matches_reference_loop_bitwise(self, rng, reference):
        # the scalar repair runs the numpy pair loop's float operations in
        # the same order, skipping only rows with no violator
        for _ in range(500):
            A = reference.draw_allocation(rng)
            improved, cert = comonotonic_improvement(A)
            x, transfers = reference.repair(A)
            expected = np.empty((A.n_agents, A.space.size))
            for k, group in enumerate(reference.levels(A.aggregate.values)):
                expected[:, group] = x[:, [k]]
            assert cert.transfers == transfers
            assert np.array_equal(improved.share_matrix(), expected)

    @pytest.mark.parametrize("n_agents", [2, 4, 8])
    def test_matches_reference_loop_at_benchmark_shapes(self, rng, reference, n_agents):
        # m = 100 as in the improve-certify cells: distinct aggregate values on
        # equal masses (the equal-mass transfer), then few tied levels on
        # Dirichlet masses (the mass-weighted transfer)
        m = 100
        for tied in (False, True):
            if tied:
                probs = rng.dirichlet(np.ones(m))
                s = 0.5 * rng.integers(0, 24, size=m)
                rows = rng.normal(size=(n_agents - 1, m))
                rows = np.vstack([rows, s - rows.sum(axis=0)])
            else:
                probs = np.full(m, 1.0 / m)
                rows = rng.normal(size=(n_agents, m))
            A = alloc(probs, *rows)
            improved, cert = comonotonic_improvement(A)
            x, transfers = reference.repair(A)
            expected = np.empty((n_agents, m))
            for k, group in enumerate(reference.levels(A.aggregate.values)):
                expected[:, group] = x[:, [k]]
            assert transfers > 0
            assert cert.transfers == transfers
            assert np.array_equal(improved.share_matrix(), expected)

    @pytest.mark.parametrize("case", ["past-a-long-run", "clean-to-the-end", "last-level",
                                      "after-a-move"])
    def test_skip_over_clean_levels_matches_reference(self, monkeypatch, reference, case):
        # shares (1, 2, 3) * k on levels k = 0..m-1, comonotone but for a
        # few values moved between two agents at one level each, so that row
        # 0 passes runs of CLEAN_RUN clean pairs and jumps (from, to): past a
        # long run, to the row's end, or to its last level, each in a second
        # window that the row's end cuts short; or, after a transfer raised
        # agent 1 at level 0, to a level that only the raised value violates
        run = allocation_module.CLEAN_RUN
        m, moves, want = {
            "past-a-long-run": (80, [(0, 1, 70, 150.0)], [(1 + run, 70)]),
            "clean-to-the-end": (60, [(0, 1, 1, 1.5)], [(2 + run, 60)]),
            "last-level": (60, [(0, 1, 59, 70.0)], [(1 + run, 59)]),
            "after-a-move": (80, [(0, 1, 20, 20.5), (1, 2, 60, 119.75)],
                             [(1 + run, 20), (21 + run, 60)]),
        }[case]
        x = np.outer((1.0, 2.0, 3.0), np.arange(m))
        for giver, taker, level, amount in moves:
            x[giver, level] -= amount
            x[taker, level] += amount
        probs = np.full(m, 1.0 / m)
        if case == "past-a-long-run":  # the mass-weighted transfer
            probs = np.random.default_rng(3).dirichlet(np.ones(m))
        find, jumps = allocation_module._next_violated, []

        def spy(here, mirror, l, gap_tol):
            jumps.append((l, find(here, mirror, l, gap_tol)))
            return jumps[-1][1]

        monkeypatch.setattr(allocation_module, "_next_violated", spy)
        A = alloc(probs, *x)
        improved, cert = comonotonic_improvement(A)
        x_ref, transfers = reference.repair(A)
        assert cert.transfers == transfers > 0
        assert np.array_equal(improved.share_matrix(), x_ref)  # one atom per level
        assert jumps[:len(want)] == want

    def test_violator_without_partner_ends(self):
        # agent 0 falls by 5e-20 from S = 0 to S = 1e-10 and agent 1 is flat:
        # the violation is within the comonotonicity tolerance, 1e-9 * 1e-10,
        # and nobody can absorb it, so the pair makes no transfer and the
        # sweeps must stop
        A = alloc((0.5, 0.5), (5e-20, 0.0), (0.0, 0.0), aggregate=(0.0, 1e-10))
        with deadline(5.0):
            improved, cert = comonotonic_improvement(A)
        assert cert.transfers == 0
        assert np.array_equal(improved.share_matrix(), A.share_matrix())
        assert cert.all_verified
        # falls of 5e-10 and 1.7e-9 are past that tolerance, but each input
        # clears within clearing's floor, 1e-9 (residuals 5e-10 and -1e-10;
        # 9e-10 and -9e-10): the fall is clearing's residual, which the sweeps
        # leave and the certificate reports, not a breach
        for share in ((5e-10, 0.0), (9e-10, 1e-10 - 9e-10)):
            A = alloc((0.5, 0.5), share, (0.0, 0.0), aggregate=(0.0, 1e-10))
            assert check_clearing(A)[0]
            with deadline(5.0):
                improved, cert = comonotonic_improvement(A)
            assert cert.transfers == 0
            assert np.array_equal(improved.share_matrix(), A.share_matrix())
            assert not cert.comonotonic_ok
            assert all(cert.convex_order_ok)

    def test_random_instances(self, rng):
        # the heavier 200+ instance loop lives in the acceptance suite
        for _ in range(40):
            n_agents = int(rng.integers(2, 4))
            n_atoms = int(rng.integers(3, 6))
            probs = rng.dirichlet(np.ones(n_atoms))
            s = rng.choice([0.0, 1.0, 1.0, 2.0, 3.0], size=n_atoms)
            rows = [rng.normal(scale=2.0, size=n_atoms) for _ in range(n_agents - 1)]
            rows.append(s - np.sum(rows, axis=0))
            A = alloc(probs, *rows)
            improved, cert = comonotonic_improvement(A)
            assert cert.all_verified, f"certificate failed: {cert}"
            assert cert.clearing_residual <= RESIDUAL_TOL
            assert is_comonotonic(improved)

    def test_certificate_matches_per_agent_checks(self, rng, reference):
        # the certificate checks all agents in one kernel call; it must read
        # as the one-row checks and the merged-law reference, agent by agent
        for _ in range(60):
            n_agents = int(rng.integers(2, 6))
            n_atoms = int(rng.integers(2, 30))
            probs = rng.dirichlet(np.ones(n_atoms))
            rows = [rng.normal(size=n_atoms) for _ in range(n_agents)]
            A = alloc(probs, *rows)
            improved, cert = comonotonic_improvement(A)
            pairs = list(zip(improved.shares, A.shares))
            assert cert.convex_order_ok == tuple(convex_order_leq(y, x) for y, x in pairs)
            assert cert.convex_order_ok == tuple(reference.convex_order(y, x)
                                                 for y, x in pairs)

    def test_consistent_measures_never_lose(self, rng):
        spec = RiskMeasureSpec.es(0.7)
        for _ in range(30):
            probs = rng.dirichlet(np.ones(4))
            s = rng.choice([0.0, 1.0, 2.0], size=4)
            x1 = rng.normal(size=4)
            A = alloc(probs, x1, s - x1)
            improved, cert = comonotonic_improvement(A, measures=(spec, spec))
            for d in cert.objective_deltas:
                assert d <= 1e-9, f"ES got worse by {d}"
            for old, new in zip(A.shares, improved.shares):
                assert evaluate(spec, new) <= evaluate(spec, old) + 1e-9
