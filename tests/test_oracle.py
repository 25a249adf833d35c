"""Exhaustive grid minimizers used as ground truth for the solvers."""

import tracemalloc

import numpy as np
import pytest

from coshare import (
    AggregateEnvelope,
    Constraint,
    DomainError,
    FiniteSpace,
    GridSpec,
    IdiosyncraticRetention,
    InfeasibleError,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskMeasureSpec,
    ScalarFamily,
    ValidationError,
    comonotone_minimize,
    grid_minimize,
    is_comonotonic,
)
from coshare import oracle
from coshare.cli import _example_43_space
from coshare.constraints import feasible_mask
from coshare.probspace import VALUE_TOL, value_scale
from coshare.riskmeasures import measure_values


def two_state():
    space = FiniteSpace.uniform(2)
    return space, RandomVariable(space, (0.0, 2.0))


ES_PAIR = (RiskMeasureSpec.es(0.5), RiskMeasureSpec.es(0.5))


class TestGridSpec:
    def test_ranges_xor_family(self):
        with pytest.raises(ValidationError):
            GridSpec()
        fam = ScalarFamily(((0.0,),), ((1.0,),), 0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            GridSpec(ranges=(((0.0, 1.0, 0.5),),), family=fam)

    def test_axis_validation(self):
        for bad in ((0.0, 1.0, 0.0), (0.0, 1.0, -0.5), (1.0, 0.0, 0.5),
                    (0.0, 1.0, 0.3)):
            with pytest.raises(ValidationError):
                GridSpec(ranges=((bad,),))

    def test_shapes(self):
        grid = GridSpec.uniform(2, 3, 0.0, 1.0, 0.5)
        assert grid.n_free_agents == 2 and grid.n_atoms == 3
        with pytest.raises(ValidationError):
            GridSpec(ranges=(((0.0, 1.0, 1.0),), ((0.0, 1.0, 1.0),) * 2))
        with pytest.raises(ValidationError):
            ScalarFamily(((0.0,),), ((1.0,), (1.0,)), 0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            ScalarFamily(((0.0,), (0.0, 1.0)), ((1.0,), (1.0, 0.0)), 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("ranges", (
        (((0, 1),),), ((5,),), 5, (((0, 1, "x"),),), (((0, None, 1),),)))
    def test_malformed_ranges(self, ranges):
        with pytest.raises(ValidationError, match="triple of reals"):
            GridSpec(ranges=ranges)

    @pytest.mark.parametrize("args", (
        (((0, "x"),), ((1, 0),), 0, 1, 1),
        ((5,), ((1,),), 0, 1, 1),
        (((0,),), ((1,),), None, 1, 1),
        (((0,),), ((1,),), 0, "hi", 1)))
    def test_malformed_family(self, args):
        with pytest.raises(ValidationError, match="reals"):
            ScalarFamily(*args)

    def test_family_properties(self):
        grid = GridSpec.from_family(((0.0, 0.0),), ((1.0, 0.0),), 0.0, 1.0, 0.5)
        assert grid.n_free_agents == 1 and grid.n_atoms == 2


class TestGridMinimize:
    def test_tie_breaks_in_grid_order(self):
        # (0,0), (0,1), (1,1) all reach the minimum 2; C-order picks (0,0)
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        best, value = grid_minimize(space, S, ES_PAIR, (), grid)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(best.shares[0].values, (0.0, 0.0))
        assert np.array_equal(best.shares[1].values, (0.0, 2.0))

    def test_constraints_filter_candidates(self):
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        cons = (Constraint(PathwiseBounds(lower=0.5), scope=0),)
        best, value = grid_minimize(space, S, ES_PAIR, cons, grid)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(best.shares[0].values, (1.0, 1.0))

    def test_infeasible_grid(self):
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        cons = (Constraint(PathwiseBounds(lower=5.0), scope=0),)
        with pytest.raises(InfeasibleError) as exc:
            grid_minimize(space, S, ES_PAIR, cons, grid)
        assert "no feasible grid point" in str(exc.value)
        assert exc.value.details["points"] == 4

    def test_family_sweep(self):
        space, S = two_state()
        grid = GridSpec.from_family(((0.0, 0.0),), ((1.0, 0.0),), 0.5, 1.5, 0.5)
        best, value = grid_minimize(space, S, ES_PAIR, (), grid)
        # objective a + 2 along the family, so the sweep floor wins
        assert value == pytest.approx(2.5, abs=1e-12)
        assert np.array_equal(best.shares[0].values, (0.5, 0.0))

    def test_size_limit(self):
        # the limit counts the grid before statewise constraints prune it
        space = FiniteSpace.uniform(4)
        S = RandomVariable(space, (0.0, 1.0, 2.0, 3.0))
        grid = GridSpec.uniform(2, 4, 0.0, 10.0, 0.01)
        for cons in ((), (Constraint(PathwiseBounds(upper=0.0)),)):
            with pytest.raises(DomainError):
                grid_minimize(space, S, (RiskMeasureSpec.es(0.5),) * 3, cons, grid)

    def test_input_validation(self):
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError, match="grid has 1 free agents, so it needs "
                                                 "2 objectives; got 1"):
            grid_minimize(space, S, (RiskMeasureSpec.es(0.5),), (), grid)
        with pytest.raises(ValidationError):
            grid_minimize(space, S, ("es", "es"), (), grid)
        other = FiniteSpace((("a", 0.4), ("b", 0.6)))
        with pytest.raises(ValidationError):
            grid_minimize(space, RandomVariable(other, (0.0, 2.0)),
                          ES_PAIR, (), grid)
        with pytest.raises(ValidationError):
            grid_minimize(space, S, ES_PAIR, (),
                          GridSpec.uniform(1, 3, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("minimize", (grid_minimize, comonotone_minimize))
    def test_retention_endowment_on_another_space(self, minimize):
        # the grid lives on the given space; an endowment elsewhere is an
        # error, not a silent comparison of unrelated atoms or a broadcast
        space = FiniteSpace.uniform(3)
        S = RandomVariable(space, (0.0, 1.0, 2.0))
        grid = GridSpec.uniform(1, 3, 0.0, 2.0, 0.5)
        for other in (FiniteSpace((f"v{k}", 1.0 / 3) for k in range(3)),
                      FiniteSpace.uniform(4)):
            zeta = RandomVariable(other, np.arange(other.size, dtype=float))
            cons = (Constraint(IdiosyncraticRetention(zeta, 1.0), scope=0),)
            with pytest.raises(ValidationError, match="different space"):
                minimize(space, S, ES_PAIR, cons, grid)


class TestComonotone:
    def test_restriction_never_improves(self, rng):
        for _ in range(20):
            space = FiniteSpace.uniform(3)
            S = RandomVariable(space, np.sort(rng.choice([0.0, 1.0, 2.0], size=3)))
            specs = (RiskMeasureSpec.es(float(rng.uniform(0.2, 0.8))),) * 2
            grid = GridSpec.uniform(1, 3, -1.0, 2.0, 0.5)
            _, free_value = grid_minimize(space, S, specs, (), grid)
            best, com_value = comonotone_minimize(space, S, specs, (), grid)
            assert com_value >= free_value - 1e-12
            assert is_comonotonic(best)

    def test_level_set_constancy_enforced(self):
        # S = (1, 2, 2): a comonotone share must agree on the tied atoms
        space = FiniteSpace.uniform(3)
        S = RandomVariable(space, (1.0, 2.0, 2.0))
        grid = GridSpec(ranges=(((0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)),))
        best, _ = comonotone_minimize(space, S, ES_PAIR, (), grid)
        assert best.shares[0].values[1] == best.shares[0].values[2]


class TestVectorizedMeasures:
    def test_matches_scalar_evaluator(self, rng, reference):
        # the batch kernel, row by row, against the scalar reference loops
        specs = (
            RiskMeasureSpec.var(0.7),
            RiskMeasureSpec.es(0.7),
            RiskMeasureSpec.es(0.25),
            RiskMeasureSpec.mean_variance(1.5),
            RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.5, 1.0),
        )
        for m in (1, 4, 9):
            space = reference.draw(rng, m).space
            V = np.vstack([reference.draw(rng, m).values for _ in range(200)])
            for spec in specs:
                got = measure_values(spec, V, space.probs)
                for row, g in zip(V, got):
                    want = reference.measure(spec, RandomVariable(space, row))
                    assert g == pytest.approx(want, rel=1e-12, abs=1e-12), spec.describe()


def _outcome(minimize, args):
    """(share bits, value bits) of a minimization, or its InfeasibleError details."""
    try:
        best, value = minimize(*args)
    except InfeasibleError as exc:
        return exc.details
    return [share.values.tobytes() for share in best.shares], np.float64(value).tobytes()


def _random_problem(rng, n=None, m=None):
    """A small seeded oracle problem: coarse grids, so values tie often.
    Without n and m it has two or three agents on two atoms, or two on three.

    Its measures and constraints sort and sum each row on its own.  The
    kernels that take a matrix product with the probabilities (mean-variance,
    expected convex loss, expectation and Orlicz bands) round as BLAS does,
    and BLAS rounds a one-row product differently from a many-row one."""
    if m is None:
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4)) if m == 2 else 2
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
    S = RandomVariable(space, rng.choice([0.0, 1.0, 1.0, 2.0, 3.0], size=m))
    kinds = (RiskMeasureSpec.es(0.5), RiskMeasureSpec.var(0.6),
             RiskMeasureSpec.es(0.8), RiskMeasureSpec.es(0.25))
    objectives = tuple(kinds[int(k)] for k in rng.integers(0, len(kinds), size=n))
    constraints = []
    if rng.random() < 0.5:
        constraints.append(Constraint(PathwiseBounds(lower=-0.5, upper=2.5)))
    if rng.random() < 0.3:
        constraints.append(Constraint(RiskCeiling(RiskMeasureSpec.var(0.5), 0.5), scope=0))
    if rng.random() < 0.1:
        constraints.append(Constraint(PathwiseBounds(lower=5.0), scope=0))
    if rng.random() < 0.5:
        grid = GridSpec.uniform(n - 1, m, -1.0, 2.0, 0.5)
    else:
        grid = GridSpec.from_family(rng.choice([0.0, 0.5], size=(n - 1, m)),
                                    rng.choice([0.0, 0.5, 1.0], size=(n - 1, m)),
                                    -2.0, 3.0, 0.125)
    return space, S, objectives, tuple(constraints), grid


def _larger_problems(rng):
    """_random_problem with three free agents on two atoms, and with two or
    one free agents on four atoms, each on a ranges grid (729, 256 and 2,401
    points)."""
    problems = []
    for n, m, lo, hi in ((4, 2, -0.5, 0.5), (3, 4, 0.0, 0.5), (2, 4, -1.0, 2.0)):
        space, S, objectives, constraints, _ = _random_problem(rng, n, m)
        grid = GridSpec.uniform(n - 1, m, lo, hi, 0.5)
        problems.append((space, S, objectives, constraints, grid))
    return problems


def _statewise_problem(rng):
    """_random_problem with statewise constraints added, each scoped to one
    agent or to all: pathwise bounds with an edge on a grid value or up to
    1.5 tolerances off one, an aggregate envelope through grid values at
    the aggregate's levels, and a retention."""
    space, S, objectives, constraints, grid = _random_problem(rng)
    n, m = len(objectives), space.size
    scopes = (None,) + tuple(range(n))

    def scoped(kind):
        return Constraint(kind, scope=scopes[int(rng.integers(0, len(scopes)))])

    extra = []
    if rng.random() < 0.6:
        tol = VALUE_TOL * value_scale(S.values)
        lo = float(rng.choice([-1.0, -0.5, 0.0, 0.5])
                   + rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5]) * tol)
        hi = lo + float(rng.choice([1.0, 1.5, 2.5]))
        extra.append(scoped(PathwiseBounds(lower=lo, upper=hi)))
    if rng.random() < 0.5:
        levels = np.unique(S.values)
        low = rng.choice([-1.0, -0.5, 0.0], size=levels.size)
        high = low + rng.choice([0.5, 1.0, 2.0], size=levels.size)
        extra.append(scoped(AggregateEnvelope(tuple(zip(levels, low)),
                                              tuple(zip(levels, high)))))
    if rng.random() < 0.4:
        endowment = RandomVariable(space, rng.choice([0.0, 0.5, 1.0, 1.5], size=m))
        extra.append(scoped(IdiosyncraticRetention(endowment, float(rng.choice([0.5, 1.0])))))
    merged = constraints + tuple(extra)
    return space, S, objectives, tuple(merged[k] for k in rng.permutation(len(merged))), grid


def _record_prunes(monkeypatch):
    """A list that gets the axis sizes before and after each pruning."""
    prune, sizes = oracle._prune_axes, []

    def recording(axes, *rest):
        pruned = prune(axes, *rest)
        sizes.append(([ax.size for ax in axes], [ax.size for ax in pruned]))
        return pruned

    monkeypatch.setattr(oracle, "_prune_axes", recording)
    return sizes


class TestPruning:
    @pytest.mark.parametrize("rows", (1, 7, 64))
    @pytest.mark.parametrize("minimize", (grid_minimize, comonotone_minimize))
    def test_pruning_changes_nothing(self, rng, monkeypatch, rows, minimize):
        # statewise constraints drop axis values before the grid is built;
        # against the whole grid, each minimizer gives the same point and
        # value bits, or the same InfeasibleError details
        problems = [_statewise_problem(rng) for _ in range(40)]
        assert {len(args[2]) for args in problems} == {2, 3}
        monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: rows)
        sizes = _record_prunes(monkeypatch)
        pruned = [_outcome(minimize, args) for args in problems]
        # some axes shrink, some empty, and some problems stay feasible
        assert any(before != after and min(after) for before, after in sizes)
        assert any(min(after) == 0 for _, after in sizes)
        assert any(not isinstance(p, dict) for p in pruned)
        monkeypatch.setattr(oracle, "_prune_axes", lambda axes, *rest: axes)
        assert [_outcome(minimize, args) for args in problems] == pruned

    def test_pruning_drops_only_infeasible_points(self, rng):
        # on the whole grid of each seeded ranges problem, every point with a
        # coordinate pruning dropped fails feasible_mask
        dropped = 0
        for _ in range(80):
            space, S, objectives, constraints, grid = _statewise_problem(rng)
            if grid.ranges is None:
                continue
            n, m = len(objectives), space.size
            axes = oracle._grid_axes(grid)
            pruned = oracle._prune_axes(axes, n, S.values, space.probs, constraints)
            mesh = np.meshgrid(*axes, indexing="ij")
            points = np.stack(mesh, axis=-1).reshape(-1, len(axes))
            free = points.reshape(-1, n - 1, m)
            tensors = [free[:, i] for i in range(n - 1)] + [S.values - free.sum(axis=1)]
            feasible = feasible_mask(tensors, S.values, space.probs, constraints)
            kept = np.all([np.isin(points[:, k], sub) for k, sub in enumerate(pruned)], axis=0)
            assert not (feasible & ~kept).any()
            dropped += int((~kept).sum())
        assert dropped

    @pytest.mark.parametrize("minimize", (grid_minimize, comonotone_minimize))
    def test_faults_behind_an_emptied_axis(self, monkeypatch, minimize):
        # in one-point blocks the grid is pruned, and pruning empties agent
        # 0's axes; a bad scope or an envelope that does not cover S after
        # it still raises, and alone it is infeasible with the whole grid's
        # point count
        monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: 1)
        sizes = _record_prunes(monkeypatch)
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        empty = Constraint(PathwiseBounds(lower=5.0), scope=0)
        short = AggregateEnvelope(lower=((0.0, 0.0), (1.0, 0.0)),
                                  upper=((0.0, 2.0), (1.0, 2.0)))
        for fault in (Constraint(PathwiseBounds(), scope=2), Constraint(short)):
            with pytest.raises(ValidationError):
                minimize(space, S, ES_PAIR, (empty, fault), grid)
        with pytest.raises(InfeasibleError) as exc:
            minimize(space, S, ES_PAIR, (empty,), grid)
        assert exc.value.details == {"points": 4,
                                     "comonotone": minimize is comonotone_minimize}
        assert sizes == [([2, 2], [0, 0])]


class TestChunking:
    @pytest.mark.parametrize("rows", (1, 7, 64))
    @pytest.mark.parametrize("minimize", (grid_minimize, comonotone_minimize))
    def test_chunks_match_one_block(self, rng, monkeypatch, rows, minimize):
        # every seeded grid fits one block by default; cut into blocks of
        # rows points, each minimizer gives the same point and value bits,
        # or the same InfeasibleError details
        problems = [_random_problem(rng) for _ in range(40)] + _larger_problems(rng)
        whole = [_outcome(minimize, args) for args in problems]
        assert any(isinstance(w, dict) for w in whole)
        monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: rows)
        for args, want in zip(problems, whole):
            assert _outcome(minimize, args) == want

    @pytest.mark.parametrize("rows", (1, 2, 3, 7, 64))
    def test_streaming_tie_break(self, monkeypatch, rows):
        # one free agent on one atom, its objective read from a table: near
        # ties within TIE_EPS fall in different blocks, and the pick is the
        # first grid point within TIE_EPS * (1 + |min|) of the minimum
        table = np.array([3.0, 1.0 + 9e-13, 2.0, 1.0 + 4e-13, 1.0 + 3e-12, 1.0,
                          1.0 + 2e-13, 1.0, 5.0, 1.0 + 1e-13])
        space = FiniteSpace.uniform(1)
        S = RandomVariable(space, (0.0,))
        grid = GridSpec.uniform(1, 1, 0.0, 9.0, 1.0)

        def lookup(spec, V, probs):
            return table[V[:, 0].astype(int)] if spec.level == 0.5 else np.zeros(len(V))

        monkeypatch.setattr(oracle, "measure_values", lookup)
        monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: rows)
        objectives = (RiskMeasureSpec.es(0.5), RiskMeasureSpec.es(0.25))
        best, value = grid_minimize(space, S, objectives, (), grid)
        vmin = table.min()
        first = int(np.argmax(table <= vmin + oracle.TIE_EPS * (1.0 + abs(vmin))))
        assert first == 1
        assert best.shares[0].values[0] == first and value == table[first]

    def test_memory_bounded_by_chunk(self):
        # ex-4.3's unconstrained 33^4 grid, which no constraint prunes,
        # traces about 5 MiB in 33 blocks, and about 110 MiB as one block
        space, S, measures, _ = _example_43_space()
        grid = GridSpec.uniform(1, 4, 0.0, 4.0, 0.125)
        tracemalloc.start()
        try:
            _, value = grid_minimize(space, S, measures, (), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(2.0, abs=1e-9)
        assert peak < 32 * 2 ** 20
