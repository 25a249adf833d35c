"""Exhaustive grid minimizers used as ground truth for the solvers."""

import tracemalloc

import numpy as np
import pytest

from coshare import (
    AggregateEnvelope,
    Constraint,
    DomainError,
    ExpectationConstraint,
    FiniteSpace,
    GridSpec,
    IdiosyncraticRetention,
    InfeasibleError,
    OrliczBound,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskMeasureSpec,
    ScalarFamily,
    ValidationError,
    comonotone_minimize,
    convex_ladder,
    grid_minimize,
    is_comonotonic,
)
from coshare import oracle
from coshare.allocation import comonotone_mask
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
        # a span of more steps than a float counts
        for bad in ((0.0, 1e308, 1e-10), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValidationError, match="finite number of steps"):
                GridSpec(ranges=((bad,),))
            with pytest.raises(ValidationError, match="finite number of steps"):
                ScalarFamily(((0.0,),), ((1.0,),), *bad)

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

    def test_size_limit_before_any_axis(self):
        # the limit is checked on the product of the axis counts, so a grid
        # of 1e16 points (two axes of 1e8 + 1) allocates no axis
        space, S = two_state()
        tracemalloc.start()
        try:
            grid = GridSpec(ranges=(((0.0, 1e8, 1.0), (0.0, 1e8, 1.0)),))
            with pytest.raises(DomainError, match="grid of 10000000200000001 points"):
                grid_minimize(space, S, ES_PAIR, (), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

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

    def test_memory_bounded_by_chunk_with_two_free_agents(self, monkeypatch):
        # n = 3 on two atoms: 960,000 points, whose trailing factor, the
        # second agent's 400 x 400 = 160,000 rows, is just under one block
        # of 174,762; it traces under the same bound in six blocks, and
        # its pick, in the second block, matches one block of the whole
        # grid bit for bit
        space = FiniteSpace.uniform(2)
        S = RandomVariable(space, (2.0, 4.0))
        objectives = (RiskMeasureSpec.es(0.25), RiskMeasureSpec.es(0.5),
                      RiskMeasureSpec.es(0.75))
        grid = GridSpec(ranges=(((0.0, 1.0, 0.5), (0.0, 0.5, 0.5)),
                                ((0.0, 3.99, 0.01), (0.0, 3.99, 0.01))))
        assert 160_000 < oracle._chunk_rows(3, 2) < 6 * 160_000
        tracemalloc.start()
        try:
            best, value = grid_minimize(space, S, objectives, (), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: 10 ** 6)
        whole, whole_value = grid_minimize(space, S, objectives, (), grid)
        assert best.shares[0].values.tolist() == [0.0, 0.5]
        assert [X.values.tobytes() for X in best.shares] == [
            X.values.tobytes() for X in whole.shares]
        assert np.float64(value).tobytes() == np.float64(whole_value).tobytes()


def _mesh_points(grid):
    """Every point of the grid in grid order, (points, free, atoms), from
    np.meshgrid of its axes (a family: base + a * direction)."""
    axes = oracle._grid_axes(grid)
    if grid.family is not None:
        base, direction = np.array(grid.family.base), np.array(grid.family.direction)
        return base[None] + axes[0][:, None, None] * direction[None]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.reshape(-1) for g in mesh], axis=1)
    return points.reshape(-1, grid.n_free_agents, grid.n_atoms)


# two free agents on three atoms, axes of 3, 5, 2, 2, 3 and 4 values (720
# points), so a block's leading axes can end inside either agent
UNEVEN = GridSpec(ranges=(((0.0, 1.0, 0.5), (0.0, 1.0, 0.25), (-1.0, 0.0, 1.0)),
                          ((0.0, 0.5, 0.5), (1.0, 2.0, 0.5), (0.0, 3.0, 1.0))))
# two free agents on one atom: in blocks of 2 points, the second agent's
# axis alone is cut into parts
ONE_ATOM = GridSpec(ranges=(((0.0, 1.0, 0.5),), ((0.0, 2.0, 0.5),)))
FAMILY = GridSpec.from_family(((0.0, 0.5, 1.0), (1.0, 0.0, -0.25)),
                              ((1.0, 0.0, 0.5), (-0.5, 0.25, 1.0)), -1.0, 1.5, 0.25)


class TestFreeChunks:
    @pytest.mark.parametrize("grid, rows", (
        (UNEVEN, None), (UNEVEN, 1), (UNEVEN, 7), (UNEVEN, 64), (UNEVEN, 500),
        (FAMILY, None), (FAMILY, 4), (ONE_ATOM, 2)),
        ids=("one-block", "rows-1", "rows-7", "rows-64", "rows-500", "family-one-block",
             "family-rows-4", "one-atom-rows-2"))
    def test_blocks_match_meshgrid(self, monkeypatch, grid, rows):
        # the blocks _enumerate gets hold every grid point once, bit for bit
        # and in grid order: a block is the product of its slices' rows, the
        # first slice most significant, and a slice is one C-contiguous
        # (rows, atoms) array per free agent of it, the agents in order; a
        # family block is one slice, and a grid that fits one block (rows
        # None) is one block
        blocks = []
        chunks = oracle._free_chunks

        def recording(*args):
            for block in chunks(*args):
                blocks.append(list(block))
                yield block

        monkeypatch.setattr(oracle, "_free_chunks", recording)
        if rows is not None:
            monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: rows)
        m = grid.n_atoms
        space = FiniteSpace.uniform(m)
        S = RandomVariable(space, np.arange(m, dtype=float))
        grid_minimize(space, S, (RiskMeasureSpec.es(0.5),) * (grid.n_free_agents + 1),
                      (), grid)
        want = _mesh_points(grid)
        assert len(blocks) == 1 if rows is None else len(blocks) > 1
        got = []
        for block in blocks:
            assert len(block) == (1 if grid.family is not None else grid.n_free_agents)
            agents = [piece.first + k for piece in block for k in range(len(piece.shares))]
            assert agents == list(range(grid.n_free_agents))
            sizes = [piece.shares[0].shape[0] for piece in block]
            assert rows is None or np.prod(sizes) <= rows
            for piece, size in zip(block, sizes):
                for V in piece.shares:
                    assert V.dtype == np.float64 and V.flags.c_contiguous
                    assert V.shape == (size, m)
            coords = np.unravel_index(np.arange(np.prod(sizes)), sizes)
            got.append(np.stack([V[coords[j]] for j, piece in enumerate(block)
                                 for V in piece.shares], axis=1))
        assert np.concatenate(got).tobytes() == want.tobytes()

    def test_trailing_factor_is_one_slice(self, monkeypatch):
        # in blocks of 64 points, UNEVEN's second agent trails entirely: the
        # blocks hold its whole factor (2 * 3 * 4 rows) as one slice object,
        # while the first agent straddles the lead cut, one slice per block
        blocks = list(oracle._free_chunks(UNEVEN, oracle._grid_axes(UNEVEN), 64))
        assert len(blocks) == 3 * 5
        assert len({id(block[1]) for block in blocks}) == 1
        assert blocks[0][1].shares[0].shape == (24, 3)
        assert len({id(block[0]) for block in blocks}) == len(blocks)
        assert {block[0].shares[0].shape for block in blocks} == {(2, 3)}


def _whole_grid_minimum(space, S, objectives, constraints, grid, comonotone):
    """(share rows, value) at the first point, in grid order, within TIE_EPS
    * (1 + |min|) of the minimum, or None if no point passes: every point of
    np.meshgrid at once, with feasible_mask, comonotone_mask and
    measure_values on the whole grid."""
    points = _mesh_points(grid)
    free = [np.ascontiguousarray(points[:, i]) for i in range(grid.n_free_agents)]
    total = 0.0
    for V in free:
        total = total + V
    tensors = free + [S.values - total]
    probs = space.probs
    ok = feasible_mask(tensors, S.values, probs, constraints)
    if comonotone:
        ok &= comonotone_mask(tensors, S.values, probs)
    values = np.zeros(len(points))
    for spec, V in zip(objectives, tensors):
        values += measure_values(spec, V, probs)
    if not ok.any():
        return None
    vmin = values[ok].min()
    first = np.flatnonzero(ok & (values <= vmin + oracle.TIE_EPS * (1.0 + abs(vmin))))[0]
    return [V[first] for V in tensors], values[first]


def _matmul_problem(rng, n, m, steps):
    """Mean-variance objectives on n agents and m atoms, as the benchmark's
    solver-vs-oracle operations, a ranges grid of steps values per axis,
    and bands that take V @ probs: an expectation bound, an Orlicz bound
    and a mean-variance or ES ceiling, each scoped to a free agent, the
    implied agent or all, with bounds at quantiles of the band's values
    over the grid, so that some points pass and some fail."""
    space = FiniteSpace((f"w{k}", p) for k, p in enumerate(rng.dirichlet(np.ones(m))))
    S = RandomVariable(space, np.sort(rng.uniform(0.0, 3.0, size=m)))
    objectives = tuple(RiskMeasureSpec.mean_variance(float(d))
                       for d in rng.uniform(0.3, 3.0, size=n))
    centre = S.values / n
    grid = GridSpec(ranges=tuple(tuple((c - 0.5, c + 0.5, 1.0 / (steps - 1)) for c in centre)
                                 for _ in range(n - 1)))
    points = _mesh_points(grid)
    shares = {i: points[:, i] for i in range(n - 1)}
    shares[n - 1] = S.values - points.sum(axis=1)
    ceiling = (RiskMeasureSpec.mean_variance(float(rng.uniform(0.5, 2.0))) if rng.random() < 0.5
               else RiskMeasureSpec.es(float(rng.choice([0.25, 0.5]))))
    kinds = (lambda b: ExpectationConstraint("<=", b),
             lambda b: OrliczBound((0.5, 2.0, 0.0, 0.5), b),
             lambda b: RiskCeiling(ceiling, b))
    probs = space.probs
    measures = (lambda V: V @ probs,
                lambda V: convex_ladder(V, (0.5, 2.0, 0.0, 0.5)) @ probs,
                lambda V: measure_values(ceiling, V, probs))
    constraints = []
    for make, measure, scope in zip(kinds, measures, rng.permutation([0, n - 1, None])):
        scope = None if scope is None else int(scope)
        agents = range(n) if scope is None else (scope,)
        values = np.concatenate([measure(shares[i]) for i in agents])
        constraints.append(Constraint(make(float(np.quantile(values, rng.uniform(0.5, 0.95)))),
                                      scope=scope))
    return space, S, objectives, tuple(constraints), grid


class TestProductEnumeration:
    @pytest.mark.parametrize("rows", (None, 64, 7, 1))
    @pytest.mark.parametrize("minimize", (grid_minimize, comonotone_minimize))
    def test_matches_whole_grid(self, rng, monkeypatch, rows, minimize):
        # n = 3 and 4 on two and three atoms, against the whole grid scored
        # at once: the same point, or the same InfeasibleError.  The values'
        # bits match unless the oracle scored an objective on one row: BLAS
        # rounds a one-row V @ probs differently from a many-row one, so
        # there they agree within 4 ulps
        comonotone = minimize is comonotone_minimize
        one_row = []
        score = oracle.measure_values

        def spying(spec, V, probs):
            one_row.append(len(V) == 1)
            return score(spec, V, probs)

        monkeypatch.setattr(oracle, "measure_values", spying)
        if rows is not None:
            monkeypatch.setattr(oracle, "_chunk_rows", lambda n_agents, n_atoms: rows)
        outcomes = set()
        for n, m, steps in ((3, 2, 4), (3, 3, 3), (4, 2, 3), (4, 3, 2)):
            for _ in range(2):
                args = _matmul_problem(rng, n, m, steps)
                want = _whole_grid_minimum(*args, comonotone)
                one_row.clear()
                if want is None:
                    with pytest.raises(InfeasibleError):
                        minimize(*args)
                    outcomes.add("infeasible")
                    continue
                best, value = minimize(*args)
                assert [V.tobytes() for V in want[0]] == [
                    share.values.tobytes() for share in best.shares]
                if any(one_row):
                    assert abs(value - want[1]) <= 4 * np.spacing(abs(want[1]))
                    outcomes.add("one-row")
                else:
                    assert np.float64(value).tobytes() == want[1].tobytes()
                    outcomes.add("bits")
        # one block scores many rows; in smaller ones a leading agent is one row
        assert ("bits" if rows is None else "one-row") in outcomes

    def test_free_agents_scored_once(self, monkeypatch):
        # n = 3, m = 3 on 5^6 points: each free agent's objective sees at
        # most its factor's 125 rows in one call; only the implied agent's
        # sees the product
        seen = {}
        score = oracle.measure_values

        def spying(spec, V, probs):
            seen.setdefault(spec.delta, []).append(len(V))
            return score(spec, V, probs)

        monkeypatch.setattr(oracle, "measure_values", spying)
        space = FiniteSpace((f"w{k}", p) for k, p in enumerate((0.2, 0.3, 0.5)))
        S = RandomVariable(space, (0.5, 1.5, 2.5))
        objectives = tuple(RiskMeasureSpec.mean_variance(d) for d in (1.0, 2.0, 3.0))
        grid = GridSpec.uniform(2, 3, 0.0, 1.0, 0.25)
        caps = (Constraint(PathwiseBounds(upper=1.5), scope=2),)
        for constraints in ((), caps):
            seen.clear()
            grid_minimize(space, S, objectives, constraints, grid)
            assert seen[1.0] == [125] and seen[2.0] == [125]
            assert len(seen[3.0]) == 1 and 125 < seen[3.0][0] <= 5 ** 6
