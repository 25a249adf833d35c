"""Exhaustive grid minimizers used as ground truth for the solvers."""

import numpy as np
import pytest

from coshare import (
    Constraint,
    DomainError,
    FiniteSpace,
    GridSpec,
    IdiosyncraticRetention,
    InfeasibleError,
    PathwiseBounds,
    RandomVariable,
    RiskMeasureSpec,
    ScalarFamily,
    ValidationError,
    comonotone_minimize,
    grid_minimize,
    is_comonotonic,
)
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
        space = FiniteSpace.uniform(4)
        S = RandomVariable(space, (0.0, 1.0, 2.0, 3.0))
        grid = GridSpec.uniform(2, 4, 0.0, 10.0, 0.01)
        with pytest.raises(DomainError):
            grid_minimize(space, S, (RiskMeasureSpec.es(0.5),) * 3, (), grid)

    def test_input_validation(self):
        space, S = two_state()
        grid = GridSpec.uniform(1, 2, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
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
