"""VaR, expected shortfall, mean-variance, and convex-ladder loads."""

from fractions import Fraction

import numpy as np
import pytest

from coshare import (
    Consistency,
    DomainError,
    FiniteSpace,
    RandomVariable,
    RiskMeasureSpec,
    ValidationError,
    convex_ladder,
    cx_consistency_flag,
    es,
    evaluate,
    expected_convex_loss,
    mean_variance,
    moments,
    var,
)
from coshare import riskmeasures
from coshare.riskmeasures import measure_values


def rv(probs, values):
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    return RandomVariable(sp, values)


@pytest.fixture
def skewed():
    return rv((0.2, 0.3, 0.5), (1.0, 2.0, 3.0))


class TestSpec:
    def test_factories_and_describe(self):
        assert RiskMeasureSpec.var(0.995).describe() == "VaR(0.995)"
        assert RiskMeasureSpec.es(0.99).describe() == "ES(0.99)"
        assert RiskMeasureSpec.mean_variance(1).describe() == "MeanVariance(1)"
        spec = RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.5, 1.0)
        assert spec.ladder == (0.5, 2.0, 0.5, 1.0)
        assert "ExpectedConvexLoss" in spec.describe()

    def test_validation(self):
        with pytest.raises(ValidationError):
            RiskMeasureSpec("entropic")
        for bad in (0.0, 1.0, -0.5, None):
            with pytest.raises(ValidationError):
                RiskMeasureSpec("var", level=bad)
            with pytest.raises(ValidationError):
                RiskMeasureSpec("es", level=bad)
        for bad in (0.0, -1.0, None):
            with pytest.raises(ValidationError):
                RiskMeasureSpec("mean_variance", delta=bad)
        # reals only: a string or a bool is refused before any comparison
        for bad in ("0.5", True):
            for make in (lambda v: RiskMeasureSpec("var", level=v), RiskMeasureSpec.var,
                         RiskMeasureSpec.es):
                with pytest.raises(ValidationError, match="level must be a real number"):
                    make(bad)
        for bad in ("2", True):
            for make in (lambda v: RiskMeasureSpec("mean_variance", delta=v),
                         RiskMeasureSpec.mean_variance):
                with pytest.raises(ValidationError, match="delta must be a real number"):
                    make(bad)
        assert RiskMeasureSpec("es", level=Fraction(1, 2)).level == Fraction(1, 2)
        with pytest.raises(ValidationError):
            RiskMeasureSpec.expected_convex_loss(2.0, 0.5, 0.0, 1.0)  # alpha > beta
        with pytest.raises(ValidationError):
            RiskMeasureSpec.expected_convex_loss(-0.1, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            RiskMeasureSpec.expected_convex_loss(0.5, 1.0, 0.0, -1.0)
        with pytest.raises(ValidationError):
            RiskMeasureSpec("expected_convex_loss", ladder=(1.0, 2.0))

    def test_consistency_flags(self):
        assert cx_consistency_flag(RiskMeasureSpec.var(0.9)) is Consistency.NOT_CONSISTENT
        assert cx_consistency_flag(RiskMeasureSpec.es(0.9)) is Consistency.CONSISTENT
        assert cx_consistency_flag(RiskMeasureSpec.mean_variance(1.0)) is Consistency.CONSISTENT
        assert cx_consistency_flag(
            RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.5, 1.0)
        ) is Consistency.CONSISTENT


class TestVarEs:
    def test_var_lower_quantile(self, skewed):
        assert var(skewed, 0.5) == 2.0
        assert var(skewed, 0.51) == 3.0
        assert var(skewed, 0.1) == 1.0

    def test_es_hand_values(self, skewed):
        # tail masses split the boundary atom exactly
        assert es(skewed, 0.5) == pytest.approx(3.0, abs=1e-12)
        assert es(skewed, 0.4) == pytest.approx(17.0 / 6.0, abs=1e-12)
        assert es(skewed, 0.2) == pytest.approx(2.625, abs=1e-12)

    def test_es_three_state_example(self):
        X = rv((1 / 3,) * 3, (0.25, 0.25, 1.75))
        assert es(X, 0.2) == pytest.approx(0.875, abs=1e-12)

    def test_es_level_domain(self, skewed):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                es(skewed, bad)

    def test_es_dominates_var(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            X = rv(rng.dirichlet(np.ones(n)), rng.normal(scale=3.0, size=n))
            a = float(rng.uniform(0.05, 0.95))
            assert es(X, a) >= var(X, a) - 1e-12

    def test_es_monotone_in_level_and_above_mean(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            X = rv(rng.dirichlet(np.ones(n)), rng.normal(size=n))
            levels = np.sort(rng.uniform(0.02, 0.98, size=4))
            vals = [es(X, a) for a in levels]
            assert np.all(np.diff(vals) >= -1e-10)
            assert vals[0] >= moments(X)[0] - 1e-10

    def test_es_of_constant(self):
        X = rv((0.5, 0.5), (4.0, 4.0))
        assert es(X, 0.3) == pytest.approx(4.0, abs=1e-12)


class TestMeanVariance:
    def test_hand_value(self, skewed):
        # mean 2.3, variance 0.61
        assert mean_variance(skewed, 2.0) == pytest.approx(3.52, abs=1e-12)

    def test_delta_domain(self, skewed):
        with pytest.raises(DomainError):
            mean_variance(skewed, 0.0)

    def test_translation(self, skewed):
        assert mean_variance(skewed + 5.0, 1.5) == pytest.approx(
            mean_variance(skewed, 1.5) + 5.0, abs=1e-12)

    def test_column_subtraction_bits_match_broadcast(self, rng):
        # on every shape, short and tall, with signed zeros, inf and 1e308
        # entries, the bits are those of the broadcast over the rows
        delta = 1.5
        spec = RiskMeasureSpec.mean_variance(delta)
        for atoms in range(1, 13):
            probs = rng.dirichlet(np.ones(atoms))
            for rows in (1, atoms, atoms + 1, 20, 2047, 2048, 4000, 20000):
                V = rng.normal(size=(rows, atoms))
                special = rng.random(V.shape) < 0.05
                V[special] = rng.choice([-0.0, 0.0, np.inf, -np.inf, 1e308, -1e308],
                                        size=int(special.sum()))
                with np.errstate(all="ignore"):
                    got = measure_values(spec, V, probs)
                    mean = V @ probs
                    want = mean + delta * (((V - mean[:, None]) ** 2) @ probs)
                assert got.tobytes() == want.tobytes(), (rows, atoms)


class TestConvexLadder:
    LADDER = (0.5, 2.0, 0.5, 1.0)

    def test_pointwise(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 3.0])
        got = convex_ladder(x, self.LADDER)
        assert got == pytest.approx((0.0, 0.0, 0.25, 0.5, 3.5), abs=1e-12)

    def test_expected_value(self):
        X = rv((1 / 3,) * 3, (0.0, 1.0, 3.0))
        assert expected_convex_loss(X, self.LADDER) == pytest.approx(1.25, abs=1e-12)

    def test_convexity(self, rng):
        for _ in range(30):
            ladder = (rng.uniform(0, 1), rng.uniform(1, 3),
                      rng.uniform(-1, 1), rng.uniform(0, 2))
            xs = np.sort(rng.uniform(-3, 5, size=5))
            ys = convex_ladder(xs, ladder)
            slopes = np.diff(ys) / np.diff(xs)
            assert np.all(np.diff(slopes) >= -1e-9)


def test_evaluate_dispatch(skewed):
    assert evaluate(RiskMeasureSpec.var(0.5), skewed) == var(skewed, 0.5)
    assert evaluate(RiskMeasureSpec.es(0.4), skewed) == es(skewed, 0.4)
    assert evaluate(RiskMeasureSpec.mean_variance(2.0), skewed) == mean_variance(skewed, 2.0)
    ladder = (0.5, 2.0, 0.5, 1.0)
    assert evaluate(
        RiskMeasureSpec.expected_convex_loss(*ladder), skewed
    ) == expected_convex_loss(skewed, ladder)


class TestAgainstReference:
    """One-row kernel calls against the scalar loops they replaced, on seeded
    inputs with m = 1..40 atoms, exact ties and near ties 1e-13 apart."""

    def test_measures_match_scalar_loops(self, rng, reference):
        ladder = (0.5, 2.0, 0.5, 1.0)
        for _ in range(600):
            X = reference.draw(rng, int(rng.integers(1, 41)))
            level = float(rng.choice((0.25, 0.5, 0.9, 0.995, rng.uniform(0.01, 0.99))))
            delta = float(rng.uniform(0.1, 3.0))
            # the kernel does not merge near-tied atoms, so VaR may pick the
            # later atom of a pair that the reference merges; the draws' near
            # ties are 1e-13 apart
            assert abs(var(X, level) - reference.measure(RiskMeasureSpec.var(level), X)) \
                <= 1e-12
            want = reference.measure(RiskMeasureSpec.es(level), X)
            assert es(X, level) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert mean_variance(X, delta) == reference.measure(
                RiskMeasureSpec.mean_variance(delta), X)
            # dot product against the loop's left-to-right sum: a few ulps
            want = reference.measure(RiskMeasureSpec.expected_convex_loss(*ladder), X)
            assert expected_convex_loss(X, ladder) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_scalar_entry_points_are_one_row_calls(self, rng, reference):
        for _ in range(50):
            X = reference.draw(rng, int(rng.integers(1, 12)))
            for spec in (RiskMeasureSpec.var(0.7), RiskMeasureSpec.es(0.7),
                         RiskMeasureSpec.mean_variance(1.5),
                         RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.5, 1.0)):
                got = evaluate(spec, X)
                assert type(got) is float
                assert got == measure_values(spec, X.values[None, :], X.space.probs)[0]

    def test_ladder_validation(self, skewed):
        with pytest.raises(ValidationError):
            expected_convex_loss(skewed, (2.0, 0.5, 0.0, 1.0))
        with pytest.raises(ValidationError):
            expected_convex_loss(skewed, (1.0, 2.0))


# every ES and VaR level of the reproduce cases, with 0.5 beside them
REPRODUCE_LEVELS = (0.2, 1.0 / 3.0, 0.5, 0.99, 0.9925, 0.995)


class TestNarrowKernel:
    """The column kernel for blocks of few atoms and many rows, bit for bit
    against the stable-argsort path, on values with exact ties, near ties
    1e-13 apart and both signed zeros."""

    @staticmethod
    def draw(rng, rows, m):
        V = rng.choice([-0.0, 0.0, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 2.0], size=(rows, m))
        V[::3] = rng.normal(size=V[::3].shape)
        return V

    @staticmethod
    def masses(rng, m):
        # equal masses, Dirichlet ones, and Dirichlet ones with a tie
        tied = rng.dirichlet(np.ones(m))
        tied[-1] = tied[0]
        return np.full(m, 1.0 / m), rng.dirichlet(np.ones(m)), tied / tied.sum()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_bits_match_argsort(self, rng, monkeypatch, m):
        # measure_values on both sides of the crossover, and past two spans,
        # against the argsort path; the kernel runs exactly on the blocks of
        # at most _NARROW_ATOMS atoms and _NARROW_ROWS rows per atom
        shapes = []
        kernel = riskmeasures._narrow_tail
        monkeypatch.setattr(riskmeasures, "_narrow_tail",
                            lambda spec, V, probs: shapes.append(V.shape)
                            or kernel(spec, V, probs))
        crossover = riskmeasures._NARROW_ROWS * m
        narrow = m <= riskmeasures._NARROW_ATOMS
        for probs in self.masses(rng, m):
            for rows in (1, crossover - 1, crossover, 2 * riskmeasures._NARROW_SPAN + 3):
                V = self.draw(rng, rows, m)
                for level in REPRODUCE_LEVELS:
                    for spec in (RiskMeasureSpec.es(level), RiskMeasureSpec.var(level)):
                        shapes.clear()
                        got = measure_values(spec, V, probs)
                        assert bool(shapes) == (narrow and rows >= crossover)
                        assert sum(shape[0] for shape in shapes) in (0, rows)
                        with monkeypatch.context() as patch:
                            patch.setattr(riskmeasures, "_NARROW_ATOMS", 0)
                            want = measure_values(spec, V, probs)
                        assert got.tobytes() == want.tobytes(), (spec, rows)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_kernel_bits_on_any_block(self, rng, monkeypatch, m):
        # the kernel itself, on blocks the path choice sends to argsort, in
        # either memory order; it sorts a copy and leaves V as it was
        monkeypatch.setattr(riskmeasures, "_NARROW_ATOMS", 0)
        for probs in self.masses(rng, m):
            for rows in (1, 2, 25, 300):
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    V = layout(self.draw(rng, rows, m))
                    before = V.tobytes()
                    for level in REPRODUCE_LEVELS:
                        for spec in (RiskMeasureSpec.es(level), RiskMeasureSpec.var(level)):
                            got = riskmeasures._narrow_tail(spec, V, probs)
                            assert V.tobytes() == before
                            want = measure_values(spec, V, probs)
                            assert got.tobytes() == want.tobytes(), (spec, rows)
