"""Finite spaces, distributions, quantiles, and the Gamma(2,1) adapter."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from coshare import (
    ConvergenceError,
    DomainError,
    FiniteSpace,
    GammaAggregate,
    RandomVariable,
    ValidationError,
    distribution_of,
    gamma_quantile,
    moments,
    var,
)
from coshare.probspace import VALUE_TOL, _brentq, level_partition
from coshare.stochorder import _stop_loss_rows, convex_order_mask


def make_space(probs, prefix="w"):
    return FiniteSpace((f"{prefix}{k}", p) for k, p in enumerate(probs))


class TestFiniteSpace:
    def test_atoms_and_probs(self):
        sp = make_space((0.2, 0.3, 0.5))
        assert sp.labels == ("w0", "w1", "w2")
        assert np.allclose(sp.probs, (0.2, 0.3, 0.5))
        assert sp.size == 3 and len(sp) == 3

    def test_uniform(self):
        sp = FiniteSpace.uniform(4)
        assert np.allclose(sp.probs, 0.25)
        with pytest.raises(ValidationError):
            FiniteSpace.uniform(0)
        for bad in (2.5, True, "2"):
            with pytest.raises(ValidationError, match="atom count must be an integer"):
                FiniteSpace.uniform(bad)
        assert FiniteSpace.uniform(np.int64(2)).size == 2

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValidationError):
            make_space(())
        with pytest.raises(ValidationError):
            make_space((0.5, 0.6))
        with pytest.raises(ValidationError):
            make_space((1.2, -0.2))
        with pytest.raises(ValidationError):
            make_space((0.5, 0.0, 0.5))
        with pytest.raises(ValidationError):
            FiniteSpace((("a", 0.5), ("a", 0.5)))
        # a sum past the float range reads inf, with no overflow warning
        with pytest.raises(ValidationError, match="sum to inf"):
            make_space((1e300, 1.7976931348623157e308))

    def test_fraction_probs_accepted(self):
        sp = make_space((Fraction(1, 3),) * 3)
        assert abs(float(sp.probs.sum()) - 1.0) <= 1e-12

    def test_probs_are_immutable(self):
        sp = make_space((0.5, 0.5))
        with pytest.raises(ValueError):
            sp.probs[0] = 0.9

    def test_equality_and_hash(self):
        a = make_space((0.5, 0.5))
        b = make_space((0.5, 0.5))
        assert a == b and hash(a) == hash(b)
        assert a != make_space((0.4, 0.6))


class TestRandomVariable:
    def test_shape_and_finiteness(self):
        sp = make_space((0.5, 0.5))
        with pytest.raises(ValidationError):
            RandomVariable(sp, (1.0,))
        with pytest.raises(ValidationError):
            RandomVariable(sp, (1.0, math.inf))
        with pytest.raises(ValidationError):
            RandomVariable("not a space", (1.0, 2.0))

    def test_arithmetic(self):
        sp = make_space((0.5, 0.5))
        X = RandomVariable(sp, (1.0, 2.0))
        Y = RandomVariable(sp, (3.0, 5.0))
        assert np.array_equal((X + Y).values, (4.0, 7.0))
        assert np.array_equal((Y - X).values, (2.0, 3.0))
        assert np.array_equal((2 * X).values, (2.0, 4.0))
        assert np.array_equal((X / 2).values, (0.5, 1.0))
        assert np.array_equal((-X).values, (-1.0, -2.0))
        assert np.array_equal((1 + X).values, (2.0, 3.0))
        assert np.array_equal((5 - X).values, (4.0, 3.0))

    def test_cross_space_arithmetic_rejected(self):
        X = RandomVariable(make_space((0.5, 0.5)), (1.0, 2.0))
        Y = RandomVariable(make_space((0.4, 0.6)), (1.0, 2.0))
        with pytest.raises(ValidationError):
            X + Y

    def test_constant(self):
        sp = make_space((0.25,) * 4)
        assert np.array_equal(RandomVariable.constant(sp, 3).values, [3.0] * 4)


class TestDistribution:
    def test_sorted_and_merged(self):
        sp = make_space((0.2, 0.3, 0.5))
        X = RandomVariable(sp, (2.0, 1.0, 2.0))
        assert distribution_of(X) == [(1.0, 0.3), (2.0, pytest.approx(0.7))]

    def test_merge_tolerance(self):
        sp = make_space((0.5, 0.5))
        close = RandomVariable(sp, (1.0, 1.0 + 5e-13))
        assert len(distribution_of(close)) == 1
        apart = RandomVariable(sp, (1.0, 1.0 + 1e-9))
        assert len(distribution_of(apart)) == 2

    def test_mass_conserved(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(n))
            p = p / p.sum()
            sp = make_space(p)
            X = RandomVariable(sp, rng.normal(size=n))
            dist = distribution_of(X)
            assert abs(sum(q for _, q in dist) - 1.0) <= 1e-12
            vals = [v for v, _ in dist]
            assert vals == sorted(vals)

    def test_level_sets_measure_from_first_value(self):
        # 0.6e-12 joins the level of 0; 1.2e-12 is too far from 0 and starts
        # a new level even though it is within 1e-12 of its neighbour
        values = np.array([1.2e-12, 0.0, 5.0, 0.6e-12, 0.0])
        probs = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        part = level_partition(values, probs)
        assert part.order.tolist() == [1, 4, 3, 0, 2]
        assert part.starts.tolist() == [0, 3, 4]
        assert part.level_of.tolist() == [1, 0, 2, 0, 0]
        # each level's mass is the numpy sum of its probabilities in sorted order
        assert part.masses.tolist() == [np.array([0.2, 0.25, 0.15]).sum(), 0.1, 0.3]

    def test_matches_reference_loop(self, rng, reference):
        for _ in range(300):
            X = reference.draw(rng, int(rng.integers(1, 41)))
            assert distribution_of(X) == reference.distribution(X)


class TestQuantile:
    # VaR is the lower quantile inf{x : P(X <= x) >= u}; here on (1,2,3)
    # w.p. (0.2,0.3,0.5)
    def setup_method(self):
        self.X = RandomVariable(make_space((0.2, 0.3, 0.5)), (1.0, 2.0, 3.0))

    def test_boundary_levels(self):
        assert var(self.X, 0.1) == 1.0
        assert var(self.X, 0.2) == 1.0  # cum hits the level exactly
        assert var(self.X, 0.2 + 1e-13) == 1.0  # within 1e-12 slack
        assert var(self.X, 0.21) == 2.0
        assert var(self.X, 0.5) == 2.0
        assert var(self.X, 0.500001) == 3.0
        assert var(self.X, 0.999) == 3.0

    def test_domain(self):
        for u in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                var(self.X, u)


def test_moments_hand_case():
    X = RandomVariable(make_space((0.2, 0.3, 0.5)), (1.0, 2.0, 3.0))
    mean, var = moments(X)
    assert mean == pytest.approx(2.3, abs=1e-15)
    assert var == pytest.approx(0.61, abs=1e-12)
    const = RandomVariable(make_space((0.5, 0.5)), (4.0, 4.0))
    assert moments(const) == (4.0, 0.0)


class TestGamma:
    def test_cdf_pdf(self):
        g = GammaAggregate()
        assert g.cdf(0.0) == 0.0 and g.cdf(-1.0) == 0.0
        assert g.cdf(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_inverts_cdf(self):
        g = GammaAggregate()
        for u in (0.01, 0.25, 0.5, 0.9, 0.95, 0.995):
            q = gamma_quantile(g, u)
            assert g.cdf(q) == pytest.approx(u, abs=1e-9)
            assert q == pytest.approx(stats.gamma.ppf(u, 2), abs=1e-8)
        with pytest.raises(DomainError):
            gamma_quantile(g, 1.0)

    def test_brentq_matches_scipy(self):
        """The private root finder repeats scipy.optimize.brentq bit for bit,
        and stops where scipy does when the step cap is reached."""
        rng = np.random.default_rng(20261019)
        g = GammaAggregate()
        cases = [(lambda x: x - 1.0, 1.0, 2.0, 1e-10), (lambda x: x - 2.0, 1.0, 2.0, 1e-10)]
        while len(cases) < 1500:
            family = len(cases) % 4
            r, w = float(rng.normal()), float(rng.exponential())
            a, b = r - float(rng.exponential(3.0)), r + float(rng.exponential(3.0))
            xtol = float(rng.choice((1e-3, 1e-6, 1e-10, 2e-12)))
            if family == 0:  # gamma_quantile's own root
                def f(q, u=float(rng.uniform(1e-4, 1.0 - 1e-4))):
                    return g.cdf(q) - u
                a, b = 0.0, float(rng.choice((16.0, 32.0, 64.0)))
            elif family == 1:  # a cubic with one real root, at r
                def f(x, r=r, p=float(rng.normal()), w=w):
                    return (x - r) * (x * x + p * x + p * p / 4 + w)
            elif family == 2:
                def f(x, r=r, k=float(rng.uniform(0.1, 5.0))):
                    return math.exp(k * (x - r)) - 1.0
            else:  # several roots, as a wiggle allows
                def f(x, r=r, k=float(rng.uniform(0.5, 20.0)), w=w):
                    return math.atan(k * (x - r)) + w * math.sin(3.0 * x)
            if f(a) * f(b) < 0:
                cases.append((f, a, b, xtol))
        for f, a, b, xtol in cases:
            assert _brentq(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)
        for f, a, b, xtol in cases[2:50]:
            x, result = optimize.brentq(f, a, b, xtol=xtol, maxiter=3,
                                        full_output=True, disp=False)
            if result.converged:
                assert _brentq(f, a, b, xtol, maxiter=3) == x
            else:
                with pytest.raises(ConvergenceError) as caught:
                    _brentq(f, a, b, xtol, maxiter=3)
                assert caught.value.last_iterate == x

    def test_var95_value(self):
        # 1 - (1+q)e^{-q} = 0.95 at q ~ 4.7439
        assert gamma_quantile(GammaAggregate(), 0.95) == pytest.approx(
            4.7439, abs=1e-3)


def _planted_block(rows, n, m, seed, density):
    """rows x n x m floats: quarters that tie and cancel, and normals of
    several scales, with -0.0, +-inf and nan planted at about density."""
    rng = np.random.default_rng(seed)
    F = np.where(rng.random((rows, n, m)) < 0.5,
                 rng.integers(-8, 9, size=(rows, n, m)) / 4.0,
                 rng.normal(size=(rows, n, m)) * 10.0 ** rng.integers(-12, 9, size=(rows, n, m)))
    plant = rng.random(F.shape) < density
    F[plant] = rng.choice([-0.0, np.inf, -np.inf, np.nan], size=int(plant.sum()))
    return F


def _bits(a):
    """The bytes of a, with every nan as one nan: which nan an operation
    returns (its sign) depends on how numpy's loop orders the operands."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestShortAxisReductions:
    """convex_order_mask reads max |value| from its sort's ends, and its
    verdicts equal the numpy form, bit for bit, on planted blocks."""

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), m=st.integers(1, 9), rows=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.0, 0.02, 0.3]))
    def test_same_bits_as_numpy(self, n, m, rows, seed, density):
        F = _planted_block(rows, n, m, seed, density)
        with np.errstate(invalid="ignore", over="ignore"):
            # convex_order_mask's max |value| over a row of merged atoms, and
            # its verdicts against the numpy form on first and last agents
            V = F.reshape(rows, n * m)
            _, h, _ = _stop_loss_rows(V, np.zeros(n * m))
            span = np.maximum(np.abs(h[:, 0]), np.abs(h[:, -1]))
            assert _bits(span) == _bits(np.abs(V).max(axis=1))
            p = np.full(m, 1.0 / m)
            V, w = np.hstack((F[:, 0], F[:, -1])), np.concatenate((p, -p))
            _, _, gaps = _stop_loss_rows(V, w)
            tol = VALUE_TOL * np.maximum(np.abs(V).max(axis=1), 1.0)
            want = (np.abs(V @ w) <= tol) & (gaps <= tol[:, None]).all(axis=1)
            assert np.array_equal(convex_order_mask(F[:, 0], p, F[:, -1], p), want)
