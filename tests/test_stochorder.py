"""Stop-loss transforms, the convex order, and mean-preserving contractions."""

import numpy as np
import pytest

from coshare import (
    ContractError,
    FiniteSpace,
    RandomVariable,
    convex_order_leq,
    moments,
    pigou_dalton_transfer,
    stop_loss,
)


def rv(probs, values):
    sp = FiniteSpace((f"w{k}", p) for k, p in enumerate(probs))
    return RandomVariable(sp, values)


class TestStopLoss:
    # E[(X - t)^+] for X = (1,2,3) w.p. (0.2,0.3,0.5)
    def setup_method(self):
        self.X = rv((0.2, 0.3, 0.5), (1.0, 2.0, 3.0))

    def test_hand_values(self):
        assert stop_loss(self.X, -1.0) == pytest.approx(3.3, abs=1e-12)
        assert stop_loss(self.X, 0.0) == pytest.approx(2.3, abs=1e-12)
        assert stop_loss(self.X, 1.0) == pytest.approx(1.3, abs=1e-12)
        assert stop_loss(self.X, 2.0) == pytest.approx(0.5, abs=1e-12)
        assert stop_loss(self.X, 2.5) == pytest.approx(0.25, abs=1e-12)
        assert stop_loss(self.X, 3.0) == 0.0
        assert stop_loss(self.X, 7.0) == 0.0

    def test_convexity_in_threshold(self, rng):
        # slopes of t -> E[(X-t)^+] must be nondecreasing
        for _ in range(30):
            X = rv(rng.dirichlet(np.ones(4)), rng.normal(size=4))
            ts = np.sort(rng.uniform(-3, 3, size=6))
            vals = [stop_loss(X, t) for t in ts]
            slopes = np.diff(vals) / np.diff(ts)
            assert np.all(np.diff(slopes) >= -1e-9)
            assert np.all(slopes <= 1e-12) and np.all(slopes >= -1.0 - 1e-12)



class TestConvexOrder:
    def test_constant_at_mean_is_minimal(self):
        X = rv((0.2, 0.3, 0.5), (1.0, 2.0, 3.0))
        Y = RandomVariable.constant(X.space, 2.3)
        assert convex_order_leq(Y, X)
        assert not convex_order_leq(X, Y)

    def test_reflexive(self):
        X = rv((0.25,) * 4, (0.0, 1.0, 1.0, 3.0))
        assert convex_order_leq(X, X)

    def test_mean_shift_breaks_comparison(self):
        X = rv((0.5, 0.5), (0.0, 2.0))
        assert not convex_order_leq(X + 0.1, X)
        assert not convex_order_leq(X, X + 0.1)

    def test_law_invariance_across_spaces(self):
        Y = rv((0.5, 0.5), (0.0, 2.0))
        X = rv((0.25,) * 4, (0.0, 0.0, 2.0, 2.0))
        assert convex_order_leq(Y, X) and convex_order_leq(X, Y)

    def test_incomparable_pair(self):
        X = rv((0.25,) * 4, (-3.0, 1.0, 1.0, 1.0))
        Y = rv((0.25,) * 4, (-1.0, -1.0, -1.0, 3.0))
        assert not convex_order_leq(X, Y)
        assert not convex_order_leq(Y, X)

    def test_contraction_reduces(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            X = rv(rng.dirichlet(np.ones(n)), rng.normal(scale=2.0, size=n))
            order = np.argsort(X.values)
            lo, hi = int(order[0]), int(order[-1])
            if X.values[hi] - X.values[lo] < 1e-6:
                continue
            p = X.space.probs
            gap = X.values[hi] - X.values[lo]
            a = rng.uniform(0, 1) * gap * p[lo] / (p[hi] + p[lo])
            b = a * p[hi] / p[lo]
            Y = pigou_dalton_transfer(X, hi, lo, a, b)
            assert convex_order_leq(Y, X)


class TestPigouDalton:
    def test_symmetric_transfer(self):
        X = rv((0.5, 0.5), (3.0, 1.0))
        Y = pigou_dalton_transfer(X, 0, 1, 0.5, 0.5)
        assert np.array_equal(Y.values, (2.5, 1.5))
        assert Y.space is X.space

    def test_full_contraction_hits_bound(self):
        X = rv((0.5, 0.5), (3.0, 1.0))
        Y = pigou_dalton_transfer(X, 0, 1, 1.0, 1.0)
        assert np.array_equal(Y.values, (2.0, 2.0))

    def test_unequal_masses(self):
        # p_down*a == p_up*b: 0.2*2.0 == 0.8*0.5
        X = rv((0.2, 0.8), (5.0, 0.0))
        Y = pigou_dalton_transfer(X, 0, 1, 2.0, 0.5)
        assert np.array_equal(Y.values, (3.0, 0.5))
        assert moments(Y)[0] == pytest.approx(moments(X)[0], abs=1e-12)

    def test_zero_transfer_is_identity(self):
        X = rv((0.5, 0.5), (3.0, 1.0))
        assert pigou_dalton_transfer(X, 0, 1, 0.0, 0.0) is X

    def test_rejections(self):
        X = rv((0.5, 0.5), (3.0, 1.0))
        with pytest.raises(ContractError):
            pigou_dalton_transfer(X, 0, 1, -0.1, -0.1)
        with pytest.raises(ContractError):
            pigou_dalton_transfer(X, 0, 1, 0.5, 0.25)  # weight identity
        with pytest.raises(ContractError):
            pigou_dalton_transfer(X, 1, 0, 0.5, 0.5)  # wrong direction
        with pytest.raises(ContractError):
            pigou_dalton_transfer(X, 0, 1, 1.1, 1.1)  # overshoots crossing
