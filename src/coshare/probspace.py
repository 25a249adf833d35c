"""Finite atomic probability spaces, random variables, and a Gamma(2,1) adapter.

Everything downstream (orders, risk measures, allocations, oracles) runs on
:class:`FiniteSpace` and :class:`RandomVariable`.  The only continuous object
in the library is :class:`GammaAggregate`, the aggregate-loss distribution of
the two-agent value-at-risk scenario, which is handled analytically.

Conventions fixed here and used throughout:

* quantiles are *lower* quantiles, ``inf{x : P(X <= x) >= u}``;
* cumulative-probability comparisons tolerate ``1e-12`` of float drift, so
  atom probabilities like ``0.9925 + 0.0025`` still reach a ``0.995`` level;
* values within ``1e-12`` of a level's first value belong to that level,
  and a level's mass is the numpy sum of its atoms' probabilities in sorted
  order; :func:`level_partition` is the one definition of both, read by
  extracted distributions, conditioning, comonotonicity and the improvement;
* checks of values in the aggregate's units (clearing, comonotonicity,
  convex order, feasibility) pass within ``VALUE_TOL`` (or a caller's base
  tolerance) times :func:`value_scale`: absolute up to scale 1, relative above.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

PROB_SUM_TOL = 1e-12
VALUE_MERGE_TOL = 1e-12
CUM_PROB_TOL = 1e-12
GAMMA_ROOT_TOL = 1e-10
VALUE_TOL = 1e-9


class FiniteSpace:
    """Ordered finite probability space with labelled atoms.

    Atoms are ``(label, prob)`` pairs; labels must be unique, probabilities
    strictly positive and summing to one within ``1e-12``.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("labels", "probs")

    def __init__(self, atoms):
        atoms = list(atoms)
        if not atoms:
            raise ValidationError("a space needs at least one atom")
        labels = tuple(str(label) for label, _ in atoms)
        if len(set(labels)) != len(labels):
            raise ValidationError("atom labels must be unique")
        probs = np.array([float(p) for _, p in atoms], dtype=float)
        if not np.isfinite(probs).all() or (probs <= 0.0).any():
            raise ValidationError("atom probabilities must be finite and strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"atom probabilities sum to {total!r}, expected 1 within 1e-12")
        probs.setflags(write=False)
        self.labels = labels
        self.probs = probs

    @classmethod
    def uniform(cls, n):
        """n equally likely atoms labelled w0, w1, ..."""
        if n < 1:
            raise ValidationError("need at least one atom")
        return cls((f"w{k}", 1.0 / n) for k in range(n))

    @property
    def size(self):
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash((self.labels, self.probs.tobytes()))

    def __repr__(self):
        inner = ", ".join(f"({lbl!r}, {p:g})" for lbl, p in zip(self.labels, self.probs))
        return f"FiniteSpace([{inner}])"


class RandomVariable:
    """Real value per atom of a :class:`FiniteSpace`.

    Supports pointwise arithmetic against variables on the same space and
    against scalars, which keeps test and CLI code close to the underlying
    algebra of shares.
    """

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        if not isinstance(space, FiniteSpace):
            raise ValidationError("space must be a FiniteSpace")
        values = np.array(values, dtype=float)
        if values.shape != (space.size,):
            raise ValidationError(
                f"need one value per atom ({space.size} atoms, {values.size} values)"
            )
        if not np.isfinite(values).all():
            raise ValidationError("values must all be finite")
        values.setflags(write=False)
        self.space = space
        self.values = values

    @classmethod
    def constant(cls, space, c):
        return cls(space, np.full(space.size, float(c)))

    def _binary(self, other, op):
        if isinstance(other, RandomVariable):
            if other.space != self.space:
                raise ValidationError("operands live on different spaces")
            return RandomVariable(self.space, op(self.values, other.values))
        return RandomVariable(self.space, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __neg__(self):
        return RandomVariable(self.space, -self.values)

    def __repr__(self):
        return f"RandomVariable({np.array2string(self.values, precision=6)})"


@dataclass(frozen=True)
class GammaAggregate:
    """Gamma(2,1) aggregate loss: cdf(q) = 1 - (1+q)e^{-q} on q >= 0."""

    def cdf(self, q):
        if q <= 0.0:
            return 0.0
        return 1.0 - (1.0 + q) * math.exp(-q)


LevelPartition = namedtuple("LevelPartition", "order starts level_of masses")


def level_partition(values, probs):
    """LevelPartition(order, starts, level_of, masses) of values: order holds
    the atoms in stable sorted order, and level k, the atoms
    order[starts[k]:starts[k + 1]] (the last level runs to the end), holds
    those within VALUE_MERGE_TOL of its first value; level_of[a] is the level
    of atom a, and masses[k] the numpy sum of level k's probs in that order."""
    order = np.argsort(values, kind="stable")
    bounds, first = [], None
    for pos, v in enumerate(values[order].tolist()):
        if bounds and v - first <= VALUE_MERGE_TOL:
            continue
        bounds.append(pos)
        first = v
    bounds = np.array(bounds + [order.size], dtype=np.intp)
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    level_of = np.empty_like(order)
    level_of[order] = np.repeat(np.arange(starts.size), sizes)
    masses = probs[order[starts]]
    for k in (sizes > 1).nonzero()[0].tolist():
        masses[k] = probs[order[bounds[k]:bounds[k + 1]]].sum()
    return LevelPartition(order, starts, level_of, masses)


def value_scale(values):
    """max(1, max |values|), the factor value tolerances are multiplied by."""
    return max(1.0, float(np.abs(values).max()))


def agent_sum(parts):
    """Sum of equal-shape arrays, one per agent, in one new buffer: 0.0 plus
    the first, then each next one added in place.  That is numpy's own order
    for np.sum over the agents axis of a stacked block with two or more
    atoms, so the bits are the same, without numpy's loop over the short
    agents axis one row at a time.  (A one-atom stack of eight or more
    agents numpy sums pairwise; this sums it in agent order.)"""
    parts = iter(parts)
    total = np.add(0.0, next(parts))
    for part in parts:
        np.add(total, part, out=total)
    return total


def rows_any(B):
    """B.any(axis=1) for a boolean rows x k block, as the boolean matrix
    product with ones(k): exact, with no call per row, where numpy's any
    reduces a short axis one row at a time (3 to 4x slower at k = 3 to 4).
    A row stops at its first True; a long row with none is scanned cell by
    cell, a few times slower than numpy's vector loop."""
    return B @ np.ones(B.shape[1], dtype=bool)


def rows_all(B):
    """B.all(axis=1) for a boolean block, as not rows_any(not B)."""
    return ~rows_any(~B)


def distribution_of(X):
    """Law of X as an ordered list of (value, prob) pairs: one pair per level
    of level_partition, so values are strictly increasing and probabilities
    sum to one up to 1e-12."""
    part = level_partition(X.values, X.space.probs)
    return list(zip(X.values[part.order[part.starts]].tolist(), part.masses.tolist()))


def moments(X):
    """Probability-weighted (mean, variance) of X; variance is never negative."""
    p = X.space.probs
    mean = float(p @ X.values)
    var = float(p @ (X.values - mean) ** 2)
    return mean, max(var, 0.0)


def _brentq(f, a, b, xtol, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) have opposite signs, to
    within xtol + 4 eps |root|, by Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step as the
    common C implementation of it, whose results it repeats bit for bit."""
    rtol = 4 * math.ulp(1.0)
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ConvergenceError(f"no root within {xtol:g} after {maxiter} steps",
                           last_iterate=xcur)


def gamma_quantile(g, u):
    """Root of cdf(q) = u by bracketed root finding, absolute tolerance 1e-10."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {u!r}")
    hi = 1.0
    while g.cdf(hi) <= u:
        hi *= 2.0
    return float(_brentq(lambda q: g.cdf(q) - u, 0.0, hi, GAMMA_ROOT_TOL))
