"""Finite atomic probability spaces, random variables, and a Gamma(2,1) adapter.

Everything downstream (orders, risk measures, allocations, oracles) runs on
:class:`FiniteSpace` and :class:`RandomVariable`.  The only continuous object
in the library is :class:`GammaAggregate`, the aggregate-loss distribution of
the two-agent value-at-risk scenario, which is handled analytically.

Conventions fixed here and used throughout:

* quantiles are *lower* quantiles, ``inf{x : P(X <= x) >= u}``;
* cumulative-probability comparisons tolerate ``1e-12`` of float drift, so
  atom probabilities like ``0.9925 + 0.0025`` still reach a ``0.995`` level;
* every comparison of values passes within ``VALUE_TOL`` (or a caller's
  base tolerance) times :func:`value_scale`, the largest magnitude of the
  values compared, so a problem rescaled by a power of two gets the same
  verdicts and its answers times that power, bit for bit; only clearing,
  whose residual is rounding in a sum of shares, floors that scale at 1
  (``allocation.clearing_tol``);
* values within ``VALUE_TOL * value_scale(values)`` of a level's first
  value belong to that level, and a level's mass is the numpy sum of its
  atoms' probabilities in sorted order; :func:`level_partition` is the one
  definition of both, read by extracted distributions, conditioning,
  comonotonicity and the improvement;
* every number a caller passes is read by :func:`_real` or :func:`_count`,
  and an object argument (a variable, a spec, an allocation) by
  :func:`_instance`.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

PROB_SUM_TOL = 1e-12
CUM_PROB_TOL = 1e-12
GAMMA_ROOT_TOL = 1e-10
VALUE_TOL = 1e-9


def _real(value, what):
    """value as a float: a real number that is not a bool, else
    ValidationError; DomainError for one past the float range, such as an
    int or Fraction that float() cannot convert."""
    if isinstance(value, float):  # float and numpy's float64 need no check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a real number")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} must lie within the float range") from None


def _count(value, message, least=0):
    """value as an int: an integer of at least least that is not a bool,
    else ValidationError(message); DomainError past the float range."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(message)
    if value > sys.float_info.max:
        raise DomainError("a count must lie within the float range")
    return int(value)


def _instance(value, kind, what):
    """value, if it is an instance of the class kind, else ValidationError:
    the _real of the library's objects, so that None or a bare ndarray
    where a RandomVariable belongs is refused by name."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be of type {kind.__name__}, "
                              f"not {type(value).__name__}")
    return value


class FiniteSpace:
    """Ordered finite probability space with labelled atoms.

    Atoms are ``(label, prob)`` pairs; labels must be unique, probabilities
    strictly positive and summing to one within ``1e-12``.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("labels", "probs")

    def __init__(self, atoms):
        try:
            atoms = [(str(label), p) for label, p in atoms]
        except (TypeError, ValueError):  # not an iterable of pairs
            raise ValidationError("a space's atoms must be (label, prob) pairs")
        if not atoms:
            raise ValidationError("a space needs at least one atom")
        labels = tuple(label for label, _ in atoms)
        if len(set(labels)) != len(labels):
            raise ValidationError("atom labels must be unique")
        probs = np.array([_real(p, "every atom probability") for _, p in atoms], dtype=float)
        if not np.isfinite(probs).all() or (probs <= 0.0).any():
            raise ValidationError("atom probabilities must be finite and strictly positive")
        with np.errstate(over="ignore"):  # a sum past the float range reads inf
            total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"atom probabilities sum to {total!r}, expected 1 within 1e-12")
        probs.setflags(write=False)
        self.labels = labels
        self.probs = probs

    @classmethod
    def uniform(cls, n):
        """n equally likely atoms labelled w0, w1, ... (n a count, read by
        _count)."""
        n = _count(n, "the atom count must be an integer of at least 1", 1)
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
        # an integer or float array is read by its dtype, other values one by one
        numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
        if not numeric:
            values = np.array(values, dtype=object)
        if values.shape != (space.size,):
            raise ValidationError(
                f"need one value per atom ({space.size} atoms, {values.size} values)"
            )
        values = (values.astype(float) if numeric else
                  np.array([_real(v, "every value") for v in values.tolist()], dtype=float))
        if not np.isfinite(values).all():
            raise ValidationError("values must all be finite")
        values.setflags(write=False)
        self.space = space
        self.values = values

    @classmethod
    def constant(cls, space, c):
        return cls(space, np.full(space.size, _real(c, "the constant")))

    @np.errstate(all="ignore")  # the new variable reports a value that is not finite
    def _binary(self, other, op):
        if isinstance(other, RandomVariable):
            if other.space != self.space:
                raise ValidationError("operands live on different spaces")
            return RandomVariable(self.space, op(self.values, other.values))
        return RandomVariable(self.space, op(self.values, _real(other, "a scalar operand")))

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
    those within VALUE_TOL * value_scale(values) of its first value;
    level_of[a] is the level of atom a, and masses[k] the numpy sum of level
    k's probs in that order."""
    order = np.argsort(values, kind="stable")
    merge = VALUE_TOL * value_scale(values)
    bounds, first = [], None
    for pos, v in enumerate(values[order].tolist()):
        if bounds and v - first <= merge:
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
    """max |values|, the factor value tolerances are multiplied by: 0 for
    values that are all zero, whose comparisons are then exact."""
    return float(np.abs(values).max())


def distribution_of(X):
    """Law of X as an ordered list of (value, prob) pairs: one pair per level
    of level_partition, so values are strictly increasing and probabilities
    sum to one up to 1e-12."""
    X = _instance(X, RandomVariable, "X")
    part = level_partition(X.values, X.space.probs)
    return list(zip(X.values[part.order[part.starts]].tolist(), part.masses.tolist()))


def moments(X):
    """Probability-weighted (mean, variance) of X; variance is never
    negative, and reads inf where it passes the float range."""
    X = _instance(X, RandomVariable, "X")
    p = X.space.probs
    mean = float(p @ X.values)
    with np.errstate(over="ignore"):
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
    g = _instance(g, GammaAggregate, "g")
    u = _real(u, "quantile level")
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {u!r}")
    hi = 1.0
    while g.cdf(hi) <= u:
        hi *= 2.0
    return float(_brentq(lambda q: g.cdf(q) - u, 0.0, hi, GAMMA_ROOT_TOL))
