"""Brute-force minimizers over constrained allocations on small finite spaces.

Ground truth for the solvers: exhaustive enumeration of candidate share
values on a rational grid, with the last agent's share implied by clearing.
Grids are expected to include every rational value an optimum can sit on
(quarters and eighths in the worked examples), so reported minima are exact
grid points, not approximations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, comonotone_mask
from .constraints import (_BLOCK_CELLS, _band_rows, _bands, _require_space,
                          _statewise_limits)
from .errors import DomainError, InfeasibleError, ValidationError
from .probspace import VALUE_TOL, RandomVariable, _count, _instance, _real, value_scale
from .riskmeasures import RiskMeasureSpec, measure_values

GRID_POINT_LIMIT = 2 * 10 ** 7


def _axis_points(lo, hi, step):
    """Points on the axis lo, lo + step, ..., hi (floats), counted without
    building it."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValidationError("grid ranges must be finite")
    if step <= 0.0:
        raise ValidationError("grid step must be positive")
    if hi < lo:
        raise ValidationError("grid range needs lo <= hi")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValidationError("grid range must span a finite number of steps")
    count = int(round(span))
    if abs(span - count) > 1e-6:
        raise ValidationError("grid range must span a whole number of steps")
    return count + 1


@dataclass(frozen=True)
class ScalarFamily:
    """One-parameter family: free shares = base + a * direction with the
    scalar a swept over [lo, hi] in the given step."""

    base: tuple
    direction: tuple
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        try:
            base = tuple(tuple(_real(v, "every family value") for v in row) for row in self.base)
            direction = tuple(tuple(_real(v, "every family value") for v in row)
                              for row in self.direction)
            lo, hi, step = (_real(v, "lo, hi and step") for v in (self.lo, self.hi, self.step))
        except (TypeError, ValidationError):  # not rows, or not reals
            raise ValidationError("family base and direction need rows of reals, "
                                  "and lo, hi and step reals")
        if not base or len(base) != len(direction):
            raise ValidationError("family base and direction need matching agent rows")
        width = len(base[0])
        if any(len(r) != width for r in base) or any(len(r) != width for r in direction):
            raise ValidationError("family rows must all have the same atom count")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)
        _axis_points(lo, hi, step)


@dataclass(frozen=True)
class GridSpec:
    """Either per-agent-per-atom (lo, hi, step) ranges for the n-1 free
    agents, or a one-parameter ScalarFamily."""

    ranges: tuple = None
    family: ScalarFamily = None

    def __post_init__(self):
        if (self.ranges is None) == (self.family is None):
            raise ValidationError("GridSpec needs exactly one of ranges or family")
        if self.ranges is not None:
            try:
                ranges = tuple(
                    tuple(tuple(_real(v, "every range bound and step") for v in (l, h, s))
                          for (l, h, s) in agent)
                    for agent in self.ranges
                )
            except (TypeError, ValueError, ValidationError):  # not triples of reals
                raise ValidationError("ranges need one (lo, hi, step) triple of "
                                      "reals per free agent and atom")
            if not ranges or any(not agent for agent in ranges):
                raise ValidationError("ranges must list at least one agent and atom")
            width = len(ranges[0])
            if any(len(agent) != width for agent in ranges):
                raise ValidationError("every free agent needs one range per atom")
            for agent in ranges:
                for triple in agent:
                    _axis_points(*triple)
            object.__setattr__(self, "ranges", ranges)
        elif not isinstance(self.family, ScalarFamily):
            raise ValidationError("family must be a ScalarFamily")

    @classmethod
    def uniform(cls, n_free_agents, n_atoms, lo, hi, step):
        triple = (_real(lo, "lo"), _real(hi, "hi"), _real(step, "step"))
        n_free_agents = _count(n_free_agents, "the free agent count must be a nonnegative integer")
        n_atoms = _count(n_atoms, "the atom count must be a nonnegative integer")
        return cls(ranges=((triple,) * n_atoms,) * n_free_agents)

    @classmethod
    def from_family(cls, base, direction, lo, hi, step):
        return cls(family=ScalarFamily(base, direction, lo, hi, step))

    @property
    def n_free_agents(self):
        if self.family is not None:
            return len(self.family.base)
        return len(self.ranges)

    @property
    def n_atoms(self):
        if self.family is not None:
            return len(self.family.base[0])
        return len(self.ranges[0])


def _slices(total, rows):
    """Slices of range(total), in order, of near-equal size at most rows."""
    size = -(-total // -(-total // rows))
    return [slice(k, min(k + size, total)) for k in range(0, total, size)]


def _chunk_rows(n_agents, n_atoms):
    """Grid points per chunk: the falsifier's cell budget over one point's cells."""
    return max(1, _BLOCK_CELLS // (n_agents * n_atoms))


def _grid_axes(grid):
    """The grid's axes in grid (C) order: the family's scalar, or one per
    free agent and atom; the grid's points are their product.  A grid of
    more than GRID_POINT_LIMIT points is refused before any axis is built."""
    if grid.family is not None:
        fam = grid.family
        triples = [(fam.lo, fam.hi, fam.step)]
    else:
        triples = [triple for agent in grid.ranges for triple in agent]
    counts = [_axis_points(*triple) for triple in triples]
    points = math.prod(counts)
    if points > GRID_POINT_LIMIT:
        raise DomainError(f"grid of {points} points exceeds the oracle size limit")
    return [np.linspace(lo, hi, count) for (lo, hi, _), count in zip(triples, counts)]


def _prune_axes(axes, n_agents, s_values, probs, constraints):
    """A ranges grid's axes without the values a statewise band rejects.

    A statewise band tests each atom of a share on its own, so it passes or
    fails a free agent's axis value alone, and the implied agent's S - x
    when there is one free agent.  The test is feasible_mask's, on the same
    floats, so the pruned grid keeps every point feasible_mask would, in
    grid order.  Every constraint, its scope and its fit to the aggregate
    are checked first, whether or not an axis ends up empty."""
    m = s_values.size
    floor, ceiling = _statewise_limits(constraints, n_agents, s_values, probs)
    pruned = []
    for k, axis in enumerate(axes):
        i, a = divmod(k, m)
        keep = ~((axis < floor[i, a]) | (axis > ceiling[i, a]))
        if n_agents == 2:
            implied = s_values[a] - axis
            keep &= ~((implied < floor[1, a]) | (implied > ceiling[1, a]))
        pruned.append(axis[keep])
    return pruned


class _Slice:
    """Candidate shares of the free agents first, first + 1, ... that vary
    together in a block, one C-contiguous (rows, atoms) array per agent: a
    family's every free agent, or one agent of a ranges grid.  tested is
    _test_slice's [shares of the rows that pass, their objective values],
    filled once, however many blocks hold the slice."""

    __slots__ = ("first", "shares", "tested")

    def __init__(self, first, shares):
        self.first, self.shares, self.tested = first, shares, None


def _free_chunks(grid, axes, rows):
    """The grid's blocks, in grid order, each of at most rows points.  A
    block is a list of _Slice, and its points are the product of their rows
    in list order, the first most significant.  A family is one slice per
    block, a part of its scalar axis.  A ranges grid fixes one value of each
    leading axis per block, and its block is one slice per free agent: a
    fully leading agent's one fixed row; the head values of the agent that
    straddles the lead cut beside the product of its trailing axes; and a
    fully trailing agent's whole factor, the product of its axes, which is
    the same slice object in every block.  Each trailing factor is written
    once, straight from the axes, and by the lead cut the factors together
    fit in one block; only when one trailing axis alone exceeds a block is
    that axis, the last agent's, cut into parts."""
    if grid.family is not None:
        base = np.array(grid.family.base)
        direction = np.array(grid.family.direction)
        for part in _slices(axes[0].size, rows):
            scalar = axes[0][part, None]
            yield [_Slice(0, [b + scalar * d for b, d in zip(base, direction)])]
        return
    m, last = grid.n_atoms, grid.n_free_agents - 1
    lead = len(axes) - 1
    while lead > 0 and math.prod(len(ax) for ax in axes[lead - 1:]) <= rows:
        lead -= 1
    # agent i's first fixed[i] atoms are leading axes
    fixed = [min(max(lead - i * m, 0), m) for i in range(last + 1)]
    factors = []
    for i, c in enumerate(fixed):
        own = axes[i * m + c:(i + 1) * m]
        sizes = [ax.size for ax in own]
        cols = np.empty((math.prod(sizes), m - c))
        for a, axis in enumerate(own):
            stride = math.prod(sizes[a + 1:])
            cols.reshape(-1, axis.size, stride, m - c)[:, :, :, a] = axis[:, None]
        cols.setflags(write=False)
        factors.append(cols)
    parts = _slices(math.prod(len(ax) for ax in axes[lead:]), rows)
    whole = {i: _Slice(i, [factors[i]]) for i, c in enumerate(fixed)
             if not c and len(parts) == 1}
    for head in itertools.product(*axes[:lead]):
        for part in parts:
            block = []
            for i, (c, cols) in enumerate(zip(fixed, factors)):
                if i in whole:
                    block.append(whole[i])
                    continue
                if i == last:
                    cols = cols[part]
                share = np.empty((cols.shape[0], m))
                share[:, :c] = head[i * m:i * m + c]
                share[:, c:] = cols
                block.append(_Slice(i, [share]))
            yield block


def _passing(tensors, bands, s_values, probs, tol, comonotone):
    """The rows, in order, of the tensors (one rows x atoms array per agent)
    that pass the bands, whose agents are positions in tensors, and, if
    comonotone, comonotone_mask over every tensor; None when every row
    passes."""
    idx = _band_rows(bands, tensors, s_values, probs, tol)
    if comonotone and idx is None:
        mask = comonotone_mask(tensors, s_values, probs)
        idx = None if mask.all() else np.flatnonzero(mask)
    elif comonotone and idx.size:
        idx = idx[comonotone_mask([V.take(idx, axis=0) for V in tensors], s_values, probs)]
    return idx


def _test_slice(piece, bands, s_values, probs, tol, comonotone):
    """piece.tested, filled the first time: [the shares of the slice's rows
    that pass its agents' bands (and, if comonotone, comonotone_mask), None
    until _enumerate scores them]."""
    if piece.tested is None:
        shares, first = piece.shares, piece.first
        own = [(ci, kind, i - first) for ci, kind, i in bands
               if first <= i < first + len(shares)]
        idx = _passing(shares, own, s_values, probs, tol, comonotone)
        if idx is not None:
            shares = [V.take(idx, axis=0) for V in shares]
        piece.tested = [shares, None]
    return piece.tested


def _enumerate(space, S, objectives, constraints, grid, comonotone):
    """(allocation, value) at the first grid point, in grid order, within
    VALUE_TOL * value_scale(S) of the minimum over the feasible (and, if
    comonotone, comonotonic) points: every objective is in S's units.

    A free agent's share, its bands and its objective read only its own
    axes, so a block of _free_chunks is the product of its slices, and each
    slice keeps only the rows that pass its agents' bands (and, beside
    other slices, comonotone_mask); a fully trailing agent's factor, the
    same slice in every block, is tested and scored once per call.  Only
    the implied agent is written over the product of the kept rows: atom by
    atom, s - (0.0 + x_0 + x_1 + ...) with each free share broadcast over
    its slice's axis, in agent order, into the columns of one C-contiguous
    array.  Only it is tested and scored on the product; the slices' values
    add by broadcast, in agent order from 0.0, so each point's value has
    the bits of a sum over its agents.  A block
    of one slice (one free agent's, or a family's) is one allocation per
    point with the implied agent: its comonotonicity is checked, and its
    objectives scored, only on the points that pass the implied agent."""
    if not isinstance(S, RandomVariable) or S.space != space:
        raise ValidationError("aggregate S must be a RandomVariable on the given space")
    constraints = _require_space(constraints, space)
    grid = _instance(grid, GridSpec, "grid")
    if grid.n_atoms != space.size:
        raise ValidationError("grid atom count must match the space")
    n = grid.n_free_agents + 1
    if len(objectives) != n:
        raise ValidationError(f"grid has {n - 1} free agents, so it needs {n} "
                              f"objectives; got {len(objectives)}")
    for spec in objectives:
        if not isinstance(spec, RiskMeasureSpec):
            raise ValidationError("objectives must be RiskMeasureSpec instances")
    axes = _grid_axes(grid)
    points = math.prod(len(ax) for ax in axes)
    s_values, probs, m = S.values, space.probs, space.size
    tol = VALUE_TOL * value_scale(s_values)
    block_rows = _chunk_rows(n, m)
    # a grid that fits one block is built once whether pruned or not
    if grid.ranges is not None and points > block_rows:
        axes = _prune_axes(axes, n, s_values, probs, constraints)
    bands = _bands(constraints, n, s_values)
    lone = grid.family is not None or n == 2  # every block is one slice
    implied_bands = [(ci, kind, n - 1 if lone else 0) for ci, kind, i in bands if i == n - 1]
    chunks = (_free_chunks(grid, axes, block_rows)
              if all(ax.size for ax in axes) else ())
    # streaming argmin: the pick is the first grid point within the window
    # vmin + tol, which only shrinks as vmin falls.  kept
    # holds, in grid order, (value, shares) of the points inside the current
    # window whose value is below that of every point kept before them; the
    # pick is one of them, and once every block is seen it is the first.
    vmin, kept = np.inf, []
    for block in chunks:
        tested = [_test_slice(piece, bands, s_values, probs, tol, comonotone and not lone)
                  for piece in block]
        shape = [shares[0].shape[0] for shares, _ in tested]
        total = math.prod(shape)
        if not total:
            continue
        owners = [(j, V) for j, (shares, _) in enumerate(tested) for V in shares]
        implied = np.empty((total, m))
        if lone:
            # the free shares' sum, agent by agent from 0.0, whole rows at once
            np.add(0.0, owners[0][1], out=implied)
            for _, V in owners[1:]:
                np.add(implied, V, out=implied)
        else:
            # a ranges slice is one agent's, along its own axis of the product
            along = [[-1 if k == j else 1 for k in range(len(shape))] for j in range(len(shape))]
            # atom by atom, each free share broadcast over its slice's axis
            over = implied.reshape(shape + [m])
            spread = [V.reshape(along[j] + [m]) for j, V in owners]
            for a in range(m):
                col = over[..., a]
                np.add(np.add(0.0, spread[0][..., a]), spread[1][..., a], out=col)
                for E in spread[2:]:
                    np.add(col, E[..., a], out=col)
        for a, s in enumerate(s_values.tolist()):
            np.subtract(s, implied[:, a], out=implied[:, a])
        # the product's points that pass, in grid order (None: all of them)
        checked = tested[0][0] + [implied] if lone else [implied]
        idx = _passing(checked, implied_bands, s_values, probs, tol, comonotone)
        if idx is not None and not idx.size:
            continue
        rows_of = (lambda V: V) if idx is None else (lambda V: V.take(idx, axis=0))
        if lone:
            values = np.zeros(total if idx is None else idx.size)
            for spec, V in zip(objectives, tested[0][0]):
                values += measure_values(spec, rows_of(V), probs)
        else:
            values = 0.0  # grows to the product's shape by broadcasting
            for j, entry in enumerate(tested):
                if entry[1] is None:
                    entry[1] = measure_values(objectives[j], entry[0][0], probs)
                values = values + entry[1].reshape(along[j])
            values = rows_of(values.reshape(-1))
        values += measure_values(objectives[-1], rows_of(implied), probs)
        vmin = min(vmin, float(values.min()))
        window = vmin + tol
        kept = [k for k in kept if k[0] <= window]
        near = np.flatnonzero(values <= window)
        near_values = values[near]
        bound = kept[-1][0] if kept else np.inf
        new = near_values < np.minimum.accumulate(np.append(bound, near_values))[:-1]
        picked = near[new] if idx is None else idx[near[new]]
        coords = (picked,) if lone else np.unravel_index(picked, shape)
        rows = np.stack([V[coords[j]] for j, V in owners] + [implied[picked]], axis=1)
        kept.extend(zip(near_values[new].tolist(), rows))
    if not kept:
        raise InfeasibleError(
            "no feasible grid point",
            details={"points": points, "comonotone": comonotone},
        )
    value, row = kept[0]
    shares = tuple(RandomVariable(space, row[i]) for i in range(n))
    return Allocation(space, shares, S), value


def grid_minimize(space, S, objectives, constraints, grid):
    """Exhaustive minimum of sum_i objectives[i](X_i) over the grid,
    subject to the constraints within VALUE_TOL * value_scale(S) (see
    feasible_mask); clearing holds by construction."""
    return _enumerate(space, S, objectives, constraints, grid, comonotone=False)


def comonotone_minimize(space, S, objectives, constraints, grid):
    """grid_minimize restricted to comonotonic allocations."""
    return _enumerate(space, S, objectives, constraints, grid, comonotone=True)
