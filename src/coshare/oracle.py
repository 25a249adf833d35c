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
from .constraints import (_BLOCK_CELLS, _require_space, _statewise_limits,
                          feasible_mask)
from .errors import DomainError, InfeasibleError, ValidationError
from .probspace import RandomVariable, agent_sum
from .riskmeasures import RiskMeasureSpec, measure_values

GRID_POINT_LIMIT = 2 * 10 ** 7
TIE_EPS = 1e-12


def _axis(lo, hi, step):
    lo, hi, step = float(lo), float(hi), float(step)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValidationError("grid ranges must be finite")
    if step <= 0.0:
        raise ValidationError("grid step must be positive")
    if hi < lo:
        raise ValidationError("grid range needs lo <= hi")
    span = (hi - lo) / step
    count = int(round(span))
    if abs(span - count) > 1e-6:
        raise ValidationError("grid range must span a whole number of steps")
    return np.linspace(lo, hi, count + 1)


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
            base = tuple(tuple(float(v) for v in row) for row in self.base)
            direction = tuple(tuple(float(v) for v in row) for row in self.direction)
            lo, hi, step = float(self.lo), float(self.hi), float(self.step)
        except (TypeError, ValueError):
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
        _axis(lo, hi, step)


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
                    tuple((float(l), float(h), float(s)) for (l, h, s) in agent)
                    for agent in self.ranges
                )
            except (TypeError, ValueError):
                raise ValidationError("ranges need one (lo, hi, step) triple of "
                                      "reals per free agent and atom")
            if not ranges or any(not agent for agent in ranges):
                raise ValidationError("ranges must list at least one agent and atom")
            width = len(ranges[0])
            if any(len(agent) != width for agent in ranges):
                raise ValidationError("every free agent needs one range per atom")
            for agent in ranges:
                for triple in agent:
                    _axis(*triple)
            object.__setattr__(self, "ranges", ranges)
        elif not isinstance(self.family, ScalarFamily):
            raise ValidationError("family must be a ScalarFamily")

    @classmethod
    def uniform(cls, n_free_agents, n_atoms, lo, hi, step):
        triple = (float(lo), float(hi), float(step))
        return cls(ranges=tuple(tuple(triple for _ in range(n_atoms))
                                for _ in range(n_free_agents)))

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
    free agent and atom; the grid's points are their product."""
    if grid.family is not None:
        fam = grid.family
        return [_axis(fam.lo, fam.hi, fam.step)]
    return [_axis(*triple) for agent in grid.ranges for triple in agent]


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


def _free_chunks(grid, axes, rows):
    """Candidate values for the free agents, in grid order, as blocks shaped
    (points, free, atoms) of at most rows points.  A family slices its
    scalar axis.  A ranges grid fixes one value of each leading axis per
    block and slices the mesh of the trailing axes, which is built once; a
    grid that fits one block is that mesh."""
    shape = (-1, grid.n_free_agents, grid.n_atoms)
    if grid.family is not None:
        base = np.array(grid.family.base)
        direction = np.array(grid.family.direction)
        for part in _slices(axes[0].size, rows):
            yield base[None, :, :] + axes[0][part, None, None] * direction[None, :, :]
        return
    lead = len(axes) - 1
    while lead > 0 and math.prod(len(ax) for ax in axes[lead - 1:]) <= rows:
        lead -= 1
    # no name holds the mesh, so the paused generator keeps only its stack
    tail = np.column_stack([g.reshape(-1)
                            for g in np.meshgrid(*axes[lead:], indexing="ij")])
    parts = _slices(tail.shape[0], rows)
    for head in itertools.product(*axes[:lead]):
        for part in parts:
            if lead:
                block = np.empty((part.stop - part.start, len(axes)))
                block[:, :lead] = head
                block[:, lead:] = tail[part]
            else:
                block = tail[part]
            yield block.reshape(shape)


def _enumerate(space, S, objectives, constraints, grid, comonotone):
    """(allocation, value) at the first grid point, in grid order, within
    TIE_EPS * (1 + |min|) of the minimum over the feasible (and, if
    comonotone, comonotonic) points.  Each block of free shares gets the
    implied agent's S - sum of the free shares from probspace.agent_sum,
    agent by agent from 0.0 in the one buffer that becomes that share, which
    gives np.sum's bits without its row-by-row loop over the agents axis."""
    if not isinstance(S, RandomVariable) or S.space != space:
        raise ValidationError("aggregate S must be a RandomVariable on the given space")
    _require_space(constraints, space)
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
    if points > GRID_POINT_LIMIT:
        raise DomainError(f"grid of {points} points exceeds the oracle size limit")
    probs = space.probs
    block_rows = _chunk_rows(n, space.size)
    # a grid that fits one block is built once whether pruned or not
    if grid.ranges is not None and points > block_rows:
        axes = _prune_axes(axes, n, S.values, probs, constraints)
    chunks = (_free_chunks(grid, axes, block_rows)
              if all(ax.size for ax in axes) else ())
    # streaming argmin: the pick is the first grid point within the window
    # vmin + TIE_EPS * (1 + |vmin|), which only shrinks as vmin falls.  kept
    # holds, in grid order, (value, shares) of the points inside the current
    # window whose value is below that of every point kept before them; the
    # pick is one of them, and once every block is seen it is the first.
    vmin, kept = np.inf, []
    for free in chunks:
        tensors = [free[:, i, :] for i in range(n - 1)]
        implied = agent_sum(tensors)
        tensors.append(np.subtract(S.values, implied, out=implied))
        # the block's rows that pass, in grid order
        idx = np.flatnonzero(feasible_mask(tensors, S.values, probs, constraints))
        if comonotone and idx.size == free.shape[0]:
            idx = np.flatnonzero(comonotone_mask(tensors, S.values, probs))
        elif comonotone and idx.size:
            idx = idx[comonotone_mask([V.take(idx, axis=0) for V in tensors],
                                      S.values, probs)]
        if not idx.size:
            continue
        whole = idx.size == free.shape[0]
        values = np.zeros(idx.size)
        for i, spec in enumerate(objectives):
            values += measure_values(
                spec, tensors[i] if whole else tensors[i].take(idx, axis=0), probs)
        vmin = min(vmin, float(values.min()))
        window = vmin + TIE_EPS * (1.0 + abs(vmin))
        kept = [k for k in kept if k[0] <= window]
        near = np.flatnonzero(values <= window)
        near_values = values[near]
        bound = kept[-1][0] if kept else np.inf
        new = near_values < np.minimum.accumulate(np.append(bound, near_values))[:-1]
        picked = idx[near[new]]
        rows = np.stack([V[picked] for V in tensors], axis=1)
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
