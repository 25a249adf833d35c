"""Outside-in tracer for coshare's public functions.

``Tracer.install()`` replaces every ``coshare.*`` module attribute bound to
a traced function object with one wrapper, because ``from .x import y``
leaves several bindings of the same function (``convex_order_leq`` lives in
``coshare``, ``allocation``, ``constraints`` and ``stochorder``).  The
wrapper returns the same value, re-raises the same exception, and appends a
span ``[name, start, end, parent, op, error, note]`` to an in-memory list;
``uninstall()`` restores the original bindings.  Nothing under ``src/``
changes.
"""

import functools
import json
import sys
import time

from coshare.oracle import GridSpec

# (module, function) pairs whose calls become spans.
LAYERS = (
    ("probspace", "distribution_of"),
    ("stochorder", "convex_order_leq"),
    ("riskmeasures", "evaluate"),
    ("mvsolver", "statewise_projection"),
    ("mvsolver", "solve_capped_mv"),
    ("mvsolver", "var_scenario"),
    ("allocation", "condition_on_aggregate"),
    ("allocation", "is_comonotonic"),
    ("allocation", "comonotonic_improvement"),
    ("constraints", "check_feasible"),
    ("constraints", "falsify_solidity"),
    ("oracle", "grid_minimize"),
    ("oracle", "comonotone_minimize"),
    ("cli", "load_problem"),
    ("cli", "reproduce"),
    ("cli", "emit_report"),
)

NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def grid_points(grid):
    """Points a GridSpec enumerates: the product of its axis lengths."""
    if grid.family is not None:
        fam = grid.family
        return int(round((fam.hi - fam.lo) / fam.step)) + 1
    points = 1
    for agent in grid.ranges:
        for lo, hi, step in agent:
            points *= int(round((hi - lo) / step)) + 1
    return points


def _note_solve(args, kwargs, result):
    return {"atoms": _arg(args, kwargs, 0, "problem").aggregate[0].size}


def _note_improve(args, kwargs, result):
    return {"transfers": result[1].transfers}


def _note_grid(args, kwargs, result):
    grid = _arg(args, kwargs, 4, "grid")
    return {"grid_points": grid_points(grid) if isinstance(grid, GridSpec) else 0}


def _note_falsify(args, kwargs, result):
    return {"witness": int(result is not None)}


NOTES = {
    "mvsolver.solve_capped_mv": _note_solve,
    "allocation.comonotonic_improvement": _note_improve,
    "oracle.grid_minimize": _note_grid,
    "oracle.comonotone_minimize": _note_grid,
    "constraints.falsify_solidity": _note_falsify,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "coshare" or key.startswith("coshare."))]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules[f"coshare.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def layer_names():
    return [f"{m}.{f}" for m, f in LAYERS]


def summarize(spans, skip_ops=()):
    """Per-layer calls, self time and errors, plus the derived counts, over
    spans whose operation is not in skip_ops.  Spans may come from several
    processes: each entry of ``spans`` is one process's list."""
    stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in layer_names()}
    derived = {"fp_iterations": 0, "transfers": 0, "grid_points": 0,
               "falsify_calls": 0, "witnesses": 0}
    skip = set(skip_ops)
    for process in spans:
        child_time = [0.0] * len(process)
        projections = [0] * len(process)
        for span in process:
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
                if span[NAME] == "mvsolver.statewise_projection":
                    projections[parent] += 1
        for i, span in enumerate(process):
            if span[OP] in skip:
                continue
            entry = stats[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - child_time[i]
            entry["errors"] += int(span[ERROR])
            note = span[NOTE]
            if not note:
                continue
            if "atoms" in note:
                derived["fp_iterations"] += projections[i] // note["atoms"] - 1
            derived["transfers"] += note.get("transfers", 0)
            derived["grid_points"] += note.get("grid_points", 0)
            if "witness" in note:
                derived["falsify_calls"] += 1
                derived["witnesses"] += note["witness"]
    return stats, derived
