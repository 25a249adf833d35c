"""Command-line front end.

Problem files are JSON documents with an explicit schema_version; extended
reals are encoded as the strings "inf"/"-inf" and rationals are accepted as
"p/q" strings and parsed exactly.  Reports emit numbers with 12 significant
digits and stable key order, so identical inputs produce byte-identical
output.  Exit codes: 0 ok, 1 error, 2 infeasible, 3 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .allocation import Allocation, comonotonic_improvement, is_comonotonic
from .constraints import (
    AggregateEnvelope,
    Constraint,
    ExpectationConstraint,
    IdiosyncraticRetention,
    OrliczBound,
    PathwiseBounds,
    RiskCeiling,
    RiskFloor,
    Solidity,
    classify_solidity,
    falsify_solidity,
)
from .errors import (
    CoshareError,
    ContractError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    NonterminationError,
    SchemaError,
    ValidationError,
)
from .mvsolver import (
    MVProblem,
    mv_objective,
    saturation_curve,
    solve_capped_mv,
    var_scenario,
)
from .oracle import GridSpec, ScalarFamily, comonotone_minimize, grid_minimize
from .probspace import FiniteSpace, RandomVariable
from .riskmeasures import RiskMeasureSpec, evaluate

SCHEMA_VERSION = 1


class ReproduceMismatch(CoshareError):
    """Computed values drifted from the published ones."""

    def __init__(self, diffs):
        self.diffs = tuple(diffs)
        super().__init__("reproduction mismatch:\n" + "\n".join(self.diffs))


# ---------------------------------------------------------------------------
# number and schema parsing

_INFINITIES = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}


def _read_number(value):
    """A JSON number, or a string "inf", "-inf", decimal or "p/q", as a float.

    Raises ValueError, saying why, for any other value and for numbers
    beyond the float range."""
    try:
        if isinstance(value, str):
            text = value.strip()
            return _INFINITIES[text] if text in _INFINITIES else float(Fraction(text))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        raise ValueError("number beyond the float range") from None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number {value!r}") from None
    raise ValueError(f"expected a number, got {type(value).__name__}")


def _parse_number(value, path, failures, allow_inf=False):
    """value as a float, or None with the fault recorded at path."""
    try:
        out = _read_number(value)
    except ValueError as exc:
        failures.append(f"{path}: {exc}")
        return None
    if math.isnan(out):
        failures.append(f"{path}: NaN is not a valid number")
        return None
    if math.isinf(out) and not allow_inf:
        failures.append(f"{path}: infinity not allowed here")
        return None
    return out


def _parse_number_list(value, path, failures, allow_inf=False):
    if not isinstance(value, list) or not value:
        failures.append(f"{path}: expected a nonempty list of numbers")
        return None
    out = [_parse_number(v, f"{path}[{k}]", failures, allow_inf)
           for k, v in enumerate(value)]
    return None if None in out else out


def _parse_rows(value, path, failures, read_row=_parse_number_list):
    """A nonempty list of rows, such as one share per agent, each read by
    read_row; None, with every fault recorded, if any row is faulty."""
    if not isinstance(value, list) or not value:
        failures.append(f"{path}: expected a nonempty list of number lists")
        return None
    out = [read_row(row, f"{path}[{k}]", failures) for k, row in enumerate(value)]
    return None if any(row is None for row in out) else out


def _parse_count(value, path, failures):
    if isinstance(value, str):  # a number string counts as its number
        value = _parse_number(value, path, [])
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        failures.append(f"{path}: expected a nonnegative integer")
        return 0
    return value


def _build(make, path, failures, *args):
    """make(*args), or None when a reader has flagged an argument (None) or
    the library rejects them; a rejection is recorded as 'path: reason'."""
    if any(arg is None for arg in args):
        return None
    try:
        return make(*args)
    except (ValidationError, DomainError, ContractError) as exc:
        failures.append(f"{path}: {exc}")
        return None


def _parse_variable(value, path, failures, space):
    """A RandomVariable on space from one number per atom, or None with the
    fault recorded at path; None without one when space is None."""
    values = _parse_number_list(value, path, failures)
    return None if space is None else _build(RandomVariable, path, failures, space, values)


def _parse_measure(obj, path, failures):
    if not isinstance(obj, dict) or "kind" not in obj:
        failures.append(f"{path}: measure needs a 'kind'")
        return None
    kind = obj["kind"]
    if kind in ("var", "es"):
        field, read = "level", _parse_number
    elif kind == "mean_variance":
        field, read = "delta", _parse_number
    elif kind == "expected_convex_loss":
        field, read = "ladder", _parse_number_list
    else:
        failures.append(f"{path}.kind: unknown measure kind {kind!r}")
        return None
    value = read(obj.get(field), f"{path}.{field}", failures)
    return _build(lambda v: RiskMeasureSpec(kind, **{field: v}), path, failures, value)


def _parse_constraint(obj, path, failures, space, gamma, n_agents):
    if not isinstance(obj, dict) or "kind" not in obj:
        failures.append(f"{path}: constraint needs a 'kind'")
        return None
    kind = obj["kind"]
    scope = obj.get("scope")
    if scope is not None:
        scope = _parse_count(scope, f"{path}.scope", failures)
        if not n_agents:
            failures.append(f"{path}.scope: no agent count bounds it "
                            "(give agents, endowments or task.start)")
        elif scope >= n_agents:
            failures.append(f"{path}.scope: expected an agent index below {n_agents}")
    if kind == "pathwise_bounds":
        body = _build(PathwiseBounds, path, failures,
                      _parse_number(obj.get("lower", "-inf"), f"{path}.lower", failures, True),
                      _parse_number(obj.get("upper", "inf"), f"{path}.upper", failures, True))
    elif kind == "expectation":
        body = _build(functools.partial(ExpectationConstraint, obj.get("relation", "<=")),
                      path, failures,
                      _parse_number(obj.get("bound"), f"{path}.bound", failures))
    elif kind == "orlicz":
        body = _build(OrliczBound, path, failures,
                      _parse_number_list(obj.get("ladder"), f"{path}.ladder", failures),
                      _parse_number(obj.get("bound"), f"{path}.bound", failures))
    elif kind in ("risk_ceiling", "risk_floor"):
        body = _build(RiskCeiling if kind == "risk_ceiling" else RiskFloor, path, failures,
                      _parse_measure(obj.get("measure"), f"{path}.measure", failures),
                      _parse_number(obj.get("bound"), f"{path}.bound", failures))
    elif kind == "retention":
        if gamma:
            failures.append(f"{path}: retention needs a finite space")
            return None
        body = _build(IdiosyncraticRetention, path, failures,
                      _parse_variable(obj.get("endowment"), f"{path}.endowment", failures,
                                      space),
                      _parse_number(obj.get("deductible"), f"{path}.deductible", failures))
    elif kind == "envelope":
        body = _build(AggregateEnvelope, path, failures,
                      _parse_rows(obj.get("lower"), f"{path}.lower", failures),
                      _parse_rows(obj.get("upper"), f"{path}.upper", failures))
    else:
        failures.append(f"{path}.kind: unknown constraint kind {kind!r}")
        return None
    return None if body is None else Constraint(body, scope)


def load_problem(path):
    """Read a problem file in one pass: the common fields, then the task's
    own fields and the checks that span fields, each run only where the
    fields it reads have parsed.  Returns the problem, with the task as
    written under "task" and its parsed fields beside it; raises SchemaError
    listing every fault at once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError([f"cannot read {path}: {exc}"])
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, integers past the digit limit
        raise SchemaError([f"{path}: invalid JSON: {exc}"])

    failures = []
    if not isinstance(raw, dict):
        raise SchemaError([f"{path}: top level must be an object"])
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        failures.append(f"schema_version: expected {SCHEMA_VERSION}")

    task = raw.get("task")
    if not isinstance(task, dict) or task.get("kind") not in _TASK_KINDS:
        failures.append(f"task.kind: expected one of {_TASK_KINDS}")
        task = {"kind": None}

    space = None
    gamma = False
    spc = raw.get("space")
    if isinstance(spc, dict) and "atoms" in spc:
        atoms = spc["atoms"]
        if not isinstance(atoms, list) or not atoms:
            failures.append("space.atoms: need a nonempty list")
        else:
            flagged = len(failures)
            labels, probs = [], []
            for k, atom in enumerate(atoms):
                if not isinstance(atom, dict):
                    failures.append(f"space.atoms[{k}]: expected an object")
                    continue
                labels.append(str(atom.get("label", f"w{k}")))
                probs.append(_parse_number(atom.get("prob"), f"space.atoms[{k}].prob",
                                           failures))
            if len(failures) == flagged:
                space = _build(FiniteSpace, "space", failures, zip(labels, probs))
    elif isinstance(spc, dict) and "gamma" in spc:
        gamma = True
    else:
        failures.append("space: need either 'atoms' or a 'gamma' tag")

    S = None
    if "aggregate" in raw and "endowments" in raw:
        failures.append("endowments: give either 'aggregate' or 'endowments', not both")
    if "aggregate" in raw:
        S = _parse_variable(raw["aggregate"], "aggregate", failures, space)
    elif "endowments" in raw:
        rows = _parse_rows(raw["endowments"], "endowments", failures,
                           functools.partial(_parse_variable, space=space))
        if rows is not None:
            with np.errstate(over="ignore"):  # RandomVariable reports the overflow
                total = np.sum([row.values for row in rows], axis=0)
            S = _build(RandomVariable, "endowments", failures, space, total)
    elif not gamma:
        failures.append("aggregate: give 'aggregate' values or 'endowments' "
                        "for a finite space")

    agents = raw.get("agents", [])
    measures, deltas = [], []
    if not isinstance(agents, list):
        failures.append("agents: expected a list")
        agents = None
    for k, agent in enumerate(agents or ()):
        if not isinstance(agent, dict):
            failures.append(f"agents[{k}]: expected an object")
            continue
        measures.append(_parse_measure(agent["measure"], f"agents[{k}].measure", failures)
                        if "measure" in agent else None)
        deltas.append(_parse_number(agent["delta"], f"agents[{k}].delta", failures)
                      if "delta" in agent else None)

    raw_constraints = raw.get("constraints", [])
    if not isinstance(raw_constraints, list):
        failures.append("constraints: expected a list")
        raw_constraints = []
    # a scope must name a listed agent; the falsifier sizes its search by it
    endowments, start = raw.get("endowments"), task.get("start")
    n_agents = (len(agents or ()) or (len(endowments) if isinstance(endowments, list) else 0)
                or (len(start) if isinstance(start, list) else 0))
    # a constraint is None only with its fault recorded
    constraints = [_parse_constraint(obj, f"constraints[{k}]", failures, space, gamma,
                                     n_agents) for k, obj in enumerate(raw_constraints)]

    problem = {
        "space": space, "S": S, "gamma": gamma, "agents": agents, "measures": measures,
        "deltas": deltas, "constraints": constraints, "task": task,
    }
    kind = task["kind"]
    if kind is not None:
        reader, _, needs_finite, agent_field = _TASKS[kind]
        if needs_finite and gamma:
            failures.append(f"space: {kind} needs a finite space with an aggregate")
        # an agent that is not an object, or a faulty list, has its fault already
        if agent_field and agents is not None and (not agents or any(
                isinstance(agent, dict) and agent_field not in agent for agent in agents)):
            failures.append(f"agents: {kind} needs a {agent_field} for every agent")
        problem.update(reader(task, problem, failures))
    if failures:
        raise SchemaError(failures)
    return problem


# ---------------------------------------------------------------------------
# deterministic emission

def _scalar_token(v):
    """A scalar as a JSON token: its CSV cell, bare for integers, booleans
    and finite floats, quoted for fractions, non-finite floats and text."""
    if v is None:
        return "null"
    bare = isinstance(v, (int, np.integer)) or (
        isinstance(v, (float, np.floating)) and math.isfinite(v))
    return _csv_cell(v) if bare else json.dumps(_csv_cell(v))


def _emit_json(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_scalar_token(v) for v in obj) + "]"
        parts = [f"{inner}{_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _scalar_token(obj)


def _csv_cell(v):
    """Floats to 12 significant digits ("inf", "-inf", "nan" included),
    booleans in lower case, fractions as "p/q"; anything else by str."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table["header"])
    for row in table["rows"]:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _emit_text(report):
    lines = []

    def walk(obj, prefix):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k == "tables":
                    continue
                walk(v, f"{prefix}{k}." if prefix else f"{k}.")
        elif isinstance(obj, (list, tuple)) and any(isinstance(x, dict) for x in obj):
            for k, v in enumerate(obj):
                walk(v, f"{prefix[:-1]}[{k}].")
        elif isinstance(obj, (list, tuple)):
            lines.append(f"{prefix[:-1]}: "
                         + "[" + ", ".join(_csv_cell(x) if not isinstance(x, (list, tuple))
                                           else "(" + ", ".join(map(_csv_cell, x)) + ")"
                                           for x in obj) + "]")
        else:
            lines.append(f"{prefix[:-1]}: {_csv_cell(obj)}")

    walk(report, "")
    for name, table in report.get("tables", {}).items():
        lines.append("")
        lines.append(f"[{name}]")
        widths = [len(h) for h in table["header"]]
        str_rows = [[_csv_cell(v) for v in row] for row in table["rows"]]
        for row in str_rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(table["header"], widths)))
        for row in str_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt="json", stream=None):
    """Render a report deterministically: fixed key order, 12 significant
    digits, byte-stable for identical inputs."""
    if fmt == "json":
        text = _emit_json(report) + "\n"
    elif fmt == "csv":
        chunks = []
        for name, table in report.get("tables", {}).items():
            chunks.append(f"# table: {name}\n" + _table_csv(table))
        text = "\n".join(chunks) if chunks else ""
    elif fmt == "text":
        text = _emit_text(report)
    else:
        raise SchemaError([f"unknown format {fmt!r}"])
    if stream is None:
        stream = sys.stdout
    stream.write(text)
    return text


def _allocation_table(A):
    header = ["atom", "prob", "S"] + [f"X_{i+1}" for i in range(A.n_agents)]
    rows = [[A.space.labels[k], float(A.space.probs[k]), float(A.aggregate.values[k])]
            + [float(share.values[k]) for share in A.shares] for k in range(A.space.size)]
    return {"header": header, "rows": rows}


# ---------------------------------------------------------------------------
# task dispatch

def _read_solve_mv(task, problem, failures):
    return {side: _parse_number_list(task[side], f"task.{side}", failures, allow_inf=True)
            for side in ("lower", "upper") if side in task}


def _task_solve_mv(problem):
    deltas = problem["deltas"]
    mv = MVProblem(tuple(deltas),
                   tuple(problem.get("lower", [-math.inf] * len(deltas))),
                   tuple(problem.get("upper", [math.inf] * len(deltas))),
                   (problem["space"], problem["S"]))
    allocation, report = solve_capped_mv(mv)
    return {
        "objective": mv_objective(deltas, allocation),
        "intercepts": list(report.intercepts),
        "residual": report.residual,
        "breakpoints": list(report.breakpoints),
        "active_sets": [list(a) for a in report.active_sets],
        "slopes": [list(s) for s in report.slopes],
        "comonotonic": is_comonotonic(allocation),
        "tables": {"allocation": _allocation_table(allocation)},
    }


def _read_improve(task, problem, failures):
    shares = _parse_rows(task.get("shares"), "task.shares", failures,
                         functools.partial(_parse_variable, space=problem["space"]))
    agents = problem["agents"]
    if shares is not None and agents and len(agents) != len(shares):
        failures.append(f"task.shares: need one row per agent ({len(agents)} agents, "
                        f"{len(shares)} rows)")
    return {"shares": shares}


def _task_improve(problem):
    A = Allocation(problem["space"], tuple(problem["shares"]), problem["S"])
    measures = problem["measures"]
    specs = measures if measures and all(m is not None for m in measures) else None
    improved, cert = comonotonic_improvement(A, measures=specs)
    report = {
        "transfers": cert.transfers,
        "clearing_residual": cert.clearing_residual,
        "comonotonic": cert.comonotonic_ok,
        "convex_order": list(cert.convex_order_ok),
        "all_verified": cert.all_verified,
        "tables": {"allocation": _allocation_table(improved)},
    }
    if cert.objective_deltas is not None:
        report["objective_deltas"] = list(cert.objective_deltas)
    return report


def _read_grid(grid, failures):
    """task.grid as ("family", the ScalarFamily arguments) or ("ranges", one
    tuple of (lo, hi, step) triples per free agent); None if it is faulty."""
    flagged = len(failures)
    spec = None
    if not isinstance(grid, dict):
        failures.append("task.grid: expected an object with 'ranges' or 'family'")
    elif "family" in grid:
        fam = grid["family"]
        if not isinstance(fam, dict):
            failures.append("task.grid.family: expected an object")
        else:
            args = [_parse_rows(fam.get(k), f"task.grid.family.{k}", failures)
                    for k in ("base", "direction")]
            args += [_parse_number(fam.get(k), f"task.grid.family.{k}", failures)
                     for k in ("lo", "hi", "step")]
            spec = ("family", tuple(args))
    elif not isinstance(grid.get("ranges"), list) or not grid["ranges"]:
        failures.append("task.grid: need 'ranges' or 'family'")
    else:
        ranges = []
        for i, agent in enumerate(grid["ranges"]):
            if not isinstance(agent, list):
                failures.append(f"task.grid.ranges[{i}]: expected a list of triples")
                continue
            row = []
            for j, triple in enumerate(agent):
                path = f"task.grid.ranges[{i}][{j}]"
                row.append(_parse_number_list(triple, path, failures))
                if row[-1] is not None and len(row[-1]) != 3:
                    failures.append(f"{path}: need [lo, hi, step]")
            ranges.append(tuple(row))
        spec = ("ranges", tuple(ranges))
    return spec if len(failures) == flagged else None


def _read_oracle(task, problem, failures):
    comonotone = task.get("comonotone", False)
    if not isinstance(comonotone, bool):
        failures.append("task.comonotone: expected true or false")
    return {"comonotone": comonotone, "grid": _read_grid(task.get("grid"), failures)}


def _task_oracle(problem):
    measures = tuple(problem["measures"])
    form, spec = problem["grid"]
    grid = (GridSpec(family=ScalarFamily(*spec)) if form == "family"
            else GridSpec(ranges=spec))
    minimize = comonotone_minimize if problem["comonotone"] else grid_minimize
    allocation, value = minimize(problem["space"], problem["S"], measures,
                                 tuple(problem["constraints"]), grid)
    return {
        "comonotone": problem["comonotone"],
        "value": value,
        "objective_parts": [evaluate(m, X) for m, X in zip(measures, allocation.shares)],
        "tables": {"allocation": _allocation_table(allocation)},
    }


def _read_check_solidity(task, problem, failures):
    if problem["gamma"]:  # no aggregate: the set is classified, not searched
        return {}
    return {
        "seed": _parse_count(task.get("seed", 0), "task.seed", failures),
        "budget": _parse_count(task.get("budget", 10 ** 4), "task.budget", failures),
        "start": (_parse_rows(task["start"], "task.start", failures,
                              functools.partial(_parse_variable, space=problem["space"]))
                  if "start" in task else None),
    }


def _task_check_solidity(problem):
    constraints = tuple(problem["constraints"])
    verdict = classify_solidity(constraints)
    report = {
        "status": verdict.status.value,
        "reason": verdict.reason,
        "tables": {},
    }
    space, S, rows = problem["space"], problem["S"], problem.get("start")
    if S is not None:
        start = None if rows is None else Allocation(space, tuple(rows), S)
        witness = falsify_solidity(constraints, space, S, budget=problem["budget"],
                                   seed=problem["seed"], start=start)
        report["witness_found"] = witness is not None
        if witness is not None:
            report["witness_method"] = witness.method
            report["tables"]["witness_feasible"] = _allocation_table(witness.feasible)
            report["tables"]["witness_reduction"] = _allocation_table(witness.reduction)
    return report


def _read_reproduce(task, problem, failures):
    case = task.get("case")
    if case not in _REPRODUCE_CASES:
        failures.append(f"task.case: expected one of {_REPRODUCE_CASES}")
    return {"case": case}


def _task_reproduce(problem):
    # a reproduce task writes its CSV artifacts to the working directory;
    # run's --out names the report file, not an artifact directory
    report, _ = reproduce(problem["case"])
    return report


# task kind -> (reader, runner, whether it needs a finite space, the field
# every agent needs).  The reader, called by load_problem, reads the shapes
# and numbers of the task's fields and records every fault; the runner builds
# the library objects, calls the library and assembles the report.
_TASKS = {
    "solve-mv": (_read_solve_mv, _task_solve_mv, True, "delta"),
    "improve": (_read_improve, _task_improve, True, None),
    "oracle": (_read_oracle, _task_oracle, True, "measure"),
    "check-solidity": (_read_check_solidity, _task_check_solidity, False, None),
    "reproduce": (_read_reproduce, _task_reproduce, False, None),
}
# tuples, so that membership tests compare a JSON list instead of hashing it
_TASK_KINDS = tuple(_TASKS)


def run_problem(path):
    """Load a problem file and run its task; returns the report dict."""
    problem = load_problem(path)
    kind = problem["task"]["kind"]
    try:
        report = _TASKS[kind][1](problem)
    except (ValidationError, DomainError, ContractError) as exc:
        # the library rejected a value the task passed on
        raise SchemaError([f"task: {exc}"]) from None
    return {"schema_version": SCHEMA_VERSION, "task": kind, **report}


# ---------------------------------------------------------------------------
# reproduction of the worked examples

def _expect(checks, name, expected, computed, tol):
    ok = abs(float(computed) - float(expected)) <= tol if tol is not None \
        else computed == expected
    checks.append({"name": name, "expected": expected, "computed": computed,
                   "tol": tol, "ok": ok})


def _expect_true(checks, name, flag):
    checks.append({"name": name, "expected": True, "computed": bool(flag),
                   "tol": None, "ok": bool(flag)})


def _example_42():
    space = FiniteSpace((f"s{k}", Fraction(1, 3)) for k in (1, 2, 3))
    S = RandomVariable(space, (1.0, 2.0, 3.0))
    measures = (RiskMeasureSpec.es(0.2), RiskMeasureSpec.es(1.0 / 3.0))
    envelope = AggregateEnvelope(
        lower=((1.0, 0.25), (2.0, 0.25), (3.0, 0.25)),
        upper=((1.0, 0.25), (2.0, 0.25), (3.0, 1.75)))
    constraints = (Constraint(envelope, scope=0),
                   Constraint(PathwiseBounds(lower=0.0), scope=None))
    grid = GridSpec.from_family(
        base=((0.25, 0.25, 0.0),), direction=((0.0, 0.0, 1.0),),
        lo=0.25, hi=1.75, step=0.01)
    return space, S, measures, constraints, grid


def _example_43_space():
    space = FiniteSpace(zip(("A0", "A1a", "A1b", "A2"),
                            (0.9925, 0.0025, 0.0025, 0.0025)))
    S = RandomVariable(space, (0.0, 2.0, 2.0, 4.0))
    measures = (RiskMeasureSpec.es(0.99), RiskMeasureSpec.es(0.9925))
    constraints = (
        Constraint(PathwiseBounds(lower=0.0)),
        Constraint(RiskCeiling(RiskMeasureSpec.var(0.995), 1.0)),
    )
    return space, S, measures, constraints


def _reproduce_ex31():
    space = FiniteSpace((label, 0.25) for label in
                        ("(0,0)", "(0,1)", "(1,0)", "(1,1)"))
    zeta1 = RandomVariable(space, (0.0, 0.0, 1.0, 1.0))
    zeta2 = RandomVariable(space, (0.0, 1.0, 0.0, 1.0))
    S = zeta1 + zeta2
    constraints = (
        Constraint(IdiosyncraticRetention(zeta1, 1.0), scope=0),
        Constraint(IdiosyncraticRetention(zeta2, 1.0), scope=1),
    )
    autarky = Allocation(space, (zeta1, zeta2), S)
    checks = []
    verdict = classify_solidity(constraints)
    _expect_true(checks, "classify is NotSolid", verdict.status is Solidity.NOT_SOLID)
    witness = falsify_solidity(constraints, space, S, start=autarky)
    _expect_true(checks, "witness found", witness is not None)
    tables = {"autarky": _allocation_table(autarky)}
    if witness is not None:
        half = 0.5 * S.values
        for i in (0, 1):
            _expect(checks, f"reduction X_{i+1} is S/2",
                    0.0, float(np.max(np.abs(witness.reduction.shares[i].values - half))),
                    1e-12)
        tables["reduction"] = _allocation_table(witness.reduction)
    return {
        "case": "ex-3.1",
        "solidity": verdict.status.value,
        "reason": verdict.reason,
        "tables": tables,
    }, checks


def _reproduce_ex42():
    space, S, measures, constraints, grid = _example_42()
    best, value = grid_minimize(space, S, measures, constraints, grid)
    com_best, com_value = comonotone_minimize(space, S, measures, constraints, grid)
    checks = []
    _expect(checks, "constrained minimum 19/8", 19.0 / 8.0, value, 1e-9)
    _expect(checks, "constrained argmin a = 7/4", 1.75,
            float(best.shares[0].values[2]), 1e-9)
    _expect(checks, "comonotone minimum 29/12", 29.0 / 12.0, com_value, 1e-9)
    _expect(checks, "comonotone argmin a = 5/4", 1.25,
            float(com_best.shares[0].values[2]), 1e-9)
    _expect(checks, "gap 1/24", 1.0 / 24.0, com_value - value, 1e-9)
    a_grid = np.linspace(0.25, 1.75, 151)
    rows = []
    for a in a_grid:
        X1 = RandomVariable(space, (0.25, 0.25, float(a)))
        X2 = S - X1
        rows.append([float(a), evaluate(measures[0], X1) + evaluate(measures[1], X2)])
    return {
        "case": "ex-4.2",
        "constrained_value": value,
        "comonotone_value": com_value,
        "gap": com_value - value,
        "tables": {
            "optimizer": _allocation_table(best),
            "comonotone_optimizer": _allocation_table(com_best),
            "value_curve": {"header": ["a", "total_risk"], "rows": rows},
        },
    }, checks


def _reproduce_ex43():
    space, S, measures, constraints = _example_43_space()
    grid = GridSpec.uniform(1, 4, 0.0, 4.0, 0.125)
    free, free_value = grid_minimize(space, S, measures, (), grid)
    best, value = grid_minimize(space, S, measures, constraints, grid)
    com_best, com_value = comonotone_minimize(space, S, measures, constraints, grid)
    checks = []
    _expect(checks, "unconstrained 2", 2.0, free_value, 1e-9)
    _expect(checks, "constrained 25/12", 25.0 / 12.0, value, 1e-9)
    _expect(checks, "comonotone 9/4", 2.25, com_value, 1e-9)
    for atom, expected in zip(range(4), (0.0, 1.0, 2.0, 4.0)):
        _expect(checks, f"constrained X_1 atom {atom}", expected,
                float(best.shares[0].values[atom]), 1e-9)
    _expect_true(checks, "constrained optimum splits {S=2}",
                 not is_comonotonic(best))
    return {
        "case": "ex-4.3",
        "unconstrained_value": free_value,
        "constrained_value": value,
        "comonotone_value": com_value,
        "tables": {
            "unconstrained": _allocation_table(free),
            "constrained": _allocation_table(best),
            "comonotone": _allocation_table(com_best),
        },
    }, checks


def _reproduce_fig63():
    report = saturation_curve((2, 3, 5, 6), (5, 8, 3, math.inf))
    checks = []
    bps = report.breakpoints
    _expect_true(checks, "three breakpoints", len(bps) == 3)
    expected_bps = (Fraction(12), Fraction(31, 2), Fraction(20))
    for k, (got, want) in enumerate(zip(bps, expected_bps)):
        _expect_true(checks, f"breakpoint {k+1} = {want}", got == want)
    curve_checks = (
        ("agent 1 at s=12", 0, Fraction(12), Fraction(5)),
        ("agent 2 at s=15.5", 1, Fraction(31, 2), Fraction(5)),
        ("agent 4 at s=20", 3, Fraction(20), Fraction(4)),
        ("agent 4 at s=25.5", 3, Fraction(51, 2), Fraction(19, 2)),
    )
    for name, agent, s, want in curve_checks:
        _expect_true(checks, name, report.share_at(agent, s) == want)
    samples = sorted({Fraction(k, 2) for k in range(0, 52)} | set(bps))
    rows = [[float(s)] + [float(report.share_at(i, s)) for i in range(4)] for s in samples]
    return {
        "case": "fig-6.3",
        "breakpoints": list(bps),
        "terminal_s": report.terminal_s,
        "tables": {
            "curve": {"header": ["s", "X_1", "X_2", "X_3", "X_4"], "rows": rows},
        },
    }, checks


def _reproduce_sec64():
    report = var_scenario()
    checks = []
    # the paper prints four decimals: each value lies within half a unit of
    # the fourth
    _expect(checks, "q", 4.7439, report.q, 5e-5)
    _expect(checks, "unconstrained 2.0198", 2.0198, report.unconstrained, 5e-5)
    _expect(checks, "unconstrained closed form", 2.0 + 202.0 / 10201.0,
            report.unconstrained, 1e-12)
    _expect(checks, "autarky 3.01 exactly", 3.01, report.autarky, None)
    _expect(checks, "constrained 2.0517", 2.0517, report.constrained, 5e-5)
    _expect(checks, "m*", 0.6337, report.m_star, 5e-5)
    _expect(checks, "breakpoint a", 0.6400, report.a, 5e-5)
    _expect(checks, "breakpoint r", 3.6700, report.r, 5e-5)
    _expect(checks, "comonotone-restricted 2.0972", 2.0972,
            report.comonotone_restricted, 5e-5)
    _expect_true(checks, "ordering strict",
                 report.unconstrained < report.constrained
                 < report.comonotone_restricted < report.autarky)
    s_grid = np.arange(0.0, 7.431, 0.01)
    x1, x2 = report.constrained_shares(s_grid)
    g1, g2 = report.comonotone_shares(s_grid)
    rows = [[float(s), float(a), float(b), float(c), float(d)]
            for s, a, b, c, d in zip(s_grid, x1, x2, g1, g2)]
    return {
        "case": "sec-6.4",
        "q": report.q,
        "m_star": report.m_star,
        "a": report.a,
        "r": report.r,
        "values": {
            "unconstrained": report.unconstrained,
            "constrained": report.constrained,
            "comonotone_restricted": report.comonotone_restricted,
            "autarky": report.autarky,
        },
        "jump_agent1": report.jump_agent1,
        "jump_agent2": report.jump_agent2,
        "witness": {
            "s": list(report.witness[0]),
            "X_1": list(report.witness[1]),
            "X_2": list(report.witness[2]),
        },
        "tables": {
            "rule_curve": {
                "header": ["s", "X_1", "X_2", "com_X_1", "com_X_2"],
                "rows": rows,
            },
        },
    }, checks


_REPRODUCERS = {
    "ex-3.1": _reproduce_ex31,
    "ex-4.2": _reproduce_ex42,
    "ex-4.3": _reproduce_ex43,
    "fig-6.3": _reproduce_fig63,
    "sec-6.4": _reproduce_sec64,
}
_REPRODUCE_CASES = tuple(_REPRODUCERS)


def reproduce(case, out_dir="."):
    """Run one canonical case, assert its published numbers, and write the
    figure-data CSV artifacts.  Raises ReproduceMismatch when any assertion
    fails."""
    if case not in _REPRODUCE_CASES:
        raise SchemaError([f"unknown reproduce case {case!r}; "
                           f"choose from {_REPRODUCE_CASES}"])
    body, checks = _REPRODUCERS[case]()
    report = {"schema_version": SCHEMA_VERSION, "task": "reproduce", **body}
    report["checks"] = [
        {"name": c["name"], "expected": c["expected"], "computed": c["computed"],
         "ok": c["ok"]} for c in checks]
    tables = report.get("tables", {})
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    for name, table in tables.items():
        path = os.path.join(out_dir, f"{case}-{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_table_csv(table))
        artifacts.append(path)
    report["artifacts"] = artifacts
    failures = [f"{c['name']}: expected {c['expected']!r}, got {c['computed']!r}"
                for c in checks if not c["ok"]]
    if failures:
        raise ReproduceMismatch(failures)
    return report, artifacts


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # parse_args leaves the parser unchanged; build it once
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coshare",
        description="Constrained risk sharing: solve, improve, classify, reproduce.")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run a JSON problem file")
    run.add_argument("path")
    run.add_argument("--format", choices=("json", "csv", "text"), default="json")
    run.add_argument("--out", default=None, help="write the report here as well")
    rep = sub.add_parser("reproduce", help="rebuild a published example")
    rep.add_argument("case", choices=_REPRODUCE_CASES)
    rep.add_argument("--format", choices=("json", "csv", "text"), default="json")
    rep.add_argument("--out", default=".", help="directory for CSV artifacts")
    return parser


def _error_text(exc):
    """The message, followed by the state an iteration error carries."""
    if isinstance(exc, ConvergenceError) and exc.residual is not None:
        return f"{exc} (residual {exc.residual:g})"
    if isinstance(exc, NonterminationError) and exc.state is not None:
        return f"{exc} (transfers {exc.state['transfers']})"
    return str(exc)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("run", "reproduce", "-h", "--help"):
        argv.insert(0, "run")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for infeasibility
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        if args.command == "reproduce":
            report, _ = reproduce(args.case, out_dir=args.out)
            emit_report(report, args.format)
            return 0
        # the report reaches stdout only once --out holds it
        text = emit_report(run_problem(args.path), args.format, io.StringIO())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(text)
        return 0
    except SchemaError as exc:
        for line in exc.failures:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ReproduceMismatch as exc:
        for line in exc.diffs:
            print(f"mismatch: {line}", file=sys.stderr)
        return 3
    except OSError as exc:  # load_problem reports read errors itself
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except CoshareError as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
