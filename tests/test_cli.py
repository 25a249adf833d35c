"""Problem-file schema, report emission, exit codes, and reproduction cases."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coshare
from coshare import (
    AggregateEnvelope,
    ConvergenceError,
    ExpectationConstraint,
    IdiosyncraticRetention,
    NonterminationError,
    OrliczBound,
    PathwiseBounds,
    ReproduceMismatch,
    RiskCeiling,
    RiskFloor,
    RiskMeasureSpec,
    SchemaError,
)
from coshare import cli
from coshare.cli import (
    emit_report,
    load_problem,
    main,
    reproduce,
    run_problem,
)

THIRDS = [{"label": f"s{k + 1}", "prob": "1/3"} for k in range(3)]
HALVES = [{"label": f"w{k}", "prob": 0.5} for k in range(2)]


def improve_doc():
    return {
        "schema_version": 1,
        "space": {"atoms": list(THIRDS)},
        "aggregate": [1, 2, 3],
        "agents": [{"measure": {"kind": "es", "level": "1/5"}},
                   {"measure": {"kind": "es", "level": "1/5"}}],
        "constraints": [],
        "task": {"kind": "improve",
                 "shares": [["1/4", "1/4", "7/4"], ["3/4", "7/4", "5/4"]]},
    }


def solve_doc():
    return {
        "schema_version": 1,
        "space": {"atoms": list(HALVES)},
        "aggregate": [0, 2],
        "agents": [{"delta": 1}, {"delta": 1}],
        "constraints": [],
        "task": {"kind": "solve-mv", "lower": ["-inf", "-inf"],
                 "upper": [0.5, "inf"]},
    }


def capped_solve_doc():
    """Five breakpoints; agents 1 and 2 reach both caps together."""
    doc = solve_doc()
    doc["space"]["atoms"] = [{"label": f"w{k + 1}", "prob": p}
                             for k, p in enumerate(("1/8", "1/8", "1/4", "1/8", "1/8", "1/4"))]
    doc["aggregate"] = [0, 1, 2, 3, 5, 8]
    doc["agents"] = [{"delta": 1}, {"delta": 1}, {"delta": 2}, {"delta": 4}]
    doc["task"].update(lower=[0, 0, 0, 0], upper=[1.5, 1.5, 2.5, "inf"])
    return doc


def oracle_doc():
    return {
        "schema_version": 1,
        "space": {"atoms": list(HALVES)},
        "aggregate": [0, 2],
        "agents": [{"measure": {"kind": "es", "level": 0.5}},
                   {"measure": {"kind": "es", "level": 0.5}}],
        "constraints": [],
        "task": {"kind": "oracle",
                 "grid": {"ranges": [[[0, 1, 1], [0, 1, 1]]]}},
    }


def solidity_doc():
    return {
        "schema_version": 1,
        "space": {"atoms": [{"label": lab, "prob": "1/4"} for lab in
                            ("(0,0)", "(0,1)", "(1,0)", "(1,1)")]},
        "endowments": [[0, 0, 1, 1], [0, 1, 0, 1]],
        "agents": [{}, {}],
        "constraints": [
            {"kind": "retention", "endowment": [0, 0, 1, 1],
             "deductible": 1, "scope": 0},
            {"kind": "retention", "endowment": [0, 1, 0, 1],
             "deductible": 1, "scope": 1},
        ],
        "task": {"kind": "check-solidity", "start": [[0, 0, 1, 1], [0, 1, 0, 1]]},
    }


def unstarted_solidity_doc():
    """solidity_doc with no start and no agent list: the endowment rows
    count the agents, and the falsifier builds its own start."""
    doc = solidity_doc()
    del doc["task"]["start"], doc["agents"]
    return doc


def aggregate_solidity_doc():
    """solidity_doc with an aggregate in place of the endowments and no agent
    list: the start rows count the agents."""
    doc = solidity_doc()
    del doc["endowments"], doc["agents"]
    doc["aggregate"] = [0, 1, 1, 2]
    return doc


def unsized_solidity_doc():
    """aggregate_solidity_doc with no start either: nothing counts the agents."""
    doc = aggregate_solidity_doc()
    del doc["task"]["start"]
    return doc


def family_doc():
    doc = oracle_doc()
    doc["task"]["grid"] = {"family": {"base": [[0, 0]], "direction": [[0, 1]],
                                      "lo": 0, "hi": 1, "step": "1/2"}}
    return doc


def reproduce_doc():
    return {"schema_version": 1, "space": {"gamma": {}},
            "task": {"kind": "reproduce", "case": "ex-3.1"}}


def kinds_doc():
    """Every constraint kind and every measure kind, with "p/q" and "inf"."""
    return {
        "schema_version": 1,
        "space": {"atoms": list(THIRDS)},
        "aggregate": [1, 2, 3],
        "agents": [{"measure": {"kind": "var", "level": "9/10"}, "delta": "1/2"},
                   {"measure": {"kind": "mean_variance", "delta": 2}}],
        "constraints": [
            {"kind": "pathwise_bounds", "lower": "-inf", "upper": "inf"},
            {"kind": "expectation", "relation": ">=", "bound": "-1/3"},
            {"kind": "orlicz", "ladder": [0.5, 2, "1/2", 1], "bound": 4},
            {"kind": "risk_ceiling", "measure": {"kind": "es", "level": "1/5"},
             "bound": 10, "scope": 0},
            {"kind": "risk_floor",
             "measure": {"kind": "expected_convex_loss", "ladder": [0.5, 2, 0.5, 1]},
             "bound": "-7/2"},
            {"kind": "retention", "endowment": [0, "1/2", 1], "deductible": "3/2",
             "scope": 1},
            {"kind": "envelope", "lower": [[1, "-1/4"], [3, 0]],
             "upper": [[1, 2], [3, "7/2"]], "scope": 0},
        ],
        "task": {"kind": "improve",
                 "shares": [["1/4", "1/4", "7/4"], ["3/4", "7/4", "5/4"]]},
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DELETE = object()


def mutate(doc, path, value):
    """doc with the node at path (a key sequence) replaced in place, or
    removed when value is DELETE; a replaced root is returned in its place."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated(doc_fn, path, value):
    """doc_fn()'s document with the node at path replaced, or removed."""
    return mutate(copy.deepcopy(doc_fn()), path, value)


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def agent_count(doc):
    """The agents of a valid document: its agent list, endowments, start or
    share rows, whichever it gives first."""
    task = doc.get("task", {})
    for rows in (doc.get("agents"), doc.get("endowments"), task.get("start"),
                 task.get("shares")):
        if rows:
            return len(rows)
    return 0


FUZZ_DOCS = (improve_doc, solve_doc, oracle_doc, solidity_doc, reproduce_doc, kinds_doc)
FUZZ_VALUES = (None, True, False, 0, -1, 3, 10 ** 400, "1e400", [], [1, "x"], {},
               {"kind": "es"}, "-1/3", "inf", [0, 1, 2],
               # finite extremes: the least subnormal and normal, and far, near
               # and at the float maximum
               5e-324, 2.2e-308, 1e-300, 1e300, 8.99e307, 1.7976931348623157e308)
# mutations that no fixed value expresses: a list node reversed (a (lo, hi)
# pair, a grid triple, the share rows), and a constraint scoped to the agent
# count, one past the last agent
REVERSED, AGENT_COUNT = object(), object()


def draw_mutation(data, doc, n_agents):
    """doc with one drawn node replaced by a value of another shape, or
    reversed, or a constraint's scope set to n_agents; unchanged when the
    drawn mutation has no node to act on."""
    value = data.draw(st.sampled_from(FUZZ_VALUES + (REVERSED, AGENT_COUNT)))
    paths = list(node_paths(doc))
    if value is REVERSED:
        paths = [p for p in paths if isinstance(node_at(doc, p), list)]
    elif value is AGENT_COUNT:
        constraints = doc.get("constraints") if isinstance(doc, dict) else None
        paths = [("constraints", k, "scope") for k, c in enumerate(constraints)
                 if isinstance(c, dict)] if isinstance(constraints, list) else []
    if not paths:
        return doc
    path = data.draw(st.sampled_from(paths))
    if value is REVERSED:
        value = node_at(doc, path)[::-1]
    elif value is AGENT_COUNT:
        value = n_agents
    else:  # a copy, which a second mutation may change, not FUZZ_VALUES
        value = copy.deepcopy(value)
    return mutate(doc, path, value)


# every error line of a fuzzed document names a field of it (a top-level key,
# then .name or [k] steps), or the file itself when it is not an object; or
# it is an iteration error carrying its state, or a write failure
FUZZ_ERROR_LINE = re.compile(
    r"error: ((schema_version|space|aggregate|endowments|agents|constraints|task)"
    r"(\.\w+|\[\d+\])*|p\.json): "
    r"|error: .* \((residual \S+|transfers \d+)\)$"
    r"|error: cannot write "
    r"|infeasible: |mismatch: ")


class TestLoadProblem:
    def test_fractions_and_infinities(self, tmp_path):
        problem = load_problem(write(tmp_path, "p.json", solve_doc()))
        assert problem["space"].size == 2
        assert problem["deltas"] == [1.0, 1.0]
        # the task is kept as written, and its parsed fields sit beside it
        assert problem["task"] == solve_doc()["task"]
        assert problem["lower"] == [-math.inf, -math.inf]
        assert problem["upper"] == [0.5, math.inf]
        # "-inf" leaves agent 1 unbounded below, and "1/2" is its cap 0.5
        doc = solve_doc()
        doc["task"]["upper"][0] = "1/2"
        report = run_problem(write(tmp_path, "q.json", doc))
        assert report == run_problem(write(tmp_path, "p.json", solve_doc()))
        rows = report["tables"]["allocation"]["rows"]
        assert [r[3] for r in rows] == pytest.approx((-0.5, 0.5), abs=1e-9)

    def test_all_failures_reported_at_once(self, tmp_path):
        doc = {
            "schema_version": 2,
            "space": {"atoms": [{"label": "a", "prob": "x"},
                                {"label": "b", "prob": 0.5}]},
            "aggregate": [0, 1],
            "endowments": [[0, 1]],
            "agents": ["not an object"],
            "constraints": [{"kind": "weird"}],
        }
        with pytest.raises(SchemaError) as exc:
            load_problem(write(tmp_path, "bad.json", doc))
        failures = exc.value.failures
        assert len(failures) == 6
        joined = "\n".join(failures)
        assert "schema_version: expected 1" in joined
        assert "task.kind: expected one of" in joined
        assert "space.atoms[0].prob: cannot parse number 'x'" in joined
        assert "give either 'aggregate' or 'endowments', not both" in joined
        assert "agents[0]: expected an object" in joined
        assert "constraints[0].kind: unknown constraint kind 'weird'" in joined

    def test_invalid_json_and_missing_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_problem(str(path))
        with pytest.raises(SchemaError, match="cannot read"):
            load_problem(str(tmp_path / "missing.json"))

    def test_nan_rejected(self, tmp_path):
        doc = solve_doc()
        doc["aggregate"] = [0, float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json emits bare NaN
        with pytest.raises(SchemaError, match="NaN"):
            load_problem(str(path))

    def test_every_kind_parses(self, tmp_path):
        problem = load_problem(write(tmp_path, "p.json", kinds_doc()))
        assert problem["measures"] == [RiskMeasureSpec.var(0.9),
                                       RiskMeasureSpec.mean_variance(2.0)]
        assert problem["deltas"] == [0.5, None]
        constraints = problem["constraints"]
        assert [c.scope for c in constraints] == [None, None, None, 0, None, 1, 0]
        assert [c.kind for c in constraints[:5] + constraints[6:]] == [
            PathwiseBounds(-math.inf, math.inf),
            ExpectationConstraint(">=", -1 / 3),
            OrliczBound((0.5, 2.0, 0.5, 1.0), 4.0),
            RiskCeiling(RiskMeasureSpec.es(0.2), 10.0),
            RiskFloor(RiskMeasureSpec.expected_convex_loss(0.5, 2.0, 0.5, 1.0), -3.5),
            AggregateEnvelope(((1.0, -0.25), (3.0, 0.0)), ((1.0, 2.0), (3.0, 3.5))),
        ]
        retention = constraints[5].kind
        assert type(retention) is IdiosyncraticRetention
        assert list(retention.endowment.values) == [0.0, 0.5, 1.0]
        assert retention.deductible == 1.5
        # omitted fields take their defaults
        doc = kinds_doc()
        doc["constraints"][0] = {"kind": "pathwise_bounds", "lower": 0}
        del doc["constraints"][1]["relation"]
        box, mean = load_problem(write(tmp_path, "p.json", doc))["constraints"][:2]
        assert box.kind == PathwiseBounds(0.0, math.inf)
        assert mean.kind == ExpectationConstraint("<=", -1 / 3)
        doc["constraints"][0] = {"kind": "pathwise_bounds", "upper": "1/2"}
        box = load_problem(write(tmp_path, "p.json", doc))["constraints"][0]
        assert box.kind == PathwiseBounds(-math.inf, 0.5)


class TestRunProblem:
    def test_improve_golden(self, tmp_path):
        report = run_problem(write(tmp_path, "p.json", improve_doc()))
        assert report["task"] == "improve"
        assert report["transfers"] == 1
        assert report["all_verified"] is True
        assert report["objective_deltas"] == [0.0, 0.0]
        rows = report["tables"]["allocation"]["rows"]
        assert [r[3] for r in rows] == [0.25, 0.75, 1.25]
        assert [r[4] for r in rows] == [0.75, 1.25, 1.75]

    def test_solve_mv(self, tmp_path):
        report = run_problem(write(tmp_path, "p.json", solve_doc()))
        assert report["task"] == "solve-mv"
        assert report["objective"] == pytest.approx(1.5, abs=1e-9)
        assert report["intercepts"] == pytest.approx((0.0, 1.0), abs=1e-8)
        assert report["comonotonic"] is True
        rows = report["tables"]["allocation"]["rows"]
        assert [r[3] for r in rows] == pytest.approx((-0.5, 0.5), abs=1e-9)

    def test_capped_solve_report_golden(self, tmp_path, capsys):
        # breakpoints, active sets and slopes end to end, as `coshare run`
        # prints them
        assert main(["run", write(tmp_path, "p.json", capped_solve_doc()),
                     "--format", "json"]) == 0
        with open(os.path.join(GOLDEN, "run-solve-mv.json"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.parametrize("lower, upper", (([0, 0], [1e308, 1e308]),
                                              ([0, "-inf"], [1e308, "inf"])))
    def test_caps_at_the_float_maximum_solve(self, tmp_path, capsys, lower, upper):
        # the caps never bind: X = S/2 each, objective E[S] + Var(S)/2 =
        # 1.625; H's level at the cap's kink is past the float range
        doc = solve_doc()
        doc["aggregate"] = [1, 2]
        doc["task"].update(lower=lower, upper=upper)
        assert main(["run", write(tmp_path, "p.json", doc), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objective"] == 1.625
        assert "inf" in report["breakpoints"]

    def test_stand_in_caps_solve_as_no_caps(self, tmp_path, capsys):
        # caps +-1e17 on agent 2 never bind: the objective is 101/24, as
        # with no caps
        doc = solve_doc()
        doc["space"]["atoms"] = [{"label": f"w{k}", "prob": 0.25} for k in range(4)]
        doc["aggregate"] = [1, 2, 3, 5]
        doc["agents"] = [{"delta": 1}, {"delta": 2}]
        doc["task"].update(lower=["-inf", -1e17], upper=["inf", 1e17])
        assert main(["run", write(tmp_path, "p.json", doc), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["objective"] == 4.20833333333

    def test_oracle(self, tmp_path):
        report = run_problem(write(tmp_path, "p.json", oracle_doc()))
        assert report["task"] == "oracle"
        assert report["value"] == pytest.approx(2.0, abs=1e-12)
        assert report["comonotone"] is False
        assert sum(report["objective_parts"]) == pytest.approx(2.0, abs=1e-12)

    def test_check_solidity(self, tmp_path):
        report = run_problem(write(tmp_path, "p.json", solidity_doc()))
        assert report["task"] == "check-solidity"
        assert report["status"] == "NotSolid"
        assert report["witness_found"] is True
        assert report["witness_method"] == "comonotonic improvement"
        reduction = report["tables"]["witness_reduction"]["rows"]
        assert [r[3] for r in reduction] == [0.0, 0.5, 0.5, 1.0]
        # with an aggregate in place of the endowments and no agent list,
        # the start rows count the agents and the search is the same
        assert run_problem(write(tmp_path, "q.json", aggregate_solidity_doc())) == report


class TestEmission:
    def test_json_is_parseable_and_deterministic(self, tmp_path, capsys):
        report = run_problem(write(tmp_path, "p.json", improve_doc()))
        first = emit_report(report, "json")
        second = emit_report(report, "json")
        capsys.readouterr()
        assert first == second
        parsed = json.loads(first)
        assert list(parsed)[0] == "schema_version"
        assert parsed["transfers"] == 1

    def test_infinities_as_strings(self, capsys):
        text = emit_report({"bounds": [math.inf, -math.inf]}, "json")
        capsys.readouterr()
        assert json.loads(text)["bounds"] == ["inf", "-inf"]

    def test_csv_table(self, tmp_path, capsys):
        report = run_problem(write(tmp_path, "p.json", improve_doc()))
        text = emit_report(report, "csv")
        capsys.readouterr()
        lines = text.splitlines()
        assert lines[0] == "# table: allocation"
        assert lines[1] == "atom,prob,S,X_1,X_2"
        assert lines[2] == "s1,0.333333333333,1,0.25,0.75"

    def test_text_format(self, tmp_path, capsys):
        report = run_problem(write(tmp_path, "p.json", improve_doc()))
        text = emit_report(report, "text")
        capsys.readouterr()
        assert "transfers: 1" in text
        assert "all_verified: true" in text
        assert "[allocation]" in text

    def test_unknown_format(self):
        with pytest.raises(SchemaError):
            emit_report({}, "yaml")


@pytest.fixture(scope="class")
def fuzz_dir(tmp_path_factory):
    """The working directory of every fuzz example: each writes its document
    and report over the last one's, and no run reads a file it did not write."""
    return tmp_path_factory.mktemp("fuzz")


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        assert main(["run", str(write(tmp_path, "p.json", improve_doc())),
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["all_verified"] is True

    def test_overflowing_envelope_slope_exits_zero(self, tmp_path, capsys):
        # the upper envelope's first slope, 1e300 over 1e-300, overflows to
        # inf: the verdict names it and the run ends cleanly
        doc = aggregate_solidity_doc()
        doc["constraints"] = [{"kind": "envelope", "lower": [[0, 0], [2, 0]],
                               "upper": [[0, 0], [1e-300, 1e300], [2, 1e300]]}]
        assert main(["run", write(tmp_path, "p.json", doc), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["status"] == "NotSolid"
        assert "slope inf > 1" in report["reason"]

    def test_aggregate_past_two_to_the_1023_exits_zero(self, tmp_path, capsys):
        # max |S| = 1e308: the solve runs, with no RuntimeWarning, and the
        # objective, whose variances pass the float range, reads inf
        doc = solve_doc()
        doc["aggregate"] = [0, 1e308]
        assert main(["run", write(tmp_path, "p.json", doc), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["objective"] == "inf"
        assert report["intercepts"] == [-2.5e307, 7.5e307]

    def test_bare_path_implies_run(self, tmp_path, capsys):
        assert main([str(write(tmp_path, "p.json", improve_doc()))]) == 0
        assert json.loads(capsys.readouterr().out)["transfers"] == 1

    def test_seed_tol_and_out(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["run", str(write(tmp_path, "p.json", oracle_doc())),
                     "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out_file.read_text())["task"] == "oracle"

    def test_run_reproduce_out_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p.json", reproduce_doc())
        assert main(["run", "p.json", "--out", "report.json"]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == out
        artifacts = json.loads(out)["artifacts"]
        assert artifacts and all(
            os.path.dirname(p) == "." and (tmp_path / p).is_file() for p in artifacts)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["run", write(tmp_path, "p.json", improve_doc()), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, "p.json", improve_doc()),
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_reproduce_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["reproduce", "fig-6.3", "--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {taken}: File exists\n"

    def test_import_loads_no_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        # importing, then running the Gamma(2,1) paths: the quantile's root
        # and the sec-6.4 study with its nested bounded minimizations
        for work in ("import coshare, sys",
                     "import coshare, coshare.cli, sys; "
                     "coshare.gamma_quantile(coshare.GammaAggregate(), 0.5); "
                     "assert coshare.cli.main(['reproduce', 'sec-6.4']) == 0"):
            out = subprocess.run([sys.executable, "-c", f"{work}; {loaded}"], env=env,
                                 cwd=tmp_path, check=True, capture_output=True,
                                 text=True).stdout
            assert out.splitlines()[-1] == "[]"

    def test_python_m_coshare_runs_a_document(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = write(tmp_path, "p.json", improve_doc())
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "coshare", "run", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["task"] == "improve"

    def test_schema_error_exit_one(self, tmp_path, capsys):
        doc = improve_doc()
        del doc["task"]
        assert main([str(write(tmp_path, "bad.json", doc))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_infeasible_exit_two(self, tmp_path, capsys):
        doc = oracle_doc()
        doc["constraints"] = [{"kind": "pathwise_bounds", "lower": 5, "scope": 0}]
        assert main([str(write(tmp_path, "p.json", doc))]) == 2
        assert capsys.readouterr().err.startswith("infeasible: ")

    def test_count_fields_read_number_strings(self, tmp_path):
        doc = solidity_doc()
        doc["task"].update(seed="7", budget="1e2")
        as_text = run_problem(write(tmp_path, "p.json", doc))
        doc["task"].update(seed=7, budget=100)
        assert as_text == run_problem(write(tmp_path, "q.json", doc))

    def test_reproduce_mismatch_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken():
            return {"case": "fig-6.3", "tables": {}}, [
                {"name": "breakpoint count", "expected": 3, "computed": 2,
                 "ok": False}]
        monkeypatch.setitem(cli._REPRODUCERS, "fig-6.3", broken)
        monkeypatch.chdir(tmp_path)
        doc = write(tmp_path, "p.json", mutated(reproduce_doc, ("task", "case"), "fig-6.3"))
        # the reproduce command and run on a reproduce document alike
        for argv in (["reproduce", "fig-6.3", "--out", str(tmp_path)], ["run", doc]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "mismatch: breakpoint count: expected 3, got 2\n"

    @pytest.mark.parametrize("doc_fn, node, value, where", (
        (improve_doc, ("constraints",), 5, "constraints"),
        (solidity_doc, ("task", "budget"), "x", "task.budget"),
        (solidity_doc, ("task", "budget"), -1, "task.budget"),
        (solidity_doc, ("task", "seed"), "x", "task.seed"),
        (solidity_doc, ("task", "start"), 3, "task.start"),
        (family_doc, ("task", "grid", "family", "base"), 5, "task.grid.family.base"),
        (oracle_doc, ("task", "grid", "ranges", 0, 1, 2), "x",
         "task.grid.ranges[0][1][2]"),
        (reproduce_doc, ("task", "case"), ["x"], "task.case"),
        (solve_doc, ("aggregate", 1), "1e400", "aggregate[1]"),
        (solve_doc, ("aggregate", 1), 10 ** 400, "aggregate[1]"),
        (solidity_doc, ("constraints", 0, "scope"), True, "constraints[0].scope"),
        (unstarted_solidity_doc, ("constraints", 1, "scope"), 3000,
         "constraints[1].scope"),
        (kinds_doc, ("constraints", 3, "scope"), 2, "constraints[3].scope"),
        (aggregate_solidity_doc, ("constraints", 1, "scope"), 2,
         "constraints[1].scope"),
        (unsized_solidity_doc, ("constraints", 0, "scope"), 0, "constraints[0].scope"),
        (improve_doc, ("task", "shares"),
         [["1/4", "1/4", "7/4"], ["3/4", "7/4", "5/4"], [0, 0, 0]], "task.shares"),
    ), ids=("constraints-int", "budget-text", "budget-negative", "seed-text",
            "start-int", "family-base-int", "grid-number-text", "case-list",
            "number-text-1e400", "number-int-1e400", "scope-bool", "scope-past-endowments",
            "scope-at-agents", "scope-past-start", "scope-without-agent-count",
            "shares-past-agents"))
    def test_malformed_document_exit_one(self, tmp_path, capsys, doc_fn, node,
                                         value, where):
        assert main([write(tmp_path, "bad.json", mutated(doc_fn, node, value))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("doc_fn, node, value, where", (
        # a value the library rejects: a grid as it is read, the rest as the
        # task runs
        (solve_doc, ("task", "upper"), [0.5], "task"),
        (solve_doc, ("task", "lower"), [1, "-inf"], "task"),
        (solve_doc, ("agents", 0, "delta"), -1, "task"),
        (solve_doc, ("agents", 0, "delta"), 1e-320, "task"),
        (oracle_doc, ("constraints",), [{"kind": "envelope", "lower": [[0, -5], [1, -5]],
                                         "upper": [[0, 5], [1, 5]]}], "task"),
        (family_doc, ("task", "grid", "family", "direction"), [[0, 1, 0]], "task.grid"),
        (oracle_doc, ("agents",), [{"measure": {"kind": "es", "level": 0.5}}] * 3, "task"),
        (oracle_doc, ("task", "grid", "ranges"), [[[0, 1, 1]]], "task"),
        (oracle_doc, ("task", "grid", "ranges", 0, 0), [0, 1, 0.3], "task.grid"),
        # an axis too long to build is counted, never built
        (oracle_doc, ("task", "grid", "ranges", 0, 0), [0, 1e12, 1e-3], "task"),
        (oracle_doc, ("task", "grid", "ranges", 0, 0), [0, 1, 1e-300], "task"),
        (oracle_doc, ("task", "grid", "ranges", 0, 0), [0, 1e308, 1e-10], "task.grid"),
        (oracle_doc, ("task", "grid", "ranges", 0, 0), [-1e308, 1e308, 1], "task.grid"),
        (oracle_doc, ("task", "grid", "ranges", 0), [[0, 1e8, 1], [0, 1e8, 1]], "task"),
        (improve_doc, ("task", "shares"), [[0, 0, 0], [0, 0, 0]], "task"),
        (solidity_doc, ("task", "start"), [[0, 1, 0, 1], [0, 0, 1, 1]], "task"),
        (solidity_doc, ("task", "start", 1), [0, 1, 0, 2], "task"),
        # a document field the task needs, or one it cannot take
        (improve_doc, ("task", "shares", 0), [1, 2], "task.shares[0]"),
        (solve_doc, ("agents", 1), {}, "agents"),
        (oracle_doc, ("agents", 1), {}, "agents"),
        (oracle_doc, ("task", "grid"), DELETE, "task.grid"),
        (improve_doc, ("space",), {"gamma": {}}, "space"),
        (improve_doc, ("endowments",), [[0, 1, 1], [1, 1, 2]], "endowments"),
        (improve_doc, ("aggregate",), DELETE, "aggregate"),
        # a flagged number is reported once, and not again by a constructor
        (improve_doc, ("constraints",), [{"kind": "expectation", "bound": "inf"}],
         "constraints[0].bound"),
        (solidity_doc, ("endowments", 0, 1), "x", "endowments[0][1]"),
        (solidity_doc, ("constraints", 0, "endowment", 1), "x",
         "constraints[0].endowment[1]"),
    ), ids=("caps-unequal-length", "lower-above-upper",
            "delta-negative", "delta-reciprocal-inf", "envelope-uncovered",
            "family-direction-width",
            "grid-too-few-agents", "grid-atom-count", "grid-step-off-range",
            "grid-axis-1e15-points", "grid-axis-1e300-points", "grid-axis-inf-steps",
            "grid-axis-inf-span", "grid-1e16-points", "shares-not-clearing", "start-infeasible", "start-not-clearing",
            "share-row-length", "agent-without-delta", "agent-without-measure",
            "oracle-without-grid", "improve-on-gamma", "aggregate-and-endowments",
            "neither-aggregate-nor-endowments", "expectation-bound-inf",
            "endowment-text", "retention-endowment-text"))
    def test_one_fault_one_line_at_its_field(self, tmp_path, capsys, doc_fn, node,
                                             value, where):
        assert main([write(tmp_path, "bad.json", mutated(doc_fn, node, value))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("doc_fn, faults, lines", (
        (solve_doc, {("agents", 0, "delta"): "x", ("task", "lower", 1): "y"},
         ("agents[0].delta: cannot parse number 'x'",
          "task.lower[1]: cannot parse number 'y'")),
        (solidity_doc, {("schema_version",): 2, ("task", "budget"): -1,
                        ("task", "seed"): "x"},
         ("schema_version: expected 1", "task.seed: expected a nonnegative integer",
          "task.budget: expected a nonnegative integer")),
        (oracle_doc, {("task", "comonotone"): "false", ("task", "grid"): 5},
         ("task.comonotone: expected true or false",
          "task.grid: expected an object with 'ranges' or 'family'")),
        (oracle_doc, {("schema_version",): 2,
                      ("task", "grid", "ranges", 0, 0): [0, 1, 0.3]},
         ("schema_version: expected 1",
          "task.grid: grid range must span a whole number of steps")),
        (oracle_doc, {("task", "comonotone"): 1,
                      ("task", "grid", "ranges", 0, 1): [0, 1]},
         ("task.comonotone: expected true or false",
          "task.grid: ranges need one (lo, hi, step) triple of reals per free agent "
          "and atom")),
    ), ids=("delta-and-lower", "version-budget-and-seed", "comonotone-and-grid",
            "version-and-grid-step", "comonotone-and-grid-triple"))
    def test_every_fault_once_at_its_field(self, tmp_path, capsys, doc_fn, faults,
                                           lines):
        # faults in the common fields and in the task's own are reported
        # together, each once; a delta that fails to parse is not also missing
        doc = copy.deepcopy(doc_fn())
        for node, value in faults.items():
            mutate(doc, node, value)
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join(f"error: {line}\n" for line in lines)

    def test_unparsed_atoms_are_not_a_gamma_space(self, tmp_path, capsys):
        # atoms that fail to parse leave no space, but the retentions on
        # them are not on a gamma space: the probability is the one fault
        doc = mutated(solidity_doc, ("space", "atoms", 0, "prob"), "x")
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: space.atoms[0].prob: cannot parse number 'x'\n")

    def test_retention_on_gamma_space(self, tmp_path, capsys):
        doc = mutated(solidity_doc, ("space",), {"gamma": {}})
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: constraints[0]: retention needs a finite space\n"
            "error: constraints[1]: retention needs a finite space\n")

    def test_grid_arity_names_the_grid(self, tmp_path, capsys):
        doc = mutated(oracle_doc, ("agents",), [{"measure": {"kind": "es", "level": 0.5}}] * 3)
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: task: grid has 1 free agents, so it needs 2 objectives; got 3\n")

    @pytest.mark.parametrize("value", ("false", "true", 0, 1, None, [True]))
    def test_comonotone_flag_must_be_boolean(self, tmp_path, capsys, value):
        doc = oracle_doc()
        doc["task"]["comonotone"] = value
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: task.comonotone: expected true or false\n"
        doc["task"]["comonotone"] = True
        assert run_problem(write(tmp_path, "p.json", doc))["comonotone"] is True

    def test_start_rows_need_one_value_per_atom(self, tmp_path, capsys):
        doc = solidity_doc()
        doc["task"]["start"][1] = [0, 1, 0]
        assert main([write(tmp_path, "bad.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: task.start[1]: need one value per atom (4 atoms, 3 values)\n")

    def test_convergence_error_reports_residual(self, tmp_path, capsys, monkeypatch):
        def stalled(problem):
            raise ConvergenceError("intercept fixed point did not converge",
                                   last_iterate=(0.0, 1.0), residual=4.1e-06)
        monkeypatch.setattr(coshare.mvsolver, "solve_capped_mv", stalled)
        assert main([write(tmp_path, "p.json", solve_doc())]) == 1
        assert capsys.readouterr().err == (
            "error: intercept fixed point did not converge (residual 4.1e-06)\n")

    def test_nontermination_error_reports_transfers(self, tmp_path, capsys,
                                                    monkeypatch):
        def capped(allocation, measures=None):
            raise NonterminationError("transfer cap 10 exceeded",
                                      state={"level_values": None, "transfers": 11})
        monkeypatch.setattr(cli, "comonotonic_improvement", capped)
        assert main([write(tmp_path, "p.json", improve_doc())]) == 1
        assert capsys.readouterr().err == (
            "error: transfer cap 10 exceeded (transfers 11)\n")

    @settings(max_examples=1000)
    @given(data=st.data())
    def test_mutated_documents_exit_cleanly(self, fuzz_dir, data):
        # one or two nodes of a valid document mutated: the CLI answers with
        # a documented exit code, never a traceback, and names each fault once
        doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS))())
        n_agents = agent_count(doc)
        for _ in range(data.draw(st.integers(1, 2))):
            doc = draw_mutation(data, doc, n_agents)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(fuzz_dir)  # reproduce tasks write their CSV files here
        try:
            with open("p.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["p.json", "--out", "report.json"])
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        assert len(set(lines)) == len(lines), lines
        for line in lines:
            assert FUZZ_ERROR_LINE.match(line), line

    def test_usage_error_exit_one(self, capsys):
        assert main(["reproduce", "no-such-case"]) == 1
        capsys.readouterr()

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_reproduce_takes_no_seed_or_tol(self, tmp_path, capsys):
        # the document is the whole record of a run: the seed is task.seed,
        # and the oracle's tolerance is VALUE_TOL; neither command takes a flag
        path = write(tmp_path, "p.json", solidity_doc())
        for argv in (["run", path], ["reproduce", "ex-3.1", "--out", str(tmp_path)]):
            for flag in (["--tol", "1"], ["--seed", "7"]):
                assert main(argv + flag) == 1
                assert capsys.readouterr().out == ""


# a fresh interpreter's coshare submodules, each with whether its body ran
# (a module whose body has not run is still LazyLoader's module subclass)
MODULES_RUN = ("print(json.dumps({name.split('.')[1]: type(module) is types.ModuleType "
               "for name, module in sys.modules.items() if name.startswith('coshare.')}))")
BASE_MODULES = {"errors", "probspace", "stochorder", "riskmeasures", "allocation", "cli"}
# each command -> the coshare modules whose bodies it runs; every other
# submodule is registered but never runs
MODULES_BY_COMMAND = {
    "run improve": BASE_MODULES,
    "run solve-mv": BASE_MODULES | {"mvsolver"},
    "run oracle": BASE_MODULES | {"constraints", "oracle"},
    "run check-solidity": BASE_MODULES | {"constraints"},
    "run reproduce": BASE_MODULES | {"constraints"},
    "reproduce ex-3.1": BASE_MODULES | {"constraints"},
    "reproduce ex-4.2": BASE_MODULES | {"constraints", "oracle"},
    "reproduce ex-4.3": BASE_MODULES | {"constraints", "oracle"},
    "reproduce fig-6.3": BASE_MODULES | {"mvsolver"},
    "reproduce sec-6.4": BASE_MODULES | {"mvsolver"},
}
RUN_DOCS = {"improve": improve_doc, "solve-mv": solve_doc, "oracle": oracle_doc,
            "check-solidity": solidity_doc, "reproduce": reproduce_doc}
SUBMODULES = {"errors", "probspace", "stochorder", "riskmeasures", "allocation",
              "constraints", "mvsolver", "oracle", "cli"}


def modules_run(tmp_path, work):
    """{submodule: whether its body ran} after `work` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"import json, sys, types; {work}; {MODULES_RUN}"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          cwd=tmp_path, check=True, capture_output=True, text=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


class TestPackage:
    def test_import_runs_no_module_body(self, tmp_path):
        ran = modules_run(tmp_path, "import coshare")
        assert set(ran) == SUBMODULES
        assert not any(ran.values())

    @pytest.mark.parametrize("command", MODULES_BY_COMMAND)
    def test_command_runs_only_its_modules(self, tmp_path, command):
        verb, what = command.split()
        argv = ["reproduce", what]
        if verb == "run":
            argv = ["run", write(tmp_path, "p.json", RUN_DOCS[what]())]
        ran = modules_run(tmp_path, "from coshare.cli import main; "
                                    f"assert main({argv!r}) == 0")
        assert set(ran) == SUBMODULES
        assert {name for name, body_ran in ran.items() if body_ran} == (
            MODULES_BY_COMMAND[command])

    def test_public_names_are_their_modules_attributes(self):
        for name in coshare.__all__:
            value = getattr(coshare, name)
            assert value.__module__.startswith("coshare.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_patched_attribute_shows_through(self, monkeypatch):
        original = coshare.var_scenario
        replacement = object()
        monkeypatch.setattr(coshare.mvsolver, "var_scenario", replacement)
        assert coshare.var_scenario is replacement
        monkeypatch.undo()
        assert coshare.var_scenario is original

    def test_dir_and_unknown_names(self):
        assert set(coshare.__all__) <= set(dir(coshare))
        assert SUBMODULES <= set(dir(coshare))
        with pytest.raises(AttributeError, match="no_such_name"):
            coshare.no_such_name
        assert not hasattr(coshare, "VALUE_TOL")  # defined, but not exported

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from coshare import *", namespace)
        for name in coshare.__all__:
            assert namespace[name] is getattr(coshare, name)


GOLDEN =os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def assert_matches_golden(case, report, artifacts):
    """The JSON and text reports and every CSV artifact of one reproduce
    case, run with out_dir ".", equal the committed files in tests/golden
    byte for byte."""
    for fmt, ext in (("json", "json"), ("text", "txt")):
        with open(os.path.join(GOLDEN, f"{case}.{ext}"), "rb") as fh:
            want = fh.read()
        assert emit_report(report, fmt, io.StringIO()).encode("utf-8") == want, (case, fmt)
    names = sorted(os.path.basename(p) for p in artifacts)
    assert names == sorted(f for f in os.listdir(GOLDEN)
                           if f.startswith(f"{case}-") and f.endswith(".csv"))
    for name in names:
        with open(name, "rb") as got, open(os.path.join(GOLDEN, name), "rb") as want:
            assert got.read() == want.read(), name


class TestReproduce:
    def test_fig63_artifacts_are_stable(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report, artifacts = reproduce("fig-6.3", ".")
        assert all(c["ok"] for c in report["checks"])
        assert report["terminal_s"] is None
        (path,) = artifacts
        assert os.path.basename(path) == "fig-6.3-curve.csv"
        first = open(path, "rb").read()
        assert first.startswith(b"s,X_1,X_2,X_3,X_4\n")
        assert_matches_golden("fig-6.3", report, artifacts)
        reproduce("fig-6.3", ".")
        assert open(path, "rb").read() == first

    @pytest.mark.parametrize("case", ("ex-3.1", "ex-4.2", "ex-4.3", "sec-6.4"))
    def test_published_numbers_hold(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        report, artifacts = reproduce(case, ".")
        assert all(c["ok"] for c in report["checks"]), report["checks"]
        assert artifacts and all(os.path.exists(p) for p in artifacts)
        assert_matches_golden(case, report, artifacts)

    def test_sec64_holds_to_the_printed_precision(self):
        _, checks = cli._REPRODUCERS["sec-6.4"]()
        measured = [c for c in checks if c["tol"] is not None]
        assert len(measured) == 8
        for c in measured:
            assert c["tol"] <= 5e-5, c["name"]
            assert abs(c["computed"] - c["expected"]) < 5e-5, c["name"]

    def test_unknown_case(self, tmp_path):
        with pytest.raises(SchemaError, match="unknown reproduce case"):
            reproduce("ex-9.9", str(tmp_path))

    def test_mismatch_carries_diffs(self, tmp_path, monkeypatch):
        def broken():
            return {"case": "ex-3.1", "tables": {}}, [
                {"name": "n", "expected": 1, "computed": 0, "ok": False}]
        monkeypatch.setitem(cli._REPRODUCERS, "ex-3.1", broken)
        with pytest.raises(ReproduceMismatch) as exc:
            reproduce("ex-3.1", str(tmp_path))
        assert exc.value.diffs == ("n: expected 1, got 0",)
