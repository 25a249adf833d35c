"""coshare benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads (see workloads.py):

  mv-capped         solve_capped_mv over m x n cells plus the m=1e4, n=32 stretch cell
  improve-certify   comonotonic_improvement and its certificate, plus m=1e4, n=8
  crosscheck-small  tiny solver/oracle/improvement/solidity property instances
  cli-reproduce     the coshare CLI as child processes, one at a time

Every workload is a closed loop with one client: one operation at a time,
each under a time budget (SIGALRM in-process, a subprocess timeout for CLI
children), each output checked.  ``--seconds`` sizes the run: it runs
round((seconds - stretch budgets) / nominal round time) whole rounds, so
every run of a workload does the same mix of work and takes about
``--seconds`` on the baseline commit.

Timings are scaled to a reference host speed.  The shared host the baseline
was taken on runs the same fixed loop up to 40-50% faster or slower from one
minute to the next, so raw times of one commit measured half an hour apart
differ by more than any bound.  Each run therefore times a fixed reference task
between its operations (a Python and small-numpy loop for in-process work,
a ``python -c "import numpy"`` child for child processes) and multiplies
every time by (nominal reference time) / (median of the nearest reference
timings).  The raw figures and the median scale factor are printed on a
``#`` line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many
rounds, each operation untraced and then traced (tracer.py), and prints the
per-layer metrics.  The last line of standard output is the result object;
the lines before it restate each metric with its unit and list every failed
operation.
"""

import os
import sys

# Pin BLAS pools before anything imports numpy; children inherit these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("mv-capped", "improve-certify", "crosscheck-small", "cli-reproduce")
# Seconds one round takes on the baseline commit (2 CPUs, Python 3.11).
NOMINAL_ROUND_S = {"mv-capped": 2.7, "improve-certify": 4.1,
                   "crosscheck-small": 2.0, "cli-reproduce": 11.5}
STRETCH_STREAM = 1_000_000
SETUP_PROBES = 3
SAFETY_FACTOR = 4.0            # stop starting rounds after 4x --seconds
TAIL_ABOVE = 10                # samples the tail percentile leaves above it
FAILED_LATENCY_MS = 1e9        # stands for +inf when a percentile lands on a failure

# Host-speed reference: what the reference tasks take on a quiet host of the
# kind the baseline was taken on (2 vCPUs of a 2.1 GHz Xeon, Python 3.11).
REFERENCE_KERNEL_S = 1.0e-3
REFERENCE_CHILD_S = 0.13
KERNEL_NEIGHBOURS = 3          # kernel timings whose median scales an op
CHILD_NEIGHBOURS = 9           # reference-child timings whose median scales a child

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "ok_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def reference_kernel():
    """Fixed Python and small-numpy work that uses nothing from coshare."""
    x = np.linspace(0.0, 1.0, 32)
    acc = 0.0
    for i in range(300):
        y = np.maximum(x - 0.003 * i, 0.0)
        acc += float(y @ x)
        acc += sum([k * i for k in range(16)]) * 1e-9
    return acc


def reference_child():
    # Captured output: waiting on the pipes wakes at exit, where a bare wait
    # with a timeout polls every 50 ms and rounds the time up to that.
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True, timeout=60)


class HostSpeed:
    """Timings of a reference task interleaved with the operations.

    ``sample()`` times the task once; ``scale(t)`` is nominal / (median of
    the ``neighbours`` timings nearest to time t), the factor that turns a
    time measured at t into one at reference host speed."""

    def __init__(self, task, nominal, neighbours):
        self.task = task
        self.nominal = nominal
        self.neighbours = neighbours
        self.at = []
        self.took = []

    def sample(self):
        now = time.perf_counter()
        self.task()
        self.at.append(now)
        self.took.append(time.perf_counter() - now)

    def scale(self, t):
        k = self.neighbours
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - k // 2, len(self.took) - k))
        return self.nominal / statistics.median(self.took[lo:lo + k])


def kernel_speed():
    return HostSpeed(reference_kernel, REFERENCE_KERNEL_S, KERNEL_NEIGHBOURS)


def child_speed():
    return HostSpeed(reference_child, REFERENCE_CHILD_S, CHILD_NEIGHBOURS)


def rounds_for(workload, seconds):
    import workloads as wl
    stretch = {"mv-capped": wl.MV_STRETCH_BUDGET_S,
               "improve-certify": wl.IMPROVE_STRETCH_BUDGET_S}.get(workload, 0.0)
    return max(1, round((seconds - stretch) / NOMINAL_ROUND_S[workload]))


# ---------------------------------------------------------------------------
# building operations

def build_ops(workload, seed, rounds):
    """(stretch ops, list of rounds) for an in-process workload."""
    import workloads as wl
    makers = {
        "mv-capped": (wl.mv_capped_stretch, wl.mv_capped_round),
        "improve-certify": (wl.improve_certify_stretch, wl.improve_certify_round),
        "crosscheck-small": (None, wl.crosscheck_small_round),
    }
    stretch_maker, round_maker = makers[workload]
    stretch = stretch_maker(wl.round_rng(seed, STRETCH_STREAM)) if stretch_maker else []
    return stretch, [round_maker(wl.round_rng(seed, r)) for r in range(rounds)]


class CliOp:
    """One coshare CLI invocation in a fresh working directory; check takes
    (stdout, working directory)."""

    def __init__(self, cell, argv, files, check, budget):
        self.cell = cell
        self.argv = argv
        self.files = files
        self.check = check
        self.budget = budget


def build_cli_rounds(seed, rounds):
    import workloads as wl
    result = []
    for r in range(rounds):
        docs = wl.cli_documents(wl.round_rng(seed, r))
        ops = []

        def add(cell, argv, files, check):
            fmt = wl.FORMATS[(r + len(ops)) % 3]
            ops.append(CliOp(f"{cell}-{fmt}", argv + ["--format", fmt], files,
                             lambda out, cwd: check(fmt, out, cwd), wl.CLI_BUDGET_S))

        for case in wl.REPRODUCE_CASES:
            add(f"reproduce-{case}", ["reproduce", case], {},
                lambda fmt, out, cwd, case=case:
                    wl.check_reproduce_output(fmt, out, cwd, case))
        for kind, doc in docs.items():
            add(f"run-{kind}", ["run", "problem.json"], {"problem.json": json.dumps(doc)},
                lambda fmt, out, cwd, kind=kind: wl.check_run_output(kind, fmt, out, cwd))
        doc = {"schema_version": 1, "space": {"gamma": {}},
               "task": {"kind": "reproduce", "case": wl.OUT_FILE_CASE}}
        ops.append(CliOp("run-reproduce-out-file",
                         ["run", "problem.json", "--out", "report.json"],
                         {"problem.json": json.dumps(doc)}, check_out_file,
                         wl.CLI_BUDGET_S))
        result.append(ops)
    return result


def check_out_file(out, cwd):
    path = os.path.join(cwd, "report.json")
    if not os.path.isfile(path):
        return "--out did not write a file"
    with open(path, encoding="utf-8") as fh:
        if fh.read() != out:
            return "--out file differs from stdout"
    return None


# ---------------------------------------------------------------------------
# executing operations

class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Record:
    __slots__ = ("cell", "latency", "status", "reason")

    def __init__(self, cell, latency, status, reason=None):
        self.cell = cell
        self.latency = latency
        self.status = status       # ok | wrong | error | timeout
        self.reason = reason


def _graded(check, *result):
    try:
        return check(*result)
    except Exception as exc:  # a malformed result is a wrong result
        return f"check raised {type(exc).__name__}: {exc}"


def run_inprocess(op):
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.budget)
        try:
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return Record(op.cell, time.perf_counter() - start, "timeout",
                      f"over its {op.budget:g} s budget")
    except Exception as exc:
        return Record(op.cell, time.perf_counter() - start, "error",
                      f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    reason = _graded(op.check, result)
    return Record(op.cell, latency, "ok" if reason is None else "wrong", reason)


def run_cli(op, trace_out=None):
    cwd = tempfile.mkdtemp(dir=WORK)
    try:
        for name, text in op.files.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cmd = [sys.executable, str(HERE / "child.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        cmd += ["--"] + op.argv
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                                  text=True, timeout=op.budget)
        except subprocess.TimeoutExpired:
            return Record(op.cell, time.perf_counter() - start, "timeout",
                          f"over its {op.budget:g} s budget")
        latency = time.perf_counter() - start
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            return Record(op.cell, latency, "error", f"traceback: {last}")
        if proc.returncode == 3:
            return Record(op.cell, latency, "wrong", "reproduction mismatch (exit 3)")
        if proc.returncode != 0:
            return Record(op.cell, latency, "error",
                          f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        reason = _graded(op.check, proc.stdout, cwd)
        return Record(op.cell, latency, "ok" if reason is None else "wrong", reason)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def execute(ops, seconds, runner, speed=None):
    """Run the stretch ops, then whole rounds, sampling ``speed`` before each
    op.  Returns the runner results and, per op, (start, seconds taken with
    the check, without the reference timing).  Stops starting rounds once
    SAFETY_FACTOR x seconds have gone."""
    stretch, rounds = ops
    records, slots = [], []
    start = time.perf_counter()
    index = 0
    for group in [stretch] + rounds:
        if group is not stretch and time.perf_counter() - start > SAFETY_FACTOR * seconds:
            break
        for op in group:
            if speed is not None:
                speed.sample()
            began = time.perf_counter()
            records.append(runner(op, index))
            slots.append((began, time.perf_counter() - began))
            index += 1
    return records, slots


# ---------------------------------------------------------------------------
# metrics

def latency_summary(records, scales):
    lat = sorted(r.latency * f * 1e3 if r.status == "ok" else math.inf
                 for r, f in zip(records, scales))
    n = len(lat)
    idx = max(n - TAIL_ABOVE - 1, 0)
    p50 = statistics.median(lat)
    tail = lat[idx]
    pct = 100.0 * (idx + 1) / n
    clip = lambda v: v if math.isfinite(v) else FAILED_LATENCY_MS
    return clip(p50), clip(tail), pct, n


def end_to_end(records, scales, busy_s, setup_s, peak_rss_kb):
    """``scales`` turns each record's latency into reference-speed time;
    ``busy_s`` is the reference-speed time of the passed operations."""
    passed = sum(r.status == "ok" for r in records)
    p50, tail, pct, n = latency_summary(records, scales)
    values = {
        "ops_per_s": passed / busy_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "ok_frac": passed / len(records),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": setup_s,
    }
    info = f"op_tail_ms is p{pct:.1f} of {n} operations ({TAIL_ABOVE} above it)"
    return values, info


def layer_metrics(stats, derived, import_s, overhead):
    out = {}
    for name, entry in stats.items():
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.self_s"] = (entry["self_s"], "s")
        out[f"{name}.errors"] = (entry["errors"], "count")
    calls = derived["falsify_calls"]
    out["mvsolver.fp_iterations"] = (derived["fp_iterations"], "count")
    out["allocation.transfers"] = (derived["transfers"], "count")
    out["oracle.grid_points"] = (derived["grid_points"], "count")
    out["constraints.falsify_solidity.witness_rate"] = (
        derived["witnesses"] / calls if calls else 0.0, "frac")
    out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


# ---------------------------------------------------------------------------
# set-up time

def setup_probe_cmd(args):
    if args.workload == "cli-reproduce":
        return [sys.executable, "-c", "import coshare"]
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--rounds", str(args.rounds or 0), "--setup-probe"]


def measure_setup(args):
    """Median wall time of fresh interpreters doing this run's set-up, raw
    and scaled by reference children timed between them."""
    speed = child_speed()
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        subprocess.run(setup_probe_cmd(args), cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    speed.sample()
    raw = statistics.median(times)
    return raw * speed.nominal / statistics.median(speed.took), raw


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="override the round count (0: derive from --seconds)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def emit(values, units, correct, attempted, failed):
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def report_failures(workload, records):
    """Print every failed operation; True when each is a known failure."""
    import workloads as wl
    bad = [r for r in records if r.status != "ok"]
    print(f"# {workload}: {len(records)} operations, {len(bad)} failed")
    unexpected = 0
    for r in bad:
        known = wl.known_failure(workload, r.cell, r.status, r.reason)
        unexpected += not known
        print(f"#   {r.cell}: {r.status}: {r.reason}{'' if known else '  (UNEXPECTED)'}")
    return unexpected == 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coshare" / "__init__.py").is_file():
        print(f"error: no coshare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import coshare  # noqa: F401  (timed: the package import)
    import_s = time.perf_counter() - start
    cli = args.workload == "cli-reproduce"
    rounds = args.rounds or rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    if args.setup_probe:
        if not cli:
            build_ops(args.workload, args.seed, rounds)
        return 0

    WORK.mkdir(exist_ok=True)
    if cli:
        ops = ([], build_cli_rounds(args.seed, rounds))
    else:
        ops = build_ops(args.workload, args.seed, rounds)

    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args)
        if cli:
            speed = child_speed()
            records, slots = execute(ops, args.seconds, lambda op, i: run_cli(op), speed)
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            speed = kernel_speed()
            records, slots = execute(ops, args.seconds,
                                     lambda op, i: run_inprocess(op), speed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scales = [speed.scale(began) for began, _ in slots]
        # Failed operations count in ok_frac, not here: how long a stall runs
        # before its budget cuts it is a wall time that scaling cannot fix.
        busy = sum(f * took for r, f, (_, took) in zip(records, scales, slots)
                   if r.status == "ok")
        values, info = end_to_end(records, scales, busy, setup_s, peak)
        raw, _ = end_to_end(records, [1.0] * len(records),
                            sum(took for r, (_, took) in zip(records, slots)
                                if r.status == "ok"), raw_setup_s, peak)
        expected = report_failures(args.workload, records)
        print(f"# {info}; {len(ops[1])} rounds")
        print("# raw, unscaled: " + ", ".join(
            f"{k} = {raw[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms",
                                            "setup_s"))
            + f"; median scale factor {statistics.median(scales):.4f}")
        emit(values, E2E_UNITS,
             expected and not any(r.status == "wrong" for r in records),
             len(records), sum(r.status != "ok" for r in records))
        return 0
    return traced_run(args, ops, cli, import_s)


def traced_run(args, ops, cli, import_s):
    """Each operation untraced and traced, back to back, the traced copy first
    on odd operations so that warm-up favours neither; the per-layer metrics
    come from the traced copies, the overhead from both."""
    from tracer import OP, Tracer, summarize
    processes, imports = [], []
    if cli:
        def both(op, i):
            path = str(WORK / f"spans-{args.workload}-{args.seed}-{i}.json")
            if i % 2:
                traced = run_cli(op, trace_out=path)
                plain = run_cli(op)
            else:
                plain = run_cli(op)
                traced = run_cli(op, trace_out=path)
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                os.remove(path)
                for span in data["spans"]:
                    span[OP] = i
                processes.append(data["spans"])
                imports.append(data["import_s"])
            return plain, traced
    else:
        tracer = Tracer()
        processes.append(tracer.spans)

        def traced_copy(op, i):
            tracer.op = i
            tracer.install()
            try:
                return run_inprocess(op)
            finally:
                tracer.uninstall()

        def both(op, i):
            if i % 2:
                traced = traced_copy(op, i)
                plain = run_inprocess(op)
            else:
                plain = run_inprocess(op)
                traced = traced_copy(op, i)
            return plain, traced

    pairs, _ = execute(ops, args.seconds, both)
    if cli:
        import_s = statistics.median(imports) if imports else 0.0
    with open(WORK / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error", "note"],
                   "processes": processes}, fh)
    timed_out = {i for i, (a, b) in enumerate(pairs) if "timeout" in (a.status, b.status)}
    kept = [pair for i, pair in enumerate(pairs) if i not in timed_out]
    plain_s = sum(a.latency for a, _ in kept)
    overhead = sum(b.latency for _, b in kept) / plain_s - 1.0 if plain_s else 0.0
    stats, derived = summarize(processes, skip_ops=timed_out)
    metrics = layer_metrics(stats, derived, import_s, overhead)
    traced = [b for _, b in pairs]
    expected = report_failures(args.workload, traced)
    print(f"# per-layer numbers cover {len(kept)} operations; "
          f"{len(timed_out)} over budget are left out")
    emit({k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()},
         expected and not any(r.status == "wrong" for r in traced),
         len(traced), sum(r.status != "ok" for r in traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
