"""Smoke test of the benchmark itself, at one round per workload.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced counts repeat exactly across two runs with the same seed,
and that corrupted results handed to the checkers count as failed.  Exits
nonzero on the first failure.  Takes a few minutes: the CLI workload alone
starts 11 child processes per pass.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("mvsolver.statewise_projection.calls", "allocation.transfers",
                   "oracle.grid_points", "mvsolver.fp_iterations")


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--rounds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert f"{name} = {entry['value']!r} {entry['unit']}" in lines, name
    return result


def check_names(result, declared):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)


def check_corruption():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import run as bench
    import workloads as wl
    from coshare import Allocation, RandomVariable

    def corrupt(allocation):
        values = [s.values.copy() for s in allocation.shares]
        values[0][0] += 1e-3          # no longer clears
        space = allocation.space
        return Allocation(space, tuple(RandomVariable(space, v) for v in values),
                          allocation.aggregate)

    rng = wl.round_rng(7, 0)
    op = wl.mv_capped_round(rng)[3]
    good = op.call()
    assert op.check(good) is None
    bad = (corrupt(good[0]), good[1])
    assert "clearing" in op.check(bad)
    broken = wl.Op(op.cell, lambda: bad, op.check)
    records = [bench.run_inprocess(op), bench.run_inprocess(broken)]
    assert [r.status for r in records] == ["ok", "wrong"]
    values, _ = bench.end_to_end(records, [2.0, 2.0], 1.0, 1.0, 1024)
    assert values["ok_frac"] == 0.5 and values["ops_per_s"] == 1.0
    assert values["op_p50_ms"] == bench.FAILED_LATENCY_MS
    assert not bench.report_failures("mv-capped", records)
    stretch = bench.Record("stretch-m10000-n32", 2.0, "timeout", "over its 2 s budget")
    assert bench.report_failures("mv-capped", [records[0], stretch])

    speed = bench.HostSpeed(lambda: None, 2.0, 3)
    speed.at, speed.took = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 4.0, 4.0]
    assert speed.scale(0.5) == 2.0 and speed.scale(9.0) == 0.5

    op = wl.improve_certify_round(rng)[0]
    improved, cert = op.call()
    assert op.check((improved, cert)) is None
    assert op.check((corrupt(improved), cert)) is not None

    def spin():
        while True:
            pass

    timeout = wl.Op("spin", spin, lambda r: None, 0.2)
    assert bench.run_inprocess(timeout).status == "timeout"

    assert bench.check_out_file("{}", str(HERE)) is not None
    assert wl.check_run_output("improve", "json", '{"all_verified": false}', ".")
    assert np.isclose(wl.gamma21_quantile(np.array([0.5]))[0], 1.6783469900166608)


def main():
    check_corruption()
    print("corrupted results count as failed: ok")
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_names(run(workload, 0), SPEC["end_to_end"])
        first = run(workload, 1)
        check_names(first, SPEC["per_layer"])
        second = run(workload, 1)
        for name, entry in first["metrics"].items():
            if name in REPEATED_COUNTS or name.endswith((".calls", ".errors")):
                assert entry["value"] == second["metrics"][name]["value"], name
        print(f"{workload}: metrics named with units, traced counts repeat: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
