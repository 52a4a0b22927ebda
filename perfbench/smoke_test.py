#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (about a minute in total).

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload it checks that a
traced and an untraced run pass their output check and print exactly the
metrics BENCHMARK.json declares, with their units; that runs with the
same seed produce the same outcome line (ids, outcomes and final config
hash) and the same exact per-layer counts; and that accept_ratio is 1
where no rejection is expected. It also
checks that the benchmark fails, without printing a result, when the
orchestrator sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT, script=None):
    cmd = ["python3", str(script or ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(proc, expected, what):
    check(proc.returncode == 0,
          f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{what}: not correct")
    check(result["attempted"] >= 1, f"{what}: nothing attempted")
    check(result["failed"] == 0, f"{what}: {result['failed']} ops failed")
    names = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == names, f"{what}: metrics {sorted(got)} != {sorted(names)}")
    outcome = [l for l in lines if l.startswith("outcome ")]
    check(len(outcome) == 1, f"{what}: no outcome line")
    return result, outcome[0]


def exact_counts(result):
    """The per-layer metrics that are counts, not times: they must repeat."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if "_ms" not in k and k.endswith(("_per_req", "_per_wave",
                                               "_per_call", "_per_op"))}


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain, outcome = check_result(run(workload, 7, 0), SPEC["end_to_end"],
                                      f"{workload} untraced")
        traced, traced_outcome = check_result(
            run(workload, 7, 1), SPEC["per_layer"], f"{workload} traced")
        again, again_outcome = check_result(
            run(workload, 7, 1), SPEC["per_layer"], f"{workload} traced rerun")
        for other in (traced_outcome, again_outcome):
            check(other == outcome, f"{workload}: same seed, different "
                  f"outcome\n  {outcome}\n  {other}")
        check(exact_counts(traced) == exact_counts(again),
              f"{workload}: per-layer counts differ between runs\n"
              f"  {exact_counts(traced)}\n  {exact_counts(again)}")
        ratio = plain["metrics"]["accept_ratio"]["value"]
        if workload == "embed_large":
            check(0 < ratio <= 1, f"{workload}: accept_ratio {ratio}")
        else:
            check(ratio == 1, f"{workload}: accept_ratio {ratio}")
        print(f"ok {workload}: {outcome}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench")
        proc = run("churn", 1, 0, cwd=bare,
                   script=Path(bare) / "perfbench" / "run.py")
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "a checkout without sources must fail without a result")
    print("ok missing sources fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
