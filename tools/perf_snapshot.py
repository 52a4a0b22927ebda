#!/usr/bin/env python3
"""Snapshot the perfbench results of one or more checkouts as BENCH_<pr>.json.

    python3 tools/perf_snapshot.py ROOT=OUT.json [ROOT=OUT.json ...]

ROOT is a source checkout (the repository root, holding perfbench/run.py)
and OUT the snapshot written for it. For every workload of perfbench
(churn, embed_large, poll_wire) the script runs each of the seeds
2001-2010 once untraced for 25 s, then one traced run at seed 101. The
settings are fixed so that every snapshot compares with every other one.
Each checkout builds into its own
ROOT/.bench_build. With several checkouts the runs alternate, checkout by
checkout for each workload and seed, and the side that runs first
alternates from seed to seed, so the drift of a shared host hits all of
them alike; that is how a before/after pair is measured:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 tools/perf_snapshot.py ../parent=BENCH_18.json .=BENCH_19.json

A snapshot holds, per workload: every run (seed, outcome line, run
status, end-to-end metrics), the median and the quartiles of each metric
over the seeds, and the rows of the traced run. Outcome lines (accepted,
rejected and failed counts, signature, config hash) must match between
two checkouts before their timings are worth comparing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("churn", "embed_large", "poll_wire")
SECONDS = 25
SEEDS = list(range(2001, 2011))
TRACE_SEED = 101


def parse_target(text):
    root, sep, out = text.partition("=")
    if not sep or not root or not out:
        raise argparse.ArgumentTypeError(
            f"expected ROOT=OUT.json, got {text!r}")
    root = Path(root).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no perfbench/run.py under {root}")
    return root, Path(out)


def git(root, *args):
    """Output of a git command in `root`, or None outside a git work tree."""
    try:
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(root, workload, seed, trace):
    """One perfbench run; returns its record (outcome line + result)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    outcome = next((l for l in lines if l.startswith("outcome ")), None)
    record = {"seed": seed, "outcome": outcome, "exit_code": proc.returncode}
    if proc.returncode != 0 or not lines:
        record["error"] = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return record
    result = json.loads(lines[-1])
    record["correct"] = result.get("correct")
    record["attempted"] = result.get("attempted")
    record["failed"] = result.get("failed")
    record["metrics"] = {name: row["value"]
                         for name, row in result["metrics"].items()}
    record["units"] = {name: row["unit"]
                       for name, row in result["metrics"].items()}
    return record


def summarize(runs):
    """Median and quartiles (inclusive method) of each metric over seeds."""
    good = [r for r in runs if "metrics" in r]
    summary = {}
    if not good:
        return summary
    for name, unit in good[0]["units"].items():
        values = sorted(r["metrics"][name] for r in good
                        if name in r["metrics"])
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        summary[name] = {"unit": unit, "q1": q1, "median": median, "q3": q3,
                         "n": len(values)}
    return summary


def log(message):
    print(f"perf_snapshot: {message}", file=sys.stderr, flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", type=parse_target,
                        metavar="ROOT=OUT.json")
    args = parser.parse_args()

    snapshots = []
    for root, _ in args.targets:
        snapshots.append({
            "commit": git(root, "rev-parse", "HEAD"),
            # Uncommitted edits to tracked files: the snapshot measures the
            # work tree on top of "commit", not the commit itself.
            "dirty": bool(git(root, "status", "--porcelain",
                              "--untracked-files=no")),
            "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
            "seconds": SECONDS,
            "seeds": SEEDS,
            "trace_seed": TRACE_SEED,
            "quartiles": "statistics.quantiles(method='inclusive')",
            "workloads": {w: {"runs": []} for w in WORKLOADS},
        })

    pairs = list(zip(args.targets, snapshots))
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            # The side that runs first alternates from seed to seed.
            for (root, _), snap in (pairs if i % 2 == 0 else pairs[::-1]):
                record = run_once(root, workload, seed, 0)
                snap["workloads"][workload]["runs"].append(record)
                log(f"{root.name} {workload} seed {seed}: "
                    f"{record.get('error') or record['outcome']}")
        for (root, _), snap in pairs:
            entry = snap["workloads"][workload]
            entry["summary"] = summarize(entry["runs"])
            traced = run_once(root, workload, TRACE_SEED, 1)
            entry["traced"] = {
                "seed": TRACE_SEED,
                "outcome": traced["outcome"],
                "rows": {name: {"value": value,
                                "unit": traced["units"][name]}
                         for name, value in traced.get("metrics", {}).items()},
            }
            if "error" in traced:
                entry["traced"]["error"] = traced["error"]
            for run in entry["runs"]:
                run.pop("units", None)
            log(f"{root.name} {workload} traced seed {TRACE_SEED}: "
                f"{traced.get('error') or traced['outcome']}")

    failed = False
    for (_, out), snap in pairs:
        out.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
        failed |= any("error" in run or not run.get("correct")
                      for w in snap["workloads"].values()
                      for run in w["runs"])
        log(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
