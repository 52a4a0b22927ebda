#!/usr/bin/env python3
"""Build the orchestrator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <churn|embed_large|poll_wire> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The first call configures and builds
perfbench (the orchestrator library from src/ plus the benchmark program)
into $CARGO_TARGET_DIR, default .bench_build, relative to the current
directory; later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's result object. The
exit code is the benchmark's own: non-zero when the build fails or a run
fails its output check, and then no result is printed.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once) and build the perfbench binary; return its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["churn", "embed_large", "poll_wire"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "virtualizer.h").is_file():
        return fail(f"orchestrator sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
