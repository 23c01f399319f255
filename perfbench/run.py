#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_get --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The first run configures and builds the
library and the benchmark under .bench_build/ ($CARGO_TARGET_DIR when set);
later runs only bring that build up to date.  Build output goes to stderr.
The store files live under .bench_store/ (or --store-dir) and are removed
when the run ends; a traced run writes its spans to .bench_out/.  The last
line of stdout is the result object, the line before it the environment.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def git_commit():
    """The checked-out commit, read from .git without running git, since
    the benchmark may run from a copy that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1] == ref:
                return fields[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configures and builds the benchmark (both quick once current);
    returns the binary."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir),
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_get", "range_scan", "hot_update"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store-dir", default=str(ROOT / ".bench_store"),
                        help="where the shard files go (tmpfs keeps fsync a "
                             "page-cache no-op; default .bench_store)")
    parser.add_argument("--records", type=int,
                        help="loaded keys (default 1000000)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", args.store_dir, "--commit", git_commit()]
    if args.records is not None:
        cmd += ["--records", str(args.records)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}.tsv")]

    # A terminated runner must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(Path(args.store_dir) / f"perfbench-{proc.pid}",
                      ignore_errors=True)

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        valid = False
    if proc.returncode != 0 or not valid:
        print(f"benchmark failed (exit {proc.returncode})", file=sys.stderr)
        sys.stderr.write(stdout)
        return proc.returncode or 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
