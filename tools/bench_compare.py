#!/usr/bin/env python3
"""Compares perfbench runs of a parent and a change against BENCHMARK.json.

    python3 tools/bench_compare.py --parent P1 [P2 ...] --change C1 [C2 ...]

Each file is the stdout of one `python3 perfbench/run.py` run: an
environment line, then the result line.  For every end-to-end metric in
BENCHMARK.json it prints both medians, both min-max ranges, how far the
change's median moved in the metric's worse direction, the bound, and
`ok` or `WORSE`.

Exit status: 0 when every median is within its bound, every run is
correct and the change fails no larger share of its operations than the
parent; 1 when any of those does not hold; 2 when the runs cannot be
compared (unreadable output, runs whose workload, records, seconds or
trace differ, or a result without an end-to-end metric).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENV_KEYS = ("workload", "records", "seconds", "trace")


class Incomparable(Exception):
    pass


def load_run(path):
    """Returns (path, env, result) from one run.py stdout."""
    try:
        lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
        env = json.loads(lines[-2])["env"]
        result = json.loads(lines[-1])
        if not isinstance(result.get("metrics"), dict):
            raise ValueError("no metrics")
    except (OSError, IndexError, KeyError, TypeError, ValueError) as err:
        raise Incomparable(f"{path}: not a perfbench run ({err})")
    return path, env, result


def worse_share(parent, change, better):
    """How far `change` moved from `parent` in the worse direction, as a
    share of `parent`; negative when it moved the better way."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else -1.0
    return delta / abs(parent)


def fmt(v):
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.3g}"


def compare(parent_paths, change_paths):
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = {"parent": [load_run(p) for p in parent_paths],
             "change": [load_run(p) for p in change_paths]}
    first = sides["parent"][0][1]
    for path, env, result in sides["parent"] + sides["change"]:
        for key in ENV_KEYS:
            if env.get(key) != first.get(key):
                raise Incomparable(f"{path}: {key} {env.get(key)!r} differs "
                                   f"from {first.get(key)!r}")
        for m in metrics:
            if m["name"] not in result["metrics"]:
                raise Incomparable(f"{path}: no metric {m['name']}")

    print(f"{first['workload']}: {len(parent_paths)} parent, "
          f"{len(change_paths)} change runs (records {first['records']}, "
          f"seconds {first['seconds']}, trace {first['trace']})")
    print(f"{'metric':<11} {'unit':<6} {'parent median [min-max]':<28} "
          f"{'change median [min-max]':<28} {'worse':>8} {'bound':>6}")
    failing = False
    for m in metrics:
        row = []
        medians = []
        for side in ("parent", "change"):
            values = [r["metrics"][m["name"]]["value"]
                      for _, _, r in sides[side]]
            medians.append(statistics.median(values))
            row.append(f"{fmt(medians[-1])} [{fmt(min(values))}-"
                       f"{fmt(max(values))}]")
        worse = worse_share(medians[0], medians[1], m["better"])
        verdict = "WORSE" if worse > m["bound"] else "ok"
        failing = failing or verdict == "WORSE"
        print(f"{m['name']:<11} {m['unit']:<6} {row[0]:<28} {row[1]:<28} "
              f"{worse:>+8.1%} {m['bound']:>6.0%} {verdict}")

    shares = []
    for side in ("parent", "change"):
        runs = [r for _, _, r in sides[side]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        shares.append(failed / attempted if attempted else 0.0)
        incorrect = sum(1 for r in runs if not r["correct"])
        print(f"{side}: {failed}/{attempted} ops failed, {incorrect} of "
              f"{len(runs)} runs not correct")
        failing = failing or incorrect > 0
    if shares[1] > shares[0]:
        print("the change fails a larger share of operations")
        failing = True
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    try:
        return compare(args.parent, args.change)
    except Incomparable as err:
        print(f"cannot compare: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
