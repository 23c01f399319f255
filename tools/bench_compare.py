#!/usr/bin/env python3
"""Compares perfbench runs of a parent and a change against BENCHMARK.json.

    python3 tools/bench_compare.py --parent P1 [P2 ...] --change C1 [C2 ...]
        [--claim METRIC]

Each file is the stdout of one `python3 perfbench/run.py` run: an
environment line, then the result line.  For every end-to-end metric in
BENCHMARK.json it prints both medians, both min-max ranges, how far the
change's median moved in the metric's worse direction, the bound, and
`ok` or `WORSE`.

--claim METRIC checks a claimed gain in one end-to-end metric.  The i-th
--parent file is paired with the i-th --change file, so give them in the
order they ran.  It prints each side's quartiles, the parent's IQR and
how many pairs the change won (a tie counts for neither side), and
`claim met` only when there are at least 10 pairs, the change won at
least 9 in 10 of them, and its median is better than the parent's by more
than the parent's IQR.

Exit status: 0 when every median is within its bound, every run is
correct, the change fails no larger share of its operations than the
parent and a claim, if given, is met; 1 when any of those does not hold;
2 when the runs cannot be compared (unreadable output, runs whose
workload, records, seconds or trace differ, a result without an
end-to-end metric, a claimed metric that is not one, or a claim over
unequal numbers of parent and change runs).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENV_KEYS = ("workload", "records", "seconds", "trace")
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


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


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def check_claim(metric, parent_runs, change_runs):
    """Prints the paired comparison of the claimed metric; returns whether
    the claim is met."""
    name, better = metric["name"], metric["better"]
    values = {side: [r["metrics"][name]["value"] for _, _, r in runs]
              for side, runs in (("parent", parent_runs),
                                 ("change", change_runs))}
    pairs = list(zip(values["parent"], values["change"]))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q = {side: quartiles(v) for side, v in values.items()}
    iqr = q["parent"][2] - q["parent"][0]
    gain = sign * (q["change"][1] - q["parent"][1])
    print(f"claim {name} ({better} is better), {len(pairs)} pairs:")
    for side in ("parent", "change"):
        print(f"  {side} quartiles {' / '.join(fmt(v) for v in q[side])}")
    print(f"  parent IQR {fmt(iqr)}; the change's median is better by "
          f"{fmt(gain)}")
    print(f"  change won {wins}, lost {losses}, tied "
          f"{len(pairs) - wins - losses} of {len(pairs)} pairs")
    reasons = []
    if len(pairs) < CLAIM_MIN_PAIRS:
        reasons.append(f"fewer than {CLAIM_MIN_PAIRS} pairs")
    if wins < CLAIM_WIN_SHARE * len(pairs):
        reasons.append(f"the change won fewer than "
                       f"{CLAIM_WIN_SHARE:.0%} of the pairs")
    if not gain > iqr:
        reasons.append("the medians differ by no more than the parent's IQR")
    if reasons:
        print("claim not met: " + "; ".join(reasons))
        return False
    print("claim met")
    return True


def compare(parent_paths, change_paths, claim=None):
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    claimed = None
    if claim is not None:
        claimed = next((m for m in metrics if m["name"] == claim), None)
        if claimed is None:
            raise Incomparable(f"--claim {claim}: not an end-to-end metric "
                               f"in {BENCHMARK.name}")
        if len(parent_paths) != len(change_paths):
            raise Incomparable(f"--claim pairs runs, but there are "
                               f"{len(parent_paths)} parent and "
                               f"{len(change_paths)} change runs")
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
    if claimed is not None and not check_claim(claimed, sides["parent"],
                                               sides["change"]):
        failing = True
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric the change claims to "
                             "improve (pairs the runs in order)")
    args = parser.parse_args()
    try:
        return compare(args.parent, args.change, args.claim)
    except Incomparable as err:
        print(f"cannot compare: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
