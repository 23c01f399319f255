#!/usr/bin/env python3
"""Exact-repeat self-check of the benchmark: two traced runs with one seed
must give bit-identical structural counts.

    python3 perfbench/test_repeat.py

Run from the repository root.  Each workload runs twice, traced, on a small
store (20000 keys, one second of work).  Timings differ between the runs;
the counts below may not, because every run does a fixed amount of work
from the seed and one writer orders all mutations.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent

# λ, λ′, pages and syncs per commit, splits and merges, pages per
# checkpoint, and the set-up's device and epoch counts.
REPEATED_METRICS = [
    "tree.dir_reads_per_hit",
    "tree.data_reads_per_hit",
    "tree.dir_reads_per_miss",
    "tree.height",
    "tree.pages_per_box_result",
    "tree.pages_per_slab_result",
    "tree.splits_per_kcommit",
    "tree.merges_per_kcommit",
    "pagestore.writes_per_commit",
    "pagestore.syncs_per_commit",
    "pagestore.reads_per_commit",
    "pagestore.pages_per_checkpoint",
    "pagestore.writes_per_setup_record",
    "pagestore.syncs_per_setup_batch",
    "epoch.retired_per_commit",
    "epoch.retired_per_setup_record",
]
# Reported on the environment line of a traced run.
REPEATED_DETAIL = ["space_amp", "write_amp", "commits"]


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1", "--records", "20000"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class ExactRepeatTest(unittest.TestCase):
    def check_workload(self, workload):
        detail_a, result_a = traced_run(workload, seed=7)
        detail_b, result_b = traced_run(workload, seed=7)
        for result in (result_a, result_b):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        for name in REPEATED_METRICS:
            self.assertEqual(result_a["metrics"][name]["value"],
                             result_b["metrics"][name]["value"], name)
        for name in REPEATED_DETAIL:
            self.assertEqual(detail_a[name], detail_b[name], name)
        return result_a

    def test_point_get(self):
        self.check_workload("point_get")

    def test_range_scan(self):
        self.check_workload("range_scan")

    def test_hot_update(self):
        result = self.check_workload("hot_update")
        # The commit counts are only meaningful where commits happen.
        self.assertGreater(
            result["metrics"]["pagestore.syncs_per_commit"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
