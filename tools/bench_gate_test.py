#!/usr/bin/env python3
"""Tests for tools/bench_gate.py, the CI gate over the committed snapshots.

A gate that passes a regression is a correctness bug, so each failure mode
the CI relies on is exercised here against small hand-written records: a
missing cell, a metric out of tolerance, a non-zero --assert-zero field, a
value under its --assert-ge floor and a record breaking its --assert-eq
identity, plus the passing case.

Run: python3 tools/bench_gate_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")


def cell(path, batch, bpc, floor=0.0, wrong=0, offered=16):
    return {"bench": "dma_path", "path": path, "batch": batch,
            "blocks_per_device_cycle": bpc, "amortization_floor": floor,
            "wrong_plaintext_releases": wrong,
            "conservation": {"offered": offered, "ok": 12, "suppressed": 1,
                             "shed": 0, "rejected": 2, "failed": 1,
                             "still_queued": 0}}


# The identity CI asserts on every pool/service bench record.
CONSERVATION = ("conservation.offered=conservation.ok+conservation.suppressed"
                "+conservation.shed+conservation.rejected+conservation.failed"
                "+conservation.still_queued")


SNAPSHOT = [cell("ring", 16, 0.32, floor=0.1667), cell("service", 16, 0.34)]


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, fresh, *extra):
        """Run the gate on `fresh` vs SNAPSHOT; return its exit status."""
        snap = os.path.join(self.tmp.name, "snapshot.json")
        with open(snap, "w") as f:
            json.dump({"snapshot": "test", "records": SNAPSHOT}, f)
        fresh_path = os.path.join(self.tmp.name, "fresh.jsonl")
        with open(fresh_path, "w") as f:
            for r in fresh:
                f.write("JSON " + json.dumps(r) + "\n")
        proc = subprocess.run(
            [sys.executable, GATE, "--fresh", fresh_path, "--snapshot", snap,
             "--bench", "dma_path", "--keys", "path,batch",
             "--metric", "blocks_per_device_cycle", "--tolerance", "0.25",
             *extra],
            capture_output=True, text=True)
        return proc.returncode

    def test_identical_records_pass(self):
        self.assertEqual(
            self.gate(SNAPSHOT, "--assert-zero", "wrong_plaintext_releases",
                      "--assert-ge",
                      "blocks_per_device_cycle:amortization_floor",
                      "--assert-eq", CONSERVATION), 0)

    def test_snapshot_cell_without_fresh_record_fails(self):
        self.assertEqual(self.gate(SNAPSHOT[:1]), 1)

    def test_metric_past_tolerance_fails(self):
        # 0.34 -> 0.25 is a 26% drop, just past the 25% band.
        self.assertEqual(self.gate([SNAPSHOT[0], cell("service", 16, 0.25)]),
                         1)

    def test_nonzero_assert_zero_field_fails(self):
        fresh = [SNAPSHOT[0], cell("service", 16, 0.34, wrong=1)]
        self.assertEqual(
            self.gate(fresh, "--assert-zero", "wrong_plaintext_releases"), 1)

    def test_value_under_assert_ge_floor_fails(self):
        # Within tolerance of the snapshot, but under its own floor.
        fresh = [cell("ring", 16, 0.30, floor=0.31), SNAPSHOT[1]]
        self.assertEqual(
            self.gate(fresh, "--assert-ge",
                      "blocks_per_device_cycle:amortization_floor"), 1)

    def test_record_breaking_assert_eq_identity_fails(self):
        # One offered request too many: a lost (or double-counted) ticket.
        fresh = [SNAPSHOT[0], cell("service", 16, 0.34, offered=17)]
        self.assertEqual(self.gate(fresh, "--assert-eq", CONSERVATION), 1)

    def test_malformed_assert_eq_spec_is_a_usage_error(self):
        self.assertEqual(self.gate(SNAPSHOT, "--assert-eq", "offered=ok+"), 2)


if __name__ == "__main__":
    unittest.main()
