"""Smoke test of the benchmark harness: one short laws run and one short
certify run must work end to end.

No timing is asserted; each run only has to finish, check every output as
correct and print every end-to-end metric that BENCHMARK.json declares.
certify's check reads the lattice values' public fields (a membership
trace's parts, a recipe's flat trace, a genus as a tuple), so a change
that breaks one fails here rather than in the benchmark's ok_ratio.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_run_reports_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert set(declared) <= set(result["metrics"])


def test_laws_run_reports_every_end_to_end_metric():
    _assert_run_reports_every_end_to_end_metric("laws")


def test_certify_run_reports_every_end_to_end_metric():
    _assert_run_reports_every_end_to_end_metric("certify")
