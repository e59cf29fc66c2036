"""Quick self-check of the benchmark itself (about two minutes).

    python3 perfbench/selfcheck.py

For every workload it makes a short untraced run and a short traced run
and checks that the last output line has exactly the keys and metrics
``BENCHMARK.json`` lists, then a run with ``--corrupt-expected`` that must
count the deliberately wrong expected answer as a failed op.  Last, it
copies only ``BENCHMARK.json`` and ``perfbench/`` into an empty directory
and checks that the benchmark refuses to report from there.  Exit code 0
when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def run(cwd: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", SECONDS]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def report(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            proc = run(ROOT, w, "--trace", trace)
            out = last_json(proc)
            ok = (proc.returncode == 0 and out is not None
                  and set(out) == {"correct", "attempted", "failed", "metrics"}
                  and out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
                  and {k: m["unit"] for k, m in out["metrics"].items()} == expected[trace])
            report(ok, f"{w} --trace {trace}: every listed metric, no failed op"
                   + ("" if ok else f" (exit {proc.returncode}: {proc.stderr[-500:]})"))
        proc = run(ROOT, w, "--trace", "0", "--corrupt-expected")
        out = last_json(proc)
        ok = (out is not None and out["correct"] is False and out["failed"] >= 1
              and out["metrics"]["ok_ratio"]["value"] < 1)
        report(ok, f"{w}: a wrong expected answer is counted as a failed op")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, bench["workloads"][0]["name"], "--trace", "0")
    report(proc.returncode != 0 and last_json(proc) is None,
           "without the package source the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
