"""Benchmark of the nctorus package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {laws,certify,projection,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh single-threaded worker processes: seven
that only set up (their median is ``setup_s``) and one that runs the ops
in a closed loop with one client for ``--seconds`` and checks every
output.  With ``--trace 1`` the worker instead runs each op of a fixed
prefix of the inputs twice, untraced and traced, and reports per-layer
metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name and unit.  The full run record (versions, commit, sample
counts, the layer map) and the spans of a traced run are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170
# Reference times on a 2-vCPU Xeon VM with Python 3.11.7 in a quiet period
# (see worker.reference_slice / reference_spawn).  Reported times are wall times
# rescaled by nominal / (reference measured around them), which takes out
# most of the machine's speed drift; raw wall times are in the run record.
NOMINAL_REF_NS = {"slice": 1_200_000, "spawn": 50_000_000}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib-only until a Layers is built)
from tracing import LAYERS  # noqa: E402

# Which end-to-end metrics each group of layer metrics should move, on
# which workload, and where it is predicted not to move.
LAYER_MAP = (
    ("theta.{floor_linear,in_open_interval,reflect,parse_theta}.*",
     "throughput_ops_s, latency_p90_ms", "certify", "laws, projection"),
    ("algebra.{mul,add,eq,pow,star,apply_automorphism,canonical_trace}.*, "
     "traces.{chern_T2,chern_T4,relation_check}.*",
     "throughput_ops_s, latency_p90_ms", "laws", "projection, certify"),
    ("algebra.{parse_element,element_to_text}.*",
     "latency_p50_ms", "laws, cli (cli.eval)", "projection"),
    ("lattice.{recompose,decompose,semiflat_membership,synthesis_recipe}.*",
     "throughput_ops_s, latency_p50_ms", "certify", "laws, projection"),
    ("realization.{parse_trace,realize,certificate_to_json,certificate_from_json,verify_certificate}.*, "
     "realization.rejections_expected, realization.mutants_caught",
     "throughput_ops_s, latency_p50_ms, latency_p90_ms", "certify", "laws, projection"),
    ("loops.{pr_build,loop_invariants,projection_gates}.*, loops.refined_ratio, loops.square_residual_max",
     "throughput_ops_s, latency_p90_ms, peak_rss_mb", "projection", "laws, certify"),
    ("cli.import.*, cli.{eval,decompose,cone,realize,verify,pr-build}.*",
     "latency_p50_ms, throughput_ops_s; cli.import also setup_s on every workload", "cli",
     "none (every exact layer runs once, cold)"),
)

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for fn in workloads.FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.p50_us": "us", f"{fn}.self_ms": "ms"})
    units.update({
        "realization.rejections_expected": "count", "realization.rejections_expected.base": "count",
        "realization.mutants_caught": "count", "realization.mutants_caught.base": "count",
        "loops.refined_ratio": "ratio", "loops.refined_ratio.base": "count",
        "loops.square_residual_max": "1",
    })
    for sub in ("import",) + workloads.CLI_COMMANDS:
        units.update({f"cli.{sub}.calls": "count", f"cli.{sub}.p50_ms": "ms"})
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    units.update({"trace.overhead_ratio": "ratio", "trace.untraced_ops_s": "1/s",
                  "trace.traced_ops_s": "1/s", "trace.ops": "count"})
    return units


def _worker(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _version(dist: str) -> str:
    try:
        return version(dist)
    except PackageNotFoundError:
        return "not installed"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _throughput(phase: dict) -> float:
    return len(phase["lat_ns"]) / (sum(phase["lat_ns"]) / 1e9)


def rescaled(lat_ns: list, refs: list, nominal: float) -> list:
    """Each op time times nominal / (median of the reference samples nearest to it)."""
    done = [at for at, _ in refs]
    out = []
    for i, ns in enumerate(lat_ns):
        j = bisect.bisect_right(done, i)  # refs[j - 1] was taken before op i, refs[j] after it
        out.append(ns * nominal / statistics.median(r for _, r in refs[max(0, j - 3): j + 2]))
    return out


def end_to_end(name: str, result: dict, setups: list) -> tuple:
    run = result["run"]
    nominal = NOMINAL_REF_NS[workloads.WORKLOADS[name]["reference"]]
    setup_s = [s["setup_s"] * NOMINAL_REF_NS["slice"] / statistics.median(s["refs"]) for s in setups]
    raw, scaled = {}, {}
    for out, lat_ns, setup in ((raw, run["lat_ns"], [s["setup_s"] for s in setups]),
                               (scaled, rescaled(run["lat_ns"], run["refs"], nominal), setup_s)):
        lat_ms = [ns / 1e6 for ns in lat_ns]
        out.update({
            "throughput_ops_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "ok_ratio": 1 - run["failed"] / len(lat_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        })
    n = len(run["lat_ns"])
    samples = {"latency_p50_ms": {"samples": n, "beyond": n - math.ceil(n / 2)},
               "latency_p90_ms": {"samples": n, "beyond": n - math.ceil(0.9 * n)},
               "setup_s": {"samples": len(setups)}, "reference": {"samples": len(run["refs"])}}
    return scaled, raw, samples


def per_layer(result: dict) -> dict:
    traced, summary = result["traced"], result["summary"]
    fns, counters = summary["functions"], traced["counters"]
    metrics = {}
    for fn in workloads.FUNCTIONS:
        s = fns.get(fn, {"calls": 0, "p50_ns": 0, "self_ns": 0})
        metrics.update({f"{fn}.calls": s["calls"], f"{fn}.p50_us": s["p50_ns"] / 1e3,
                        f"{fn}.self_ms": s["self_ns"] / 1e6})
    builds = counters.get("builds", 0)
    metrics.update({
        "realization.rejections_expected": counters.get("rejections_ok", 0),
        "realization.rejections_expected.base": counters.get("rejections", 0),
        "realization.mutants_caught": counters.get("mutants_caught", 0),
        "realization.mutants_caught.base": counters.get("mutants", 0),
        "loops.refined_ratio": counters.get("refined", 0) / builds if builds else 0.0,
        "loops.refined_ratio.base": builds,
        "loops.square_residual_max": counters.get("square_residual_max", 0.0),
    })
    for sub in ("import",) + workloads.CLI_COMMANDS:
        s = fns.get(f"cli.{sub}", {"calls": 0, "p50_ns": 0})
        metrics.update({f"cli.{sub}.calls": s["calls"], f"cli.{sub}.p50_ms": s["p50_ns"] / 1e6})
    metrics.update({f"{layer}.self_share": share for layer, share in summary["self_share"].items()})
    untraced, traced_tput = _throughput(result["untraced"]), _throughput(traced)
    metrics.update({"trace.overhead_ratio": untraced / traced_tput, "trace.untraced_ops_s": untraced,
                    "trace.traced_ops_s": traced_tput, "trace.ops": len(traced["lat_ns"])})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-check only: give the first input a wrong expected answer")
    args = parser.parse_args()
    if not (ROOT / "src" / "nctorus" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nctorus'}; run from a source checkout",
              file=sys.stderr)
        return 2
    started = perf_counter()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        _worker(["setup", args.workload], env, 120)  # compiles bytecode; not a sample
        setups = []
        if not args.trace:
            setups = [_worker(["setup", args.workload], env, 60) for _ in range(SETUP_SAMPLES)]
        result = _worker(["run", args.workload, str(args.seed), str(args.seconds), str(args.trace),
                          str(int(args.corrupt_expected)), str(run_dir / "spans.jsonl")],
                         env, TIME_LIMIT_S - (perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    phases = [result["run"]] if not args.trace else [result["untraced"], result["traced"]]
    attempted = sum(len(p["lat_ns"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": _version("numpy"), "commit": _commit(),
        "nproc": os.cpu_count(),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "errors": [e for p in phases for e in p["errors"]],
        "counters": [p["counters"] for p in phases],
        "layer_map": [dict(zip(("layer_metrics", "should_move", "on_workload", "predicted_unchanged_on"), row))
                      for row in LAYER_MAP],
    }
    if args.trace:
        metrics, units = per_layer(result), per_layer_units()
        record["spans"] = str(run_dir / "spans.jsonl")
    else:
        metrics, record["raw_wall_metrics"], record["samples"] = end_to_end(args.workload, result, setups)
        record["op_ns"], record["reference_ns"] = result["run"]["lat_ns"], result["run"]["refs"]
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}  numpy {record['numpy']}  "
          f"nproc {record['nproc']}  commit {record['commit']}")
    print(f"attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.6g}")
    for err in record["errors"]:
        print(f"  failure: {err}")
    for key, m in record["metrics"].items():
        extra = record.get("samples", {}).get(key)
        print(f"{key} = {m['value']:.6g} {m['unit']}" + (f"  (samples {extra['samples']})" if extra else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
