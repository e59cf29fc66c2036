"""One fresh workload process; ``run.py`` starts it, never a user.

    worker.py setup <workload>
        set up as a run would; print the set-up time and the reference
        slices timed just before and after it
    worker.py run <workload> <seed> <seconds> <trace> <corrupt> <spans-path>
        build the seeded inputs, run the ops in a closed loop with one
        client, check every output, print one JSON result line

The set-up time runs from just before ``import nctorus`` to the end of the
workload's ``setup`` (angles built, first-use state warmed); making the
inputs is not part of it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import tracing
import workloads

MAX_ERRORS = 5
WARMUP_S = 2.0


def reference_slice(ctx) -> int:
    """Fixed pure-Python work (rational arithmetic, dict updates), in ns.

    On a shared virtual machine the CPU speed can drift by 20% over tens
    of seconds; this slice, timed between ops, measures that drift where it
    happens.
    """
    start = perf_counter_ns()
    x, d = Fraction(1, 3), {}
    for i in range(250):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        d[i % 97] = d.get(i % 97, 0) + i * i
    return perf_counter_ns() - start


def reference_spawn(ctx) -> int:
    """A bare interpreter that imports a few stdlib modules, in ns: the drift of process start-up."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import fractions, json, re"], env=ctx["env"], check=True,
                   capture_output=True, timeout=60)
    return perf_counter_ns() - start


def run_phase(spec, ctx, items, seconds: float, modes, reference=None) -> list:
    """Run ops until ``items`` is exhausted or ``seconds`` have passed.

    ``modes`` is a list of (Layers, tracer or None); each op runs once per
    mode, the order alternating from op to op so that a drift in machine
    speed falls on both alike.  Op time excludes the output checks.  With
    a ``reference``, it is timed before the first op and again whenever
    ``spec["reference_every_ns"]`` of op time has passed; each sample is
    stored with the number of ops done before it.
    """
    before, check = spec.get("before"), spec["check"]
    refs = [(0, reference(ctx))] if reference else []
    since_ref = 0
    results = []
    for L, tracer in modes:
        op = tracer.wrap("op", spec["op"]) if tracer else spec["op"]
        results.append({"lat_ns": [], "failed": 0, "errors": [], "counters": Counter(), "L": L,
                        "tracer": tracer, "op": op})
    deadline = perf_counter() + seconds
    done = 0
    for i, item in enumerate(items):
        if perf_counter() >= deadline:
            break
        done = i + 1
        for res in (results if i % 2 == 0 else results[::-1]):
            L, tracer = res["L"], res["tracer"]
            ctx.update(counters=res["counters"], tracer=tracer, traced=tracer is not None)
            if before:
                before(L, ctx, item)
            if tracer:
                tracer.op_id = i
            rec = {}
            start = perf_counter_ns()
            try:
                res["op"](L, ctx, item, rec)
            except Exception as exc:  # the check decides whether this was the expected rejection
                rec["exc"] = exc
            res["lat_ns"].append(perf_counter_ns() - start)
            since_ref += res["lat_ns"][-1]
            try:
                error = check(L, ctx, item, rec)
            except Exception as exc:  # a malformed output is a failed op, not a crashed run
                error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                res["failed"] += 1
                if len(res["errors"]) < MAX_ERRORS:
                    res["errors"].append(f"op {i}: {error}")
        if reference and since_ref >= spec["reference_every_ns"]:
            refs.append((done, reference(ctx)))
            since_ref = 0
    if reference and refs[-1][0] != done:
        refs.append((done, reference(ctx)))
    return [dict({k: res[k] for k in ("lat_ns", "failed", "errors", "counters")}, refs=refs) for res in results]


def main(argv) -> int:
    mode, name = argv[0], argv[1]
    spec = workloads.WORKLOADS[name]
    refs = [reference_slice(None) for _ in range(3)]
    start = perf_counter()
    L = workloads.Layers()
    ctx = spec["setup"](L)
    setup_s = perf_counter() - start
    if mode == "setup":
        refs += [reference_slice(None) for _ in range(3)]
        print(json.dumps({"setup_s": setup_s, "refs": refs}))
        return 0

    seed, seconds, trace, corrupt, spans_path = int(argv[2]), float(argv[3]), argv[4] == "1", argv[5] == "1", argv[6]
    pool = spec["pool"](random.Random(f"{name}:{seed}"), spec["pool_size"])
    if corrupt:
        spec["corrupt"](pool[0])
    ctx["env"] = dict(os.environ)
    ctx["dir"] = os.path.dirname(spans_path)
    if "prepare" in spec:
        for item in pool:
            spec["prepare"](L, ctx, item)

    out = {"setup_s": setup_s}
    # warm-up, not reported: lets allocator and numpy caches reach their steady state
    run_phase(spec, ctx, pool[: spec["warmup_ops"]], WARMUP_S, [(L, None)])
    if not trace:
        reference = reference_spawn if spec["reference"] == "spawn" else reference_slice
        [out["run"]] = run_phase(spec, ctx, itertools.cycle(pool), seconds, [(L, None)], reference)
    else:
        tracer = tracing.Tracer()
        traced = workloads.Layers(tracer)
        spec["setup"](traced)  # once, outside any op: the set-up's own calls (parse_theta) get spans too
        out["untraced"], out["traced"] = run_phase(spec, ctx, pool[: spec["trace_ops"]], seconds,
                                                   [(L, None), (traced, tracer)])
        tracer.write(spans_path)
        out["summary"] = tracing.summarize(tracer.spans, sum(out["traced"]["lat_ns"]))
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    out["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
