"""One step of a benchmark run, in an interpreter of its own.

``python3 perfbench/child.py MODE JSON`` with ``PYTHONPATH`` naming the
program's ``src`` directory.  Modes:

``inputs``
    build (or reuse) the seed's inputs, see :mod:`inputs`;
``probe``
    import what the workload imports and report the set-up time;
``rep``
    run one repetition of a workload, optionally traced, then check its
    outputs;
``sampler``
    time the host-speed probe until terminated, see :mod:`hostspeed`.

Every repetition starts a fresh interpreter, as a CLI user's command
does: module-level caches (the matcher's shared LRU, the ``lru_cache``
kernels, the docstore predicate cache) start empty every time.  Set-up
time runs from ``t0``, taken by the parent just before it started this
process, to the first call into the workload.  The result is printed as
one JSON line.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def _import_workload(workload: str) -> None:
    for module in WORKLOADS[workload][2]:
        importlib.import_module(module)


def probe(args: dict) -> dict:
    _import_workload(args["workload"])
    return {"t0": args["t0"], "setup_s": time.perf_counter() - args["t0"]}


def rep(args: dict) -> dict:
    workload = args["workload"]
    _import_workload(workload)
    run, _unit, _modules = WORKLOADS[workload]
    tracer = None
    if args["trace"]:
        import tracing

        tracer = tracing.Tracer(args["run_id"])
        tracer.install()
    inputs, work = Path(args["inputs"]), Path(args["work"])
    setup_s = time.perf_counter() - args["t0"]
    cpu_start = os.times()
    start = time.perf_counter()
    if tracer is None:
        outcome = run(inputs, work)
    else:
        with tracer.io_counting(), tracer.span(tracing.ROOT):
            outcome = run(inputs, work)
    wall_s = time.perf_counter() - start
    cpu_end = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    import checks

    failures = list(outcome.failures)
    check_start = time.perf_counter()
    try:
        failed_checks, digests, quality = checks.check(workload, outcome, args["seed"], inputs)
    except Exception:  # a check that cannot run fails every operation
        failed_checks, digests, quality = {"check": [traceback.format_exc(limit=3)]}, {}, {}
    check_s = time.perf_counter() - check_start
    failed = len(failures)
    for operation, errors in failed_checks.items():
        failures.extend(f"{operation}: {error}" for error in errors)
        # The ingest check covers the whole store, so every cycle fails.
        failed += outcome.attempted if operation in ("ingest", "check") else 1
    result = {
        "traced": bool(tracer),
        "t0": args["t0"],
        "setup_s": setup_s,
        "start": start,
        "wall_s": wall_s,
        "check_s": check_s,
        "cpu_s": sum(cpu_end[:4]) - sum(cpu_start[:4]),
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": min(failed, outcome.attempted),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "quality": quality,
    }
    if tracer is not None:
        import layers

        spans = tracer.span_list()
        Path(args["spans"]).write_text(json.dumps(spans), encoding="utf-8")
        result["layers"] = layers.layer_metrics(tracer, outcome, quality.get("store_bytes", 0))
        result["table"] = tracing.layer_table(spans)
        result["traced_wall_s"] = next(
            span["end"] - span["start"] for span in spans if span["name"] == tracing.ROOT
        )
        result["notes"] = tracer.notes
    return result


def build_inputs(args: dict) -> dict:
    import inputs

    return inputs.build(Path(args["cache"]), args["workload"], args["seed"], args["voters"])


def sampler(args: dict) -> dict:
    import hostspeed

    hostspeed.run_sampler(Path(args["out"]))
    return {}


MODES = {"inputs": build_inputs, "probe": probe, "rep": rep, "sampler": sampler}

if __name__ == "__main__":
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(MODES[mode](payload)))
