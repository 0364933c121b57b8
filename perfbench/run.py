"""Pipeline benchmark: the paper's update process, evaluation and consumer path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/rationale.json``):

``ingest``
    ``generate --durable --stats`` over the seed's snapshots;
``evaluate``
    ``evaluate`` on the NC1-NC3 cuts of the seed's store;
``customize_detect``
    four ``customize`` cuts of the seed's store, then
    ``detect --passes lsh`` on the full cut.

One closed-loop client: the workload's repetitions run back to back, each
in a fresh interpreter, until ``--seconds`` of measured work are done.
Inputs are built from the seed first (cached below ``.perfbench/``), so
neither the simulator nor input building is ever timed.  Every repetition
checks its outputs; a failed check counts as failed operations and makes
the run exit 1.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones.  Times are scaled
by the host speed sampled on the run's CPU (see :mod:`hostspeed`); the
raw throughput is printed beside the result.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones), each ``{"value", "unit"}``.  Without the
program's sources (``src/repro``) the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import hostspeed
import tracing
from inputs import VOTERS
from layers import SELF_TIMES
from workloads import FSYNC_BATCH, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Import-only interpreters started per run to sample set-up time, on top
#: of one sample per untraced repetition.
SETUP_PROBES = 3

#: Pinned for every child interpreter, and printed with the result.
PYTHONHASHSEED = "0"

#: No repetition starts once the run has taken this long, so a run ends
#: well inside its 180-second limit.
DEADLINE_S = 140.0


class StepFailed(RuntimeError):
    """A child interpreter exited non-zero."""


def _child(mode: str, payload: dict, env: dict, cwd: Path, timeout: float) -> dict:
    payload = dict(payload, t0=time.perf_counter())
    process = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(payload)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if process.returncode != 0:
        raise StepFailed(f"{mode} step exited {process.returncode}:\n{process.stderr[-3000:]}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def _source_identity(root: Path) -> Dict[str, str]:
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(path.read_bytes())
    commit = "not a git checkout"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    return {"commit": commit, "src_digest": hasher.hexdigest()[:16]}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _declared(root: Path, key: str) -> List[dict]:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


def run(args: argparse.Namespace, root: Path) -> int:
    started = time.perf_counter()
    workload = args.workload
    bench_dir = root / ".perfbench"
    work = bench_dir / f"run-{os.getpid()}"
    speed_file = work / "hostspeed.txt"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=PYTHONHASHSEED)
    voters = args.voters or VOTERS[workload]
    sampler = None
    samples: List[hostspeed.Sample] = []
    setup: List[dict] = []
    reps: List[dict] = []
    try:
        work.mkdir(parents=True, exist_ok=True)
        built = _child("inputs", {"cache": str(bench_dir / "inputs"), "workload": workload,
                                  "seed": args.seed, "voters": voters},
                       env, root, 170.0 - (time.perf_counter() - started))
        # Every child inherits this CPU, and the host-speed sampler shares it.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        host_ref_s = hostspeed.host_reference()
        environment = {
            "workload": workload, "item": WORKLOADS[workload][1], "seed": args.seed,
            "voters": voters, "years": built["years"], "inputs": built["digests"],
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **_source_identity(root), "pythonhashseed": PYTHONHASHSEED,
            "flush_policy": f"fsync_batch={FSYNC_BATCH} (fsync at commits only)",
            "work_dir": str(work.relative_to(root)), "host_ref_s": host_ref_s,
            "clock": "time.perf_counter (CLOCK_MONOTONIC)",
        }
        print("perfbench env " + json.dumps(environment, sort_keys=True))
        sampler = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "sampler", json.dumps({"out": str(speed_file)})],
            env=env, cwd=root, stdout=subprocess.DEVNULL,
        )
        for _ in range(SETUP_PROBES):
            setup.append(_child("probe", {"workload": workload}, env, root, 60.0))
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = work / f"rep-{len(reps)}"
            rep_dir.mkdir()
            result = _child("rep", {
                "workload": workload, "inputs": built["path"], "work": str(rep_dir),
                "seed": args.seed, "trace": traced, "run_id": f"{workload}-s{args.seed}-r{len(reps)}",
                "spans": str(rep_dir / "spans.json"),
            }, env, root, 175.0 - (time.perf_counter() - started))
            if traced:
                result["spans"] = json.loads((rep_dir / "spans.json").read_text(encoding="utf-8"))
            shutil.rmtree(rep_dir, ignore_errors=True)
            reps.append(result)
            print(f"perfbench rep {len(reps)}: traced={traced} wall_s={result['wall_s']:.3f} "
                  f"items={result['items']} setup_s={result['setup_s']:.3f} "
                  f"check_s={result['check_s']:.3f} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"digests={json.dumps(result['digests'], sort_keys=True)}")
            for failure in result["failures"]:
                print(f"perfbench FAILED {failure}")
            measured = sum(r["wall_s"] for r in reps)
            mean = measured / len(reps)
            missing_trace = bool(args.trace) and not any(r["traced"] for r in reps)
            if not missing_trace and measured + mean / 2 >= args.seconds:
                break
            if time.perf_counter() - started + 1.5 * mean > DEADLINE_S:
                break
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if sampler is not None:
            sampler.terminate()
            sampler.wait()
            if speed_file.exists():
                samples = hostspeed.read_samples(speed_file)
        shutil.rmtree(work, ignore_errors=True)
    return report(args, root, reps, setup, host_ref_s, samples)


def report(args, root: Path, reps: List[dict], probes: List[dict], host_ref_s: float,
           samples: List[hostspeed.Sample]) -> int:
    for rep in reps:
        rep["factor"] = hostspeed.speed_factor(samples, rep["start"], rep["start"] + rep["wall_s"])
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace and not traced:
        print("perfbench: no traced repetition fitted in the run's deadline", file=sys.stderr)
        return 1
    setup = [
        p["setup_s"] * hostspeed.speed_factor(samples, p["t0"], p["t0"] + p["setup_s"])
        for p in probes + untraced
    ]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for index, result in enumerate(reps[1:], start=2):
        if result["digests"] != reps[0]["digests"]:
            print(f"perfbench FAILED rep {index}: output digests differ from rep 1")
            failed += result["attempted"] - result["failed"]
    print("perfbench digests " + json.dumps(reps[0]["digests"], sort_keys=True))
    quality = reps[0]["quality"]
    items = sum(r["items"] for r in untraced)
    wall = sum(r["wall_s"] for r in untraced)
    scaled = sum(r["wall_s"] * r["factor"] for r in untraced)
    computed: Dict[str, float] = {
        "setup_s": _median(setup),
        "throughput": items / scaled if scaled else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "store_bytes_per_record": quality.get("store_bytes_per_record", 0.0),
        "gold_recall": quality.get("gold_recall", 0.0),
        "best_f1": quality.get("best_f1", 0.0),
    }
    print(f"perfbench measured: {len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"{wall:.3f} s untraced wall, {len(setup)} set-up samples, {len(samples)} speed samples, "
          f"speed factors {[round(r['factor'], 3) for r in reps]}, "
          f"raw throughput {items / wall if wall else 0.0:.3f} items/s")
    declared = "end_to_end"
    if args.trace:
        declared = "per_layer"
        computed = {}
        for name in traced[0]["layers"]:
            scale = name in SELF_TIMES
            computed[name] = _median(
                [r["layers"][name] * (r["factor"] if scale else 1.0) for r in traced]
            )
        computed["runtime.cpu_us_per_item"] = _median(
            [r["cpu_s"] * r["factor"] / r["items"] * 1e6 for r in untraced if r["items"]]
        )
        computed["host.ref_s"] = host_ref_s
        computed["host.slowdown"] = _median([1.0 / r["factor"] for r in untraced])
        computed["trace.overhead"] = (
            _median([r["traced_wall_s"] * r["factor"] for r in traced])
            / _median([r["wall_s"] * r["factor"] for r in untraced])
        )
        first = traced[0]
        print(f"perfbench layers ({args.workload}, traced repetition 1, unscaled)")
        print(tracing.render_table(first["table"], first["traced_wall_s"]))
        for note in first["notes"]:
            print(f"perfbench note: {note}")
        spans_path = root / ".perfbench" / f"trace-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps([s for r in traced for s in r["spans"]]), encoding="utf-8")
        print(f"perfbench spans -> {spans_path.relative_to(root)}")
    metrics = {}
    for metric in _declared(root, declared):
        if metric["name"] in computed:
            metrics[metric["name"]] = {"value": computed[metric["name"]], "unit": metric["unit"]}
        else:
            print(f"perfbench note: dropped {metric['name']} (not measured by this run)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured work per run; repetitions stop near it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--voters", type=int, default=None,
                        help="register size override (the self-tests use a tiny one)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
