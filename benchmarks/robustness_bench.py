"""Robustness benchmark: fault sweeps, scrub throughput, compaction payoff.

Exercises the storage robustness layer (``repro.faults``,
``repro.docstore.scrub``, WAL rotation — see ``docs/durability.md``):

* ``fault_sweep`` — every failure mode of the fault model (``crash``,
  ``torn``, ``eio``, ``enospc``, ``partial_fsync``) injected at every
  filesystem operation of a three-collection commit→checkpoint workload.
  Each point must leave the store *recovered or quarantined, never
  silently wrong*: the reopened store's healthy collections have to hold
  exactly what they held in some committed state, and a damaged
  collection has to be dark.  Any other outcome aborts the benchmark.
* ``scrub`` — offline :func:`repro.docstore.scrub_database` throughput
  (documents and bytes per second) over a checkpointed register of
  ``--documents`` voter-shaped documents.
* ``compaction`` — replay time of an update-heavy WAL before and after
  a checkpoint rotates it away.  The reduction must be at least 3x (the
  whole point of folding N historical operations into one snapshot row).

Results are written as machine-readable JSON for CI artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/robustness_bench.py --quick --out BENCH_robustness.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro import faults
from repro.docstore import DurableDatabase, scrub_database

FAULT_MODES = ("crash", "torn", "eio", "enospc", "partial_fsync")

#: The sweep's six documents, dealt round-robin over three collections.
_SWEEP_IDS = ("AA1", "AA2", "AA7", "AA3", "AA5", "AA9")
_SWEEP_COLLECTIONS = ("docs0", "docs1", "docs2")


def _document(n: int) -> dict:
    return {
        "_id": f"NC{n:07d}",
        "ncid": f"NC{n:07d}",
        "records": [
            {"person": {"last_name": f"NAME{n % 97}", "first_name": "JO"},
             "first_version": 1}
        ],
    }


# ------------------------------------------------------------- fault sweep


def _sweep_workload(directory: Path, mark=None) -> None:
    database = DurableDatabase(directory)
    for index, ncid in enumerate(_SWEEP_IDS):
        database[_SWEEP_COLLECTIONS[index % 3]].insert_one(
            {"_id": ncid, "ncid": ncid, "n": index}
        )
    database.commit()
    if mark:
        mark(database)
    database["docs0"].update_one({"_id": "AA1"}, {"$set": {"n": 100}})
    database.checkpoint()
    if mark:
        mark(database)
    database["docs1"].delete_many({"_id": "AA2"})
    database["docs2"].insert_one({"_id": "BA1", "ncid": "BA1", "n": 7})
    database.commit()
    if mark:
        mark(database)
    database.close()


def _doc_state(database) -> Dict[str, List[str]]:
    """Docs-only state of the healthy collections (dark ones left out)."""
    return {
        name: sorted(
            json.dumps(doc, sort_keys=True) for doc in database[name].all()
        )
        for name in database.collection_names()
        if not database[name].quarantined
    }


def _projection(state, quarantined: Set[str]):
    """A committed state without the collections that went dark."""
    return {name: blobs for name, blobs in state.items() if name not in quarantined}


def bench_fault_sweep(directory: Path) -> Dict:
    states: List[dict] = [{}]
    _sweep_workload(
        directory / "reference", mark=lambda db: states.append(_doc_state(db))
    )
    total = faults.count_ops(lambda: _sweep_workload(directory / "count"))
    rows = []
    start_all = time.perf_counter()
    for mode in FAULT_MODES:
        survived = 0
        quarantined_points = 0
        start = time.perf_counter()
        for plan in faults.fault_points(total, mode=mode):
            target = directory / f"{mode}-{plan.fail_at}"
            with faults.inject(plan):
                try:
                    _sweep_workload(target)
                except (faults.CrashError, OSError):
                    pass
            reopened = DurableDatabase(target)
            quarantined = {
                name
                for name in reopened.collection_names()
                if reopened[name].quarantined
            }
            actual = _doc_state(reopened)
            reopened.close(commit=False)
            shutil.rmtree(target)
            if any(actual == _projection(s, quarantined) for s in states):
                survived += 1
                quarantined_points += bool(quarantined)
            else:
                raise SystemExit(
                    f"FATAL: silent corruption at {mode} point "
                    f"{plan.fail_at} ({plan.failed_op})"
                )
        rows.append({
            "mode": mode,
            "points": total,
            "survived": survived,
            "quarantined_points": quarantined_points,
            "seconds": time.perf_counter() - start,
        })
    return {
        "points_per_mode": total,
        "total_points": total * len(FAULT_MODES),
        "silent_failures": 0,
        "seconds": time.perf_counter() - start_all,
        "modes": rows,
    }


# ------------------------------------------------------------------- scrub


def bench_scrub(directory: Path, documents: int) -> Dict:
    store = directory / "scrub-register"
    database = DurableDatabase(store)
    collection = database.get_collection("clusters")
    for n in range(documents):
        collection.insert_one(_document(n))
    database.checkpoint()
    database.close()

    start = time.perf_counter()
    report = scrub_database(store)
    seconds = time.perf_counter() - start
    if not report.ok:
        raise SystemExit("FATAL: scrub found problems in a pristine register")
    shutil.rmtree(store)
    return {
        "documents": documents,
        "files_checked": report.files_checked,
        "bytes_checked": report.bytes_checked,
        "seconds": seconds,
        "documents_per_second": documents / seconds if seconds else None,
        "mb_per_second": (
            report.bytes_checked / seconds / 1e6 if seconds else None
        ),
    }


# -------------------------------------------------------------- compaction


def bench_compaction(directory: Path, documents: int, updates: int) -> Dict:
    """Replay an update-heavy WAL, checkpoint it away, replay again."""
    store = directory / "compaction"
    database = DurableDatabase(store)
    collection = database.get_collection("clusters")
    for n in range(documents):
        collection.insert_one(_document(n))
    for round_index in range(updates):
        for n in range(documents):
            collection.update_one(
                {"_id": f"NC{n:07d}"}, {"$set": {"round": round_index}}
            )
        database.commit()
    database.close()

    start = time.perf_counter()
    replayed = DurableDatabase(store)
    replay_seconds = time.perf_counter() - start
    count_before = replayed["clusters"].count_documents()
    replayed.checkpoint()  # fold (1 + updates) ops/doc into one snapshot row
    replayed.close()

    start = time.perf_counter()
    compacted = DurableDatabase(store)
    compacted_seconds = time.perf_counter() - start
    count_after = compacted["clusters"].count_documents()
    compacted.close(commit=False)
    if count_before != documents or count_after != documents:
        raise SystemExit(
            f"FATAL: compaction changed contents "
            f"(before={count_before}, after={count_after}, want={documents})"
        )
    shutil.rmtree(store)
    return {
        "documents": documents,
        "updates_per_document": updates,
        "replay_seconds_before": replay_seconds,
        "replay_seconds_after": compacted_seconds,
        "reduction": (
            replay_seconds / compacted_seconds if compacted_seconds else None
        ),
    }


def run_benchmark(documents: int, updates: int) -> Dict:
    scratch = Path(tempfile.mkdtemp(prefix="robustness-bench-"))
    try:
        report = {
            "benchmark": "docstore_robustness",
            "workload": {
                "scrub_documents": documents,
                "compaction_documents": max(documents // 20, 200),
                "updates_per_document": updates,
                "fault_modes": list(FAULT_MODES),
            },
            "environment": {
                "python": sys.version.split()[0],
                "cpu_count": os.cpu_count(),
            },
            "timings": {
                "fault_sweep": bench_fault_sweep(scratch / "sweep"),
                "scrub": bench_scrub(scratch, documents),
                "compaction": bench_compaction(
                    scratch, max(documents // 20, 200), updates
                ),
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_robustness.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    documents = 20000 if args.quick else 100000
    updates = 9
    report = run_benchmark(documents, updates)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    sweep = report["timings"]["fault_sweep"]
    print(
        f"fault sweep: {sweep['total_points']} injection points "
        f"({sweep['points_per_mode']} x {len(FAULT_MODES)} modes), "
        f"0 silent failures, {sweep['seconds']:.1f}s"
    )
    for row in sweep["modes"]:
        print(
            f"{row['mode']:>22}: {row['survived']}/{row['points']} recovered "
            f"({row['quarantined_points']} via quarantine)"
        )
    scrub = report["timings"]["scrub"]
    print(
        f"{'scrub':>22}: {scrub['documents']:,} docs in {scrub['seconds']:.2f}s "
        f"({scrub['documents_per_second']:,.0f} docs/s, "
        f"{scrub['mb_per_second']:.1f} MB/s)"
    )
    compaction = report["timings"]["compaction"]
    print(
        f"{'compaction':>22}: replay {compaction['replay_seconds_before']:.3f}s "
        f"-> {compaction['replay_seconds_after']:.3f}s "
        f"({compaction['reduction']:.1f}x less replay work)"
    )
    if compaction["reduction"] is not None and compaction["reduction"] < 3.0:
        print(
            f"FAIL: compaction replay reduction {compaction['reduction']:.2f}x "
            f"< 3x gate"
        )
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
