"""The benchmark's workloads: user-level command sequences, timed whole.

Each workload repeats what a CLI user runs, through the same public calls
the CLI makes, on inputs built beforehand from the seed (see
:mod:`inputs`).  A workload returns an :class:`Outcome`: the item count
throughput divides by, the operations it attempted, the ones that raised,
and the in-memory results the output checks in :mod:`checks` need.

Calls go through module attributes looked up at call time (function-local
imports, as in ``repro.cli``), so the wrappers a traced run installs see
every call.
"""

from __future__ import annotations

import dataclasses
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Heterogeneity ranges of the paper's NC1-NC3 test sets (Section 6.5).
NC_CUTS: Tuple[Tuple[str, float, float], ...] = (
    ("nc1", 0.06, 0.2),
    ("nc2", 0.2, 0.4),
    ("nc3", 0.4, 1.0),
)
#: The full-range cut ``customize_detect`` runs detection on.
FULL_CUT = ("full", 0.0, 1.0)

#: The CLI's ``evaluate`` threshold sweep, 0.20 ... 0.95.
THRESHOLDS = [t / 20 for t in range(4, 20)]

#: The durable store fsyncs at commits only (``generate --fsync-batch 0``).
FSYNC_BATCH = 0

#: Measures of the paper's evaluation, in the CLI's order.
MEASURES = ("monge_elkan", "jaro_winkler", "qgram_jaccard")


@dataclasses.dataclass
class Outcome:
    """What one workload repetition did."""

    items: int = 0
    attempted: int = 0
    #: One line per failed operation: which one, and the exception.
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Results kept for the output checks, by workload-specific key.
    state: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def fail(self, operation: str, count: int = 1) -> None:
        for _ in range(count):
            self.failures.append(f"{operation}: {traceback.format_exc(limit=3).strip()}")


def _measure(name: str):
    from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard

    return {
        "monge_elkan": MongeElkan,
        "jaro_winkler": JaroWinkler,
        "qgram_jaccard": QgramJaccard,
    }[name]()


def _name_attributes(attributes) -> Tuple[str, ...]:
    return tuple(a for a in ("first_name", "midl_name", "last_name") if a in attributes)


def ingest(inputs: Path, work: Path) -> Outcome:
    """``generate --durable --stats``: one committed version per snapshot."""
    from repro.core import RemovalLevel, TestDataGenerator
    from repro.core.versioning import UpdateProcess
    from repro.docstore import DurableDatabase
    from repro.votersim import read_snapshot_tsv

    outcome = Outcome()
    snapshots = [read_snapshot_tsv(path) for path in sorted((inputs / "snapshots").glob("*.tsv"))]
    outcome.items = sum(len(snapshot.records) for snapshot in snapshots)
    outcome.attempted = len(snapshots)
    store = work / "store"
    database = DurableDatabase(store, fsync_batch=FSYNC_BATCH)
    generator = TestDataGenerator.from_database(database, removal=RemovalLevel.TRIMMED)
    process = UpdateProcess(generator, workers=0)
    try:
        process.run_incremental(snapshots, compute_statistics=True)
        collection = database.get_collection("import_stats")
        if "snapshot_date_sorted" not in collection.index_names():
            collection.create_index("snapshot_date", "sorted")
        collection.insert_many(
            [
                {
                    "snapshot_date": stats.snapshot_date,
                    "rows": stats.rows,
                    "new_records": stats.new_records,
                    "new_clusters": stats.new_clusters,
                    "skipped": stats.skipped,
                }
                for stats in generator.import_stats
            ]
        )
        database.save(store)
        database.close()
    except Exception:  # counted as failed snapshot cycles, reported by the run
        outcome.fail("ingest", outcome.attempted - generator.current_version)
    outcome.state.update(
        store=store, database=database, generator=generator, snapshots=snapshots
    )
    return outcome


def evaluate(inputs: Path, work: Path) -> Outcome:
    """``evaluate`` on NC1, NC2 and NC3: SNM candidates, three measures."""
    from repro.datasets.io import load_dataset
    from repro.dedup import DetectionPipeline, RecordMatcher, best_f1, evaluate_thresholds

    outcome = Outcome()
    runs: List[dict] = []
    for name, _lo, _hi in NC_CUTS:
        outcome.attempted += len(MEASURES)
        try:
            dataset = load_dataset(inputs / "cuts" / f"{name}.csv")
            records, attributes = dataset.records, list(dataset.attributes)
            gold = dataset.gold_pairs
            outcome.items += len(records) * len(MEASURES)
            pipeline = DetectionPipeline(window=20, passes=5)
            keys, _stats = pipeline.candidates(records, attributes)
        except Exception:  # the test set's three evaluations fail together
            outcome.fail(name, len(MEASURES))
            continue
        run = {"name": name, "records": records, "attributes": attributes,
               "gold": gold, "keys": keys, "measures": {}}
        for measure_name in MEASURES:
            try:
                matcher = RecordMatcher.from_records(
                    records, attributes, _measure(measure_name), _name_attributes(attributes)
                )
                similarities = pipeline.score(records, keys, matcher)
                points = evaluate_thresholds(similarities, gold, THRESHOLDS)
                best = best_f1(points)
            except Exception:  # one (test set, measure) evaluation
                outcome.fail(f"{name}/{measure_name}")
                continue
            run["measures"][measure_name] = {
                "matcher": matcher, "similarities": similarities,
                "points": points, "best": best,
            }
        runs.append(run)
    outcome.state["runs"] = runs
    return outcome


def customize_detect(inputs: Path, work: Path) -> Outcome:
    """Four ``customize`` cuts, then ``detect --passes lsh`` on the full cut."""
    from repro.core import TestDataGenerator, customize
    from repro.core.heterogeneity import HeterogeneityScorer
    from repro.datasets.io import load_dataset, save_dataset
    from repro.dedup import DetectionPipeline, RecordMatcher
    from repro.dedup.pipeline import DEFAULT_THRESHOLDS
    from repro.docstore import Database
    from repro.votersim.schema import PERSON_ATTRIBUTES

    outcome = Outcome()
    store = inputs / "store"
    attributes = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")
    cuts: Dict[str, Path] = {}
    for name, lo, hi in NC_CUTS + (FULL_CUT,):
        outcome.attempted += 1
        try:
            generator = TestDataGenerator.from_database(Database.load(store))
            if not outcome.items:
                outcome.items = generator.record_count
            scorer = HeterogeneityScorer.from_clusters(
                generator.clusters(), ("person",), attributes
            )
            result = customize(
                generator, lo, hi, target_clusters=10_000, scorer=scorer, name=name, seed=0
            )
            out_path, _gold_path = save_dataset(
                work / f"{name}.csv", result.records, result.cluster_of, attributes
            )
        except Exception:  # one cut
            outcome.fail(f"customize {name}")
            continue
        cuts[name] = out_path
    outcome.state["cuts"] = cuts
    outcome.attempted += 1
    try:
        dataset = load_dataset(cuts[FULL_CUT[0]])
        records, detect_attributes = dataset.records, list(dataset.attributes)
        gold = dataset.gold_pairs
        pipeline = DetectionPipeline(
            window=20, passes=5, workers=0, thresholds=sorted(DEFAULT_THRESHOLDS),
            candidate_passes=("lsh",),
        )
        matcher = RecordMatcher.from_records(
            records, detect_attributes, _measure("monge_elkan"),
            _name_attributes(detect_attributes),
        )
        result = pipeline.detect(records, detect_attributes, matcher, gold)
    except Exception:  # the detect
        outcome.fail("detect")
        return outcome
    outcome.state["detect"] = {
        "records": records, "attributes": detect_attributes, "gold": gold,
        "pipeline": pipeline, "matcher": matcher, "result": result,
    }
    return outcome


#: name -> (workload function, item unit, modules a CLI user's run imports).
WORKLOADS = {
    "ingest": (ingest, "snapshot row", ("repro.cli",)),
    "evaluate": (
        evaluate, "test-set record x measure",
        ("repro.cli", "repro.datasets.io", "repro.dedup", "repro.textsim"),
    ),
    "customize_detect": (
        customize_detect, "stored record",
        ("repro.cli", "repro.datasets.io", "repro.dedup", "repro.dedup.lsh", "repro.textsim"),
    ),
}
