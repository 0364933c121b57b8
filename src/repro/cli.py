"""Command-line interface: the end-user workflow as five subcommands.

::

    ncvoter-testdata simulate  --out snapshots/ --voters 2000 --years 8
    ncvoter-testdata generate  --snapshots snapshots/ --store store/ --stats
    ncvoter-testdata stats     --store store/
    ncvoter-testdata customize --store store/ --out nc2.csv --h-lo 0.2 --h-hi 0.4
    ncvoter-testdata evaluate  --dataset nc2.csv --gold nc2.gold.csv
    ncvoter-testdata detect    --dataset nc2.csv --workers 4 --window 20
    ncvoter-testdata check     --store store/ --pipeline pipeline.json
    ncvoter-testdata recover   --store store/
    ncvoter-testdata scrub     --store store/

``simulate`` writes snapshot TSVs (the register's publication format);
``generate`` runs the full update process (import → statistics → publish)
into a persisted document store — with ``--durable`` every snapshot is
write-ahead-logged and committed as its own version, so an interrupted
run resumes from the last committed snapshot; ``stats`` prints the
Table 1/2 statistics of a store; ``customize`` extracts a
heterogeneity-bounded test dataset as CSV plus a gold-pair file;
``evaluate`` sweeps thresholds for the three paper measures and reports
the best F1 per measure; ``detect`` runs the streaming, parallel
detection pipeline (packed candidate pairs, one scoring batch of
distinct value pairs, sharded pair scoring — bit-identical to
``evaluate`` at any worker count); ``recover`` replays a durable store's
write-ahead logs and reports what crash recovery had to repair; ``scrub``
verifies the store's on-disk integrity (WAL CRC frames, snapshot
checksums, commit-epoch coverage) without modifying it and, with
``--repair``, salvages damaged files and lifts any quarantine.  Every
command that meets a quarantined collection names it, says why it went
dark and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core import RemovalLevel, TestDataGenerator, customize
from repro.core.statistics import snapshot_year_stats
from repro.core.versioning import UpdateProcess
from repro.docstore import Database, QuarantineError
from repro.votersim import (
    SimulationConfig,
    VoterRegisterSimulator,
    read_snapshot_tsv,
)
from repro.votersim.schema import PERSON_ATTRIBUTES


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        initial_voters=args.voters,
        years=args.years,
        snapshots_per_year=args.snapshots_per_year,
        seed=args.seed,
    )
    simulator = VoterRegisterSimulator(config)
    paths = simulator.run_to_directory(Path(args.out))
    total = 0
    for path in paths:
        rows = sum(1 for _ in path.open()) - 1
        total += rows
        print(f"wrote {path} ({rows} rows)")
    print(f"{len(paths)} snapshots, {total} rows total")
    return 0


def _load_snapshots(directory: Path):
    paths = sorted(Path(directory).glob("*.tsv"))
    if not paths:
        raise SystemExit(f"no .tsv snapshots found in {directory}")
    return [read_snapshot_tsv(path) for path in paths]


def _cmd_generate(args: argparse.Namespace) -> int:
    snapshots = _load_snapshots(args.snapshots)
    store = Path(args.store)
    if args.durable:
        from repro.docstore import DurableDatabase

        database = DurableDatabase(store, fsync_batch=args.fsync_batch)
        if database.last_recovery is not None and not database.last_recovery.clean:
            print("recovered store:")
            print(database.last_recovery.render())
        generator = TestDataGenerator.from_database(
            database, removal=RemovalLevel(args.removal)
        )
        skipped = sum(
            1 for s in snapshots if s.date in generator._imported_snapshots
        )
        if skipped:
            print(f"resuming: {skipped} snapshot(s) already committed")
    else:
        generator = TestDataGenerator(removal=RemovalLevel(args.removal))
    process = UpdateProcess(generator, workers=args.workers, shards=args.shards)
    if args.durable:
        # One committed version per snapshot: a crash mid-run resumes from
        # the last durably committed snapshot instead of starting over.
        versions = process.run_incremental(snapshots, compute_statistics=args.stats)
        version = generator.current_version
        if not versions:
            print("nothing to do: all snapshots already committed")
    else:
        version = process.run(
            snapshots, compute_statistics=args.stats, note="cli generate"
        )
    # Persist import statistics alongside the store for the stats command.
    stats_rows = [
        {
            "snapshot_date": stats.snapshot_date,
            "rows": stats.rows,
            "new_records": stats.new_records,
            "new_clusters": stats.new_clusters,
            "skipped": stats.skipped,
        }
        for stats in generator.import_stats
    ]
    collection = generator.database.get_collection("import_stats")
    # ``stats`` reads this sorted by snapshot_date; the index serves the
    # sort in index order instead of sorting every row on each read.
    if "snapshot_date_sorted" not in collection.index_names():
        collection.create_index("snapshot_date", "sorted")
    if args.durable:
        stats_rows = _lost_import_stats(generator, collection, snapshots, stats_rows) + stats_rows
    if stats_rows:
        collection.insert_many(stats_rows)
    generator.database.save(store)
    if args.durable:
        generator.database.close()
    print(
        f"published version {version}: {generator.record_count} records in "
        f"{generator.cluster_count} clusters -> {args.store}"
    )
    return 0


def _lost_import_stats(generator, collection, snapshots, rows: List[dict]) -> List[dict]:
    """Table 1 rows of committed snapshots that have none, from the store.

    A durable run inserts its rows after its last publish, so a crash
    before then loses the rows of every snapshot it committed, and the
    resumed run imports only the rest.  The committed store still holds
    each lost row: its new records are the clusters'
    ``meta.inserts_per_snapshot`` counts, its new clusters are those whose
    first record first appeared in it, and its skipped rows are the rest
    of the snapshot file's rows.
    """
    present = {doc["snapshot_date"] for doc in collection.find()}
    present.update(row["snapshot_date"] for row in rows)
    sizes = {snapshot.date: len(snapshot.records) for snapshot in snapshots}
    lost = [
        date for date in generator._imported_snapshots
        if date not in present and date in sizes
    ]
    new_records = dict.fromkeys(lost, 0)
    new_clusters = dict.fromkeys(lost, 0)
    for cluster in generator.clusters() if lost else ():
        for date, count in cluster["meta"]["inserts_per_snapshot"].items():
            if date in new_records:
                new_records[date] += count
        first = (cluster["records"][0].get("snapshots") or [None])[0]
        if first in new_clusters:
            new_clusters[first] += 1
    return [
        {
            "snapshot_date": date,
            "rows": sizes[date],
            "new_records": new_records[date],
            "new_clusters": new_clusters[date],
            "skipped": sizes[date] - new_records[date],
        }
        for date in lost
    ]


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.docstore import StorageCorruptError

    try:
        database = Database.load(Path(args.store))
    except StorageCorruptError as exc:
        print(f"store is damaged: {exc}")
        print("run 'scrub --store ... --repair' to salvage what the "
              "files still hold")
        return 1
    clusters = database["clusters"]
    pipeline = [
        {"$addFields": {"size": {"$size": "$records"}}},
        {
            "$group": {
                "_id": None,
                "clusters": {"$sum": 1},
                "records": {"$sum": "$size"},
                "max_size": {"$max": "$size"},
            }
        },
    ]
    result = clusters.aggregate(pipeline)
    if not result:
        print("store is empty")
        return 1
    summary = result[0]
    print(f"clusters:     {summary['clusters']}")
    print(f"records:      {summary['records']}")
    print(f"avg cluster:  {summary['records'] / summary['clusters']:.2f}")
    print(f"max cluster:  {summary['max_size']}")
    versions = database["versions"].find(sort=[("version", 1)])
    for version in versions:
        print(
            f"version {version['version']}: {version['records']} records, "
            f"{version['clusters']} clusters ({version['note']})"
        )
    rows = []
    if "import_stats" in database:
        from repro.core.generator import ImportStats

        from repro.report import render_year_stats

        rows = [
            ImportStats(
                snapshot_date=doc["snapshot_date"],
                rows=doc["rows"],
                new_records=doc["new_records"],
                new_clusters=doc["new_clusters"],
                skipped=doc["skipped"],
            )
            for doc in database["import_stats"].find(sort=[("snapshot_date", 1)])
        ]
        print()
        print(render_year_stats(snapshot_year_stats(rows)))
    # Every snapshot of the latest version should have its Table 1 row.
    listed = {row.snapshot_date for row in rows}
    missing = [
        date for date in (versions[-1].get("snapshots", []) if versions else [])
        if date not in listed
    ]
    if missing:
        print()
        print(
            f"Table 1 lacks {len(missing)} committed snapshot(s): {', '.join(missing)} "
            "(rerun 'generate --durable' on the same snapshots to fill them)"
        )
    if args.layout:
        from repro.report import render_collection_stats, render_resilience

        stats = database.stats()
        print()
        print("storage layout:")
        print(render_collection_stats(stats))
        print()
        print("resilience:")
        print(render_resilience(stats))
    return 1 if missing else 0


def _generator_from_store(store: Path) -> TestDataGenerator:
    return TestDataGenerator.from_database(Database.load(store))


def _writable_generator(store: Path) -> TestDataGenerator:
    """A generator whose ``database.save(store)`` keeps the store whole.

    A store with write-ahead logs (``generate --durable``) opens as a
    :class:`~repro.docstore.DurableDatabase`: its writes are journaled and
    saving in place is a checkpoint that rotates the logs.  Rewriting its
    JSONL through a plain :class:`Database` would leave the logs behind
    the new committed epoch, which the next load reports as lost records.
    """
    if any(store.glob("*.wal")):
        from repro.docstore import DurableDatabase

        return TestDataGenerator.from_database(DurableDatabase(store))
    return _generator_from_store(store)


def _save_in_place(generator: TestDataGenerator, store: Path) -> None:
    generator.database.save(store)
    close = getattr(generator.database, "close", None)
    if close is not None:
        close()


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.docstore import StorageCorruptError
    from repro.docstore.storage import RecoveryReport, load_database

    store = Path(args.store)
    report = RecoveryReport()
    try:
        database = load_database(
            store, repair=args.repair, report=report, truncate=True
        )
    except StorageCorruptError as exc:
        print(f"unrecoverable: {exc}")
        if not args.repair:
            print("hint: --repair salvages the parseable lines of damaged "
                  "snapshot files")
        return 1
    print(report.render())
    if args.repair and report.salvaged:
        # Write the salvaged state back so the damage does not resurface
        # on the next load.  The recovered epoch is recorded in the
        # manifest; replaying the (already truncated) logs on top of the
        # fresh snapshot is idempotent.
        database.committed_epoch = report.committed_epoch  # type: ignore[attr-defined]
        database.save(store)
        print(f"store rewritten with salvaged snapshot(s) -> {store}")
    counts = ", ".join(
        f"{name}: {database[name].count_documents({})} docs"
        for name in database.collection_names()
    )
    print(f"recovered state: {counts or 'empty database'}")
    return 0 if report.clean else 2


def _cmd_scrub(args: argparse.Namespace) -> int:
    import json

    from repro.docstore import StorageError
    from repro.docstore.scrub import repair_database, scrub_database

    store = Path(args.store)
    try:
        report = scrub_database(store, deep=not args.shallow)
    except StorageError as exc:
        print(f"unscannable: {exc}")
        return 1
    print(report.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"findings written -> {args.json}")
    if args.repair and (report.errors or report.quarantined):
        repair = repair_database(store)
        print(repair.render())
        after = scrub_database(store, deep=not args.shallow)
        print("post-repair scrub:")
        print(after.render())
        return 2 if after.ok else 1
    if report.errors:
        if not args.repair:
            print("hint: --repair salvages the damaged files and lifts "
                  "any quarantine")
        return 1
    if report.findings or report.quarantined:
        return 2
    return 0


def _cmd_customize(args: argparse.Namespace) -> int:
    generator = _generator_from_store(Path(args.store))
    attributes = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")
    result = customize(
        generator,
        args.h_lo,
        args.h_hi,
        target_clusters=args.clusters,
        name=Path(args.out).stem,
        seed=args.seed,
    )
    from repro.datasets.io import save_dataset

    out_path, gold_path = save_dataset(
        Path(args.out), result.records, result.cluster_of, attributes
    )
    print(
        f"wrote {out_path} ({result.record_count} records, "
        f"{result.cluster_count} clusters) and {gold_path} "
        f"({len(result.gold_pairs)} pairs)"
    )
    return 0


def _read_gold_pairs(path: Path, record_count: int) -> Set[Tuple[int, int]]:
    """Canonical ``(min, max)`` gold pairs of a user-supplied gold CSV.

    Raises :class:`ValueError` naming the first row that is not two
    distinct record ids inside ``range(record_count)``.
    """
    gold: Set[Tuple[int, int]] = set()
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for line, row in enumerate(reader, start=2):
            try:
                left, right = (int(value) for value in row)
            except ValueError:
                raise ValueError(
                    f"{path}:{line}: expected two integer record ids, got {row}"
                ) from None
            if left == right:
                raise ValueError(f"{path}:{line}: self-pair ({left}, {right})")
            for record_id in (left, right):
                if not 0 <= record_id < record_count:
                    raise ValueError(
                        f"{path}:{line}: record id {record_id} is outside "
                        f"range({record_count})"
                    )
            gold.add((min(left, right), max(left, right)))
    return gold


def _load_labeled_dataset(args: argparse.Namespace):
    """(records, attributes, gold pairs) of an evaluate/detect invocation,
    or ``None`` (after printing why) when the ``--gold`` file is invalid."""
    from repro.datasets.io import load_dataset

    dataset = load_dataset(Path(args.dataset))
    if args.gold:
        try:
            gold = _read_gold_pairs(Path(args.gold), len(dataset.records))
        except ValueError as exc:
            print(f"invalid --gold file: {exc}")
            return None
    else:
        gold = dataset.gold_pairs
    return dataset.records, list(dataset.attributes), gold


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.dedup import (
        DetectionPipeline,
        RecordMatcher,
        best_f1,
        evaluate_thresholds,
    )
    from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard

    loaded = _load_labeled_dataset(args)
    if loaded is None:
        return 1
    records, attributes, gold = loaded

    # Candidates are generated once (streamed, packed) and scored per
    # measure as one batch of distinct value pairs — bit-identical to the
    # historical tuple-set + per-pair loop, measurably faster.
    candidate_passes, snm_passes = args.passes
    pipeline = DetectionPipeline(
        window=args.window, passes=snm_passes, candidate_passes=candidate_passes
    )
    candidate_keys, stats = pipeline.candidates(records, attributes)
    record_count = len(records)
    gold_lost = sum(
        1
        for left, right in gold
        if left * record_count + right not in candidate_keys
    )
    thresholds = [t / 20 for t in range(4, 20)]
    if "lsh" in candidate_passes:
        # LSH can skip oversized buckets; its per-pass accounting is never
        # silent.  SNM-only runs keep the paper's one-line summary.
        print(stats.render())
    print(
        f"{len(records)} records, {len(gold)} gold pairs, "
        f"{len(candidate_keys)} candidates ({gold_lost} gold lost)"
    )
    name_attributes = tuple(
        a for a in ("first_name", "midl_name", "last_name") if a in attributes
    )
    for label, measure in (
        ("ME/Lev", MongeElkan()),
        ("JaroWinkler", JaroWinkler()),
        ("Jaccard-3grams", QgramJaccard()),
    ):
        matcher = RecordMatcher.from_records(
            records, attributes, measure, name_attributes
        )
        similarities = pipeline.score(records, candidate_keys, matcher)
        points = evaluate_thresholds(similarities, gold, thresholds)
        best = best_f1(points)
        print(
            f"{label:<15} best F1 {best.f1:.3f} @ {best.threshold:.2f} "
            f"(P={best.precision:.2f}, R={best.recall:.2f})"
        )
    return 0


def _parse_candidate_passes(value: str) -> tuple:
    """Decode the ``--passes`` argument of ``evaluate`` and ``detect``.

    Backwards compatible: a bare integer (``--passes 5``) keeps its
    historical meaning — that many entropy-ranked SNM passes.  Pass
    names select generator families instead: ``lsh``, ``snm``, or a
    ``+``/``,``-separated union like ``snm+lsh`` (SNM keeps its default
    five sort keys and ``--window``).  Only ``detect`` tunes the LSH pass
    (``--bands``, ``--rows``, ``--ngram``, ``--lsh-seed``,
    ``--max-bucket``); ``evaluate`` runs it with the library defaults.
    Returns ``(candidate_passes, snm_pass_count)``.
    """
    text = value.strip().lower()
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"--passes must be >= 1, got {count}"
            )
        return ("snm",), count
    names = [part for part in text.replace(",", "+").split("+") if part]
    if not names or any(name not in ("snm", "lsh") for name in names):
        raise argparse.ArgumentTypeError(
            f"--passes must be an integer (SNM pass count) or a combination "
            f"of 'snm'/'lsh' (e.g. 'lsh', 'snm+lsh'); got {value!r}"
        )
    ordered = tuple(dict.fromkeys(names))
    return ordered, 5


def _count_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer no smaller than ``minimum``.

    Rejecting ``--workers -1`` or ``--shards 0`` here makes it a usage
    error naming the flag, raised before any input is read.
    """

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {value!r}"
            ) from None
        if count < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {count}")
        return count

    return parse


def _number_in(minimum: float, maximum: float = math.inf) -> Callable[[str], float]:
    """An argparse ``type``: a finite float in ``[minimum, maximum]``.

    Rejecting ``--share 1.5``, ``--errors -3`` or ``--threshold nan`` here
    makes it a usage error naming the flag, raised before any input is
    read.
    """
    bounds = f"in [{minimum:g}, {maximum:g}]" if maximum < math.inf else f">= {minimum:g}"

    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {value!r}"
            ) from None
        if not (math.isfinite(number) and minimum <= number <= maximum):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bounds}, got {value}"
            )
        return number

    return parse


_fraction = _number_in(0.0, 1.0)


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.dedup import DetectionPipeline, RecordMatcher
    from repro.dedup.pipeline import DEFAULT_THRESHOLDS
    from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard

    measures = {
        "monge_elkan": MongeElkan,
        "jaro_winkler": JaroWinkler,
        "qgram_jaccard": QgramJaccard,
    }
    loaded = _load_labeled_dataset(args)
    if loaded is None:
        return 1
    records, attributes, gold = loaded
    thresholds = list(DEFAULT_THRESHOLDS)
    if args.threshold is not None and args.threshold not in thresholds:
        thresholds.append(args.threshold)

    candidate_passes, snm_passes = args.passes
    pipeline = DetectionPipeline(
        window=args.window,
        passes=snm_passes,
        workers=args.workers,
        shards=args.shards,
        thresholds=sorted(thresholds),
        candidate_passes=candidate_passes,
        bands=args.bands,
        rows=args.rows,
        ngram=args.ngram,
        lsh_seed=args.lsh_seed,
        max_bucket_size=args.max_bucket,
    )
    name_attributes = tuple(
        a for a in ("first_name", "midl_name", "last_name") if a in attributes
    )
    matcher = RecordMatcher.from_records(
        records, attributes, measures[args.measure](), name_attributes
    )
    result = pipeline.detect(records, attributes, matcher, gold)
    print(result.candidate_stats.render())
    if result.candidate_stats.pairs_dropped:
        print(
            f"WARNING: {result.candidate_stats.pairs_dropped} candidate "
            f"pair(s) dropped in LSH buckets over --max-bucket {args.max_bucket}"
        )
    print(
        f"{len(records)} records, {result.gold_size} gold pairs, "
        f"{len(result.candidate_keys)} candidates "
        f"({result.gold_missed} gold lost to blocking)"
    )
    if args.threshold is not None:
        point = next(p for p in result.points if p.threshold == args.threshold)
        print(
            f"@ {point.threshold:.2f}: P={point.precision:.3f} "
            f"R={point.recall:.3f} F1={point.f1:.3f} "
            f"(TP={point.true_positives}, FP={point.false_positives}, "
            f"FN={point.false_negatives})"
        )
    best = result.best
    print(
        f"{args.measure} best F1 {best.f1:.3f} @ {best.threshold:.2f} "
        f"(P={best.precision:.2f}, R={best.recall:.2f})"
    )
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    from repro.core.augment import AugmentationPlan, Augmenter

    store = Path(args.store)
    generator = _writable_generator(store)
    plan = AugmentationPlan(
        share_of_clusters=args.share,
        duplicates_per_cluster=args.duplicates,
        errors_per_duplicate=args.errors,
        seed=args.seed,
    )
    stats = Augmenter(generator, plan).augment()
    generator.publish(
        note=f"augmented: +{stats.records_added} synthetic records"
    )
    _save_in_place(generator, store)
    print(
        f"added {stats.records_added} synthetic records to "
        f"{stats.clusters_touched} clusters (store now has "
        f"{generator.record_count} records, version {generator.current_version})"
    )
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.core.plausibility import cluster_plausibility
    from repro.core.repair import apply_repair, split_cluster

    store = Path(args.store)
    if args.apply:
        generator = _writable_generator(store)
    else:
        generator = _generator_from_store(store)
    suspicious = []
    for cluster in generator.clusters():
        if len(cluster["records"]) < 2:
            continue
        plausibility = cluster_plausibility(cluster)
        if plausibility < args.threshold:
            suspicious.append((plausibility, cluster))
    suspicious.sort(key=lambda item: item[0])
    print(f"{len(suspicious)} clusters below plausibility {args.threshold}")
    split_count = 0
    for plausibility, cluster in suspicious:
        result = split_cluster(cluster, threshold=args.threshold)
        marker = f"split into {len(result.groups)} groups" if result.was_split else "kept"
        print(f"  {cluster['ncid']}  plausibility {plausibility:.2f}  {marker}")
        if args.apply and result.was_split:
            split_count += 1
            clusters = generator.database.get_collection("clusters")
            clusters.delete_many({"_id": cluster["ncid"]})
            del generator._clusters[cluster["ncid"]]
            for sub in apply_repair(cluster, result):
                generator._clusters[sub["ncid"]] = sub
                clusters.insert_one(sub)
    if args.apply:
        generator.publish(note=f"repaired {split_count} unsound clusters")
        _save_in_place(generator, store)
        print(f"applied: {split_count} clusters split; store saved")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validate import validate_store

    database = Database.load(Path(args.store))
    report = validate_store(database)
    print(
        f"checked {report.clusters_checked} clusters / "
        f"{report.records_checked} records"
    )
    if report.ok:
        print("store is sound")
        return 0
    for error in report.errors[:50]:
        print(f"  VIOLATION: {error}")
    if len(report.errors) > 50:
        print(f"  ... and {len(report.errors) - 50} more")
    return 1


def _load_spec(value: str):
    """Parse ``value`` as inline JSON or as a path to a JSON file."""
    import json

    path = Path(value)
    text = value
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"not valid JSON (or a path to a JSON file): {value!r}: {exc}")


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import (
        SchemaPaths,
        analyze_customization,
        analyze_filter,
        analyze_pipeline,
        cluster_schema,
        has_errors,
    )

    if not (args.filter or args.pipeline or args.customize or args.concurrency):
        raise SystemExit(
            "nothing to check: pass --filter, --pipeline, --customize "
            "or --concurrency"
        )

    if args.concurrency:
        return _check_concurrency(args)

    schema = None
    collection = None
    if args.store:
        from repro.docstore import CollectionNotFound, StorageError

        try:
            database = Database.load(Path(args.store))
        except StorageError as exc:
            raise SystemExit(f"cannot load store: {exc}")
        try:
            collection = database.get_collection(args.collection, create=False)
        except CollectionNotFound:
            raise SystemExit(
                f"store has no collection {args.collection!r} "
                f"(has: {', '.join(database.collection_names())})"
            )
        if not args.no_schema:
            documents = collection.find(limit=200)
            schema = SchemaPaths.from_documents(
                documents, name=f"{args.collection}@{args.store}"
            )
    elif not args.no_schema:
        schema = cluster_schema()

    filter_doc = _load_spec(args.filter) if args.filter else None
    pipeline = _load_spec(args.pipeline) if args.pipeline else None

    diagnostics = []
    if filter_doc is not None:
        diagnostics.extend(analyze_filter(filter_doc, schema))
    if pipeline is not None:
        diagnostics.extend(analyze_pipeline(pipeline, schema))
    if args.customize:
        diagnostics.extend(analyze_customization(_load_spec(args.customize)))
    if collection is not None and (filter_doc is not None or pipeline is not None):
        # Against a real store we also know the indexes, so index-usage
        # (I4xx) hints apply.
        from repro.analysis import analyze_index_usage

        diagnostics.extend(
            analyze_index_usage(
                filter_doc,
                pipeline=pipeline if isinstance(pipeline, list) else None,
                indexes=collection.index_specs(),
            )
        )

    for diagnostic in diagnostics:
        print(diagnostic.render())
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    if diagnostics:
        print(f"{errors} error(s), {warnings} warning(s)")
    else:
        print("no problems found")
    return 1 if has_errors(diagnostics) else 0


def _check_concurrency(args: argparse.Namespace) -> int:
    """Run the R-code concurrency/determinism analyzer over source trees."""
    from repro.analysis.concurrency import (
        analyze_concurrency,
        write_json_report,
    )

    report = analyze_concurrency([Path(p) for p in args.concurrency])
    for diagnostic in report.all_findings:
        print(diagnostic.render())
    if args.json:
        write_json_report(report, Path(args.json))
        print(f"report written to {args.json}")
    counts = report.counts()
    if counts:
        summary = ", ".join(f"{code}: {n}" for code, n in counts.items())
        print(f"{len(report.all_findings)} finding(s) ({summary})")
        return 1
    suppressed = len(report.suppressed)
    note = f" ({suppressed} suppressed)" if suppressed else ""
    print(f"no concurrency findings{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="ncvoter-testdata",
        description="Generate realistic duplicate-detection test datasets "
        "from historical (simulated) voter snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="write snapshot TSVs")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--voters", type=_count_at_least(1), default=1000)
    simulate.add_argument("--years", type=_count_at_least(1), default=8)
    simulate.add_argument(
        "--snapshots-per-year", type=_count_at_least(1), default=2
    )
    simulate.add_argument("--seed", type=int, default=20210323)
    simulate.set_defaults(func=_cmd_simulate)

    generate = sub.add_parser("generate", help="snapshots -> cluster store")
    generate.add_argument("--snapshots", required=True, help="TSV directory")
    generate.add_argument("--store", required=True, help="store directory")
    generate.add_argument(
        "--removal",
        choices=[level.value for level in RemovalLevel],
        default=RemovalLevel.TRIMMED.value,
    )
    generate.add_argument(
        "--stats", action="store_true",
        help="compute plausibility/heterogeneity statistics (slower)",
    )
    generate.add_argument(
        "--workers", type=_count_at_least(0), default=0,
        help="worker processes for the scoring stage (0 = in-process); "
        "results are identical for any worker count",
    )
    generate.add_argument(
        "--shards", type=_count_at_least(1), default=None,
        help="cluster shards for parallel scoring (default: one per worker)",
    )
    generate.add_argument(
        "--durable", action="store_true",
        help="write-ahead-log every mutation and commit one version per "
        "snapshot; an interrupted run resumes from the last committed one",
    )
    generate.add_argument(
        "--fsync-batch", type=_count_at_least(0), default=0,
        help="with --durable: fsync the log every N staged operations "
        "(0 = only at commits; commits always fsync)",
    )
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="print store statistics")
    stats.add_argument("--store", required=True)
    stats.add_argument(
        "--layout", action="store_true",
        help="also print the storage layout (per-collection document "
        "counts, indexes and quarantine state) and resilience counters",
    )
    stats.set_defaults(func=_cmd_stats)

    custom = sub.add_parser("customize", help="store -> CSV test dataset")
    custom.add_argument("--store", required=True)
    custom.add_argument("--out", required=True, help="output CSV path")
    custom.add_argument("--h-lo", type=_fraction, default=0.0)
    custom.add_argument("--h-hi", type=_fraction, default=1.0)
    custom.add_argument("--clusters", type=_count_at_least(1), default=10_000)
    custom.add_argument("--seed", type=int, default=0)
    custom.set_defaults(func=_cmd_customize)

    evaluate = sub.add_parser("evaluate", help="run the three paper measures")
    evaluate.add_argument("--dataset", required=True, help="CSV from customize")
    evaluate.add_argument("--gold", help="gold CSV (default: <dataset>.gold.csv)")
    evaluate.add_argument("--window", type=_count_at_least(2), default=20)
    evaluate.add_argument(
        "--passes", type=_parse_candidate_passes, default=(("snm",), 5),
        help="an integer (that many SNM passes, the default 5) or candidate "
        "pass types: 'snm', 'lsh', or 'snm+lsh' (LSH with detect's defaults)",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    detect = sub.add_parser(
        "detect",
        help="streaming parallel duplicate detection on a labeled dataset",
        description="Run the end-to-end detection pipeline "
        "(repro.dedup.pipeline): streamed multi-pass Sorted Neighborhood "
        "candidates over packed pair keys, batch scoring of distinct value "
        "pairs — optionally sharded over worker processes — and a threshold sweep "
        "fed directly into evaluate_thresholds.  Results are bit-identical "
        "for every worker count.",
    )
    detect.add_argument("--dataset", required=True, help="CSV from customize")
    detect.add_argument("--gold", help="gold CSV (default: <dataset>.gold.csv)")
    detect.add_argument("--window", type=_count_at_least(2), default=20,
                        help="Sorted Neighborhood window size")
    detect.add_argument(
        "--passes", type=_parse_candidate_passes, default=(("snm",), 5),
        help="an integer (that many SNM passes, the historical default) or "
        "candidate pass types: 'snm', 'lsh', or 'snm+lsh'",
    )
    detect.add_argument("--bands", type=_count_at_least(1), default=16,
                        help="LSH bands (candidate iff >=1 band collides)")
    detect.add_argument("--rows", type=_count_at_least(1), default=4,
                        help="MinHash rows per band (k = bands*rows)")
    detect.add_argument("--ngram", type=_count_at_least(1), default=3,
                        help="character n-gram width for LSH shingles")
    detect.add_argument("--lsh-seed", type=int, default=20210323,
                        help="seed for the MinHash permutations")
    detect.add_argument(
        "--max-bucket", type=_count_at_least(2), default=500,
        help="skip LSH buckets larger than this (reported, never silent)",
    )
    detect.add_argument("--threshold", type=_fraction, default=None,
                        help="also report P/R/F1 at this exact threshold")
    detect.add_argument(
        "--workers", type=_count_at_least(0), default=0,
        help="worker processes for pair scoring (0 = in-process); "
        "results are identical for any worker count",
    )
    detect.add_argument(
        "--shards", type=_count_at_least(1), default=None,
        help="pair-key shards for parallel scoring (default: one per worker)",
    )
    detect.add_argument(
        "--measure", choices=["monge_elkan", "jaro_winkler", "qgram_jaccard"],
        default="monge_elkan", help="record similarity measure",
    )
    detect.set_defaults(func=_cmd_detect)

    augment = sub.add_parser(
        "augment", help="inject synthetic duplicates (pollution combination)"
    )
    augment.add_argument("--store", required=True)
    augment.add_argument("--share", type=_fraction, default=0.3,
                         help="share of clusters to augment")
    augment.add_argument("--duplicates", type=_count_at_least(1), default=1,
                         help="synthetic duplicates per augmented cluster")
    augment.add_argument("--errors", type=_number_in(0.0), default=1.5,
                         help="corruptions per synthetic duplicate")
    augment.add_argument("--seed", type=int, default=0)
    augment.set_defaults(func=_cmd_augment)

    repair = sub.add_parser(
        "repair", help="report (and optionally split) unsound clusters"
    )
    repair.add_argument("--store", required=True)
    repair.add_argument("--threshold", type=_fraction, default=0.8,
                        help="plausibility threshold for soundness")
    repair.add_argument("--apply", action="store_true",
                        help="persist the splits back into the store")
    repair.set_defaults(func=_cmd_repair)

    validate = sub.add_parser("validate", help="check a store's invariants")
    validate.add_argument("--store", required=True)
    validate.set_defaults(func=_cmd_validate)

    check = sub.add_parser(
        "check",
        help="statically lint a query spec or source tree",
        description="Lint query filters, aggregation pipelines and "
        "customisation specs without executing them.  Spec arguments accept "
        "inline JSON or a path to a JSON file.  With --concurrency, run the "
        "R-code concurrency/determinism analyzer over Python source trees "
        "instead (optionally writing a JSON report with --json).  Exits 1 "
        "when any error-severity diagnostic is found.",
    )
    check.add_argument("--filter", help="query filter (JSON or file)")
    check.add_argument("--pipeline", help="aggregation pipeline (JSON or file)")
    check.add_argument("--customize", help="customisation spec (JSON or file)")
    check.add_argument(
        "--store",
        help="infer the field-path schema from this store "
        "(default: the built-in cluster schema)",
    )
    check.add_argument(
        "--collection", default="clusters",
        help="collection to sample for --store schema inference",
    )
    check.add_argument(
        "--no-schema", action="store_true",
        help="skip field-path checks (operators/stages only)",
    )
    check.add_argument(
        "--concurrency", nargs="+", metavar="PATH",
        help="run the concurrency/determinism analyzer (R-codes) over "
        "these source files or directories instead of a query spec",
    )
    check.add_argument(
        "--json", metavar="OUT",
        help="with --concurrency: also write the machine-readable findings "
        "report to this path (the CI artifact format)",
    )
    check.set_defaults(func=_cmd_check)

    recover = sub.add_parser(
        "recover",
        help="replay a store's write-ahead logs and report repairs",
        description="Run crash recovery on a store directory: load the "
        "snapshot, replay committed write-ahead-log operations, truncate "
        "torn log tails, and print what had to be repaired.  Exits 0 when "
        "the store was already clean, 2 when repairs were made, 1 when the "
        "store is corrupt beyond automatic recovery.",
    )
    recover.add_argument("--store", required=True, help="store directory")
    recover.add_argument(
        "--repair", action="store_true",
        help="salvage the parseable lines of damaged snapshot files and "
        "rewrite the store instead of failing",
    )
    recover.set_defaults(func=_cmd_recover)

    scrub = sub.add_parser(
        "scrub",
        help="verify a store's on-disk integrity without modifying it",
        description="Walk a store directory and verify write-ahead-log "
        "CRC frames, snapshot checksums against the manifest and commit-epoch "
        "coverage.  Exits 0 when "
        "the store is clean, 2 when it is degraded or only has repairable "
        "findings, 1 when it holds unrecoverable damage.",
    )
    scrub.add_argument("--store", required=True, help="store directory")
    scrub.add_argument(
        "--shallow", action="store_true",
        help="skip the per-line snapshot parse (checksums only)",
    )
    scrub.add_argument(
        "--repair", action="store_true",
        help="on errors or standing quarantine: salvage the damaged files, "
        "rewrite a clean snapshot and lift the quarantine",
    )
    scrub.add_argument(
        "--json", metavar="OUT",
        help="also write the machine-readable findings report to this path",
    )
    scrub.set_defaults(func=_cmd_scrub)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # customize's range spans two flags, so no per-flag type can check it.
    if getattr(args, "h_lo", 0.0) > getattr(args, "h_hi", 1.0):
        parser.error(
            f"argument --h-lo: must be <= --h-hi ({args.h_hi}), got {args.h_lo}"
        )
    try:
        return args.func(args)
    except QuarantineError as exc:
        store = getattr(args, "store", None) or "<store>"
        print(f"collection {exc.collection!r} is quarantined: {exc.reason}")
        print(f"run 'scrub --store {store} --repair' to salvage it and lift "
              "the quarantine")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
