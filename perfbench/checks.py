"""Output checks, content digests and quality metrics of one repetition.

Every check goes through the program's public entry points only, and
recomputes what it checks independently where it can: stored documents
are reloaded from disk, candidate similarities are rescored pair by pair
with a fresh :class:`repro.dedup.RecordMatcher` (its own cache, so a wrong
cached value cannot vouch for itself), threshold sweeps are recounted, and
LSH candidates are re-justified by their band collisions.

A check returns the failed operations by name; the run counts them as
failed operations and exits non-zero.
"""

from __future__ import annotations

import bisect
import collections
import csv
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from workloads import NC_CUTS, Outcome

#: Candidate pairs rescored per (test set, measure) by the per-pair path.
SAMPLE_PAIRS = 64


def plain(value: Any) -> Any:
    """Plain dicts and lists of a (possibly lazy-view) document."""
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def digest(value: Any) -> str:
    """Content digest of a JSON-able value (canonical key order)."""
    text = json.dumps(plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def file_digest(paths: Iterable[Path], root: Path) -> str:
    """Content digest of files, keyed by their path below ``root``."""
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def _collection(database, name: str) -> List[dict]:
    return sorted((plain(doc) for doc in database[name].all()), key=lambda doc: str(doc["_id"]))


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def sample_keys(similarities: Dict[Tuple[int, int], float], seed: int) -> List[Tuple[int, int]]:
    """The candidate pairs the per-pair check rescores (seeded)."""
    ordered = sorted(similarities)
    return random.Random(seed).sample(ordered, min(SAMPLE_PAIRS, len(ordered)))


def check_similarities(
    records: Sequence[Dict[str, str]],
    similarities: Dict[Tuple[int, int], float],
    matcher,
    seed: int,
) -> List[str]:
    """Sampled pairs rescored by a fresh per-pair matcher, bit for bit."""
    from repro.dedup import RecordMatcher

    fresh = RecordMatcher(type(matcher.measure)(), dict(matcher.weights), matcher.name_attributes)
    errors = []
    for left, right in sample_keys(similarities, seed):
        expected = fresh.similarity(records[left], records[right])
        got = similarities[(left, right)]
        if expected.hex() != got.hex():
            errors.append(f"pair ({left}, {right}): batch {got!r} != per-pair {expected!r}")
    return errors


def check_sweep(similarities, gold, points) -> List[str]:
    """Recount every threshold's TP/FP/FN from the similarities."""
    values = sorted(similarities.values())
    gold_values = sorted(similarities[pair] for pair in gold if pair in similarities)
    errors = []
    for point in points:
        predicted = len(values) - bisect.bisect_left(values, point.threshold)
        true_positives = len(gold_values) - bisect.bisect_left(gold_values, point.threshold)
        counted = (true_positives, predicted - true_positives, len(gold) - true_positives)
        reported = (point.true_positives, point.false_positives, point.false_negatives)
        if counted != reported:
            errors.append(f"threshold {point.threshold}: TP/FP/FN {reported} != recount {counted}")
    return errors


def _keys_digest(keys) -> str:
    return hashlib.sha256(",".join(map(str, sorted(keys))).encode()).hexdigest()[:16]


def _points(points) -> list:
    return [(p.threshold, p.true_positives, p.false_positives, p.false_negatives) for p in points]


def _gold_found(keys, gold, record_count: int) -> int:
    return sum(1 for left, right in gold if left * record_count + right in keys)


# ------------------------------------------------------------------ ingest


def _stored_gold(clusters: List[dict], attributes: Sequence[str]) -> set:
    from repro.core.clusters import full_view

    pairs = set()
    for cluster in clusters:
        values = [
            tuple((full_view(record).get(a) or "").strip() for a in attributes)
            for record in cluster["records"]
        ]
        for j in range(1, len(values)):
            for i in range(j):
                pairs.add((cluster["ncid"],) + tuple(sorted((values[i], values[j]))))
    return pairs


def _snapshot_gold(snapshots, attributes: Sequence[str]) -> set:
    """Gold pairs the snapshots imply: distinct trimmed records per NCID."""
    records = collections.defaultdict(set)
    for snapshot in snapshots:
        for row in snapshot.records:
            ncid = (row.get("ncid") or "").strip()
            if ncid:
                records[ncid].add(tuple((row.get(a) or "").strip() for a in attributes))
    pairs = set()
    for ncid, values in records.items():
        ordered = sorted(values)
        for j in range(1, len(ordered)):
            for i in range(j):
                pairs.add((ncid, ordered[i], ordered[j]))
    return pairs


def check_ingest(outcome: Outcome) -> Tuple[Dict[str, List[str]], dict, dict]:
    from repro.core import RemovalLevel
    from repro.core.profile import NC_VOTER_PROFILE
    from repro.core.validate import validate_store
    from repro.docstore import Database

    store = outcome.state["store"]
    database = outcome.state["database"]
    reloaded = Database.load(store)
    errors: List[str] = []
    on_disk = {name: _collection(reloaded, name) for name in ("clusters", "versions", "import_stats")}
    in_memory = {
        "clusters": sorted((plain(c) for c in outcome.state["generator"].clusters()),
                           key=lambda doc: str(doc["_id"])),
        "versions": _collection(database, "versions"),
        "import_stats": _collection(database, "import_stats"),
    }
    for name, documents in on_disk.items():
        if documents != in_memory[name]:
            errors.append(f"reloaded {name} differ from the in-memory state")
    report = validate_store(reloaded)
    errors.extend(f"validate_store: {error}" for error in report.errors[:5])
    attributes = RemovalLevel.TRIMMED.hash_attributes_for(NC_VOTER_PROFILE)
    stored = _stored_gold(on_disk["clusters"], attributes)
    expected = _snapshot_gold(outcome.state["snapshots"], attributes)
    found = len(stored & expected)
    recall = found / len(expected) if expected else 1.0
    precision = found / len(stored) if stored else 1.0
    if stored != expected:
        errors.append(
            f"stored gold pairs differ from the snapshots' ({len(stored)} stored, "
            f"{len(expected)} implied, {found} shared)"
        )
    records = sum(len(cluster["records"]) for cluster in on_disk["clusters"])
    store_bytes = tree_bytes(store)
    quality = {
        "store_bytes_per_record": store_bytes / max(records, 1),
        "gold_recall": recall,
        "best_f1": _f1(precision, recall),
        "store_bytes": store_bytes,
    }
    digests = {"store": digest(on_disk)}
    failed = {"ingest": errors} if errors else {}
    return failed, digests, quality


# ---------------------------------------------------------------- evaluate


def check_evaluate(outcome: Outcome, seed: int, inputs: Path) -> Tuple[Dict[str, List[str]], dict, dict]:
    failed: Dict[str, List[str]] = {}
    points_digest = {}
    candidates_digest = {}
    gold_total = gold_found = 0
    best = []
    for run in outcome.state["runs"]:
        records, gold, keys = run["records"], run["gold"], run["keys"]
        candidates_digest[run["name"]] = _keys_digest(keys)
        gold_total += len(gold)
        gold_found += _gold_found(keys, gold, len(records))
        for measure_name, result in run["measures"].items():
            similarities = result["similarities"]
            errors = []
            if len(similarities) != len(keys):
                errors.append(f"{len(similarities)} similarities for {len(keys)} candidates")
            errors += check_similarities(records, similarities, result["matcher"], seed)
            errors += check_sweep(similarities, gold, result["points"])
            if errors:
                failed[f"{run['name']}/{measure_name}"] = errors
            points_digest[f"{run['name']}/{measure_name}"] = _points(result["points"])
            best.append(result["best"].f1)
    files = [inputs / "cuts" / f"{name}{suffix}" for name, _lo, _hi in NC_CUTS for suffix in (".csv", ".gold.csv")]
    from repro.docstore import Database

    # evaluate reads test sets, not a store: report the store they were cut
    # from, whose size per record is steadier across seeds than the cuts'.
    stored = sum(len(c["records"]) for c in Database.load(inputs / "store")["clusters"].all())
    quality = {
        "store_bytes_per_record": tree_bytes(inputs / "store") / max(stored, 1),
        "gold_recall": gold_found / gold_total if gold_total else 0.0,
        "best_f1": sum(best) / len(best) if best else 0.0,
    }
    digests = {
        "csv_gold": file_digest(files, inputs),
        "f1_points": digest(points_digest),
        "candidates": digest(candidates_digest),
    }
    return failed, digests, quality


# -------------------------------------------------------- customize_detect


def check_cut(data_path: Path) -> List[str]:
    """The CSV's cluster column and its gold file describe the same pairs."""
    members = collections.defaultdict(list)
    with data_path.open(newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        for row in rows:
            members[row[1]].append(int(row[0]))
    implied = {
        (ids[i], ids[j]) for ids in members.values() for j in range(len(ids)) for i in range(j)
    }
    with data_path.with_suffix(".gold.csv").open(newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        stored = {(int(left), int(right)) for left, right in rows}
    if stored != implied:
        return [f"{data_path.name}: {len(stored)} gold pairs, cluster column implies {len(implied)}"]
    return []


def check_lsh(records, attributes, pipeline, keys, seed: int) -> List[str]:
    """Sampled LSH candidates each share at least one band."""
    from repro.dedup import lsh_band_collisions, pick_blocking_keys
    from repro.dedup.lsh import minhash_signatures

    signatures = minhash_signatures(
        records,
        pick_blocking_keys(records, attributes, pipeline.passes),
        bands=pipeline.bands,
        rows=pipeline.rows,
        ngram=pipeline.ngram,
        seed=pipeline.lsh_seed,
    )
    ordered = sorted(keys)
    errors = []
    for key in random.Random(seed).sample(ordered, min(SAMPLE_PAIRS, len(ordered))):
        left, right = divmod(key, len(records))
        if not lsh_band_collisions(
            signatures[left], signatures[right], bands=pipeline.bands, rows=pipeline.rows
        ):
            errors.append(f"LSH candidate ({left}, {right}) shares no band")
    return errors


def check_customize_detect(
    outcome: Outcome, seed: int, inputs: Path
) -> Tuple[Dict[str, List[str]], dict, dict]:
    failed: Dict[str, List[str]] = {}
    cuts = outcome.state["cuts"]
    for name, path in cuts.items():
        errors = check_cut(path)
        if errors:
            failed[f"customize {name}"] = errors
    files = [path.with_suffix(suffix) for path in cuts.values() for suffix in (".csv", ".gold.csv")]
    digests = {"csv_gold": file_digest(files, files[0].parent) if files else "-"}
    quality = {
        "store_bytes_per_record": tree_bytes(inputs / "store") / max(outcome.items, 1),
        "gold_recall": 0.0,
        "best_f1": 0.0,
    }
    detect = outcome.state.get("detect")
    if detect is None:
        return failed, digests, quality
    result = detect["result"]
    records, gold = detect["records"], detect["gold"]
    errors = []
    if len(result.similarities) != len(result.candidate_keys):
        errors.append(
            f"{len(result.similarities)} similarities for {len(result.candidate_keys)} candidates"
        )
    errors += check_similarities(records, result.similarities, detect["matcher"], seed)
    errors += check_sweep(result.similarities, gold, result.points)
    errors += check_lsh(records, detect["attributes"], detect["pipeline"], result.candidate_keys, seed)
    if errors:
        failed["detect"] = errors
    quality["gold_recall"] = _gold_found(result.candidate_keys, gold, len(records)) / max(len(gold), 1)
    quality["best_f1"] = result.best.f1
    digests["f1_points"] = digest(_points(result.points))
    digests["candidates"] = _keys_digest(result.candidate_keys)
    return failed, digests, quality


def check(workload: str, outcome: Outcome, seed: int, inputs: Path):
    """(failed operations -> errors, output digests, quality metrics)."""
    if workload == "ingest":
        return check_ingest(outcome)
    if workload == "evaluate":
        return check_evaluate(outcome, seed, inputs)
    return check_customize_detect(outcome, seed, inputs)

