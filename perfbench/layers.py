"""Per-layer metrics of one traced repetition.

Times are span self times from :mod:`tracing`; counts are read at the
same boundaries, from the counting file system and ``gc.callbacks``, or
recomputed afterwards from the workload's results (pair and value-pair
counts), outside the traced wall time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import tracing
from workloads import Outcome

#: per-layer metric -> span name whose summed self time it reports.
SELF_TIMES = {
    "core.generator.import_s": "core.generator.import",
    "core.versioning.statistics_s": "core.versioning.statistics",
    "core.heterogeneity.weights_s": "core.heterogeneity.weights",
    "docstore.publish_s": "docstore.publish",
    "docstore.commit_s": "docstore.commit",
    "docstore.checkpoint_s": "docstore.checkpoint",
    "docstore.load_s": "docstore.load",
    "core.customize.cut_s": "core.customize.cut",
    "datasets.io.csv_s": "datasets.io.csv",
    "dedup.snm.candidates_s": "dedup.snm.candidates",
    "dedup.lsh.candidates_s": "dedup.lsh.candidates",
    "dedup.score_s.monge_elkan": "dedup.score.monge_elkan",
    "dedup.score_s.jaro_winkler": "dedup.score.jaro_winkler",
    "dedup.score_s.qgram_jaccard": "dedup.score.qgram_jaccard",
    "dedup.matcher_s": "dedup.matcher",
    "dedup.sweep_s": "dedup.sweep",
    "runtime.gc_s": tracing.GC_SPAN,
    "trace.unattributed_s": tracing.ROOT,
}

#: Wrapper label (span name or counter, as in ``tracing``) -> the metrics
#: that are dropped when its target no longer exists.
DEPENDS = {
    "core.generator.import": ("core.generator.",),
    "core.customize.cut": ("core.customize.cut_s", "core.customize.kept_ratio"),
    "@candidates": ("dedup.snm.", "dedup.lsh."),
    "@score": ("dedup.score_s.", "dedup.pairs_scored", "dedup.value_"),
}


def _span_count(spans: List[dict], prefix: str, key: str) -> float:
    return sum(span["counts"].get(key, 0) for span in spans if span["name"].startswith(prefix))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def value_pairs(records: Sequence[dict], keys, matcher) -> tuple:
    """(value lookups, distinct unequal value pairs) of scoring ``keys``.

    A record pair compares every name value with every name value (the
    1:1 name matching) plus each other non-zero-weight attribute once.
    """
    names = matcher.name_attributes
    others = [a for a, weight in matcher.weights.items() if a not in names and weight != 0.0]
    name_values = [tuple((r.get(a) or "").strip() for a in names) for r in records]
    other_values = [tuple((r.get(a) or "").strip() for a in others) for r in records]
    count = len(records)
    distinct = set()
    for key in keys:
        left, right = divmod(key, count)
        for a in name_values[left]:
            for b in name_values[right]:
                if a != b:
                    distinct.add((a, b) if a < b else (b, a))
        for a, b in zip(other_values[left], other_values[right]):
            if a != b:
                distinct.add((a, b) if a < b else (b, a))
    return len(keys) * (len(names) ** 2 + len(others)), len(distinct)


def _versioning_pairs(generator) -> int:
    """Version-similarity entries the run added (maps only ever grow)."""
    total = 0
    for cluster in generator.clusters():
        for record in cluster["records"]:
            for kind in ("plausibility", "heterogeneity", "heterogeneity_person"):
                for row in (record.get(kind) or {}).values():
                    total += len(row)
    return total


def _gold_recall(pairs: List[tuple]) -> float:
    """Pooled share of gold pairs inside the candidate keys."""
    found = total = 0
    for records, keys, gold in pairs:
        count = len(records)
        total += len(gold)
        found += sum(1 for left, right in gold if left * count + right in keys)
    return _ratio(found, total)


def layer_metrics(tracer: tracing.Tracer, outcome: Outcome, store_bytes: int) -> Dict[str, float]:
    """Every per-layer metric the traced repetition can give."""
    spans = tracer.span_list()
    table = tracing.layer_table(spans)
    metrics: Dict[str, float] = {
        metric: table.get(span, {}).get("self_s", 0.0) for metric, span in SELF_TIMES.items()
    }
    counts = tracer.counts
    rows = _span_count(spans, "core.generator.import", "rows")
    metrics["core.generator.rows"] = rows
    metrics["core.generator.skip_ratio"] = _ratio(
        _span_count(spans, "core.generator.import", "skipped"), rows
    )
    generator = outcome.state.get("generator")
    metrics["core.versioning.pairs_scored"] = _versioning_pairs(generator) if generator else 0
    for counter in ("docstore.docs_written", "docstore.fsyncs", "docstore.bytes_written",
                    "docstore.bytes_read", "core.customize.heterogeneity_checks",
                    "runtime.gc_full"):
        metrics[counter] = counts.get(counter, 0)
    metrics["docstore.write_amp"] = _ratio(counts.get("docstore.bytes_written", 0), store_bytes)
    metrics["core.customize.kept_ratio"] = _ratio(
        _span_count(spans, "core.customize.cut", "kept"),
        _span_count(spans, "core.customize.cut", "scanned"),
    )
    metrics["dedup.snm.pairs_emitted"] = _span_count(spans, "dedup.snm.", "pairs_emitted")
    metrics["dedup.snm.pairs_unique"] = _span_count(spans, "dedup.snm.", "pairs_unique")
    metrics["dedup.lsh.pairs_unique"] = _span_count(spans, "dedup.lsh.", "pairs_unique")
    metrics["dedup.lsh.pairs_dropped"] = _span_count(spans, "dedup.lsh.", "pairs_dropped")
    metrics["dedup.lsh.buckets"] = _span_count(spans, "dedup.lsh.", "buckets")
    metrics["dedup.lsh.max_bucket"] = max(
        (span["counts"].get("max_bucket", 0) for span in spans
         if span["name"].startswith("dedup.lsh.")),
        default=0,
    )
    metrics["dedup.pairs_scored"] = _span_count(spans, "dedup.score.", "pairs_scored")

    snm, lsh, scored = [], [], []
    for run in outcome.state.get("runs", []):
        snm.append((run["records"], run["keys"], run["gold"]))
        for result in run["measures"].values():
            scored.append((run["records"], run["keys"], result["matcher"]))
    detect = outcome.state.get("detect")
    if detect is not None:
        keys = detect["result"].candidate_keys
        lsh.append((detect["records"], keys, detect["gold"]))
        scored.append((detect["records"], keys, detect["matcher"]))
    metrics["dedup.snm.gold_recall"] = _gold_recall(snm)
    metrics["dedup.lsh.gold_recall"] = _gold_recall(lsh)
    lookups = distinct = 0
    memo: Dict[int, tuple] = {}
    for records, keys, matcher in scored:
        # Every measure of one test set compares the same value pairs;
        # the matcher cache keys them per matcher, so each measure counts.
        if id(keys) not in memo:
            memo[id(keys)] = value_pairs(records, keys, matcher)
        lookups += memo[id(keys)][0]
        distinct += memo[id(keys)][1]
    metrics["dedup.value_lookups"] = lookups
    metrics["dedup.value_pairs_distinct"] = distinct
    metrics["dedup.value_pair_reuse"] = _ratio(lookups, distinct)

    for label in tracer.missing:
        prefixes = DEPENDS.get(label, (label,))
        for metric in list(metrics):
            span = SELF_TIMES.get(metric, "")
            if metric.startswith(prefixes) or span == label:
                del metrics[metric]
    return metrics
