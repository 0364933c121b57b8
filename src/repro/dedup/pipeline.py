"""Streaming, parallel duplicate-detection pipeline (Section 6.5 at scale).

The paper's headline evaluation runs a multi-pass Sorted Neighborhood
(window 20, one pass per highly unique attribute) and scores every
candidate pair with the weighted 1:1-name record matcher.  At register
scale that is tens of millions of candidate pairs, which rules out the
naive shape — tuple sets unioned eagerly, every pair scored from the raw
record dicts — kept only as the oracle in :mod:`repro.dedup._reference`.
This module is the package's one detection path, **bit-identical** to
that oracle (enforced by ``tests/dedup/test_pipeline_equivalence.py``):

* **Packed candidate pairs.**  A pair ``(i, j)`` with ``i < j < n`` is one
  ``int``: ``i * n + j`` (:func:`pack_pair`).  Candidate passes stream
  their pairs as iterators of packed keys into a single ``set[int]`` —
  cross-pass dedup happens on integer hashes (no tuple re-hashing on
  union) and the pair set costs one machine word per pair instead of a
  tuple object plus two boxed ints (~4x less memory, measured in
  ``benchmarks/dedup_bench.py``).
* **Value-id columns.**  Scoring uses
  :meth:`repro.dedup.matching.RecordMatcher.prepare`: stripping, ``None``
  handling and weight normalisation happen once per record, and every
  distinct value gets an id in sorted string order, so each record is one
  row of value ids.
* **Batched scoring** (:meth:`~repro.dedup.matching.PreparedRecords.score`)
  scores all packed keys of one :func:`score_candidates_packed` call (or
  one worker shard) as one batch: it gathers the value-id columns of the
  keys, sends each distinct unequal value pair to the measure once
  through its ``similarities`` batch method — the bit-parallel
  ``uint64`` lane kernels of :mod:`repro.textsim.fast` for the paper's
  three measures — and assembles the record similarities column by
  column in the oracle's float order.
* **Sharded parallel scoring** (:func:`score_candidates_packed` with
  ``max_workers > 0``) fans the packed keys over worker processes through
  :func:`repro.core.parallel.run_shards` — deterministic shard-by-pair-key
  (:func:`repro.core.parallel.shard_of_int`), the same fixed crash-retry
  and in-process-degradation policy as parallel cluster scoring, and a
  merge that is order-independent because pair scores are pure functions
  of the two records.

:class:`DetectionPipeline` wires the stages together and feeds
:func:`repro.dedup.evaluate.evaluate_thresholds` directly; the CLI exposes
it as ``ncvoter-testdata detect``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.parallel import effective_worker_count, run_shards, shard_of_int
from repro.dedup.blocking import pick_blocking_keys
from repro.dedup.evaluate import (
    EvaluationPoint,
    best_f1,
    evaluate_thresholds,
)
from repro.dedup.matching import RecordMatcher

Pair = Tuple[int, int]

#: The paper's threshold sweep (Figure 5): 0.20, 0.25, …, 0.95.
DEFAULT_THRESHOLDS: Tuple[float, ...] = tuple(t / 20 for t in range(4, 20))


# ------------------------------------------------------------- packed pairs


class PairKeyOverflowError(ValueError):
    """Packing pairs for this record count would overflow 64-bit keys.

    ``pack_pair`` encodes ``(i, j)`` as ``i * n + j``; for
    ``n > MAX_PACKABLE_RECORDS`` (≈3.04 billion, i.e. ``n`` approaching
    ``2**32``) the largest key no longer fits in a signed 64-bit word,
    so two distinct pairs could silently alias once keys cross a
    fixed-width boundary (an ``array``/mmap spill, a numpy view, a wire
    format).  Every packing entry point raises this typed error instead
    of producing keys that are only *sometimes* safe.
    """

    def __init__(self, record_count: int) -> None:
        self.record_count = record_count
        super().__init__(
            f"record_count {record_count} exceeds MAX_PACKABLE_RECORDS "
            f"({MAX_PACKABLE_RECORDS}): packed pair keys (i * n + j) would "
            "overflow 64-bit integers and could alias; shard the register "
            "before candidate generation"
        )


#: The largest record count whose packed pair keys all fit in a signed
#: 64-bit integer: ``floor(sqrt(2**63 - 1))``, since the largest key is
#: ``(n - 2) * n + (n - 1) < n**2``.
MAX_PACKABLE_RECORDS = 3_037_000_499


def _check_packable(record_count: int) -> None:
    """Raise :class:`PairKeyOverflowError` if keys for ``record_count``
    records cannot be represented in 64 bits."""
    if record_count > MAX_PACKABLE_RECORDS:
        raise PairKeyOverflowError(record_count)


def pack_pair(left: int, right: int, record_count: int) -> int:
    """Pack the pair ``(left, right)`` with ``left < right`` into one int.

    The packing is ``left * record_count + right`` — unique for
    ``0 <= left < right < record_count`` and reversible via
    :func:`unpack_pair`.  At the paper's scale (millions of records) the
    packed key still fits comfortably in 64 bits; record counts beyond
    :data:`MAX_PACKABLE_RECORDS` (``n**2 >= 2**63``, ``n`` near
    ``2**32``) raise :class:`PairKeyOverflowError` instead of silently
    aliasing.  CPython small-int hashing makes set membership and union
    much cheaper than tuple hashing.
    """
    _check_packable(record_count)
    if not 0 <= left < right < record_count:
        raise ValueError(
            f"pair ({left}, {right}) is not ordered inside range({record_count})"
        )
    return left * record_count + right


def unpack_pair(key: int, record_count: int) -> Pair:
    """Invert :func:`pack_pair`.

    Validates the same bounds: a ``record_count`` beyond
    :data:`MAX_PACKABLE_RECORDS` raises :class:`PairKeyOverflowError`,
    and a ``key`` outside ``[0, record_count**2)`` raises
    :class:`ValueError` — such a key cannot have come from
    :func:`pack_pair` with this ``record_count``, so decoding it would
    fabricate a pair that aliases someone else's.
    """
    _check_packable(record_count)
    if not 0 <= key < record_count * record_count:
        raise ValueError(
            f"key {key} is outside [0, {record_count}**2) and cannot be a "
            f"packed pair for {record_count} records"
        )
    return divmod(key, record_count)


def pack_pairs(pairs: Iterable[Pair], record_count: int) -> Set[int]:
    """Pack an iterable of ``(i, j)`` pairs into a packed-key set."""
    return {pack_pair(left, right, record_count) for left, right in pairs}


def unpack_pairs(keys: Iterable[int], record_count: int) -> Set[Pair]:
    """Unpack a packed-key set back into ``(i, j)`` tuples.

    Every key is validated like :func:`unpack_pair` does.
    """
    return {unpack_pair(key, record_count) for key in keys}


# -------------------------------------------------- streaming candidate gen


def iter_sorted_neighborhood_keys(
    records: Sequence[Dict[str, str]], key_attribute: str, window: int
) -> Iterator[int]:
    """One Sorted Neighborhood pass as a stream of packed pair keys.

    Records are sorted by their stripped ``key_attribute`` value and every
    pair within a sliding window of ``window`` records is yielded lazily
    as a canonical ``i < j`` packed int — nothing per-pass is
    materialized.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    record_count = len(records)
    _check_packable(record_count)
    order = sorted(
        range(record_count),
        key=lambda index: (records[index].get(key_attribute) or "").strip(),
    )
    for position, record_id in enumerate(order):
        stop = min(position + window, record_count)
        for other_position in range(position + 1, stop):
            other_id = order[other_position]
            if record_id < other_id:
                yield record_id * record_count + other_id
            else:
                yield other_id * record_count + record_id


@dataclasses.dataclass
class PassStats:
    """One candidate pass: what it emitted and what was new."""

    label: str
    pairs_emitted: int = 0
    pairs_new: int = 0
    pairs_dropped: int = 0


@dataclasses.dataclass
class CandidateStats:
    """Streaming candidate generation, pass by pass.

    ``pairs_dropped`` > 0 means an LSH pass skipped buckets over its
    ``max_bucket_size`` — candidates that were *not* generated.  Surfaced
    (never silent) by the CLI and the benchmark.
    """

    record_count: int
    passes: List[PassStats] = dataclasses.field(default_factory=list)

    @property
    def pairs_emitted(self) -> int:
        return sum(p.pairs_emitted for p in self.passes)

    @property
    def unique_pairs(self) -> int:
        return sum(p.pairs_new for p in self.passes)

    @property
    def pairs_dropped(self) -> int:
        return sum(p.pairs_dropped for p in self.passes)

    def render(self) -> str:
        """Human-readable per-pass summary (CLI surfacing)."""
        lines = []
        for stats in self.passes:
            lines.append(
                f"pass {stats.label}: {stats.pairs_emitted} pairs, "
                f"{stats.pairs_new} new"
            )
            # LSH passes carry bucket-level accounting (size distribution,
            # oversized skips) — surface it here so no cap is ever silent
            # on the CLI.
            buckets = getattr(stats, "buckets", None)
            if buckets is not None:
                lines.append(f"  {buckets.render()}")
        lines.append(
            f"total: {self.unique_pairs} unique of {self.pairs_emitted} "
            f"emitted ({self.record_count} records)"
        )
        return "\n".join(lines)


def collect_candidates(
    passes: Iterable[Tuple[str, Iterator[int]]],
    record_count: int,
) -> Tuple[Set[int], CandidateStats]:
    """Union labelled streams of packed keys with cross-pass dedup.

    Every pass streams into the same ``set[int]``; per-pass emitted/new
    counts are tracked on the fly, so no pass is ever materialized on its
    own (the eager tuple-set union kept every pass's set alive at once).
    """
    _check_packable(record_count)
    keys: Set[int] = set()
    stats = CandidateStats(record_count=record_count)
    for label, stream in passes:
        pass_stats = PassStats(label=label)
        before = len(keys)
        for key in stream:
            keys.add(key)
            pass_stats.pairs_emitted += 1
        pass_stats.pairs_new = len(keys) - before
        stats.passes.append(pass_stats)
    return keys, stats


def sorted_neighborhood_candidates(
    records: Sequence[Dict[str, str]],
    key_attributes: Iterable[str],
    window: int = 20,
) -> Tuple[Set[int], CandidateStats]:
    """Multi-pass SNM candidates as packed keys, one streamed pass per key.

    Equals ``pack_pairs(multipass_pairs_reference(records, keys, w))`` (the
    oracle in :mod:`repro.dedup._reference`) — asserted by the
    equivalence suite — without ever materializing a per-pass tuple set.
    """
    return collect_candidates(
        (
            (attribute, iter_sorted_neighborhood_keys(records, attribute, window))
            for attribute in key_attributes
        ),
        len(records),
    )


# ------------------------------------------------------------ pair scoring


def _score_pairs_shard(
    records: Sequence[Dict[str, str]],
    measure: object,
    weights: Dict[str, float],
    name_attributes: Tuple[str, ...],
    keys: Sequence[int],
) -> Dict[Pair, float]:
    """Worker: rebuild the matcher, prepare once, score this shard's keys.

    Only plain data (records, weights, the picklable measure, packed keys)
    crosses the process boundary; the shard's keys are one batch of its
    prepared table and nothing outlives the call.  Pure — safe to retry
    (see :func:`repro.core.parallel.run_shards`).
    """
    matcher = RecordMatcher(measure, weights, name_attributes)  # type: ignore[arg-type]
    return matcher.prepare(records).score(keys)


def score_candidates_packed(
    records: Sequence[Dict[str, str]],
    keys: Iterable[int],
    matcher: RecordMatcher,
    *,
    shards: int = 1,
    max_workers: Optional[int] = None,
) -> Dict[Pair, float]:
    """Similarity of every packed candidate key, optionally sharded.

    ``max_workers=0``/``None`` scores in-process as one batch of one
    prepared table, so each distinct value pair reaches the measure once
    per call; a second call with the same keys scores them afresh.  With
    workers, keys shard deterministically by
    ``shard_of_int(key, shards)`` and fan out over
    :func:`repro.core.parallel.run_shards` — worker crashes retry with
    exponential backoff and ultimately degrade to in-process scoring,
    exactly like parallel cluster scoring.  Because every score
    is a pure function of the two records, any shard and worker count
    (including zero) produces an identical result map; parallel workers
    additionally require ``matcher.measure`` to be picklable.

    Worker counts beyond the machine's CPU count are clamped (with a
    once-per-process :class:`repro.core.parallel.WorkerClampWarning`)
    before deciding between the in-process and sharded paths.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    max_workers = effective_worker_count(max_workers, label="parallel pair scoring")
    ordered = sorted(keys)
    if not max_workers or shards == 1:
        # A single shard gains nothing from a process round-trip.
        return matcher.prepare(records).score(ordered)
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for key in ordered:
        buckets[shard_of_int(key, shards)].append(key)
    records_list = list(records)
    shard_results = run_shards(
        _score_pairs_shard,
        [
            (
                records_list,
                matcher.measure,
                matcher.weights,
                matcher.name_attributes,
                bucket,
            )
            for bucket in buckets
        ],
        max_workers,
        label="parallel pair scoring",
    )
    similarities: Dict[Pair, float] = {}
    for result in shard_results:
        similarities.update(result)
    return similarities


# ------------------------------------------------------------ the pipeline


@dataclasses.dataclass
class DetectionResult:
    """Everything one end-to-end detection run produced."""

    record_count: int
    candidate_keys: Set[int]
    candidate_stats: CandidateStats
    similarities: Dict[Pair, float]
    points: List[EvaluationPoint]
    gold_size: int = 0
    gold_missed: int = 0

    @property
    def best(self) -> EvaluationPoint:
        """The evaluation point with the highest F1."""
        return best_f1(self.points)


#: Candidate pass types :class:`DetectionPipeline` knows how to run.
CANDIDATE_PASS_TYPES = ("snm", "lsh")


class DetectionPipeline:
    """Candidate generation → batched pair scoring → threshold sweep.

    The end-to-end form of the paper's Section 6.5 evaluation, built from
    the streaming pieces of this module.  ``workers=0`` (the default) runs
    everything in-process; any worker count produces bit-identical
    similarities, evaluation points and best-F1 thresholds.

    Parameters mirror the paper's setup: ``passes`` most unique attributes
    (entropy-ranked) as SNM sort keys with window ``window``.  Pass
    ``key_attributes`` to pin the sort keys explicitly instead.

    ``candidate_passes`` selects the generator family: ``("snm",)`` (the
    default) runs the paper's multi-pass Sorted Neighborhood, ``("lsh",)``
    the sub-quadratic MinHash–LSH pass of :mod:`repro.dedup.lsh` over the
    same entropy-picked attributes, and ``("snm", "lsh")`` unions both
    through one deduplicating packed-key set.  The LSH geometry is tuned
    with ``bands`` / ``rows`` / ``ngram`` / ``max_bucket_size`` (see
    ``docs/performance.md``, Layer 7).  ``workers``
    and ``shards`` apply to pair scoring; candidate generation runs
    in-process.
    """

    def __init__(
        self,
        *,
        window: int = 20,
        passes: int = 5,
        key_attributes: Optional[Sequence[str]] = None,
        thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
        workers: int = 0,
        shards: Optional[int] = None,
        candidate_passes: Sequence[str] = ("snm",),
        bands: int = 16,
        rows: int = 4,
        ngram: int = 3,
        lsh_seed: int = 20210323,
        max_bucket_size: int = 500,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.candidate_passes = tuple(candidate_passes)
        if not self.candidate_passes:
            raise ValueError("candidate_passes must name at least one pass")
        unknown = [
            p for p in self.candidate_passes if p not in CANDIDATE_PASS_TYPES
        ]
        if unknown:
            raise ValueError(
                f"unknown candidate pass(es) {unknown}; "
                f"supported: {CANDIDATE_PASS_TYPES}"
            )
        self.window = window
        self.passes = passes
        self.key_attributes = tuple(key_attributes) if key_attributes else None
        self.thresholds = tuple(thresholds)
        self.workers = workers
        self.shards = shards if shards is not None else max(workers, 1)
        self.bands = bands
        self.rows = rows
        self.ngram = ngram
        self.lsh_seed = lsh_seed
        self.max_bucket_size = max_bucket_size

    def candidates(
        self,
        records: Sequence[Dict[str, str]],
        attributes: Sequence[str],
    ) -> Tuple[Set[int], CandidateStats]:
        """Streamed candidates as packed keys, one pass set per type.

        SNM passes stream lazily; an LSH pass is generated through
        :func:`repro.dedup.lsh.lsh_candidates` (with its bucket accounting)
        and its deduplicated keys join the same union, so cross-family
        overlaps are counted like cross-pass overlaps.
        """
        keys = self.key_attributes or pick_blocking_keys(
            records, attributes, self.passes
        )
        streams: List[Tuple[str, Iterator[int]]] = []
        lsh_stats: Optional[CandidateStats] = None
        for pass_type in self.candidate_passes:
            if pass_type == "snm":
                streams.extend(
                    (
                        attribute,
                        iter_sorted_neighborhood_keys(
                            records, attribute, self.window
                        ),
                    )
                    for attribute in keys
                )
            else:
                # Imported here: repro.dedup.lsh imports this module's
                # streaming primitives, so the dependency must stay
                # one-directional at import time.
                from repro.dedup.lsh import lsh_candidates

                lsh_keys, lsh_stats = lsh_candidates(
                    records,
                    keys,
                    bands=self.bands,
                    rows=self.rows,
                    ngram=self.ngram,
                    seed=self.lsh_seed,
                    max_bucket_size=self.max_bucket_size,
                )
                streams.append(("lsh", iter(sorted(lsh_keys))))
        candidate_keys, stats = collect_candidates(streams, len(records))
        if lsh_stats is not None:
            # Graft the LSH pass's own accounting onto the union's
            # per-pass stats: pairs_new is what collect_candidates
            # measured against the cross-family union; everything else
            # (every band's emitted pairs, bucket histogram, skips) comes
            # from the pass itself, since the stream above carries only
            # its deduplicated keys.
            for position, pass_stats in enumerate(stats.passes):
                if pass_stats.label == "lsh":
                    stats.passes[position] = dataclasses.replace(
                        lsh_stats.passes[0], pairs_new=pass_stats.pairs_new
                    )
        return candidate_keys, stats

    def score(
        self,
        records: Sequence[Dict[str, str]],
        candidate_keys: Set[int],
        matcher: RecordMatcher,
    ) -> Dict[Pair, float]:
        """Score packed candidates (sharded over workers when configured)."""
        return score_candidates_packed(
            records,
            candidate_keys,
            matcher,
            shards=self.shards,
            max_workers=self.workers,
        )

    def detect(
        self,
        records: Sequence[Dict[str, str]],
        attributes: Sequence[str],
        matcher: RecordMatcher,
        gold: Optional[Set[Pair]] = None,
        thresholds: Optional[Sequence[float]] = None,
    ) -> DetectionResult:
        """Run the full pipeline and sweep the thresholds against ``gold``.

        Gold pairs may be given in either order: each is canonicalised to
        ``(min, max)`` first.  A self-pair or an id outside
        ``range(len(records))`` raises :class:`ValueError` (the checks of
        :func:`pack_pair`) before any candidate is generated.
        """
        record_count = len(records)
        gold_keys = {
            pack_pair(min(left, right), max(left, right), record_count)
            for left, right in (gold or ())
        }
        gold_pairs = {divmod(key, record_count) for key in gold_keys}
        candidate_keys, stats = self.candidates(records, attributes)
        similarities = self.score(records, candidate_keys, matcher)
        sweep = tuple(thresholds) if thresholds is not None else self.thresholds
        points = evaluate_thresholds(similarities, gold_pairs, sweep)
        return DetectionResult(
            record_count=record_count,
            candidate_keys=candidate_keys,
            candidate_stats=stats,
            similarities=similarities,
            points=points,
            gold_size=len(gold_pairs),
            gold_missed=len(gold_keys - candidate_keys),
        )
