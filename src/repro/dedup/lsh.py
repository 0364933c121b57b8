"""MinHash–LSH candidate generation: sub-quadratic, typo-robust blocking.

Sorted Neighborhood and key blocking — the candidate generators the
paper's Section 6.5 evaluation uses — are effectively quadratic in dense
registers (every window/block pair is emitted) and blind to typo-heavy
near-duplicates whose corrupted sort keys land them far apart.  This
module adds the vector path from ROADMAP item 3: records are shingled
into char-n-gram sets (:mod:`repro.dedup.embeddings`), MinHashed with
``bands * rows`` seeded universal-hash permutations, and bucketed by
band — two records become a candidate pair iff at least one band of
their signatures collides, which happens with probability
``1 - (1 - j**rows)**bands`` for shingle-Jaccard ``j`` (the classic
S-curve).  Candidate volume scales with the number of *colliding*
records, not with ``n**2``.

The module speaks the packed-pair dialect of :mod:`repro.dedup.pipeline`
end to end:

* :func:`iter_lsh_keys` streams canonical ``i < j`` packed 64-bit pair
  keys out of the band buckets, for :func:`~repro.dedup.pipeline.collect_candidates`
  to union and de-duplicate exactly like an SNM or blocking pass;
* oversized buckets (frequent-value pile-ups: empty names, common
  cities) are skipped with **explicit accounting** — bucket counts, a
  bucket-size distribution and the dropped pair count land in
  :class:`BucketStats`, mirroring the no-silent-caps contract of the
  blocking passes' :class:`~repro.dedup.pipeline.PassStats`;
* signature computation is sharded over
  :func:`repro.core.parallel.run_shards` (contiguous record slices, the
  merge is by position) — a pure per-record function, so any
  ``(workers, shards)`` configuration is bit-identical and
  ``repro.sanitizers.determinism_check`` passes at (1,1)/(2,4)/(4,8);
* an optional exact TF-IDF cosine prefilter
  (:func:`repro.dedup.embeddings.cosine_prefilter`) thins the bucket
  pairs before the record matcher, with the filtered count reported —
  never silently.

Every hash is seeded and explicit (blake2b for the 64-bit shingle hash,
``(a * x + b) mod p`` universal hashing over the Mersenne prime
``2**61 - 1`` for the permutations); nothing depends on
``PYTHONHASHSEED``, process identity or iteration order of a set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.parallel import effective_worker_count, run_shards
from repro.dedup.embeddings import (
    DEFAULT_NGRAM,
    cosine_prefilter,
    shingle_record,
    tfidf_vectors,
)
from repro.dedup.pipeline import (
    CandidateStats,
    PassStats,
    _check_packable,
    collect_candidates,
)

#: One record's MinHash signature (``bands * rows`` minima), or ``None``
#: for a record with no shingles (nothing to hash — it lands in no
#: bucket, exactly like an empty blocking key blocks with nobody).
Signature = Optional[Tuple[int, ...]]

#: Mersenne prime for the universal hash family ``(a * x + b) mod p``.
_PRIME = (1 << 61) - 1

#: Default LSH geometry: 16 bands of 4 rows ≈ a 0.5 shingle-Jaccard
#: knee — pairs at j = 0.6 collide with p ≈ 0.90, pairs at j = 0.2 with
#: p ≈ 0.025 — tuned for typo-heavy voter records (see
#: ``docs/performance.md``, Layer 7, for the tuning table).
DEFAULT_BANDS = 16
DEFAULT_ROWS = 4

#: Default permutation seed (the paper's snapshot date, like the bench
#: seeds).  Signatures are a pure function of (record, seed, geometry).
DEFAULT_SEED = 20210323

#: Buckets larger than this are skipped (with accounting): a bucket of
#: ``k`` records emits ``k * (k - 1) / 2`` pairs, so one frequent-value
#: pile-up would reintroduce the quadratic blow-up LSH exists to avoid.
DEFAULT_MAX_BUCKET_SIZE = 500


@dataclasses.dataclass
class BucketStats:
    """What one LSH pass's band buckets did — including what they dropped.

    The LSH sibling of a blocking pass's skipped-block and dropped-pair
    counters in :class:`~repro.dedup.pipeline.PassStats`, with the same
    no-silent-caps contract: ``buckets_skipped`` counts the
    buckets over ``max_bucket_size``, ``pairs_dropped`` the candidate
    pairs those buckets would have emitted, and ``pairs_filtered`` the
    pairs the optional cosine prefilter refused to forward.  The size
    distribution (``bucket_sizes``: size → bucket count, across all
    bands) makes skew observable so callers can re-tune ``bands`` /
    ``rows`` / ``max_bucket_size`` instead of guessing.
    """

    buckets_total: int = 0
    buckets_skipped: int = 0
    records_bucketed: int = 0
    pairs_emitted: int = 0
    pairs_dropped: int = 0
    pairs_filtered: int = 0
    bucket_sizes: Dict[int, int] = dataclasses.field(default_factory=dict)

    def observe(self, size: int) -> None:
        """Record one bucket of ``size`` members in the distribution."""
        self.buckets_total += 1
        self.records_bucketed += size
        self.bucket_sizes[size] = self.bucket_sizes.get(size, 0) + 1

    @property
    def max_bucket(self) -> int:
        """The largest bucket seen (0 when no records bucketed)."""
        return max(self.bucket_sizes) if self.bucket_sizes else 0

    def merge(self, other: "BucketStats") -> None:
        """Accumulate another pass's counters into this one."""
        self.buckets_total += other.buckets_total
        self.buckets_skipped += other.buckets_skipped
        self.records_bucketed += other.records_bucketed
        self.pairs_emitted += other.pairs_emitted
        self.pairs_dropped += other.pairs_dropped
        self.pairs_filtered += other.pairs_filtered
        for size, count in other.bucket_sizes.items():
            self.bucket_sizes[size] = self.bucket_sizes.get(size, 0) + count

    def histogram(self) -> List[Tuple[int, int]]:
        """The bucket-size distribution as sorted ``(size, count)`` rows."""
        return sorted(self.bucket_sizes.items())

    def render(self) -> str:
        """One-line human-readable summary (CLI surfacing)."""
        line = (
            f"lsh buckets: {self.buckets_total} "
            f"(max size {self.max_bucket})"
        )
        if self.buckets_skipped:
            line += (
                f" [SKIPPED {self.buckets_skipped} oversized bucket(s), "
                f"{self.pairs_dropped} pairs dropped]"
            )
        if self.pairs_filtered:
            line += f" [{self.pairs_filtered} pairs below cosine floor]"
        return line


@dataclasses.dataclass
class LshPassStats(PassStats):
    """A :class:`~repro.dedup.pipeline.PassStats` carrying bucket detail."""

    buckets: Optional[BucketStats] = None


def permutation_params(count: int, seed: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``count`` seeded universal-hash parameter pairs ``(a, b)``.

    Drawn from a :class:`random.Random` seeded with ``seed`` (explicitly
    seeded RNG — deterministic across processes and runs): ``a`` uniform
    in ``[1, p - 1]``, ``b`` uniform in ``[0, p - 1]`` over the Mersenne
    prime ``p = 2**61 - 1``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    a_params = tuple(rng.randrange(1, _PRIME) for _ in range(count))
    b_params = tuple(rng.randrange(0, _PRIME) for _ in range(count))
    return a_params, b_params


def _shingle_hash(shingle: str) -> int:
    """A stable 64-bit hash of one shingle (blake2b, process-independent)."""
    return int.from_bytes(
        hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _signature_shard(
    records: Sequence[Dict[str, str]],
    attributes: Tuple[str, ...],
    ngram: int,
    a_params: Tuple[int, ...],
    b_params: Tuple[int, ...],
) -> List[Signature]:
    """Worker: MinHash signatures of one contiguous record slice.

    Pure — signatures depend only on the slice's records and the hash
    parameters, so :func:`repro.core.parallel.run_shards` may retry or
    degrade this worker freely and every ``(workers, shards)`` merge is
    bit-identical.  Per-shingle hash vectors are memoised in a local
    dict (voter values repeat heavily within a slice); the per-record
    signature is the elementwise minimum over its shingles' vectors.
    """
    vector_cache: Dict[str, Tuple[int, ...]] = {}
    signatures: List[Signature] = []
    params = tuple(zip(a_params, b_params))
    for record in records:
        shingles = shingle_record(record, attributes, ngram)
        if not shingles:
            signatures.append(None)
            continue
        vectors = []
        for shingle in shingles:
            vector = vector_cache.get(shingle)
            if vector is None:
                base = _shingle_hash(shingle)
                vector = tuple((a * base + b) % _PRIME for a, b in params)
                vector_cache[shingle] = vector
            vectors.append(vector)
        if len(vectors) == 1:
            signatures.append(vectors[0])
        else:
            signatures.append(tuple(map(min, *vectors)))
    return signatures


def minhash_signatures(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    ngram: int = DEFAULT_NGRAM,
    seed: int = DEFAULT_SEED,
    shards: int = 1,
    max_workers: Optional[int] = None,
) -> List[Signature]:
    """One ``bands * rows`` MinHash signature per record, optionally sharded.

    ``max_workers=0``/``None`` computes in-process.  With workers, the
    records split into ``shards`` contiguous slices that fan out over
    :func:`repro.core.parallel.run_shards` (same crash-retry and
    degradation policy as pair scoring) and merge back by position —
    the slice boundaries depend only on ``len(records)`` and ``shards``,
    and each signature only on its record, so every configuration
    returns the identical list.
    """
    if bands < 1 or rows < 1:
        raise ValueError(f"bands and rows must be >= 1, got {bands}x{rows}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    a_params, b_params = permutation_params(bands * rows, seed)
    attribute_tuple = tuple(attributes)
    max_workers = effective_worker_count(max_workers, label="minhash signatures")
    record_count = len(records)
    if not max_workers or shards == 1 or record_count < 2:
        return _signature_shard(records, attribute_tuple, ngram, a_params, b_params)
    records_list = list(records)
    bounds = [
        (shard * record_count // shards, (shard + 1) * record_count // shards)
        for shard in range(shards)
    ]
    shard_results = run_shards(
        _signature_shard,
        [
            (records_list[lo:hi], attribute_tuple, ngram, a_params, b_params)
            for lo, hi in bounds
        ],
        max_workers,
        label="minhash signatures",
    )
    signatures: List[Signature] = []
    for result in shard_results:
        signatures.extend(result)
    return signatures


def iter_lsh_keys(
    signatures: Sequence[Signature],
    record_count: int,
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    max_bucket_size: int = DEFAULT_MAX_BUCKET_SIZE,
    stats: Optional[BucketStats] = None,
) -> Iterator[int]:
    """One banded-LSH pass as a stream of packed pair keys.

    Bucket membership lists are built in record-id order (band by band,
    records in input order), so the nested emission yields canonical
    ``i < j`` keys directly — the same invariant as
    :func:`~repro.dedup.pipeline.iter_blocking_keys`.  A pair colliding
    in several bands is emitted once per band; the consuming
    ``collect_candidates`` set collapses the duplicates (and counts them
    as emitted-but-not-new).  When ``stats`` is given it is filled
    in-place, including the bucket-size distribution and the oversized
    skips — dropped pairs are never silent.
    """
    if max_bucket_size < 2:
        raise ValueError(f"max_bucket_size must be >= 2, got {max_bucket_size}")
    _check_packable(record_count)
    buckets: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for record_id, signature in enumerate(signatures):
        if signature is None:
            continue
        for band in range(bands):
            band_key = (band, signature[band * rows : (band + 1) * rows])
            buckets.setdefault(band_key, []).append(record_id)
    for members in buckets.values():
        size = len(members)
        if stats is not None:
            stats.observe(size)
        if size < 2:
            continue
        if size > max_bucket_size:
            if stats is not None:
                stats.buckets_skipped += 1
                stats.pairs_dropped += size * (size - 1) // 2
            continue
        if stats is not None:
            stats.pairs_emitted += size * (size - 1) // 2
        for position, left in enumerate(members):
            base = left * record_count
            for other_position in range(position + 1, size):
                yield base + members[other_position]


def lsh_candidates(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    ngram: int = DEFAULT_NGRAM,
    seed: int = DEFAULT_SEED,
    max_bucket_size: int = DEFAULT_MAX_BUCKET_SIZE,
    cosine_floor: float = 0.0,
    shards: int = 1,
    max_workers: Optional[int] = None,
) -> Tuple[Set[int], CandidateStats]:
    """One MinHash–LSH candidate pass as packed keys with full accounting.

    The LSH counterpart of
    :func:`~repro.dedup.pipeline.sorted_neighborhood_candidates`:
    signatures (optionally sharded over worker processes), band buckets
    streamed through :func:`~repro.dedup.pipeline.collect_candidates`,
    and — when ``cosine_floor > 0`` — an exact TF-IDF cosine prefilter
    over the deduplicated pair set.  The returned
    :class:`~repro.dedup.pipeline.CandidateStats` carries a single
    :class:`LshPassStats` pass whose :class:`BucketStats` exposes the
    bucket-size distribution, oversized skips and filtered pair count.
    Deterministic for every ``(workers, shards)`` configuration.
    """
    record_count = len(records)
    signatures = minhash_signatures(
        records,
        attributes,
        bands=bands,
        rows=rows,
        ngram=ngram,
        seed=seed,
        shards=shards,
        max_workers=max_workers,
    )
    bucket_stats = BucketStats()
    stream = iter_lsh_keys(
        signatures,
        record_count,
        bands=bands,
        rows=rows,
        max_bucket_size=max_bucket_size,
        stats=bucket_stats,
    )
    keys, stats = collect_candidates((("lsh", stream),), record_count)
    if cosine_floor > 0.0 and keys:
        vectors = tfidf_vectors(records, attributes, ngram)
        kept = set(cosine_prefilter(vectors, keys, record_count, cosine_floor))
        bucket_stats.pairs_filtered = len(keys) - len(kept)
        keys = kept
    emitted = stats.passes[0]
    stats.passes[0] = LshPassStats(
        label="lsh",
        pairs_emitted=emitted.pairs_emitted,
        pairs_new=len(keys),
        blocks_skipped=bucket_stats.buckets_skipped,
        pairs_dropped=bucket_stats.pairs_dropped,
        buckets=bucket_stats,
    )
    return keys, stats


def lsh_band_collisions(
    left: Signature, right: Signature, *, bands: int, rows: int
) -> List[int]:
    """The band indices on which two signatures collide (oracle helper).

    A pair is an LSH candidate iff this list is non-empty (and neither
    bucket was skipped).  Used by the equivalence tests to verify that
    every emitted candidate is justified by an actual band collision —
    never by an implementation accident.
    """
    if left is None or right is None:
        return []
    return [
        band
        for band in range(bands)
        if left[band * rows : (band + 1) * rows]
        == right[band * rows : (band + 1) * rows]
    ]


def estimate_jaccard(left: Signature, right: Signature) -> Optional[float]:
    """The MinHash estimate of shingle-Jaccard: fraction of equal minima."""
    if left is None or right is None or not left:
        return None
    equal = sum(1 for a, b in zip(left, right) if a == b)
    return equal / len(left)
