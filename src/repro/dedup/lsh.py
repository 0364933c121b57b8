"""MinHash–LSH candidate generation: one signature matrix, one sort per band.

Sorted Neighborhood — the candidate generator the paper's Section 6.5
evaluation uses — emits every window pair of every pass and is blind to
typo-heavy near-duplicates whose corrupted sort keys land them far
apart.  This module is the similarity-driven alternative: records are
shingled into char-n-gram sets (grams never span attribute boundaries),
MinHashed with ``bands * rows`` seeded universal-hash permutations, and
bucketed by band — two records become a candidate pair iff at least one
band of their signatures collides, which happens with probability
``1 - (1 - j**rows)**bands`` for shingle-Jaccard ``j`` (the classic
S-curve).  Candidate volume scales with the number of *colliding*
records, not with ``n**2``.

The work scales with distinct values, not with record × shingle
occurrences.  A record's shingle set is the union of its values' gram
sets, and the minimum over a union is the minimum of the minima, so its
MinHash is the elementwise minimum of its values' MinHashes:

1. the distinct stripped values of the shingled attributes are numbered
   (a value shared by two attributes, or by many records, is one row);
2. each distinct gram is hashed once (blake2b) and permuted by every
   ``(a * h + b) mod (2**61 - 1)`` at once, exactly, in ``uint64``;
3. each value's row is the minimum of its grams' rows, and
4. each record's row the minimum of its values' rows.

The result is one ``uint64`` signature matrix of shape
``n × bands·rows`` — 8 bytes per minimum — whose rows are bit-identical
to per-record MinHash over the shingle set.  A value shorter than
``ngram`` is one gram; a record with no non-empty value has no signature
(:data:`Signature` ``None``): its row holds a sentinel above every real
minimum and it lands in no bucket.

Bucketing sorts each band once.  A stable ``lexsort`` of the band's
``rows`` columns puts equal band keys next to each other in record-id
order, so every run of equal keys is one bucket and its nested pairs are
canonical ``i < j`` packed keys (:mod:`repro.dedup.pipeline`) directly.
Pair emission, the cross-band union and every :class:`BucketStats`
counter come from the run lengths.  Oversized buckets (frequent-value
pile-ups: empty names, common cities) are skipped with **explicit
accounting** — bucket counts, a bucket-size distribution and the dropped
pair count land in :class:`BucketStats`, and the CLI prints them, so no
cap is silent.

Every hash is seeded and explicit (blake2b for the 64-bit shingle hash,
``(a * x + b) mod p`` universal hashing over the Mersenne prime
``2**61 - 1`` for the permutations); nothing depends on
``PYTHONHASHSEED``, process identity or iteration order of a set.
numpy is imported inside the functions that use it, so importing this
module never loads it.  The per-shingle tuple and dict-bucket algorithm
this replaces is the oracle in :mod:`repro.dedup._reference`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dedup.pipeline import CandidateStats, PassStats, _check_packable
from repro.textsim.fast import sorted_unique
from repro.textsim.tokens import qgrams

#: One record's MinHash signature (``bands * rows`` minima), or ``None``
#: for a record with no shingles (nothing to hash — it lands in no
#: bucket).
Signature = Optional[Tuple[int, ...]]

#: Mersenne prime for the universal hash family ``(a * x + b) mod p``.
_PRIME = (1 << 61) - 1

#: The signature-matrix row of a record with no shingles: above every
#: real minimum (all are below :data:`_PRIME`).
_UNSIGNED = (1 << 64) - 1

#: Rows per step of the permutation and minimum passes, bounding each
#: transient array to ``_GATHER_ROWS * bands * rows * 8`` bytes.
_GATHER_ROWS = 2048

#: Default shingle width; 3-grams survive single-character typos while
#: still discriminating between unrelated values (van Gennip et al. use
#: character n-grams for exactly this noisy/incomplete-field regime).
DEFAULT_NGRAM = 3

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

    No cap is silent: ``buckets_skipped`` counts the buckets over
    ``max_bucket_size`` and ``pairs_dropped`` the candidate pairs those
    buckets would have emitted.  The size distribution (``bucket_sizes``:
    size → bucket count, across all bands) makes skew observable so
    callers can re-tune ``bands`` / ``rows`` / ``max_bucket_size``
    instead of guessing.
    """

    buckets_total: int = 0
    buckets_skipped: int = 0
    records_bucketed: int = 0
    pairs_emitted: int = 0
    pairs_dropped: int = 0
    bucket_sizes: Dict[int, int] = dataclasses.field(default_factory=dict)

    @property
    def max_bucket(self) -> int:
        """The largest bucket seen (0 when no records bucketed)."""
        return max(self.bucket_sizes) if self.bucket_sizes else 0

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


def _permuted_hashes(
    np: Any, grams: Sequence[str], a_params: Tuple[int, ...], b_params: Tuple[int, ...]
) -> Any:
    """``(a * h + b) mod p`` for each gram's blake2b hash ``h`` (one row
    per gram) under each permutation (one column per ``(a, b)``).

    Exact in ``uint64``: ``h`` is folded below ``p`` first (``a * h`` and
    ``a * (h mod p)`` agree mod ``p``), the 122-bit product is split into
    32-bit halves, and each partial product is folded with
    ``2**61 ≡ 1 (mod p)``, so ``2**64 ≡ 8``.
    """
    u = np.uint64
    prime = u(_PRIME)
    digests = b"".join(
        hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest() for gram in grams
    )
    hashes = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    folded = (hashes & prime) + (hashes >> u(61))
    folded = np.where(folded >= prime, folded - prime, folded)
    a = np.array(a_params, dtype=np.uint64)
    b = np.array(b_params, dtype=np.uint64)
    table = np.empty((len(hashes), len(a)), dtype=np.uint64)
    low_half = u(0xFFFFFFFF)
    a_high, a_low = a >> u(32), a & low_half
    for start in range(0, len(hashes), _GATHER_ROWS):
        x = folded[start : start + _GATHER_ROWS, None]
        x_high, x_low = x >> u(32), x & low_half
        middle = a_high * x_low + a_low * x_high  # < 2**62
        low = a_low * x_low  # < 2**64
        total = (a_high * x_high) << u(3)  # the 2**64 term, < 2**61
        total += (middle >> u(29)) + ((middle & u((1 << 29) - 1)) << u(32))
        total += (low & prime) + (low >> u(61))
        total += b  # < 2**63 + 2**34 in all
        total = (total & prime) + (total >> u(61))
        table[start : start + _GATHER_ROWS] = np.where(total >= prime, total - prime, total)
    return table


def _segment_minima(np: Any, table: Any, members: Any, counts: Any) -> Any:
    """Row ``s`` is the elementwise minimum of ``table[members[...]]`` over
    the ``s``-th run of ``counts[s]`` consecutive members (every count is
    at least 1)."""
    out = np.empty((len(counts), table.shape[1]), dtype=np.uint64)
    ends = np.cumsum(counts)
    starts = ends - counts
    lo = 0
    while lo < len(counts):
        first = int(starts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, first + _GATHER_ROWS, side="right")))
        np.minimum.reduceat(
            table[members[first : int(ends[hi - 1])]],
            starts[lo:hi] - first,
            axis=0,
            out=out[lo:hi],
        )
        lo = hi
    return out


def signature_matrix(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    ngram: int = DEFAULT_NGRAM,
    seed: int = DEFAULT_SEED,
) -> Any:
    """The ``len(records) × bands·rows`` ``uint64`` MinHash matrix.

    Row ``i`` is record ``i``'s signature, or all ``2**64 - 1`` for a
    record with no shingles.  Values and grams are numbered once; each
    distinct gram is hashed once, each distinct value's row is the
    minimum over its grams and each record's row the minimum over its
    attributes' values.  The blank value has no gram: its row stays at
    the sentinel, which every minimum passes over.
    """
    if bands < 1 or rows < 1:
        raise ValueError(f"bands and rows must be >= 1, got {bands}x{rows}")
    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    import numpy as np

    a_params, b_params = permutation_params(bands * rows, seed)
    columns = [
        [(record.get(attribute) or "").strip() for record in records]
        for attribute in attributes
    ]
    values = list(dict.fromkeys(itertools.chain.from_iterable(columns)))
    value_index = {value: position for position, value in enumerate(values)}
    value_grams = [qgrams(value, ngram, pad=False) for value in values]
    gram_counts = np.fromiter(map(len, value_grams), dtype=np.intp, count=len(values))
    flat_grams = list(itertools.chain.from_iterable(value_grams))
    grams = list(dict.fromkeys(flat_grams))
    gram_index = {gram: position for position, gram in enumerate(grams)}
    table = _permuted_hashes(np, grams, a_params, b_params)
    value_rows = np.full((len(values), len(a_params)), _UNSIGNED, dtype=np.uint64)
    gram_members = np.fromiter(
        map(gram_index.__getitem__, flat_grams), dtype=np.intp, count=len(flat_grams)
    )
    shingled = gram_counts > 0
    value_rows[shingled] = _segment_minima(np, table, gram_members, gram_counts[shingled])
    del table
    matrix = np.full((len(records), len(a_params)), _UNSIGNED, dtype=np.uint64)
    for column in columns:
        ids = np.fromiter(map(value_index.__getitem__, column), dtype=np.intp, count=len(column))
        np.minimum(matrix, value_rows[ids], out=matrix)
    return matrix


def minhash_signatures(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    ngram: int = DEFAULT_NGRAM,
    seed: int = DEFAULT_SEED,
) -> List[Signature]:
    """One ``bands * rows`` MinHash signature per record.

    The rows of :func:`signature_matrix` as tuples of ints, ``None`` for
    a record with no shingles.
    """
    matrix = signature_matrix(
        records, attributes, bands=bands, rows=rows, ngram=ngram, seed=seed
    )
    return [tuple(row) if row[0] != _UNSIGNED else None for row in matrix.tolist()]


def _band_keys(
    np: Any,
    matrix: Any,
    record_count: int,
    bands: int,
    rows: int,
    max_bucket_size: int,
    stats: BucketStats,
) -> List[Any]:
    """Per band, the ``int64`` packed keys of its buckets' pairs.

    One stable ``lexsort`` of the band's columns over the signed rows (in
    record-id order) makes each run of equal keys a bucket whose members
    ascend, so a member's pairs with the members after it are canonical
    ``i < j`` keys.  Runs of 2 to ``max_bucket_size`` members emit their
    pairs; longer runs are counted in ``stats`` as skipped and dropped.
    """
    if max_bucket_size < 2:
        raise ValueError(f"max_bucket_size must be >= 2, got {max_bucket_size}")
    _check_packable(record_count)
    ids = np.flatnonzero(matrix[:, 0] != np.uint64(_UNSIGNED))
    count = len(ids)
    if not count:
        return []
    signed = matrix[ids]
    keys: List[Any] = []
    for band in range(bands):
        columns = signed[:, band * rows : (band + 1) * rows]
        order = np.lexsort(columns.T)
        ordered = columns[order]
        fresh = np.ones(count, dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=fresh[1:])
        starts = np.flatnonzero(fresh)
        sizes = np.diff(starts, append=count)
        pairs = sizes * (sizes - 1) // 2
        kept = (sizes >= 2) & (sizes <= max_bucket_size)
        skipped = sizes > max_bucket_size
        stats.buckets_total += len(sizes)
        stats.records_bucketed += count
        stats.buckets_skipped += int(skipped.sum())
        stats.pairs_dropped += int(pairs[skipped].sum())
        stats.pairs_emitted += int(pairs[kept].sum())
        distinct, repeats = np.unique(sizes, return_counts=True)
        for size, buckets in zip(distinct.tolist(), repeats.tolist()):
            stats.bucket_sizes[size] = stats.bucket_sizes.get(size, 0) + buckets
        keys.append(_run_pairs(np, ids[order], starts[kept], sizes[kept], record_count))
    return keys


def _run_pairs(np: Any, members: Any, starts: Any, sizes: Any, record_count: int) -> Any:
    """The packed keys of every pair inside each run ``members[start :
    start + size]``, run by run, each member with every later one."""
    # The member at offset ``o`` of a run pairs with the ``size - 1 - o``
    # members after it.
    offsets = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    positions = np.repeat(starts, sizes) + offsets
    partners = np.repeat(sizes, sizes) - 1 - offsets
    left = np.repeat(positions, partners)
    right = left + 1 + (
        np.arange(int(partners.sum())) - np.repeat(np.cumsum(partners) - partners, partners)
    )
    return members[left] * record_count + members[right]


def lsh_candidates(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
    ngram: int = DEFAULT_NGRAM,
    seed: int = DEFAULT_SEED,
    max_bucket_size: int = DEFAULT_MAX_BUCKET_SIZE,
) -> Tuple[Set[int], CandidateStats]:
    """One MinHash–LSH candidate pass as packed keys with full accounting.

    The LSH counterpart of
    :func:`~repro.dedup.pipeline.sorted_neighborhood_candidates`: the
    signature matrix, one sort per band and the union of the bands'
    pairs.  The returned :class:`~repro.dedup.pipeline.CandidateStats`
    carries a single :class:`LshPassStats` pass whose ``pairs_emitted``
    counts every band's pairs and whose :class:`BucketStats` exposes the
    bucket-size distribution and the oversized skips.
    """
    import numpy as np

    record_count = len(records)
    matrix = signature_matrix(
        records, attributes, bands=bands, rows=rows, ngram=ngram, seed=seed
    )

    bucket_stats = BucketStats()
    band_keys = _band_keys(
        np, matrix, record_count, bands, rows, max_bucket_size, bucket_stats
    )
    keys = set(sorted_unique(np, np.concatenate(band_keys)).tolist()) if band_keys else set()
    stats = CandidateStats(record_count=record_count)
    stats.passes.append(
        LshPassStats(
            label="lsh",
            pairs_emitted=bucket_stats.pairs_emitted,
            pairs_new=len(keys),
            pairs_dropped=bucket_stats.pairs_dropped,
            buckets=bucket_stats,
        )
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
