"""Char-n-gram TF-IDF record embeddings and a vectorized cosine prefilter.

The vector half of the sub-quadratic candidate path (ROADMAP item 3).
Duplicate records in a noisy register rarely *sort* together — a typo in
the first character of the blocking key throws Sorted Neighborhood off —
but they still *share most of their character n-grams*.  This module
turns each record into a sparse TF-IDF vector over its char-n-gram
shingles so that

* :mod:`repro.dedup.lsh` can MinHash the same shingle sets (built there
  from each distinct value's grams) into sub-quadratic candidate
  buckets, and
* :func:`cosine_prefilter` can cheaply re-rank / thin those buckets with
  an exact sparse cosine before the expensive record matcher runs.

Everything here is deterministic and dependency-free:

* **Shingling** (:func:`record_shingles`) strips each attribute value
  exactly like the record matcher does (``(value or "").strip()``),
  shingles it with :func:`repro.textsim.tokens.qgrams` (unpadded), and
  interns the grams through :func:`repro.textsim.fast.intern_values` so
  repeated shingles across millions of records share one string object —
  the same interning discipline as prepared record vectors.
* **Vocabulary and weights** (:func:`tfidf_vectors`) assign term ids in
  sorted shingle order (stable across runs and processes) and use the
  standard smoothed idf ``log((1 + n) / (1 + df)) + 1`` with L2
  normalisation.
* **Sparse rows** are a pair of parallel :mod:`array` arrays per record —
  ``array("q")`` term ids (sorted ascending) and ``array("d")`` weights —
  one machine word per entry instead of a boxed-int dict, mirroring the
  packed-pair representation of :mod:`repro.dedup.pipeline`.

No NumPy: ``array`` + merge-joins keep the hot loop allocation-free and
the module importable everywhere the rest of the pipeline is.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.textsim.fast import intern_values
from repro.textsim.tokens import qgrams

#: Default shingle width; 3-grams survive single-character typos while
#: still discriminating between unrelated values (van Gennip et al. use
#: character n-grams for exactly this noisy/incomplete-field regime).
DEFAULT_NGRAM = 3


def shingle_record(
    record: Dict[str, str],
    attributes: Sequence[str],
    ngram: int = DEFAULT_NGRAM,
) -> Tuple[str, ...]:
    """The sorted, interned char-n-gram shingle tuple of one record.

    Each attribute value is stripped exactly like the record matcher
    strips it, shingled independently (grams never span attribute
    boundaries), and the per-value gram lists are unioned.  Values
    shorter than ``ngram`` contribute themselves as a single shingle
    (the :func:`~repro.textsim.tokens.qgrams` convention), so short zip
    or middle-initial values still participate.  Returns a *sorted*
    tuple — a canonical form that is stable across processes, which the
    MinHash workers rely on.
    """
    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    grams: Set[str] = set()
    for attribute in attributes:
        value = (record.get(attribute) or "").strip()
        if not value:
            continue
        grams.update(qgrams(value, ngram, pad=False))
    return intern_values(sorted(grams))


def record_shingles(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    ngram: int = DEFAULT_NGRAM,
) -> List[Tuple[str, ...]]:
    """Shingle every record; one sorted, interned tuple per record."""
    return [shingle_record(record, attributes, ngram) for record in records]


class TfidfVectors:
    """Sparse TF-IDF rows over a shared shingle vocabulary.

    ``indices[i]`` / ``weights[i]`` are parallel arrays holding record
    ``i``'s non-zero terms: ``indices`` is an ``array("q")`` of term ids
    sorted ascending, ``weights`` an ``array("d")`` of the matching L2-
    normalised TF-IDF weights.  Rows of empty records are empty arrays.
    """

    __slots__ = ("vocabulary", "indices", "weights")

    def __init__(
        self,
        vocabulary: Dict[str, int],
        indices: List[array],
        weights: List[array],
    ) -> None:
        self.vocabulary = vocabulary
        self.indices = indices
        self.weights = weights

    def __len__(self) -> int:
        return len(self.indices)

    def cosine(self, left_id: int, right_id: int) -> float:
        """Exact cosine similarity of two rows (a sorted merge-join).

        Rows are L2-normalised, so the dot product *is* the cosine.  An
        empty row has no direction: its cosine with anything is 0.0.  Two
        equal non-empty rows have cosine exactly 1.0, which their rounded
        dot product can miss by an ulp or two.
        """
        left_index = self.indices[left_id]
        right_index = self.indices[right_id]
        if not left_index or not right_index:
            return 0.0
        left_weight = self.weights[left_id]
        right_weight = self.weights[right_id]
        if left_index == right_index and left_weight == right_weight:
            return 1.0
        total = 0.0
        i = j = 0
        left_len, right_len = len(left_index), len(right_index)
        while i < left_len and j < right_len:
            left_term = left_index[i]
            right_term = right_index[j]
            if left_term == right_term:
                total += left_weight[i] * right_weight[j]
                i += 1
                j += 1
            elif left_term < right_term:
                i += 1
            else:
                j += 1
        return total


def tfidf_vectors(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    ngram: int = DEFAULT_NGRAM,
    *,
    shingles: Optional[Sequence[Tuple[str, ...]]] = None,
) -> TfidfVectors:
    """Embed every record as a sparse L2-normalised TF-IDF row.

    Term ids are assigned in sorted shingle order — a pure function of
    the corpus, never of iteration order — and the idf is the standard
    smoothed form ``log((1 + n) / (1 + df)) + 1`` (never negative, never
    a division by zero).  Shingles are binary per record (a gram either
    occurs in a value or does not — :func:`shingle_record` returns sets),
    so tf is 1 and each row is just the idf vector of its shingles,
    normalised.  Pass precomputed ``shingles`` (from
    :func:`record_shingles`) to avoid re-shingling.
    """
    if shingles is None:
        shingles = record_shingles(records, attributes, ngram)
    document_frequency: Dict[str, int] = {}
    for grams in shingles:
        for gram in grams:
            document_frequency[gram] = document_frequency.get(gram, 0) + 1
    vocabulary = {
        gram: term_id for term_id, gram in enumerate(sorted(document_frequency))
    }
    record_count = len(shingles)
    idf = {
        gram: math.log((1 + record_count) / (1 + frequency)) + 1.0
        for gram, frequency in document_frequency.items()
    }
    indices: List[array] = []
    weights: List[array] = []
    for grams in shingles:
        row_index = array("q", (vocabulary[gram] for gram in grams))
        row_weight = array("d", (idf[gram] for gram in grams))
        norm = math.sqrt(sum(weight * weight for weight in row_weight))
        if norm > 0.0:
            for position in range(len(row_weight)):
                row_weight[position] /= norm
        indices.append(row_index)
        weights.append(row_weight)
    return TfidfVectors(vocabulary, indices, weights)


def cosine_prefilter(
    vectors: TfidfVectors,
    keys: Iterable[int],
    record_count: int,
    floor: float,
) -> Iterator[int]:
    """Yield the packed pair keys whose TF-IDF cosine reaches ``floor``.

    The exactness contract of the candidate stage is *subset*, not
    threshold semantics: every surviving pair is still scored by the full
    record matcher, the prefilter only refuses to forward pairs whose
    embeddings point in clearly different directions.  ``floor <= 0``
    passes everything through unchanged (and skips the merge-joins).
    """
    if floor <= 0.0:
        yield from keys
        return
    cosine = vectors.cosine
    for key in keys:
        left, right = divmod(key, record_count)
        if cosine(left, right) >= floor:
            yield key
