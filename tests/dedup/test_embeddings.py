"""The TF-IDF cosine prefilter of :mod:`repro.dedup.embeddings`.

Expected cosines come from a naive dict-based TF-IDF over the shingle
oracle (:func:`repro.dedup._reference.shingle_set_reference`), with the
smoothed idf ``log((1 + n) / (1 + df)) + 1`` the module documents.
"""

import itertools
import math
from collections import Counter

import pytest

from repro.dedup import _reference as ref
from repro.dedup import cosine_prefilter, pack_pair, tfidf_vectors

ATTRIBUTES = ("first_name", "last_name", "city")
RECORDS = [
    dict(zip(ATTRIBUTES, values))
    for values in (
        ("JOHN", "SMITH", "DURHAM"),
        ("JON", "SMITH", "DURHAM"),
        ("MARY", "JONES", "CARY"),
        ("", "", ""),
        ("MARIE", "JONES", "CARY"),
        ("JOHN", "JONES", "APEX"),
    )
]
KEYS = [
    pack_pair(left, right, len(RECORDS))
    for left, right in itertools.combinations(range(len(RECORDS)), 2)
]


def _naive_cosines():
    shingles = [ref.shingle_set_reference(record, ATTRIBUTES, 3) for record in RECORDS]
    count = len(RECORDS)
    frequency = Counter(gram for grams in shingles for gram in grams)
    rows = [
        {gram: math.log((1 + count) / (1 + frequency[gram])) + 1.0 for gram in grams}
        for grams in shingles
    ]

    def cosine(left, right):
        if not left or not right:
            return 0.0
        dot = sum(weight * right[gram] for gram, weight in left.items() if gram in right)
        norms = sum(w * w for w in left.values()) * sum(w * w for w in right.values())
        return dot / math.sqrt(norms)

    return {key: cosine(*(rows[i] for i in divmod(key, count))) for key in KEYS}


@pytest.mark.parametrize("floor", [0.0, -0.5])
def test_non_positive_floor_passes_keys_through(floor):
    vectors = tfidf_vectors(RECORDS, ATTRIBUTES)
    keys = KEYS[::-1] + KEYS[:1]  # order and repeats survive untouched
    assert list(cosine_prefilter(vectors, iter(keys), len(RECORDS), floor)) == keys


@pytest.mark.parametrize("floor", [0.2, 0.5, 0.8])
def test_positive_floor_keeps_exactly_the_keys_reaching_it(floor):
    cosines = _naive_cosines()
    # No cosine sits within rounding distance of the floor, so the naive
    # and the array implementation must agree on every key.
    assert min(abs(value - floor) for value in cosines.values()) > 1e-6
    expected = [key for key in KEYS if cosines[key] >= floor]
    assert 0 < len(expected) < len(KEYS)
    vectors = tfidf_vectors(RECORDS, ATTRIBUTES)
    assert list(cosine_prefilter(vectors, KEYS, len(RECORDS), floor)) == expected


def test_identical_records_survive_floor_one():
    # Eight records, each four times: the rounded dot product of two equal
    # rows may miss 1.0 by an ulp, which a floor of 1.0 must not punish.
    base = [
        ("JOHN", "SMITH", "DURHAM"),
        ("JON", "SMITH", "DURHAM"),
        ("MARY LOU", "JONES", "RALEIGH"),
        ("MARY LOU", "JNOES", "RALEIGH"),
        ("ALAN", "BECK", "CARY"),
        ("ALLAN", "BECK", "CARY"),
        ("RUTH ANN", "MOORE", "APEX"),
        ("RUTH AN", "MORE", "APEX"),
    ]
    records = [dict(zip(ATTRIBUTES, values)) for values in base * 4]
    count = len(records)
    keys = [
        pack_pair(left, right, count)
        for left, right in itertools.combinations(range(count), 2)
    ]
    identical = {key for key in keys if records[key // count] == records[key % count]}
    assert len(identical) == 48
    vectors = tfidf_vectors(records, ATTRIBUTES)
    assert set(cosine_prefilter(vectors, keys, count, 1.0)) == identical
