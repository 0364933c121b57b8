"""The fast kernels must be *bit-identical* to the naive references.

:mod:`repro.textsim.fast` keeps a naive oracle next to it
(:mod:`repro.textsim._reference`) precisely so this suite can assert exact
equality — not approximate — for every optimised kernel: affix stripping,
single-row DP, the banded ``*_within`` variants, token-interned Monge-Elkan,
the q-gram count prefilter, and the bit-parallel OSA and Jaro recurrences
in both their scalar (Python int) and lane (numpy ``uint64``) forms,
including the batch kernels behind the measures' ``similarities``.
"""

import itertools
import os
import random
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textsim import _reference as ref
from repro.textsim import (
    JaroWinkler,
    MongeElkan,
    QgramJaccard,
    damerau_levenshtein_distance,
    damerau_levenshtein_within,
    jaccard_qgrams,
    jaccard_qgrams_at_least,
    jaro_similarity,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_within,
    monge_elkan,
    symmetric_monge_elkan,
)
from repro.textsim import fast

# Small alphabets force collisions, transpositions and shared affixes far
# more often than uniform text would.
tight = st.text(alphabet="AB", max_size=8)
word = st.text(alphabet=string.ascii_uppercase, max_size=12)
name_text = st.text(alphabet=string.ascii_uppercase + " -'", max_size=20)
bound = st.integers(min_value=0, max_value=6)


@given(st.one_of(tight, word), st.one_of(tight, word))
@settings(max_examples=300)
def test_levenshtein_matches_reference(left, right):
    assert levenshtein_distance(left, right) == ref.levenshtein_distance(left, right)


@given(st.one_of(tight, word), st.one_of(tight, word))
@settings(max_examples=300)
def test_damerau_levenshtein_matches_reference(left, right):
    assert damerau_levenshtein_distance(left, right) == ref.damerau_levenshtein_distance(
        left, right
    )


@given(st.one_of(tight, word), st.one_of(tight, word), bound)
@settings(max_examples=300)
def test_levenshtein_within_matches_reference(left, right, max_dist):
    distance = ref.levenshtein_distance(left, right)
    expected = distance if distance <= max_dist else None
    assert levenshtein_within(left, right, max_dist) == expected


@given(st.one_of(tight, word), st.one_of(tight, word), bound)
@settings(max_examples=300)
def test_damerau_within_matches_reference(left, right, max_dist):
    distance = ref.damerau_levenshtein_distance(left, right)
    expected = distance if distance <= max_dist else None
    assert damerau_levenshtein_within(left, right, max_dist) == expected


def test_exhaustive_small_alphabet():
    """Every pair over {A, B} up to length 4 — all kernels, all bounds."""
    values = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("AB", repeat=length)
    ]
    for left in values:
        for right in values:
            assert levenshtein_distance(left, right) == ref.levenshtein_distance(
                left, right
            )
            dl_ref = ref.damerau_levenshtein_distance(left, right)
            assert damerau_levenshtein_distance(left, right) == dl_ref
            for max_dist in range(4):
                expected = dl_ref if dl_ref <= max_dist else None
                assert damerau_levenshtein_within(left, right, max_dist) == expected


@given(name_text, name_text)
@settings(max_examples=200)
def test_monge_elkan_matches_reference(left, right):
    assert monge_elkan(left, right) == ref.monge_elkan(left, right)


@given(name_text, name_text)
@settings(max_examples=200)
def test_symmetric_monge_elkan_matches_reference(left, right):
    assert symmetric_monge_elkan(left, right) == ref.symmetric_monge_elkan(left, right)


@given(name_text, name_text)
@settings(max_examples=200)
def test_jaccard_qgrams_matches_reference(left, right):
    assert jaccard_qgrams(left, right) == ref.jaccard_qgrams(left, right)


@given(name_text, name_text, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_jaccard_at_least_is_exact_when_over_threshold(left, right, threshold):
    similarity = ref.jaccard_qgrams(left, right)
    result = jaccard_qgrams_at_least(left, right, threshold)
    if similarity >= threshold:
        assert result == similarity
    else:
        assert result is None


def test_within_rejects_negative_bound():
    with pytest.raises(ValueError):
        levenshtein_within("A", "B", -1)
    with pytest.raises(ValueError):
        damerau_levenshtein_within("A", "B", -1)


def test_caches_are_clearable():
    monge_elkan("JOHN SMITH", "JON SMYTH")
    assert fast.tokens_of.cache_info().currsize > 0
    fast.clear_caches()
    assert fast.tokens_of.cache_info().currsize == 0


# ----------------------------------------- bit-parallel OSA and Jaro kernels

any_text = st.one_of(tight, word, name_text)


def _check_pairs(pairs):
    """Scalar and lane forms of every kernel against the oracles."""
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    osa = [ref.damerau_levenshtein_distance(l, r) for l, r in pairs]
    jaro = [ref.jaro_similarity(l, r) for l, r in pairs]
    winkler = [ref.jaro_winkler(l, r) for l, r in pairs]
    assert [damerau_levenshtein_distance(l, r) for l, r in pairs] == osa
    assert [jaro_similarity(l, r) for l, r in pairs] == jaro
    assert [jaro_winkler(l, r) for l, r in pairs] == winkler
    assert fast.damerau_levenshtein_distances(lefts, rights) == osa
    assert fast.jaro_similarities(lefts, rights) == jaro
    assert fast.jaro_winkler_similarities(lefts, rights) == winkler
    assert fast.monge_elkan_similarities(lefts, rights) == [
        ref.symmetric_monge_elkan(l, r) for l, r in pairs
    ]
    assert fast.jaccard_qgram_similarities(lefts, rights) == [
        ref.jaccard_qgrams(l, r) for l, r in pairs
    ]


@given(any_text, any_text)
@settings(max_examples=300)
def test_scalar_jaro_matches_reference(left, right):
    assert jaro_similarity(left, right) == ref.jaro_similarity(left, right)
    assert jaro_winkler(left, right) == ref.jaro_winkler(left, right)


@given(st.lists(st.tuples(any_text, any_text), max_size=40))
@settings(max_examples=150, deadline=None)
def test_lane_kernels_match_reference(pairs):
    _check_pairs(pairs)


def test_exhaustive_small_alphabet_bit_parallel():
    """Every pair over {A, B} up to length 5, as one batch and one by one."""
    values = [
        "".join(chars)
        for length in range(6)
        for chars in itertools.product("AB", repeat=length)
    ]
    _check_pairs([(left, right) for left in values for right in values])


@pytest.mark.parametrize("length", [63, 64, 65])
def test_lane_width_boundary(length):
    """Values around the 64-character lane width: lanes, the scalar form
    for longer values, and batches mixing both."""
    rng = random.Random(length)
    base = "".join(rng.choice("ABCD") for _ in range(length))
    variants = [
        base,
        base[:20] + " " + base[21:],
        base[::-1],
        base[1:] + "A",
        base[:-1] + "Z",
        "Z" + base[:-1],
        base.replace("A", "B"),
        base[: length // 2],
        base[:63],
        base + "CD",
        "",
        "A",
    ]
    _check_pairs([(left, right) for left in variants for right in variants])


def test_non_ascii_and_empty_values():
    values = ["", " ", "É", "ÉLODIE", "ELODIE", "ZOË", "ZOE", "中文", "文中",
              "Ñ Ñ", "ß", "ss", "😀A", "A😀"]
    _check_pairs([(left, right) for left in values for right in values])


@pytest.mark.parametrize(
    "prefix_weight, max_prefix", [(0.2, 3), (0.05, 8), (0.25, 2), (0.0, 0), (0.1, -1)]
)
def test_jaro_winkler_prefix_parameters(prefix_weight, max_prefix):
    rng = random.Random(max_prefix)
    values = ["".join(rng.choice("ABC") for _ in range(rng.randrange(10))) for _ in range(40)]
    values += ["MARTHA", "MARHTA", "DWAYNE", "DUANE", "DIXON", "DICKSONX"]
    pairs = [(left, right) for left in values for right in values]
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    expected = [ref.jaro_winkler(l, r, prefix_weight, max_prefix) for l, r in pairs]
    assert [jaro_winkler(l, r, prefix_weight, max_prefix) for l, r in pairs] == expected
    assert fast.jaro_winkler_similarities(lefts, rights, prefix_weight, max_prefix) == expected
    measure = JaroWinkler(prefix_weight, max_prefix)
    assert measure.similarities(lefts, rights) == expected


@pytest.mark.parametrize(
    "measure",
    [MongeElkan(), MongeElkan(symmetric=False), JaroWinkler(), QgramJaccard(2, pad=False)],
)
def test_measure_batches_equal_per_pair_calls(measure):
    rng = random.Random(7)
    values = ["".join(rng.choice("AB C") for _ in range(rng.randrange(9))) for _ in range(30)]
    lefts = [left for left in values for _ in values]
    rights = [right for _ in values for right in values]
    assert measure.similarities(lefts, rights) == [
        measure.similarity(left, right) for left, right in zip(lefts, rights)
    ]


def test_entry_modules_import_without_numpy():
    """numpy loads only when a batch is scored, never at import time."""
    code = (
        "import sys\n"
        "import repro.cli, repro.dedup, repro.dedup.lsh, repro.textsim, repro.datasets.io\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
