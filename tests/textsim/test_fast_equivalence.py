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


# ------------------------------------------- table entries and unique_inverse

# Values the record matcher's table holds: short names, values past the
# lane width, empty and whitespace-only values, and non-ASCII text.
table_value = st.one_of(
    any_text,
    st.text(alphabet="AB C", min_size=fast.LANE_WIDTH - 2, max_size=fast.LANE_WIDTH + 6),
    st.text(alphabet=" \t", max_size=4),
    st.text(alphabet="AÉß中😀 ", max_size=8),
)

TABLE_MEASURES = [
    (MongeElkan(), ref.symmetric_monge_elkan),
    (JaroWinkler(), ref.jaro_winkler),
    (JaroWinkler(0.2, 3), lambda left, right: ref.jaro_winkler(left, right, 0.2, 3)),
    (JaroWinkler(0.05, 8), lambda left, right: ref.jaro_winkler(left, right, 0.05, 8)),
    (QgramJaccard(2, pad=False), lambda left, right: ref.jaccard_qgrams(left, right, 2, False)),
    (QgramJaccard(4), lambda left, right: ref.jaccard_qgrams(left, right, 4)),
]


@given(st.lists(table_value, min_size=1, max_size=24, unique=True), st.data())
@settings(max_examples=120, deadline=None)
def test_table_entries_match_string_entries_and_reference(values, data):
    """``table_similarities`` over a sorted table of distinct values equals
    ``similarities`` over the strings and the naive oracle, bit for bit."""
    import numpy as np

    values = sorted(values)
    ids = st.integers(min_value=0, max_value=len(values) - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
    lows = np.array([low for low, _ in pairs], dtype=np.int64)
    highs = np.array([high for _, high in pairs], dtype=np.int64)
    lefts = [values[low] for low, _ in pairs]
    rights = [values[high] for _, high in pairs]
    for measure, oracle in TABLE_MEASURES:
        expected = [oracle(left, right) for left, right in zip(lefts, rights)]
        table = measure.table_similarities(values, lows, highs)
        assert np.asarray(table, dtype=np.float64).tolist() == expected, measure
        assert measure.similarities(lefts, rights) == expected, measure


def test_table_entries_on_a_lane_width_table():
    """Every pair of a table mixing values around the lane width with
    empty, blank and non-ASCII values."""
    import numpy as np

    rng = random.Random(64)
    base = "".join(rng.choice("ABC ") for _ in range(fast.LANE_WIDTH + 3))
    values = sorted({
        base, base[:63], base[:64], base[:65], base[1:], base.replace("A", "B"),
        "", " ", "  ", "É", "ÉLODIE", "ELODIE", "中文", "😀A", "A B", "B A",
    })
    pairs = [(low, high) for low in range(len(values)) for high in range(len(values))]
    lows = np.array([low for low, _ in pairs], dtype=np.int64)
    highs = np.array([high for _, high in pairs], dtype=np.int64)
    for measure, oracle in TABLE_MEASURES:
        expected = [oracle(values[low], values[high]) for low, high in pairs]
        table = measure.table_similarities(values, lows, highs)
        assert np.asarray(table, dtype=np.float64).tolist() == expected, measure


def _assert_unique_inverse(values):
    import numpy as np

    distinct, inverse = fast.unique_inverse(np, values)
    expected, expected_inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == values.dtype
    assert distinct.tolist() == expected.tolist()
    assert inverse.shape == values.shape
    assert inverse.reshape(-1).tolist() == expected_inverse.reshape(-1).tolist()


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=60))
@settings(max_examples=200, deadline=None)
def test_unique_inverse_matches_numpy(values):
    import numpy as np

    _assert_unique_inverse(np.array(values, dtype=np.int64))


@pytest.mark.parametrize("count", [0, 1, 2, 5, 1000])
def test_unique_inverse_at_the_packed_key_bit_budget(count):
    """The packed sort key holds ``(value - low) << shift | position`` with
    ``shift`` the bit length of the last position: a value range of
    ``2**(63 - shift) - 1`` still fits in 63 bits, one more does not and
    takes the argsort.  Both must give numpy's answer."""
    import numpy as np

    rng = np.random.default_rng(count)
    shift = max(count - 1, 0).bit_length()
    for low in (-(2**62), -5, 0, 7):
        for span in (2 ** (63 - shift) - 1, 2 ** (63 - shift)):
            high = low + span
            if high >= 2**63:
                continue
            values = rng.integers(low, high, size=count, endpoint=True, dtype=np.int64)
            if count >= 2:
                values[0], values[-1] = low, high
            _assert_unique_inverse(values)
    extremes = np.array([2**63 - 1, -(2**63), 0, -1, 2**63 - 1], dtype=np.int64)
    _assert_unique_inverse(extremes[:count])


def test_unique_inverse_keeps_shape_and_dtype():
    import numpy as np

    _assert_unique_inverse(np.array([[3, -1, 3], [7, -1, 0]], dtype=np.int64))
    _assert_unique_inverse(np.array([66, 65, 20013, 66, 128512], dtype=np.uint32))
    _assert_unique_inverse(np.zeros((0, 3), dtype=np.int64))


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
