"""String similarity measures used throughout the test-data pipeline.

The paper relies on a small library of sequential, token-based, hybrid and
phonetic measures:

* Damerau-Levenshtein similarity, plus the paper's *extended* variant that
  treats missing values and prefix relationships as perfect matches
  (Section 6.2).
* Jaro and Jaro-Winkler similarity (Section 6.5).
* Jaccard similarity over token sets or q-grams (Section 6.5).
* Generalized Jaccard coefficient, a hybrid measure with an internal token
  similarity (Section 6.2).
* Monge-Elkan similarity, symmetrised by averaging both directions
  (Section 6.3).
* Soundex codes for detecting phonetic errors (Section 6.4).

All similarity functions return floats in ``[0, 1]`` where ``1`` means
identical.
"""

from __future__ import annotations

from repro.textsim.base import SimilarityMeasure, normalize_for_comparison
from repro.textsim.generalized_jaccard import GeneralizedJaccard, generalized_jaccard
from repro.textsim.jaccard import (
    QgramJaccard,
    TokenJaccard,
    jaccard_qgrams,
    jaccard_qgrams_at_least,
    jaccard_tokens,
)
from repro.textsim.jaro import JaroWinkler, jaro_similarity, jaro_winkler
from repro.textsim.levenshtein import (
    DamerauLevenshtein,
    ExtendedDamerauLevenshtein,
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity,
    damerau_levenshtein_within,
    extended_damerau_levenshtein_similarity,
    levenshtein_distance,
    levenshtein_within,
)
from repro.textsim.monge_elkan import MongeElkan, monge_elkan, symmetric_monge_elkan
from repro.textsim.phonetic import soundex
from repro.textsim.tokens import qgrams, tokenize

__all__ = [
    "SimilarityMeasure",
    "normalize_for_comparison",
    "levenshtein_distance",
    "levenshtein_within",
    "damerau_levenshtein_distance",
    "damerau_levenshtein_similarity",
    "damerau_levenshtein_within",
    "extended_damerau_levenshtein_similarity",
    "DamerauLevenshtein",
    "ExtendedDamerauLevenshtein",
    "jaro_similarity",
    "jaro_winkler",
    "JaroWinkler",
    "jaccard_tokens",
    "jaccard_qgrams",
    "jaccard_qgrams_at_least",
    "TokenJaccard",
    "QgramJaccard",
    "generalized_jaccard",
    "GeneralizedJaccard",
    "monge_elkan",
    "symmetric_monge_elkan",
    "MongeElkan",
    "soundex",
    "tokenize",
    "qgrams",
]
