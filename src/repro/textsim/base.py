"""Common interface for similarity measures."""

from __future__ import annotations

import abc
from typing import List, Sequence


def normalize_for_comparison(value: object) -> str:
    """Coerce ``value`` into a string suitable for similarity comparison.

    ``None`` becomes the empty string; everything else is passed through
    ``str``.  Leading/trailing whitespace is preserved on purpose — trimming
    is an explicit pipeline step in the paper (Section 4), not an implicit
    one.
    """
    if value is None:
        return ""
    return str(value)


class SimilarityMeasure(abc.ABC):
    """A callable object mapping two strings to a similarity in ``[0, 1]``.

    Concrete measures implement :meth:`similarity`.  Instances are also
    callable, which lets them be passed around as plain functions (the
    heterogeneity scorer and the duplicate-detection framework both accept
    either form).
    """

    #: Human-readable identifier used by benchmarks and reports.
    name: str = "similarity"

    @abc.abstractmethod
    def similarity(self, left: str, right: str) -> float:
        """Return the similarity of ``left`` and ``right`` in ``[0, 1]``."""

    def similarities(self, lefts: Sequence[str], rights: Sequence[str]) -> List[float]:
        """Similarity of every ``(lefts[k], rights[k])`` pair.

        Batch callers (the record matcher scores each distinct value pair
        of a candidate set in one call) go through this method.  The
        default loops over :meth:`similarity`; measures with a batch
        kernel override it with one that returns the same floats.
        """
        return [self.similarity(left, right) for left, right in zip(lefts, rights)]

    def distance(self, left: str, right: str) -> float:
        """Return ``1 - similarity`` — convenient for heterogeneity scores."""
        return 1.0 - self.similarity(left, right)

    def __call__(self, left: str, right: str) -> float:
        return self.similarity(left, right)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
