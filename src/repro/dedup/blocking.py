"""Blocking-key choice and the standard-blocking key spec.

The paper reduces the search space with "a multi pass of the Sorted
Neighborhood Method by using one pass for each of the five most unique
attributes and a window of size w = 20" and reports that no true duplicate
was lost (Section 6.5).  :func:`pick_blocking_keys` chooses those
attributes; :class:`StandardBlocking` describes a key-based blocking pass.
The passes themselves stream packed pair keys in
:mod:`repro.dedup.pipeline` (``sorted_neighborhood_candidates`` /
``blocking_candidates``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.heterogeneity import entropy


def pick_blocking_keys(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    count: int = 5,
) -> List[str]:
    """The ``count`` most unique attributes, measured by value entropy."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scored = [
        (entropy((record.get(attribute) or "").strip() for record in records), attribute)
        for attribute in attributes
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [attribute for _score, attribute in scored[:count]]


class StandardBlocking:
    """Classic key-based blocking: equal blocking keys become candidates.

    ``key_function`` maps a record to its blocking key (e.g. the Soundex
    code of the last name plus the zip prefix).  Unlike Sorted
    Neighborhood, block sizes are unbounded — ``max_block_size`` guards
    against quadratic blow-up on frequent keys by skipping oversized
    blocks (a standard production safeguard).  Skips are never silent:
    :func:`repro.dedup.pipeline.blocking_candidates` reports, per pass,
    how many blocks and pairs the cap dropped.
    """

    def __init__(
        self,
        key_function,
        max_block_size: int = 500,
    ) -> None:
        if max_block_size < 2:
            raise ValueError(f"max_block_size must be >= 2, got {max_block_size}")
        self.key_function = key_function
        self.max_block_size = max_block_size

    @classmethod
    def on_attribute(cls, attribute: str, transform=None, max_block_size: int = 500):
        """Block on one attribute, optionally transformed (e.g. soundex)."""

        def key_function(record: Dict[str, str]) -> str:
            value = (record.get(attribute) or "").strip()
            return transform(value) if transform else value

        return cls(key_function, max_block_size)

    def blocks(self, records: Sequence[Dict[str, str]]) -> Dict[str, List[int]]:
        """``key -> [record ids]`` in first-seen order; empty keys dropped."""
        blocks: Dict[str, List[int]] = {}
        for record_id, record in enumerate(records):
            key = self.key_function(record)
            if key in (None, ""):
                continue  # empty keys never block together
            blocks.setdefault(key, []).append(record_id)
        return blocks
