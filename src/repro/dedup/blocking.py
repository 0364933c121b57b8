"""Blocking-key choice.

The paper reduces the search space with "a multi pass of the Sorted
Neighborhood Method by using one pass for each of the five most unique
attributes and a window of size w = 20" and reports that no true duplicate
was lost (Section 6.5).  :func:`pick_blocking_keys` chooses those
attributes; the passes themselves stream packed pair keys in
:mod:`repro.dedup.pipeline` (``sorted_neighborhood_candidates``).
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
