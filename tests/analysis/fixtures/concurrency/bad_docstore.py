"""Known-bad: journal-bypassing writes.

Expected finding: R105 (writing docstore-private state from outside the
store).
"""

from __future__ import annotations


def poke(collection, doc):
    collection._documents[1] = doc
