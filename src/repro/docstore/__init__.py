"""An embedded, aggregate-oriented document store.

The paper stores its test dataset in MongoDB: one document per voter
(duplicate cluster), nested record documents, indexes for selection and an
aggregation pipeline for customisation (Section 5).  This package provides an
embedded Python substitute with the same data model and the three
capabilities the pipeline relies on:

* **aggregate-oriented storage** — documents are arbitrarily nested dicts /
  lists accessed by dotted paths, grouped per cluster;
* **indexes** — hash and sorted indexes that accelerate equality and range
  queries;
* **aggregation pipeline** — multi-stage ``$match/$project/$group/$unwind/
  $sort/$limit/...`` pipelines for filtering, transformation, grouping and
  sorting.

Each collection holds one live state: a document map, an ``_id`` map and
its indexes, which writes change in place.  See ``docs/data-model.md``.

Persistence is line-delimited JSON per collection plus a database manifest,
so datasets survive process restarts and can be shipped as plain files.
"""

from __future__ import annotations

from repro.docstore.collection import Collection
from repro.docstore.database import Database, DurableDatabase
from repro.docstore.documents import get_path, set_path, unset_path
from repro.docstore.errors import (
    CollectionNotFound,
    DegradedReadError,
    DegradedWriteError,
    DocStoreError,
    DuplicateKeyError,
    QuarantineError,
    QueryError,
    StorageCorruptError,
    StorageError,
    UnknownIndexKind,
)
from repro.docstore.scrub import (
    RepairReport,
    ScrubFinding,
    ScrubReport,
    repair_database,
    scrub_database,
)
from repro.docstore.storage import RecoveryReport

__all__ = [
    "Database",
    "DurableDatabase",
    "Collection",
    "DocStoreError",
    "DuplicateKeyError",
    "QueryError",
    "StorageError",
    "StorageCorruptError",
    "QuarantineError",
    "DegradedReadError",
    "DegradedWriteError",
    "RecoveryReport",
    "ScrubFinding",
    "ScrubReport",
    "RepairReport",
    "scrub_database",
    "repair_database",
    "UnknownIndexKind",
    "CollectionNotFound",
    "get_path",
    "set_path",
    "unset_path",
]
