"""Exception hierarchy of the embedded document store."""

from __future__ import annotations


class DocStoreError(Exception):
    """Base class of every error raised by :mod:`repro.docstore`."""


class DuplicateKeyError(DocStoreError):
    """A document with the same ``_id`` already exists in the collection."""


class QueryError(DocStoreError):
    """A filter, update or pipeline specification is malformed."""


class CollectionNotFound(DocStoreError):
    """The requested collection does not exist and implicit creation is off."""


class StorageError(DocStoreError, FileNotFoundError):
    """A persisted database is missing or malformed on disk.

    Also a :class:`FileNotFoundError` so callers that probe for a store with
    ``except FileNotFoundError`` keep working.
    """


class StorageCorruptError(StorageError):
    """A persisted file is damaged beyond what recovery may silently fix.

    Raised when a WAL record in the *committed* region fails its CRC32
    check, when a record is malformed mid-file (valid records follow it),
    or when a snapshot JSONL line cannot be parsed and repair was not
    requested.  Carries the precise location so operators can inspect the
    damage: ``path`` (the file), ``offset`` (byte offset, WALs) or ``line``
    (1-based line number, JSONL snapshots), and ``reason``.
    """

    def __init__(
        self,
        path,
        reason: str,
        offset: "int | None" = None,
        line: "int | None" = None,
    ) -> None:
        self.path = str(path)
        self.reason = reason
        self.offset = offset
        self.line = line
        where = ""
        if offset is not None:
            where = f" at byte {offset}"
        elif line is not None:
            where = f" at line {line}"
        super().__init__(f"{self.path}{where}: {reason}")


class QuarantineError(DocStoreError):
    """An operation touched a quarantined (fault-isolated) collection.

    When recovery finds a corrupt WAL or snapshot it moves the damaged file
    into a ``<file>.quarantined/`` directory and flags the collection in
    the manifest instead of failing the whole database open (see
    ``docs/durability.md``).  The collection then goes dark: every read of
    it raises :class:`DegradedReadError`, every write
    :class:`DegradedWriteError`, while the other collections keep serving.
    ``Database.repair()`` re-runs salvage and lifts the quarantine.
    ``reason`` says what recovery found wrong.
    """

    def __init__(self, collection: str, operation: str, reason: str) -> None:
        self.collection = collection
        self.operation = operation
        self.reason = reason
        super().__init__(
            f"{operation} on quarantined collection {collection!r} "
            f"({reason}); repair() the database to lift quarantine"
        )


class DegradedReadError(QuarantineError):
    """A read touched a quarantined collection."""


class DegradedWriteError(QuarantineError):
    """A write touched a quarantined collection.

    Accepting a write the quarantined collection cannot journal would
    silently diverge from its log.
    """


class UnknownIndexKind(DocStoreError, ValueError):
    """An index was requested with an unsupported ``kind``.

    Also a :class:`ValueError` for backwards compatibility with callers that
    treat a bad index kind as an ordinary argument error.
    """
