"""Databases: named groups of collections with persistence.

:class:`Database` keeps everything in memory and persists on demand;
:class:`DurableDatabase` additionally write-ahead-logs every mutation so
the on-disk state survives a crash at any point (see
``docs/durability.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro import faults
from repro.docstore.collection import Collection
from repro.docstore.errors import (
    CollectionNotFound,
    DegradedWriteError,
    DocStoreError,
)


class Database:
    """A named set of collections.

    Collections are created lazily through item access (``db["clusters"]``)
    or explicitly with :meth:`create_collection`.  :meth:`save` /
    :meth:`Database.load` persist the whole database as JSONL files plus a
    manifest.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._collections: Dict[str, Collection] = {}

    def create_collection(self, name: str) -> Collection:
        """Create collection ``name``; error if it already exists."""
        if name in self._collections:
            raise DocStoreError(f"collection {name!r} already exists")
        collection = Collection(name)
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str, create: bool = True) -> Collection:
        """Return collection ``name``, creating it unless ``create=False``."""
        collection = self._collections.get(name)
        if collection is None:
            if not create:
                raise CollectionNotFound(f"collection {name!r} does not exist")
            collection = self.create_collection(name)
        return collection

    def drop_collection(self, name: str) -> None:
        """Remove collection ``name`` (no-op when absent)."""
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        """Sorted names of the existing collections."""
        return sorted(self._collections)

    def commit(self) -> int:
        """Durability barrier; a no-op returning 0 for an in-memory database.

        :class:`DurableDatabase` overrides this to seal the staged WAL
        operations into a new committed epoch.  Having it on the base class
        lets write paths (``TestDataGenerator.publish`` et al.) call it
        unconditionally.
        """
        return 0

    def stats(self) -> dict:
        """Document counts, indexes and quarantine state per collection."""
        collections: Dict[str, dict] = {}
        for name in self.collection_names():
            collection = self._collections[name]
            collections[name] = {
                "documents": len(collection),
                "indexes": collection.index_names(),
                "quarantined": collection.quarantined,
            }
        resilience: Dict[str, object] = {
            "quarantined_collections": sum(
                entry["quarantined"] for entry in collections.values()
            ),
        }
        try:
            from repro.core.parallel import resilience_counters
        except ImportError:  # pragma: no cover - parallel layer optional
            pass
        else:
            resilience.update(resilience_counters())
        return {
            "name": self.name,
            "collections": collections,
            "resilience": resilience,
        }

    def save(self, directory: Path) -> None:
        """Persist all collections to ``directory`` (JSONL + manifest)."""
        from repro.docstore.storage import save_database

        save_database(self, directory)

    @classmethod
    def load(cls, directory: Path, name: str = "db") -> "Database":
        """Load a database persisted with :meth:`save`."""
        from repro.docstore.storage import load_database

        return load_database(directory, name)

    def __getitem__(self, name: str) -> Collection:
        return self.get_collection(name)

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(name={self.name!r}, collections={self.collection_names()})"


class DurableDatabase(Database):
    """A database whose on-disk state survives a crash at any point.

    Every mutation is appended to a per-collection write-ahead log before
    anything else happens; :meth:`commit` seals the staged operations into
    a new epoch (markers in every log, then an atomic rewrite of the
    ``COMMITTED`` file); :meth:`checkpoint` folds the logs into fresh
    atomic JSONL snapshots and truncates them.  Opening an existing
    directory runs recovery — snapshot load, committed-WAL replay,
    torn-tail truncation — and records what happened in
    :attr:`last_recovery`.

    Crash-consistency contract: reloading the directory after a crash
    always yields exactly the state of some committed epoch — never a
    partially applied commit, even across collections.  ``fsync_batch``
    trades power-loss durability of *staged* (uncommitted) operations for
    append throughput: ``1`` fsyncs every record, ``N`` every N records,
    ``0`` only at commits.  Committed epochs are always fsynced.
    """

    def __init__(
        self,
        directory: Path,
        name: str = "db",
        fsync_batch: int = 0,
    ) -> None:
        from repro.docstore.storage import (
            MANIFEST_NAME,
            RecoveryReport,
            load_database,
        )
        from repro.docstore.wal import WalWriter, read_committed_epoch

        super().__init__(name)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_batch = fsync_batch
        #: Operations committed since the last :meth:`checkpoint` (what a
        #: reload would replay).
        self._ops_since_checkpoint = 0
        #: What recovery did while opening, or ``None`` for a fresh store.
        self.last_recovery: Optional[RecoveryReport] = None
        #: Reports of the most recent :meth:`scrub` / :meth:`repair` runs.
        self.last_scrub = None
        self.last_repair = None
        self._wal_writer = WalWriter  # late-bound for subclass/test hooks
        self._wals: Dict[str, "WalWriter"] = {}
        self._dropped_wals: Dict[str, "WalWriter"] = {}
        if (self.directory / MANIFEST_NAME).exists() or any(
            self.directory.glob("*.wal")
        ):
            report = RecoveryReport()
            loaded = load_database(
                self.directory, name, report=report, truncate=True, quarantine=True
            )
            self._collections = loaded._collections
            self.last_recovery = report
        self.committed_epoch = read_committed_epoch(self.directory)
        for collection_name in list(self._collections):
            self._attach(collection_name)

    # ------------------------------------------------------------ journaling

    def _attach(self, collection_name: str) -> None:
        writer = self._dropped_wals.pop(collection_name, None)
        if writer is None:
            writer = self._wal_writer(
                self.directory / f"{collection_name}.wal",
                fsync_batch=self.fsync_batch,
            )
        self._wals[collection_name] = writer
        collection = self._collections[collection_name]
        collection._journal = writer.log
        collection._journal_many = writer.log_many

    def create_collection(self, name: str) -> Collection:
        collection = super().create_collection(name)
        self._attach(name)
        # Journal the creation so a *committed* empty collection survives
        # reload; staged-only creations are discarded like any other op.
        collection._journal("create", {})
        return collection

    def drop_collection(self, name: str) -> None:
        """Drop ``name``; the drop is journaled and committed like any op.

        The collection's files stay on disk (still receiving commit
        markers) until the next :meth:`checkpoint` removes them, so
        recovery can tell a committed drop from lost data.  A quarantined
        collection cannot be dropped: its log is in quarantine.
        """
        writer = self._wals.get(name)
        if writer is not None:
            collection = self._collections[name]
            if collection._quarantine is not None:
                raise DegradedWriteError(name, "drop", collection._quarantine)
            del self._wals[name]
            collection._journal("drop", {})
            collection._journal = None
            collection._journal_many = None
            self._dropped_wals[name] = writer
        super().drop_collection(name)

    # ------------------------------------------------------- commit/snapshot

    def _all_writers(self) -> List["WalWriter"]:
        # Quarantined collections' writers are excluded: their log may sit
        # in the quarantine directory, and appending a commit marker through
        # the stale writer would recreate a fresh (history-less) log that
        # recovery would then misread as lost committed records.
        writers = [
            writer
            for name, writer in self._wals.items()
            if not self._collections[name].quarantined
        ]
        writers.extend(self._dropped_wals.values())
        return writers

    def commit(self) -> int:
        """Seal staged operations into a new epoch; returns the epoch.

        A no-op (returning the current epoch) when nothing was staged.
        Markers are appended and fsynced in every log *before* the
        ``COMMITTED`` file is atomically rewritten — a crash anywhere in
        between leaves the previous epoch as the recovered state.  A commit
        never compacts the logs; :meth:`checkpoint` does.
        """
        writers = self._all_writers()
        staged_ops = sum(writer.staged for writer in writers)
        if not staged_ops:
            return self.committed_epoch
        from repro.docstore.wal import write_committed_epoch

        epoch = self.committed_epoch + 1
        for writer in writers:
            writer.commit(epoch)
        write_committed_epoch(self.directory, epoch)
        self.committed_epoch = epoch
        self._ops_since_checkpoint += staged_ops
        return epoch

    def checkpoint(self) -> int:
        """Commit, snapshot every collection atomically, rotate the logs.

        Returns the committed epoch the snapshot captures.  Safe to crash
        at any point: rotation swaps each log for a fresh header-only file
        atomically (checkpoint → write new log → fsync → rename), so a
        crash leaves either the old full log (whose replay over the new
        snapshot is idempotent) or the already-compacted one — never a
        half-truncated file.  Quarantined collections are skipped entirely:
        their snapshot cannot be rewritten (the dark, empty collection would
        masquerade as its data) and their surviving logs must keep the
        history a stale snapshot lacks until :meth:`repair`.
        """
        from repro.docstore.storage import save_database

        epoch = self.commit()
        quarantined_collections = frozenset(
            name
            for name, collection in self._collections.items()
            if collection.quarantined
        )
        save_database(self, self.directory, skip=quarantined_collections)
        fs = faults.current_fs()
        for name, writer in sorted(self._dropped_wals.items()):
            writer.close()
            fs.remove(writer.path)
            fs.remove(self.directory / f"{name}.jsonl")
        self._dropped_wals.clear()
        for name, writer in self._wals.items():
            if name not in quarantined_collections:
                writer.rotate()
        self._ops_since_checkpoint = 0
        return epoch

    # ---------------------------------------------------------- resilience

    def scrub(self, deep: bool = True):
        """Verify on-disk integrity without modifying anything.

        Checks WAL CRC frames, snapshot checksums against the manifest and
        commit-epoch coverage; see
        :func:`repro.docstore.scrub.scrub_database`.  ``deep=False`` skips
        per-line snapshot parsing.  Returns (and stores in
        :attr:`last_scrub`) a :class:`~repro.docstore.scrub.ScrubReport`.
        """
        from repro.docstore.scrub import scrub_database

        report = scrub_database(self.directory, self.name, deep=deep)
        self.last_scrub = report
        return report

    def repair(self):
        """Salvage what the damaged files still hold and lift quarantine.

        Commits any healthy staged work, closes the database, re-runs
        recovery in salvage mode over the restored quarantined files,
        rewrites a clean snapshot and reopens in place.  Returns (and
        stores in :attr:`last_repair`) a
        :class:`~repro.docstore.scrub.RepairReport`.  Data in regions the
        salvage pass cannot parse is dropped — the report says what.
        """
        from repro.docstore.errors import StorageError
        from repro.docstore.scrub import repair_database

        try:
            self.commit()
        except StorageError:
            pass  # poisoned writer: staged tail already lost to the fault
        self.close(commit=False)
        report = repair_database(self.directory, self.name)
        self.__init__(self.directory, self.name, fsync_batch=self.fsync_batch)
        self.last_repair = report
        return report

    def stats(self) -> dict:
        stats = super().stats()
        scrub = self.last_scrub
        stats["storage"] = {
            "committed_epoch": self.committed_epoch,
            "ops_since_checkpoint": self._ops_since_checkpoint,
            "last_scrub": None if scrub is None else {
                "ok": scrub.ok,
                "errors": len(scrub.errors),
                "warnings": len(scrub.warnings),
            },
        }
        return stats

    def save(self, directory: Path) -> None:
        """Checkpoint when saving in place; plain export elsewhere."""
        if Path(directory).resolve() == self.directory.resolve():
            self.checkpoint()
        else:
            super().save(directory)

    def close(self, commit: bool = True) -> None:
        """Release file handles, committing staged operations by default."""
        if commit:
            self.commit()
        for writer in self._all_writers():
            writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableDatabase(name={self.name!r}, directory={str(self.directory)!r}, "
            f"epoch={self.committed_epoch})"
        )
