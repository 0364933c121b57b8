"""JSONL persistence for databases and collections.

Layout of a persisted database directory::

    manifest.json        collection names, index specs, checkpoint epoch
    <collection>.jsonl   snapshot: one document per line, insertion order
    <collection>.wal     write-ahead log of operations since the snapshot
    COMMITTED            database-wide last committed epoch

Plain (non-durable) databases only ever produce the first two entries; the
WAL and epoch files are written by
:class:`~repro.docstore.database.DurableDatabase`.  Every file is written
atomically (tmp file → fsync → rename → directory fsync, see
:func:`repro.docstore.wal.atomic_write_text`), so an interrupted save
never leaves a half-written JSONL/manifest mix on disk.  Each manifest
entry records a CRC32 over its snapshot's bytes and the checkpoint epoch
that produced it, giving the scrubber (:mod:`repro.docstore.scrub`) an
end-to-end integrity check.

:func:`load_database` is also the crash-recovery path: it loads the
snapshot, replays any committed WAL operations on top (idempotently, so a
stale WAL left by a crash between a checkpoint's snapshot rename and its
log truncation is harmless), truncates torn WAL tails and reports every
repair through an optional :class:`RecoveryReport`.  Damage it cannot
prove harmless raises :class:`~repro.docstore.errors.StorageCorruptError`
with file/offset/line context; ``repair=True`` additionally salvages the
parseable lines of a damaged snapshot instead of raising.

Fault-domain isolation: with ``quarantine=True`` (the
:class:`~repro.docstore.database.DurableDatabase` open path), damage
confined to one partition's WAL or one collection's snapshot no longer
fails the whole open.  The damaged file is moved into a sibling
``<file>.quarantined/`` directory, the shard is flagged in the manifest,
and the collection serves *degraded* — see ``docs/durability.md``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro import faults
from repro.docstore.errors import (
    DegradedWriteError,
    StorageCorruptError,
    StorageError,
)
from repro.docstore.wal import (
    atomic_write_text,
    read_committed_epoch,
    read_wal,
    split_wal_stem,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.docstore.collection import Collection
    from repro.docstore.database import Database

MANIFEST_NAME = "manifest.json"

#: Suffix of the sibling directory a corrupt file is moved into.
QUARANTINE_SUFFIX = ".quarantined"

#: WAL operation kinds recovery knows how to replay.
_REPLAYED_OPS = frozenset(
    ("create", "drop", "insert", "replace", "update", "delete", "index")
)


@dataclass
class RecoveryReport:
    """What recovery did while loading a database directory."""

    #: WAL operations replayed on top of the snapshot, per collection.
    replayed: Dict[str, int] = field(default_factory=dict)
    #: Last committed epoch observed (0 for plain snapshots).
    committed_epoch: int = 0
    #: Snapshot lines dropped by ``repair=True``, per file.
    salvaged: Dict[str, int] = field(default_factory=dict)
    #: Orphaned ``*.tmp`` files (crash mid-atomic-write) swept on open.
    orphans_removed: int = 0
    #: Shards *newly* quarantined by this load, per collection.
    quarantined: Dict[str, List[int]] = field(default_factory=dict)
    #: Human-readable notes: torn tails truncated, operations discarded...
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing had to be repaired, truncated or discarded."""
        return not self.notes and not self.salvaged and not self.quarantined

    def render(self) -> str:
        """Multi-line human-readable summary (used by ``recover``)."""
        lines = [f"committed epoch: {self.committed_epoch}"]
        for name in sorted(self.replayed):
            lines.append(f"replayed {self.replayed[name]} op(s) into {name!r}")
        for path in sorted(self.salvaged):
            lines.append(f"salvaged {path}: dropped {self.salvaged[path]} bad line(s)")
        for name in sorted(self.quarantined):
            lines.append(
                f"quarantined shard(s) {self.quarantined[name]} of {name!r}"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


# -------------------------------------------------------------- quarantine


def quarantine_file(path: Path, reason: str) -> Path:
    """Move a damaged file into a sibling ``<name>.quarantined/`` directory.

    The file is preserved verbatim for later ``repair()``/forensics, with a
    ``finding.json`` recording why it was pulled.  Returns the quarantine
    directory.  (The directory name ends in ``.quarantined``, so the
    ``*.wal`` / ``*.jsonl`` globs of the load path can never match it.)
    """
    path = Path(path)
    qdir = path.with_name(path.name + QUARANTINE_SUFFIX)
    qdir.mkdir(exist_ok=True)
    faults.current_fs().replace(path, qdir / path.name)
    atomic_write_text(
        qdir / "finding.json",
        json.dumps({"file": path.name, "reason": reason}, indent=2),
    )
    return qdir


def quarantine_dirs(directory: Path) -> List[Path]:
    """Every ``*.quarantined/`` directory inside ``directory``."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        entry
        for entry in directory.iterdir()
        if entry.is_dir() and entry.name.endswith(QUARANTINE_SUFFIX)
    )


# -------------------------------------------------------------------- save


def save_database(
    database: "Database", directory: Path, *, skip: frozenset = frozenset()
) -> None:
    """Write every collection of ``database`` to ``directory`` atomically.

    Layout: one ``<collection>.jsonl`` per collection (one document per
    line, insertion order) plus a ``manifest.json`` recording collection
    names, their index specifications (so indexes are rebuilt on load), a
    CRC32 checksum over the snapshot bytes, and — for durable databases —
    the epoch the snapshot captures.  Each file goes through the
    atomic-write helper; the manifest is written last, after every
    collection file is durably in place.

    ``skip`` names collections whose snapshot must *not* be rewritten
    (quarantined collections at checkpoint time: their manifest entry is
    carried over verbatim so the old snapshot still verifies and its epoch
    still gates replay).  Saving a degraded collection *without* skipping
    it raises :class:`DegradedWriteError` — a snapshot that silently
    dropped a quarantined shard's documents would look healthy.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    epoch = getattr(database, "committed_epoch", None)
    previous: Dict[str, dict] = {}
    if skip:
        previous = _read_manifest_entries(directory / MANIFEST_NAME)
    manifest: Dict[str, object] = {"collections": {}}
    collections: Dict[str, dict] = {}
    manifest["collections"] = collections
    for name in database.collection_names():
        collection = database[name]
        quarantined = sorted(getattr(collection, "_quarantined", ()))
        if name in skip:
            entry = dict(previous.get(name, {}))
            entry.setdefault("indexes", collection.index_specs())
            if getattr(collection, "nshards", 1) > 1:
                entry["shards"] = collection.nshards
                entry["shard_key"] = collection.shard_key
            if quarantined:
                entry["quarantined"] = quarantined
            collections[name] = entry
            continue
        if quarantined:
            raise DegradedWriteError(name, quarantined, "snapshot")
        lines = [
            json.dumps(document, ensure_ascii=False, sort_keys=True)
            for document in collection.all()
        ]
        body = "\n".join(lines) + ("\n" if lines else "")
        encoded = body.encode("utf-8")
        atomic_write_text(directory / f"{name}.jsonl", body)
        entry = {
            "indexes": collection.index_specs(),
            "checksum": {"crc32": zlib.crc32(encoded), "bytes": len(encoded)},
        }
        if getattr(collection, "nshards", 1) > 1:
            entry["shards"] = collection.nshards
            entry["shard_key"] = collection.shard_key
        if epoch is not None:
            entry["epoch"] = epoch
        collections[name] = entry
    if epoch is not None:
        manifest["epoch"] = epoch
    atomic_write_text(directory / MANIFEST_NAME, json.dumps(manifest, indent=2))


def _read_manifest_entries(manifest_path: Path) -> Dict[str, dict]:
    """Best-effort read of an existing manifest's collection entries."""
    if not manifest_path.exists():
        return {}
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    entries = manifest.get("collections", {})
    return entries if isinstance(entries, dict) else {}


# -------------------------------------------------------------------- load


def _load_jsonl(
    collection: "Collection",
    path: Path,
    repair: bool,
    report: RecoveryReport,
    checksum: Optional[dict] = None,
    stale_ok: bool = False,
) -> None:
    """Insert ``path``'s documents into ``collection``, line by line.

    The parsed documents are handed over uncopied: nothing else holds them.

    When the manifest recorded a ``checksum`` for the snapshot, the CRC32
    over the raw bytes is verified first — a mismatch means the file is
    not the one the manifest's checkpoint wrote.  ``stale_ok`` covers the
    one legitimate way that happens: a crash between a checkpoint's
    snapshot rename and its manifest rename leaves the *newer* snapshot
    beside the stale checksum (provable because the ``COMMITTED`` epoch
    then exceeds the manifest epoch); the mismatch downgrades to a note,
    and the strict line-by-line parse below still vouches for the file.
    A line that does not parse raises :class:`StorageCorruptError` with
    the file and 1-based line number — unless ``repair`` is set, in which
    case the complete (parseable) lines are kept and the damage is
    reported.
    """
    data = faults.current_fs().read_bytes(path)
    #: Deferred checksum failure: the line parse below runs first so the
    #: error carries the damaged line when there is one; when every line
    #: parses, the mismatch itself is the (whole-file) finding.
    checksum_error: Optional[StorageCorruptError] = None
    if checksum:
        expected = checksum.get("crc32")
        if expected is not None and zlib.crc32(data) != int(expected):
            if repair:
                report.notes.append(
                    f"{path}: snapshot checksum mismatch; salvaging line by line"
                )
            elif stale_ok:
                report.notes.append(
                    f"{path}: snapshot postdates the manifest (interrupted "
                    f"checkpoint); checksum refreshed at the next checkpoint"
                )
            else:
                checksum_error = StorageCorruptError(
                    path,
                    f"snapshot checksum mismatch: crc32 {zlib.crc32(data)} != "
                    f"manifest {int(expected)}",
                )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if not repair:
            raise StorageCorruptError(path, f"undecodable snapshot: {exc}")
        text = data.decode("utf-8", errors="replace")
    dropped = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as exc:
            if not repair:
                raise StorageCorruptError(
                    path,
                    f"unparseable JSONL line: {exc.msg}",
                    line=line_number,
                )
            dropped += 1
            report.notes.append(
                f"{path}: dropped unparseable line {line_number}"
            )
            continue
        collection._insert_owned(document)
    if checksum_error is not None:
        raise checksum_error  # repro: ignore[L004] — a StorageCorruptError
    if dropped:
        report.salvaged[str(path)] = dropped


def load_database(
    directory: Path,
    name: str = "db",
    *,
    repair: bool = False,
    report: Optional[RecoveryReport] = None,
    truncate: bool = False,
    quarantine: bool = False,
    salvage: bool = False,
) -> "Database":
    """Load a database previously written by :func:`save_database`.

    Recovers durable stores: committed WAL operations are replayed on top
    of the snapshot; torn tails and uncommitted operations are discarded.
    Pass a :class:`RecoveryReport` to observe what recovery did; pass
    ``repair=True`` to salvage the parseable lines of damaged snapshot
    files instead of raising :class:`StorageCorruptError`.

    ``truncate=True`` additionally *physically* truncates discarded WAL
    tails (and sweeps orphaned ``*.tmp`` files a crash mid-atomic-write
    left behind) so appends resume from a clean boundary.  Only the
    exclusive writer may do that
    (:class:`~repro.docstore.database.DurableDatabase` when reopening, or
    ``recover``): a plain read-only load must not cut off operations a
    live writer has staged but not yet committed.

    ``quarantine=True`` isolates instead of failing: a corrupt partition
    WAL (or whole-collection snapshot) is moved into a
    ``<file>.quarantined/`` directory, the shard is flagged in the
    manifest, and the collection loads in degraded mode.  Quarantine flags
    already present in the manifest are honored by *every* load — a
    degraded store never silently serves a quarantined shard's stale
    snapshot documents.

    ``salvage=True`` is the ``repair()`` path: quarantine flags are
    ignored (the damaged files are expected to have been restored from
    their quarantine directories first), snapshots load with per-line
    repair, and WALs replay their parseable committed prefix best-effort
    instead of raising.
    """
    from repro.docstore.database import Database

    fs = faults.current_fs()
    directory = Path(directory)
    report = report if report is not None else RecoveryReport()
    manifest_path = directory / MANIFEST_NAME
    if truncate and directory.is_dir():
        # Sweep orphans from a crash between an atomic write's tmp-create
        # and its rename; they are invisible to every load (nothing globs
        # *.tmp) but would otherwise accumulate forever.
        orphans = sorted(directory.glob("*.tmp"))
        for orphan in orphans:
            fs.remove(orphan)
        if orphans:
            report.orphans_removed = len(orphans)
            report.notes.append(
                f"removed {len(orphans)} orphaned tmp file(s)"
            )
    wal_paths = sorted(directory.glob("*.wal")) if directory.is_dir() else []
    manifest: Dict[str, dict] = {"collections": {}}
    if manifest_path.exists():
        try:
            manifest = json.loads(fs.read_text(manifest_path))
        except json.JSONDecodeError as exc:
            raise StorageCorruptError(
                manifest_path, f"unparseable manifest: {exc.msg}", line=exc.lineno
            )
    elif not wal_paths:
        raise StorageError(f"no manifest at {manifest_path}")

    committed = read_committed_epoch(directory)
    report.committed_epoch = committed
    global_epoch = int(manifest.get("epoch", 0) or 0)
    # A committed epoch past the manifest epoch proves a checkpoint died
    # between its snapshot renames and its manifest rename; within that
    # window a snapshot may legitimately be newer than its recorded
    # checksum (it still has to parse cleanly, and the lost-records check
    # below still demands the WALs cover the committed epoch).
    stale_checksum_ok = committed > global_epoch

    database = Database(name)
    #: Highest committed WAL ``seq`` seen per collection name (including
    #: collections that end up dropped); ``DurableDatabase`` seeds its
    #: sequence counters from this so appends keep a total order.
    database._wal_max_seq = {}  # type: ignore[attr-defined]
    #: Shards flagged quarantined: manifest flags plus new findings.
    flagged: Dict[str, Set[int]] = {}
    #: Collections whose *snapshot* was quarantined this load (all shards
    #: dark): their WALs are left in place, untouched, for ``repair()``.
    snapshot_quarantined: Set[str] = set()
    for collection_name, spec in manifest["collections"].items():
        collection = database.create_collection(
            collection_name,
            shards=int(spec.get("shards", 1) or 1),
            shard_key=str(spec.get("shard_key", "ncid")),
        )
        previous_flags = [int(i) for i in spec.get("quarantined", [])]
        if previous_flags and not salvage:
            flagged.setdefault(collection_name, set()).update(previous_flags)
            report.notes.append(
                f"collection {collection_name!r} shard(s) {sorted(previous_flags)} "
                f"in quarantine (repair to lift)"
            )
        jsonl_path = directory / f"{collection_name}.jsonl"
        if jsonl_path.exists():
            try:
                _load_jsonl(
                    collection,
                    jsonl_path,
                    repair or salvage,
                    report,
                    checksum=spec.get("checksum"),
                    stale_ok=stale_checksum_ok,
                )
            except OSError as exc:  # StorageCorruptError is an OSError too
                if salvage:
                    # Drop the partially-loaded documents and retake the
                    # file line by line, ignoring the stale checksum.
                    database.drop_collection(collection_name)
                    collection = database.create_collection(
                        collection_name,
                        shards=int(spec.get("shards", 1) or 1),
                        shard_key=str(spec.get("shard_key", "ncid")),
                    )
                    try:
                        _load_jsonl(collection, jsonl_path, True, report)
                    except OSError as retry_exc:
                        report.notes.append(
                            f"{jsonl_path}: unreadable, skipped ({retry_exc})"
                        )
                elif quarantine:
                    # The snapshot covers every shard, so a bad snapshot
                    # darkens the whole collection.  Its WALs stay on disk
                    # for repair; replay is skipped below.
                    quarantine_file(jsonl_path, str(exc))
                    database.drop_collection(collection_name)
                    collection = database.create_collection(
                        collection_name,
                        shards=int(spec.get("shards", 1) or 1),
                        shard_key=str(spec.get("shard_key", "ncid")),
                    )
                    all_shards = set(range(collection.nshards))
                    flagged.setdefault(collection_name, set()).update(all_shards)
                    new = report.quarantined.setdefault(collection_name, [])
                    new.extend(sorted(all_shards - set(new)))
                    snapshot_quarantined.add(collection_name)
                    report.notes.append(
                        f"{jsonl_path}: snapshot quarantined ({exc})"
                    )
                else:
                    raise
        for index_spec in spec.get("indexes", []):
            collection.create_index(index_spec["path"], index_spec["kind"])

    # Partition logs (``<name>@p<i>.wal``) replay as one per-collection
    # stream, merged on the ``seq`` number each sharded record carries.
    groups: Dict[str, List[Path]] = {}
    for wal_path in wal_paths:
        collection_name, _partition = split_wal_stem(wal_path.stem)
        groups.setdefault(collection_name, []).append(wal_path)
    for collection_name in sorted(groups):
        group_paths = groups[collection_name]
        entry = manifest["collections"].get(collection_name) or {}
        # Quarantined collections are skipped at checkpoint time, so their
        # snapshot epoch lags the global one; the per-collection epoch
        # written next to the checksum keeps the replay filter correct.
        collection_epoch = int(entry.get("epoch", global_epoch) or 0)
        if collection_name in snapshot_quarantined:
            report.notes.append(
                f"skipped WAL replay for quarantined collection "
                f"{collection_name!r}"
            )
            continue
        sharded = len(group_paths) > 1 or any(
            split_wal_stem(path.stem)[0] != path.stem for path in group_paths
        )
        quarantined_here = flagged.get(collection_name, set())
        operations: List[Dict[str, object]] = []
        recoveries = []
        seq_floor = 0
        for wal_path in group_paths:
            _, partition_index = split_wal_stem(wal_path.stem)
            try:
                recovery = read_wal(
                    wal_path, committed, truncate_torn=truncate,
                    best_effort=salvage,
                )
            except OSError as exc:
                if salvage:
                    report.notes.append(
                        f"{wal_path}: unreadable, skipped ({exc})"
                    )
                    continue
                if quarantine:
                    seq_floor = max(
                        seq_floor,
                        _quarantine_wal(
                            wal_path, partition_index, collection_name,
                            str(exc), committed, flagged, report,
                        ),
                    )
                    continue
                raise
            lost = (
                collection_name in manifest["collections"]
                and committed > collection_epoch
                and recovery.last_epoch < committed
            )
            if lost and partition_index not in quarantined_here:
                # The snapshot predates the committed epoch and the WAL
                # does not carry us up to it: committed operations gone.
                message = (
                    f"committed records lost: log ends at epoch "
                    f"{recovery.last_epoch}, database committed epoch {committed}"
                )
                if salvage:
                    report.notes.append(f"{wal_path}: {message}")
                elif quarantine:
                    seq_floor = max(
                        seq_floor,
                        _quarantine_wal(
                            wal_path, partition_index, collection_name,
                            message, committed, flagged, report,
                        ),
                    )
                    continue
                else:
                    raise StorageCorruptError(wal_path, message)
            unknown = sorted(
                {str(op.get("op")) for op in recovery.operations}
                - _REPLAYED_OPS
            )
            if unknown:
                # A record this build cannot apply must never be dropped
                # silently: replaying around it would serve a state no
                # commit ever produced.
                message = (
                    f"collection {collection_name!r}: unknown WAL operation "
                    f"kind(s) {unknown}"
                )
                if not salvage:
                    raise StorageCorruptError(wal_path, message)
                report.notes.append(f"{wal_path}: {message}; skipped")
                recovery.operations = [
                    op for op in recovery.operations
                    if op.get("op") in _REPLAYED_OPS
                ]
            recoveries.append((wal_path, recovery))
            operations.extend(recovery.operations)
        # The seq high-water mark covers *every* committed record on disk
        # (even ones the epoch filter below skips): a reopened writer must
        # never reuse a seq that stale, not-yet-truncated files still hold.
        max_seq = max(
            (_operation_seq(op) for op in operations), default=0
        )
        max_seq = max(max_seq, seq_floor)
        if sharded:
            # A checkpoint truncates the partition logs one file at a time;
            # a crash mid-way can lose a cross-file *prefix* of the history.
            # Operations from epochs at or before the snapshot epoch are
            # already captured by the snapshot — replaying a partial prefix
            # of them would regress newer state, so skip them outright.
            operations = [
                operation
                for operation in operations
                if _operation_epoch(operation) > collection_epoch
            ]
            operations.sort(key=_operation_seq)
        # A WAL with no committed content must not materialize a collection
        # the committed state never had (e.g. staged ops from a crash).
        collection = database._collections.get(collection_name)
        for operation in operations:
            if operation.get("op") == "drop":
                database.drop_collection(collection_name)
                collection = None
                continue
            if collection is None:
                collection = _materialize_collection(
                    database, collection_name, operation
                )
            _replay_operation(collection, operation)
        if max_seq:
            database._wal_max_seq[collection_name] = max_seq  # type: ignore[attr-defined]
            if collection is not None:
                collection._replayed_seq = max_seq
        if operations:
            report.replayed[collection_name] = len(operations)
        for wal_path, recovery in recoveries:
            if recovery.truncated_at is not None:
                report.notes.append(
                    f"{wal_path}: truncated torn/uncommitted tail at byte "
                    f"{recovery.truncated_at}"
                )
            report.notes.extend(f"{wal_path}: {note}" for note in recovery.notes)

    if not salvage:
        for collection_name, indices in flagged.items():
            collection = database._collections.get(collection_name)
            if collection is not None and indices:
                collection._quarantine_shards(sorted(indices))
    if quarantine and report.quarantined:
        _persist_quarantine_flags(manifest, manifest_path, database, flagged)
    return database


def _quarantine_wal(
    wal_path: Path,
    partition_index: int,
    collection_name: str,
    reason: str,
    committed: int,
    flagged: Dict[str, Set[int]],
    report: RecoveryReport,
) -> int:
    """Quarantine one partition WAL; returns its best-effort max ``seq``.

    The salvageable committed prefix of the moved file is scanned for its
    highest ``seq`` so a reopened writer keeps numbering past it — damage
    may hide higher seqs, but colliding seqs can only belong to different
    shards' documents, whose relative replay order is immaterial.
    """
    qdir = quarantine_file(wal_path, reason)
    flagged.setdefault(collection_name, set()).add(partition_index)
    new = report.quarantined.setdefault(collection_name, [])
    if partition_index not in new:
        new.append(partition_index)
        new.sort()
    report.notes.append(f"{wal_path}: quarantined ({reason})")
    try:
        ghost = read_wal(
            qdir / wal_path.name, committed, truncate_torn=False,
            best_effort=True,
        )
    except OSError:
        return 0
    return max((_operation_seq(op) for op in ghost.operations), default=0)


def _persist_quarantine_flags(
    manifest: Dict[str, dict],
    manifest_path: Path,
    database: "Database",
    flagged: Dict[str, Set[int]],
) -> None:
    """Record quarantine flags in the manifest (atomically rewritten).

    Collections that only existed as WALs get a minimal entry so the flag
    survives; everything else in the manifest is carried over verbatim.
    """
    collections = manifest.setdefault("collections", {})
    for collection_name, indices in flagged.items():
        entry = collections.setdefault(collection_name, {})
        if "indexes" not in entry:
            collection = database._collections.get(collection_name)
            if collection is not None:
                entry["indexes"] = collection.index_specs()
                if collection.nshards > 1:
                    entry["shards"] = collection.nshards
                    entry["shard_key"] = collection.shard_key
        entry["quarantined"] = sorted(indices)
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))


def _operation_seq(operation: Dict[str, object]) -> int:
    seq = operation.get("seq")
    return seq if isinstance(seq, int) else 0


def _operation_epoch(operation: Dict[str, object]) -> int:
    epoch = operation.get("commit_epoch")
    return epoch if isinstance(epoch, int) else 0


def _materialize_collection(
    database: "Database", name: str, operation: Dict[str, object]
) -> "Collection":
    """Create a collection mid-replay, honoring a ``create`` op's layout."""
    shards = 1
    shard_key = "ncid"
    if operation.get("op") == "create":
        shards = int(operation.get("shards", 1) or 1)  # type: ignore[arg-type]
        shard_key = str(operation.get("shard_key", "ncid"))
    return database.create_collection(name, shards=shards, shard_key=shard_key)


def _replay_operation(collection: "Collection", operation: Dict[str, object]) -> None:
    """Apply one committed WAL operation idempotently.

    Inserts become replaces when the ``_id`` already exists, and updates or
    deletes of absent documents are no-ops.  An update record holds the
    post-states of the paths it wrote, list elements by position, so
    replaying a stale log over a newer snapshot converges on the snapshot
    state instead of erroring.  The parsed documents are installed
    uncopied.  (``create`` operations carry no payload — materializing
    the collection, done by the caller, is their whole effect.)
    """
    kind = operation.get("op")
    if kind in ("insert", "replace"):
        document = operation["doc"]
        if not isinstance(document, dict):  # pragma: no cover - defensive
            return
        if not collection._replace_owned({"_id": document.get("_id")}, document):
            collection._insert_owned(document)
    elif kind == "update":
        collection._replay_update(operation["id"], operation["writes"])  # type: ignore[arg-type]
    elif kind == "delete":
        collection.delete_many({"_id": operation["id"]})
    elif kind == "index":
        collection.create_index(str(operation["path"]), str(operation["kind"]))
