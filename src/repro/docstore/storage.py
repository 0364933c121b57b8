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
confined to one collection's WAL or snapshot no longer fails the whole
open.  The damaged file is moved into a sibling ``<file>.quarantined/``
directory, the collection is flagged in the manifest and goes dark, and
the other collections keep serving — see ``docs/durability.md``.

Stores in the retired hash-partitioned layout (a manifest entry or a
committed ``create`` record with ``shards`` > 1) are refused with a
:class:`~repro.docstore.errors.StorageError`.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro import faults
from repro.docstore.errors import (
    DegradedWriteError,
    StorageCorruptError,
    StorageError,
)
from repro.docstore.wal import atomic_write_text, read_committed_epoch, read_wal

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
    #: Collections *newly* quarantined by this load.
    quarantined: List[str] = field(default_factory=list)
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
            lines.append(f"quarantined collection {name!r}")
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
    collection file is durably in place.  The stored documents are
    serialized as they are, with no read views around them: ``json.dumps``
    never mutates its input.

    ``skip`` names collections whose snapshot must *not* be rewritten
    (quarantined collections at checkpoint time: their manifest entry is
    carried over verbatim so the old snapshot still verifies and its epoch
    still gates the lost-records check).  Saving a quarantined collection
    *without* skipping it raises :class:`DegradedWriteError` — an empty
    snapshot of a dark collection would look healthy.
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
        if name in skip:
            entry = dict(previous.get(name, {}))
            entry.setdefault("indexes", collection.index_specs())
            if collection.quarantined:
                entry["quarantined"] = True
            collections[name] = entry
            continue
        if collection._quarantine is not None:
            raise DegradedWriteError(name, "snapshot", collection._quarantine)
        lines = [
            json.dumps(document, ensure_ascii=False, sort_keys=True)
            for document in collection._ordered_documents()
        ]
        body = "\n".join(lines) + ("\n" if lines else "")
        encoded = body.encode("utf-8")
        atomic_write_text(directory / f"{name}.jsonl", body)
        entry = {
            "indexes": collection.index_specs(),
            "checksum": {"crc32": zlib.crc32(encoded), "bytes": len(encoded)},
        }
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


def snapshot_lines(
    data: bytes, errors: str = "strict"
) -> Iterator[Tuple[int, Any, str]]:
    """``(line number, document, problem)`` of each non-blank snapshot line.

    Lines end at ``"\\n"`` only, the separator :func:`save_database`
    writes: its ``ensure_ascii=False`` JSON leaves U+0085, U+2028 and
    U+2029 raw inside string values, where ``str.splitlines`` would split.
    Each line is decoded on its own as UTF-8 (``errors`` as for
    :meth:`bytes.decode`; never left to ``json.loads``, which would guess
    UTF-16 or UTF-32 from bytes), so no whole-file text is held.  A line
    that does not decode or parse has ``document`` ``None`` and a
    ``problem``; ``problem`` is ``""`` otherwise.
    """
    for line_number, raw in enumerate(io.BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8", errors).strip()
        except UnicodeDecodeError as exc:
            yield line_number, None, f"undecodable JSONL line: {exc.reason}"
            continue
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_number, None, f"unparseable JSONL line: {exc.msg}"
            continue
        yield line_number, document, ""


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
    The lines come from :func:`snapshot_lines`.  A line that does not
    decode or parse raises :class:`StorageCorruptError` with the file and
    1-based line number — unless ``repair`` is set, in which case bad
    bytes decode to U+FFFD, the complete (parseable) lines are kept and
    the damage is reported.
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
    dropped = 0
    errors = "replace" if repair else "strict"
    for line_number, document, problem in snapshot_lines(data, errors):
        if problem:
            if not repair:
                raise StorageCorruptError(path, problem, line=line_number)
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

    ``quarantine=True`` isolates instead of failing: a corrupt WAL or
    snapshot is moved into a ``<file>.quarantined/`` directory, the
    collection is flagged in the manifest and loads dark (see
    :meth:`Collection.quarantined`).  Quarantine flags already present in
    the manifest are honored by *every* load — a quarantined collection
    never silently serves its stale snapshot documents.

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
    #: Collections going dark, with the reason: manifest flags (earlier
    #: releases wrote a list of shard indices, which reads as a flag too)
    #: plus the damage this load finds.
    dark: Dict[str, str] = {}
    for collection_name, spec in manifest["collections"].items():
        _refuse_hash_partitions(spec, collection_name, manifest_path)
        collection = database.create_collection(collection_name)
        jsonl_path = directory / f"{collection_name}.jsonl"
        if spec.get("quarantined") and not salvage:
            dark[collection_name] = _quarantine_reason(directory, collection_name)
            report.notes.append(
                f"collection {collection_name!r} in quarantine (repair to lift)"
            )
        elif jsonl_path.exists():
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
                    collection = database.create_collection(collection_name)
                    try:
                        _load_jsonl(collection, jsonl_path, True, report)
                    except OSError as retry_exc:
                        report.notes.append(
                            f"{jsonl_path}: unreadable, skipped ({retry_exc})"
                        )
                elif quarantine:
                    # The collection's WAL stays on disk for repair; its
                    # replay is skipped below.
                    quarantine_file(jsonl_path, str(exc))
                    dark[collection_name] = str(exc)
                    report.quarantined.append(collection_name)
                    report.notes.append(
                        f"{jsonl_path}: snapshot quarantined ({exc})"
                    )
                else:
                    raise
        for index_spec in spec.get("indexes", []):
            collection.create_index(index_spec["path"], index_spec["kind"])

    for wal_path in wal_paths:
        collection_name = wal_path.stem
        if collection_name in dark:
            report.notes.append(
                f"skipped WAL replay for quarantined collection "
                f"{collection_name!r}"
            )
            continue
        entry = manifest["collections"].get(collection_name) or {}
        # Quarantined collections are skipped at checkpoint time, so their
        # snapshot epoch lags the global one; the per-collection epoch
        # written next to the checksum keeps the lost-records check right.
        collection_epoch = int(entry.get("epoch", global_epoch) or 0)
        try:
            recovery = read_wal(
                wal_path, committed, truncate_torn=truncate, best_effort=salvage
            )
        except OSError as exc:
            if salvage:
                report.notes.append(f"{wal_path}: unreadable, skipped ({exc})")
                continue
            if quarantine:
                _quarantine_wal(wal_path, str(exc), dark, report)
                continue
            raise
        lost = (
            collection_name in manifest["collections"]
            and committed > collection_epoch
            and recovery.last_epoch < committed
        )
        if lost:
            # The snapshot predates the committed epoch and the WAL does
            # not carry us up to it: committed operations gone.
            message = (
                f"committed records lost: log ends at epoch "
                f"{recovery.last_epoch}, database committed epoch {committed}"
            )
            if salvage:
                report.notes.append(f"{wal_path}: {message}")
            elif quarantine:
                _quarantine_wal(wal_path, message, dark, report)
                continue
            else:
                raise StorageCorruptError(wal_path, message)
        unknown = sorted(
            {str(op.get("op")) for op in recovery.operations} - _REPLAYED_OPS
        )
        if unknown:
            # A record this build cannot apply must never be dropped
            # silently: replaying around it would serve a state no commit
            # ever produced.
            message = (
                f"collection {collection_name!r}: unknown WAL operation "
                f"kind(s) {unknown}"
            )
            if not salvage:
                raise StorageCorruptError(wal_path, message)
            report.notes.append(f"{wal_path}: {message}; skipped")
            recovery.operations = [
                op for op in recovery.operations if op.get("op") in _REPLAYED_OPS
            ]
        # A WAL with no committed content must not materialize a collection
        # the committed state never had (e.g. staged ops from a crash).
        collection = database._collections.get(collection_name)
        for operation in recovery.operations:
            kind = operation.get("op")
            if kind == "drop":
                database.drop_collection(collection_name)
                collection = None
                continue
            if kind == "create":
                _refuse_hash_partitions(operation, collection_name, wal_path)
            if collection is None:
                collection = database.create_collection(collection_name)
            _replay_operation(collection, operation)
        if recovery.operations:
            report.replayed[collection_name] = len(recovery.operations)
        if recovery.truncated_at is not None:
            report.notes.append(
                f"{wal_path}: truncated torn/uncommitted tail at byte "
                f"{recovery.truncated_at}"
            )
        report.notes.extend(f"{wal_path}: {note}" for note in recovery.notes)

    if not salvage:
        for collection_name, reason in dark.items():
            collection = database._collections.get(collection_name)
            if collection is None:
                # Only a log held it, and that log is now in quarantine.
                collection = database.create_collection(collection_name)
            collection._take_dark(reason)
    if quarantine and report.quarantined:
        _persist_quarantine_flags(manifest, manifest_path, database, dark)
    return database


def _refuse_hash_partitions(spec: Dict[str, object], name: str, path: Path) -> None:
    """Raise :class:`StorageError` for a collection in the retired layout.

    ``spec`` is a manifest entry or a ``create`` record; hash-partitioned
    collections carried ``shards`` > 1 there and spread over per-partition
    logs that this build no longer reads or merges.
    """
    shards = spec.get("shards", 1)
    if isinstance(shards, int) and shards > 1:
        raise StorageError(
            f"{path}: collection {name!r} uses the hash-partitioned layout "
            f"({shards} shards), which is no longer read; there is no "
            f"conversion path"
        )


def _quarantine_reason(directory: Path, name: str) -> str:
    """Why an earlier open quarantined ``name``, from the recorded finding."""
    for suffix in (".jsonl", ".wal"):
        finding = directory / f"{name}{suffix}{QUARANTINE_SUFFIX}" / "finding.json"
        try:
            return str(json.loads(faults.current_fs().read_text(finding))["reason"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return "flagged quarantined in the manifest"


def _quarantine_wal(
    wal_path: Path, reason: str, dark: Dict[str, str], report: RecoveryReport
) -> None:
    """Quarantine one collection's WAL and take the collection dark."""
    quarantine_file(wal_path, reason)
    dark[wal_path.stem] = reason
    report.quarantined.append(wal_path.stem)
    report.notes.append(f"{wal_path}: quarantined ({reason})")


def _persist_quarantine_flags(
    manifest: Dict[str, dict],
    manifest_path: Path,
    database: "Database",
    dark: Dict[str, str],
) -> None:
    """Record quarantine flags in the manifest (atomically rewritten).

    Collections that only existed as WALs get a minimal entry so the flag
    survives; everything else in the manifest is carried over verbatim.
    """
    collections = manifest.setdefault("collections", {})
    for collection_name in dark:
        entry = collections.setdefault(collection_name, {})
        if "indexes" not in entry:
            entry["indexes"] = database[collection_name].index_specs()
        entry["quarantined"] = True
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))


def _replay_operation(collection: "Collection", operation: Dict[str, object]) -> None:
    """Apply one committed WAL operation idempotently.

    Inserts become replaces when the ``_id`` already exists, and updates or
    deletes of absent documents are no-ops.  An update record holds the
    post-states of the paths it wrote, list elements by position, so
    replaying a stale log over a newer snapshot converges on the snapshot
    state instead of erroring.  The parsed documents are installed
    uncopied.  (Materializing the collection, done by the caller, is the
    whole effect of a ``create`` operation.)
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
