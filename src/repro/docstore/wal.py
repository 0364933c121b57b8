"""Write-ahead logging and atomic file writes for the docstore.

The durability layer (see ``docs/durability.md``) keeps one WAL per
collection next to its JSONL snapshot:

* ``<collection>.jsonl``  — full snapshot, rewritten atomically at
  checkpoints;
* ``<collection>.wal``    — operations since the last checkpoint;
* ``COMMITTED``           — the database-wide last committed epoch.

WAL file format
---------------
An 8-byte magic header (:data:`WAL_MAGIC`) followed by records::

    +----------------+----------------+---------------------+
    | length  u32 LE | crc32   u32 LE | payload (length B)  |
    +----------------+----------------+---------------------+

The payload is UTF-8 JSON, one operation per record — ``insert`` /
``replace`` / ``delete`` / ``index`` data operations plus ``commit``
markers carrying the commit epoch.  The CRC32 covers the payload; each
append (one record, or a batch of framed records) is a single unbuffered
``write``, so a torn write can only damage the final record or a suffix
of the final batch.

Commit protocol: a data operation is *staged* the moment it is appended;
it becomes *committed* only once a ``commit`` marker with epoch ``e`` is
appended (and fsynced) to every collection's WAL **and** the ``COMMITTED``
file has been atomically rewritten to ``e``.  Recovery replays exactly the
operations covered by markers with epoch ``<= e`` and discards the rest,
which is what makes every commit all-or-nothing across collections.

Recovery policy (:func:`read_wal`):

* clean EOF — done;
* record extends past EOF, short length prefix, or a CRC/JSON failure with
  *no* parseable record after it — a torn tail: truncate, report, continue;
* CRC/JSON failure *followed by* a parseable record, or a committed epoch
  that recovery never reached — real corruption:
  :class:`~repro.docstore.errors.StorageCorruptError` with file, offset
  and reason.

All mutations go through the :mod:`repro.faults` filesystem shim, so every
fsync/rename/write in this module is a deterministic fault-injection
point.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple

from repro import faults
from repro.docstore.errors import StorageCorruptError, StorageError

#: Magic bytes identifying (and versioning) a docstore WAL file.
WAL_MAGIC = b"RWAL0001"

#: Bytes of the per-record header: u32 payload length + u32 CRC32.
_RECORD_PREFIX = struct.Struct("<II")

#: Name of the database-wide commit-epoch file.
COMMIT_FILE = "COMMITTED"


# ------------------------------------------------------------ atomic writes


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp → fsync → rename → dir fsync.

    Readers never observe a half-written file: they see either the old
    content or the new content, and after the directory fsync the rename
    itself is durable.
    """
    fs = faults.current_fs()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        handle = fs.open(tmp, "wb", buffering=0)
        try:
            fs.write(handle, data)
            fs.fsync(handle)
        finally:
            handle.close()
        fs.replace(tmp, path)
    except OSError:
        # A *survived* failure (EIO, ENOSPC, ...) must not leak the tmp
        # file; a simulated crash (CrashError, not OSError) leaves it as
        # an orphan for the next open to sweep, exactly like a real death.
        try:
            fs.remove(tmp)
        except OSError:
            pass
        raise
    fs.fsync_dir(path.parent)


def atomic_write_text(path: Path, text: str) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


# ------------------------------------------------------------- commit epoch


def read_committed_epoch(directory: Path) -> int:
    """The last committed epoch recorded in ``directory`` (0 when none)."""
    path = Path(directory) / COMMIT_FILE
    try:
        text = faults.current_fs().read_text(path)
    except FileNotFoundError:
        return 0
    try:
        return int(json.loads(text)["epoch"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise StorageCorruptError(path, f"unreadable commit-epoch file: {exc}")


def write_committed_epoch(directory: Path, epoch: int) -> None:
    """Atomically persist ``epoch`` as the last committed epoch."""
    atomic_write_text(Path(directory) / COMMIT_FILE, json.dumps({"epoch": epoch}))


# ------------------------------------------------------------------- writer


def encode_record(payload: bytes) -> bytes:
    """One framed WAL record: length + CRC32 + payload."""
    return _RECORD_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


class WalWriter:
    """Appends framed, checksummed operation records to one WAL file.

    ``fsync_batch`` is the durability/throughput knob: ``1`` fsyncs after
    every record (safest, slowest), ``N`` after every N records, ``0``
    only at commit markers.  Commit markers always fsync regardless —
    that is what makes an epoch durable.  The file handle is unbuffered,
    so every append reaches the OS immediately; ``fsync`` only controls
    when it reaches the platters.

    ``fsync_batch`` meters *appends*, and a :meth:`append_many` batch is
    deliberately one append — one group-commit durability unit — so a bulk
    batch fsyncs once at its end even under ``fsync_batch=1``.  This
    relaxation cannot weaken what recovery guarantees: staged records are
    replayed only when covered by a later fsynced commit marker and are
    discarded otherwise, so fsyncing staged data early narrows the window
    in which uncommitted (already discardable) work is lost, nothing more.
    Commit durability is identical on both paths.
    """

    def __init__(self, path: Path, fsync_batch: int = 0) -> None:
        if fsync_batch < 0:
            raise StorageError(f"fsync_batch must be >= 0, got {fsync_batch}")
        self.path = Path(path)
        self.fsync_batch = fsync_batch
        self._handle: Optional[IO[bytes]] = None
        self._unsynced = 0
        #: Data operations staged since the last commit marker.
        self.staged = 0
        #: Why the writer refuses further appends (set after a survived
        #: I/O failure such as ENOSPC); cleared by :meth:`reset`/:meth:`rotate`.
        self._poisoned: Optional[str] = None

    # The shim is looked up per operation, not captured at construction,
    # so a fault plan installed after the writer exists still intercepts.
    def _ensure_open(self) -> IO[bytes]:
        if self._handle is None or self._handle.closed:
            fs = faults.current_fs()
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = fs.open(self.path, "ab", buffering=0)
            if fresh:
                try:
                    fs.write(self._handle, WAL_MAGIC)
                except OSError as exc:
                    self._recover_failed_write(0, exc)
        return self._handle

    def _check_poisoned(self) -> None:
        if self._poisoned is not None:
            raise StorageError(
                f"{self.path}: writer disabled after I/O failure "
                f"({self._poisoned}); checkpoint or reopen to continue"
            )

    def _recover_failed_write(self, base: int, exc: OSError) -> None:
        """Roll the file back to the last good frame boundary at ``base``.

        A failed or partial frame write (ENOSPC, EIO) must never leave a
        torn frame for the *next* append to bury mid-file — recovery would
        then classify it as unrecoverable corruption instead of a torn
        tail.  Truncating back to the pre-append size restores a clean
        boundary; the writer is poisoned so nothing appends after a
        failure the caller might swallow.
        """
        self.close()
        try:
            faults.current_fs().truncate(self.path, base)
        except OSError:
            pass  # disk still failing; recovery will classify the tail
        self._poisoned = str(exc)
        raise StorageError(
            f"{self.path}: WAL append failed ({exc}); truncated back to "
            f"last good frame boundary at byte {base}"
        ) from exc

    def _append_blob(self, blob: bytes, appends: int) -> None:
        fs = faults.current_fs()
        handle = self._ensure_open()
        base = self.path.stat().st_size
        try:
            fs.write(handle, blob)
        except OSError as exc:
            self._recover_failed_write(base, exc)
        self._unsynced += appends
        if self.fsync_batch and self._unsynced >= self.fsync_batch:
            try:
                fs.fsync(handle)
            except OSError as exc:
                self._poisoned = str(exc)
                raise StorageError(
                    f"{self.path}: WAL fsync failed ({exc})"
                ) from exc
            self._unsynced = 0

    def append(self, operation: Dict[str, Any]) -> None:
        """Stage one operation record (fsynced per the batching policy)."""
        self._check_poisoned()
        payload = json.dumps(operation, ensure_ascii=False, sort_keys=True).encode(
            "utf-8"
        )
        self._append_blob(encode_record(payload), appends=1)
        if operation.get("op") != "commit":
            self.staged += 1

    def append_many(self, operations: List[Dict[str, Any]]) -> None:
        """Stage a batch of operation records with one write call.

        The framed records are concatenated and handed to the filesystem
        as a single ``write`` (so a torn write can still only damage the
        suffix of the batch), and the fsync policy is consulted once for
        the whole batch instead of once per record — the group-commit
        fast path behind bulk ``insert_many``.  The batch is one
        durability unit: with ``fsync_batch=1`` the per-op path fsyncs
        every record while this path fsyncs once per batch — an
        intentional relaxation (see the class docstring) that leaves
        commit durability untouched, because uncommitted staged records
        are discarded at recovery whether or not they were fsynced.
        """
        if not operations:
            return
        self._check_poisoned()
        chunks: List[bytes] = []
        data_records = 0
        for operation in operations:
            payload = json.dumps(
                operation, ensure_ascii=False, sort_keys=True
            ).encode("utf-8")
            chunks.append(encode_record(payload))
            if operation.get("op") != "commit":
                data_records += 1
        self._append_blob(b"".join(chunks), appends=len(operations))
        self.staged += data_records

    def log(self, op: str, payload: Dict[str, Any]) -> None:
        """Journal hook wired into :attr:`Collection._journal`."""
        record = {"op": op}
        record.update(payload)
        self.append(record)

    def log_many(self, op: str, payloads: List[Dict[str, Any]]) -> None:
        """Batch journal hook wired into :attr:`Collection._journal_many`."""
        records: List[Dict[str, Any]] = []
        for payload in payloads:
            record = {"op": op}
            record.update(payload)
            records.append(record)
        self.append_many(records)

    def commit(self, epoch: int) -> None:
        """Append a commit marker for ``epoch`` and make the file durable."""
        self.append({"op": "commit", "epoch": epoch})
        try:
            faults.current_fs().fsync(self._ensure_open())
        except OSError as exc:
            # The marker may or may not be durable; refuse further appends
            # until a checkpoint or reopen re-establishes a known state.
            self._poisoned = str(exc)
            raise StorageError(
                f"{self.path}: commit fsync failed ({exc})"
            ) from exc
        self._unsynced = 0
        self.staged = 0

    def reset(self) -> None:
        """Truncate the log to its header (after a checkpoint snapshot)."""
        fs = faults.current_fs()
        self.close()
        if self.path.exists():
            fs.truncate(self.path, len(WAL_MAGIC))
        self.staged = 0
        self._poisoned = None
        # Reopen lazily; append mode continues after the header.

    def rotate(self) -> None:
        """Replace the log with a fresh header via an atomic rename.

        The crash-safe variant of :meth:`reset` used by WAL compaction:
        a new header-only file is written beside the log, fsynced, and
        renamed over it.  Until the rename lands the old log is intact,
        and a stale log replaying onto the fresh checkpoint snapshot is
        idempotent, so a crash at *any* operation of the swap recovers
        cleanly.
        """
        self.close()
        atomic_write_bytes(self.path, WAL_MAGIC)
        self.staged = 0
        self._poisoned = None

    def close(self) -> None:
        """Close the underlying handle (uncommitted staged ops stay staged)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
        self._unsynced = 0


# ------------------------------------------------------------------- reader


@dataclass
class WalRecovery:
    """Outcome of reading one WAL file."""

    path: Path
    #: Committed data operations, in append order (commit markers excluded).
    operations: List[Dict[str, Any]] = field(default_factory=list)
    #: Last commit epoch whose marker was read (0 when none).
    last_epoch: int = 0
    #: Byte offset just past the last committed record (header size when none).
    committed_end: int = len(WAL_MAGIC)
    #: Byte offset a torn tail was truncated at, or ``None``.
    truncated_at: Optional[int] = None
    #: Staged-but-uncommitted operations that were discarded.
    discarded: int = 0
    #: Human-readable notes (torn tails, discards) for recovery reports.
    notes: List[str] = field(default_factory=list)


def _parse_records(
    data: bytes, start: int
) -> Tuple[List[Tuple[int, Dict[str, Any]]], Optional[int], str]:
    """Parse records from ``data[start:]``.

    Returns ``(records, bad_offset, reason)`` where ``records`` are the
    ``(offset, operation)`` pairs parsed before the first problem,
    ``bad_offset`` is where parsing stopped (``None`` on clean EOF) and
    ``reason`` describes the problem.
    """
    records: List[Tuple[int, Dict[str, Any]]] = []
    offset = start
    size = len(data)
    while offset < size:
        remaining = size - offset
        if remaining < _RECORD_PREFIX.size:
            return records, offset, f"short record prefix ({remaining} bytes)"
        length, crc = _RECORD_PREFIX.unpack_from(data, offset)
        if length > remaining - _RECORD_PREFIX.size:
            return records, offset, (
                f"record of {length} bytes extends past end of file"
            )
        payload = data[offset + _RECORD_PREFIX.size : offset + _RECORD_PREFIX.size + length]
        if zlib.crc32(payload) != crc:
            return records, offset, "checksum mismatch"
        try:
            operation = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return records, offset, f"unparseable payload: {exc}"
        if not isinstance(operation, dict) or "op" not in operation:
            return records, offset, "payload is not an operation object"
        offset += _RECORD_PREFIX.size + length
        records.append((offset, operation))
    return records, None, ""


def read_wal(
    path: Path,
    committed_epoch: int,
    truncate_torn: bool = True,
    *,
    best_effort: bool = False,
) -> WalRecovery:
    """Read, verify and classify one WAL file.

    ``committed_epoch`` is the database-wide epoch from the ``COMMITTED``
    file; only operations covered by a marker with epoch ``<=`` it are
    returned.  A torn tail is truncated on disk (when ``truncate_torn``)
    so later appends continue from a clean boundary; damage inside the
    committed region raises :class:`StorageCorruptError` — unless
    ``best_effort`` (the salvage path behind ``repair``), which instead
    returns the parseable committed prefix with a note describing where
    and why salvage stopped.
    """
    path = Path(path)
    recovery = WalRecovery(path=path)
    data = faults.current_fs().read_bytes(path)
    if not data:
        return recovery
    if len(data) < len(WAL_MAGIC):
        _truncate(recovery, 0, "file shorter than the WAL header", truncate_torn)
        return recovery
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        if best_effort:
            recovery.notes.append("bad WAL magic — salvaged nothing")
            return recovery
        raise StorageCorruptError(path, "bad WAL magic", offset=0)

    records, bad_offset, reason = _parse_records(data, len(WAL_MAGIC))
    if bad_offset is not None:
        # A parseable record *after* the damage means the middle of the log
        # is gone, not just its tail — that is unrecoverable corruption.
        # (A corrupt length prefix makes the scan-ahead start at a garbage
        # offset and find nothing, which correctly reads as a torn tail.)
        next_offset = bad_offset + _RECORD_PREFIX.size
        if len(data) - bad_offset >= _RECORD_PREFIX.size:
            length, _ = _RECORD_PREFIX.unpack_from(data, bad_offset)
            if length <= len(data) - bad_offset - _RECORD_PREFIX.size:
                next_offset = bad_offset + _RECORD_PREFIX.size + length
        followers, _, _ = _parse_records(data, next_offset)
        if followers:
            if not best_effort:
                raise StorageCorruptError(path, reason, offset=bad_offset)
            recovery.notes.append(
                f"salvage stopped at byte {bad_offset}: {reason} "
                f"({len(followers)} parseable record(s) after the damage lost)"
            )

    staged: List[Dict[str, Any]] = []
    sealed = False  # a marker past the committed epoch seals the rest off
    for end, operation in records:
        if not sealed and operation.get("op") == "commit":
            epoch = int(operation.get("epoch", 0))
            if epoch > committed_epoch:
                # The marker exists but the COMMITTED rename never landed:
                # this epoch — and everything after it — is uncommitted.
                sealed = True
                continue
            recovery.operations.extend(staged)
            recovery.last_epoch = epoch
            recovery.committed_end = end
            staged = []
        elif operation.get("op") != "commit":
            staged.append(operation)
    if staged:
        recovery.discarded += len(staged)
        recovery.notes.append(
            f"discarded {len(staged)} uncommitted operation(s) past epoch "
            f"{recovery.last_epoch}"
        )

    if bad_offset is not None:
        if bad_offset < recovery.committed_end:  # pragma: no cover - defensive
            raise StorageCorruptError(path, reason, offset=bad_offset)
        _truncate(recovery, bad_offset, f"torn tail: {reason}", truncate_torn)
    elif truncate_torn and recovery.committed_end < len(data):
        # Uncommitted staged records: cut them off so they can never be
        # retroactively committed by a later marker.
        _do_truncate(recovery, recovery.committed_end)
    return recovery


def _truncate(recovery: WalRecovery, offset: int, reason: str, enabled: bool) -> None:
    recovery.notes.append(f"{reason} (offset {offset})")
    if enabled:
        # Never keep a torn tail *and* uncommitted records before it.
        _do_truncate(recovery, min(offset, max(recovery.committed_end, len(WAL_MAGIC))))


def _do_truncate(recovery: WalRecovery, offset: int) -> None:
    try:
        faults.current_fs().truncate(recovery.path, offset)
    except OSError as exc:
        recovery.notes.append(f"could not truncate to offset {offset}: {exc}")
    else:
        recovery.truncated_at = offset
