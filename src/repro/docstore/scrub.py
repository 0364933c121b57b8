"""Offline integrity scrubbing and quarantine repair for docstore files.

:func:`scrub_database` walks a persisted database directory and verifies
everything recovery would rely on — WAL record CRC frames, snapshot
checksums against the manifest, commit-epoch coverage — without modifying
a single byte.  The result is a
:class:`ScrubReport` of per-file :class:`ScrubFinding`\\ s, split into
errors (recovery would refuse or quarantine) and warnings (recovery would
repair silently: torn tails, uncommitted records, orphaned tmp files).

:func:`repair_database` is the other half: it moves quarantined files back
out of their ``<file>.quarantined/`` directories, re-runs recovery in
salvage mode (best-effort committed-prefix replay, per-line snapshot
repair), rewrites a clean checkpoint snapshot and clears every quarantine
flag.  Data inside regions salvage cannot parse is dropped — the
:class:`RepairReport` says exactly what.

Both entry points are exposed on
:class:`~repro.docstore.database.DurableDatabase` (``scrub()`` /
``repair()``) and as the ``scrub`` CLI subcommand.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import faults
from repro.docstore.errors import StorageCorruptError, StorageError
from repro.docstore.storage import (
    MANIFEST_NAME,
    QUARANTINE_SUFFIX,
    RecoveryReport,
    load_database,
    quarantine_dirs,
    save_database,
    snapshot_lines,
)
from repro.docstore.wal import COMMIT_FILE, read_committed_epoch, read_wal


@dataclass
class ScrubFinding:
    """One integrity problem (or oddity) found by the scrubber."""

    path: str
    #: Short machine-readable category: ``wal-corrupt``, ``wal-behind``,
    #: ``snapshot-checksum``, ``snapshot-parse``, ``quarantine``, ...
    kind: str
    detail: str
    #: ``"error"`` — recovery would refuse or quarantine; ``"warning"`` —
    #: recovery would silently repair or ignore.
    severity: str = "error"
    collection: Optional[str] = None

    def render(self) -> str:
        return f"[{self.severity}] {self.kind} {self.path}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "detail": self.detail,
            "severity": self.severity,
            "collection": self.collection,
        }


@dataclass
class ScrubReport:
    """Everything one :func:`scrub_database` pass established."""

    directory: Path
    committed_epoch: int = 0
    files_checked: int = 0
    bytes_checked: int = 0
    findings: List[ScrubFinding] = field(default_factory=list)
    #: Collections flagged quarantined in the manifest.
    quarantined: List[str] = field(default_factory=list)

    def _add(
        self,
        severity: str,
        path,
        kind: str,
        detail: str,
        collection: Optional[str] = None,
    ) -> None:
        self.findings.append(
            ScrubFinding(str(path), kind, detail, severity, collection)
        )

    def error(self, path, kind, detail, collection=None):
        self._add("error", path, kind, detail, collection)

    def warning(self, path, kind, detail, collection=None):
        self._add("warning", path, kind, detail, collection)

    @property
    def errors(self) -> List[ScrubFinding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> List[ScrubFinding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No errors and nothing quarantined (warnings allowed)."""
        return not self.errors and not self.quarantined

    @property
    def clean(self) -> bool:
        """Nothing at all to report."""
        return not self.findings and not self.quarantined

    def render(self) -> str:
        lines = [
            f"scrubbed {self.files_checked} file(s), "
            f"{self.bytes_checked} byte(s), committed epoch "
            f"{self.committed_epoch}"
        ]
        for name in sorted(self.quarantined):
            lines.append(f"collection {name!r} in quarantine")
        lines.extend(finding.render() for finding in self.findings)
        if self.clean:
            lines.append("no problems found")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "directory": str(self.directory),
            "committed_epoch": self.committed_epoch,
            "files_checked": self.files_checked,
            "bytes_checked": self.bytes_checked,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def scrub_database(directory: Path, name: str = "db", deep: bool = True) -> ScrubReport:
    """Verify a persisted database directory without modifying anything.

    Checks, in order: the commit-epoch file parses; the manifest parses;
    every snapshot matches its manifest CRC32/size (and, with ``deep``,
    parses line by line); no orphaned tmp files or quarantine directories
    linger; every WAL's committed region frames and checksums cleanly and
    reaches the database's committed epoch.  Raises :class:`StorageError`
    when ``directory``
    holds no database at all; every other problem becomes a finding.
    """
    fs = faults.current_fs()
    directory = Path(directory)
    report = ScrubReport(directory=directory)
    manifest_path = directory / MANIFEST_NAME
    wal_paths = sorted(directory.glob("*.wal")) if directory.is_dir() else []
    if not manifest_path.exists() and not wal_paths:
        raise StorageError(f"no database at {directory}")

    try:
        report.committed_epoch = read_committed_epoch(directory)
    except StorageCorruptError as exc:
        report.error(directory / COMMIT_FILE, "commit-epoch", str(exc))
    committed = report.committed_epoch

    manifest: Dict[str, dict] = {"collections": {}}
    if manifest_path.exists():
        report.files_checked += 1
        try:
            raw = fs.read_bytes(manifest_path)
            report.bytes_checked += len(raw)
            manifest = json.loads(raw.decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            report.error(manifest_path, "manifest", f"unparseable manifest: {exc}")
            manifest = {"collections": {}}
    global_epoch = int(manifest.get("epoch", 0) or 0)
    entries: Dict[str, dict] = manifest.get("collections", {})
    if not isinstance(entries, dict):  # pragma: no cover - defensive
        report.error(manifest_path, "manifest", "collections entry is not a mapping")
        entries = {}

    for collection_name in sorted(entries):
        spec = entries[collection_name] or {}
        flagged = bool(spec.get("quarantined"))
        if flagged:
            report.quarantined.append(collection_name)
            report.warning(
                manifest_path,
                "quarantine",
                f"collection {collection_name!r} flagged quarantined "
                f"(repair to lift)",
                collection=collection_name,
            )
        jsonl_path = directory / f"{collection_name}.jsonl"
        checksum = spec.get("checksum") or {}
        if not jsonl_path.exists():
            if checksum and not flagged:
                report.error(
                    jsonl_path,
                    "snapshot-missing",
                    "manifest records a snapshot checksum but the file is absent",
                    collection=collection_name,
                )
            continue
        report.files_checked += 1
        try:
            data = fs.read_bytes(jsonl_path)
        except OSError as exc:
            report.error(
                jsonl_path, "snapshot-unreadable", str(exc),
                collection=collection_name,
            )
            continue
        report.bytes_checked += len(data)
        expected_crc = checksum.get("crc32")
        expected_bytes = checksum.get("bytes")
        # Same window recovery honors: a checkpoint that died between its
        # snapshot renames and its manifest rename leaves the newer
        # snapshot beside a stale checksum — repairable, not corrupt.
        stale_ok = committed > global_epoch
        mismatch = None
        if expected_bytes is not None and len(data) != int(expected_bytes):
            mismatch = (
                f"size {len(data)} != manifest {int(expected_bytes)} byte(s)"
            )
        elif expected_crc is not None and zlib.crc32(data) != int(expected_crc):
            mismatch = f"crc32 {zlib.crc32(data)} != manifest {int(expected_crc)}"
        if mismatch is not None:
            if stale_ok:
                report.warning(
                    jsonl_path,
                    "snapshot-checksum",
                    f"{mismatch}; snapshot postdates the manifest "
                    f"(interrupted checkpoint)",
                    collection=collection_name,
                )
            else:
                report.error(
                    jsonl_path, "snapshot-checksum", mismatch,
                    collection=collection_name,
                )
        elif expected_crc is None:
            report.warning(
                jsonl_path,
                "snapshot-checksum",
                "no checksum recorded in manifest (pre-upgrade snapshot)",
                collection=collection_name,
            )
        if deep:
            _scrub_jsonl_lines(report, jsonl_path, data, collection_name)

    for orphan in sorted(directory.glob("*.tmp")):
        report.warning(
            orphan,
            "orphan-tmp",
            "orphaned tmp file from an interrupted atomic write "
            "(swept on next open)",
        )
    for qdir in quarantine_dirs(directory):
        detail = "damaged file awaiting repair"
        try:
            finding = json.loads(fs.read_text(qdir / "finding.json"))
            detail = str(finding.get("reason", detail))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            pass
        report.warning(qdir, "quarantine", detail)

    for wal_path in wal_paths:
        collection_name = wal_path.stem
        spec = entries.get(collection_name) or {}
        collection_epoch = int(spec.get("epoch", global_epoch) or 0)
        report.files_checked += 1
        try:
            report.bytes_checked += wal_path.stat().st_size
            recovery = read_wal(wal_path, committed, truncate_torn=False)
        except StorageCorruptError as exc:
            report.error(
                wal_path, "wal-corrupt", exc.reason, collection=collection_name
            )
            continue
        except OSError as exc:
            report.error(
                wal_path, "wal-unreadable", str(exc), collection=collection_name
            )
            continue
        for note in recovery.notes:
            report.warning(wal_path, "wal-tail", note, collection=collection_name)
        behind = (
            collection_name in entries
            and committed > collection_epoch
            and recovery.last_epoch < committed
        )
        if behind and not spec.get("quarantined"):
            report.error(
                wal_path,
                "wal-behind",
                f"committed records lost: log ends at epoch "
                f"{recovery.last_epoch}, database committed epoch "
                f"{committed}",
                collection=collection_name,
            )
    return report


def _scrub_jsonl_lines(
    report: ScrubReport, path: Path, data: bytes, collection_name: str
) -> None:
    """Deep pass: every snapshot line must decode and parse as JSON.

    The lines are the ones a load reads (:func:`snapshot_lines`).
    """
    for line_number, _document, problem in snapshot_lines(data):
        if problem:
            report.error(
                path,
                "snapshot-parse",
                f"line {line_number}: {problem}",
                collection=collection_name,
            )


# ------------------------------------------------------------------- repair


@dataclass
class RepairReport:
    """What :func:`repair_database` restored, salvaged and discarded."""

    directory: Path
    #: File names moved back out of their quarantine directories.
    restored: List[str] = field(default_factory=list)
    #: The salvage-mode recovery pass over the restored files.
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    committed_epoch: int = 0

    def render(self) -> str:
        lines = []
        if self.restored:
            lines.append(
                f"restored from quarantine: {', '.join(sorted(self.restored))}"
            )
        lines.append(self.recovery.render())
        lines.append("quarantine lifted; fresh snapshot written")
        return "\n".join(lines)


def repair_database(directory: Path, name: str = "db") -> RepairReport:
    """Salvage a damaged/degraded database in place and lift quarantine.

    Quarantined files are moved back beside their healthy siblings (unless
    a newer file of the same name exists), recovery re-runs in salvage
    mode — parseable committed WAL prefixes replay, snapshot lines load
    with per-line repair — and the result is written out as a fresh,
    checksummed checkpoint snapshot.  The WALs (now folded into the
    snapshot) and the emptied quarantine directories are then removed, so
    a subsequent open or :func:`scrub_database` pass starts clean.  What
    salvage could not parse is gone; the report's recovery notes say what.
    """
    fs = faults.current_fs()
    directory = Path(directory)
    report = RepairReport(directory=directory)
    for qdir in quarantine_dirs(directory):
        original = directory / qdir.name[: -len(QUARANTINE_SUFFIX)]
        damaged = qdir / original.name
        if damaged.exists() and not original.exists():
            fs.replace(damaged, original)
            report.restored.append(original.name)
    recovery = RecoveryReport()
    database = load_database(
        directory, name, report=recovery, truncate=True, salvage=True
    )
    report.recovery = recovery
    report.committed_epoch = recovery.committed_epoch
    # Stamp the salvage snapshot with the committed epoch so the replay
    # filter of any later load agrees the snapshot captures everything.
    database.committed_epoch = recovery.committed_epoch  # type: ignore[attr-defined]
    save_database(database, directory)
    for wal_path in sorted(directory.glob("*.wal")):
        fs.remove(wal_path)
    for qdir in quarantine_dirs(directory):
        for entry in sorted(qdir.iterdir()):
            try:
                fs.remove(entry)
            except OSError:  # pragma: no cover - permissions/races
                pass
        try:
            qdir.rmdir()
        except OSError:  # pragma: no cover - leftover unexpected entry
            pass
    return report
