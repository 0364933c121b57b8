"""Inputs built from the seed, once, before any timed run.

A register is simulated from the seed (``simulate``); the workloads that
need more get the ``generate --stats`` store of that register and, for
``evaluate``, its NC1-NC3 cuts (``customize``).  All of it is made by the
CLI's own commands, run in a process of its own, so ``votersim`` never
enters a timed run or its set-up time.

Inputs are cached per (register size, seed) below the benchmark's work
directory, so a later run on the same seed reuses them; only the most
recent few are kept.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path
from typing import Dict

from checks import file_digest
from workloads import NC_CUTS

#: Initial voters of the simulated register, per workload.  The register
#: is simulated for eight years with two snapshots a year (the CLI's
#: defaults), giving about 5.3 records per initial voter in the store.
VOTERS = {"ingest": 400, "evaluate": 1000, "customize_detect": 1000}
YEARS = 8

#: Input sets kept in the cache (6 to 30 MB each at the sizes above).
KEEP = 6

#: What each workload reads, in the order it has to be built.
PARTS = {
    "ingest": ("snapshots",),
    "evaluate": ("snapshots", "store", "cuts"),
    "customize_detect": ("snapshots", "store"),
}


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    if code:
        raise RuntimeError(f"ncvoter-testdata {' '.join(argv)} exited {code}")


def _make(part: str, base: Path, target: Path, seed: int, voters: int) -> None:
    if part == "snapshots":
        _cli("simulate", "--out", target, "--voters", voters, "--years", YEARS, "--seed", seed)
    elif part == "store":
        _cli("generate", "--snapshots", base / "snapshots", "--store", target, "--stats")
    else:
        target.mkdir()
        for name, lo, hi in NC_CUTS:
            _cli("customize", "--store", base / "store", "--out", target / f"{name}.csv",
                 "--h-lo", lo, "--h-hi", hi)


def build(cache: Path, workload: str, seed: int, voters: int) -> Dict[str, object]:
    """Make (or reuse) the workload's inputs; returns their path and digests."""
    base = cache / f"v{voters}-y{YEARS}-s{seed}"
    base.mkdir(parents=True, exist_ok=True)
    for part in PARTS[workload]:
        target = base / part
        if target.is_dir():
            continue
        partial = base / f"{part}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        _make(part, base, partial, seed, voters)
        os.replace(partial, target)
    os.utime(base)
    for stale in sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime)[:-KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return {
        "path": str(base),
        "voters": voters,
        "years": YEARS,
        "digests": {
            part: file_digest([p for p in (base / part).rglob("*") if p.is_file()], base / part)
            for part in PARTS[workload]
        },
    }
