"""Alternating parent/change pairs of the pipeline benchmark.

Run from the root of a checkout::

    python3 benchmarks/perfbench_pairs.py --parent HEAD --workload ingest --seed 21

The parent revision is exported with ``git archive`` below
``.perfbench/pairs-<commit>/`` (reused when already there).  Each pair runs
``python3 perfbench/run.py --seconds 25 --trace 0`` once on that export and
once on the working tree; odd pairs run the parent first, even pairs the
change, so neither side always meets the warmer machine.  Every run prints
one line with its end-to-end metrics and output digests.  Then, per
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles
and the metric's verdict against its bound (choosing-metrics guide,
section 6.5; see :func:`verdict`): ``within bound``, ``worse than bound``
or ``unresolved``.  Then whether every pair's output digests equal the
parent's, whether both sides of every pair ran on the same inputs (the
input digests each run's ``perfbench env`` line prints), and for ``--metric`` the pairs the change won (ties count for
neither side) and whether the gain rule of the guide (section 8) holds:
the change wins at least nine tenths of the pairs, and the medians differ,
in the better direction, by more than the distance between the parent's
quartiles.

Exits 1 when any run is not ``correct`` or prints no result, or when a
metric is worse than its bound; else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export_revision(revision: str) -> Path:
    """The checkout of ``revision`` below ``.perfbench/``, exported once."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    target = ROOT / ".perfbench" / f"pairs-{commit[:12]}"
    if not (target / "perfbench" / "run.py").exists():
        archive = subprocess.run(
            ["git", "archive", "--format=tar", commit],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        target.mkdir(parents=True, exist_ok=True)
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def run_once(
    checkout: Path, workload: str, seed: int
) -> Tuple[Optional[dict], str, Dict[str, str]]:
    """One untraced run's result object (``None`` when it printed none),
    its output digests line and its input digests (``{}`` when it printed
    no ``perfbench env`` line)."""
    process = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "25", "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = process.stdout.strip().splitlines()
    digests = next(
        (line.split(" ", 2)[2] for line in lines if line.startswith("perfbench digests ")),
        "",
    )
    inputs = next(
        (
            json.loads(line.split(" ", 2)[2]).get("inputs", {})
            for line in lines if line.startswith("perfbench env ")
        ),
        {},
    )
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(process.stdout[-2000:] + process.stderr[-2000:])
        return None, digests, inputs
    return (result if isinstance(result, dict) else None), digests, inputs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def gain_holds(
    parent: List[float], change: List[float], higher_is_better: bool
) -> Tuple[int, float, float, bool]:
    """``(wins, median gap, parent quartile spread, rule holds)`` over pairs.

    ``parent[i]`` and ``change[i]`` are pair ``i``.  The gap is signed so
    that a positive one favours the change.
    """
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - parent_median)
    needed = math.ceil(0.9 * len(parent))
    return wins, gap, q3 - q1, wins >= needed and gap > q3 - q1


def verdict(
    parent: List[float], change: List[float], higher_is_better: bool, bound: float
) -> str:
    """Whether the change keeps a metric within its bound.

    ``bound`` is the share of the parent's median by which the change's
    median may be worse.  ``unresolved`` when the parent's quartile spread
    is wider than the bound (as the same share of its median) and not every
    change run beats every parent run; else ``worse than bound`` when the
    change's median is worse than the parent's by more than the bound;
    else ``within bound``.
    """
    sign = 1.0 if higher_is_better else -1.0
    q1, parent_median, q3 = quartiles(parent)
    allowed = bound * abs(parent_median)
    beats_all = all(sign * (new - old) > 0 for new in change for old in parent)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    if sign * (parent_median - quartiles(change)[1]) > allowed:
        return "worse than bound"
    return "within bound"


def digests_differ(digests: Dict[str, List[str]]) -> List[int]:
    """The (1-based) pairs whose change digests differ from the parent's."""
    return [
        pair
        for pair, (old, new) in enumerate(zip(digests["parent"], digests["change"]), 1)
        if old != new
    ]


def inputs_differ(inputs: Dict[str, List[Dict[str, str]]]) -> List[Tuple[int, List[str]]]:
    """The (1-based) pairs whose change ran on other inputs than the
    parent, each with the names of the inputs whose digests differ."""
    differ = []
    for pair, (old, new) in enumerate(zip(inputs["parent"], inputs["change"]), 1):
        names = sorted(name for name in set(old) | set(new) if old.get(name) != new.get(name))
        if names:
            differ.append((pair, names))
    return differ


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--workload", default="ingest")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="throughput", help="metric the gain is claimed on")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric must be one of {sorted(better)}")
    checkouts = {"parent": export_revision(args.parent), "change": ROOT}
    #: Per side and metric, one value per pair (``None``: not reported).
    values: Dict[str, Dict[str, List[Optional[float]]]] = {
        side: {name: [] for name in better} for side in SIDES
    }
    digests: Dict[str, List[str]] = {side: [] for side in SIDES}
    inputs: Dict[str, List[Dict[str, str]]] = {side: [] for side in SIDES}
    units: Dict[str, str] = {}
    ok = True
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result, digest, used = run_once(checkouts[side], args.workload, args.seed)
            digests[side].append(digest)
            inputs[side].append(used)
            if result is None or result.get("correct") is not True:
                ok = False
            metrics = (result or {}).get("metrics", {})
            for name in better:
                values[side][name].append(metrics.get(name, {}).get("value"))
                if name in metrics:
                    units[name] = metrics[name]["unit"]
            shown = " ".join(
                f"{name}={metrics[name]['value']:.4g}" for name in better if name in metrics
            )
            correct = None if result is None else result.get("correct")
            failed = None if result is None else result.get("failed")
            print(
                f"pair {pair:2d} {side:6s} correct={correct} failed={failed} {shown} "
                f"digests={digest}",
                flush=True,
            )

    print(f"\n{args.workload}/{args.seed}, {args.pairs} pairs, parent {args.parent}")
    print(
        f"{'metric':24s} {'unit':8s} {'parent q1 / median / q3':>30s} "
        f"{'change q1 / median / q3':>30s}  verdict (bound)"
    )
    for name in better:
        runs = [[v for v in values[side][name] if v is not None] for side in SIDES]
        if not all(runs):
            continue
        cells = [" / ".join(f"{v:.4g}" for v in quartiles(side_runs)) for side_runs in runs]
        judged = verdict(runs[0], runs[1], better[name] == "higher", bounds[name])
        if judged == "worse than bound":
            ok = False
        print(
            f"{name:24s} {units[name]:8s} {cells[0]:>30s} {cells[1]:>30s}  "
            f"{judged} ({bounds[name]:.0%})"
        )
    differ = digests_differ(digests)
    print(
        "\ndigests: " + (
            f"differ from the parent's in pairs {', '.join(map(str, differ))}"
            if differ else "every pair equal to the parent's"
        )
    )
    other_inputs = inputs_differ(inputs)
    print(
        "inputs: " + (
            "differ from the parent's in " + ", ".join(
                f"pair {pair} ({', '.join(names)})" for pair, names in other_inputs
            )
            if other_inputs else "every pair ran on the parent's inputs"
        )
    )

    pairs = [
        (old, new)
        for old, new in zip(values["parent"][args.metric], values["change"][args.metric])
        if old is not None and new is not None
    ]
    if len(pairs) == args.pairs:
        parent, change = [old for old, _ in pairs], [new for _, new in pairs]
        wins, gap, spread, holds = gain_holds(parent, change, better[args.metric] == "higher")
        print(
            f"\n{args.metric}: change wins {wins}/{len(pairs)} pairs; median gap "
            f"{gap:+.4g} (positive favours the change) against parent quartile "
            f"spread {spread:.4g}: gain rule {'holds' if holds else 'does not hold'}"
        )
    else:
        print(f"\n{args.metric}: not reported by every run; no gain rule applied")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
