"""Host speed, sampled on the benchmark's CPU while the workload runs.

On the shared 2-vCPU hosts this benchmark was built on, the speed of one
CPU switches between two levels about 1.6x apart in sub-second bursts,
and the share of slow time drifts over minutes, independently per CPU.
A fixed loop timed over 25-second windows spread 13% (interquartile range
over median) with nothing else running, so no run length within the
benchmark's budget makes raw wall times steady.

The run therefore pins itself and every child to one CPU and starts a
sampler there: every :data:`INTERVAL_S` it times :func:`probe_loop` (0.3
to 0.5 ms, about 1% of the CPU).  A time measured over ``[start, end)`` is
scaled by :func:`speed_factor`, the nominal probe time over the mean probe
time inside that interval: the result estimates the time on a host whose
probe loop always takes :data:`NOMINAL_PROBE_S`.  On the
host above, an arithmetic-loop sampler cut the 5-second-window spread of a
string-and-dict loop from 22% to 7.5%, while a sampler on the *other* CPU
did not help (16%), so the sampler has to share the workload's CPU.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import List, Tuple

#: Probe duration the scaled times refer to: the sampler's mean probe time
#: over the tuning runs on the reference host, so scaled times read like
#: wall times at that host's typical speed.  Probes run back to back take
#: 0.28-0.31 ms at the fast level and 0.49 ms at the median there.
NOMINAL_PROBE_S = 0.0006
INTERVAL_S = 0.045

Sample = Tuple[float, float]

_WORDS = [f"{i * 7919 % 1000:03d}-{'abcdefghij'[i % 10] * (3 + i % 9)}" for i in range(480)]
_DOCUMENT = json.dumps({word: [i, word.upper(), {"k": word[:3]}] for i, word in enumerate(_WORDS[:120])})


def probe_loop() -> int:
    """Fixed work shaped like the workloads': dict updates, string
    methods, a keyed sort and a JSON parse.  It tracked a real workload's
    slowdown better than a pure arithmetic loop (2.4% against 3.0%
    coefficient of variation over 19 six-second repetitions)."""
    counts: dict = {}
    for word in _WORDS:
        key = word[:3]
        counts[key] = counts.get(key, 0) + len(word.upper())
    ordered = sorted(_WORDS, key=lambda word: word[::-1])
    return len(ordered) + len(json.loads(_DOCUMENT)) + len(counts)


def host_reference() -> float:
    """Seconds 200 probe loops take back to back, now (``host.ref_s``)."""
    start = time.perf_counter()
    for _ in range(200):
        probe_loop()
    return time.perf_counter() - start


def run_sampler(out: Path) -> None:
    """Append ``start duration`` lines to ``out`` until terminated, or
    until the run that started it is gone."""
    parent = os.getppid()
    with open(out, "w", buffering=1, encoding="utf-8") as handle:
        while os.getppid() == parent:
            start = time.perf_counter()
            probe_loop()
            handle.write(f"{start!r} {time.perf_counter() - start!r}\n")
            time.sleep(INTERVAL_S)


def read_samples(path: Path) -> List[Sample]:
    samples = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 2:  # the last line may be cut by the termination
            samples.append((float(fields[0]), float(fields[1])))
    return samples


def speed_factor(samples: List[Sample], start: float, end: float) -> float:
    """Nominal over mean probe time in ``[start, end)``, widened until it
    holds three samples.  The slowest 5% are dropped: a probe the
    scheduler preempted measures the preemption, not the CPU."""
    margin = 0.0
    while True:
        inside = sorted(d for t, d in samples if start - margin <= t < end + margin)
        if len(inside) >= 3 or margin > 60.0:
            break
        margin += 0.1
    if not inside:
        return 1.0
    kept = inside[: len(inside) - len(inside) // 20]
    return NOMINAL_PROBE_S / (sum(kept) / len(kept))
