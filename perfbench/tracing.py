"""Spans recorded from the benchmark's side of each layer boundary.

The program under test has no tracing of its own, so the traced run wraps
the public callables each layer exposes (:data:`SPAN_TARGETS`) and records
one span per call: name, start, end, parent span and run id, plus the
counts taken at that boundary.  CPython's garbage collector is traced as
its own layer through ``gc.callbacks``, and storage I/O is counted through
a :class:`repro.faults.FileSystem` installed with ``faults.inject``.

Spans live in memory and are written out as one flat list when the run
ends.  A layer's self time is its span durations minus the part covered by
child spans, so the self times of all spans (the root included) add up to
the traced wall time.

A target that no longer exists is skipped with a note instead of failing
the run: a later refactor that renames a function then costs one
per-layer number, not the benchmark.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, "module:Qualified.attribute") pairs wrapped in a traced run.
#: Several targets may share a span name (aliases of one function, or two
#: calls that together form one stage).  ``@``-prefixed span names are
#: resolved per call by :meth:`Tracer._dynamic_name`.
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("core.generator.import", "repro.core.generator:TestDataGenerator.import_snapshot"),
    ("core.versioning.statistics", "repro.core.versioning:UpdateProcess.update_statistics"),
    ("core.heterogeneity.weights", "repro.core.heterogeneity:HeterogeneityScorer.from_clusters"),
    ("docstore.publish", "repro.core.generator:TestDataGenerator.publish"),
    ("docstore.commit", "repro.docstore.database:DurableDatabase.commit"),
    ("docstore.checkpoint", "repro.docstore.database:DurableDatabase.checkpoint"),
    ("docstore.checkpoint", "repro.docstore.database:DurableDatabase.close"),
    ("docstore.load", "repro.docstore.database:Database.load"),
    ("docstore.load", "repro.core.generator:TestDataGenerator.from_database"),
    ("core.customize.cut", "repro.core:customize"),
    ("datasets.io.csv", "repro.datasets.io:save_dataset"),
    ("datasets.io.csv", "repro.datasets.io:load_dataset"),
    ("@candidates", "repro.dedup.pipeline:DetectionPipeline.candidates"),
    ("@score", "repro.dedup.pipeline:DetectionPipeline.score"),
    ("dedup.matcher", "repro.dedup.matching:RecordMatcher.from_records"),
    ("dedup.sweep", "repro.dedup.evaluate:evaluate_thresholds"),
    ("dedup.sweep", "repro.dedup.pipeline:evaluate_thresholds"),
    ("dedup.sweep", "repro.dedup:evaluate_thresholds"),
)

#: (counter name, "module:Qualified.attribute") pairs counted per call
#: without a span: they run thousands of times per run, so a span each
#: would cost more than the work it measures.
COUNT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("core.customize.heterogeneity_checks",
     "repro.core.heterogeneity:HeterogeneityScorer.pair_heterogeneity"),
    ("docstore.docs_written", "repro.docstore.collection:Collection.replace_one"),
    ("docstore.docs_written", "repro.docstore.collection:Collection.insert_one"),
    ("docstore.docs_written", "repro.docstore.collection:Collection.insert_many"),
)

#: Measure class name -> metric suffix of ``dedup.score_s.<suffix>``.
MEASURE_NAMES = {
    "MongeElkan": "monge_elkan",
    "JaroWinkler": "jaro_winkler",
    "QgramJaccard": "qgram_jaccard",
}

ROOT = "workload"
GC_SPAN = "runtime.gc"


class Span:
    """One recorded call: ``[start, end)`` on the monotonic clock."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "counts",
                 "gc_start", "gc_s", "gc_collections")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, float] = {}
        #: Collector pauses directly inside this span (first start, sum).
        self.gc_start: Optional[float] = None
        self.gc_s = 0.0
        self.gc_collections = 0

    def as_dict(self, run_id: str) -> dict:
        return {
            "id": self.span_id,
            "run": run_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for ``module:Qualified.attr``.

    Raises ``LookupError`` when the module, class or attribute is gone.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name}: {exc}") from exc
    *path, attribute = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(f"{module_name}.{'.'.join(path)} does not exist")
        owner = getattr(owner, part)
    if isinstance(owner, type):
        raw = owner.__dict__.get(attribute)
    else:
        raw = getattr(owner, attribute, None)
    if raw is None:
        raise LookupError(f"{target} does not exist")
    return owner, attribute, raw


def counting_filesystem(counts: collections.Counter):
    """A :class:`repro.faults.FileSystem` counting fsyncs and bytes moved
    through the durability layer's I/O seam into ``counts``.  Defined on
    call so this module imports without the program on the path."""
    from repro import faults

    class Counting(faults.FileSystem):
        def write(self, handle, data):
            counts["docstore.bytes_written"] += len(data)
            return super().write(handle, data)

        def fsync(self, handle):
            counts["docstore.fsyncs"] += 1
            return super().fsync(handle)

        def fsync_dir(self, path):
            counts["docstore.fsyncs"] += 1
            return super().fsync_dir(path)

        def read_bytes(self, path):
            data = super().read_bytes(path)
            counts["docstore.bytes_read"] += len(data)
            return data

    return Counting()


class Tracer:
    """Records spans and counters for one traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.notes: List[str] = []
        #: Span names (and counters) whose target was missing.
        self.missing: List[str] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start: Optional[float] = None

    # ------------------------------------------------------------- spans

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(span.name == name for span in self._stack)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or not self._stack:
            return
        # A young collection runs every few hundred allocations; one span
        # each would dwarf the trace, so each span keeps a running total.
        owner = self._stack[-1]
        if owner.gc_start is None:
            owner.gc_start = self._gc_start
        owner.gc_s += time.perf_counter() - self._gc_start
        owner.gc_collections += 1
        self._gc_start = None
        if info.get("generation") == 2:
            self.counts["runtime.gc_full"] += 1

    # ---------------------------------------------------------- wrapping

    def _dynamic_name(self, name: str, args: tuple) -> str:
        if name == "@candidates":
            family = "lsh" if "lsh" in getattr(args[0], "candidate_passes", ()) else "snm"
            return f"dedup.{family}.candidates"
        if name == "@score":
            measure = type(getattr(args[3], "measure", None)).__name__
            return f"dedup.score.{MEASURE_NAMES.get(measure, measure)}"
        return name

    def _after(self, name: str, span: Span, args: tuple, result: Any) -> None:
        """Counts read at the boundary from the call and its result."""
        if name.endswith(".candidates"):
            _keys, stats = result
            span.counts["pairs_emitted"] = stats.pairs_emitted
            span.counts["pairs_unique"] = stats.unique_pairs
            span.counts["pairs_dropped"] = stats.pairs_dropped
            for pass_stats in stats.passes:
                buckets = getattr(pass_stats, "buckets", None)
                if buckets is not None:
                    span.counts["buckets"] = span.counts.get("buckets", 0) + buckets.buckets_total
                    span.counts["max_bucket"] = max(
                        span.counts.get("max_bucket", 0), buckets.max_bucket
                    )
        elif name.startswith("dedup.score."):
            span.counts["pairs_scored"] = len(result)
        elif name == "core.generator.import":
            span.counts["rows"] = result.rows
            span.counts["skipped"] = result.skipped
        elif name == "core.customize.cut":
            generator = args[0]
            span.counts["scanned"] = generator.record_count
            span.counts["kept"] = result.record_count

    def _wrap_call(self, name: str, function: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(tracer._dynamic_name(name, args))
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._after(span.name, span, args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _wrap_count(self, counter: str, function: Callable) -> Callable:
        tracer = self
        counts = self.counts

        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            if counter == "docstore.docs_written":
                # Loading a store re-inserts every stored document into
                # memory; only writes made by the workload itself count.
                if not tracer.inside("docstore.load"):
                    if function.__name__ == "insert_many":
                        counts[counter] += len(result)
                    elif function.__name__ == "replace_one":
                        counts[counter] += result
                    else:
                        counts[counter] += 1
            else:
                counts[counter] += 1
            return result

        counted.__wrapped__ = function  # type: ignore[attr-defined]
        return counted

    def _patch(self, label: str, target: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, attribute, raw = _resolve(target)
        except LookupError as exc:
            self.missing.append(label)
            self.notes.append(f"dropped {label}: wrapper target {exc}")
            return
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target, start GC timing and I/O counting."""
        for name, target in SPAN_TARGETS:
            self._patch(name, target, lambda fn, name=name: self._wrap_call(name, fn))
        for counter, target in COUNT_TARGETS:
            self._patch(counter, target, lambda fn, counter=counter: self._wrap_count(counter, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop GC timing."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()

    @contextlib.contextmanager
    def io_counting(self) -> Iterator[None]:
        from repro import faults

        with faults.inject(counting_filesystem(self.counts)):
            yield

    # ------------------------------------------------------------ output

    def span_list(self) -> List[dict]:
        """The flat span list.  The collector pauses inside one span are
        folded into one ``runtime.gc`` child whose duration is their sum
        and which starts at the first of them."""
        spans = [span.as_dict(self.run_id) for span in self.spans]
        for span in self.spans:
            if span.gc_collections:
                folded = Span(len(spans), GC_SPAN, span.gc_start, span.span_id)
                folded.end = span.gc_start + span.gc_s
                folded.counts["collections"] = span.gc_collections
                spans.append(folded.as_dict(self.run_id))
        return spans


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    covered: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - covered[span["id"]]
        for span in spans
    }


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, summed total time and call count."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own[span["id"]]
        row["total_s"] += span["end"] - span["start"]
        row["calls"] += 1
    return table


def render_table(table: Dict[str, Dict[str, float]], wall_s: float) -> str:
    """The per-layer self-time table as aligned text."""
    lines = [f"{'layer':<34} {'self s':>9} {'share':>7} {'calls':>7}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s else 0.0
        lines.append(
            f"{name:<34} {row['self_s']:>9.3f} {share:>7.1%} {int(row['calls']):>7}"
        )
    total = sum(row["self_s"] for row in table.values())
    lines.append(f"{'sum of self times':<34} {total:>9.3f} {'':>7} {'':>7}")
    lines.append(f"{'traced wall time':<34} {wall_s:>9.3f}")
    return "\n".join(lines)
