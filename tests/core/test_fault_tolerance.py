"""Tests for the fault-tolerant shard runner (:func:`run_shards`).

Worker functions live at module level so the process pool can pickle
them.  Workers that must *crash* do so only inside a pool worker
(``multiprocessing.parent_process() is not None``), which lets the same
function succeed when the runner degrades to in-process execution.
"""

import multiprocessing
import os
import time
import warnings

import pytest

from repro.core import parallel
from repro.core.parallel import ParallelDegradedWarning, run_shards


def _double(value):
    return value * 2


def _record_call(counter_dir, value):
    """Append one file per invocation so tests can count attempts."""
    os.makedirs(counter_dir, exist_ok=True)
    with open(os.path.join(counter_dir, f"{time.monotonic_ns()}-{os.getpid()}"), "w"):
        pass
    return value


def _always_crash(value):
    if multiprocessing.parent_process() is not None:
        os._exit(1)  # hard-kill the pool worker; inline execution succeeds
    return value


def _crash_once(sentinel, value):
    if multiprocessing.parent_process() is not None:
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as handle:
                handle.write("crashed")
            os._exit(1)
    return value


def _raise_value_error(counter_dir, value):
    _record_call(counter_dir, value)
    raise ValueError(f"deterministic bug for {value}")


class TestInProcess:
    def test_zero_workers_runs_inline(self):
        assert run_shards(_double, [(1,), (2,), (3,)], max_workers=0) == [2, 4, 6]

    def test_none_workers_runs_inline(self):
        assert run_shards(_double, [(5,)], max_workers=None) == [10]

    def test_empty_shards(self):
        assert run_shards(_double, [], max_workers=2) == []


@pytest.fixture()
def no_backoff(monkeypatch):
    """Keep the fixed retry policy but skip its sleeps."""
    monkeypatch.setattr(parallel, "_BACKOFF", 0.0)


class TestRetries:
    def test_results_in_shard_order(self):
        results = run_shards(_double, [(3,), (1,), (2,)], max_workers=2)
        assert results == [6, 2, 4]

    def test_crash_retries_then_succeeds(self, tmp_path, no_backoff):
        sentinel = str(tmp_path / "crashed-once")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any degradation warning fails
            results = run_shards(_crash_once, [(sentinel, 7)], max_workers=1)
        assert results == [7]
        assert os.path.exists(sentinel)

    def test_persistent_crash_degrades_with_warning(self, no_backoff):
        with pytest.warns(ParallelDegradedWarning) as caught:
            results = run_shards(
                _always_crash,
                [(11,), (22,)],
                max_workers=2,
                label="test stage",
            )
        assert results == [11, 22]  # recomputed in-process, nothing lost
        # On small machines a WorkerClampWarning may precede the
        # degradation warning; pick out the one under test.
        warning = next(
            w.message
            for w in caught
            if isinstance(w.message, ParallelDegradedWarning)
        )
        assert warning.label == "test stage"
        assert sorted(warning.shard_indices) == [0, 1]
        assert warning.attempts == parallel._MAX_RETRIES + 1  # initial + retries
        assert warning.cause is not None

    def test_deterministic_exception_propagates_without_retry(
        self, tmp_path, no_backoff
    ):
        counter = str(tmp_path / "calls")
        with pytest.raises(ValueError, match="deterministic bug"):
            run_shards(_raise_value_error, [(counter, 1)], max_workers=1)
        assert len(os.listdir(counter)) == 1  # exactly one attempt, no retries
