"""Phase-parallel execution over per-node and per-triple tasks.

The learning pipeline is synchronised only at phase barriers; within a
phase, tasks are pure functions of shared read-only inputs and are mapped
across workers. Results are merged in canonical item order regardless of
completion order, so output is identical for every worker count and for
static versus dynamic scheduling; only the per-worker test-count split
varies.

Workers are fork()ed processes sharing the parent's dataset copy-on-write:
the data are never modified by the algorithms, so no locking or copying is
needed. Where fork is unavailable the executor degrades to sequential
execution with the same merge semantics.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class TaskBatch:
    """Contiguous balanced assignment of ordered items to workers."""

    items: tuple
    assignment: tuple[tuple[int, int], ...]  # per worker: [lo, hi) into items


@dataclass
class WorkerReport:
    """One worker's share of a phase: its items, the tests they requested
    and the tests the engines executed (requests minus memo hits)."""

    worker: int
    items: tuple
    test_count: int
    executed: int = 0


@dataclass
class PhaseTelemetry:
    phase: str
    seconds: float
    reports: list[WorkerReport]

    @property
    def test_count(self) -> int:
        return sum(r.test_count for r in self.reports)

    @property
    def executed(self) -> int:
        return sum(r.executed for r in self.reports)


@dataclass
class PhaseResult:
    results: list
    reports: list[WorkerReport]
    seconds: float


def partition(items: Sequence, k: int) -> TaskBatch:
    """Split ``items`` into ``k`` contiguous ranges whose sizes differ by at
    most one; the first ``len(items) mod k`` workers get the larger share."""
    if k < 1:
        raise ValueError("worker count must be at least 1")
    items = tuple(items)
    base, extra = divmod(len(items), k)
    spans = []
    lo = 0
    for w in range(k):
        size = base + (1 if w < extra else 0)
        spans.append((lo, lo + size))
        lo += size
    return TaskBatch(items, tuple(spans))


# Shared phase context, inherited by forked workers. Set by run_phase in the
# parent immediately before the pool forks; avoids pickling the dataset.
_PHASE_CTX: "_PhaseContext | None" = None


@dataclass
class _PhaseContext:
    items: tuple
    task_fn: Callable
    engine_factory: Callable


class PhaseTaskError(RuntimeError):
    """A phase task failed; the message names the offending task id."""


def _call_task(ctx: _PhaseContext, i: int, engine):
    try:
        return ctx.task_fn(ctx.items[i], engine)
    except Exception as exc:
        raise PhaseTaskError(f"task {ctx.items[i]!r} failed: {exc}") from exc


def _run_range(ctx: _PhaseContext, lo: int, hi: int) -> tuple[list, int, int]:
    """Run items [lo, hi), each on a fresh engine so that a test memo lives
    for exactly one task; returns the results and the summed requested and
    executed test counts."""
    results, count, executed = [], 0, 0
    for i in range(lo, hi):
        engine = ctx.engine_factory()
        results.append(_call_task(ctx, i, engine))
        count += engine.counter.count
        executed += engine.counter.executed
    return results, count, executed


def _run_span(span: tuple[int, int]) -> tuple[list, int, int]:
    return _run_range(_PHASE_CTX, *span)


def _run_item(i: int) -> tuple[int, object, int, int]:
    results, count, executed = _run_range(_PHASE_CTX, i, i + 1)
    return os.getpid(), results[0], count, executed


class ParallelExecutor:
    """Runs phase task batches across ``workers`` execution lanes.

    ``schedule`` picks static contiguous partitioning (the default,
    mirroring the coarse-grained architecture) or a dynamic queue handing
    one item at a time to idle workers. Telemetry for every phase run is
    appended to :attr:`telemetry`.
    """

    def __init__(self, workers: int = 1, schedule: str = "static"):
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        if schedule not in ("static", "dynamic"):
            raise ValueError(f"unknown schedule: {schedule!r}")
        self.workers = workers
        self.schedule = schedule
        self.telemetry: list[PhaseTelemetry] = []

    def run_phase(
        self,
        phase: str,
        items: Sequence,
        task_fn: Callable,
        engine_factory: Callable,
    ) -> PhaseResult:
        """Execute ``task_fn(item, engine)`` for every item.

        Every task gets a private engine (and therefore a private test
        counter and memo) from ``engine_factory``; counts are summed per
        worker and merged only at the barrier, i.e. here, after all tasks
        completed.
        """
        start = time.perf_counter()
        items = tuple(items)
        if self.workers == 1 or len(items) <= 1 or not _fork_available():
            result = self._run_sequential(items, task_fn, engine_factory)
        elif self.schedule == "static":
            result = self._run_static(items, task_fn, engine_factory)
        else:
            result = self._run_dynamic(items, task_fn, engine_factory)
        seconds = time.perf_counter() - start
        out = PhaseResult(result[0], result[1], seconds)
        self.telemetry.append(PhaseTelemetry(phase, seconds, out.reports))
        return out

    def _run_sequential(self, items, task_fn, engine_factory):
        batch = partition(items, self.workers)
        ctx = _PhaseContext(items, task_fn, engine_factory)
        results = []
        reports = []
        for w, (lo, hi) in enumerate(batch.assignment):
            chunk, count, executed = _run_range(ctx, lo, hi)
            results.extend(chunk)
            reports.append(WorkerReport(w, items[lo:hi], count, executed))
        return results, reports

    def _run_static(self, items, task_fn, engine_factory):
        global _PHASE_CTX
        batch = partition(items, self.workers)
        _PHASE_CTX = _PhaseContext(items, task_fn, engine_factory)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=self.workers) as pool:
                chunk_results = pool.map(_run_span, batch.assignment, chunksize=1)
        finally:
            _PHASE_CTX = None
        results = []
        reports = []
        for w, ((lo, hi), (chunk, count, executed)) in enumerate(zip(batch.assignment, chunk_results)):
            results.extend(chunk)
            reports.append(WorkerReport(w, items[lo:hi], count, executed))
        return results, reports

    def _run_dynamic(self, items, task_fn, engine_factory):
        global _PHASE_CTX
        _PHASE_CTX = _PhaseContext(items, task_fn, engine_factory)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=self.workers) as pool:
                per_item = pool.map(_run_item, range(len(items)), chunksize=1)
        finally:
            _PHASE_CTX = None
        results = [r for _, r, _, _ in per_item]
        by_pid: dict[int, tuple[list, int, int]] = {}
        for (pid, _, count, executed), item in zip(per_item, items):
            assigned, total, total_executed = by_pid.get(pid, ([], 0, 0))
            by_pid[pid] = (assigned + [item], total + count, total_executed + executed)
        reports = [
            WorkerReport(w, tuple(assigned), count, executed)
            for w, (pid, (assigned, count, executed)) in enumerate(sorted(by_pid.items()))
        ]
        return results, reports

    def total_tests(self) -> int:
        return sum(t.test_count for t in self.telemetry)

    def total_executed(self) -> int:
        return sum(t.executed for t in self.telemetry)

    def reset_telemetry(self) -> None:
        self.telemetry = []


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ScalingPoint:
    """Normalised running time for one worker count."""

    ratio: float
    overhead: float


def normalized_running_time(times: dict[int, float]) -> dict[int, ScalingPoint]:
    """Normalise wall times against the single-worker baseline.

    ratio(k) = time(k) / time(1); overhead(k) = ratio(k) - 1/k.
    """
    if 1 not in times:
        raise ValueError("the single-worker baseline (k = 1) is required")
    base = times[1]
    if base <= 0:
        raise ValueError("baseline time must be positive")
    out = {}
    for k, t in sorted(times.items()):
        if k < 1:
            raise ValueError("worker counts must be at least 1")
        ratio = t / base
        out[k] = ScalingPoint(ratio=ratio, overhead=ratio - 1.0 / k)
    return out
