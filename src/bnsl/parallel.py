"""Phase-parallel execution over per-node and per-pair tasks.

The learning pipeline is synchronised only at phase barriers; within a
phase, tasks are pure functions of shared read-only inputs. A phase runs on
``k`` lanes, one per worker, and every lane runs the same loop: take the
next item index, run the task on a fresh engine, keep ``(index, result)``
and add up the test counts. Only the source of indices differs. A static
lane walks its contiguous span from :func:`partition`; a dynamic lane takes
the next index from a shared counter (a ``multiprocessing.Value`` created
before the fork), so lanes keep pulling items until the phase is drained.
The parent puts results back by index and builds one :class:`WorkerReport`
per lane, so output is identical for every worker count and for static
versus dynamic scheduling; only the per-lane test-count split varies.

Lanes run in fork()ed worker processes of a
``concurrent.futures.ProcessPoolExecutor``, sharing the parent's dataset
copy-on-write: the data are never modified by the algorithms, so no
locking or copying is needed. With one worker, at most one item, or no
fork, the same lanes run inline in the parent.

Failures end the phase instead of hanging it. A task that raises becomes a
:class:`PhaseTaskError` naming the phase and the task. A worker process
that dies (killed, or ``os._exit`` inside a task) breaks the pool, and the
resulting ``BrokenProcessPool`` becomes a :class:`PhaseTaskError` naming the
phase.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


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
    phase: str
    items: tuple
    task_fn: Callable
    engine_factory: Callable
    spans: tuple[tuple[int, int], ...]
    next_index: object = None  # shared counter of dynamic lanes; None for static

    def indices(self, lane: int) -> Iterator[int]:
        """The item indices of ``lane``: its static span, or claims on the
        shared counter until every item is taken."""
        if self.next_index is None:
            yield from range(*self.spans[lane])
            return
        while True:
            with self.next_index.get_lock():
                i = self.next_index.value
                self.next_index.value = i + 1
            if i >= len(self.items):
                return
            yield i


class PhaseTaskError(RuntimeError):
    """A phase task failed or its worker died; the message names the phase
    and, for a failed task, the task's item."""


def _run_lane(lane: int, ctx: _PhaseContext | None = None) -> tuple[list, int, int]:
    """Run one lane's items, each on a fresh engine so that a test memo lives
    for exactly one task; returns ``[(index, result)]`` and the summed
    requested and executed test counts. A forked worker passes no ``ctx``
    and uses the ``_PHASE_CTX`` it inherited."""
    if ctx is None:
        ctx = _PHASE_CTX
    done, count, executed = [], 0, 0
    for i in ctx.indices(lane):
        engine = ctx.engine_factory()
        try:
            done.append((i, ctx.task_fn(ctx.items[i], engine)))
        except Exception as exc:
            raise PhaseTaskError(f"phase {ctx.phase!r}: task {ctx.items[i]!r} failed: {exc}") from exc
        count += engine.counter.count
        executed += engine.counter.executed
    return done, count, executed


class ParallelExecutor:
    """Runs phase task batches across ``workers`` execution lanes.

    ``schedule`` picks static contiguous partitioning (the default,
    mirroring the coarse-grained architecture) or a dynamic queue from
    which each lane takes one item at a time. Telemetry for every phase run
    is appended to :attr:`telemetry`.
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
        lane and merged only at the barrier, i.e. here, after all lanes
        completed.
        """
        global _PHASE_CTX
        start = time.perf_counter()
        items = tuple(items)
        ctx = _PhaseContext(phase, items, task_fn, engine_factory, partition(items, self.workers).assignment)
        if self.workers == 1 or len(items) <= 1 or not _fork_available():
            lanes = [_run_lane(lane, ctx) for lane in range(self.workers)]
        else:
            fork = multiprocessing.get_context("fork")
            if self.schedule == "dynamic":
                ctx.next_index = fork.Value("q", 0)
            _PHASE_CTX = ctx
            try:
                # A fork-context pool starts all its workers at the first
                # submit, before its manager thread, so each child inherits
                # _PHASE_CTX and no running thread.
                with ProcessPoolExecutor(self.workers, mp_context=fork) as pool:
                    futures = [pool.submit(_run_lane, lane) for lane in range(self.workers)]
                    lanes = [f.result() for f in futures]
            except BrokenProcessPool as exc:
                raise PhaseTaskError(f"phase {phase!r}: a worker process died") from exc
            finally:
                _PHASE_CTX = None
        results = [None] * len(items)
        reports = []
        for lane, (done, count, executed) in enumerate(lanes):
            for i, result in done:
                results[i] = result
            reports.append(WorkerReport(lane, tuple(items[i] for i, _ in done), count, executed))
        seconds = time.perf_counter() - start
        self.telemetry.append(PhaseTelemetry(phase, seconds, reports))
        return PhaseResult(results, reports, seconds)

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
