"""Phase-parallel execution over per-node and per-pair tasks.

The learning pipeline is synchronised only at phase barriers; within a
phase, tasks are pure functions of shared read-only inputs. A phase runs on
``k`` lanes, one per worker but no more than it has items (and at least
one), so no idle lane is forked. Every lane runs the same loop: take the
next item index, run the task on a fresh engine, keep ``(index, result)``
and add up the test count. Only the source of indices differs. A static
lane walks its contiguous span from :func:`partition`; a dynamic lane takes
the next index from a shared counter (a ``multiprocessing.Value`` created
before the fork), so lanes keep pulling items until the phase is drained.
The parent puts results back by index and builds one :class:`WorkerReport`
per lane, so output and the phase's test count are identical for every
worker count and for static versus dynamic scheduling; only the per-lane
test-count split varies.

Each lane runs in its own ``os.fork()`` child, which inherits the phase
(items, task and engine factory, so tasks may be closures) and shares the
parent's dataset copy-on-write: the data are never modified by the
algorithms, so no locking or copying is needed. The child sends its
result back as one framed, pickled record over its own
``multiprocessing.Pipe`` and leaves through ``os._exit``. With one lane or
no fork, the same lanes run inline in the parent.

Failures end the phase instead of hanging it. A task that raises becomes a
:class:`PhaseTaskError` naming the phase and the task; a lane whose pipe
closes without a whole record (the child was killed, or called
``os._exit`` inside a task) becomes a :class:`PhaseTaskError` naming the
phase and the child's exit status. The first failure kills the other
children at once, and so does anything that interrupts the parent; no
child outlives its phase. A parent killed outright cannot kill its
children, so a child leaves before its next item once it finds itself
orphaned.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass
class WorkerReport:
    """One worker's share of a phase: its items and the tests they requested."""

    worker: int
    items: tuple
    test_count: int


@dataclass
class PhaseTelemetry:
    phase: str
    seconds: float
    reports: list[WorkerReport]

    @property
    def test_count(self) -> int:
        return sum(r.test_count for r in self.reports)


@dataclass
class PhaseResult:
    results: list
    reports: list[WorkerReport]


def partition(items: Sequence, k: int) -> tuple[tuple[int, int], ...]:
    """Split ``items`` into ``k`` contiguous ``[lo, hi)`` index ranges whose
    sizes differ by at most one; the first ``len(items) mod k`` workers get
    the larger share."""
    if k < 1:
        raise ValueError("worker count must be at least 1")
    base, extra = divmod(len(items), k)
    spans = []
    lo = 0
    for w in range(k):
        size = base + (1 if w < extra else 0)
        spans.append((lo, lo + size))
        lo += size
    return tuple(spans)


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


def _run_lane(lane: int, ctx: _PhaseContext, parent: int | None = None) -> tuple[list, int]:
    """Run one lane's items, each on a fresh engine whose counter and caches
    live for that task; returns ``[(index, result)]`` and the summed test
    count. A forked lane passes its parent's pid, and leaves through
    ``os._exit`` once that is no longer its parent."""
    done, count = [], 0
    for i in ctx.indices(lane):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        engine = ctx.engine_factory()
        try:
            done.append((i, ctx.task_fn(ctx.items[i], engine)))
        except Exception as exc:
            raise PhaseTaskError(f"phase {ctx.phase!r}: task {ctx.items[i]!r} failed: {exc}") from exc
        count += engine.counter.count
    return done, count


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
        counter) from ``engine_factory``; counts are summed per
        lane and merged only at the barrier, i.e. here, after all lanes
        completed.
        """
        start = time.perf_counter()
        items = tuple(items)
        k = max(1, min(self.workers, len(items)))
        ctx = _PhaseContext(phase, items, task_fn, engine_factory, partition(items, k))
        if k == 1 or not _fork_available():
            lanes = [_run_lane(lane, ctx) for lane in range(k)]
        else:
            if self.schedule == "dynamic":
                ctx.next_index = multiprocessing.get_context("fork").Value("q", 0)
            lanes = _fork_lanes(ctx, k)
        results = [None] * len(items)
        reports = []
        for lane, (done, count) in enumerate(lanes):
            for i, result in done:
                results[i] = result
            reports.append(WorkerReport(lane, tuple(items[i] for i, _ in done), count))
        self.telemetry.append(PhaseTelemetry(phase, time.perf_counter() - start, reports))
        return PhaseResult(results, reports)

    def total_tests(self) -> int:
        return sum(t.test_count for t in self.telemetry)

    def reset_telemetry(self) -> None:
        self.telemetry = []


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _fork_lanes(ctx: _PhaseContext, k: int) -> list:
    """Run lanes ``0..k-1`` in one forked child each and return their
    :func:`_run_lane` results in lane order.

    Each child sends one record over its own ``multiprocessing.Pipe``:
    ``("ok", lane result)`` or ``("error", message)``. The parent waits on
    every pipe at once and receives each record whole. An error record, or
    a pipe that closes before a whole record came, raises
    :class:`PhaseTaskError`. Whatever way this returns or raises (an
    interrupt included), every child still running is killed, and every
    child is reaped.
    """
    children = {}  # reader -> (lane, pid until reaped)
    parent = os.getpid()
    _flush_stdio()  # or a child's exit would write the parent's buffer again
    try:
        for lane in range(k):
            reader, writer = multiprocessing.Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                reader.close()
                _lane_child(lane, ctx, writer, parent)
            children[reader] = (lane, pid)
            # Closed before the next fork, so no sibling holds this writer
            # and the pipe reaches EOF as soon as its own child is gone.
            writer.close()
        lanes = [None] * k
        pending = list(children)
        while pending:
            for reader in multiprocessing.connection.wait(pending):
                pending.remove(reader)
                lane, pid = children[reader]
                try:
                    kind, value = reader.recv()
                except (EOFError, OSError):  # no record, or a cut one
                    _, status = os.waitpid(pid, 0)
                    children[reader] = (lane, None)
                    raise PhaseTaskError(
                        f"phase {ctx.phase!r}: the worker of lane {lane} died"
                        f" (exit code {os.waitstatus_to_exitcode(status)})"
                    ) from None
                if kind == "error":
                    raise PhaseTaskError(value)
                lanes[lane] = value
        return lanes
    finally:
        for reader, (_, pid) in children.items():
            reader.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _lane_child(lane: int, ctx: _PhaseContext, writer: multiprocessing.connection.Connection, parent: int) -> None:
    """Body of a forked lane: run the lane, send its record, and leave
    through ``os._exit`` (0 after the send, 1 on any other way out), so the
    child never returns into the parent's code."""
    code = 1
    try:
        try:
            record = ("ok", _run_lane(lane, ctx, parent))
        except PhaseTaskError as exc:
            record = ("error", str(exc))
        except Exception as exc:
            record = ("error", f"phase {ctx.phase!r}: lane {lane} failed: {exc!r}")
        # Flushed before the record: once the parent has it, the child is
        # done and may be killed.
        _flush_stdio()
        # send pickles the whole record before it writes a byte, so a result
        # that cannot be pickled is reported as such, not as a dead worker.
        try:
            writer.send(record)
        except Exception as exc:
            writer.send(("error", f"phase {ctx.phase!r}: lane {lane}'s result cannot be pickled: {exc!r}"))
        code = 0
    finally:
        os._exit(code)
