"""Spans recorded from outside bnsl, around the calls into each layer.

:class:`TracingExecutor` is a ``ParallelExecutor`` that wraps every phase
task. The wrapped task runs the original task with a :class:`TracingEngine`
proxy and returns ``(result, task record)``, so the task's test spans travel
back across fork with its result; the executor unwraps them before handing
the original results to the caller.

Span tree: workload -> learn -> phase -> task -> citest, all sharing one run
id. Records stay in memory; :meth:`Trace.write` turns them into one JSON
line per span ``[id, parent, name, start, end, attrs]`` when the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from dataclasses import dataclass

from bnsl import ParallelExecutor


class TracingEngine:
    """CI-test engine proxy: times each test and keeps its key and flags."""

    def __init__(self, inner):
        self.inner = inner
        self.tests: list[tuple] = []

    @property
    def counter(self):
        return self.inner.counter

    def test(self, x, y, z):
        t0 = time.perf_counter()
        out = self.inner.test(x, y, z)
        self.tests.append((t0, time.perf_counter(), x, y, z, out.degenerate, out.ridged))
        return out

    def spawn(self) -> "TracingEngine":
        return TracingEngine(self.inner.spawn())


@dataclass
class TaskRecord:
    item: object
    start: float
    end: float
    pid: int
    tests: list[tuple]  # (start, end, x, y, z, degenerate, ridged)


@dataclass
class PhaseRecord:
    phase: str
    start: float
    end: float
    items: tuple
    results: list
    tasks: list[TaskRecord]


class TracingExecutor(ParallelExecutor):
    """``ParallelExecutor`` that keeps a record of every task it ran."""

    def __init__(self, workers: int = 1, schedule: str = "static"):
        super().__init__(workers, schedule)
        self.phases: list[PhaseRecord] = []

    def run_phase(self, phase, items, task_fn, engine_factory):
        items = tuple(items)

        def traced_factory():
            return TracingEngine(engine_factory())

        def traced_task(item, engine):
            engine.tests = []
            t0 = time.perf_counter()
            result = task_fn(item, engine)
            record = TaskRecord(item, t0, time.perf_counter(), os.getpid(), engine.tests)
            engine.tests = []
            return result, record

        start = time.perf_counter()
        out = super().run_phase(phase, items, traced_task, traced_factory)
        end = time.perf_counter()
        records = [record for _, record in out.results]
        out.results = [result for result, _ in out.results]
        self.phases.append(
            PhaseRecord(phase, start, end, items, out.results, records)
        )
        return out

    def proxy_tests(self) -> int:
        """Tests seen by the proxies, to check against ``total_tests()``."""
        return sum(len(t.tests) for p in self.phases for t in p.tasks)


@dataclass
class LearnRecord:
    label: str
    start: float
    end: float
    executor: TracingExecutor
    extra: tuple = ()  # (name, start, end) spans outside the executor


class Trace:
    """All traced learns of one run, written out as spans at the end."""

    def __init__(self, run_id: str, workload: str):
        self.run_id = run_id
        self.workload = workload
        self.start = time.perf_counter()
        self.learns: list[LearnRecord] = []

    def add(self, record: LearnRecord) -> None:
        self.learns.append(record)

    def write(self, path: str) -> int:
        """Write every span as a JSON line (gzip); returns the span count."""
        end = time.perf_counter()
        next_id = 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            def emit(parent, name, start, stop, attrs):
                nonlocal next_id
                next_id += 1
                fh.write(json.dumps([next_id, parent, name, start, stop, attrs]) + "\n")
                return next_id

            fh.write(json.dumps({"run_id": self.run_id, "workload": self.workload,
                                 "fields": ["id", "parent", "name", "start", "end", "attrs"]}) + "\n")
            root = emit(0, "workload", self.start, end, {"workload": self.workload})
            for learn in self.learns:
                lid = emit(root, "learn", learn.start, learn.end, {"label": learn.label})
                for name, s, e in learn.extra:
                    emit(lid, name, s, e, {})
                for phase in learn.executor.phases:
                    pid = emit(lid, "phase", phase.start, phase.end, {"phase": phase.phase})
                    for task in phase.tasks:
                        tid = emit(pid, "task", task.start, task.end,
                                   {"item": str(task.item), "pid": task.pid})
                        for t0, t1, x, y, z, degenerate, ridged in task.tests:
                            fh.write(f'[{next_id + 1},{tid},"citest",{t0},{t1},'
                                     f'{{"z":{len(z)},"deg":{int(degenerate)},"ridge":{int(ridged)}}}]\n')
                            next_id += 1
        return next_id
