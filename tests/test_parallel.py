"""Executor tests: partitioning, merge determinism, counter conservation."""

import contextlib
import os
import signal

import pytest

from bnsl.citests import OracleTest
from bnsl.graph import Dag
from bnsl.parallel import (
    ParallelExecutor,
    PhaseTaskError,
    normalized_running_time,
    partition,
)


class TestPartition:
    def test_37_items_4_workers(self):
        batch = partition(list(range(37)), 4)
        sizes = [hi - lo for lo, hi in batch.assignment]
        assert sizes == [10, 9, 9, 9]

    def test_single_worker(self):
        batch = partition(list(range(5)), 1)
        assert batch.assignment == ((0, 5),)

    def test_more_workers_than_items(self):
        batch = partition(["a", "b"], 5)
        sizes = [hi - lo for lo, hi in batch.assignment]
        assert sizes == [1, 1, 0, 0, 0]

    def test_ranges_cover_and_preserve_order(self):
        items = list(range(23))
        batch = partition(items, 6)
        covered = []
        for lo, hi in batch.assignment:
            covered.extend(items[lo:hi])
        assert covered == items

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            partition([1], 0)


def _engine_factory():
    dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
    return OracleTest(dag)


def _square_task(item, engine):
    # run one test so counters move
    engine.test("A", "C", frozenset({"B"}))
    return item * item


def _die_on_3(item, engine):
    if item == 3:
        os._exit(1)  # the worker process vanishes without an exception
    return item


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test instead of hanging when the body overruns."""

    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRunPhase:
    def test_single_worker_equals_plain_map(self):
        ex = ParallelExecutor(1)
        out = ex.run_phase("demo", list(range(10)), _square_task, _engine_factory)
        assert out.results == [i * i for i in range(10)]
        assert len(out.reports) == 1
        assert out.reports[0].test_count == 10

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_merged_results_identical_across_k(self, schedule, k):
        baseline = ParallelExecutor(1).run_phase(
            "demo", list(range(12)), _square_task, _engine_factory
        )
        ex = ParallelExecutor(k, schedule)
        out = ex.run_phase("demo", list(range(12)), _square_task, _engine_factory)
        assert out.results == baseline.results
        assert sum(r.test_count for r in out.reports) == sum(
            r.test_count for r in baseline.reports
        )

    def test_static_counts_follow_chunks(self):
        ex = ParallelExecutor(3)
        out = ex.run_phase("demo", list(range(7)), _square_task, _engine_factory)
        assert [r.test_count for r in out.reports] == [3, 2, 2]

    def test_unequal_per_worker_counts_are_legal(self):
        def lopsided(item, engine):
            for _ in range(item):
                engine.test("A", "B", frozenset())
            return item

        ex = ParallelExecutor(2)
        out = ex.run_phase("demo", [1, 2, 3, 10], lopsided, _engine_factory)
        counts = [r.test_count for r in out.reports]
        assert sum(counts) == 16
        assert counts == [3, 13]

    def test_dynamic_with_more_workers_than_items_terminates(self):
        ex = ParallelExecutor(6, "dynamic")
        out = ex.run_phase("demo", [1, 2], _square_task, _engine_factory)
        assert out.results == [1, 4]
        assert sum(r.test_count for r in out.reports) == 2

    def test_empty_items(self):
        ex = ParallelExecutor(4)
        out = ex.run_phase("demo", [], _square_task, _engine_factory)
        assert out.results == []
        assert sum(r.test_count for r in out.reports) == 0

    def test_telemetry_accumulates(self):
        ex = ParallelExecutor(1)
        ex.run_phase("one", [1], _square_task, _engine_factory)
        ex.run_phase("two", [1, 2], _square_task, _engine_factory)
        assert [t.phase for t in ex.telemetry] == ["one", "two"]
        assert ex.total_tests() == 3
        ex.reset_telemetry()
        assert ex.total_tests() == 0

    @pytest.mark.parametrize(
        "k, schedule",
        [(1, "static"), (2, "static"), (2, "dynamic")],
        ids=["1", "2", "2-dynamic"],
    )
    def test_task_failure_names_the_task(self, k, schedule):
        def boom(item, engine):
            if item == 3:
                raise RuntimeError("boom")
            return item

        ex = ParallelExecutor(k, schedule)
        with pytest.raises(PhaseTaskError, match="task 3"):
            ex.run_phase("demo", [1, 2, 3, 4], boom, _engine_factory)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_dead_worker_raises_naming_the_phase(self, schedule):
        ex = ParallelExecutor(2, schedule)
        with _deadline(10), pytest.raises(PhaseTaskError, match="phase 'dying'"):
            ex.run_phase("dying", [1, 2, 3, 4], _die_on_3, _engine_factory)

    @pytest.mark.parametrize("k", [2, 4])
    def test_dynamic_lanes_cover_items_once(self, k):
        # More lanes than cores contend for the shared counter; a lost
        # update would hand one item to two lanes.
        items = list(range(200))
        out = ParallelExecutor(k, "dynamic").run_phase("demo", items, _square_task, _engine_factory)
        assert [r.worker for r in out.reports] == list(range(k))
        assert sorted(i for r in out.reports for i in r.items) == items
        assert all(r.test_count == len(r.items) for r in out.reports)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            ParallelExecutor(1, "sometimes")


class TestNormalizedRunningTime:
    def test_paper_style_arithmetic(self):
        points = normalized_running_time({1: 100.0, 8: 16.0})
        assert points[8].ratio == pytest.approx(0.16)
        assert points[8].overhead == pytest.approx(0.035)

    def test_baseline_is_identity(self):
        points = normalized_running_time({1: 42.0})
        assert points[1].ratio == 1.0
        assert points[1].overhead == 0.0

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_running_time({2: 1.0, 4: 0.5})
