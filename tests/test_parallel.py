"""Executor tests: partitioning, merge determinism, counter conservation."""

import collections
import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from bnsl.citests import OracleTest
from bnsl.graph import Dag
from bnsl.parallel import (
    ParallelExecutor,
    PhaseTaskError,
    partition,
)


class TestPartition:
    def test_37_items_4_workers(self):
        sizes = [hi - lo for lo, hi in partition(list(range(37)), 4)]
        assert sizes == [10, 9, 9, 9]

    def test_single_worker(self):
        assert partition(list(range(5)), 1) == ((0, 5),)

    def test_more_workers_than_items(self):
        sizes = [hi - lo for lo, hi in partition(["a", "b"], 5)]
        assert sizes == [1, 1, 0, 0, 0]

    def test_ranges_cover_and_preserve_order(self):
        items = list(range(23))
        covered = []
        for lo, hi in partition(items, 6):
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


def _fail_on_3(item, engine):
    if item == 3:
        raise RuntimeError("boom")
    return item


def _mebibyte_record(item, engine):
    # larger than a pipe buffer, and distinct per item
    return bytes(range(256)) * 4096 + str(item).encode()


def _fail_or_sleep(item, engine):
    if item == "fail":
        raise RuntimeError("boom")
    time.sleep(30)
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

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_no_idle_lanes(self, schedule):
        out = ParallelExecutor(6, schedule).run_phase("demo", [1, 2], _square_task, _engine_factory)
        assert out.results == [1, 4]
        assert len(out.reports) == 2

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

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_unpicklable_result_names_the_phase(self, schedule):
        ex = ParallelExecutor(2, schedule)
        with _deadline(10), pytest.raises(PhaseTaskError, match="phase 'demo': lane .* cannot be pickled"):
            ex.run_phase("demo", [1, 2], lambda item, engine: (lambda: item), _engine_factory)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_records_larger_than_a_pipe_buffer_arrive_whole(self, schedule):
        items = [1, 2]
        with _deadline(10):
            out = ParallelExecutor(2, schedule).run_phase("demo", items, _mebibyte_record, _engine_factory)
        assert out.results == [_mebibyte_record(item, None) for item in items]
        assert len(out.reports) == 2 and min(map(len, out.results)) >= 1 << 20

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize(
        "task, error",
        [(_square_task, None), (_fail_on_3, "task 3 failed"), (_die_on_3, "worker of lane 1 died")],
        ids=["ok", "task-raises", "worker-dies"],
    )
    def test_phase_leaves_no_descriptor_open(self, task, error):
        before = sorted(os.listdir("/proc/self/fd"))
        raises = pytest.raises(PhaseTaskError, match=error) if error else contextlib.nullcontext()
        with _deadline(10), raises:
            ParallelExecutor(2).run_phase("demo", [1, 2, 3, 4], task, _engine_factory)
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("items", [["fail", "sleep"], ["sleep", "fail"]], ids=["fail-first", "fail-last"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_first_failure_ends_the_phase_at_once(self, schedule, items):
        ex = ParallelExecutor(2, schedule)
        with _deadline(10), pytest.raises(PhaseTaskError, match="task 'fail'"):
            ex.run_phase("demo", items, _fail_or_sleep, _engine_factory)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_interrupt_kills_and_reaps_every_lane(self, schedule):
        ex = ParallelExecutor(2, schedule)
        start = time.perf_counter()
        with pytest.raises(TimeoutError), _deadline(1):
            ex.run_phase("demo", ["sleep", "sleep"], _fail_or_sleep, _engine_factory)
        assert time.perf_counter() - start < 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_task_output_appears_once(self):
        # A pipe makes the child's stdout block-buffered once
        # PYTHONUNBUFFERED is gone: a child that skips its flush loses the
        # task lines, and one that inherits an unflushed parent buffer
        # prints the parent's lines twice.
        script = textwrap.dedent(
            """
            from bnsl.citests import OracleTest
            from bnsl.graph import Dag
            from bnsl.parallel import ParallelExecutor

            def task(item, engine):
                print(f"task {item}")
                return item

            print("before")
            factory = lambda: OracleTest(Dag(["A"], []))
            assert ParallelExecutor(2).run_phase("demo", [1, 2, 3, 4], task, factory).results == [1, 2, 3, 4]
            print("after")
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
        ).stdout.splitlines()
        assert collections.Counter(out) == collections.Counter(["before", "after"] + [f"task {i}" for i in range(1, 5)])
        assert out[0] == "before" and out[-1] == "after"

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_lanes_stop_once_their_parent_is_killed(self, schedule, tmp_path):
        # SIGKILL leaves the parent no chance to kill its lanes; each lane
        # must notice that it was orphaned and stop taking items.
        script = textwrap.dedent(
            """
            import os, sys, time
            from bnsl.citests import OracleTest
            from bnsl.graph import Dag
            from bnsl.parallel import ParallelExecutor

            def task(item, engine):
                with open(sys.argv[1], "a") as log:
                    log.write(f"{os.getpid()}\\n")
                time.sleep(0.3)
                return item

            factory = lambda: OracleTest(Dag(["A"], []))
            ParallelExecutor(2, sys.argv[2]).run_phase("demo", list(range(30)), task, factory)
            """
        )
        log = tmp_path / "lanes.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-c", script, str(log), schedule], env=env)
        try:
            give_up = time.monotonic() + 30
            while not (log.exists() and len(log.read_text().splitlines()) >= 2):
                assert time.monotonic() < give_up, "no task started"
                time.sleep(0.02)
        finally:
            proc.kill()
            proc.wait()
        time.sleep(1.5)  # a lane may finish the item it is on
        settled = log.read_text()
        time.sleep(1)
        grown = log.read_text() != settled
        if grown:  # the orphans are still running: end them
            for pid in set(map(int, log.read_text().split())):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert not grown, f"the lane log grew from {len(settled.splitlines())} lines after the parent died"

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
