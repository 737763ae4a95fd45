"""Per-layer metrics computed from traced learns and executor telemetry."""

from __future__ import annotations

import statistics

SKELETON_PHASES = ("markov-blankets", "pair-separation", "neighbours")
Z_BUCKETS = ("z0", "z1", "z2", "z3plus")


def _bucket(z) -> str:
    return Z_BUCKETS[min(len(z), 3)]


def citests(executors, wall_s: float) -> dict[str, float]:
    """CI-test layer over the traced learns' test spans."""
    requested = busy = repeats_task = repeats_run = degenerate = ridged = 0
    by_z = {b: [0, 0.0] for b in Z_BUCKETS}
    for ex in executors:
        seen_run = set()
        for phase in ex.phases:
            for task in phase.tasks:
                seen_task = set()
                for t0, t1, x, y, z, deg, ridge in task.tests:
                    key = (x, y, z) if x < y else (y, x, z)
                    repeats_task += key in seen_task
                    repeats_run += key in seen_run
                    seen_task.add(key)
                    seen_run.add(key)
                    slot = by_z[_bucket(z)]
                    slot[0] += 1
                    slot[1] += t1 - t0
                    busy += t1 - t0
                    degenerate += deg
                    ridged += ridge
                requested += len(task.tests)
    out = {
        "citests.requested": requested,
        "citests.busy_s": busy,
        "citests.share": busy / wall_s,
        "citests.us_per_test": busy / max(requested, 1) * 1e6,
    }
    for b, (count, secs) in by_z.items():
        out[f"citests.us_per_test.{b}"] = secs / count * 1e6 if count else 0.0
    out["citests.repeat_share.task"] = repeats_task / max(requested, 1)
    out["citests.repeat_share.run"] = repeats_run / max(requested, 1)
    out["citests.degenerate"] = degenerate
    out["citests.ridged"] = ridged
    return out


def _skeleton_tasks(executors):
    return [t for ex in executors for p in ex.phases if p.phase in SKELETON_PHASES for t in p.tasks]


def local(executors) -> dict[str, float]:
    """One node's learner: the tasks of the skeleton phases."""
    tasks = _skeleton_tasks(executors)
    durations = [t.end - t.start for t in tasks]
    counts = [len(t.tests) for t in tasks]
    test_s = sum(t1 - t0 for t in tasks for t0, t1, *_ in t.tests)
    return {
        "local.task_s.median": statistics.median(durations),
        "local.task_s.max": max(durations),
        "local.tests_per_task.median": statistics.median(counts),
        "local.tests_per_task.max": max(counts),
        "local.self_s": sum(durations) - test_s,
        "parallel.critical_share": max(durations) / sum(durations),
    }


def phase_seconds(executors) -> dict[str, float]:
    """Untraced phase wall time, summed over learns: skeleton vs v-structures."""
    skeleton = vstruct = 0.0
    for ex in executors:
        for t in ex.telemetry:
            if t.phase in SKELETON_PHASES:
                skeleton += t.seconds
            elif t.phase == "v-structures":
                vstruct += t.seconds
    return {"parallel.skeleton.s": skeleton, "parallel.v-structures.s": vstruct}


def imbalance(executors) -> float:
    """Max over mean of the per-worker test totals."""
    totals: dict[int, int] = {}
    for ex in executors:
        for t in ex.telemetry:
            for r in t.reports:
                totals[r.worker] = totals.get(r.worker, 0) + r.test_count
    counts = list(totals.values())
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 1.0


def fork_merge_s(executors) -> float:
    """Phase wall minus the busiest worker's task time, summed over phases."""
    total = 0.0
    for ex in executors:
        for phase in ex.phases:
            per_pid: dict[int, float] = {}
            for t in phase.tasks:
                per_pid[t.pid] = per_pid.get(t.pid, 0.0) + (t.end - t.start)
            total += (phase.end - phase.start) - max(per_pid.values(), default=0.0)
    return total


def symmetry_drop_share(executors) -> float:
    """Share of candidate-set members dropped by the symmetry barriers."""
    candidates = dropped = 0
    for ex in executors:
        for phase in ex.phases:
            if phase.phase not in SKELETON_PHASES:
                continue
            sets = {item: frozenset(result[0]) for item, result in zip(phase.items, phase.results)}
            for i, members in sets.items():
                candidates += len(members)
                dropped += sum(1 for j in members if i not in sets.get(j, ()))
    return dropped / candidates if candidates else 0.0


def vstructure_tests(executors) -> int:
    return sum(t.test_count for ex in executors for t in ex.telemetry if t.phase == "v-structures")
