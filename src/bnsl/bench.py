"""Benchmark protocols: order sensitivity and parallel scaling.

The order experiment samples seeded datasets from a reference network,
learns the skeleton with and without start-set backtracking on the original
and on the column-reversed data, and reports the Hamming distance between
the two skeletons plus the test counts. The scaling experiment times
skeleton learning across worker counts and normalises against the
single-worker baseline.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .citests import default_test
from .data import Dataset, reverse_columns
from .formats import load_dataset, load_network
from .graph import hamming_skeleton
from .network import DiscreteBn, nparams, sample
from .parallel import ParallelExecutor
from .structure import ALGORITHMS, GlobalLearnConfig, learn_skeleton

ORDER_MODES = ("none", "start-set")
DEFAULT_RATIOS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class OrderExperimentSpec:
    """Order-sensitivity protocol over one reference network."""

    network: str | Path | DiscreteBn
    algorithms: tuple[str, ...] = ALGORITHMS
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    repetitions: int = 20
    alpha: float = 0.01
    seed: int = 0
    test: str = "mi"
    label: str | None = None

    def validate(self) -> None:
        if not (self.algorithms and self.ratios):
            raise ValueError("algorithms and ratios must each hold at least one value")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm: {a!r}")


@dataclass(frozen=True)
class ScalingExperimentSpec:
    """Parallel-scaling protocol over one dataset."""

    data: str | Path | Dataset | None = None
    network: str | Path | DiscreteBn | None = None
    n: int | None = None
    algorithm: str = "si-hiton-pc"
    workers: tuple[int, ...] = (1, 2, 3, 4, 6, 8)
    repetitions: int = 10
    alpha: float = 0.01
    test: str | None = None
    schedule: str = "static"
    seed: int = 0
    compare_backtracking: bool = True

    def validate(self) -> None:
        if len(set(self.workers)) != len(self.workers):
            raise ValueError("worker counts must be distinct")
        if any(k < 1 for k in self.workers):
            raise ValueError("worker counts must be at least 1")
        if 1 not in self.workers:
            raise ValueError("the single-worker baseline must be included")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.data is None and (self.network is None or self.n is None):
            raise ValueError("either a dataset or a network plus sample size is required")
        if self.data is not None and self.network is not None:
            raise ValueError("a dataset and a network were both given; pass one of them")
        if self.data is not None and self.n is not None:
            raise ValueError("a sample size was given with a dataset; n goes only with a network")


def _network(source: str | Path | DiscreteBn) -> DiscreteBn:
    return source if isinstance(source, DiscreteBn) else load_network(source)


def _dataset_seed(seed: int, *key: int) -> int:
    """Deterministic per-cell seed derived with numpy's SeedSequence."""
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def run_order_experiment(spec: OrderExperimentSpec) -> list[dict]:
    """Rows: one per (algorithm, ratio, repetition, mode).

    Each repetition samples a fresh dataset, learns the skeleton on the
    original and on the column-reversed data in the given mode, and records
    the Hamming distance between the two skeletons and both test counts.
    """
    spec.validate()
    bn = _network(spec.network)
    label = spec.label or ("network" if isinstance(spec.network, DiscreteBn) else str(spec.network))
    p = nparams(bn)
    truth = bn.dag if spec.test == "oracle" else None
    rows = []
    for alg_idx, algorithm in enumerate(spec.algorithms):
        for ratio_idx, ratio in enumerate(spec.ratios):
            n = round(ratio * p)
            if n < 1:
                raise ValueError(f"ratio {ratio} gives an empty sample (p = {p})")
            for rep in range(spec.repetitions):
                data = sample(bn, n, _dataset_seed(spec.seed, alg_idx, ratio_idx, rep))
                rdata = reverse_columns(data)
                for mode in ORDER_MODES:
                    cfg = GlobalLearnConfig(
                        algorithm=algorithm,
                        test=spec.test,
                        alpha=spec.alpha,
                        backtracking=mode,
                        workers=1,
                    )
                    ex_orig = ParallelExecutor(1)
                    skel, _ = learn_skeleton(data, cfg, ex_orig, truth=truth)
                    ex_rev = ParallelExecutor(1)
                    rskel, _ = learn_skeleton(rdata, cfg, ex_rev, truth=truth)
                    rows.append(
                        {
                            "network": label,
                            "algorithm": algorithm,
                            "ratio": ratio,
                            "n": n,
                            "rep": rep,
                            "mode": mode,
                            "hamming": hamming_skeleton(skel, rskel),
                            "tests_orig": ex_orig.total_tests(),
                            "tests_rev": ex_rev.total_tests(),
                        }
                    )
    return rows


def run_scaling_experiment(spec: ScalingExperimentSpec) -> list[dict]:
    """Rows: one per (workers, repetition) plus, optionally, the start-set
    single-worker comparison; each carries its group's mean and median
    seconds, the normalised running time ratio = time(k) / time(1) of the
    group's mean against the ("none", 1) group's, and the overhead
    ratio - 1/k (the start-set group has a ratio but no overhead)."""
    spec.validate()
    if spec.data is not None:
        data = spec.data if isinstance(spec.data, Dataset) else load_dataset(spec.data)
    else:
        data = sample(_network(spec.network), spec.n, _dataset_seed(spec.seed))
    test = spec.test or default_test(data)

    def one_run(workers: int, mode: str) -> dict:
        cfg = GlobalLearnConfig(
            algorithm=spec.algorithm,
            test=test,
            alpha=spec.alpha,
            backtracking=mode,
            workers=workers,
            schedule=spec.schedule,
        )
        executor = ParallelExecutor(workers, spec.schedule)
        start = time.perf_counter()
        learn_skeleton(data, cfg, executor)
        seconds = time.perf_counter() - start
        return {
            "algorithm": spec.algorithm,
            "mode": mode,
            "workers": workers,
            "seconds": seconds,
            "total_tests": executor.total_tests(),
            "per_worker_tests": "|".join(str(c) for c in _per_worker_totals(executor)),
        }

    groups = [("none", k) for k in sorted(spec.workers)]
    if spec.compare_backtracking:
        groups.append(("start-set", 1))
    rows: list[dict] = []
    for mode, workers in groups:
        group = [dict(one_run(workers, mode), rep=rep) for rep in range(spec.repetitions)]
        seconds = [row["seconds"] for row in group]
        mean = statistics.fmean(seconds)
        ratio = mean / (rows[0]["mean_seconds"] if rows else mean)  # ("none", 1) runs first
        stats = {
            "mean_seconds": mean,
            "median_seconds": statistics.median(seconds),
            "ratio": ratio,
            "overhead": ratio - 1.0 / workers if mode == "none" else "",
        }
        rows += [dict(row, **stats) for row in group]
    return rows


def _per_worker_totals(executor: ParallelExecutor) -> list[int]:
    totals: dict[int, int] = {}
    for phase in executor.telemetry:
        for report in phase.reports:
            totals[report.worker] = totals.get(report.worker, 0) + report.test_count
    return [totals[w] for w in sorted(totals)]


def write_csv(rows: list[dict], path: str | Path) -> None:
    """Write experiment rows with a stable column order."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
