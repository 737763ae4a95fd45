"""Microbenchmarks that call one layer directly: CI-test kernels and data
generation."""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from bnsl import ContinuousDataset, DiscreteDataset, cor_test, mi_test, sample
from bnsl.citests import correlation_matrix
from bnsl.synth import gaussian_sem_dataset

import workloads

SIZES = (500, 5000)
Z_SIZES = (0, 1, 2, 4, 8)
WIDE_Z = 12  # |z| = 16 at n = 500 gets the process OOM-killed today
BATCHES = 5
BATCH_S = 0.02


def _discrete(n: int, m: int, rng) -> DiscreteDataset:
    codes = rng.integers(0, 3, size=(n, m))
    return DiscreteDataset([(f"V{j:02d}", ["a", "b", "c"]) for j in range(m)], codes)


def _continuous(n: int, m: int, rng) -> ContinuousDataset:
    values = rng.standard_normal((n, m))
    values[:, 1] += values[:, 0]  # one dependent pair, like a real edge
    return ContinuousDataset([f"V{j:02d}" for j in range(m)], values)


def per_call_us(fn) -> float:
    """Median over batches of the mean seconds per call, in microseconds."""
    fn()
    calls = 1
    while True:  # size a batch to about BATCH_S
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= BATCH_S / 4:
            break
        calls *= 4
    per = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per.append((time.perf_counter() - t0) / calls)
    return statistics.median(per) * 1e6


def kernel_grid(seed: int) -> dict[str, float]:
    """``citests.kernel.{mi,cor}.n{N}.z{Z}.us`` and the wide-z memory peak."""
    rng = np.random.default_rng(seed)
    m = 2 + max(Z_SIZES)
    out = {}
    for n in SIZES:
        ddata = _discrete(n, m, rng)
        cdata = _continuous(n, m, rng)
        corr = correlation_matrix(cdata.values)  # as the engine does, once per dataset
        names = list(ddata.names)
        for zs in Z_SIZES:
            z = frozenset(names[2:2 + zs])
            out[f"citests.kernel.mi.n{n}.z{zs}.us"] = per_call_us(
                lambda: mi_test(ddata, names[0], names[1], z, 0.01))
            out[f"citests.kernel.cor.n{n}.z{zs}.us"] = per_call_us(
                lambda: cor_test(cdata, names[0], names[1], z, 0.01, corr=corr))
    wide = _discrete(500, 2 + WIDE_Z, rng)
    wnames = list(wide.names)
    tracemalloc.start()
    try:
        mi_test(wide, wnames[0], wnames[1], frozenset(wnames[2:]), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out[f"citests.kernel.mi.n500.z{WIDE_Z}.peak_mb"] = peak / 2**20
    return out


def generation(repeats: int = 5) -> dict[str, float]:
    """Median seconds of bnsl's two generators on the workloads' instances."""
    bn = workloads.discrete_network()
    g, d = workloads.GAUSS, workloads.DISCRETE
    sample_s, generate_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sample(bn, d["n"], d["data_seed"])
        t1 = time.perf_counter()
        gaussian_sem_dataset(g["m"], g["n"], g["seed"])
        t2 = time.perf_counter()
        sample_s.append(t1 - t0)
        generate_s.append(t2 - t1)
    return {
        "network.sample_s": statistics.median(sample_s),
        "synth.generate_s": statistics.median(generate_s),
    }
