#!/usr/bin/env python3
"""Layered benchmark for bnsl.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; bnsl is imported from ``src/``.
With ``--trace 0`` the run times whole learns with tracing off and reports
the end-to-end metrics. With ``--trace 1`` it records spans around every
phase task and CI test and reports the per-layer metrics. Both modes check
their outputs (correctness gates) and print, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The run context and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_K2_JOBS = 4
DEADLINE_S = 170  # the whole run must end within 180 s


class Deadline(BaseException):
    """Raised by the watchdog; BaseException so no task handler swallows it."""


class Ledger:
    """Operations attempted and failed: exceptions and tripped gates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def gate(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"gate failed: {label}")
        return ok


class Pacer:
    """Probes run between learns: the host-speed kernel every time, and
    fresh-process set-ups spread evenly over the run, so that both sample
    the same host conditions as the learns."""

    def __init__(self, args, seconds, ledger):
        from hostspeed import HostSpeed

        self.args = args
        self.seconds = seconds
        self.ledger = ledger
        self.host = HostSpeed()
        self.begin = time.perf_counter()
        self.attempts = 0
        self.setups: list[tuple[float, float, float]] = []  # (start, end, set-up seconds)

    def between(self) -> None:
        self.host.probe()
        due = math.ceil(SETUP_PROBES * (time.perf_counter() - self.begin) / self.seconds)
        if self.attempts < min(due, SETUP_PROBES):
            self._setup_probe()

    def finish(self) -> None:
        for _ in range(SETUP_PROBES - self.attempts):
            self._setup_probe()
        self.host.probe()

    def _setup_probe(self) -> None:
        self.attempts += 1
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--setup-probe"]
        t0 = time.perf_counter()
        done = self.ledger.run("setup probe", subprocess.run, cmd, capture_output=True, text=True,
                               timeout=60, cwd=ROOT, check=True)
        if done is not None:
            secs = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
            self.setups.append((t0, time.perf_counter(), secs))

    def report(self, intervals: dict[str, list[tuple[float, float]]], metrics: dict, extra: dict) -> None:
        """Each time metric is the median of its host-corrected samples; the
        raw wall medians and all samples go to ``extra``."""
        samples = {name: [(t0, t1, t1 - t0) for t0, t1 in spans] for name, spans in intervals.items()}
        samples["setup_s"] = self.setups
        for name, values in samples.items():
            if values:
                metrics[name] = statistics.median(s * self.host.factor(t0, t1) for t0, t1, s in values)
                extra[f"{name}_wall"] = statistics.median(s for _, _, s in values)
        extra["host_factor"] = self.host.factor(self.begin, time.perf_counter())
        extra["samples"] = {name: [s for _, _, s in values] for name, values in samples.items()}
        extra["samples"]["host_kernel_s"] = self.host.secs


def shd(a, b) -> int:
    """Structural Hamming distance: node pairs whose edge mark differs
    (missing, extra, or oriented differently)."""
    def marks(g):
        m = {e: "-" for e in g.undirected_edges}
        for p, c in g.directed_arcs:
            m[(p, c) if p < c else (c, p)] = (p, c)
        return m

    ma, mb = marks(a), marks(b)
    return sum(ma.get(k) != mb.get(k) for k in ma.keys() | mb.keys())


def timed(fn, *args):
    """``(result, start, end)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, t0, time.perf_counter()


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 100, xs[-1]
    pct = int(100 * (n - 10) / n)
    return pct, xs[(n * pct + 99) // 100 - 1]


@dataclass
class Learn:
    """One skeleton learn of the order protocol."""

    dataset: int
    algorithm: str
    mode: str
    orientation: str
    skeleton: object
    sepsets: object
    tests: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


# --- learning --------------------------------------------------------------


def learn_full(bnsl, data, cfg, executor, trace_extra=None):
    """``learn_cpdag`` as its three public steps, so the graph layer can be
    timed apart; returns the CPDAG, the oriented PDAG and the seconds."""
    t0 = time.perf_counter()
    skel, sepsets = bnsl.learn_skeleton(data, cfg, executor)
    engine = bnsl.make_engine(cfg.test, data, cfg.alpha)
    oriented = bnsl.orient_v_structures(skel, sepsets, data, engine, executor, cfg.max_condition_size)
    t1 = time.perf_counter()
    pdag = bnsl.apply_meek_rules(oriented.pdag)
    t2 = time.perf_counter()
    if trace_extra is not None:
        trace_extra.append(("meek", t1, t2))
    return pdag, oriented.pdag, t2 - t0


def config(bnsl, workload, workers=1, schedule="static", algorithm=None, backtracking="none"):
    import workloads

    alg, test = workloads.ALGORITHM.get(workload, ("", "mi"))
    return bnsl.GlobalLearnConfig(
        algorithm=algorithm or alg, test=test, alpha=workloads.ALPHA,
        backtracking=backtracking, workers=workers, schedule=schedule,
    )


K_CONFIGS = (("learn_s", 1, "static"), ("learn_s_k2_static", 2, "static"), ("learn_s_k2_dynamic", 2, "dynamic"))


# --- end-to-end runs (tracing off) -----------------------------------------


def e2e_parallel(bnsl, inputs, seconds, ledger, extra, pacer):
    """Rounds of k = 1, k = 2 static, k = 2 dynamic on one dataset; every
    k = 2 result must equal the k = 1 CPDAG and test count."""
    data = inputs.datasets[0]
    spans = {name: [] for name, _, _ in K_CONFIGS}
    ref = None
    begin = time.perf_counter()
    rounds = 0
    while True:
        for name, k, schedule in K_CONFIGS:
            cfg = config(bnsl, inputs.workload, k, schedule)
            ex = bnsl.ParallelExecutor(k, schedule)
            got = ledger.run(f"learn {name}", timed, bnsl.learn_cpdag, data, cfg, ex)
            pacer.between()
            if got is None:
                continue
            pdag, t0, t1 = got
            spans[name].append((t0, t1))
            if ref is None:
                ref = (pdag, ex.total_tests())
            else:
                ledger.gate(pdag == ref[0], f"{name} CPDAG equals k = 1")
                ledger.gate(ex.total_tests() == ref[1], f"{name} test count equals k = 1")
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rounds > seconds:
            break
    extra["rounds"] = rounds
    metrics = {}
    pacer.finish()
    pacer.report(spans, metrics, extra)
    if ref is not None:
        metrics["ci_tests"] = ref[1]
        metrics["shd"] = shd(ref[0], bnsl.dag_to_cpdag(inputs.truth))
    return metrics


def order_protocol(bnsl, inputs, ledger, pacer=None):
    """Every algorithm x {none, start-set} x {original, reversed} skeleton
    learn over the protocol datasets, sequentially at k = 1."""
    rows: list[Learn] = []
    for i, (orig, rev) in enumerate(zip(inputs.datasets, inputs.reversed())):
        if pacer is not None:
            pacer.between()
        for alg in bnsl.ALGORITHMS:
            for mode in ("none", "start-set"):
                skels = []
                for orientation, data in (("orig", orig), ("rev", rev)):
                    cfg = config(bnsl, inputs.workload, algorithm=alg, backtracking=mode)
                    ex = bnsl.ParallelExecutor(1)
                    got = ledger.run(f"learn {alg} {mode}", timed, bnsl.learn_skeleton, data, cfg, ex)
                    if got is None:
                        continue
                    (skel, sepsets), t0, t1 = got
                    rows.append(Learn(i, alg, mode, orientation, skel, sepsets, ex.total_tests(), t0, t1))
                    skels.append(skel)
                if mode == "none" and len(skels) == 2:
                    ledger.gate(bnsl.hamming_skeleton(*skels) == 0, f"{alg} none-mode order invariance, dataset {i}")
    return rows


def select(rows, mode, orientation):
    return {(r.dataset, r.algorithm): r for r in rows if r.mode == mode and r.orientation == orientation}


def hamming_by_mode(bnsl, rows, mode):
    orig, rev = select(rows, mode, "orig"), select(rows, mode, "rev")
    return sum(bnsl.hamming_skeleton(r.skeleton, rev[key].skeleton) for key, r in orig.items() if key in rev)


def orient(bnsl, data, skel, sepsets, executor=None):
    """Orientation phase and Meek propagation on a learned skeleton."""
    import workloads

    engine = bnsl.make_engine("mi", data, workloads.ALPHA)
    oriented = bnsl.orient_v_structures(skel, sepsets, data, engine, executor)
    return bnsl.apply_meek_rules(oriented.pdag), oriented.pdag


def e2e_order(bnsl, inputs, seconds, ledger, extra, pacer):
    """The protocol once, then k = 2 none-mode skeleton learns cycling over
    (dataset, algorithm) until the time is up."""
    begin = time.perf_counter()
    rows = order_protocol(bnsl, inputs, ledger, pacer)
    truth = bnsl.dag_to_cpdag(inputs.truth)
    none_orig = select(rows, "none", "orig")
    shds = []
    for (i, alg), r in sorted(none_orig.items()):
        got = ledger.run(f"orient {alg}", orient, bnsl, inputs.datasets[i], r.skeleton, r.sepsets)
        if got is not None:
            shds.append(shd(got[0], truth))
    extra["order_hamming"] = hamming_by_mode(bnsl, rows, "start-set")
    extra["learn_s_tail_pct"], extra["learn_s_tail"] = tail([r.seconds for r in rows])
    spans = {"learn_s_k2_static": [], "learn_s_k2_dynamic": []}
    jobs = sorted(none_orig)
    j = 0
    while True:
        t_job = time.perf_counter()
        i, alg = jobs[j % len(jobs)]
        ref = none_orig[(i, alg)]
        for name, k, schedule in K_CONFIGS[1:]:
            cfg = config(bnsl, inputs.workload, k, schedule, algorithm=alg)
            ex = bnsl.ParallelExecutor(k, schedule)
            got = ledger.run(f"learn {alg} {name}", timed, bnsl.learn_skeleton, inputs.datasets[i], cfg, ex)
            if got is None:
                continue
            (skel, _), t0, t1 = got
            spans[name].append((t0, t1))
            ledger.gate(skel == ref.skeleton, f"{alg} {name} skeleton equals k = 1")
            ledger.gate(ex.total_tests() == ref.tests, f"{alg} {name} test count equals k = 1")
        pacer.between()
        j += 1
        now = time.perf_counter()
        if j >= MIN_K2_JOBS and now - begin + (now - t_job) > seconds:
            break
    metrics = {}
    pacer.finish()
    pacer.report(dict(spans, learn_s=[(r.start, r.end) for r in rows]), metrics, extra)
    metrics["ci_tests"] = sum(r.tests for r in rows) / len(rows)
    metrics["shd"] = statistics.fmean(shds)
    return metrics


# --- traced runs ------------------------------------------------------------


def traced_parallel(bnsl, inputs, seconds, ledger, trace):
    """Untraced and traced learns at k = 1 and 2, plus the structure and
    graph probes; every traced learn must match the untraced one."""
    import layers
    from tracing import LearnRecord, TracingExecutor

    data = inputs.datasets[0]
    begin = time.perf_counter()
    plain = {}
    for name, k, schedule in K_CONFIGS:
        ex = bnsl.ParallelExecutor(k, schedule)
        cfg = config(bnsl, inputs.workload, k, schedule)
        got = ledger.run(f"untraced {name}", timed, bnsl.learn_cpdag, data, cfg, ex)
        if got is None:
            raise RuntimeError(f"untraced {name} learn failed")
        plain[name] = (got[0], got[2] - got[1], ex)
    ref_pdag, ref_tests = plain["learn_s"][0], plain["learn_s"][2].total_tests()

    traced = {}
    for name, k, schedule in K_CONFIGS:
        tex = TracingExecutor(k, schedule)
        extra_spans = []
        t0 = time.perf_counter()
        got = ledger.run(f"traced {name}", learn_full, bnsl, data, config(bnsl, inputs.workload, k, schedule), tex, extra_spans)
        if got is None:
            raise RuntimeError(f"traced {name} learn failed")
        trace.add(LearnRecord(name, t0, time.perf_counter(), tex, tuple(extra_spans)))
        traced[name] = (got, tex)
        ledger.gate(got[0] == ref_pdag, f"traced {name} CPDAG equals untraced")
        ledger.gate(tex.proxy_tests() == tex.total_tests() == ref_tests, f"traced {name} proxy count")
    overhead = [traced["learn_s"][0][2] / plain["learn_s"][1]]

    (pdag, oriented, wall), tex1 = traced["learn_s"]
    m = layers.citests([tex1], wall)
    m.update(layers.local([tex1]))
    m.update(layers.phase_seconds([plain["learn_s"][2]]))
    for sched in ("static", "dynamic"):
        name = f"learn_s_k2_{sched}"
        m[f"parallel.imbalance.{sched}"] = layers.imbalance([plain[name][2]])
        m[f"parallel.fork_merge_s.{sched}"] = layers.fork_merge_s([traced[name][1]])
    m["structure.symmetry_drop_share"] = layers.symmetry_drop_share([tex1])
    m["structure.vstructure.on_demand_tests"] = layers.vstructure_tests([tex1])

    skeleton_tests = ref_tests - m["structure.vstructure.on_demand_tests"]
    bt = bnsl.ParallelExecutor(1)
    ledger.run("start-set skeleton", bnsl.learn_skeleton, data, config(bnsl, inputs.workload, backtracking="start-set"), bt)
    m["structure.backtracking.test_ratio"] = bt.total_tests() / skeleton_tests
    m["structure.order_hamming"] = 0
    rev = inputs.reversed()[0]
    got = ledger.run("reversed learn", bnsl.learn_cpdag, rev, config(bnsl, inputs.workload))
    m["structure.orientation_order_shd"] = shd(got, ref_pdag) if got is not None else 0
    m.update(graph_metrics(bnsl, [oriented], [pdag]))

    k1_plain = [plain["learn_s"][1]]
    while time.perf_counter() - begin < seconds * 0.6:
        cfg = config(bnsl, inputs.workload)
        got_plain = ledger.run("untraced learn_s", timed, bnsl.learn_cpdag, data, cfg, bnsl.ParallelExecutor(1))
        got_traced = ledger.run("traced learn_s", learn_full, bnsl, data, cfg, TracingExecutor(1))
        if got_plain and got_traced:
            k1_plain.append(got_plain[2] - got_plain[1])
            overhead.append(got_traced[2] / k1_plain[-1])
    for sched in ("static", "dynamic"):
        m[f"parallel.efficiency.{sched}"] = statistics.median(k1_plain) / (2 * plain[f"learn_s_k2_{sched}"][1])
    m["trace.overhead"] = statistics.median(overhead)
    return m


def traced_order(bnsl, inputs, seconds, ledger, trace):
    """The order protocol untraced, then every none-mode learn on the
    original columns traced, plus k = 2 learns on the first dataset."""
    import layers
    from tracing import LearnRecord, TracingExecutor

    rows = order_protocol(bnsl, inputs, ledger)
    none_orig, none_rev = select(rows, "none", "orig"), select(rows, "none", "rev")
    none_tests = sum(r.tests for r in rows if r.mode == "none")
    start_tests = sum(r.tests for r in rows if r.mode == "start-set")

    reversed_data = inputs.reversed()
    texs, oriented, cpdags, order_shd = [], [], [], 0
    traced_s = plain_s = 0.0
    for (i, alg), ref in sorted(none_orig.items()):
        data = inputs.datasets[i]
        tex = TracingExecutor(1)
        cfg = config(bnsl, inputs.workload, algorithm=alg)
        got = ledger.run(f"traced {alg}", timed, bnsl.learn_skeleton, data, cfg, tex)
        if got is None:
            continue
        (skel, sepsets), t0, t1 = got
        traced_s += t1 - t0
        plain_s += ref.seconds
        ledger.gate(skel == ref.skeleton, f"traced {alg} skeleton equals untraced, dataset {i}")
        ledger.gate(tex.proxy_tests() == tex.total_tests() == ref.tests, f"traced {alg} proxy count, dataset {i}")
        pdag, opdag = orient(bnsl, data, skel, sepsets, tex)
        trace.add(LearnRecord(f"{alg}/{i}", t0, time.perf_counter(), tex, (("orient", t1, time.perf_counter()),)))
        texs.append(tex)
        oriented.append(opdag)
        cpdags.append(pdag)
        rev = none_rev.get((i, alg))
        if rev is not None:
            rpdag, _ = orient(bnsl, reversed_data[i], rev.skeleton, rev.sepsets)
            order_shd += shd(rpdag, pdag)

    wall = sum(t.end - t.start for t in trace.learns)
    m = layers.citests(texs, wall)
    m.update(layers.local(texs))
    m["parallel.skeleton.s"] = sum(r.seconds for r in none_orig.values())
    m["parallel.v-structures.s"] = sum(
        ph.end - ph.start for tex in texs for ph in tex.phases if ph.phase == "v-structures")

    k1 = sum(none_orig[(0, alg)].seconds for alg in bnsl.ALGORITHMS)
    for name, k, schedule in K_CONFIGS[1:]:
        plain_ex, traced_ex, secs = [], [], 0.0
        for alg in bnsl.ALGORITHMS:
            cfg = config(bnsl, inputs.workload, k, schedule, algorithm=alg)
            ex = bnsl.ParallelExecutor(k, schedule)
            got = ledger.run(f"{alg} {name}", timed, bnsl.learn_skeleton, inputs.datasets[0], cfg, ex)
            if got is not None:
                secs += got[2] - got[1]
                plain_ex.append(ex)
            tex = TracingExecutor(k, schedule)
            if ledger.run(f"traced {alg} {name}", bnsl.learn_skeleton, inputs.datasets[0], cfg, tex) is not None:
                traced_ex.append(tex)
        m[f"parallel.imbalance.{schedule}"] = layers.imbalance(plain_ex)
        m[f"parallel.fork_merge_s.{schedule}"] = layers.fork_merge_s(traced_ex)
        m[f"parallel.efficiency.{schedule}"] = k1 / (2 * secs)

    m["structure.symmetry_drop_share"] = layers.symmetry_drop_share(texs)
    m["structure.vstructure.on_demand_tests"] = layers.vstructure_tests(texs)
    m["structure.backtracking.test_ratio"] = start_tests / none_tests
    m["structure.order_hamming"] = hamming_by_mode(bnsl, rows, "start-set")
    m["structure.orientation_order_shd"] = order_shd
    m.update(graph_metrics(bnsl, oriented, cpdags))
    m["trace.overhead"] = traced_s / plain_s
    return m


def graph_metrics(bnsl, oriented, cpdags, repeats=5):
    """Meek propagation: median seconds over repeats, and arcs it orients."""
    secs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for pdag in oriented:
            bnsl.apply_meek_rules(pdag)
        secs.append(time.perf_counter() - t0)
    arcs = sum(len(c.directed_arcs) - len(o.directed_arcs) for o, c in zip(oriented, cpdags))
    return {"graph.meek_s": statistics.median(secs), "graph.meek_arcs": arcs}


# --- run context and output --------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "bnsl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_context(args, inputs) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count()
    return {
        "schema": 1,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance": inputs.instance,
        "dataset_sha256": inputs.hashes,
        "host_note": f"{nproc}-core machine shared with other tenants; at most 2 workers; "
                     "timings include their contention",
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bnsl" / "__init__.py").is_file():
        print(f"bnsl sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bnsl
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    def on_alarm(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    ledger = Ledger()
    extra: dict = {}
    metrics: dict = {}
    inputs = workloads.build(args.workload, args.seed)
    context = run_context(args, inputs)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace == 0:
            run = e2e_order if args.workload == "order-37" else e2e_parallel
            metrics = run(bnsl, inputs, args.seconds, ledger, extra, Pacer(args, args.seconds, ledger))
            metrics["peak_rss_mb"] = peak_rss_mb()
        else:
            import kernels
            from tracing import Trace

            trace = Trace(f"{args.workload}-{args.seed}-{os.getpid()}", args.workload)
            run = traced_order if args.workload == "order-37" else traced_parallel
            metrics = ledger.run("traced run", run, bnsl, inputs, args.seconds, ledger, trace) or {}
            metrics.update(ledger.run("kernel grid", kernels.kernel_grid, args.seed) or {})
            metrics.update(ledger.run("generators", kernels.generation) or {})
            extra["spans"] = trace.write(str(OUT / f"{args.workload}-spans.jsonl.gz"))
    except Deadline as exc:
        ledger.failed += 1
        ledger.attempted += 1
        ledger.problems.append(str(exc))
    signal.alarm(0)

    missing = sorted(set(declared) - set(metrics))
    ledger.gate(not missing, f"metrics not measured: {', '.join(missing)}")
    extra["failed_share"] = ledger.failed / ledger.attempted
    names = [n for n in declared if n in metrics]
    for name in names:
        print(f"{name:45s} {metrics[name]:>16.6g} {declared[name]}")
    for name, value in sorted(extra.items()):
        if name != "samples":
            print(f"{name:45s} {value:>16.6g}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    report = {"context": context, "metrics": metrics, "extra": extra, "problems": ledger.problems}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(context, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": declared[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
