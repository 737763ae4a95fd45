"""Command-line interface.

Subcommands: ``learn`` (dataset to CPDAG JSON), ``learn-local`` (single-node
blanket or neighbourhood), ``sample`` (network to CSV), ``nparams``,
``hamming`` (two graph JSONs to an integer), ``bench-order`` and
``bench-scaling``. Exit codes: 0 on success, 1 on usage errors, 2 on data
or model errors. The ``BNSL_SEED`` environment variable supplies a fallback
seed wherever ``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench, formats
from .citests import make_engine
from .graph import hamming_skeleton
from .local import MB_BACKENDS, NBR_BACKENDS, LocalLearnConfig, learn_mb, learn_nbr
from .network import nparams, sample
from .parallel import ParallelExecutor
from .structure import ALGORITHMS, BACKTRACKING_MODES, GlobalLearnConfig, learn_cpdag


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("BNSL_SEED", "0"))


def _csv_list(text: str) -> list[str]:
    return [part for part in (p.strip() for p in text.split(",")) if part]


def build_parser() -> _Parser:
    parser = _Parser(prog="bnsl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    learn = sub.add_parser("learn", help="learn a CPDAG from a dataset")
    learn.add_argument("--data", required=True)
    learn.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    learn.add_argument("--test", choices=("mi", "cor", "oracle"), default=None)
    learn.add_argument("--alpha", type=float, default=0.01)
    learn.add_argument("--workers", type=int, default=1)
    learn.add_argument("--schedule", choices=("static", "dynamic"), default="static")
    learn.add_argument("--backtracking", choices=BACKTRACKING_MODES, default="none")
    learn.add_argument("--max-condition-size", type=int, default=None)
    learn.add_argument("--truth", help="true-DAG JSON, required for --test oracle")
    learn.add_argument("--output", default="-")
    learn.add_argument("--telemetry", help="write per-phase JSON lines here")

    local = sub.add_parser("learn-local", help="learn one node's blanket or neighbourhood")
    local.add_argument("--data", required=True)
    local.add_argument("--node", required=True)
    local.add_argument("--backend", choices=MB_BACKENDS + NBR_BACKENDS, required=True)
    local.add_argument("--test", choices=("mi", "cor", "oracle"), default=None)
    local.add_argument("--alpha", type=float, default=0.01)
    local.add_argument("--start", type=_csv_list, default=[])
    local.add_argument("--whitelist", type=_csv_list, default=[])
    local.add_argument("--blacklist", type=_csv_list, default=[])
    local.add_argument("--max-condition-size", type=int, default=None)
    local.add_argument("--truth")

    smp = sub.add_parser("sample", help="forward-sample a network to CSV")
    smp.add_argument("--network", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=None)
    smp.add_argument("--output", default="-")

    npar = sub.add_parser("nparams", help="free parameter count of a network")
    npar.add_argument("--network", required=True)

    ham = sub.add_parser("hamming", help="skeleton Hamming distance of two graphs")
    ham.add_argument("--a", required=True)
    ham.add_argument("--b", required=True)

    order = sub.add_parser("bench-order", help="order-sensitivity experiment")
    order.add_argument("--network", required=True)
    order.add_argument("--algorithms", type=_csv_list, default=list(ALGORITHMS))
    order.add_argument("--ratios", default="0.1,0.2,0.5,1,2,5")
    order.add_argument("--repetitions", type=int, default=20)
    order.add_argument("--alpha", type=float, default=0.01)
    order.add_argument("--seed", type=int, default=None)
    order.add_argument("--test", choices=("mi", "oracle"), default="mi")
    order.add_argument("--output", required=True)

    scaling = sub.add_parser("bench-scaling", help="parallel scaling experiment")
    scaling.add_argument("--data")
    scaling.add_argument("--network")
    scaling.add_argument("--n", type=int)
    scaling.add_argument("--algorithm", choices=ALGORITHMS, default="si-hiton-pc")
    scaling.add_argument("--workers", default="1,2,3,4,6,8")
    scaling.add_argument("--repetitions", type=int, default=10)
    scaling.add_argument("--alpha", type=float, default=0.01)
    scaling.add_argument("--test", choices=("mi", "cor"), default=None)
    scaling.add_argument("--schedule", choices=("static", "dynamic"), default="static")
    scaling.add_argument("--seed", type=int, default=None)
    scaling.add_argument("--no-backtracking-comparison", action="store_true")
    scaling.add_argument("--output", required=True)

    return parser


def _write_text(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_learn(args) -> int:
    data = formats.load_dataset(args.data)
    test = args.test or ("mi" if data.is_discrete else "cor")
    truth = formats.load_dag(args.truth) if args.truth else None
    cfg = GlobalLearnConfig(
        algorithm=args.algorithm,
        test=test,
        alpha=args.alpha,
        backtracking=args.backtracking,
        workers=args.workers,
        schedule=args.schedule,
        max_condition_size=args.max_condition_size,
    )
    executor = ParallelExecutor(args.workers, args.schedule)
    pdag = learn_cpdag(data, cfg, executor, truth=truth)
    _write_text(json.dumps(formats.graph_to_dict(pdag), indent=1) + "\n", args.output)
    if args.telemetry:
        with open(args.telemetry, "w", encoding="utf-8") as fh:
            for phase in executor.telemetry:
                fh.write(
                    json.dumps(
                        {
                            "phase": phase.phase,
                            "seconds": phase.seconds,
                            "per_worker_tests": [r.test_count for r in phase.reports],
                            "total_tests": phase.test_count,
                        }
                    )
                    + "\n"
                )
    return 0


def _cmd_learn_local(args) -> int:
    data = formats.load_dataset(args.data)
    test = args.test or ("mi" if data.is_discrete else "cor")
    truth = formats.load_dag(args.truth) if args.truth else None
    engine = make_engine(test, data, args.alpha, truth=truth)
    cfg = LocalLearnConfig(
        backend=args.backend,
        start=frozenset(args.start),
        whitelist=frozenset(args.whitelist),
        blacklist=frozenset(args.blacklist),
        max_condition_size=args.max_condition_size,
    )
    learner = learn_mb if args.backend in MB_BACKENDS else learn_nbr
    members, sepsets = learner(data, args.node, cfg, engine)
    doc = {
        "node": args.node,
        "backend": args.backend,
        "members": sorted(members),
        "sepsets": {
            f"{a}|{b}": (sorted(s) if s is not None else None) for (a, b), s in sepsets.items()
        },
        "tests": engine.counter.count,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_sample(args) -> int:
    bn = formats.load_network(args.network)
    data = sample(bn, args.n, _env_seed(args.seed))
    if args.output == "-":
        formats.write_dataset(data, sys.stdout)
    else:
        formats.save_dataset(data, args.output)
    return 0


def _cmd_bench_order(args) -> int:
    spec = bench.OrderExperimentSpec(
        network=args.network,
        algorithms=tuple(args.algorithms),
        ratios=tuple(float(r) for r in _csv_list(args.ratios)),
        repetitions=args.repetitions,
        alpha=args.alpha,
        seed=_env_seed(args.seed),
        test=args.test,
    )
    rows = bench.run_order_experiment(spec)
    bench.write_csv(rows, args.output)
    return 0


def _cmd_bench_scaling(args) -> int:
    spec = bench.ScalingExperimentSpec(
        data=args.data,
        network=args.network,
        n=args.n,
        algorithm=args.algorithm,
        workers=tuple(int(k) for k in _csv_list(args.workers)),
        repetitions=args.repetitions,
        alpha=args.alpha,
        test=args.test,
        schedule=args.schedule,
        seed=_env_seed(args.seed),
        compare_backtracking=not args.no_backtracking_comparison,
    )
    rows = bench.run_scaling_experiment(spec)
    bench.write_csv(rows, args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "learn-local":
            return _cmd_learn_local(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "nparams":
            print(nparams(formats.load_network(args.network)))
            return 0
        if args.command == "hamming":
            print(hamming_skeleton(formats.load_skeleton(args.a), formats.load_skeleton(args.b)))
            return 0
        if args.command == "bench-order":
            return _cmd_bench_order(args)
        if args.command == "bench-scaling":
            return _cmd_bench_scaling(args)
        raise ValueError(f"unknown command: {args.command!r}")
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bnsl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
