"""Command-line interface.

Subcommands: ``learn`` (dataset to CPDAG JSON), ``learn-local`` (single-node
blanket or neighbourhood), ``sample`` (network to CSV), ``nparams``,
``hamming`` (two graph JSONs to an integer), ``bench-order`` and
``bench-scaling``. Exit codes: 0 on success, 1 on usage errors (a malformed
list flag such as ``--ratios 0.5,abc``, or an empty ``--algorithms``,
``--ratios`` or ``--workers``), 2 on data or model errors. ``bench-scaling``
takes either ``--data``, or ``--network`` with ``--n``, but not both: ``--n``
goes only with ``--network``. The ``BNSL_SEED`` environment variable
supplies a fallback seed wherever ``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial

from . import bench, formats
from .citests import default_test, make_engine
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


def _algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise argparse.ArgumentTypeError(f"unknown algorithm: {name!r}")
    return name


def _list_of(item, container=tuple, allow_empty=False):
    """An argparse ``type``: comma-separated ``item``s, blanks dropped, in a
    ``container``; an empty list is a usage error unless ``allow_empty``."""

    def parse(text: str):
        parts = container(item(part.strip()) for part in text.split(",") if part.strip())
        if not (parts or allow_empty):
            raise argparse.ArgumentTypeError("expected at least one value")
        return parts

    parse.__name__ = f"{item.__name__} list"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="bnsl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    learn_flags = argparse.ArgumentParser(add_help=False)
    learn_flags.add_argument("--data", required=True)
    learn_flags.add_argument("--test", choices=("mi", "cor", "oracle"))
    learn_flags.add_argument("--alpha", type=float, default=0.01)
    learn_flags.add_argument("--max-condition-size", type=int)
    learn_flags.add_argument("--truth", help="true-DAG JSON, required for --test oracle")

    bench_flags = argparse.ArgumentParser(add_help=False)
    bench_flags.add_argument("--repetitions", type=int)
    bench_flags.add_argument("--alpha", type=float)
    bench_flags.add_argument("--seed", type=int)
    bench_flags.add_argument("--output", required=True)

    learn = sub.add_parser("learn", parents=[learn_flags], help="learn a CPDAG from a dataset")
    learn.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    learn.add_argument("--workers", type=int)
    learn.add_argument("--schedule", choices=("static", "dynamic"))
    learn.add_argument("--backtracking", choices=BACKTRACKING_MODES)
    learn.add_argument("--output", default="-")
    learn.add_argument("--telemetry", help="write per-phase JSON lines here")
    learn.set_defaults(run=_cmd_learn)

    local = sub.add_parser(
        "learn-local", parents=[learn_flags], help="learn one node's blanket or neighbourhood"
    )
    local.add_argument("--node", required=True)
    local.add_argument("--backend", choices=MB_BACKENDS + NBR_BACKENDS, required=True)
    local.add_argument("--start", type=_list_of(str, frozenset, allow_empty=True))
    local.add_argument("--whitelist", type=_list_of(str, frozenset, allow_empty=True))
    local.add_argument("--blacklist", type=_list_of(str, frozenset, allow_empty=True))
    local.set_defaults(run=_cmd_learn_local)

    smp = sub.add_parser("sample", help="forward-sample a network to CSV")
    smp.add_argument("--network", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=None)
    smp.add_argument("--output", default="-")
    smp.set_defaults(run=_cmd_sample)

    npar = sub.add_parser("nparams", help="free parameter count of a network")
    npar.add_argument("--network", required=True)
    npar.set_defaults(run=lambda args: print(nparams(formats.load_network(args.network))))

    ham = sub.add_parser("hamming", help="skeleton Hamming distance of two graphs")
    ham.add_argument("--a", required=True)
    ham.add_argument("--b", required=True)
    ham.set_defaults(
        run=lambda args: print(hamming_skeleton(formats.load_skeleton(args.a), formats.load_skeleton(args.b)))
    )

    order = sub.add_parser("bench-order", parents=[bench_flags], help="order-sensitivity experiment")
    order.add_argument("--network", required=True)
    order.add_argument("--algorithms", type=_list_of(_algorithm))
    order.add_argument("--ratios", type=_list_of(float))
    order.add_argument("--test", choices=("mi", "oracle"))
    order.set_defaults(run=partial(_cmd_bench, bench.OrderExperimentSpec, bench.run_order_experiment))

    scaling = sub.add_parser("bench-scaling", parents=[bench_flags], help="parallel scaling experiment")
    scaling.add_argument("--data")
    scaling.add_argument("--network")
    scaling.add_argument("--n", type=int)
    scaling.add_argument("--algorithm", choices=ALGORITHMS)
    scaling.add_argument("--workers", type=_list_of(int))
    scaling.add_argument("--test", choices=("mi", "cor"))
    scaling.add_argument("--schedule", choices=("static", "dynamic"))
    scaling.add_argument("--no-backtracking-comparison", dest="compare_backtracking", action="store_false")
    scaling.set_defaults(run=partial(_cmd_bench, bench.ScalingExperimentSpec, bench.run_scaling_experiment))

    return parser


def _learn_inputs(args):
    """The dataset, its test (``--test``, else the kind's default) and the ``--truth`` DAG."""
    data = formats.load_dataset(args.data)
    test = args.test or default_test(data)
    return data, test, formats.load_dag(args.truth) if args.truth else None


def _from_args(config_type, args, **fixed):
    """``config_type`` built from the flags named like its fields, plus ``fixed``;
    a flag left unset (None) keeps the field's default."""
    fields = {f.name for f in dataclasses.fields(config_type)}
    given = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return config_type(**dict(given, **fixed))


def _cmd_learn(args) -> None:
    data, test, truth = _learn_inputs(args)
    cfg = _from_args(GlobalLearnConfig, args, test=test)
    executor = ParallelExecutor(cfg.workers, cfg.schedule)
    pdag = learn_cpdag(data, cfg, executor, truth=truth)
    if args.output == "-":
        sys.stdout.write(json.dumps(formats.graph_to_dict(pdag), indent=1) + "\n")
    else:
        formats.save_graph(pdag, args.output)
    if args.telemetry:
        with open(args.telemetry, "w", encoding="utf-8") as fh:
            for phase in executor.telemetry:
                doc = {
                    "phase": phase.phase,
                    "seconds": phase.seconds,
                    "per_worker_tests": [r.test_count for r in phase.reports],
                    "total_tests": phase.test_count,
                }
                fh.write(json.dumps(doc) + "\n")


def _cmd_learn_local(args) -> None:
    data, test, truth = _learn_inputs(args)
    engine = make_engine(test, data, args.alpha, truth=truth)
    learner = learn_mb if args.backend in MB_BACKENDS else learn_nbr
    members, sepsets = learner(data, args.node, _from_args(LocalLearnConfig, args), engine)
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


def _cmd_sample(args) -> None:
    bn = formats.load_network(args.network)
    data = sample(bn, args.n, _env_seed(args.seed))
    if args.output == "-":
        formats.write_dataset(data, sys.stdout)
    else:
        formats.save_dataset(data, args.output)


def _cmd_bench(spec_type, run_experiment, args) -> None:
    spec = _from_args(spec_type, args, seed=_env_seed(args.seed))
    bench.write_csv(run_experiment(spec), args.output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.run(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bnsl: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
