"""Constraint-based Bayesian network structure learning.

Markov blanket and neighbourhood backends (GS, IAMB, Inter-IAMB, MMPC,
SI-HITON-PC) composed into the shared three-phase template, with start-set
and legacy backtracking, coarse-grained phase parallelism, d-separation
oracles for exact-recovery testing, and a benchmark CLI.
"""

from .citests import (
    MutualInfoTest,
    OracleTest,
    PartialCorrelationTest,
    TestCounter,
    TestOutcome,
    cor_test,
    make_engine,
    mi_test,
    oracle_test,
)
from .data import ContinuousDataset, Dataset, DiscreteDataset, reverse_columns
from .graph import (
    Dag,
    Pdag,
    Skeleton,
    VStructure,
    d_separated,
    dag_to_cpdag,
    hamming_skeleton,
    has_strictly_directed_path,
    markov_blanket_of,
    unshielded_colliders,
)
from .local import (
    LocalLearnConfig,
    SepsetTable,
    learn_mb,
    learn_nbr,
)
from .network import DiscreteBn, nparams, sample
from .parallel import (
    ParallelExecutor,
    PhaseTaskError,
    WorkerReport,
    partition,
)
from .structure import (
    ALGORITHMS,
    BACKTRACKING_MODES,
    GlobalLearnConfig,
    apply_meek_rules,
    learn_cpdag,
    learn_skeleton,
    orient_v_structures,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BACKTRACKING_MODES",
    "ContinuousDataset",
    "Dag",
    "Dataset",
    "DiscreteBn",
    "DiscreteDataset",
    "GlobalLearnConfig",
    "LocalLearnConfig",
    "MutualInfoTest",
    "OracleTest",
    "ParallelExecutor",
    "PartialCorrelationTest",
    "Pdag",
    "PhaseTaskError",
    "SepsetTable",
    "Skeleton",
    "TestCounter",
    "TestOutcome",
    "VStructure",
    "WorkerReport",
    "apply_meek_rules",
    "cor_test",
    "d_separated",
    "dag_to_cpdag",
    "hamming_skeleton",
    "has_strictly_directed_path",
    "learn_cpdag",
    "learn_mb",
    "learn_nbr",
    "learn_skeleton",
    "make_engine",
    "markov_blanket_of",
    "mi_test",
    "nparams",
    "oracle_test",
    "orient_v_structures",
    "partition",
    "reverse_columns",
    "sample",
    "unshielded_colliders",
]
