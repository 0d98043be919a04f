"""repro — Distributed Near-Maximum Independent Set Maintenance.

A faithful, laptop-scale reproduction of *"Distributed Near-Maximum
Independent Set Maintenance over Large-scale Dynamic Graphs"* (ICDE 2023):
the OIMIS order-independent distributed MIS framework, the DOIMIS dynamic
maintenance algorithm with selective-activation optimizations, the DisMIS
baseline, the ScaleG/Pregel vertex-centric runtimes they execute on, and the
serial comparators used in the paper's evaluation.

Quickstart
----------
>>> from repro import MISMaintainer
>>> m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
>>> sorted(m.independent_set())
[1, 3, 5]

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from repro.core.activation import ActivationStrategy
from repro.core.baselines import (
    DDisMISRecompute,
    DISTRIBUTED_ALGORITHM_NAMES,
    NaiveRecompute,
    make_algorithm,
)
from repro.core.dismis import DisMISRun, Status, run_dismis
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import OIMISRun, run_oimis, run_oimis_pregel
from repro.core.weighted import WeightedMISMaintainer, weighted_greedy_mis
from repro.serve import (
    AdmissionConfig,
    IngestionService,
    RetryPolicy,
    TraceConfig,
    WriteAheadLog,
    bursty_trace,
)
from repro.stream import StreamingSession, WindowReport
from repro.core.verification import (
    assert_valid_mis,
    is_greedy_fixpoint,
    is_independent_set,
    is_maximal_independent_set,
)
from repro.errors import ReproError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    UpdateBatch,
    VertexDeletion,
    VertexInsertion,
)

__version__ = "1.0.0"

__all__ = [
    "ActivationStrategy",
    "AdmissionConfig",
    "DDisMISRecompute",
    "DISTRIBUTED_ALGORITHM_NAMES",
    "DOIMISMaintainer",
    "DisMISRun",
    "DynamicGraph",
    "EdgeDeletion",
    "EdgeInsertion",
    "IngestionService",
    "MISMaintainer",
    "NaiveRecompute",
    "OIMISRun",
    "ReproError",
    "RetryPolicy",
    "StreamingSession",
    "TraceConfig",
    "WeightedMISMaintainer",
    "WindowReport",
    "WriteAheadLog",
    "bursty_trace",
    "weighted_greedy_mis",
    "Status",
    "UpdateBatch",
    "VertexDeletion",
    "VertexInsertion",
    "assert_valid_mis",
    "is_greedy_fixpoint",
    "is_independent_set",
    "is_maximal_independent_set",
    "make_algorithm",
    "run_dismis",
    "run_oimis",
    "run_oimis_pregel",
]
