"""Distributed baselines for the efficiency study (Section VII-D).

All maintainers expose the same interface (``apply_batch`` /
``independent_set`` / ``update_metrics``) so the benchmark harness can sweep
over them uniformly:

- **DOIMIS / DOIMIS+ / DOIMIS\\*** — Algorithm 3 with the three activation
  strategies (:func:`make_algorithm` names them as the paper does).
- **SCALL** — maintains the set dynamically like DOIMIS, but every active
  vertex scans *all* neighbours instead of stopping at the first dominating
  in-set neighbour.  Identical results and communication, more computation.
- **Naive** — recomputes OIMIS from scratch on the updated graph for every
  batch.
- **dDisMIS** — recomputes DisMIS from scratch on the updated graph for
  every batch.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.activation import ActivationStrategy
from repro.core.dismis import DisMISProgram, Status
from repro.core.doimis import DOIMISMaintainer
from repro.core.oimis import OIMISProgram, independent_set_from_states
from repro.errors import WorkloadError
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate
from repro.pregel.metrics import RunMetrics
from repro.pregel.partition import HashPartitioner, Partitioner
from repro.scaleg.engine import ScaleGEngine


class RecomputeBaseline:
    """Shared machinery for the from-scratch baselines (Naive / dDisMIS)."""

    #: subclasses set the paper's display name
    name = "Recompute"

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 10,
        partitioner: Optional[Partitioner] = None,
    ):
        self._dgraph = DistributedGraph(
            graph, partitioner or HashPartitioner(num_workers)
        )
        self._engine = ScaleGEngine(self._dgraph)
        self.init_metrics = RunMetrics(num_workers=self._dgraph.num_workers)
        self.update_metrics = RunMetrics(num_workers=self._dgraph.num_workers)
        self.updates_applied = 0
        self.batches_applied = 0
        self._set: Set[int] = set()
        self._recompute(self.init_metrics)

    # subclasses provide the actual static program run
    def _recompute(self, metrics: RunMetrics) -> None:
        raise NotImplementedError

    @property
    def graph(self) -> DynamicGraph:
        return self._dgraph.graph

    def independent_set(self) -> Set[int]:
        return set(self._set)

    def apply_batch(self, operations: Sequence[EdgeUpdate]) -> None:
        ops: List[EdgeUpdate] = list(operations)
        if not ops:
            return
        started = time.perf_counter()
        for op in ops:
            if isinstance(op, EdgeInsertion):
                self._dgraph.add_edge(op.u, op.v)
            elif isinstance(op, EdgeDeletion):
                self._dgraph.remove_edge(op.u, op.v)
            else:
                raise WorkloadError(f"unsupported operation {op!r}")
        self.update_metrics.wall_time_s += time.perf_counter() - started
        self._recompute(self.update_metrics)
        self.updates_applied += len(ops)
        self.batches_applied += 1

    def apply_stream(self, operations: Iterable[EdgeUpdate], batch_size: int = 1) -> None:
        pending: List[EdgeUpdate] = []
        for op in operations:
            pending.append(op)
            if len(pending) >= batch_size:
                self.apply_batch(pending)
                pending = []
        if pending:
            self.apply_batch(pending)


class NaiveRecompute(RecomputeBaseline):
    """The paper's ``Naive``: rerun OIMIS from scratch per batch."""

    name = "Naive"

    def _recompute(self, metrics: RunMetrics) -> None:
        program = OIMISProgram(strategy=ActivationStrategy.ALL)
        result = self._engine.run(program, metrics=metrics, keep_records=False)
        self._set = independent_set_from_states(result.states)


class DDisMISRecompute(RecomputeBaseline):
    """The paper's ``dDisMIS``: rerun DisMIS from scratch per batch."""

    name = "dDisMIS"

    def _recompute(self, metrics: RunMetrics) -> None:
        result = self._engine.run(
            DisMISProgram(), metrics=metrics, keep_records=False
        )
        self._set = {u for u, s in result.states.items() if s == Status.IN}


#: paper algorithm name -> constructor kwargs for :class:`DOIMISMaintainer`
_DOIMIS_VARIANTS: Dict[str, Dict] = {
    "DOIMIS": {"strategy": ActivationStrategy.ALL, "full_scan": False},
    "DOIMIS+": {"strategy": ActivationStrategy.LOWER_RANKING, "full_scan": False},
    "DOIMIS*": {"strategy": ActivationStrategy.SAME_STATUS, "full_scan": False},
    "SCALL": {"strategy": ActivationStrategy.ALL, "full_scan": True},
}

DISTRIBUTED_ALGORITHM_NAMES = ("SCALL", "DOIMIS", "DOIMIS+", "DOIMIS*", "Naive", "dDisMIS")


def make_algorithm(
    name: str,
    graph: DynamicGraph,
    num_workers: int = 10,
    partitioner: Optional[Partitioner] = None,
    runtime=None,
):
    """Build a distributed maintenance algorithm by its paper name.

    Accepted names: ``SCALL``, ``DOIMIS``, ``DOIMIS+``, ``DOIMIS*``,
    ``Naive``, ``dDisMIS``.  All returned objects share the
    ``apply_batch / apply_stream / independent_set / update_metrics``
    interface.  ``runtime`` selects the execution backend for the DOIMIS
    variants (the recompute baselines always run inline).
    """
    if name in _DOIMIS_VARIANTS:
        return DOIMISMaintainer(
            graph, num_workers=num_workers, partitioner=partitioner,
            runtime=runtime,
            **_DOIMIS_VARIANTS[name],
        )
    if runtime is not None:
        raise WorkloadError(
            f"algorithm {name!r} does not support a custom runtime"
        )
    if name == "Naive":
        return NaiveRecompute(graph, num_workers=num_workers, partitioner=partitioner)
    if name == "dDisMIS":
        return DDisMISRecompute(graph, num_workers=num_workers, partitioner=partitioner)
    raise WorkloadError(
        f"unknown algorithm {name!r}; known: {', '.join(DISTRIBUTED_ALGORITHM_NAMES)}"
    )
