"""DOIMIS — dynamic MIS maintenance (Algorithm 3 + Section VI).

Given a graph whose MIS (OIMIS fixpoint) is already materialized, an update
is processed by:

1. applying the edge insertions/deletions to the distributed graph (which
   keeps the guest directory in lock-step and reports brand-new guest
   copies);
2. charging the update's own communication — degree changes ship to each
   endpoint's guest copies, new copies ship full state (Section IV-A);
3. activating the *affected vertices* (Definition 4.1: the update's terminal
   vertices plus all their neighbours, on the updated graph);
4. resuming the OIMIS vertex program from the current states until no vertex
   is active.

Theorems 4.2/6.1: the result equals OIMIS recomputed from scratch on the
updated graph, for any update order and any batch size.  Vertex insertion
adds the vertex with ``in = true`` and batch-inserts its edges; vertex
deletion batch-deletes the incident edges first.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.activation import ActivationStrategy
from repro.core.oimis import OIMISProgram, independent_set_from_states
from repro.errors import WorkloadError
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph, vertex_id
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    EdgeUpdate,
    UpdateBatch,
    UpdateOp,
    VertexDeletion,
    VertexInsertion,
    affected_vertices,
)
from repro.pregel.metrics import RunMetrics
from repro.pregel.partition import HashPartitioner, Partitioner
from repro.scaleg.engine import ScaleGEngine


class DOIMISMaintainer:
    """Maintains the OIMIS independent set under graph updates.

    Parameters
    ----------
    graph:
        The initial graph.  The maintainer takes ownership and mutates it.
    num_workers:
        Simulated cluster size (the paper's default is 10).
    strategy:
        Activation strategy — ``ALL`` is plain DOIMIS, ``LOWER_RANKING`` is
        DOIMIS+, ``SAME_STATUS`` is DOIMIS* (the paper's best variant and
        this class's default).
    full_scan:
        Disable the early-exit neighbour scan (the SCALL baseline).
    keep_records:
        Retain per-superstep records in the update metrics.  Needed for the
        per-superstep makespan model; off by default because a 100k-update
        stream would accumulate hundreds of thousands of records.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` or
        :class:`~repro.faults.injector.FaultInjector` handed to the engine —
        every maintenance run then executes under seeded fault injection
        with recovery.  ``None`` (or an empty plan) is the fault-free build.
        A plan that schedules permanent losses or joins/drains attaches a
        :class:`~repro.faults.membership.FailoverCoordinator` (partition
        reassignment + lost-host reconstruction).
    runtime:
        Execution backend for the compute sweeps — ``None``/``"inline"``
        (serial, the default), ``"process"`` (the multi-core
        :class:`~repro.runtime.parallel.ParallelRuntime`), or an
        :class:`~repro.runtime.base.ExecutionBackend` instance.  Call
        :meth:`close` (or use the maintainer as a context manager) when a
        process runtime is attached.
    sanitize:
        ``True`` or a :class:`~repro.analysis.parallel.RaceSanitizer` turns
        on the runtime checker (``None``/``False``: off) — the engine's
        backend is then wrapped to record per-worker read/write sets each
        superstep and flag races, and every converged batch's set is
        checked for independence and maximality (see
        :mod:`repro.analysis.parallel`).
    representation:
        Partition representation for the engine's sweeps — ``None``/
        ``"csr"`` (the default: flat-array mirror, vectorized sweeps +
        shared-memory worker frames) or ``"dict"`` (the bit-identity
        reference).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 10,
        strategy: ActivationStrategy = ActivationStrategy.SAME_STATUS,
        partitioner: Optional[Partitioner] = None,
        full_scan: bool = False,
        keep_records: bool = False,
        resume_states: Optional[Dict[int, bool]] = None,
        program: Optional[OIMISProgram] = None,
        faults=None,
        runtime=None,
        sanitize=None,
        representation=None,
    ):
        self._dgraph = DistributedGraph(
            graph, partitioner or HashPartitioner(num_workers)
        )
        self._engine = ScaleGEngine(
            self._dgraph, faults=faults, runtime=runtime, sanitize=sanitize,
            representation=representation,
        )
        self._program = program if program is not None else OIMISProgram(
            strategy=strategy, full_scan=full_scan
        )
        self._keep_records = keep_records
        self.init_metrics = RunMetrics(num_workers=self._dgraph.num_workers)
        self.update_metrics = RunMetrics(num_workers=self._dgraph.num_workers)
        if resume_states is None:
            result = self._engine.run(self._program, metrics=self.init_metrics)
            self._states: Dict[int, bool] = result.states
        else:
            # checkpoint restore: trust the stored fixpoint (cheap to audit
            # with verify()); missing vertices default to in = true, the
            # same initialization a fresh vertex gets
            self._states = {
                u: bool(resume_states.get(u, True)) for u in graph.vertices()
            }
            # settle the CSR mirror now, while the graph still holds the
            # arrays it was restored from: the first update then repairs
            # its rows instead of rebuilding from the adjacency sets
            self._engine.attach_csr(self._program)
        self.updates_applied = 0
        self.batches_applied = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        return self._dgraph.graph

    @property
    def dgraph(self) -> DistributedGraph:
        return self._dgraph

    @property
    def strategy(self) -> ActivationStrategy:
        return self._program.strategy

    @property
    def num_workers(self) -> int:
        return self._dgraph.num_workers

    @property
    def failover(self):
        """The engine's failover coordinator (``None`` unless the fault
        plan schedules a loss or a join/drain)."""
        return self._engine.failover

    @property
    def runtime(self):
        """The engine's execution backend (inline by default)."""
        return self._engine.runtime

    @property
    def sanitizer(self):
        """The engine's race sanitizer (``None`` when sanitizing is off)."""
        return self._engine.sanitizer

    def close(self) -> None:
        """Release the execution backend (stops worker processes when the
        maintainer runs on the process runtime; a no-op inline)."""
        self._engine.close()

    def __enter__(self) -> "DOIMISMaintainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def independent_set(self) -> Set[int]:
        """The currently maintained independent set ``{u | u.in}``."""
        return independent_set_from_states(self._states)

    def contains(self, u: int) -> bool:
        """Whether ``u`` is in the maintained set (False for unknown ids)."""
        return bool(self._states.get(u, False))

    def __len__(self) -> int:
        return sum(1 for in_set in self._states.values() if in_set)

    # ------------------------------------------------------------------
    # update operations
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)`` and restore the MIS."""
        self.apply_batch([EdgeInsertion(u, v)])

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)`` and restore the MIS."""
        self.apply_batch([EdgeDeletion(u, v)])

    def insert_vertex(self, u: int, neighbors: Iterable[int] = ()) -> None:
        """Insert vertex ``u`` (with optional incident edges) — Section VI.

        ``u`` first joins the set (``in = true``), then the incident edges
        are processed as one batch.  Atomic: the ids and the edge batch are
        checked before ``u`` exists, and a batch that fails takes ``u``
        back out.
        """
        u = vertex_id(u)
        if self._dgraph.has_vertex(u):
            raise WorkloadError(f"vertex {u} already exists")
        edges = [EdgeInsertion(u, v)
                 for v in sorted({vertex_id(v) for v in neighbors})]
        self._validate_batch(edges)
        self._dgraph.add_vertex(u)
        self._states[u] = True
        if not edges:
            self.updates_applied += 1
            return
        try:
            self.apply_batch(edges)
        except BaseException:
            self._dgraph.remove_vertex(u)
            self._states.pop(u, None)
            raise

    def delete_vertex(self, u: int) -> None:
        """Delete vertex ``u``: batch-delete incident edges, then drop it."""
        u = vertex_id(u)
        incident = [EdgeDeletion(u, v) for v in sorted(self.graph.neighbors(u))]
        if incident:
            self.apply_batch(incident)
        self._dgraph.remove_vertex(u)
        self._states.pop(u, None)
        self.updates_applied += 1

    def apply(self, op: UpdateOp) -> None:
        """Apply a single update operation of any kind."""
        if isinstance(op, (EdgeInsertion, EdgeDeletion)):
            self.apply_batch([op])
        elif isinstance(op, VertexInsertion):
            self.insert_vertex(op.u, op.neighbors)
        elif isinstance(op, VertexDeletion):
            self.delete_vertex(op.u)
        else:
            raise WorkloadError(f"unknown update operation {op!r}")

    def apply_batch(self, operations: Union[UpdateBatch, Sequence[EdgeUpdate]]) -> None:
        """Apply a batch of edge updates and re-converge (Section VI).

        The batch is validated as a whole *before* any mutation (atomic: an
        invalid operation raises and leaves graph and set untouched), then
        the graph mutates, and one maintenance run starts from the union of
        all operations' affected vertices.
        """
        ops: List[EdgeUpdate] = list(operations)
        if not ops:
            return
        self._validate_batch(ops)
        started = time.perf_counter()
        touched: Set[int] = set()
        new_guests: List[int] = []  # vertex per brand-new guest copy
        for op in ops:
            if isinstance(op, EdgeInsertion):
                gained_u, gained_v = self._dgraph.add_edge(op.u, op.v)
                if gained_u:
                    new_guests.extend([op.u] * gained_u)
                if gained_v:
                    new_guests.extend([op.v] * gained_v)
            else:
                self._dgraph.remove_edge(op.u, op.v)
            touched.add(op.u)
            touched.add(op.v)
        # edge insertions may introduce brand-new vertices: they join with
        # in = true, exactly like Section VI's vertex insertion (sorted so
        # the state dict's insertion order never depends on set hashing)
        created: List[int] = []
        for u in sorted(touched):
            if u not in self._states and self._dgraph.has_vertex(u):
                self._states[u] = True
                created.append(u)

        self._engine.charge_graph_update(
            sorted(touched), new_guests, self._program,
            self._states, self.update_metrics,
        )
        affected = affected_vertices(self.graph, touched)
        self.update_metrics.wall_time_s += time.perf_counter() - started
        try:
            self._engine.run(
                self._program,
                initial_active=affected,
                states=self._states,
                metrics=self.update_metrics,
                keep_records=self._keep_records,
            )
        except BaseException:
            # the engine restored every state it overwrote; undo this
            # batch's graph mutations (guest directory follows in
            # lock-step) and implicitly-created vertices so the maintainer
            # is exactly as before apply_batch was called
            for op in reversed(ops):
                if isinstance(op, EdgeInsertion):
                    self._dgraph.remove_edge(op.u, op.v)
                else:
                    self._dgraph.add_edge(op.u, op.v)
            for u in created:
                self._dgraph.remove_vertex(u)
                self._states.pop(u, None)
            raise
        self.updates_applied += len(ops)
        self.batches_applied += 1

    def _validate_batch(self, ops: Sequence[EdgeUpdate]) -> None:
        """Check the whole batch replays cleanly before touching the graph.

        Tracks the edge-set delta the batch accumulates so a batch may
        legally delete an edge it inserted earlier (and vice versa), exactly
        as sequential application would.  Raises :class:`WorkloadError` /
        the graph errors with the offending operation named, leaving the
        maintainer untouched.
        """
        graph = self.graph
        inserted: Set = set()
        deleted: Set = set()
        for index, op in enumerate(ops):
            if isinstance(op, EdgeInsertion):
                if op.u == op.v:
                    raise WorkloadError(
                        f"batch op {index}: self-loop insertion {op!r}"
                    )
                edge = op.edge
                present = (
                    edge in inserted
                    or (graph.has_edge(op.u, op.v) and edge not in deleted)
                )
                if present:
                    raise WorkloadError(
                        f"batch op {index}: {op!r} inserts an existing edge"
                    )
                inserted.add(edge)
                deleted.discard(edge)
            elif isinstance(op, EdgeDeletion):
                edge = op.edge
                present = (
                    edge in inserted
                    or (
                        graph.has_vertex(op.u)
                        and graph.has_edge(op.u, op.v)
                        and edge not in deleted
                    )
                )
                if not present:
                    raise WorkloadError(
                        f"batch op {index}: {op!r} deletes a missing edge"
                    )
                deleted.add(edge)
                inserted.discard(edge)
            else:
                raise WorkloadError(
                    f"batch op {index}: apply_batch only accepts edge "
                    f"updates, got {op!r}"
                )

    def apply_stream(
        self,
        operations: Iterable[EdgeUpdate],
        batch_size: int = 1,
    ) -> None:
        """Apply an update stream in batches of ``batch_size`` (the paper's
        ``b`` parameter; ``b = 1`` is single-update processing)."""
        if batch_size < 1:
            raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
        pending: List[EdgeUpdate] = []
        for op in operations:
            pending.append(op)
            if len(pending) >= batch_size:
                self.apply_batch(pending)
                pending = []
        if pending:
            self.apply_batch(pending)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Assert the maintained set is the degree-order greedy fixpoint.

        Raises :class:`~repro.errors.VerificationError` on violation.  This
        recomputes the oracle serially — O(n log n + m) — so call it in
        tests and debugging sessions, not per-update in production loops.
        """
        from repro.core.verification import assert_valid_mis

        assert_valid_mis(self.graph, self.independent_set())

    def recompute_from_scratch(self) -> Set[int]:
        """Discard states and rerun static OIMIS (sanity/repair tool).

        Costs are charged to :attr:`init_metrics`, not the update meter.
        """
        result = self._engine.run(self._program, metrics=self.init_metrics)
        self._states = result.states
        return self.independent_set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DOIMISMaintainer(|V|={self.graph.num_vertices}, "
            f"|M|={len(self)}, strategy={self.strategy.value}, "
            f"updates={self.updates_applied})"
        )
