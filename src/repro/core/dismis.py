"""DisMIS — the state-of-the-art distributed *static* MIS (Algorithm 1).

DisMIS runs Luby-style rounds of three supersteps driven by the total order
``≺``:

- **selection** (``superstep % 3 == 1``): an ``Unknown`` vertex with no
  dominating ``Unknown`` neighbour enters ``In`` and notifies neighbours;
- **deletion** (``superstep % 3 == 2``): an ``Unknown`` vertex adjacent to an
  ``In`` vertex becomes ``NotIn`` and notifies neighbours;
- **synchronization** (``superstep % 3 == 0``): still-``Unknown`` vertices
  whose neighbourhood changed re-announce ``(id, status, info)`` so the next
  selection sees fresh information.

This is the *order-dependent* baseline the paper improves on: the result
equals OIMIS's (Theorem 4.1) but the rigid round structure costs extra
supersteps and — because of the sync-superstep re-announcements — roughly
double the communication (Table II).

Implementation note: the paper's pseudocode recounts dominating ``Unknown``
neighbours from the messages received in one superstep, which under-activates
in corner cases (a vertex can be woken by a lower-ranking re-announcement
while a silent dominating neighbour is missed).  Both implementations here
use complete neighbour knowledge — guest-copy reads on ScaleG, a per-vertex
neighbour cache on Pregel — which is what the ScaleG deployment the paper
describes actually provides, and which makes Theorem 4.1 hold unconditionally.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Set

from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.pregel.engine import PregelContext, PregelEngine, PregelProgram
from repro.pregel.metrics import DEGREE_BYTES, STATUS_BYTES, VERTEX_ID_BYTES, RunMetrics
from repro.pregel.partition import HashPartitioner
from repro.scaleg.engine import ScaleGContext, ScaleGEngine, ScaleGProgram


class Status(enum.IntEnum):
    """DisMIS's three vertex states."""

    UNKNOWN = 0
    IN = 1
    NOTIN = 2


class DisMISProgram(ScaleGProgram):
    """Algorithm 1 as a ScaleG vertex program (state = :class:`Status`)."""

    def initial_state(self, dgraph: DistributedGraph, u: int) -> Status:
        return Status.UNKNOWN

    def compute(self, ctx: ScaleGContext) -> None:
        if ctx.superstep == 0:
            # Initialization superstep: status is already Unknown; model the
            # broadcast of (id, status, info) as a forced guest sync, and
            # wake everyone (self included) for the first selection.
            ctx.force_sync()
            ctx.activate(ctx.vertex)
            for v in ctx.ranked_neighbors():
                ctx.activate(v)
            return
        if ctx.state != Status.UNKNOWN:
            return
        phase = ctx.superstep % 3
        if phase == 1:
            self._selection(ctx)
        elif phase == 2:
            self._deletion(ctx)
        else:
            self._synchronization(ctx)

    def _selection(self, ctx: ScaleGContext) -> None:
        # Lines 8-15: count dominating Unknown neighbours (full count, as in
        # the pseudocode — no early break, one of the costs OIMIS sheds).
        count = 0
        my_rank = (ctx.degree(), ctx.vertex)
        for v in ctx.ranked_neighbors():
            ctx.charge(1)
            if ctx.rank_of(v) < my_rank and ctx.neighbor_state(v) == Status.UNKNOWN:
                count += 1
        if count == 0:
            ctx.set_state(Status.IN)
            for v in ctx.ranked_neighbors():
                ctx.activate(v)

    def _deletion(self, ctx: ScaleGContext) -> None:
        # Lines 17-19: a neighbour was selected -> leave the Unknown set.
        # Selected vertices dominate their neighbourhood, so in rank order
        # any In neighbour sits early in the scan — the return fires sooner.
        for v in ctx.ranked_neighbors():
            if ctx.neighbor_state(v) == Status.IN:
                ctx.set_state(Status.NOTIN)
                for w in ctx.ranked_neighbors():
                    ctx.activate(w)
                return

    def _synchronization(self, ctx: ScaleGContext) -> None:
        # Lines 21-22: re-announce (id, status, info) and get this vertex and
        # its neighbours re-examined at the next selection superstep.
        ctx.force_sync()
        ctx.activate(ctx.vertex)
        for v in ctx.ranked_neighbors():
            ctx.activate(v)

    def sync_bytes(self, state: Status) -> int:
        # status + info (the degree used for ≺ comparisons)
        return STATUS_BYTES + DEGREE_BYTES

    def state_bytes(self, state: Status) -> int:
        return STATUS_BYTES + DEGREE_BYTES

    def contract_members(self, states: Dict[int, Status]) -> Set[int]:
        return {u for u, s in states.items() if s == Status.IN}


class DisMISPregelProgram(PregelProgram):
    """Algorithm 1 on the classic message-passing engine.

    Vertex state is ``{"status": Status, "nbr": {v: (deg, Status)}}``; the
    neighbour cache is fed by the initialization broadcast, status-change
    notifications, and sync-superstep re-announcements.
    """

    _FULL_BYTES = VERTEX_ID_BYTES + STATUS_BYTES + DEGREE_BYTES
    _NOTIFY_BYTES = VERTEX_ID_BYTES + STATUS_BYTES

    def initial_state(self, dgraph: DistributedGraph, u: int) -> Dict[str, Any]:
        return {"status": Status.UNKNOWN, "nbr": {}}

    def compute(self, ctx: PregelContext) -> None:
        state = ctx.state
        status: Status = state["status"]
        cache = dict(state["nbr"])
        for payload in ctx.messages:
            v, deg_v, status_v = payload
            cache[v] = (deg_v, status_v)
            ctx.charge(1)

        if ctx.superstep == 0:
            ctx.broadcast(
                (ctx.vertex, ctx.degree(), Status.UNKNOWN), self._FULL_BYTES
            )
            ctx.send(ctx.vertex, (ctx.vertex, ctx.degree(), Status.UNKNOWN),
                     self._FULL_BYTES)
            ctx.set_state({"status": status, "nbr": cache})
            return

        if status != Status.UNKNOWN:
            ctx.set_state({"status": status, "nbr": cache})
            return

        phase = ctx.superstep % 3
        if phase == 1:
            my_rank = (ctx.degree(), ctx.vertex)
            count = 0
            # rank-ordered over the broadcast cache (full count kept, as in
            # the pseudocode — the cost OIMIS sheds)
            for v, (deg_v, status_v) in sorted(
                cache.items(), key=lambda item: (item[1][0], item[0])
            ):
                ctx.charge(1)
                if (deg_v, v) < my_rank and status_v == Status.UNKNOWN:
                    count += 1
            if count == 0:
                status = Status.IN
                ctx.broadcast(
                    (ctx.vertex, ctx.degree(), Status.IN), self._NOTIFY_BYTES
                )
        elif phase == 2:
            # rank-ordered: an In neighbour dominates, so it sorts early and
            # the break fires after fewer scans
            for v in sorted(cache, key=lambda v: (cache[v][0], v)):
                ctx.charge(1)
                if cache[v][1] == Status.IN:
                    status = Status.NOTIN
                    ctx.broadcast(
                        (ctx.vertex, ctx.degree(), Status.NOTIN),
                        self._NOTIFY_BYTES,
                    )
                    break
        else:
            # sync: re-announce and self-message to recount at selection
            ctx.broadcast(
                (ctx.vertex, ctx.degree(), Status.UNKNOWN), self._FULL_BYTES
            )
            ctx.send(
                ctx.vertex,
                (ctx.vertex, ctx.degree(), Status.UNKNOWN),
                self._FULL_BYTES,
            )
        ctx.set_state({"status": status, "nbr": cache})

    def state_bytes(self, state: Dict[str, Any]) -> int:
        return (STATUS_BYTES + DEGREE_BYTES) + len(state["nbr"]) * (
            VERTEX_ID_BYTES + DEGREE_BYTES + STATUS_BYTES
        )


class DisMISRun:
    """Outcome of a DisMIS computation."""

    def __init__(self, independent_set: Set[int], statuses: Dict[int, Status],
                 metrics: RunMetrics):
        self.independent_set = independent_set
        self.statuses = statuses
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DisMISRun(|MIS|={len(self.independent_set)}, "
            f"supersteps={self.metrics.supersteps})"
        )


def run_dismis(
    graph: DynamicGraph,
    num_workers: int = 10,
    partitioner=None,
    engine: str = "scaleg",
    metrics: Optional[RunMetrics] = None,
    runtime=None,
) -> DisMISRun:
    """Compute the independent set of a static graph with DisMIS.

    ``engine`` selects ``"scaleg"`` (the paper's deployment, default) or
    ``"pregel"`` (classic message passing, which runs inline only: any
    ``runtime`` but ``None``/``"inline"`` raises :class:`ValueError`).
    ``runtime`` selects ScaleG's execution backend; a string-selected
    process runtime is closed before returning, a backend instance stays
    owned by the caller.
    """
    from repro.runtime.base import ExecutionBackend

    if engine not in ("scaleg", "pregel"):
        raise ValueError(f"unknown engine {engine!r}; use 'scaleg' or 'pregel'")
    if engine == "pregel" and runtime not in (None, "inline"):
        raise ValueError(
            f"the Pregel engine runs inline only, not on runtime {runtime!r}"
        )
    dgraph = DistributedGraph(graph, partitioner or HashPartitioner(num_workers))
    if engine == "pregel":
        result = PregelEngine(dgraph).run(DisMISPregelProgram(), metrics=metrics)
        statuses = {u: s["status"] for u, s in result.states.items()}
    else:
        bsp = ScaleGEngine(dgraph, runtime=runtime)
        try:
            result = bsp.run(DisMISProgram(), metrics=metrics)
        finally:
            if not isinstance(runtime, ExecutionBackend):
                bsp.close()
        statuses = dict(result.states)
    independent = {u for u, s in statuses.items() if s == Status.IN}
    return DisMISRun(independent, statuses, result.metrics)
