"""OIMIS — Order-Independent MIS computation (Algorithm 2).

Every vertex carries one boolean ``in``.  An active vertex re-derives::

    in(u) = not exists v in nbr(u): v ≺ u and in(v)

against the previous superstep's states, and on change activates neighbours
per the configured :class:`~repro.core.activation.ActivationStrategy`.  The
run converges to the unique fixpoint of the degree-order greedy MIS —
exactly DisMIS's result (Theorem 4.1) — in at most as many supersteps as
DisMIS, independent of initial states.

Two implementations are provided:

- :class:`OIMISProgram` — the primary one, on the ScaleG engine, where
  neighbour states are local guest-copy reads and a changed vertex syncs
  once per machine.  This is what the paper deploys and what the dynamic
  algorithm (:mod:`repro.core.doimis`) resumes.
- :class:`OIMISPregelProgram` — a classic message-passing variant for
  cross-engine validation: each vertex caches neighbour ``(degree, in)``
  pairs from broadcasts.  Static graphs only (the cache does not track
  degree changes).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.core.activation import ActivationStrategy, activation_requests
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.pregel.engine import PregelContext, PregelEngine, PregelProgram
from repro.pregel.metrics import DEGREE_BYTES, STATUS_BYTES, VERTEX_ID_BYTES, RunMetrics
from repro.pregel.partition import HashPartitioner
from repro.runtime.base import ExecutionBackend
from repro.scaleg.engine import ScaleGContext, ScaleGEngine, ScaleGProgram


class OIMISProgram(ScaleGProgram):
    """Algorithm 2 as a ScaleG vertex program.

    State is a plain ``bool`` (``u.in``).  ``strategy`` selects the
    activation filter of Section V; ``full_scan=True`` disables the early
    ``break`` of Algorithm 2 lines 6-8, which turns the program into the
    paper's ``SCALL`` baseline (identical results and communication, more
    neighbour scans).
    """

    def __init__(
        self,
        strategy: ActivationStrategy = ActivationStrategy.ALL,
        full_scan: bool = False,
    ):
        self.strategy = strategy
        self.full_scan = full_scan

    def initial_state(self, dgraph: DistributedGraph, u: int) -> bool:
        # Algorithm 2 line 2: u.in <- true.  (Theorem 4.2's order-independence
        # means any initialization converges to the same fixpoint; tests
        # exercise adversarial initializations too.)
        return True

    def initial_states(self, dgraph: DistributedGraph) -> Dict[int, bool]:
        return dict.fromkeys(dgraph.vertices(), True)

    def compute(self, ctx: ScaleGContext) -> None:
        old = ctx.state
        new_in = True
        my_rank = (ctx.degree(), ctx.vertex)
        if self.full_scan:
            # SCALL: examine every neighbour (same full cost in any order)
            for v in ctx.ranked_neighbors():
                ctx.charge(1)  # rank comparison against the guest record
                if ctx.rank_of(v) < my_rank and ctx.neighbor_state(v):
                    new_in = False
        else:
            # Rank-ordered scan: dominating candidates form a prefix, so the
            # early break of Algorithm 2 fires at the first in-set neighbour
            # — and the whole scan stops once nothing can precede u.
            for v in ctx.ranked_neighbors():
                ctx.charge(1)  # rank comparison against the guest record
                if ctx.rank_of(v) > my_rank:
                    break
                if ctx.neighbor_state(v):
                    new_in = False
                    break
        ctx.set_state(new_in)
        if new_in != old:
            for v, predicate in activation_requests(ctx, self.strategy):
                ctx.activate(v, predicate)

    def sync_bytes(self, state: bool) -> int:
        # one boolean status per sync (the paper: "vertices only have two
        # status to synced")
        return STATUS_BYTES

    def state_bytes(self, state: bool) -> int:
        return STATUS_BYTES

    def uniform_state_bytes(self) -> int:
        return STATUS_BYTES

    def csr_kernel(self):
        from repro.graph.csr import OIMISKernel

        return OIMISKernel(self.strategy, self.full_scan)

    def contract_members(self, states: Dict[int, bool]) -> Set[int]:
        return independent_set_from_states(states)


class OIMISPregelProgram(PregelProgram):
    """Message-passing OIMIS for cross-engine validation (static graphs).

    Vertex state is ``{"in": bool, "nbr": {v: (deg_v, in_v)}}``.  Superstep 0
    broadcasts ``(id, degree, True)``; later supersteps fold received
    broadcasts into the cache, recompute ``in``, and re-broadcast on change.
    """

    _BCAST_BYTES = VERTEX_ID_BYTES + DEGREE_BYTES + STATUS_BYTES

    def initial_state(self, dgraph: DistributedGraph, u: int) -> Dict[str, Any]:
        return {"in": True, "nbr": {}}

    def compute(self, ctx: PregelContext) -> None:
        state = dict(ctx.state)
        cache = dict(state["nbr"])
        if ctx.superstep == 0:
            ctx.broadcast((ctx.vertex, ctx.degree(), True), self._BCAST_BYTES)
            ctx.set_state({"in": True, "nbr": cache})
            return
        for v, deg_v, in_v in ctx.messages:
            cache[v] = (deg_v, in_v)
            ctx.charge(1)
        my_rank = (ctx.degree(), ctx.vertex)
        new_in = True
        # rank-ordered scan (the ScaleG variant reads this order straight
        # from the cached adjacency; here the per-vertex broadcast cache is
        # state-local, so it is ordered on the fly)
        for v, (deg_v, in_v) in sorted(
            cache.items(), key=lambda item: (item[1][0], item[0])
        ):
            ctx.charge(1)
            if (deg_v, v) > my_rank:
                break
            if in_v:
                new_in = False
                break
        changed = new_in != state["in"]
        ctx.set_state({"in": new_in, "nbr": cache})
        if changed:
            ctx.broadcast((ctx.vertex, ctx.degree(), new_in), self._BCAST_BYTES)

    def state_bytes(self, state: Dict[str, Any]) -> int:
        # the neighbour cache mirrors what ScaleG keeps as guest copies
        return STATUS_BYTES + len(state["nbr"]) * (
            VERTEX_ID_BYTES + DEGREE_BYTES + STATUS_BYTES
        )


def independent_set_from_states(states: Dict[int, bool]) -> Set[int]:
    """Extract ``{u | u.in}`` from an OIMIS state map."""
    return {u for u, in_set in states.items() if in_set}


def run_oimis(
    graph: DynamicGraph,
    num_workers: int = 10,
    strategy: ActivationStrategy = ActivationStrategy.ALL,
    partitioner=None,
    metrics: Optional[RunMetrics] = None,
    initial_states: Optional[Dict[int, bool]] = None,
    runtime=None,
    representation=None,
) -> "OIMISRun":
    """Compute the independent set of a static graph with OIMIS on ScaleG.

    Returns an :class:`OIMISRun` with the set, the raw states (reusable for
    dynamic maintenance), and the run metrics.  ``runtime`` selects the
    execution backend (``None``/``"inline"``, ``"process"``, or an
    :class:`~repro.runtime.base.ExecutionBackend`); a string-selected
    process runtime is closed before returning, a backend instance stays
    owned by the caller.  ``representation`` selects the partition layout
    (default CSR, ``"dict"`` for the reference path; see
    :class:`~repro.scaleg.engine.ScaleGEngine`).
    """
    dgraph = DistributedGraph(
        graph, partitioner or HashPartitioner(num_workers)
    )
    engine = ScaleGEngine(dgraph, runtime=runtime,
                          representation=representation)
    program = OIMISProgram(strategy=strategy)
    states = dict(initial_states) if initial_states is not None else None
    try:
        result = engine.run(program, states=states, metrics=metrics)
    finally:
        if not isinstance(runtime, ExecutionBackend):
            engine.close()
    return OIMISRun(
        independent_set=independent_set_from_states(result.states),
        states=result.states,
        metrics=result.metrics,
    )


def run_oimis_pregel(
    graph: DynamicGraph,
    num_workers: int = 10,
    partitioner=None,
    metrics: Optional[RunMetrics] = None,
) -> "OIMISRun":
    """Compute the independent set with the message-passing variant."""
    dgraph = DistributedGraph(
        graph, partitioner or HashPartitioner(num_workers)
    )
    result = PregelEngine(dgraph).run(OIMISPregelProgram(), metrics=metrics)
    states = {u: s["in"] for u, s in result.states.items()}
    return OIMISRun(
        independent_set=independent_set_from_states(states),
        states=states,
        metrics=result.metrics,
    )


class OIMISRun:
    """Outcome of a static OIMIS computation."""

    def __init__(self, independent_set: Set[int], states: Dict[int, bool],
                 metrics: RunMetrics):
        self.independent_set = independent_set
        self.states = states
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OIMISRun(|MIS|={len(self.independent_set)}, "
            f"supersteps={self.metrics.supersteps})"
        )
