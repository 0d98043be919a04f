"""HistoryDisMIS — the paper's Section III strawman, made executable.

Before introducing OIMIS, the paper sketches the "intuitive" way to make
DisMIS dynamic: *keep all intermediate per-superstep state* of the last
execution, and on an update replay the rounds, recomputing only vertices
whose inputs changed while unaffected vertices answer from the stored
history.  The paper dismisses it on two grounds — the side information
costs ``O(m · k)`` (edges x supersteps), and the replay still runs at least
as many supersteps as static DisMIS — and those two defects are exactly
what OIMIS's order independence removes.

This module implements that strawman faithfully enough to measure it:

- the full DisMIS **round timeline** is materialized per vertex
  (``exit_round``, ``exit_kind``: when and how it left ``Unknown``);
- an update dirties the affected vertices (Definition 4.1's set) and
  replays rounds in order; a dirty vertex is re-classified each round
  against neighbours' timelines (stored for clean vertices, live for dirty
  ones); a vertex whose new status diverges from its recorded one dirties
  its still-undecided neighbours from the next round on;
- supersteps are charged for the **whole round structure** (3 per round
  + init), because the replay cannot skip rounds — the order dependency the
  paper calls out;
- the modelled history footprint is ``O(m · k)`` bytes and is exposed as
  :attr:`HistoryDisMIS.history_memory_mb`.

The maintained set is provably the same fixpoint as everything else, so
the class also serves as yet another independent implementation to check
OIMIS/DOIMIS against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.dismis import Status
from repro.errors import SuperstepLimitExceeded, WorkloadError
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate, affected_vertices
from repro.pregel.metrics import (
    DEGREE_BYTES,
    MESSAGE_OVERHEAD_BYTES,
    STATUS_BYTES,
    VERTEX_ID_BYTES,
    RunMetrics,
)
from repro.pregel.partition import HashPartitioner, Partitioner

#: sentinel exit round for vertices still Unknown (never happens post-run)
_NEVER = 1 << 30


class HistoryDisMIS:
    """Dynamic DisMIS via full-history replay (the Section III strawman)."""

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 10,
        partitioner: Optional[Partitioner] = None,
    ):
        self._dgraph = DistributedGraph(
            graph, partitioner or HashPartitioner(num_workers)
        )
        self.init_metrics = RunMetrics(num_workers=num_workers)
        self.update_metrics = RunMetrics(num_workers=num_workers)
        self.updates_applied = 0
        self.batches_applied = 0
        # timeline records: vertex -> (exit_round, exit_kind)
        self._exit: Dict[int, Tuple[int, Status]] = {}
        self._rounds = 0
        self._full_run(self.init_metrics)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        return self._dgraph.graph

    def independent_set(self) -> Set[int]:
        return {u for u, (_, kind) in self._exit.items() if kind == Status.IN}

    def __len__(self) -> int:
        return sum(1 for _, kind in self._exit.values() if kind == Status.IN)

    @property
    def rounds(self) -> int:
        """Rounds of the recorded execution (k/3 of the paper's supersteps)."""
        return self._rounds

    @property
    def history_memory_mb(self) -> float:
        """Modelled ``O(m · k)`` footprint of the stored intermediate state.

        Per round, every edge's message (id + status + info) and every
        vertex's status snapshot are retained so any round can be replayed.
        """
        graph = self.graph
        per_round = graph.num_edges * (
            VERTEX_ID_BYTES + STATUS_BYTES + DEGREE_BYTES
        ) + graph.num_vertices * STATUS_BYTES
        return per_round * max(self._rounds, 1) / (1024.0 * 1024.0)

    # ------------------------------------------------------------------
    # full (static) execution: round-level simulation of Algorithm 1
    # ------------------------------------------------------------------
    def _full_run(self, metrics: RunMetrics) -> None:
        graph = self.graph
        rank = {u: (graph.degree(u), u) for u in graph.vertices()}
        unknown: Set[int] = set(graph.vertices())
        exit_record: Dict[int, Tuple[int, Status]] = {}
        round_no = 0
        while unknown:
            round_no += 1
            if round_no > graph.num_vertices + 1:
                raise SuperstepLimitExceeded(round_no)
            selected = {
                u
                for u in unknown
                if not any(
                    v in unknown and rank[v] < rank[u]
                    for v in graph.neighbors(u)
                )
            }
            for u in sorted(selected):
                exit_record[u] = (round_no, Status.IN)
            killed = {
                u
                for u in unknown - selected
                if any(v in selected for v in graph.neighbors(u))
            }
            for u in sorted(killed):
                exit_record[u] = (round_no, Status.NOTIN)
            metrics.active_vertices += len(unknown)
            metrics.compute_work += sum(graph.degree(u) for u in unknown)
            unknown -= selected | killed
        self._exit = exit_record
        self._rounds = round_no
        metrics.supersteps += 3 * round_no + 1
        self._charge_history_sync(metrics, graph.vertices(), round_no)
        metrics.observe_memory({0: int(self.history_memory_mb * 1024 * 1024)})

    def _charge_history_sync(self, metrics: RunMetrics, vertices: Iterable[int],
                             rounds: int) -> None:
        """Each listed vertex re-announces (id, status, info) once per round
        to each machine holding a guest copy — the replay's traffic."""
        payload = MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES + STATUS_BYTES + DEGREE_BYTES
        copies = sum(map(self._dgraph.num_guest_copies, vertices))
        metrics.bytes_sent += copies * payload * max(rounds, 1)
        metrics.remote_messages += copies * max(rounds, 1)

    # ------------------------------------------------------------------
    # incremental replay
    # ------------------------------------------------------------------
    def apply_batch(self, operations: Sequence[EdgeUpdate]) -> None:
        ops: List[EdgeUpdate] = list(operations)
        if not ops:
            return
        graph = self.graph
        touched: Set[int] = set()
        for op in ops:
            if isinstance(op, EdgeInsertion):
                self._dgraph.add_edge(op.u, op.v)
            elif isinstance(op, EdgeDeletion):
                self._dgraph.remove_edge(op.u, op.v)
            else:
                raise WorkloadError(f"unsupported operation {op!r}")
            touched.add(op.u)
            touched.add(op.v)
        for u in sorted(touched):
            if graph.has_vertex(u) and u not in self._exit:
                self._exit[u] = (_NEVER, Status.UNKNOWN)  # brand-new vertex
        self._replay(affected_vertices(graph, touched), self.update_metrics)
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

    def _replay(self, seeds: Set[int], metrics: RunMetrics) -> None:
        """Incremental round replay against the stored timelines.

        A *dirty* vertex is re-classified live; a clean vertex answers from
        its record.  Divergence handling is the delicate part: within one
        round, the deletion superstep reads that round's selections, so a
        status change at the *end* of round ``r`` invalidates same-round
        ``NotIn`` decisions of clean neighbours — those must be re-checked
        inline (with cascading), not merely woken for round ``r + 1``;
        clean ``In`` decisions of round ``r`` stand because selection reads
        start-of-round state only.
        """
        graph = self.graph
        rank = {u: (graph.degree(u), u) for u in graph.vertices()}
        old_exit = dict(self._exit)

        def old_status_after(u: int, round_no: int) -> Status:
            exit_round, kind = old_exit[u]
            return kind if exit_round <= round_no else Status.UNKNOWN

        # dirty vertices carry a live replay status; seeds' inputs changed
        # (degrees / incident edges), so their whole timeline restarts
        status: Dict[int, Status] = {u: Status.UNKNOWN for u in seeds}
        new_exit: Dict[int, Tuple[int, Status]] = {}

        round_no = 0
        limit = graph.num_vertices + self._rounds + 2
        max_round_seen = 0
        while any(s == Status.UNKNOWN for s in status.values()):
            round_no += 1
            if round_no > limit:
                raise SuperstepLimitExceeded(limit)

            def unknown_at_start(v: int) -> bool:
                if v in status:
                    return status[v] == Status.UNKNOWN
                return old_exit[v][0] >= round_no

            def in_by(v: int) -> bool:
                if v in status:
                    return status[v] == Status.IN
                exit_round, kind = old_exit[v]
                return kind == Status.IN and exit_round <= round_no

            dirty_unknown = sorted(
                u for u, s in status.items() if s == Status.UNKNOWN
            )
            metrics.active_vertices += len(dirty_unknown)

            # selection superstep — evaluated against the start-of-round
            # snapshot, then applied (BSP semantics)
            newly_selected: List[int] = []
            for u in dirty_unknown:
                metrics.compute_work += graph.degree(u)
                if not any(
                    unknown_at_start(v) and rank[v] < rank[u]
                    for v in graph.neighbors(u)
                ):
                    newly_selected.append(u)
            for u in newly_selected:
                status[u] = Status.IN
                new_exit[u] = (round_no, Status.IN)

            # deletion superstep (reads this round's selections)
            for u in dirty_unknown:
                if status[u] != Status.UNKNOWN:
                    continue
                metrics.compute_work += graph.degree(u)
                if any(in_by(v) for v in graph.neighbors(u)):
                    status[u] = Status.NOTIN
                    new_exit[u] = (round_no, Status.NOTIN)

            # divergence propagation with same-round kill re-checks
            queue = [
                u for u in sorted(status)
                if status[u] != old_status_after(u, round_no)
            ]
            seen_in_queue = set(queue)
            while queue:
                u = queue.pop(0)
                for v in sorted(graph.neighbors(u)):
                    if v in status:
                        continue
                    exit_round, kind = old_exit[v]
                    if exit_round < round_no:
                        continue  # decided strictly earlier: inputs unchanged
                    if exit_round == round_no and kind == Status.IN:
                        # selection reads start-of-round state only: stands
                        # (and no neighbour can newly join In this round — two
                        # adjacent same-round selections contradict the total
                        # order)
                        continue
                    # v was Unknown at the start of this round in both
                    # executions; re-run its round-``round_no`` deletion
                    # against the *new* selections
                    metrics.compute_work += graph.degree(v)
                    killed_now = any(in_by(w) for w in graph.neighbors(v))
                    was_notin = exit_round == round_no  # old end-of-round kill
                    if killed_now:
                        status[v] = Status.NOTIN
                        new_exit[v] = (round_no, Status.NOTIN)
                    else:
                        status[v] = Status.UNKNOWN
                    if killed_now != was_notin and v not in seen_in_queue:
                        # v's end-of-round status diverged: cascade
                        queue.append(v)
                        seen_in_queue.add(v)
            max_round_seen = round_no

        # merge the replay's timelines into the records
        for u, record in new_exit.items():
            self._exit[u] = record
        self._rounds = max(
            (r for r, _ in self._exit.values() if r != _NEVER), default=0
        )

        # cost accounting: the replay walks the full round structure
        metrics.supersteps += 3 * max(self._rounds, 1) + 1
        self._charge_history_sync(metrics, sorted(status), max(max_round_seen, 1))
        metrics.observe_memory({0: int(self.history_memory_mb * 1024 * 1024)})
