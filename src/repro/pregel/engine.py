"""Classic message-passing Pregel engine (simulated BSP cluster).

The paper's baseline: DisMIS (Algorithm 1) is a Pregel program, and
Pregel's per-edge messaging is the cost ScaleG's guest-copy sync beats
(:mod:`repro.scaleg.engine`).  One process simulates ``W`` workers
executing Bulk-Synchronous-Parallel supersteps, always inline; the engine
takes no options.  Semantics follow Malewicz et al.:

- A vertex is *active* in superstep ``s+1`` iff it received a message sent
  during superstep ``s`` (or superstep 0, where a caller-selected set — by
  default every vertex — is active).
- ``compute`` sees the messages addressed to the vertex and may send
  messages (delivered next superstep) and update the vertex's state.
- The run terminates when no messages are in flight and no vertex is active.

Costs: messages whose source and destination live on different workers are
charged to the communication meter (framing + payload bytes); worker-local
messages are free on the wire but still counted.  Compute work is whatever
the program charges via :meth:`PregelContext.charge` (the MIS programs
charge one unit per neighbour examined).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set

from repro.errors import SuperstepLimitExceeded
from repro.pregel.message import Message
from repro.pregel.metrics import RunMetrics, SuperstepRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.distributed_graph import DistributedGraph


class PregelProgram(ABC):
    """A vertex program for the message-passing engine."""

    @abstractmethod
    def initial_state(self, dgraph: "DistributedGraph", u: int) -> Any:
        """The state of vertex ``u`` before superstep 0."""

    @abstractmethod
    def compute(self, ctx: "PregelContext") -> None:
        """One vertex's superstep: read ``ctx.messages``, send, set state."""

    def state_bytes(self, state: Any) -> int:
        """Modelled resident size of a vertex state (memory meter)."""
        return 8


class PregelContext:
    """Per-vertex view handed to :meth:`PregelProgram.compute`."""

    __slots__ = (
        "_engine", "vertex", "superstep", "messages", "_state", "_new_state",
        "_changed", "_work",
    )

    def __init__(self, engine: "PregelEngine", vertex: int, superstep: int,
                 messages: List[Any], state: Any):
        self._engine = engine
        self.vertex = vertex
        self.superstep = superstep
        #: payloads of messages received this superstep
        self.messages = messages
        self._state = state
        self._new_state = state
        self._changed = False
        self._work = 0

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> Any:
        """Current state (new value if already set this superstep)."""
        return self._new_state

    def set_state(self, new_state: Any) -> None:
        """Replace the vertex state; change detection is by ``!=``."""
        self._new_state = new_state
        self._changed = new_state != self._state

    # -- topology ------------------------------------------------------
    def neighbors(self) -> Set[int]:
        """This vertex's neighbour ids (local adjacency)."""
        return self._engine.dgraph.neighbors(self.vertex)

    def degree(self) -> int:
        return self._engine.dgraph.degree(self.vertex)

    @property
    def num_vertices(self) -> int:
        return self._engine.dgraph.graph.num_vertices

    # -- messaging -----------------------------------------------------
    def send(self, dest: int, payload: Any, payload_bytes: int) -> None:
        """Send a message to ``dest`` (delivered and activates next superstep)."""
        self._engine._outbox.append(
            Message(self.vertex, dest, payload, payload_bytes)
        )

    def broadcast(self, payload: Any, payload_bytes: int) -> None:
        """Send the same message to every neighbour (in id order, so the
        outbox — and with it the inbox payload order — is independent of
        set-iteration order)."""
        for v in sorted(self.neighbors()):
            self.send(v, payload, payload_bytes)

    # -- bookkeeping ---------------------------------------------------
    def charge(self, work: int = 1) -> None:
        """Account ``work`` compute units (e.g. neighbour comparisons)."""
        self._work += work


@dataclass
class PregelResult:
    """Final vertex states plus the run's metrics."""

    states: Dict[int, Any]
    metrics: RunMetrics


class PregelEngine:
    """Executes a :class:`PregelProgram` over a :class:`DistributedGraph`.

    The paper's message-passing baseline: one in-process superstep loop
    with per-message cost accounting and no options.
    """

    def __init__(self, dgraph: "DistributedGraph"):
        self.dgraph = dgraph
        self._outbox: List[Message] = []

    def run(
        self,
        program: PregelProgram,
        initial_active: Optional[Iterable[int]] = None,
        max_supersteps: Optional[int] = None,
        states: Optional[Dict[int, Any]] = None,
        metrics: Optional[RunMetrics] = None,
        keep_records: bool = True,
    ) -> PregelResult:
        """Run ``program`` to quiescence and return states + metrics.

        ``initial_active`` defaults to all vertices (static computation);
        dynamic callers pass the affected set.  ``states`` lets a caller
        resume from previously computed states (dynamic maintenance);
        otherwise states come from :meth:`PregelProgram.initial_state`.
        ``metrics`` lets a caller accumulate several runs — possibly across
        engines — into one shared meter (matching
        :meth:`~repro.scaleg.engine.ScaleGEngine.run`): counters add up and
        ``wall_time_s`` accumulates instead of being overwritten.
        ``keep_records`` retains per-superstep records on the meter.

        Raises :class:`SuperstepLimitExceeded` if the program does not
        converge within ``max_supersteps`` (default ``4n + 16``, safely above
        the paper's ``O(n)`` bound).

        Exception safety: if the run raises, every entry of ``states`` is
        restored to its value at run entry — no partially converged
        superstep leaks into a caller's resumed states.
        """
        dgraph = self.dgraph
        graph = dgraph.graph
        if metrics is None:
            metrics = RunMetrics(num_workers=dgraph.num_workers)
        started = time.perf_counter()

        if states is None:
            states = {
                u: program.initial_state(dgraph, u) for u in graph.vertices()
            }
        if max_supersteps is None:
            max_supersteps = 4 * max(graph.num_vertices, 1) + 16

        if initial_active is None:
            active: List[int] = graph.sorted_vertices()
        else:
            active = sorted({u for u in initial_active if graph.has_vertex(u)})
        compute = program.compute
        worker_of = dgraph.worker_of

        inbox: Dict[int, List[Any]] = {}
        superstep = 0
        took_snapshot = False
        #: run-entry value of every state a barrier overwrote
        dirty: Dict[int, Any] = {}
        try:
            while active or inbox:
                if superstep >= max_supersteps:
                    raise SuperstepLimitExceeded(max_supersteps)
                record = SuperstepRecord(superstep=superstep)
                self._outbox = []

                # compute: every active vertex reads the last barrier's
                # states; its writes wait in new_states for the barrier
                worker_work = [0] * dgraph.num_workers
                compute_work = 0
                new_states: Dict[int, Any] = {}
                for u in active:
                    ctx = PregelContext(self, u, superstep, inbox.get(u, []),
                                        states[u])
                    compute(ctx)
                    compute_work += ctx._work
                    worker_work[worker_of(u)] += max(ctx._work, 1)
                    if ctx._changed:
                        new_states[u] = ctx._new_state
                record.active_vertices = len(active)
                record.compute_work = compute_work
                record.worker_work = worker_work
                record.state_changes = len(new_states)

                # barrier commit
                for u in new_states:
                    if u not in dirty:
                        dirty[u] = states[u]
                states.update(new_states)

                # deliver messages; remote ones are charged to the wire
                inbox = {}
                queue_bytes = 0
                for msg in self._outbox:
                    if not graph.has_vertex(msg.dest):
                        continue  # racing with vertex deletion: drop
                    wire = msg.wire_bytes()
                    record.messages += 1
                    if dgraph.is_remote_pair(msg.source, msg.dest):
                        record.remote_messages += 1
                        record.bytes_sent += wire
                    queue_bytes += wire
                    inbox.setdefault(msg.dest, []).append(msg.payload)

                metrics.observe(record, keep_record=keep_records)
                active = sorted(inbox)
                superstep += 1

                # memory snapshot: structure + in-flight queue
                if superstep == 1 or queue_bytes:
                    per_worker = self._memory_snapshot(program, states, inbox)
                    metrics.observe_memory(per_worker)
                    took_snapshot = True
        except BaseException:
            for u, value in sorted(dirty.items()):
                states[u] = value
            raise

        # guarantee >= 1 snapshot per run — keyed on this run, not the
        # meter: a shared meter may arrive with a peak from an earlier run
        if not took_snapshot:
            metrics.observe_memory(self._memory_snapshot(program, states, {}))
        metrics.wall_time_s += time.perf_counter() - started
        return PregelResult(states=states, metrics=metrics)

    # ------------------------------------------------------------------
    def _memory_snapshot(
        self,
        program: PregelProgram,
        states: Dict[int, Any],
        inbox: Dict[int, List[Any]],
    ) -> Dict[int, int]:
        state_bytes = {u: program.state_bytes(s) for u, s in sorted(states.items())}
        per_worker = self.dgraph.structural_memory_bytes(state_bytes)
        for dest, payloads in inbox.items():
            per_worker[self.dgraph.worker_of(dest)] += 16 * len(payloads)
        return per_worker
