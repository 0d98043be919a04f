"""Classic message-passing Pregel engine (simulated BSP cluster).

One process simulates ``W`` workers executing Bulk-Synchronous-Parallel
supersteps.  Semantics follow Malewicz et al.:

- A vertex is *active* in superstep ``s+1`` iff it received a message sent
  during superstep ``s`` (or superstep 0, where a caller-selected set — by
  default every vertex — is active).
- ``compute`` sees the messages addressed to the vertex and may send
  messages (delivered next superstep) and update the vertex's state.
- The run terminates when no messages are in flight and no vertex is active.

Costs: messages whose source and destination live on different workers are
charged to the communication meter (framing + payload bytes, after the
optional combiner); worker-local messages are free on the wire but still
counted.  Compute work is whatever the program charges via
:meth:`PregelContext.charge` (the MIS programs charge one unit per neighbour
examined).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.errors import (
    SuperstepLimitExceeded,
    SyncRetryExhausted,
    WorkerFailure,
    WorkerLoss,
)
from repro.runtime.base import BSPEngine
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.distributed_graph import DistributedGraph
from repro.pregel.aggregator import Aggregator, AggregatorRegistry
from repro.pregel.combiner import Combiner
from repro.pregel.message import Message
from repro.pregel.metrics import RunMetrics, SuperstepRecord


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

    def aggregators(self) -> Dict[str, Aggregator]:
        """Aggregators this program uses (empty by default)."""
        return {}

    def combiner(self) -> Optional[Combiner]:
        """Optional message combiner applied per (worker, destination)."""
        return None

    def contract_members(self, states: Dict[int, Any]) -> Optional[Set[int]]:
        """Members of the independent set this program maintains, or ``None``.

        Programs that compute an independent set override this so the race
        sanitizer (:mod:`repro.analysis.parallel.sanitizer`), when on, can
        check independence + maximality at convergence; ``None`` (the
        default) skips that check.
        """
        return None


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
        outbox — and everything downstream of it: combiner grouping, inbox
        payload order — is independent of set-iteration order)."""
        for v in sorted(self.neighbors()):
            self.send(v, payload, payload_bytes)

    # -- bookkeeping ---------------------------------------------------
    def charge(self, work: int = 1) -> None:
        """Account ``work`` compute units (e.g. neighbour comparisons)."""
        self._work += work

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a named aggregator (visible next superstep)."""
        self._engine._aggregators.contribute(name, value)

    def aggregated(self, name: str) -> Any:
        """Read last superstep's reduced aggregator value."""
        return self._engine._aggregators.previous(name)


@dataclass
class PregelResult:
    """Final vertex states plus the run's metrics."""

    states: Dict[int, Any]
    metrics: RunMetrics
    aggregates: Dict[str, Any] = field(default_factory=dict)


class PregelEngine(BSPEngine):
    """Executes a :class:`PregelProgram` over a :class:`DistributedGraph`.

    Options are :class:`~repro.runtime.base.BSPEngine`'s.  Without guest
    copies, a loss fails over *degraded*: the lost partitions reload from
    the barrier checkpoint.
    """

    def __init__(self, dgraph: "DistributedGraph", *, faults=None,
                 runtime=None, sanitize=None):
        super().__init__(dgraph, faults=faults, runtime=runtime,
                         sanitize=sanitize)
        self._outbox: List[Message] = []
        self._aggregators = AggregatorRegistry()

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
        from repro.faults.recovery import SuperstepCheckpoint, fault_barrier

        graph = self.dgraph.graph
        if metrics is None:
            metrics = RunMetrics(num_workers=self.dgraph.num_workers)
        started = time.perf_counter()

        if states is None:
            states = {
                u: program.initial_state(self.dgraph, u) for u in graph.vertices()
            }
        if max_supersteps is None:
            max_supersteps = 4 * max(graph.num_vertices, 1) + 16

        self._aggregators = AggregatorRegistry(program.aggregators())
        combiner = program.combiner()

        if initial_active is None:
            active: List[int] = graph.sorted_vertices()
        else:
            active = sorted({u for u in initial_active if graph.has_vertex(u)})
        injector = self._faults
        failover = self._failover
        runtime = self._runtime
        self._begin_run(program)

        inbox: Dict[int, List[Any]] = {}
        #: wire bytes delivered per destination last superstep — the cost of
        #: re-fetching a crashed worker's inbox from the senders' logs
        inbox_bytes: Dict[int, int] = {}
        superstep = 0
        took_snapshot = False
        with self._rollback_on_error(states, metrics) as dirty:
            while active or inbox:
                if superstep >= max_supersteps:
                    raise SuperstepLimitExceeded(max_supersteps)
                record = SuperstepRecord(superstep=superstep)
                record.worker_work = [0] * self.dgraph.num_workers
                self._outbox = []

                checkpoint = None
                if injector is not None:
                    checkpoint = SuperstepCheckpoint.capture(
                        superstep, states, active
                    )

                try:
                    with fault_barrier(
                        injector, superstep, self.dgraph.num_workers, metrics,
                    ) as draws:
                        sweep = runtime.sweep_pregel(
                            states, active, superstep, inbox, draws
                        )
                        new_states = sweep.new_states
                        record.active_vertices = len(active)
                        record.compute_work = sweep.compute_work
                        record.worker_work = sweep.worker_work
                        record.state_changes = len(new_states)
                except SyncRetryExhausted:
                    raise  # unrecoverable: escalate to the caller
                except WorkerFailure as failure:
                    lost = isinstance(failure, WorkerLoss)
                    if checkpoint is None:
                        raise  # not injected by us: no checkpoint to replay
                    # rollback-and-replay: nothing committed.  A loss fails
                    # over degraded — no guest copies to reconstruct from,
                    # so the lost partitions reload from the barrier
                    # checkpoint.  Either way the failed workers lost their
                    # received messages; re-fetch them from the senders'
                    # outbox logs (charged as resync).
                    failed = set(getattr(failure, "workers", None)
                                 or [failure.worker])
                    metrics.recovery_replayed_supersteps += 1
                    metrics.recovery_compute_work += record.compute_work
                    if lost:
                        failover.fail_over_degraded(
                            failed, superstep, checkpoint, states, metrics,
                            program.state_bytes,
                        )
                    else:
                        metrics.recovery_crashes += len(failed)
                    for dest, payloads in inbox.items():
                        if self.dgraph.worker_of(dest) in failed:
                            metrics.recovery_resync_bytes += inbox_bytes.get(
                                dest, 0
                            )
                            metrics.recovery_resync_messages += len(payloads)
                    active = checkpoint.restore(states)
                    self._aggregators.reset_current()
                    continue

                self._commit(states, new_states, dirty)

                # --- deliver messages (with combining, cost accounting) ----
                outbox = self._outbox
                if combiner is not None and outbox:
                    outbox = self._apply_combiner(combiner, outbox)
                if injector is not None:
                    permuted = injector.permute(superstep, outbox)
                    if permuted is not outbox:
                        metrics.recovery_reorders += 1
                        outbox = permuted
                inbox = {}
                inbox_bytes = {}
                queue_bytes = 0
                for msg in outbox:
                    if not graph.has_vertex(msg.dest):
                        continue  # racing with vertex deletion: drop
                    wire = msg.wire_bytes()
                    remote = self.dgraph.is_remote_pair(msg.source, msg.dest)
                    if injector is not None and remote:
                        drops = injector.sync_drops(
                            superstep, msg.source, msg.dest
                        )
                        if drops:
                            if drops > injector.max_retries:
                                raise SyncRetryExhausted(
                                    msg.source, msg.dest, drops, superstep
                                )
                            metrics.recovery_sync_retries += drops
                            metrics.recovery_resync_bytes += drops * wire
                            metrics.recovery_resync_messages += drops
                            metrics.recovery_backoff_s += injector.backoff_time(
                                drops
                            )
                        dups = injector.sync_duplicates(
                            superstep, msg.source, msg.dest
                        )
                        if dups:
                            # the receiver deduplicates by (source, seq);
                            # only the wasted wire cost is real
                            metrics.recovery_sync_duplicates += dups
                            metrics.recovery_resync_bytes += dups * wire
                            metrics.recovery_resync_messages += dups
                    record.messages += 1
                    if remote:
                        record.remote_messages += 1
                        record.bytes_sent += wire
                    queue_bytes += wire
                    inbox.setdefault(msg.dest, []).append(msg.payload)
                    if injector is not None:
                        inbox_bytes[msg.dest] = inbox_bytes.get(msg.dest, 0) + wire

                metrics.observe(record, keep_record=keep_records)
                if failover is not None:
                    # voluntary joins/drains due at this barrier — applied
                    # after commit, costs quarantined in rebalance_*
                    failover.barrier_transitions(
                        superstep, states, metrics, program.state_bytes,
                        injector,
                    )
                self._aggregators.roll()
                active = sorted(inbox)
                superstep += 1

                # memory snapshot: structure + in-flight queue
                if superstep == 1 or queue_bytes:
                    per_worker = self._memory_snapshot(program, states, inbox)
                    metrics.observe_memory(per_worker)
                    took_snapshot = True

            self._check_convergence(program, states)

        # guarantee >= 1 snapshot per run — keyed on this run, not the
        # meter: a shared meter may arrive with a peak from an earlier run
        if not took_snapshot:
            metrics.observe_memory(self._memory_snapshot(program, states, {}))
        metrics.wall_time_s += time.perf_counter() - started
        aggregates = {
            name: self._aggregators.previous(name)
            for name in self._aggregators.names()
        }
        return PregelResult(states=states, metrics=metrics, aggregates=aggregates)

    # ------------------------------------------------------------------
    def _apply_combiner(
        self, combiner: Combiner, outbox: List[Message]
    ) -> List[Message]:
        """Combine messages per (sending worker, destination vertex)."""
        groups: Dict[tuple, List[Message]] = {}
        for msg in outbox:
            key = (self.dgraph.worker_of(msg.source), msg.dest)
            groups.setdefault(key, []).append(msg)
        combined: List[Message] = []
        for key in sorted(groups):
            combined.extend(combiner.combine(groups[key]))
        return combined

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
