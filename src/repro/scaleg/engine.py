"""ScaleG: synchronization-based vertex-centric engine.

ScaleG (Wang et al., TKDE 2021) is the Pregel variation the paper deploys
on.  Instead of per-edge messages, every vertex ``u`` keeps a *guest copy*
of its state on each other machine hosting a neighbour of ``u``; at the end
of a superstep, changed states are synced **once per machine** and remote
neighbours are activated through the guest's inverted index.  Every vertex
can therefore read all neighbours' states locally in the next superstep —
exactly what OIMIS's line 5 needs.

Semantics implemented here:

- BSP with double-buffered states: ``compute`` for superstep ``s`` reads the
  states as of the end of superstep ``s-1`` (its own included).
- A vertex runs in superstep ``s+1`` iff something activated it during
  superstep ``s`` (programs activate explicitly; the engine never
  auto-activates).
- Cost accounting per superstep:
  * each changed vertex ships ``id + sync_bytes(state)`` (+framing) to each
    guest machine;
  * each remotely-activated neighbour adds a compact activation entry,
    piggybacked on the sync record when the activator changed state, or a
    standalone small message otherwise;
  * worker-local syncs and activations are free on the wire.
- Compute work: one unit per neighbour-state read
  (:meth:`ScaleGContext.neighbor_state` / :meth:`ScaleGContext.rank_of`),
  so an early-``break`` scan (OIMIS line 8) is measurably cheaper than a
  full scan (the SCALL baseline).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

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
    from repro.graph.rank_cache import RankedAdjacency
from repro.pregel.metrics import (
    ACTIVATION_ENTRY_BYTES,
    MESSAGE_OVERHEAD_BYTES,
    VERTEX_ID_BYTES,
    RunMetrics,
    SuperstepRecord,
)


class ScaleGProgram(ABC):
    """A vertex program for the synchronization-based engine."""

    @abstractmethod
    def initial_state(self, dgraph: "DistributedGraph", u: int) -> Any:
        """State of ``u`` before the first superstep."""

    def initial_states(self, dgraph: "DistributedGraph") -> Dict[int, Any]:
        """Every vertex's :meth:`initial_state`, in the graph's vertex
        order: a static run's starting states.  Programs whose vertices
        all start alike override this with one ``dict.fromkeys``."""
        return {u: self.initial_state(dgraph, u) for u in dgraph.vertices()}

    @abstractmethod
    def compute(self, ctx: "ScaleGContext") -> None:
        """One vertex's superstep: read neighbour states, set own state,
        request activations."""

    @abstractmethod
    def sync_bytes(self, state: Any) -> int:
        """Serialized size of ``state`` when synced to a guest copy."""

    def state_bytes(self, state: Any) -> int:
        """Resident size of ``state`` (memory meter); defaults to sync size."""
        return self.sync_bytes(state)

    def contract_members(self, states: Dict[int, Any]) -> Optional[Set[int]]:
        """Members of the independent set this program maintains, or ``None``.

        Programs that compute an independent set override this so the race
        sanitizer (:mod:`repro.analysis.parallel.sanitizer`), when on, can
        check independence + maximality at convergence; ``None`` (the
        default) skips that check.
        """
        return None

    def rank_cache(self, graph) -> RankedAdjacency:
        """The rank-ordered adjacency cache ``compute`` scans via
        :meth:`ScaleGContext.ranked_neighbors`.

        Defaults to the graph's shared ``(degree, id)`` cache — the paper's
        ``≺``.  Programs driven by a different total order (the weighted
        extension's ``≺_w``) override this with a custom-key cache.
        """
        return graph.rank_cache()

    def csr_kernel(self):
        """Array-native sweep kernel, or ``None`` (the default) when this
        program only runs the dict path.

        A kernel (e.g. :class:`~repro.graph.csr.OIMISKernel`) replays the
        whole compute sweep as vectorized array passes and must be
        bit-identical to ``compute`` on every meter.  Engines sweep on it
        unless built with ``representation="dict"``; programs without
        one always keep the dict path.
        """
        return None

    def uniform_state_bytes(self) -> Optional[int]:
        """Constant resident size per state, or ``None`` if state sizes
        vary.  A constant lets the engine take the O(num_workers)
        closed-form memory snapshot instead of the O(n) per-vertex walk;
        both produce identical integers."""
        return None


class ScaleGContext:
    """Per-vertex view handed to :meth:`ScaleGProgram.compute`."""

    __slots__ = ("_engine", "vertex", "superstep", "_old", "_new", "_changed",
                 "_work", "_activations", "_pred_activations", "_force_sync")

    def __init__(self, engine: "ScaleGEngine", vertex: int, superstep: int,
                 state: Any):
        self._engine = engine
        self.vertex = vertex
        self.superstep = superstep
        self._old = state
        self._new = state
        self._changed = False
        self._work = 0
        #: activation targets without a predicate (the common case — kept
        #: as bare ids so the hot loop allocates no per-activation tuples)
        self._activations: List[int] = []
        #: activation targets whose predicate runs at the barrier
        self._pred_activations: List[Tuple[int, Any]] = []
        self._force_sync = False

    def _reset(self, vertex: int, superstep: int, state: Any) -> None:
        """Rearm for the next vertex (the engine reuses one context across
        the whole active sweep; activation lists are detached on hand-off,
        so they are always empty here)."""
        self.vertex = vertex
        self.superstep = superstep
        self._old = state
        self._new = state
        self._changed = False
        self._work = 0
        self._force_sync = False

    # -- own state -----------------------------------------------------
    @property
    def state(self) -> Any:
        """Own state (the value being written this superstep)."""
        return self._new

    def set_state(self, new_state: Any) -> None:
        self._new = new_state
        self._changed = new_state != self._old

    @property
    def changed(self) -> bool:
        """Whether :meth:`set_state` changed the value this superstep."""
        return self._changed

    # -- neighbour reads (each charged one work unit) -------------------
    def neighbor_state(self, v: int) -> Any:
        """State of neighbour ``v`` as of the previous superstep.

        Served from the local guest copy — free on the wire, one compute
        unit on the meter.
        """
        self._work += 1
        return self._engine._states[v]

    def rank_of(self, v: int) -> Tuple[int, int]:
        """``(degree, id)`` of ``v`` — the paper's total order ``≺`` key.

        Degrees live with the (guest) vertex record, so this is a local
        read; charged with the accompanying state read, not separately.
        """
        return (self._engine.dgraph.degree(v), v)

    def neighbors(self) -> Set[int]:
        return self._engine.dgraph.neighbors(self.vertex)

    def sorted_neighbors(self) -> List[int]:
        """Neighbours in ascending id order (deterministic scans)."""
        return sorted(self._engine.dgraph.neighbors(self.vertex))

    def ranked_neighbors(self) -> List[int]:
        """Neighbours in ascending ``≺`` rank order (a live cached view —
        do not mutate).

        Served from the engine's rank-ordered adjacency cache, which graph
        updates repair incrementally; like the adjacency itself it lives
        with the (guest) vertex records, so reading it is free on the meter.
        Scanning in this order lets Algorithm 2's early ``break`` stop at
        the first dominating in-neighbour — and stop scanning entirely once
        a neighbour no longer precedes this vertex.
        """
        ranked = self._engine._ranked
        if ranked is None:
            # context used outside run() (tests, tools): default ≺ cache
            ranked = self._engine._ranked = self._engine.dgraph.graph.rank_cache()
        return ranked.ranked_neighbors(self.vertex)

    def degree(self) -> int:
        return self._engine.dgraph.degree(self.vertex)

    # -- activation ------------------------------------------------------
    def activate(self, v: int, predicate: Any = None) -> None:
        """Schedule ``v`` to run in the next superstep.

        ``predicate``, if given, is ``f(source_state, target_state) -> bool``
        evaluated *after* every vertex's new state is applied — i.e. against
        the end-of-superstep states, which is what a real ScaleG deployment
        sees when the guest sync lands.  A false predicate drops the
        activation before it is shipped (no wire cost).  The same-status
        optimization (Lemma 5.2) needs exactly this: comparing statuses at
        the end of the superstep, not mid-compute snapshots.
        """
        if predicate is None:
            self._activations.append(v)
        else:
            self._pred_activations.append((v, predicate))

    def force_sync(self) -> None:
        """Ship this vertex's state to its guest copies even if unchanged.

        Models DisMIS's synchronization superstep (Algorithm 1 line 22),
        where still-``Unknown`` vertices re-broadcast ``(id, status, info)``
        each round — the main source of DisMIS's extra communication that
        Table II measures.
        """
        self._force_sync = True

    def charge(self, work: int = 1) -> None:
        """Account extra compute units beyond neighbour reads."""
        self._work += work


@dataclass
class ScaleGResult:
    """Final vertex states plus the run's metrics."""

    states: Dict[int, Any]
    metrics: RunMetrics


class ScaleGEngine(BSPEngine):
    """Executes a :class:`ScaleGProgram` over a :class:`DistributedGraph`.

    The engine can be reused across runs on the same (mutating) graph: the
    dynamic maintenance driver keeps one engine, mutates the graph between
    runs, and passes the previous run's states back in.
    """

    def __init__(self, dgraph: "DistributedGraph", *, faults=None,
                 runtime=None, sanitize=None, representation=None):
        """The first three options are :class:`~repro.runtime.base.BSPEngine`'s.
        ``representation``: ``None``/``"csr"`` (the default) sweeps on the
        flat-array partition mirror whenever the program provides a
        :meth:`ScaleGProgram.csr_kernel`; ``"dict"`` forces the reference
        path."""
        from repro.graph.csr import resolve_representation

        super().__init__(dgraph, faults=faults, runtime=runtime,
                         sanitize=sanitize)
        self._states: Dict[int, Any] = {}
        self._ranked: Optional[RankedAdjacency] = None
        self._representation = resolve_representation(representation)
        #: CSR mirror + kernel for the current run (None on the dict path)
        self._csr = None
        self._csr_kernel = None

    def attach_csr(self, program: ScaleGProgram):
        """The settled CSR mirror a run of ``program`` sweeps on, attached
        to the graph on first use; ``None`` when the run takes the dict
        path (``representation="dict"`` or a program without a kernel)."""
        from repro.graph.csr import CSRPartition

        if self._representation != "csr" or program.csr_kernel() is None:
            return None
        part = CSRPartition.attach(self.dgraph)
        part.ensure()
        return part

    def run(
        self,
        program: ScaleGProgram,
        initial_active: Optional[Iterable[int]] = None,
        max_supersteps: Optional[int] = None,
        states: Optional[Dict[int, Any]] = None,
        metrics: Optional[RunMetrics] = None,
        keep_records: bool = True,
    ) -> ScaleGResult:
        """Run ``program`` until no vertex is active.

        ``initial_active`` defaults to all vertices (static computation).
        ``states`` resumes from existing states (dynamic maintenance).
        ``metrics`` lets callers accumulate multiple runs into one meter.
        ``keep_records`` disables per-superstep record retention for very
        long update streams (the aggregate counters still accumulate).

        A static run (``states=None``) of a CSR-kernel program without a
        fault plan or the race sanitizer keeps its states in the mirror's
        membership bitmap alone: the bitmap starts from the kernel's
        initial states, barriers write only the bitmap, and the state dict
        is built once, when the run converges, in the graph's vertex
        order.  Every other run keeps the dict and the bitmap in step.

        Exception safety: if the run raises (:class:`SuperstepLimitExceeded`,
        an unrecoverable :class:`WorkerFailure`, a race violation), every
        entry of a caller's ``states`` is restored to its value at run
        entry — no partially converged superstep leaks into a caller's
        resumed states — and so is the mirror's bitmap.  States the engine
        built itself (``states=None``) are not rolled back: no caller
        holds them.
        """
        from repro.faults.recovery import (
            SuperstepCheckpoint,
            fault_barrier,
            guest_rebuild_cost,
        )
        from repro.graph.csr import route_activations

        graph = self.dgraph.graph
        own_metrics = metrics if metrics is not None else RunMetrics(
            num_workers=self.dgraph.num_workers
        )
        started = time.perf_counter()

        if max_supersteps is None:
            max_supersteps = 4 * max(graph.num_vertices, 1) + 16

        if initial_active is None:
            active: List[int] = graph.sorted_vertices()
        else:
            active = sorted(set(initial_active) & graph.vertex_keys())

        dgraph = self.dgraph
        injector = self._faults
        failover = self._failover
        self._csr = None
        self._csr_kernel = None
        part = self.attach_csr(program)
        in_bitmap = (states is None and part is not None and injector is None
                     and self._sanitizer is None)
        if states is None and not in_bitmap:
            states = program.initial_states(self.dgraph)
        # None while a static run keeps its states in the bitmap
        self._states = states
        if part is not None:
            self._csr = part
            self._csr_kernel = program.csr_kernel()
            # kernel sweeps (and their recovery sweeps) never read the
            # ranked cache
            self._ranked = None
        else:
            self._ranked = program.rank_cache(graph)
        runtime = self._runtime
        self._begin_run(program)

        superstep = 0
        ran_supersteps = 0
        with self._rollback_on_error(states, own_metrics, part) as dirty:
            if in_bitmap:
                part.in_ = self._csr_kernel.initial_bitmap(part.ids.size)
                part.states_synced = True
            elif part is not None:
                part.sync_states(states)
            while active:
                if ran_supersteps >= max_supersteps:
                    raise SuperstepLimitExceeded(max_supersteps)
                record = SuperstepRecord(superstep=superstep)
                record.worker_work = [0] * dgraph.num_workers

                checkpoint = None
                if injector is not None:
                    checkpoint = SuperstepCheckpoint.capture(
                        superstep, states, active
                    )

                try:
                    with fault_barrier(
                        injector, superstep, dgraph.num_workers, own_metrics,
                    ) as draws:
                        sweep = runtime.sweep_scaleg(active, superstep, draws)
                        new_states = sweep.new_states
                        changed = sweep.changed
                        forced = sweep.forced
                        record.compute_work = sweep.compute_work
                        record.worker_work = sweep.worker_work
                        record.active_vertices = len(active)
                except SyncRetryExhausted:
                    raise  # unrecoverable: escalate to the caller
                except WorkerFailure as failure:
                    lost = isinstance(failure, WorkerLoss)
                    if checkpoint is None:
                        raise  # not injected by us: no checkpoint to replay
                    # rollback-and-replay: nothing from this attempt has
                    # committed.  All costs go to the recovery meters; the
                    # logical meters keep the fault-free placement.
                    failed = (getattr(failure, "workers", None)
                              or [failure.worker])
                    own_metrics.recovery_replayed_supersteps += 1
                    own_metrics.recovery_compute_work += record.compute_work
                    targets = None
                    if lost:
                        # membership failover: declare the workers dead,
                        # hand their partitions to survivors (rendezvous),
                        # restore each lost host to its barrier value
                        targets = failover.fail_over(
                            failed, superstep, checkpoint, states,
                            own_metrics, program.sync_bytes,
                        )
                    else:
                        # transient crash: rebuild the crashed workers'
                        # guest copies from host state
                        own_metrics.recovery_crashes += len(failed)
                        rebuild_bytes, rebuild_records = guest_rebuild_cost(
                            dgraph, failed, program.sync_bytes,
                            checkpoint.states,
                        )
                        own_metrics.recovery_resync_bytes += rebuild_bytes
                        own_metrics.recovery_resync_messages += rebuild_records
                    active = checkpoint.restore(states)
                    if self._csr is not None:
                        self._csr.sync_states(states)
                    if targets:
                        self._recovery_sweep(
                            program, targets, superstep, own_metrics
                        )
                    continue

                if in_bitmap:
                    record.state_changes = int(sweep.csr.changed_idx.size)
                else:
                    self._commit(states, new_states, dirty)
                    record.state_changes = len(changed)
                if sweep.csr is not None:
                    # the sweep's own rows, written in place; the process
                    # runtime copies the bitmap into its frame per dispatch
                    self._csr.in_[sweep.csr.changed_idx] = \
                        sweep.csr.changed_val

                # --- charge state sync: once per (synced vertex, guest machine)
                sync_bytes = program.sync_bytes
                if injector is None and sweep.csr is not None:
                    # fault-free kernel sweep (it never forces a sync): one
                    # gather of the changed rows' guest counts, priced by
                    # each row's new (boolean) state
                    copies = self._csr.guests[sweep.csr.changed_idx]
                    joined = int(copies[sweep.csr.changed_val].sum())
                    left = int(copies.sum()) - joined
                    base = MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                    record.remote_messages += joined + left
                    record.bytes_sent += (joined * (base + sync_bytes(True))
                                          + left * (base + sync_bytes(False)))
                    sync_order = []
                else:
                    sync_order = changed + forced
                if injector is not None:
                    permuted = injector.permute(superstep, sync_order)
                    if permuted is not sync_order:
                        own_metrics.recovery_reorders += 1
                        sync_order = permuted
                guest_copies = dgraph.num_guest_copies
                for u in sync_order:
                    wire = (MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                            + sync_bytes(states[u]))
                    if injector is None:
                        copies = guest_copies(u)
                        record.remote_messages += copies
                        record.bytes_sent += copies * wire
                        continue
                    for _machine in dgraph.guest_machines(u):
                        drops = injector.sync_drops(superstep, u, _machine)
                        if drops:
                            if drops > injector.max_retries:
                                raise SyncRetryExhausted(
                                    u, _machine, drops, superstep
                                )
                            own_metrics.recovery_sync_retries += drops
                            own_metrics.recovery_resync_bytes += drops * wire
                            own_metrics.recovery_resync_messages += drops
                            own_metrics.recovery_backoff_s += (
                                injector.backoff_time(drops)
                            )
                        dups = injector.sync_duplicates(superstep, u, _machine)
                        if dups:
                            own_metrics.recovery_sync_duplicates += dups
                            own_metrics.recovery_resync_bytes += dups * wire
                            own_metrics.recovery_resync_messages += dups
                        record.remote_messages += 1
                        record.bytes_sent += wire

                # --- filter + charge activation routing, build next active ----
                if sweep.csr is not None:
                    next_active = route_activations(
                        self._csr, self._csr_kernel, sweep.csr, record
                    )
                else:
                    next_active = self._route_requests(
                        sweep.requests, changed, forced, states, record
                    )
                own_metrics.observe(record, keep_record=keep_records)
                if failover is not None:
                    # voluntary joins/drains due at this barrier — applied
                    # after commit, so a crash raised this superstep has
                    # already rolled back; costs quarantined in rebalance_*
                    failover.barrier_transitions(
                        superstep, states, own_metrics, program.sync_bytes,
                        injector,
                    )
                active = sorted(next_active)
                superstep += 1
                ran_supersteps += 1

            self._check_convergence(program, states)

        if in_bitmap:
            states = self._states = part.states_dict()
        per_worker = self._memory_snapshot(program, states)
        own_metrics.observe_memory(per_worker)
        own_metrics.wall_time_s += time.perf_counter() - started
        return ScaleGResult(states=states, metrics=own_metrics)

    # ------------------------------------------------------------------
    def _route_requests(self, requests, changed: List[int],
                        forced: List[int], states: Dict[int, Any],
                        record: SuperstepRecord) -> Set[int]:
        """Filter and charge a dict-path sweep's activation requests
        (post-commit, so predicates read end-of-superstep states); returns
        the next active set."""
        is_remote_pair = self.dgraph.is_remote_pair
        has_vertex = self.dgraph.graph.has_vertex
        synced_set = set(changed).union(forced)
        next_active: Set[int] = set()
        for source, plain, predicated in requests:
            for target in plain:
                if not has_vertex(target):
                    continue
                next_active.add(target)
                record.messages += 1
                if is_remote_pair(source, target):
                    record.remote_messages += 1
                    if source in synced_set:
                        # piggybacked on the sync record already shipped
                        # to the target's machine
                        record.bytes_sent += ACTIVATION_ENTRY_BYTES
                    else:
                        record.bytes_sent += (
                            MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                        )
            if not predicated:
                continue
            source_state = states[source]
            for target, predicate in predicated:
                if not has_vertex(target):
                    continue
                if not predicate(source_state, states[target]):
                    continue
                next_active.add(target)
                record.messages += 1
                if is_remote_pair(source, target):
                    record.remote_messages += 1
                    if source in synced_set:
                        record.bytes_sent += ACTIVATION_ENTRY_BYTES
                    else:
                        record.bytes_sent += (
                            MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                        )
        return next_active

    # ------------------------------------------------------------------
    def _recovery_sweep(self, program: ScaleGProgram, targets: List[int],
                        superstep: int, metrics: RunMetrics) -> None:
        """Re-examine the DOIMIS affected set after a failover.

        Every reconstructed host and each of its neighbours recomputes
        against the restored barrier states.  Reconstruction is exact —
        surviving guest copies are barrier-fresh and the checkpoint is a
        barrier snapshot — so this sweep *verifies* rather
        than repairs: state writes and activation requests are discarded
        (the replayed superstep redoes the real work), and the verification
        work is charged to ``recovery_compute_work`` so the logical meters
        stay bit-identical to the fault-free run's.  Kernel programs sweep
        the targets' rows on the CSR mirror, so a failover never builds
        the dict path's rank cache.
        """
        states = self._states
        graph = self.dgraph.graph
        targets = [u for u in targets if graph.has_vertex(u) and u in states]
        kernel = self._csr_kernel
        if kernel is not None:
            part = self._csr
            worker_work = kernel.sweep_rows(
                part, part.index_of(targets), self.dgraph.num_workers
            )[1]
            metrics.recovery_compute_work += sum(worker_work)
            return
        ctx = ScaleGContext(self, 0, 0, None)
        for u in targets:
            ctx._reset(u, superstep, states[u])
            program.compute(ctx)
            metrics.recovery_compute_work += max(ctx._work, 1)
            ctx._activations = []
            ctx._pred_activations = []

    # ------------------------------------------------------------------
    def charge_graph_update(
        self,
        endpoints: Iterable[int],
        new_guests: Iterable[int],
        program: ScaleGProgram,
        states: Dict[int, Any],
        metrics: RunMetrics,
    ) -> None:
        """Charge the communication a graph update itself costs.

        Per the paper (Section IV-A): an edge update changes the degrees of
        its endpoints, and "the updated degree of a vertex will be sent to
        its copies in other machines".  Additionally, a brand-new guest copy
        (an endpoint becomes adjacent to a machine that had no replica)
        ships the full vertex state once: ``new_guests`` lists the vertex
        gaining each new copy (one entry per copy), so variable-size states
        (weighted programs, dict states) are priced at *that* vertex's own
        ``sync_bytes``, not an arbitrary sample's.
        """
        from repro.pregel.metrics import DEGREE_BYTES

        # an endpoint no longer in the graph has no copies left
        copies = sum(map(self.dgraph.num_guest_copies, endpoints))
        metrics.bytes_sent += copies * (
            MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES + DEGREE_BYTES
        )
        metrics.remote_messages += copies
        for u in new_guests:
            state = states.get(u)
            payload = VERTEX_ID_BYTES + (
                program.sync_bytes(state) if state is not None else 8
            )
            metrics.bytes_sent += MESSAGE_OVERHEAD_BYTES + payload
            metrics.remote_messages += 1

    def _memory_snapshot(
        self, program: ScaleGProgram, states: Dict[int, Any]
    ) -> Dict[int, int]:
        uniform = program.uniform_state_bytes()
        if uniform is not None and len(states) == self.dgraph.graph.num_vertices:
            # constant state size: closed-form per-worker totals (same
            # integers as the per-vertex walk, O(num_workers) instead of
            # O(n + guests))
            return self.dgraph.structural_memory_bytes_uniform(uniform)
        state_bytes = {u: program.state_bytes(s) for u, s in sorted(states.items())}
        return self.dgraph.structural_memory_bytes(state_bytes)
