"""Membership-aware failover: survive *permanent* worker loss.

PR 3's recovery treats every failure as transient: checkpoint, roll back,
replay on the same worker set.  This module adds the other half of a
production failure model — workers that never come back — built from three
pieces the paper already pays for:

- **Failure detection** (:class:`MembershipView`): per-worker liveness via
  deterministic heartbeats scored with a phi-accrual-style suspicion value
  (``phi = elapsed / interval * log10(e)``, the exponential-arrival
  approximation of Hayashibara et al.).  Stragglers produced by the fault
  injector are *flagged* (`injected=True`), so a slow worker never looks
  like a silent one — the chaos ``straggler`` preset can never trigger a
  false-positive kill.
- **Partition reassignment** (:func:`rendezvous_worker` +
  :class:`FailoverCoordinator`): rendezvous (highest-random-weight) hashing
  over the surviving workers.  Deterministic (keyed blake2b — independent
  of ``PYTHONHASHSEED``), minimal (only vertices hosted on dead workers
  move, including under cascading losses), and stateless (the effective
  placement is a pure function of the base partitioner and the dead set).
- **State reconstruction**: every host vertex lost with a dead worker is
  rebuilt from the freshest surviving guest copy — ScaleG syncs changed
  states to every guest machine at each barrier, so surviving copies are
  barrier-fresh — falling back to a bounded per-superstep **delta log**
  for solitary vertices (no guest copy anywhere), and finally to the
  persisted barrier checkpoint.  The DOIMIS affected set around every
  reconstructed vertex (Definition 4.1) is then re-examined by a recovery
  sweep, so the run converges to the same fixpoint (Theorems 4.2/6.1).

Alongside failover, the :class:`GuestAuditor` runs an **anti-entropy**
pass: a rotating deterministic sample of guest copies is checksummed
against host state each superstep, detecting silent divergence (the
``corrupt_guest`` fault kind) within a bounded window and repairing it by
re-shipping host state (read-repair).

Every cost here — detection latency, reconstruction shipping, the delta
log, audit digests, read-repair — lands on the quarantined ``recovery_*``
/ ``divergence_*`` meter families, **never** the logical meters.  Logical
accounting deliberately keeps the *fault-free* placement: the paper's cost
model describes the computation, and the chaos oracle asserts a failed-over
run's logical meters are bit-identical to the fault-free run's.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import WorkerFailure, WorkloadError
from repro.faults.recovery import _snapshot
from repro.pregel.metrics import MESSAGE_OVERHEAD_BYTES, VERTEX_ID_BYTES

#: log10(e) — the phi-accrual scale factor under exponential arrivals
LOG10E = 0.4342944819032518

#: bytes of one checksum digest shipped by the sampled audit
DIGEST_BYTES = 8


def _weight(salt: int, vertex: int, worker: int) -> int:
    blob = f"{salt}|{vertex}|{worker}".encode("ascii")
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "big"
    )


def rendezvous_worker(vertex: int, candidates: Iterable[int], salt: int = 0) -> int:
    """Highest-random-weight (rendezvous) owner of ``vertex``.

    Each candidate worker's weight is a keyed blake2b of
    ``(salt, vertex, worker)`` — a pure function, independent of
    ``PYTHONHASHSEED`` and of candidate order.  Removing a candidate moves
    only the vertices it owned (the minimal-disruption property that makes
    cascading failovers cheap); every other vertex keeps its argmax.
    """
    best = -1
    best_weight = -1
    for w in sorted(candidates):
        weight = _weight(salt, vertex, w)
        if weight > best_weight:
            best, best_weight = w, weight
    if best < 0:
        raise WorkerFailure(
            None, None,
            f"no surviving worker to host vertex {vertex} "
            "(every candidate is dead)",
        )
    return best


@dataclass(frozen=True)
class MembershipConfig:
    """Tunables of the failure detector, delta log, and guest auditor."""

    #: modelled heartbeat period — one heartbeat per worker per superstep
    heartbeat_interval_s: float = 0.05
    #: suspicion level at which a silent worker is declared dead;
    #: detection latency is ``phi_threshold / log10(e)`` heartbeat periods
    phi_threshold: float = 8.0
    #: uncompacted per-superstep delta-log frames retained before the
    #: oldest frame folds into the compacted base
    delta_log_depth: int = 8
    #: audit a 1/audit_every rotating sample of guest copies per superstep
    #: (every copy is checked once per ``audit_every`` supersteps);
    #: 0 disables anti-entropy
    audit_every: int = 4
    #: keys the rendezvous weights and the audit rotation
    salt: int = 0

    def __post_init__(self):
        if self.heartbeat_interval_s <= 0:
            raise WorkloadError(
                f"heartbeat_interval_s must be positive, "
                f"got {self.heartbeat_interval_s}"
            )
        if self.phi_threshold <= 0:
            raise WorkloadError(
                f"phi_threshold must be positive, got {self.phi_threshold}"
            )
        if self.delta_log_depth < 1:
            raise WorkloadError(
                f"delta_log_depth must be >= 1, got {self.delta_log_depth}"
            )
        if self.audit_every < 0:
            raise WorkloadError(
                f"audit_every must be >= 0, got {self.audit_every}"
            )

    @property
    def detection_latency_s(self) -> float:
        """Modelled silence before phi crosses the threshold (closed form:
        under exponential arrivals ``phi(t) = t / interval * log10(e)``)."""
        return self.phi_threshold / LOG10E * self.heartbeat_interval_s


class MembershipView:
    """Per-worker liveness via heartbeats + phi-accrual suspicion.

    Modelled time advances one heartbeat period per superstep barrier
    (:meth:`advance`); each alive worker then reports via
    :meth:`heartbeat`.  Suspicion of a worker is
    ``phi = elapsed_since_last_heartbeat / interval * log10(e)`` —
    crossing :attr:`MembershipConfig.phi_threshold` makes it a
    :meth:`suspect <suspects>`.

    The injected-delay flag is the straggler/death discriminator: the
    fault injector *knows* its stragglers and flags their late heartbeats,
    so they never raise suspicion.  Only genuinely unexplained lateness
    (or silence) accrues phi.
    """

    def __init__(self, workers: Iterable[int], config: MembershipConfig):
        self._config = config
        self._workers: List[int] = sorted(workers)
        self._now = 0.0
        self._last_seen: Dict[int, float] = {w: 0.0 for w in self._workers}
        #: worker -> modelled time of death declaration
        self._dead: Dict[int, float] = {}
        #: worker -> modelled time of voluntary drain
        self._drained: Dict[int, float] = {}
        #: workers that joined after construction -> modelled join time
        self._joined: Dict[int, float] = {}
        #: transitions proposed but not yet applied at a barrier
        self._pending_joins: List[int] = []
        self._pending_drains: List[int] = []
        #: membership epoch — bumped once per applied transition batch
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def config(self) -> MembershipConfig:
        return self._config

    @property
    def now(self) -> float:
        """Current modelled time."""
        return self._now

    @property
    def epoch(self) -> int:
        """Membership epoch: applied voluntary transition batches so far."""
        return self._epoch

    def alive_workers(self) -> List[int]:
        """Current members: alive, not drained (joined workers included)."""
        return [
            w for w in self._workers
            if w not in self._dead and w not in self._drained
        ]

    def members(self) -> List[int]:
        """Alias of :meth:`alive_workers` — the current member set."""
        return self.alive_workers()

    def dead_workers(self) -> List[int]:
        return sorted(self._dead)

    def drained_workers(self) -> List[int]:
        return sorted(self._drained)

    def joined_workers(self) -> List[int]:
        """Workers that joined after construction and are still members."""
        return [
            w for w in sorted(self._joined)
            if w not in self._dead and w not in self._drained
        ]

    def is_dead(self, worker: int) -> bool:
        return worker in self._dead

    def is_drained(self, worker: int) -> bool:
        return worker in self._drained

    def is_member(self, worker: int) -> bool:
        return (worker in self._last_seen and worker not in self._dead
                and worker not in self._drained)

    # ------------------------------------------------------------------
    # voluntary transitions (take effect at the next superstep barrier)
    # ------------------------------------------------------------------
    def propose_join(self, worker: int) -> None:
        """Queue a voluntary join; it takes effect at the next barrier.

        A current or already-proposed member cannot join again; a
        previously drained worker may rejoin.
        """
        if self.is_member(worker) or worker in self._pending_joins:
            raise WorkloadError(
                f"worker {worker} is already a member (or a pending join)"
            )
        self._pending_joins.append(worker)

    def propose_drain(self, worker: int) -> None:
        """Queue a voluntary drain; it takes effect at the next barrier.

        Only a current member can drain, and the pending batch may never
        drain the membership below one worker.
        """
        if not self.is_member(worker):
            raise WorkloadError(
                f"worker {worker} is not a current member — cannot drain"
            )
        if worker in self._pending_drains:
            raise WorkloadError(f"worker {worker} is already draining")
        remaining = (len(self.alive_workers()) + len(self._pending_joins)
                     - len(self._pending_drains) - 1)
        if remaining < 1:
            raise WorkloadError(
                "draining the last member would leave nobody to host the "
                "graph"
            )
        self._pending_drains.append(worker)

    def pending_transitions(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(drains, joins)`` queued for the next barrier (a copy)."""
        return tuple(self._pending_drains), tuple(self._pending_joins)

    def take_pending(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Consume and return the queued ``(drains, joins)``."""
        drains = tuple(self._pending_drains)
        joins = tuple(self._pending_joins)
        self._pending_drains.clear()
        self._pending_joins.clear()
        return drains, joins

    def apply_join(self, worker: int) -> None:
        """Make ``worker`` a member now (called at a barrier)."""
        self._dead.pop(worker, None)
        self._drained.pop(worker, None)
        if worker not in self._last_seen:
            self._workers.append(worker)
            self._workers.sort()
        self._last_seen[worker] = self._now
        self._joined[worker] = self._now

    def apply_drain(self, worker: int) -> None:
        """Retire ``worker`` now (called at a barrier)."""
        self._drained[worker] = self._now

    def bump_epoch(self) -> None:
        self._epoch += 1

    def restore_epoch(self, epoch: int) -> None:
        """Fast-forward the epoch counter (recovery replays a WAL whose
        commits recorded transitions; the counter must keep ascending)."""
        self._epoch = max(self._epoch, int(epoch))

    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Advance modelled time one heartbeat period (one per barrier)."""
        self._now += self._config.heartbeat_interval_s

    def heartbeat(self, worker: int, delay_s: float = 0.0,
                  injected: bool = False) -> None:
        """Record ``worker``'s heartbeat for the current period.

        ``delay_s`` is how stale the heartbeat is (a straggling worker's
        most recent heartbeat is ``delay_s`` old by the time the barrier
        evaluates suspicion).  When ``injected`` is set the delay came
        from the fault injector's straggler schedule and is *excluded*
        from suspicion — a known-slow worker is not a silent one.
        """
        if worker in self._dead or worker in self._drained:
            return
        stale = 0.0 if injected else max(delay_s, 0.0)
        self._last_seen[worker] = self._now - stale

    def phi(self, worker: int) -> float:
        """Suspicion of ``worker`` (``inf`` once declared dead; a drained
        worker is silent by agreement and never suspect)."""
        if worker in self._dead:
            return float("inf")
        if worker in self._drained:
            return 0.0
        elapsed = self._now - self._last_seen.get(worker, 0.0)
        if elapsed <= 0.0:
            return 0.0
        return elapsed / self._config.heartbeat_interval_s * LOG10E

    def suspects(self) -> List[int]:
        """Alive workers whose suspicion crossed the threshold."""
        threshold = self._config.phi_threshold
        return [
            w for w in self._workers
            if w not in self._dead and w not in self._drained
            and self.phi(w) >= threshold
        ]

    def declare_dead(self, worker: int) -> None:
        """Remove ``worker`` from the membership for good."""
        if worker not in self._dead:
            self._dead[worker] = self._now


@dataclass(frozen=True)
class AuditFinding:
    """One corrupted guest copy's life cycle, as the auditor saw it."""

    vertex: int
    machine: int
    #: audit clock when the corruption was injected
    injected_clock: int
    #: audit clock when the auditor resolved it
    resolved_clock: int
    #: ``"repaired"`` (read-repair re-shipped host state) or
    #: ``"destroyed"`` (the copy vanished first — edge deletion, vertex
    #: deletion, or the hosting worker died)
    outcome: str


@dataclass(frozen=True)
class TransitionEvent:
    """One barrier's worth of applied voluntary transitions."""

    superstep: int
    joined: Tuple[int, ...]
    drained: Tuple[int, ...]
    #: host vertices whose effective placement moved
    moved: int
    #: membership epoch after the batch applied
    epoch: int
    #: modelled barrier stall while the batch applied
    stall_s: float


@dataclass(frozen=True)
class FailoverEvent:
    """One barrier's worth of permanent losses, for diagnostics/tests."""

    superstep: int
    workers: Tuple[int, ...]
    reassigned: int
    #: reconstruction sources: how many lost hosts were rebuilt from a
    #: surviving guest copy / the delta log / the barrier checkpoint
    sources: Dict[str, int]
    detection_s: float


class GuestAuditor:
    """Anti-entropy over guest copies: sampled checksums + read-repair.

    Every ``(vertex, guest machine)`` pair is assigned a rotation slot
    ``blake2b(salt, vertex, machine) % audit_every``; at audit clock ``c``
    the pairs in slot ``c % audit_every`` ship a checksum digest of their
    copy to the host, which compares it against host state.  A mismatch
    (silent corruption, injected by the ``corrupt_guest`` fault kind) is
    repaired by re-shipping the host state.  The rotation guarantees every
    surviving corrupted copy is caught within ``audit_every`` audited
    supersteps of injection.

    The audit clock is *global* (persists across engine runs), so a pair
    whose slot did not come up before a short run converged is checked
    early in the next run.
    """

    def __init__(self, config: MembershipConfig):
        self._config = config
        #: (vertex, machine) -> audit clock at injection
        self._corrupted: Dict[Tuple[int, int], int] = {}
        #: (vertex, machine) -> rotation slot (pure blake2b, cached)
        self._slots: Dict[Tuple[int, int], int] = {}
        self._clock = 0
        self.findings: List[AuditFinding] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._config.audit_every > 0

    @property
    def clock(self) -> int:
        """Audited supersteps so far (global across runs)."""
        return self._clock

    def corrupted_pairs(self) -> List[Tuple[int, int]]:
        """Currently corrupted (undetected) guest copies."""
        return sorted(self._corrupted)

    def mark_corrupted(self, vertex: int, machine: int) -> None:
        """The injector corrupted this guest copy after the current sync."""
        self._corrupted.setdefault((vertex, machine), self._clock)

    def _slot(self, vertex: int, machine: int) -> int:
        key = (vertex, machine)
        slot = self._slots.get(key)
        if slot is None:
            blob = f"{self._config.salt}|audit|{vertex}|{machine}"
            digest = hashlib.blake2b(
                blob.encode("ascii"), digest_size=8
            ).digest()
            slot = int.from_bytes(digest, "big") % self._config.audit_every
            self._slots[key] = slot
        return slot

    # ------------------------------------------------------------------
    def _repair(self, vertex: int, machine: int, injected_clock: int,
                states, sync_bytes_of, metrics) -> None:
        metrics.divergence_detected += 1
        metrics.divergence_repaired += 1
        state = states.get(vertex)
        wire = MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES + (
            sync_bytes_of(state) if state is not None else 8
        )
        metrics.divergence_repair_bytes += wire
        metrics.divergence_repair_messages += 1
        self.findings.append(AuditFinding(
            vertex=vertex, machine=machine,
            injected_clock=injected_clock, resolved_clock=self._clock,
            outcome="repaired",
        ))

    def _purge_destroyed(self, dgraph, dead_is) -> None:
        """Drop corrupted pairs whose copy no longer exists."""
        for key in sorted(self._corrupted):
            vertex, machine = key
            gone = (
                dead_is(machine)
                or not dgraph.has_vertex(vertex)
                or machine not in dgraph.guest_machines(vertex)
            )
            if gone:
                injected_clock = self._corrupted.pop(key)
                self.findings.append(AuditFinding(
                    vertex=vertex, machine=machine,
                    injected_clock=injected_clock,
                    resolved_clock=self._clock,
                    outcome="destroyed",
                ))

    def audit(self, dgraph, dead_is, states, sync_bytes_of, metrics) -> int:
        """One superstep's sampled audit pass; returns repairs made.

        ``dead_is`` is a ``worker -> bool`` predicate (dead workers host
        no copies to audit).  Digest shipping and read-repair land on the
        ``divergence_*`` meters only.
        """
        if not self.enabled:
            return 0
        every = self._config.audit_every
        slot = self._clock % every
        repaired = 0
        for u in dgraph.graph.sorted_vertices():
            state = states.get(u)
            for m in dgraph.guest_machines(u):
                if dead_is(m):
                    continue
                if self._slot(u, m) != slot:
                    continue
                metrics.divergence_checks += 1
                metrics.divergence_check_bytes += (
                    MESSAGE_OVERHEAD_BYTES + DIGEST_BYTES
                )
                injected_clock = self._corrupted.pop((u, m), None)
                if injected_clock is not None:
                    self._repair(u, m, injected_clock, states,
                                 sync_bytes_of, metrics)
                    repaired += 1
            del state  # host state only read via _repair
        self._purge_destroyed(dgraph, dead_is)
        self._clock += 1
        return repaired

    def final_audit(self, dgraph, dead_is, states, sync_bytes_of,
                    metrics) -> int:
        """Full (unsampled) sweep — the close-out audit of a session.

        Checks every surviving guest copy once, so corruption injected too
        recently for its rotation slot is still caught before the session's
        results are read.  Returns repairs made.
        """
        if not self.enabled:
            return 0
        repaired = 0
        for u in dgraph.graph.sorted_vertices():
            for m in dgraph.guest_machines(u):
                if dead_is(m):
                    continue
                metrics.divergence_checks += 1
                metrics.divergence_check_bytes += (
                    MESSAGE_OVERHEAD_BYTES + DIGEST_BYTES
                )
                injected_clock = self._corrupted.pop((u, m), None)
                if injected_clock is not None:
                    self._repair(u, m, injected_clock, states,
                                 sync_bytes_of, metrics)
                    repaired += 1
        self._purge_destroyed(dgraph, dead_is)
        self._clock += 1
        return repaired


class FailoverCoordinator:
    """Owns the membership view, the placement overlay, the delta log, and
    the guest auditor for one engine (persistent across runs).

    The *effective* placement (:meth:`worker_of`) is a pure overlay: a
    vertex whose base worker is alive stays put; a vertex whose base
    worker died is rendezvous-hashed over the survivors.  The
    :class:`~repro.graph.distributed_graph.DistributedGraph` — and with it
    every logical meter — keeps the fault-free base placement: the paper's
    cost model describes the computation, and the chaos oracle asserts the
    failed-over run's logical meters stay bit-identical.  Everything the
    overlay costs is charged to ``recovery_*``.
    """

    def __init__(self, dgraph, config: Optional[MembershipConfig] = None):
        self._dgraph = dgraph
        self._config = config if config is not None else MembershipConfig()
        self.view = MembershipView(range(dgraph.num_workers), self._config)
        self.auditor = GuestAuditor(self._config)
        self._alive: Tuple[int, ...] = tuple(self.view.alive_workers())
        self._member_set = frozenset(self._alive)
        self._joined_active = frozenset(self.view.joined_workers())
        #: bounded per-superstep delta-log frames (newest last) + the
        #: compacted base older frames fold into
        self._frames: Deque[Dict[int, Any]] = deque()
        self._ledger_base: Dict[int, Any] = {}
        self.events: List[FailoverEvent] = []
        self.transitions: List[TransitionEvent] = []

    # ------------------------------------------------------------------
    @property
    def config(self) -> MembershipConfig:
        return self._config

    @property
    def dead_workers(self) -> List[int]:
        return self.view.dead_workers()

    @property
    def alive_workers(self) -> List[int]:
        return list(self._alive)

    @property
    def epoch(self) -> int:
        """Membership epoch (applied voluntary transition batches)."""
        return self.view.epoch

    def is_dead(self, worker: int) -> bool:
        return self.view.is_dead(worker)

    def _refresh_members(self) -> None:
        self._alive = tuple(self.view.alive_workers())
        self._member_set = frozenset(self._alive)
        self._joined_active = frozenset(self.view.joined_workers())

    def worker_of(self, u: int) -> int:
        """Effective worker of ``u`` under the failover + elastic overlay.

        Pure function of (base placement, member set, joined set):

        1. if any joined worker's rendezvous weight over the *whole* member
           set claims ``u``, it lives there (a join moves exactly the
           vertices whose member-set argmax is the joiner — HRW-minimal);
        2. otherwise ``u`` stays with its base worker while that worker is
           a member (alive, not drained);
        3. otherwise (base dead or drained) ``u`` is rendezvous-hashed over
           the members — the PR 4 failover rule, now drain-aware.
        """
        if self._joined_active:
            w = rendezvous_worker(u, self._alive, salt=self._config.salt)
            if w in self._joined_active:
                return w
        base = self._dgraph.worker_of(u)
        if base in self._member_set:
            return base
        return rendezvous_worker(u, self._alive, salt=self._config.salt)

    def _is_solitary(self, u: int, worker_of) -> bool:
        """No guest copy anywhere: every neighbour is co-hosted with u."""
        home = worker_of(u)
        for v in sorted(self._dgraph.neighbors(u)):
            if worker_of(v) != home:
                return False
        return True

    # ------------------------------------------------------------------
    # delta log (solitary vertices have no guest copy to reconstruct from)
    # ------------------------------------------------------------------
    def _ledger_append(self, frame: Dict[int, Any]) -> None:
        self._frames.append(frame)
        while len(self._frames) > self._config.delta_log_depth:
            self._ledger_base.update(self._frames.popleft())

    def _ledger_lookup(self, u: int) -> Tuple[bool, Any]:
        for frame in reversed(self._frames):
            if u in frame:
                return True, frame[u]
        if u in self._ledger_base:
            return True, self._ledger_base[u]
        return False, None

    @property
    def ledger_size(self) -> int:
        """Distinct vertices currently covered by the delta log."""
        keys = set(self._ledger_base)
        for frame in self._frames:
            keys.update(frame)
        return len(keys)

    def record_deltas(self, changed: Iterable[int], states: Dict[int, Any],
                      sync_bytes_of, metrics) -> None:
        """Ship this superstep's changed *solitary* states to the delta log.

        A vertex with at least one guest copy is reconstructible from it;
        only solitary vertices (every neighbour co-hosted, or no neighbour
        at all) need the replicated log.  The shipment is bounded by the
        superstep's state changes and charged to
        ``recovery_delta_log_bytes``.
        """
        frame: Dict[int, Any] = {}
        for u in sorted(changed):
            if not self._dgraph.has_vertex(u):
                continue
            if not self._is_solitary(u, self.worker_of):
                continue
            frame[u] = _snapshot(states[u])
            metrics.recovery_delta_log_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + sync_bytes_of(states[u])
            )
            metrics.recovery_delta_log_records += 1
        if frame:
            self._ledger_append(frame)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def fail_over(self, lost_workers: Iterable[int], superstep: int,
                  checkpoint, states: Dict[int, Any], metrics,
                  sync_bytes_of) -> List[int]:
        """Handle permanent losses declared at this superstep's barrier.

        Declares the workers dead, reassigns their partitions to survivors
        (rendezvous, minimal), reconstructs each lost host vertex from the
        freshest surviving guest copy / the delta log / the barrier
        checkpoint, re-prices guest-copy re-establishment, and returns the
        DOIMIS affected set (lost hosts + their neighbours) for the
        engine's recovery sweep.  All costs land on ``recovery_*``.
        """
        lost = sorted(w for w in set(lost_workers) if not self.view.is_dead(w))
        if not lost:
            return []
        lost_set = set(lost)
        if len(self._alive) - len(lost) < 1:
            raise WorkerFailure(
                lost[0], superstep,
                "every worker died — nothing left to fail over to",
            )

        dgraph = self._dgraph
        # effective placement *before* this failover — reconstruction
        # sources are the guest copies that existed when the workers died
        old_eff: Dict[int, int] = {u: self.worker_of(u) for u in sorted(states)}

        # the barrier blocked until the silent workers' phi crossed the
        # threshold; the detector waits once for all concurrent losses
        latency = self._config.detection_latency_s
        metrics.recovery_detection_s += latency
        metrics.wall_time_s += latency

        for w in lost:
            self.view.declare_dead(w)
        self._refresh_members()
        metrics.recovery_failovers += len(lost)

        from repro.scaleg.guest import surviving_guest_machines

        lost_hosts = [u for u in sorted(states) if old_eff[u] in lost_set]
        sources = {"guest": 0, "ledger": 0, "checkpoint": 0}
        affected = set(lost_hosts)
        for u in lost_hosts:
            neighbors = sorted(dgraph.neighbors(u)) if dgraph.has_vertex(u) else []
            affected.update(neighbors)
            surviving_copies = surviving_guest_machines(
                dgraph, u, old_eff.__getitem__, lost_set
            ) if neighbors else []
            expected = checkpoint.states.get(u, states.get(u))
            if surviving_copies:
                # every surviving copy is barrier-fresh (synced on change);
                # read from the lowest machine id, deterministically
                sources["guest"] += 1
                reconstructed = expected
            else:
                found, logged = self._ledger_lookup(u)
                if found:
                    sources["ledger"] += 1
                    reconstructed = logged
                else:
                    # host and every guest machine died at once: fall back
                    # to the persisted barrier checkpoint
                    sources["checkpoint"] += 1
                    reconstructed = expected
            if reconstructed != expected:
                raise WorkerFailure(
                    old_eff[u], superstep,
                    f"reconstructed state of vertex {u} diverged from the "
                    "barrier checkpoint",
                )
            wire = MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES + (
                sync_bytes_of(expected) if expected is not None else 8
            )
            metrics.recovery_resync_bytes += wire
            metrics.recovery_resync_messages += 1
        metrics.recovery_reassigned_vertices += len(lost_hosts)
        metrics.recovery_reconstructed_vertices += len(lost_hosts)

        # guest re-establishment: the new host of a reassigned vertex needs
        # guest copies of every remote neighbour it did not already hold
        for u in lost_hosts:
            if not dgraph.has_vertex(u):
                continue
            new_home = self.worker_of(u)
            for v in sorted(dgraph.neighbors(u)):
                if self.worker_of(v) == new_home:
                    continue
                held = {
                    old_eff[x]
                    for x in sorted(dgraph.neighbors(v)) if x in old_eff
                } - {old_eff[v]}
                if new_home in held:
                    continue  # the copy of v was already resident there
                state = states.get(v)
                metrics.recovery_resync_bytes += (
                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                    + (sync_bytes_of(state) if state is not None else 8)
                )
                metrics.recovery_resync_messages += 1

        # vertices that just became solitary (their only remote neighbours
        # now co-hosted) enter the delta log so a later loss of their own
        # worker still has a reconstruction source
        seeded: Dict[int, Any] = {}
        for u in sorted(states):
            if u in affected or not dgraph.has_vertex(u):
                continue
            was_solitary = self._is_solitary(u, lambda x: old_eff[x])
            if was_solitary or not self._is_solitary(u, self.worker_of):
                continue
            seeded[u] = _snapshot(states[u])
            metrics.recovery_delta_log_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + sync_bytes_of(states[u])
            )
            metrics.recovery_delta_log_records += 1
        if seeded:
            self._ledger_append(seeded)

        reactivate = sorted(u for u in affected if dgraph.has_vertex(u))
        metrics.recovery_reactivated_vertices += len(reactivate)
        self.events.append(FailoverEvent(
            superstep=superstep,
            workers=tuple(lost),
            reassigned=len(lost_hosts),
            sources=sources,
            detection_s=latency,
        ))
        return reactivate

    def fail_over_degraded(self, lost_workers: Iterable[int], superstep: int,
                           checkpoint, states: Dict[int, Any], metrics,
                           state_bytes_of) -> List[int]:
        """The Pregel counterpart: no guest copies, no delta log.

        A message-passing engine has no replicas of host state, so every
        lost vertex is reconstructed from the persisted barrier checkpoint
        (degraded: the whole partition ships from stable storage), and the
        affected set is re-activated by explicit messages.
        """
        lost = sorted(w for w in set(lost_workers) if not self.view.is_dead(w))
        if not lost:
            return []
        lost_set = set(lost)
        if len(self._alive) - len(lost) < 1:
            raise WorkerFailure(
                lost[0], superstep,
                "every worker died — nothing left to fail over to",
            )
        dgraph = self._dgraph
        old_eff: Dict[int, int] = {u: self.worker_of(u) for u in sorted(states)}

        latency = self._config.detection_latency_s
        metrics.recovery_detection_s += latency
        metrics.wall_time_s += latency
        for w in lost:
            self.view.declare_dead(w)
        self._refresh_members()
        metrics.recovery_failovers += len(lost)

        lost_hosts = [u for u in sorted(states) if old_eff[u] in lost_set]
        affected = set(lost_hosts)
        for u in lost_hosts:
            if dgraph.has_vertex(u):
                affected.update(sorted(dgraph.neighbors(u)))
            state = checkpoint.states.get(u, states.get(u))
            metrics.recovery_resync_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + (state_bytes_of(state) if state is not None else 8)
            )
            metrics.recovery_resync_messages += 1
        metrics.recovery_reassigned_vertices += len(lost_hosts)
        metrics.recovery_reconstructed_vertices += len(lost_hosts)

        reactivate = sorted(u for u in affected if dgraph.has_vertex(u))
        # re-activation travels as explicit messages in Pregel
        for _u in reactivate:
            metrics.recovery_resync_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
            )
            metrics.recovery_resync_messages += 1
        metrics.recovery_reactivated_vertices += len(reactivate)
        self.events.append(FailoverEvent(
            superstep=superstep,
            workers=tuple(lost),
            reassigned=len(lost_hosts),
            sources={"guest": 0, "ledger": 0, "checkpoint": len(lost_hosts)},
            detection_s=latency,
        ))
        return reactivate

    # ------------------------------------------------------------------
    # voluntary elasticity (planned transitions applied at a barrier)
    # ------------------------------------------------------------------
    def propose_join(self, worker: int) -> None:
        """Queue a voluntary join for the next barrier."""
        self.view.propose_join(worker)

    def propose_drain(self, worker: int) -> None:
        """Queue a voluntary drain for the next barrier."""
        self.view.propose_drain(worker)

    def apply_transitions(
        self, drains: Iterable[int], joins: Iterable[int], superstep: int,
        states: Dict[int, Any], metrics, sync_bytes_of,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], List[int]]:
        """Apply one barrier's voluntary transition batch.

        Joins apply first (a simultaneous join+drain streams the drained
        partitions straight to the joiner), then drains; the membership
        epoch bumps once per batch.  Every moved host vertex is streamed
        from its *live* old host — state record, guest-copy
        re-establishment for its remote neighbours, and a rank-cache
        rebuild on the receiver — all charged to the ``rebalance_*``
        family.  The logical meters (and the
        :class:`~repro.graph.distributed_graph.DistributedGraph` base
        placement) never change, which is what keeps an elastic run
        bit-identical to a fixed-membership one.

        Returns ``(applied_drains, applied_joins, moved_vertices)``.
        """
        joins = [w for w in sorted(set(joins)) if not self.view.is_member(w)]
        drains = [
            w for w in sorted(set(drains))
            if self.view.is_member(w) and w not in joins
        ]
        if not joins and not drains:
            return (), (), []
        if not (set(self._member_set) | set(joins)) - set(drains):
            raise WorkerFailure(
                drains[0], superstep,
                "draining every member would leave nobody to host the graph",
            )

        dgraph = self._dgraph
        # effective placement *before* the batch — the movement set is the
        # diff against it
        old_eff: Dict[int, int] = {u: self.worker_of(u) for u in sorted(states)}
        for w in joins:
            self.view.apply_join(w)
        for w in drains:
            self.view.apply_drain(w)
        self.view.bump_epoch()
        self._refresh_members()

        moved = [u for u in sorted(states) if self.worker_of(u) != old_eff[u]]
        for u in moved:
            # the new home streams u's state from its live old host —
            # never from a checkpoint
            state = states.get(u)
            metrics.rebalance_resync_bytes += (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + (sync_bytes_of(state) if state is not None else 8)
            )
            metrics.rebalance_resync_messages += 1
            if not dgraph.has_vertex(u):
                continue
            new_home = self.worker_of(u)
            degree = 0
            for v in sorted(dgraph.neighbors(u)):
                degree += 1
                if self.worker_of(v) == new_home:
                    continue
                # guest copies move with the host: the new home takes a
                # copy of each remote neighbour (and ships back its own)
                vstate = states.get(v)
                metrics.rebalance_resync_bytes += (
                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                    + (sync_bytes_of(vstate) if vstate is not None else 8)
                )
                metrics.rebalance_resync_messages += 1
            # the receiver rebuilds u's rank-ordered adjacency entries
            metrics.rebalance_rank_entries += degree
        metrics.rebalance_joins += len(joins)
        metrics.rebalance_drains += len(drains)
        metrics.rebalance_moved_vertices += len(moved)
        # the barrier stalls one heartbeat period while the batch applies
        stall = self._config.heartbeat_interval_s
        metrics.rebalance_stall_s += stall
        metrics.wall_time_s += stall
        self.transitions.append(TransitionEvent(
            superstep=superstep, joined=tuple(joins), drained=tuple(drains),
            moved=len(moved), epoch=self.view.epoch, stall_s=stall,
        ))
        return tuple(drains), tuple(joins), moved

    def barrier_transitions(
        self, superstep: int, states: Dict[int, Any], metrics,
        sync_bytes_of, injector=None,
    ) -> List[int]:
        """Collect and apply every transition due at this barrier.

        Merges the proposed queue (:meth:`propose_join` /
        :meth:`propose_drain`) with the injector's scheduled transitions
        (fire-once — a crash rollback replaying this barrier never applies
        a batch twice), applies them, and tells the injector which workers
        drained so they are never again drawn for faults.  Returns the
        moved vertices.
        """
        drains, joins = self.view.take_pending()
        if injector is not None:
            sched_drains, sched_joins = injector.membership_transitions(
                superstep
            )
            drains += sched_drains
            joins += sched_joins
        if not drains and not joins:
            return []
        applied_drains, applied_joins, moved = self.apply_transitions(
            drains, joins, superstep, states, metrics, sync_bytes_of
        )
        if injector is not None:
            for w in applied_drains:
                injector.mark_drained(w)
            for w in applied_joins:
                injector.mark_joined(w)
        return moved

    # ------------------------------------------------------------------
    # anti-entropy pass-throughs
    # ------------------------------------------------------------------
    def mark_corrupted(self, vertex: int, machine: int) -> None:
        self.auditor.mark_corrupted(vertex, machine)

    def audit(self, states: Dict[int, Any], sync_bytes_of, metrics) -> int:
        return self.auditor.audit(
            self._dgraph, self.view.is_dead, states, sync_bytes_of, metrics
        )

    def final_audit(self, states: Dict[int, Any], sync_bytes_of,
                    metrics) -> int:
        return self.auditor.final_audit(
            self._dgraph, self.view.is_dead, states, sync_bytes_of, metrics
        )


def resolve_membership(membership, injector, dgraph) -> Optional[FailoverCoordinator]:
    """Normalize an engine's ``membership`` argument.

    ``None`` attaches a default :class:`FailoverCoordinator` exactly when
    the fault plan can declare losses or corrupt guest copies (there must
    be *someone* to handle them); a :class:`MembershipConfig` builds a
    coordinator with those tunables; a :class:`FailoverCoordinator` is
    used as-is (and may be shared across engines).  Without an active
    injector and without an explicit request this resolves to ``None`` —
    the hot loop stays byte-identical to the fault-free build.
    """
    if membership is None:
        if injector is not None and (
            injector.plan.schedules_loss
            or injector.plan.schedules_corruption
            or injector.plan.schedules_transitions
        ):
            return FailoverCoordinator(dgraph)
        return None
    if isinstance(membership, FailoverCoordinator):
        return membership
    if isinstance(membership, MembershipConfig):
        return FailoverCoordinator(dgraph, membership)
    raise WorkloadError(
        f"membership must be None, a MembershipConfig, or a "
        f"FailoverCoordinator, got {membership!r}"
    )
