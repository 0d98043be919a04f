"""Seeded fault schedules (:class:`FaultPlan`).

A plan answers, deterministically, "does fault X fire at point Y?" for the
well-defined interception points the engines expose:

- **barrier commit** — does worker ``w`` crash at the barrier of superstep
  ``s``?  (Recovery: roll back to the superstep checkpoint, rebuild the
  crashed workers' guest tables from host state, replay the sweep.)
- **sync emission** — is the guest-sync record ``vertex -> machine``
  dropped (how many times before a send succeeds) or duplicated?
- **worker sweep** — does worker ``w`` straggle this superstep, and by how
  much modelled wall time?  Is the superstep's sync/delivery order
  adversarially permuted?

Two authoring styles compose:

- **explicit specs** (:class:`CrashSpec` & friends) pin a fault to an exact
  ``(run, superstep, ...)`` coordinate — what the unit tests use;
- **seeded probabilities** draw every decision from a keyed hash of
  ``(seed, kind, run, superstep, ...)``, so a schedule is fully reproducible
  from its seed yet independent of call order — what the chaos harness
  sweeps.

Plans are *pure*: they never remember what fired.  Consumption (a crash
fires once, then the replayed superstep proceeds) is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import WorkloadError

#: hard ceiling on how many times one record may be scheduled to drop —
#: anything above the injector's retry budget escalates to
#: :class:`~repro.errors.SyncRetryExhausted` anyway
MAX_DROP_ATTEMPTS = 8


@dataclass(frozen=True)
class CrashSpec:
    """Worker ``worker`` crashes at the barrier of ``superstep``.

    ``run`` selects which engine run (the maintainer starts one run per
    batch; run 0 is the initial static computation); ``None`` matches every
    run.
    """

    superstep: int
    worker: int
    run: Optional[int] = None


@dataclass(frozen=True)
class SyncDropSpec:
    """The sync record ``vertex -> machine`` is dropped ``attempts`` times.

    ``machine=None`` matches the record to every guest machine of the
    vertex.  Each failed attempt is retried with exponential backoff; more
    failures than the injector's ``max_retries`` escalate to
    :class:`~repro.errors.SyncRetryExhausted`.
    """

    superstep: int
    vertex: int
    attempts: int = 1
    machine: Optional[int] = None
    run: Optional[int] = None


@dataclass(frozen=True)
class SyncDuplicateSpec:
    """The sync record ``vertex -> machine`` arrives ``copies`` extra times
    (the receiver applies it idempotently and the waste is metered)."""

    superstep: int
    vertex: int
    copies: int = 1
    machine: Optional[int] = None
    run: Optional[int] = None


@dataclass(frozen=True)
class StragglerSpec:
    """Worker ``worker`` takes ``delay_s`` extra modelled seconds in the
    sweep of ``superstep``."""

    superstep: int
    worker: int
    delay_s: float = 0.05
    run: Optional[int] = None


@dataclass(frozen=True)
class ReorderSpec:
    """The sync/delivery order of ``superstep`` is adversarially permuted."""

    superstep: int
    run: Optional[int] = None


@dataclass(frozen=True)
class LossSpec:
    """Worker ``worker`` dies *permanently* at the barrier of ``superstep``.

    Unlike :class:`CrashSpec` (transient: rollback and replay on the same
    worker set), a loss removes the worker from the cluster for the rest of
    the update stream — its partition is reassigned to survivors and its
    host vertices reconstructed from surviving guest copies (see
    :mod:`repro.faults.membership`).
    """

    superstep: int
    worker: int
    run: Optional[int] = None


@dataclass(frozen=True)
class DrainSpec:
    """Worker ``worker`` *voluntarily* drains at the barrier of ``superstep``.

    Unlike :class:`LossSpec` (involuntary: detected by phi-accrual, state
    reconstructed from replicas), a drain is planned: the worker migrates
    its host state, guest copies and rank caches to the remaining members
    *before* leaving, and the cost lands in the ``rebalance_*`` meter
    family instead of ``recovery_*``.
    """

    superstep: int
    worker: int
    run: Optional[int] = None


@dataclass(frozen=True)
class JoinSpec:
    """Worker ``worker`` *voluntarily* joins at the barrier of ``superstep``.

    The joiner is streamed its HRW-minimal share of partitions from the
    live hosts (never from checkpoints); the movement cost lands in the
    ``rebalance_*`` meter family.
    """

    superstep: int
    worker: int
    run: Optional[int] = None


@dataclass(frozen=True)
class CorruptGuestSpec:
    """The guest copy ``vertex -> machine`` silently diverges from the host
    state after this superstep's sync (a bit flip in the replica, not on the
    wire — only the anti-entropy auditor can see it)."""

    superstep: int
    vertex: int
    machine: Optional[int] = None
    run: Optional[int] = None


def _matches(spec_run: Optional[int], run: int) -> bool:
    return spec_run is None or spec_run == run


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of injectable faults.

    All probabilities are per-opportunity: ``crash_prob`` per
    ``(run, superstep, worker)`` barrier, ``drop_prob``/``duplicate_prob``
    per emitted sync record, ``straggler_prob`` per ``(superstep, worker)``
    sweep, ``reorder_prob`` per superstep.  ``FaultPlan()`` is the empty
    plan: engines behave (and meter) exactly as if no plan were attached.
    """

    seed: int = 0
    crash_prob: float = 0.0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    straggler_prob: float = 0.0
    reorder_prob: float = 0.0
    #: per-(run, superstep, worker) probability of *permanent* worker loss
    loss_prob: float = 0.0
    #: per-sync-record probability of silent guest-copy corruption
    corrupt_prob: float = 0.0
    #: seeded drops fail 1..max_drop_attempts times (drawn per record)
    max_drop_attempts: int = 2
    #: modelled delay of a seeded straggler event
    straggler_delay_s: float = 0.05
    crashes: Tuple[CrashSpec, ...] = field(default_factory=tuple)
    drops: Tuple[SyncDropSpec, ...] = field(default_factory=tuple)
    duplicates: Tuple[SyncDuplicateSpec, ...] = field(default_factory=tuple)
    stragglers: Tuple[StragglerSpec, ...] = field(default_factory=tuple)
    reorders: Tuple[ReorderSpec, ...] = field(default_factory=tuple)
    losses: Tuple[LossSpec, ...] = field(default_factory=tuple)
    corruptions: Tuple[CorruptGuestSpec, ...] = field(default_factory=tuple)
    #: planned membership transitions (voluntary elasticity) — always
    #: explicit coordinates, never probabilistic: a rebalance is an
    #: operator decision, not an accident
    drains: Tuple[DrainSpec, ...] = field(default_factory=tuple)
    joins: Tuple[JoinSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("crash_prob", "drop_prob", "duplicate_prob",
                     "straggler_prob", "reorder_prob", "loss_prob",
                     "corrupt_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise WorkloadError(f"{name} must be in [0, 1], got {p}")
        if not (1 <= self.max_drop_attempts <= MAX_DROP_ATTEMPTS):
            raise WorkloadError(
                f"max_drop_attempts must be in [1, {MAX_DROP_ATTEMPTS}], "
                f"got {self.max_drop_attempts}"
            )
        # normalize sequences to tuples so plans stay hashable/frozen
        for name in ("crashes", "drops", "duplicates", "stragglers",
                     "reorders", "losses", "corruptions", "drains", "joins"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether this plan can never fire a fault."""
        return not (
            self.crash_prob or self.drop_prob or self.duplicate_prob
            or self.straggler_prob or self.reorder_prob
            or self.loss_prob or self.corrupt_prob
            or self.crashes or self.drops or self.duplicates
            or self.stragglers or self.reorders
            or self.losses or self.corruptions
            or self.drains or self.joins
        )

    @property
    def schedules_loss(self) -> bool:
        """Whether this plan can declare a worker permanently dead (the
        engines auto-attach a default membership subsystem when so)."""
        return bool(self.loss_prob or self.losses)

    @property
    def schedules_corruption(self) -> bool:
        """Whether this plan can corrupt guest copies (the engines
        auto-enable the anti-entropy auditor when so)."""
        return bool(self.corrupt_prob or self.corruptions)

    @property
    def schedules_transitions(self) -> bool:
        """Whether this plan schedules voluntary joins/drains (the engines
        auto-attach a membership subsystem when so)."""
        return bool(self.drains or self.joins)

    # ------------------------------------------------------------------
    # keyed deterministic draws
    # ------------------------------------------------------------------
    def _draw(self, kind: str, *key: int) -> float:
        """A uniform [0, 1) value, a pure function of (seed, kind, key)."""
        blob = f"{self.seed}|{kind}|" + "|".join(str(k) for k in key)
        digest = hashlib.blake2b(blob.encode("ascii"), digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    # ------------------------------------------------------------------
    # schedule queries (pure; consumption is the injector's job)
    # ------------------------------------------------------------------
    def crash_at(self, run: int, superstep: int, worker: int) -> bool:
        for spec in self.crashes:
            if (spec.superstep == superstep and spec.worker == worker
                    and _matches(spec.run, run)):
                return True
        if self.crash_prob:
            return self._draw("crash", run, superstep, worker) < self.crash_prob
        return False

    def sync_drops(self, run: int, superstep: int, vertex: int, machine: int) -> int:
        """How many times this sync record fails before a send succeeds."""
        for spec in self.drops:
            if (spec.superstep == superstep and spec.vertex == vertex
                    and _matches(spec.run, run)
                    and (spec.machine is None or spec.machine == machine)):
                return spec.attempts
        if self.drop_prob:
            roll = self._draw("drop", run, superstep, vertex, machine)
            if roll < self.drop_prob:
                extra = self._draw("drop-n", run, superstep, vertex, machine)
                return 1 + int(extra * self.max_drop_attempts)
        return 0

    def sync_duplicates(self, run: int, superstep: int, vertex: int, machine: int) -> int:
        """How many redundant copies of this sync record arrive."""
        for spec in self.duplicates:
            if (spec.superstep == superstep and spec.vertex == vertex
                    and _matches(spec.run, run)
                    and (spec.machine is None or spec.machine == machine)):
                return spec.copies
        if self.duplicate_prob:
            if self._draw("dup", run, superstep, vertex, machine) < self.duplicate_prob:
                return 1
        return 0

    def straggler_delay(self, run: int, superstep: int, worker: int) -> float:
        delay = 0.0
        for spec in self.stragglers:
            if (spec.superstep == superstep and spec.worker == worker
                    and _matches(spec.run, run)):
                delay += spec.delay_s
        if self.straggler_prob:
            if self._draw("straggle", run, superstep, worker) < self.straggler_prob:
                delay += self.straggler_delay_s
        return delay

    def reorder_at(self, run: int, superstep: int) -> bool:
        for spec in self.reorders:
            if spec.superstep == superstep and _matches(spec.run, run):
                return True
        if self.reorder_prob:
            return self._draw("reorder", run, superstep) < self.reorder_prob
        return False

    def reorder_seed(self, run: int, superstep: int) -> int:
        """Seed for the permutation applied when :meth:`reorder_at` fires."""
        return int(self._draw("reorder-perm", run, superstep) * (1 << 32))

    def lost_at(self, run: int, superstep: int, worker: int) -> bool:
        """Does ``worker`` die permanently at this superstep's barrier?"""
        for spec in self.losses:
            if (spec.superstep == superstep and spec.worker == worker
                    and _matches(spec.run, run)):
                return True
        if self.loss_prob:
            return self._draw("loss", run, superstep, worker) < self.loss_prob
        return False

    def drained_at(self, run: int, superstep: int) -> Tuple[int, ...]:
        """Workers scheduled to voluntarily drain at this barrier."""
        return tuple(sorted({
            spec.worker for spec in self.drains
            if spec.superstep == superstep and _matches(spec.run, run)
        }))

    def joined_at(self, run: int, superstep: int) -> Tuple[int, ...]:
        """Workers scheduled to voluntarily join at this barrier."""
        return tuple(sorted({
            spec.worker for spec in self.joins
            if spec.superstep == superstep and _matches(spec.run, run)
        }))

    def corrupt_guest_at(self, run: int, superstep: int, vertex: int,
                         machine: int) -> bool:
        """Does the guest copy ``vertex -> machine`` silently diverge after
        this superstep's sync?"""
        for spec in self.corruptions:
            if (spec.superstep == superstep and spec.vertex == vertex
                    and _matches(spec.run, run)
                    and (spec.machine is None or spec.machine == machine)):
                return True
        if self.corrupt_prob:
            return (
                self._draw("corrupt", run, superstep, vertex, machine)
                < self.corrupt_prob
            )
        return False
