"""Runtime fault injection (:class:`FaultInjector`).

The injector is the mutable half of the fault layer: it wraps a pure
:class:`~repro.faults.plan.FaultPlan` with

- a **run counter** (the maintainer starts one engine run per batch, and
  superstep numbering restarts every run — schedule coordinates include the
  run index);
- a **fired set**, so a fault consumed at a coordinate never re-fires when
  the recovered superstep is replayed (otherwise a barrier crash would
  crash its own replay, forever);
- **injection statistics** (:class:`FaultStats`) independent of the
  engines' ``recovery_*`` meters, so tests can assert "the plan actually
  fired" separately from "the engine charged the recovery";
- the **retry policy** for transient sync drops: up to ``max_retries``
  resends with exponential backoff (modelled time, charged to
  ``recovery_backoff_s``); more drops than retries escalate to
  :class:`~repro.errors.SyncRetryExhausted`.

One injector may serve many engine runs (an update stream); the ScaleG
engine and the maintainers accept it through their constructors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.faults.plan import FaultPlan


@dataclass
class FaultStats:
    """Counts of faults actually injected (not merely scheduled)."""

    crashes: int = 0
    drops: int = 0
    duplicates: int = 0
    reorders: int = 0
    stragglers: int = 0
    losses: int = 0
    drains: int = 0
    joins: int = 0

    @property
    def total(self) -> int:
        return (self.crashes + self.drops + self.duplicates
                + self.reorders + self.stragglers + self.losses
                + self.drains + self.joins)

    def as_dict(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "stragglers": self.stragglers,
            "losses": self.losses,
            "drains": self.drains,
            "joins": self.joins,
        }


class FaultInjector:
    """Consults a :class:`FaultPlan` at the engines' interception points.

    Parameters
    ----------
    plan:
        The schedule to execute.
    max_retries:
        Resend budget for a dropped sync record; exceeding it raises
        :class:`~repro.errors.SyncRetryExhausted` from the engine.
    backoff_base_s:
        Modelled wait before the first resend; doubles per further attempt.
    """

    def __init__(
        self,
        plan: FaultPlan,
        max_retries: int = 3,
        backoff_base_s: float = 0.01,
    ):
        self.plan = plan
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.stats = FaultStats()
        self._run = -1
        self._fired: Set[Tuple] = set()
        #: workers permanently lost so far (losses outlive replays AND runs:
        #: a dead worker stays dead for the rest of the update stream)
        self._dead: Set[int] = set()
        #: workers voluntarily drained so far — like ``_dead``, a drained
        #: worker is never drawn for crash/straggler/loss faults (it has no
        #: sweep to slow down and no partition left to lose)
        self._drained: Set[int] = set()
        #: a loss never reduces the cluster below this many survivors (the
        #: last worker standing is unkillable — there would be nobody left
        #: to reconstruct onto)
        self.min_survivors = 1

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the plan can fire at all (engines skip all interception
        work for an inactive injector)."""
        return not self.plan.is_empty

    @property
    def run_index(self) -> int:
        """Index of the engine run currently being served (-1 before any)."""
        return self._run

    def begin_run(self) -> None:
        """Called by an engine at the top of :meth:`run`."""
        self._run += 1

    def _once(self, key: Tuple) -> bool:
        """True the first time ``key`` is seen; False on replay."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    # ------------------------------------------------------------------
    # interception points
    # ------------------------------------------------------------------
    @property
    def dead_workers(self) -> Set[int]:
        """Workers permanently lost so far (a copy)."""
        return set(self._dead)

    @property
    def drained_workers(self) -> Set[int]:
        """Workers voluntarily drained so far (a copy)."""
        return set(self._drained)

    def mark_drained(self, worker: int) -> None:
        """Record a voluntary drain: ``worker`` is excluded from every
        subsequent crash/straggler/loss draw, exactly like ``_dead``."""
        self._drained.add(worker)

    def mark_joined(self, worker: int) -> None:
        """Record a voluntary join: a previously drained worker becomes
        drawable again (a fresh worker id is a no-op)."""
        self._drained.discard(worker)

    def membership_transitions(
        self, superstep: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(drains, joins)`` scheduled at this superstep's barrier.

        Each transition fires once per ``(run, superstep, worker)``
        coordinate — a crash rollback replaying the barrier never applies
        the same transition twice.  A scheduled drain of an already-dead or
        already-drained worker is a no-op; so is a join of a current member.
        """
        drains = tuple(
            w for w in self.plan.drained_at(self._run, superstep)
            if w not in self._dead and w not in self._drained
            and self._once(("drain", self._run, superstep, w))
        )
        joins = tuple(
            w for w in self.plan.joined_at(self._run, superstep)
            if w not in self._dead
            and self._once(("join", self._run, superstep, w))
        )
        self.stats.drains += len(drains)
        self.stats.joins += len(joins)
        return drains, joins

    def crashed_workers(self, superstep: int, workers: Sequence[int]) -> List[int]:
        """Workers crashing at this superstep's barrier (each fires once).

        Dead and drained workers cannot crash — they are gone, not slow.
        """
        crashed = [
            w for w in workers
            if w not in self._dead and w not in self._drained
            and self.plan.crash_at(self._run, superstep, w)
            and self._once(("crash", self._run, superstep, w))
        ]
        self.stats.crashes += len(crashed)
        return crashed

    def lost_workers(self, superstep: int, workers: Sequence[int]) -> List[int]:
        """Workers permanently lost at this superstep's barrier.

        Each loss fires once and is remembered forever (:attr:`dead_workers`
        persists across replays and runs).  The schedule is clamped so at
        least :attr:`min_survivors` workers always remain alive — killing
        the last survivor would leave nobody to reconstruct onto, which no
        real deployment survives either.
        """
        alive = [
            w for w in workers
            if w not in self._dead and w not in self._drained
        ]
        lost: List[int] = []
        for w in alive:
            if len(alive) - len(lost) <= self.min_survivors:
                break
            if (self.plan.lost_at(self._run, superstep, w)
                    and self._once(("loss", self._run, superstep, w))):
                lost.append(w)
        self._dead.update(lost)
        self.stats.losses += len(lost)
        return lost

    def sync_drops(self, superstep: int, vertex: int, machine: int) -> int:
        """Failed attempts for this sync record (0 = delivered first try)."""
        drops = self.plan.sync_drops(self._run, superstep, vertex, machine)
        if drops and self._once(("drop", self._run, superstep, vertex, machine)):
            self.stats.drops += 1
            return drops
        return 0

    def sync_duplicates(self, superstep: int, vertex: int, machine: int) -> int:
        """Redundant copies of this sync record shipped by the network."""
        copies = self.plan.sync_duplicates(self._run, superstep, vertex, machine)
        if copies and self._once(("dup", self._run, superstep, vertex, machine)):
            self.stats.duplicates += 1
            return copies
        return 0

    def straggler_delay(self, superstep: int, worker: int) -> float:
        """Modelled extra seconds worker ``worker`` takes this sweep.

        Dead and drained workers do not straggle (there is no sweep to
        slow down).
        """
        if worker in self._dead or worker in self._drained:
            return 0.0
        delay = self.plan.straggler_delay(self._run, superstep, worker)
        if delay and self._once(("straggle", self._run, superstep, worker)):
            self.stats.stragglers += 1
            return delay
        return 0.0

    def permute(self, superstep: int, items: List) -> List:
        """The superstep's sync/delivery order, adversarially permuted when
        the plan schedules a reorder (seeded — reproducible), else as-is."""
        if len(items) < 2 or not self.plan.reorder_at(self._run, superstep):
            return items
        if not self._once(("reorder", self._run, superstep)):
            return items
        self.stats.reorders += 1
        shuffled = list(items)
        random.Random(self.plan.reorder_seed(self._run, superstep)).shuffle(shuffled)
        return shuffled

    def backoff_time(self, attempts: int) -> float:
        """Modelled backoff spent on ``attempts`` failed sends
        (``base * (2^attempts - 1)`` — the exponential series)."""
        return self.backoff_base_s * ((1 << attempts) - 1)


def resolve_faults(
    faults: Union[None, FaultPlan, FaultInjector],
) -> Optional[FaultInjector]:
    """Normalize an engine's ``faults`` argument.

    ``None`` disables injection, a :class:`FaultPlan` gets a fresh injector
    with default retry policy, a :class:`FaultInjector` is used as-is (and
    may be shared across runs/engines).  An injector whose plan is empty
    resolves to ``None`` so the engines skip every interception point —
    with an empty plan the hot loop is byte-for-byte the fault-free one.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        faults = FaultInjector(faults)
    return faults if faults.active else None
