"""Skew watching and autoscaling for the elastic runtime pool.

Two small, deterministic decision engines sit on top of the voluntary
membership transitions (:mod:`repro.faults.membership`) and the resizable
process pool (:meth:`~repro.runtime.parallel.ParallelRuntime.add_worker` /
:meth:`~repro.runtime.parallel.ParallelRuntime.drain_worker`):

- :class:`LoadBalancer` watches per-worker ``compute_work`` and
  active-vertex counts across a sliding window of superstep barriers and
  reports load *skew* (slowest worker / mean worker) — the signal that a
  hub-heavy partition is dragging the barrier.
- :class:`AutoscalePolicy` turns the window into a scale decision:
  target-utilization with hysteresis (so the pool does not flap around the
  target), a rebalance-cost budget (HRW moves ~1/N of the partitions per
  transition; a policy may refuse a move it cannot afford), and a cooldown
  between consecutive scale actions.

Both read only logical meters (integers) and emit
:class:`Recommendation` values, so every decision is a pure function of
the observed window — deterministic across replays, which is what lets
the serve loop's control decisions be committed to the WAL.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError

#: recommendation actions
HOLD = "hold"
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
REBALANCE = "rebalance"


@dataclass(frozen=True)
class Recommendation:
    """One decision emitted by the balancer or the autoscale policy."""

    action: str
    reason: str
    #: window skew (slowest worker's work / mean worker's work; 1.0 = flat)
    skew: float = 0.0
    #: window utilization against the policy's per-worker capacity
    utilization: float = 0.0
    #: pool-size change the action implies (+1 / -1 / 0)
    workers_delta: int = 0
    #: estimated fraction of partitions an applied transition would move
    estimated_moved_fraction: float = 0.0


class LoadBalancer:
    """Sliding-window observer of per-worker load across barriers.

    Feed it one :meth:`observe` per superstep barrier (``worker_work`` is
    the engines' per-worker compute vector — the ``SuperstepRecord.worker_work``
    vector), or fold a whole run's records at once with
    :meth:`observe_metrics`.  ``skew()`` is the window's
    ``max(worker totals) / mean(worker totals)``: 1.0 means perfectly flat,
    2.0 means the slowest worker carries twice the mean and every barrier
    waits for it.
    """

    def __init__(self, window: int = 16, skew_threshold: float = 2.0):
        if window < 1:
            raise WorkloadError(f"window must be >= 1, got {window}")
        if skew_threshold < 1.0:
            raise WorkloadError(
                f"skew_threshold must be >= 1.0, got {skew_threshold}"
            )
        self.window = window
        self.skew_threshold = skew_threshold
        #: newest-last (active_vertices, tuple(worker_work)) per barrier
        self._barriers: Deque[Tuple[int, Tuple[int, ...]]] = deque(
            maxlen=window
        )
        self.barriers_observed = 0

    # ------------------------------------------------------------------
    def observe(self, worker_work: Sequence[int],
                active_vertices: int) -> None:
        """Fold one barrier's per-worker work into the window."""
        self._barriers.append((active_vertices, tuple(worker_work)))
        self.barriers_observed += 1

    def observe_metrics(self, metrics) -> None:
        """Fold every kept superstep record of a run's metrics."""
        for record in metrics.records:
            if record.worker_work:
                self.observe(record.worker_work, record.active_vertices)

    # ------------------------------------------------------------------
    def worker_totals(self) -> List[int]:
        """Per-worker work summed over the window (ragged vectors padded)."""
        totals: List[int] = []
        for _active, work in self._barriers:
            if len(work) > len(totals):
                totals.extend([0] * (len(work) - len(totals)))
            for w, units in enumerate(work):
                totals[w] += units
        return totals

    def skew(self) -> float:
        """``max / mean`` of the window's per-worker totals (1.0 = flat)."""
        totals = [t for t in self.worker_totals() if t > 0]
        if not totals:
            return 1.0
        mean = sum(totals) / len(totals)
        return max(totals) / mean if mean else 1.0

    def mean_work_per_barrier(self) -> float:
        """Total compute work per barrier, averaged over the window."""
        if not self._barriers:
            return 0.0
        total = sum(sum(work) for _a, work in self._barriers)
        return total / len(self._barriers)

    def mean_active_per_barrier(self) -> float:
        if not self._barriers:
            return 0.0
        return sum(a for a, _w in self._barriers) / len(self._barriers)

    # ------------------------------------------------------------------
    def recommend(self, num_workers: int) -> Recommendation:
        """Skew-only recommendation (the policy layers utilization on top)."""
        skew = self.skew()
        if skew >= self.skew_threshold and num_workers > 1:
            return Recommendation(
                action=REBALANCE,
                reason=(
                    f"window skew {skew:.2f} >= threshold "
                    f"{self.skew_threshold:.2f}"
                ),
                skew=skew,
                estimated_moved_fraction=1.0 / num_workers,
            )
        return Recommendation(
            action=HOLD,
            reason=f"window skew {skew:.2f} below threshold",
            skew=skew,
        )


class AutoscalePolicy:
    """Target-utilization autoscaling with hysteresis and a cost budget.

    Utilization is the window's mean per-barrier compute work divided by
    the pool's modelled capacity (``num_workers * worker_capacity`` work
    units per barrier).  The policy recommends growth above
    ``target + hysteresis``, shrink below ``target - hysteresis``, and
    holds inside the band — and it refuses any transition whose estimated
    movement (HRW moves ~1/N of partitions) exceeds ``rebalance_budget``,
    or that lands inside the ``cooldown`` window of the previous action.
    """

    def __init__(
        self,
        target_utilization: float = 0.7,
        hysteresis: float = 0.15,
        worker_capacity: float = 5000.0,
        rebalance_budget: float = 0.5,
        min_workers: int = 1,
        max_workers: int = 64,
        cooldown: int = 2,
    ):
        if not (0.0 < target_utilization <= 1.0):
            raise WorkloadError(
                f"target_utilization must be in (0, 1], "
                f"got {target_utilization}"
            )
        if hysteresis < 0.0 or hysteresis >= target_utilization:
            raise WorkloadError(
                f"hysteresis must be in [0, target), got {hysteresis}"
            )
        if worker_capacity <= 0:
            raise WorkloadError(
                f"worker_capacity must be positive, got {worker_capacity}"
            )
        if not (0.0 < rebalance_budget <= 1.0):
            raise WorkloadError(
                f"rebalance_budget must be in (0, 1], got {rebalance_budget}"
            )
        if min_workers < 1 or max_workers < min_workers:
            raise WorkloadError(
                f"need 1 <= min_workers <= max_workers, "
                f"got {min_workers}/{max_workers}"
            )
        if cooldown < 0:
            raise WorkloadError(f"cooldown must be >= 0, got {cooldown}")
        self.target_utilization = target_utilization
        self.hysteresis = hysteresis
        self.worker_capacity = worker_capacity
        self.rebalance_budget = rebalance_budget
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cooldown = cooldown
        #: decisions since the last non-hold action (starts expired)
        self._since_action = cooldown
        self.decisions: List[Recommendation] = []

    # ------------------------------------------------------------------
    def utilization(self, balancer: LoadBalancer, num_workers: int) -> float:
        if num_workers < 1:
            return 0.0
        return balancer.mean_work_per_barrier() / (
            num_workers * self.worker_capacity
        )

    def decide(self, balancer: LoadBalancer,
               num_workers: int) -> Recommendation:
        """One scale decision for the current window (records itself)."""
        skew = balancer.skew()
        utilization = self.utilization(balancer, num_workers)
        decision = self._decide(balancer, num_workers, skew, utilization)
        if decision.action == HOLD:
            self._since_action += 1
        else:
            self._since_action = 0
        self.decisions.append(decision)
        return decision

    def _decide(self, balancer: LoadBalancer, num_workers: int,
                skew: float, utilization: float) -> Recommendation:
        high = self.target_utilization + self.hysteresis
        low = self.target_utilization - self.hysteresis
        if self._since_action < self.cooldown:
            return Recommendation(
                action=HOLD,
                reason=(
                    f"cooling down ({self._since_action}/"
                    f"{self.cooldown} windows since last action)"
                ),
                skew=skew, utilization=utilization,
            )
        if utilization > high and num_workers < self.max_workers:
            moved = 1.0 / (num_workers + 1)
            if moved > self.rebalance_budget:
                return Recommendation(
                    action=HOLD,
                    reason=(
                        f"overloaded (u={utilization:.2f}) but the move "
                        f"(~{moved:.0%}) exceeds the rebalance budget "
                        f"({self.rebalance_budget:.0%})"
                    ),
                    skew=skew, utilization=utilization,
                    estimated_moved_fraction=moved,
                )
            return Recommendation(
                action=SCALE_UP,
                reason=(
                    f"utilization {utilization:.2f} above "
                    f"{high:.2f}"
                ),
                skew=skew, utilization=utilization, workers_delta=1,
                estimated_moved_fraction=moved,
            )
        if utilization < low and num_workers > self.min_workers:
            moved = 1.0 / num_workers
            if moved > self.rebalance_budget:
                return Recommendation(
                    action=HOLD,
                    reason=(
                        f"underloaded (u={utilization:.2f}) but the move "
                        f"(~{moved:.0%}) exceeds the rebalance budget "
                        f"({self.rebalance_budget:.0%})"
                    ),
                    skew=skew, utilization=utilization,
                    estimated_moved_fraction=moved,
                )
            return Recommendation(
                action=SCALE_DOWN,
                reason=(
                    f"utilization {utilization:.2f} below "
                    f"{low:.2f}"
                ),
                skew=skew, utilization=utilization, workers_delta=-1,
                estimated_moved_fraction=moved,
            )
        base = balancer.recommend(num_workers)
        if (base.action == REBALANCE
                and base.estimated_moved_fraction <= self.rebalance_budget):
            return Recommendation(
                action=REBALANCE,
                reason=base.reason,
                skew=skew, utilization=utilization,
                estimated_moved_fraction=base.estimated_moved_fraction,
            )
        return Recommendation(
            action=HOLD,
            reason=(
                f"utilization {utilization:.2f} inside the "
                f"[{low:.2f}, {high:.2f}] band"
            ),
            skew=skew, utilization=utilization,
        )


def resolve_autoscale(autoscale) -> Optional[AutoscalePolicy]:
    """Normalize a service's ``autoscale`` argument.

    ``None``/``False`` disables autoscaling, ``True`` builds a default
    policy, and an :class:`AutoscalePolicy` is used as-is.
    """
    if autoscale is None or autoscale is False:
        return None
    if autoscale is True:
        return AutoscalePolicy()
    if isinstance(autoscale, AutoscalePolicy):
        return autoscale
    raise WorkloadError(
        f"autoscale must be None, a bool, or an AutoscalePolicy, "
        f"got {autoscale!r}"
    )
