"""Superstep checkpoints and recovery costing.

ScaleG recovery follows the classic BSP rollback protocol:

1. at the top of every superstep (while an injector is active) the engine
   captures a :class:`SuperstepCheckpoint` — vertex states and the pending
   activation set;
2. :func:`fault_barrier` wraps every sweep: it draws the barrier's fault
   schedule once, before the sweep, on every backend; a crash detected at
   the barrier aborts the attempt *before* any buffered write commits,
   raises-and-handles a typed
   :class:`~repro.errors.WorkerFailure` internally, restores the checkpoint
   (defensive: even a program that broke double-buffer discipline mid-sweep
   is rolled back), rebuilds the crashed workers' guest tables from host
   state, and replays the superstep;
3. everything the recovery cost — the aborted sweep's compute, the guest
   rebuild bytes — lands on the ``recovery_*`` meters, never the logical
   ones, so a recovered run's logical meters are bit-identical to the
   fault-free run's (the chaos oracle).
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import WorkerFailure, WorkerLoss
from repro.pregel.metrics import MESSAGE_OVERHEAD_BYTES, VERTEX_ID_BYTES
from repro.runtime.base import BarrierDraws

#: state types whose snapshot can be the value itself
_IMMUTABLE_TYPES = (bool, int, float, str, bytes, frozenset, type(None), Enum)


def _snapshot(state: Any) -> Any:
    """Value snapshot of one state (deep-copies mutable states)."""
    if isinstance(state, _IMMUTABLE_TYPES):
        return state
    if isinstance(state, tuple):
        return state if all(isinstance(x, _IMMUTABLE_TYPES) for x in state) else copy.deepcopy(state)
    return copy.deepcopy(state)


def _snapshot_states(states: Dict[int, Any]) -> Dict[int, Any]:
    """Value snapshot of a state map (deep-copies mutable states)."""
    return {u: _snapshot(s) for u, s in states.items()}


@dataclass
class SuperstepCheckpoint:
    """Everything needed to replay one superstep after a barrier crash."""

    superstep: int
    #: vertex states as of the *previous* barrier
    states: Dict[int, Any]
    #: pending activations — the vertices due to run this superstep
    active: List[int]

    @classmethod
    def capture(cls, superstep: int, states: Dict[int, Any],
                active: List[int]) -> "SuperstepCheckpoint":
        """Snapshot the barrier state.  The guest directory is not part of
        it: a crash aborts the superstep before any graph change, and
        recovery re-prices lost guest copies from the live directory."""
        return cls(
            superstep=superstep,
            states=_snapshot_states(states),
            active=list(active),
        )

    def restore(self, states: Dict[int, Any]) -> List[int]:
        """Reset ``states`` (in place) to the checkpoint; returns the pending
        activation set to replay."""
        states.clear()
        states.update(_snapshot_states(self.states))
        return list(self.active)


def guest_rebuild_cost(dgraph, crashed_workers, sync_bytes_of,
                       states: Dict[int, Any]):
    """Cost of reconstructing guest copies lost with ``crashed_workers``.

    A crashed worker loses every guest copy it hosted; each is rebuilt by
    shipping the owning vertex's current state from its host machine — one
    record per lost copy, priced like a normal sync record.  The guest
    directory (kept in lock-step with the graph) makes enumerating the lost
    copies cheap.  Returns ``(bytes, records)``.
    """
    crashed = set(crashed_workers)
    bytes_total = 0
    records = 0
    for worker in sorted(crashed):
        for u in dgraph.guest_vertices_on(worker):
            state = states.get(u)
            payload = VERTEX_ID_BYTES + (
                sync_bytes_of(state) if state is not None else 8
            )
            bytes_total += MESSAGE_OVERHEAD_BYTES + payload
            records += 1
    return bytes_total, records


@contextmanager
def fault_barrier(injector, superstep: int, num_workers: int,
                  metrics) -> Iterator[Optional[BarrierDraws]]:
    """One superstep's barrier fault step, the same on every backend.
    Wraps the ScaleG compute sweep.

    On entry it draws the schedule once, in the order the barrier consumes
    it: straggler delays per worker, then losses, then crashes — crashes
    only when no loss fired, because a loss aborts the barrier before
    crash detection runs (a crash scheduled at the same barrier fires on
    the replay).  The draws are yielded for the backend to ship.

    When the sweep returns, each delay is merged in worker order (so the
    float meters are bit-identical across backends; slow is never dead),
    and a loss or crash raises :class:`~repro.errors.WorkerLoss` /
    :class:`~repro.errors.WorkerFailure` for the engine's own recovery.
    Without an injector it yields ``None`` and does nothing.
    """
    if injector is None:
        yield None
        return
    workers = range(num_workers)
    delays = [injector.straggler_delay(superstep, w) for w in workers]
    lost = injector.lost_workers(superstep, workers)
    crashed = [] if lost else injector.crashed_workers(superstep, workers)
    yield BarrierDraws(delays=delays, lost=lost, crashed=crashed)
    for delay in delays:
        if delay:
            metrics.merge_delta({
                "recovery_straggler_s": delay,
                "wall_time_s": delay,
            })
    if lost:
        loss = WorkerLoss(
            lost[0], superstep,
            f"{len(lost)} worker(s) declared permanently dead at the barrier",
        )
        loss.workers = lost
        raise loss
    if crashed:
        failure = WorkerFailure(
            crashed[0], superstep,
            f"{len(crashed)} worker(s) crashed at the barrier",
        )
        failure.workers = crashed
        raise failure
