"""Deterministic fault injection + recovery for the BSP substrate.

The paper's convergence theorems (4.2/6.1) make DOIMIS an unusually crisp
robustness oracle: the maintained set is the *unique* greedy fixpoint of
``≺``, so a run that survives injected faults must converge to a set
**bit-identical** to the fault-free run.  This package supplies:

- :class:`~repro.faults.plan.FaultPlan` — seeded, reproducible schedules of
  worker crashes, dropped/duplicated/reordered guest-sync records,
  straggler delays, permanent worker losses, and planned joins/drains;
- :class:`~repro.faults.injector.FaultInjector` — the runtime the ScaleG
  engine consults at its interception points (sync emission, barrier commit,
  worker sweep), with consumption semantics and a retry policy;
- :mod:`~repro.faults.recovery` — superstep checkpoints and the
  rollback-and-replay cost model (guest-table rebuild from host state);
- :mod:`~repro.faults.membership` — the membership view, rendezvous
  partition reassignment, lost-host reconstruction, and voluntary
  join/drain transitions (a coordinator attaches exactly when the plan
  schedules a loss or a transition);
- :mod:`~repro.faults.chaos` — the chaos harness behind ``repro-mis chaos``
  sweeping fault presets over the Fig. 10/11 workloads and asserting the
  convergence oracle.
"""

from repro.faults.chaos import PLAN_PRESETS, chaos_suite, run_chaos_case
from repro.faults.injector import FaultInjector, FaultStats, resolve_faults
from repro.faults.membership import (
    FailoverCoordinator,
    MembershipView,
    TransitionEvent,
    rendezvous_worker,
    resolve_membership,
)
from repro.faults.plan import (
    CrashSpec,
    DrainSpec,
    FaultPlan,
    JoinSpec,
    LossSpec,
    ReorderSpec,
    StragglerSpec,
    SyncDropSpec,
    SyncDuplicateSpec,
)
from repro.faults.recovery import (
    SuperstepCheckpoint,
    fault_barrier,
    guest_rebuild_cost,
)

__all__ = [
    "CrashSpec",
    "DrainSpec",
    "FailoverCoordinator",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "JoinSpec",
    "LossSpec",
    "MembershipView",
    "PLAN_PRESETS",
    "ReorderSpec",
    "StragglerSpec",
    "SuperstepCheckpoint",
    "SyncDropSpec",
    "TransitionEvent",
    "SyncDuplicateSpec",
    "chaos_suite",
    "fault_barrier",
    "guest_rebuild_cost",
    "rendezvous_worker",
    "resolve_faults",
    "resolve_membership",
    "run_chaos_case",
]
