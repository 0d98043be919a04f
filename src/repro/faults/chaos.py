"""Chaos harness: sweep seeded fault schedules, assert the convergence oracle.

Theorems 4.2/6.1 make DOIMIS self-checking under failure: the maintained set
is the *unique* greedy fixpoint of ``≺``, so whatever faults the engines
survive, the final set must be **bit-identical** to the fault-free run — and
because recovery detects crashes at the barrier *before* anything commits,
every logical meter must match too.  Each chaos case therefore asserts:

1. the faulted final set equals the fault-free reference set, member for
   member;
2. the set is a valid MIS fixpoint (independence + maximality + the greedy
   order, via :func:`~repro.core.verification.assert_valid_mis`);
3. all logical meters (the ``bench-perf`` ``LOGICAL_FIELDS`` plus
   ``compute_work``) are bit-identical to the reference — recovery overhead
   may only appear under the ``recovery_*`` meter family;
4. for the ``none`` preset additionally: zero faults injected, zero
   recovery events (the empty plan is byte-for-byte the fault-free build).

Workloads are scaled-down Fig. 10/11 protocols (delete ``k`` random edges,
re-insert them; single-update and batched) on the small stand-in datasets.
The same members + meters comparison (:class:`Observables`) backs
:func:`rebalance_case` (scripted joins/drains vs static membership) and
the serve crash/drain oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.errors import ReproError, WorkloadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import DrainSpec, FaultPlan, JoinSpec, LossSpec
from repro.pregel.metrics import family_sum

#: fault-plan presets swept by ``repro-mis chaos`` — kwargs for
#: :class:`FaultPlan` (the seed is supplied per case).  Probabilities are
#: per-opportunity; the smoke-scale workloads run thousands of them, so
#: every preset fires many times per case.
PLAN_PRESETS: Dict[str, Dict[str, Any]] = {
    "none": {},
    "crash": {"crash_prob": 0.02},
    "drop": {"drop_prob": 0.01},
    "duplicate": {"duplicate_prob": 0.02},
    "straggler": {"straggler_prob": 0.05, "straggler_delay_s": 0.01},
    # permute every superstep that syncs >= 2 records — reorder is an
    # order-independence probe, so the adversarial schedule is "always"
    "reorder": {"reorder_prob": 1.0},
    "composed": {
        "crash_prob": 0.01,
        "drop_prob": 0.005,
        "duplicate_prob": 0.01,
        "straggler_prob": 0.02,
        "straggler_delay_s": 0.01,
        "reorder_prob": 0.1,
    },
    # a worker dies for good: it is declared dead at the barrier, its
    # partition rendezvous-reassigns to survivors, and every lost host
    # vertex is restored to its barrier value
    "worker-loss": {"loss_prob": 0.002},
    # many workers die across the stream (the injector never kills the last
    # survivor) — rendezvous reassignment must compose across deaths, and
    # reconstruction must survive a host dying together with its replicas
    "cascading-loss": {"loss_prob": 0.008},
    # losses pinned to mid-stream maintenance runs: failover interleaves
    # with the update protocol, not just the initial static computation
    "loss-under-stream": {
        "losses": (
            LossSpec(superstep=0, worker=2, run=3),
            LossSpec(superstep=0, worker=7, run=6),
        ),
    },
    # voluntary elasticity: workers drain mid-stream at a barrier, their
    # partitions migrating to survivors *before* they leave — all movement
    # cost must land on the rebalance_* family, never on recovery_*
    "drain-under-stream": {
        "drains": (
            DrainSpec(superstep=0, worker=3, run=4),
            DrainSpec(superstep=0, worker=6, run=8),
        ),
    },
    # a join and a drain in one stream: the pool grows by a new worker,
    # then shrinks — placement is re-rendezvoused at each epoch and the
    # fixpoint must stay bit-identical to the static-membership run
    "elastic": {
        "joins": (JoinSpec(superstep=0, worker=10, run=2),),
        "drains": (DrainSpec(superstep=0, worker=4, run=5),),
    },
    # the ISSUE's race: a voluntary drain with crashes firing around it —
    # the drained worker must never be drawn for a crash, and both the
    # drain's rebalance and the crashes' recovery must converge
    "drain-crash-race": {
        "drains": (DrainSpec(superstep=0, worker=2, run=3),),
        "crash_prob": 0.02,
    },
}


@dataclass(frozen=True)
class ChaosWorkload:
    """One Fig. 10/11-shaped maintenance workload at chaos-smoke scale."""

    tag: str  # stand-in dataset tag
    k: int  # delete k random edges, re-insert them (2k ops)
    batch_size: int
    workload_seed: int = 0
    workers: int = 10

    @property
    def name(self) -> str:
        fig = "fig10_single" if self.batch_size == 1 else "fig11_batch"
        return f"{fig}_{self.tag}"


#: default sweep — one single-update stream and one batched stream, on the
#: two smallest stand-ins (chaos replays every workload once per preset per
#: seed, so smoke scale matters)
CHAOS_WORKLOADS: Tuple[ChaosWorkload, ...] = (
    ChaosWorkload(tag="AM", k=25, batch_size=1, workload_seed=5),
    ChaosWorkload(tag="SL", k=40, batch_size=10, workload_seed=9),
)

def plan_for(preset: str, seed: int) -> FaultPlan:
    """The :class:`FaultPlan` for a named preset at ``seed``."""
    try:
        kwargs = PLAN_PRESETS[preset]
    except KeyError:
        raise WorkloadError(
            f"unknown chaos preset {preset!r}; "
            f"known: {', '.join(PLAN_PRESETS)}"
        ) from None
    return FaultPlan(seed=seed, **kwargs)


@dataclass
class Observables:
    """What Theorems 4.2/6.1 pin across runs: the final members and the
    logical meters (update run, plus the initial static run's when
    recorded)."""

    members: List[int]
    logical: Dict[str, int]
    #: logical meters of the initial static computation (faults fire there
    #: too — run 0 of the injector's schedule)
    init_logical: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, maintainer) -> "Observables":
        return cls(
            members=sorted(maintainer.independent_set()),
            logical=maintainer.update_metrics.logical(),
            init_logical=maintainer.init_metrics.logical(),
        )

    @classmethod
    def of_service(cls, service) -> "Observables":
        """A serve run: members + cumulative committed-window meters."""
        return cls(
            members=sorted(service.maintainer.independent_set()),
            logical=service.logical_totals(),
        )

    def diff(self, run: "Observables", label: str,
             ref_label: str = "reference") -> List[str]:
        """Bit-identity failures of ``run`` against these observables."""
        failures: List[str] = []
        if run.members != self.members:
            failures.append(
                f"members diverged: |{label}|={len(run.members)} "
                f"|{ref_label}|={len(self.members)}"
            )
        for kind, ours, theirs in (
            ("logical", run.logical, self.logical),
            ("init logical", run.init_logical, self.init_logical),
        ):
            for name in theirs:
                if ours[name] != theirs[name]:
                    failures.append(
                        f"{kind} meter {name} drifted: {label}={ours[name]} "
                        f"{ref_label}={theirs[name]}"
                    )
        return failures


@dataclass
class ChaosCaseResult:
    """Outcome of one (workload, preset, seed) chaos case."""

    workload: str
    preset: str
    seed: int
    injected: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, float] = field(default_factory=dict)
    rebalance: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "preset": self.preset,
            "seed": self.seed,
            "ok": self.ok,
            "injected": dict(self.injected),
            "recovery": dict(self.recovery),
            "rebalance": dict(self.rebalance),
            "failures": list(self.failures),
        }


def _run_maintenance(
    workload: ChaosWorkload, faults=None, runtime=None, sanitize=None,
) -> DOIMISMaintainer:
    from repro.bench.workloads import delete_reinsert_workload
    from repro.graph.datasets import load_dataset

    graph = load_dataset(workload.tag)
    ops = delete_reinsert_workload(
        graph, workload.k, seed=workload.workload_seed
    )
    maintainer = DOIMISMaintainer(
        graph,
        num_workers=workload.workers,
        strategy=ActivationStrategy.SAME_STATUS,
        faults=faults,
        runtime=runtime,
        sanitize=sanitize,
    )
    try:
        maintainer.apply_stream(ops, batch_size=workload.batch_size)
    finally:
        if runtime is not None:
            maintainer.close()
    return maintainer


def reference_run(workload: ChaosWorkload) -> Observables:
    """The fault-free observables every chaos case compares against."""
    return Observables.of(_run_maintenance(workload))


def _summed(maintainer, prefix: str) -> Dict[str, float]:
    """A quarantined meter family summed over the initial static run and
    the updates."""
    return family_sum(
        prefix, maintainer.init_metrics, maintainer.update_metrics
    )


def _transition_failures(
    injected: Dict[str, int], rebalance: Dict[str, float]
) -> List[str]:
    """A plan that schedules joins/drains must apply one and charge the
    movement to the ``rebalance_*`` meters."""
    failures: List[str] = []
    if not injected.get("drains", 0) + injected.get("joins", 0):
        failures.append(
            "plan schedules membership transitions but none applied"
        )
    if not rebalance.get("rebalance_moved_vertices"):
        failures.append(
            "no membership movement was charged to the rebalance meters"
        )
    return failures


def run_chaos_case(
    workload: ChaosWorkload,
    preset: str,
    seed: int,
    reference: Optional[Observables] = None,
) -> ChaosCaseResult:
    """Replay ``workload`` under ``preset``'s seeded plan; check the oracle.

    ``reference`` lets a sweep reuse one fault-free run per workload; when
    omitted it is computed here.  Never raises for an oracle violation —
    failures are reported on the result so a sweep surveys the whole grid.
    """
    if reference is None:
        reference = reference_run(workload)
    result = ChaosCaseResult(workload=workload.name, preset=preset, seed=seed)
    plan = plan_for(preset, seed)
    injector = FaultInjector(plan)

    try:
        maintainer = _run_maintenance(workload, faults=injector)
    except ReproError as exc:
        # SyncRetryExhausted (drops beyond the retry budget) is the one
        # *designed* escalation; anything else is an oracle failure outright
        result.injected = injector.stats.as_dict()
        result.failures.append(f"run raised {type(exc).__name__}: {exc}")
        return result

    result.injected = injector.stats.as_dict()
    # faults fire during the initial static run too — its charges live on
    # init_metrics, so report both meters combined
    result.recovery = _summed(maintainer, "recovery_")
    result.rebalance = _summed(maintainer, "rebalance_")

    result.failures.extend(reference.diff(Observables.of(maintainer), "faulted"))
    try:
        maintainer.verify()
    except ReproError as exc:
        result.failures.append(f"fixpoint verification failed: {exc}")

    if plan.is_empty:
        if result.injected_total:
            result.failures.append(
                f"empty plan injected {result.injected_total} fault(s)"
            )
        for family in ("recovery", "rebalance"):
            charged = getattr(result, family)
            if sum(charged.values()):
                result.failures.append(
                    f"empty plan charged {family} meters: {charged}"
                )
    if plan.schedules_transitions:
        result.failures.extend(
            _transition_failures(result.injected, result.rebalance)
        )
    return result


@dataclass
class RebalanceResult:
    """Outcome of one scripted join/drain run against static membership."""

    #: the elastic run's maintainer (its execution backend already closed)
    elastic: Any
    #: one dict per applied membership transition, in barrier order
    transitions: List[Dict[str, Any]] = field(default_factory=list)
    rebalance: Dict[str, float] = field(default_factory=dict)
    #: max/mean residents per worker under the final placement
    skew: float = 1.0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def epoch(self) -> int:
        failover = self.elastic.failover
        return failover.epoch if failover is not None else 0

    @property
    def members(self) -> List[int]:
        failover = self.elastic.failover
        return failover.view.members() if failover is not None else []


def rebalance_case(
    workload: ChaosWorkload,
    joins: Sequence[Tuple[int, int]] = (),
    drains: Sequence[Tuple[int, int]] = (),
    runtime_factory=None,
) -> RebalanceResult:
    """Scripted voluntary joins/drains vs the static-membership run.

    ``joins``/``drains`` are ``(worker, run)`` pairs firing at the barrier
    of update run ``run``.  Theorems 4.2/6.1 make the comparison exact:
    members and every logical meter must be bit-identical to the static
    run, with a transition applied and its movement charged to the
    ``rebalance_*`` family.  ``runtime_factory`` builds a fresh execution
    backend for each of the two runs.  Never raises for an oracle
    violation — failures are reported on the result.
    """
    if not joins and not drains:
        raise WorkloadError(
            "rebalance needs at least one join or drain (worker, run)"
        )
    plan = FaultPlan(
        seed=0,
        joins=tuple(JoinSpec(superstep=0, worker=w, run=r) for w, r in joins),
        drains=tuple(DrainSpec(superstep=0, worker=w, run=r)
                     for w, r in drains),
    )

    def runtime():
        return runtime_factory() if runtime_factory else None

    static = _run_maintenance(workload, runtime=runtime())
    injector = FaultInjector(plan)
    elastic = _run_maintenance(workload, faults=injector, runtime=runtime())
    result = RebalanceResult(
        elastic=elastic, rebalance=_summed(elastic, "rebalance_")
    )
    result.failures = Observables.of(static).diff(
        Observables.of(elastic), "elastic", "static"
    ) + _transition_failures(injector.stats.as_dict(), result.rebalance)
    failover = elastic.failover
    if failover is not None:
        result.transitions = [
            {"superstep": e.superstep, "joined": list(e.joined),
             "drained": list(e.drained), "moved": e.moved,
             "epoch": e.epoch, "stall_s": e.stall_s}
            for e in failover.transitions
        ]
        counts = dict.fromkeys(result.members, 0)
        for u in sorted(elastic.graph.vertices()):
            w = failover.worker_of(u)
            counts[w] = counts.get(w, 0) + 1
        mean = sum(counts.values()) / len(counts) if counts else 0.0
        result.skew = max(counts.values()) / mean if mean else 1.0
    return result


@dataclass
class ServeChaosResult:
    """Outcome of one serve crash/replay chaos case.

    The oracle: a service killed mid-window (``abandon`` — no drain, no
    final commit, no closing checkpoint) and recovered from its WAL must
    finish the trace with the *same members and the same cumulative
    logical meters* as a service that never crashed.  ``audit`` must also
    certify exactly-once accounting on both log directories.
    """

    tag: str
    seed: int
    num_ops: int
    crashed_after: int = 0
    replayed_windows: int = 0
    replayed_events: int = 0
    quarantined: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tag": self.tag,
            "seed": self.seed,
            "num_ops": self.num_ops,
            "ok": self.ok,
            "crashed_after": self.crashed_after,
            "replayed_windows": self.replayed_windows,
            "replayed_events": self.replayed_events,
            "quarantined": self.quarantined,
            "failures": list(self.failures),
        }


#: events per window in the serve oracles.  The drain preset schedules
#: its drains by engine run, so a 120-event trace must span enough windows
#: to reach them (at 64 events none fires)
_SERVE_WINDOW = 16


def serve_crash_replay(
    tag: str = "AM",
    num_ops: int = 240,
    seed: int = 7,
    poison_prob: float = 0.0,
    crash_commits: int = 4,
    runtime_factory=None,
    faults_factory=None,
    wal_root: Optional[str] = None,
) -> ServeChaosResult:
    """Kill an ingestion service mid-window, recover it, assert bit-identity.

    Runs the same seeded bursty trace twice: once uninterrupted, once
    crashed (``abandon``) after ``crash_commits`` committed windows with
    events still pending, then recovered via WAL replay and finished.
    ``runtime_factory`` builds a fresh execution runtime per maintainer
    (the crashed one's pool dies with it); ``faults_factory`` builds a
    fresh :class:`~repro.faults.injector.FaultInjector` per run so
    injected transient faults compose with the retry path.
    """
    import shutil
    import tempfile

    from repro.core.maintainer import MISMaintainer
    from repro.graph.datasets import load_dataset
    from repro.serve import (
        IngestionService,
        RetryPolicy,
        TraceConfig,
        audit_log,
        bursty_trace,
        drive,
    )

    result = ServeChaosResult(tag=tag, seed=seed, num_ops=num_ops)
    ops, timestamps = bursty_trace(
        load_dataset(tag),
        TraceConfig(num_ops=num_ops, seed=seed, poison_prob=poison_prob),
    )

    def make_maintainer():
        return MISMaintainer(
            load_dataset(tag),
            num_workers=10,
            strategy=ActivationStrategy.SAME_STATUS,
            runtime=runtime_factory() if runtime_factory else None,
            faults=faults_factory() if faults_factory else None,
        )

    retry = RetryPolicy(max_retries=2, backoff_base_s=0.2)
    root = wal_root or tempfile.mkdtemp(prefix="serve-chaos-")
    dir_ref = f"{root}/reference"
    dir_crash = f"{root}/crashed"
    try:
        with IngestionService(
            make_maintainer(), dir_ref, window_size=_SERVE_WINDOW,
            retry=retry, checkpoint_every=3,
        ) as reference:
            drive(reference, ops, timestamps)

        crashed = IngestionService(
            make_maintainer(), dir_crash, window_size=_SERVE_WINDOW,
            retry=retry, checkpoint_every=3,
        )
        cut = 0
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            crashed.submit(op, ts)
            if crashed.windows_committed >= crash_commits and crashed.pending >= 2:
                cut = i + 1
                break
        if not cut or cut >= len(ops):
            result.failures.append(
                f"trace too short to crash mid-window (cut={cut})"
            )
            crashed.abandon()
            return result
        crashed.abandon()  # the "kill": no drain, no commit, no checkpoint
        result.crashed_after = cut

        with IngestionService.recover(
            dir_crash,
            maintainer_kwargs={
                "runtime": runtime_factory() if runtime_factory else None,
                "faults": faults_factory() if faults_factory else None,
            },
            window_size=_SERVE_WINDOW, retry=retry, checkpoint_every=3,
        ) as recovered:
            result.replayed_windows = recovered.stats.replayed_windows
            result.replayed_events = recovered.stats.replayed_events
            drive(recovered, ops[cut:], timestamps[cut:])
        result.quarantined = recovered.stats.quarantined

        result.failures.extend(Observables.of_service(reference).diff(
            Observables.of_service(recovered), "recovered"
        ))
        for label, directory in (("reference", dir_ref),
                                 ("crashed", dir_crash)):
            problems, summary = audit_log(directory)
            result.failures.extend(
                f"{label} log audit: {p}" for p in problems
            )
            expected = summary["applied"] + summary["quarantined"]
            if summary["events"] != expected or summary["pending"]:
                result.failures.append(
                    f"{label} log lost events: {summary}"
                )
    finally:
        if wal_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return result


def serve_drain_replay(
    tag: str = "AM",
    num_ops: int = 160,
    seed: int = 7,
    preset: str = "drain-under-stream",
    runtime_factory=None,
    wal_root: Optional[str] = None,
) -> ServeChaosResult:
    """Drain worker(s) mid-window of a bursty serve trace; assert the oracle.

    Runs the same seeded trace twice: once with static membership, once
    with ``preset``'s scheduled drains/joins firing at mid-stream barriers.
    Theorem 4.2/6.1 makes the comparison exact: members and every
    cumulative logical meter must be bit-identical to the
    static-membership run, with all transition costs confined to the
    ``rebalance_*`` family.
    """
    import shutil
    import tempfile

    from repro.core.maintainer import MISMaintainer
    from repro.graph.datasets import load_dataset
    from repro.serve import (
        IngestionService,
        TraceConfig,
        audit_log,
        bursty_trace,
        drive,
    )

    result = ServeChaosResult(tag=tag, seed=seed, num_ops=num_ops)
    ops, timestamps = bursty_trace(
        load_dataset(tag),
        TraceConfig(num_ops=num_ops, seed=seed),
    )
    injector = FaultInjector(plan_for(preset, seed))
    root = wal_root or tempfile.mkdtemp(prefix="serve-drain-")
    try:
        runs = {}
        for label, faults in (("static", None), ("elastic", injector)):
            with IngestionService(
                MISMaintainer(
                    load_dataset(tag),
                    num_workers=10,
                    strategy=ActivationStrategy.SAME_STATUS,
                    runtime=runtime_factory() if runtime_factory else None,
                    faults=faults,
                ),
                f"{root}/{label}",
                window_size=_SERVE_WINDOW, checkpoint_every=3,
            ) as service:
                drive(service, ops, timestamps)
            runs[label] = service
        static, elastic = runs["static"], runs["elastic"]

        result.failures.extend(Observables.of_service(static).diff(
            Observables.of_service(elastic), "elastic", "static"
        ))
        result.failures.extend(_transition_failures(
            injector.stats.as_dict(),
            elastic.maintainer.update_metrics.family("rebalance_"),
        ))
        failover = elastic.maintainer.failover
        if failover is not None and failover.epoch < 1:
            result.failures.append("membership epoch never advanced")
        for label in ("static", "elastic"):
            problems, _summary = audit_log(f"{root}/{label}")
            result.failures.extend(
                f"{label} log audit: {p}" for p in problems
            )
    finally:
        if wal_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return result


def chaos_suite(
    presets: Sequence[str] = (),
    seeds: Iterable[int] = (0,),
    workloads: Sequence[ChaosWorkload] = CHAOS_WORKLOADS,
) -> List[ChaosCaseResult]:
    """Sweep ``presets x seeds`` over ``workloads`` (reference once each).

    Defaults to every preset in :data:`PLAN_PRESETS`.  Returns one
    :class:`ChaosCaseResult` per case; callers decide whether any failure is
    fatal (``repro-mis chaos`` exits non-zero).
    """
    selected = list(presets) or list(PLAN_PRESETS)
    for preset in selected:
        if preset not in PLAN_PRESETS:
            raise WorkloadError(
                f"unknown chaos preset {preset!r}; "
                f"known: {', '.join(PLAN_PRESETS)}"
            )
    results: List[ChaosCaseResult] = []
    for workload in workloads:
        reference = reference_run(workload)
        for preset in selected:
            for seed in seeds:
                results.append(
                    run_chaos_case(workload, preset, seed, reference=reference)
                )
    return results
