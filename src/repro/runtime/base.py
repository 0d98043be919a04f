"""Pluggable execution backends for the ScaleG engine.

:class:`~repro.scaleg.engine.ScaleGEngine` drives its per-superstep
*compute sweep* through an :class:`ExecutionBackend` (the message-passing
:class:`~repro.pregel.engine.PregelEngine` baseline runs its own inline
loop):

- :class:`InlineExecutor` — today's behavior and the default: all logical
  workers execute serially in the calling process.  This is the reference
  implementation every other backend must match bit-for-bit.
- :class:`~repro.runtime.parallel.ParallelRuntime` — persistent OS worker
  processes that sweep CSR-kernel programs over a shared-memory frame;
  only per-superstep row indices and typed deltas cross the pipe.

The engine subclasses :class:`BSPEngine`, which resolves the engine
options once and owns the backend.

The contract that makes backends interchangeable: a sweep is a *pure
function* of ``(states as of the last barrier, active set, superstep)``.
Everything order-sensitive — barrier commit, sync charging, activation
filtering, fault processing, recovery — stays in the engine, fed from the
:class:`ScaleGSweep` the backend returns.  The
backend merges per-partition results in partition order (ascending vertex
id within the sweep), so members, ``members_checksum`` and every logical
meter are bit-identical across backends; ``bench-perf --check`` and the
chaos convergence oracle double as the backend-equivalence harness.

Fault injection takes one path on every backend: when a fault plan is
attached, :func:`~repro.faults.recovery.fault_barrier` draws the barrier's
straggler/loss/crash schedule once, before the sweep, in the order the
barrier consumes it, and hands the :class:`BarrierDraws` to the sweep.
The inline backend ignores them; the process runtime ships each worker
process the slice it owns and checks the workers' echo against them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class BarrierDraws:
    """One superstep's barrier fault schedule, drawn before the sweep.

    Drawn once per superstep by :func:`~repro.faults.recovery.fault_barrier`
    on every backend.  The inline backend ignores it; the process runtime
    ships each worker process its slice so the owning process observes
    its own faults.
    """

    #: modelled straggler delay per logical worker (0.0 = on time)
    delays: List[float]
    #: logical workers declared permanently dead at this barrier
    lost: List[int]
    #: logical workers that crash (transient) at this barrier — always
    #: empty when ``lost`` is not: a loss aborts the barrier first
    crashed: List[int]

    def slice_for(self, owned: List[int]) -> Tuple[Any, ...]:
        """The portion of the schedule owned by one worker process."""
        owned_set = set(owned)
        return (
            [(w, d) for w, d in enumerate(self.delays) if d and w in owned_set],
            [w for w in self.lost if w in owned_set],
            [w for w in self.crashed if w in owned_set],
        )

    def echo(self) -> Tuple[Any, ...]:
        """What a faithful set of workers should echo back, merged."""
        return (self.delays, self.lost, self.crashed)


@dataclass
class ScaleGSweep:
    """One ScaleG compute sweep's outcome, merged in partition order."""

    #: vertex -> new state for every vertex whose state changed
    new_states: Dict[int, Any]
    #: changed vertices in ascending id order (the inline sweep order)
    changed: List[int]
    #: unchanged vertices that called ``force_sync`` (ascending)
    forced: List[int]
    #: (source, plain activation targets, predicated targets) per requester
    requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]]
    #: total compute units charged this sweep
    compute_work: int
    #: compute units per logical worker (load-balance record)
    worker_work: List[int]
    #: :class:`~repro.graph.csr.CSRSweepExtras` whenever a CSR kernel ran
    #: the sweep — the engine then routes activations from the typed delta
    #: arrays instead of ``requests`` (which stays empty)
    csr: Any = None


class ExecutionBackend:
    """Interface every execution backend implements.

    Lifecycle: ``bind(engine)`` once per run entry, ``begin_run`` after the
    engine resolved the program, then one ``sweep_scaleg`` call per
    superstep (``draws`` is the barrier fault schedule, or ``None`` when no
    fault plan is attached), ``commit`` after each barrier that commits,
    and ``close`` when the owning engine/maintainer is done.
    """

    #: short name surfaced in CLI/bench output
    kind = "inline"

    def bind(self, engine) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def begin_run(self, program) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        raise NotImplementedError  # pragma: no cover - interface

    def commit(self, new_states: Dict[int, Any]) -> None:
        """A barrier committed ``new_states`` into the master states."""

    def close(self) -> None:
        """Release any resources (worker processes, pipes)."""


class InlineExecutor(ExecutionBackend):
    """Serial in-process execution — the reference backend.

    The sweep body below is the engine's original hot loop, moved
    verbatim; every instruction that touches a meter runs in the same
    order, so this backend *defines* bit-identity.
    """

    kind = "inline"

    def __init__(self) -> None:
        self._engine = None
        self._program = None
        self._ctx = None

    def bind(self, engine) -> None:
        if engine is not self._engine:
            self._engine = engine
            self._ctx = None

    def begin_run(self, program) -> None:
        self._program = program
        self._ctx = None

    # -- ScaleG ---------------------------------------------------------
    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        engine = self._engine
        kernel = getattr(engine, "_csr_kernel", None)
        if kernel is not None:
            # array-native representation: the whole sweep is a few
            # vectorized passes (bit-identical to the loop below)
            return kernel.sweep(engine, active, superstep)
        states = engine._states
        worker_of = engine.dgraph.worker_of
        ctx = self._ctx
        if ctx is None:
            # one context reused across every compute call (programs may
            # not retain it across supersteps — BSP discipline, enforced
            # by lint)
            from repro.scaleg.engine import ScaleGContext

            ctx = self._ctx = ScaleGContext(engine, 0, 0, None)
        compute = self._program.compute
        worker_work = [0] * engine.dgraph.num_workers
        compute_work = 0
        new_states: Dict[int, Any] = {}
        changed: List[int] = []
        forced: List[int] = []
        requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]] = []
        for u in active:
            ctx._reset(u, superstep, states[u])
            compute(ctx)
            work = ctx._work
            compute_work += work
            worker_work[worker_of(u)] += work if work > 1 else 1
            if ctx._changed:
                new_states[u] = ctx._new
                changed.append(u)
            elif ctx._force_sync:
                forced.append(u)
            if ctx._activations or ctx._pred_activations:
                requests.append((u, ctx._activations, ctx._pred_activations))
                ctx._activations = []
                ctx._pred_activations = []
        return ScaleGSweep(
            new_states=new_states,
            changed=changed,
            forced=forced,
            requests=requests,
            compute_work=compute_work,
            worker_work=worker_work,
        )


def resolve_runtime(runtime, procs: Optional[int] = None) -> ExecutionBackend:
    """Resolve the engine constructor's ``runtime=`` argument.

    ``None`` or ``"inline"`` build an :class:`InlineExecutor`; ``"process"``
    builds a :class:`~repro.runtime.parallel.ParallelRuntime` with ``procs``
    worker processes; an :class:`ExecutionBackend` instance passes through
    (the caller owns its lifecycle and may share it across engines).
    """
    if runtime is None or runtime == "inline":
        return InlineExecutor()
    if isinstance(runtime, ExecutionBackend):
        return runtime
    if runtime == "process":
        from repro.runtime.parallel import ParallelRuntime

        return ParallelRuntime(procs=procs)
    raise ValueError(
        f"unknown runtime {runtime!r}: expected 'inline', 'process', or an "
        "ExecutionBackend instance"
    )


class BSPEngine:
    """The core of :class:`~repro.scaleg.engine.ScaleGEngine`.

    Resolves the engine options once, owns the execution backend (wrapped
    in the race sanitizer when one is on), and supplies the protocol-free
    parts of a run: run entry, the run-entry rollback, the barrier commit
    and the convergence check.
    """

    def __init__(self, dgraph, *, faults=None, runtime=None, sanitize=None):
        """``faults``: a :class:`~repro.faults.plan.FaultPlan` or
        :class:`~repro.faults.injector.FaultInjector` enabling seeded fault
        injection + recovery; ``None`` (or an empty plan) leaves the hot
        loop exactly as in the fault-free build.  A
        :class:`~repro.faults.membership.FailoverCoordinator` attaches
        exactly when the plan schedules a permanent loss or a join/drain.
        ``runtime``: execution backend for the compute sweep — ``None`` /
        ``"inline"`` (serial, the default), ``"process"`` (multi-process
        :class:`~repro.runtime.parallel.ParallelRuntime`), or an
        :class:`ExecutionBackend` instance (shared backends stay owned by
        the caller).
        ``sanitize``: ``True`` or a
        :class:`~repro.analysis.parallel.RaceSanitizer` turns on the one
        runtime checker (``None``/``False``: off); the backend is then
        wrapped to record per-worker read/write sets each superstep and
        flag races, and every converged run's reported set is checked for
        independence and maximality."""
        from repro.analysis.parallel.sanitizer import resolve_sanitizer
        from repro.faults.injector import resolve_faults
        from repro.faults.membership import resolve_membership

        self.dgraph = dgraph
        self._faults = resolve_faults(faults)
        self._failover = resolve_membership(self._faults, dgraph)
        self._sanitizer = resolve_sanitizer(sanitize)
        backend = resolve_runtime(runtime)
        if self._sanitizer is not None:
            backend = self._sanitizer.wrap(backend)
        self._runtime = backend

    @property
    def failover(self):
        """The attached failover coordinator (``None`` unless the fault
        plan schedules a loss or a join/drain)."""
        return self._failover

    @property
    def runtime(self) -> ExecutionBackend:
        """The execution backend driving this engine's compute sweeps."""
        return self._runtime

    @property
    def sanitizer(self):
        """The attached race sanitizer (``None`` when sanitizing is off)."""
        return self._sanitizer

    def close(self) -> None:
        """Release the execution backend's resources (worker processes)."""
        self._runtime.close()

    # -- run scaffolding -------------------------------------------------
    def _begin_run(self, program) -> None:
        """Run entry: advance the fault schedule's run index and hand the
        backend this run's program."""
        if self._faults is not None:
            self._faults.begin_run()
        self._runtime.bind(self)
        self._runtime.begin_run(program)

    @contextmanager
    def _rollback_on_error(self, states: Optional[Dict[int, Any]], metrics,
                           part=None) -> Iterator[Dict[int, Any]]:
        """Bracket a run's superstep loop.

        Yields the run's ``dirty`` map (the run-entry value of every state
        a barrier overwrote, filled by :meth:`_commit`).  If the loop
        raises, every dirty entry is restored, so callers resuming from
        ``states`` (dynamic maintenance) never see a partially converged
        run.  ``part``, the CSR mirror the run sweeps on, gets back the
        membership bitmap it held on entry: a run writes only bitmaps it
        made itself (run entry and recovery each load a fresh one), so
        that array is intact.  The race sanitizer's per-run trace opens
        and closes here.
        """
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.begin_engine_run(metrics, self.dgraph.num_workers)
        entry_bitmap = None if part is None else (part.in_,
                                                  part.states_synced)
        dirty: Dict[int, Any] = {}
        try:
            yield dirty
        except BaseException:
            for u, value in sorted(dirty.items()):
                states[u] = value
            if entry_bitmap is not None:
                part.in_, part.states_synced = entry_bitmap
            raise
        finally:
            if sanitizer is not None:
                sanitizer.end_engine_run(metrics)

    def _commit(self, states: Dict[int, Any], new_states: Dict[int, Any],
                dirty: Dict[int, Any]) -> None:
        """Commit one barrier's writes into the master states."""
        for u in new_states:
            if u not in dirty:
                dirty[u] = states[u]
        states.update(new_states)
        self._runtime.commit(new_states)

    def _check_convergence(self, program, states: Dict[int, Any]) -> None:
        """Hand the program's reported set to the sanitizer's
        independence/maximality check, if it reports one and the sanitizer
        is on.  Engines call it inside :meth:`_rollback_on_error`, so a
        strict violation restores the run-entry states."""
        if self._sanitizer is not None:
            members = program.contract_members(states)
            if members is not None:
                self._sanitizer.check_convergence(self.dgraph.graph, members)
