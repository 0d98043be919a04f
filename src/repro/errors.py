"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch everything library-specific with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that does not exist."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex!r} does not exist")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """Raised when deleting or querying an edge that does not exist."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u!r}, {v!r}) does not exist")
        self.edge = (u, v)


class EdgeExistsError(GraphError):
    """Raised when inserting an edge that already exists."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u!r}, {v!r}) already exists")
        self.edge = (u, v)


class SelfLoopError(GraphError):
    """Raised when inserting a self-loop, which independent sets disallow."""

    def __init__(self, u: int):
        super().__init__(f"self-loop ({u!r}, {u!r}) is not allowed")
        self.vertex = u


class EngineError(ReproError):
    """Base class for errors raised by the distributed engines."""


class SuperstepLimitExceeded(EngineError):
    """Raised when a vertex program fails to converge within the limit.

    The engines bound the number of supersteps (default ``O(n)`` plus slack,
    matching the paper's convergence bound) to turn a non-terminating vertex
    program into a loud failure instead of an infinite loop.
    """

    def __init__(self, limit: int):
        super().__init__(f"vertex program did not converge within {limit} supersteps")
        self.limit = limit


class PartitionError(EngineError):
    """Raised when a partitioner produces an invalid worker assignment."""


class ParallelRuntimeError(EngineError):
    """Raised when the multi-process runtime breaks its contract.

    Covers a worker process dying mid-superstep, a fault echo that
    disagrees with the barrier draws, and a sweep with no CSR kernel
    (which the process runtime cannot run) — anything where the parallel
    backend can no longer guarantee bit-identity with the inline run.
    """


class WorkerFailure(EngineError):
    """Raised when a simulated worker fails and recovery cannot proceed.

    The engines *handle* injected crashes internally (rollback to the last
    barrier checkpoint and replay); this exception surfaces only when a
    failure is unrecoverable — e.g. sync retries exhausted — so callers
    (the maintainer, the streaming session) can keep their own state
    consistent and decide whether to retry the whole batch.
    """

    def __init__(self, worker: "int | None", superstep: "int | None", reason: str):
        where = []
        if worker is not None:
            where.append(f"worker {worker}")
        if superstep is not None:
            where.append(f"superstep {superstep}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"worker failure{suffix}: {reason}")
        self.worker = worker
        self.superstep = superstep
        self.reason = reason


class WorkerLoss(WorkerFailure):
    """A worker was declared permanently dead at a barrier.

    Unlike a transient crash (rollback and replay on the same worker set),
    a loss removes the worker from the membership view for good: its
    partition is reassigned to survivors and every lost host vertex is
    restored to its barrier value.  The engines *handle* injected losses
    internally through the
    :class:`~repro.faults.membership.FailoverCoordinator`; this exception
    escalates only when there is no barrier checkpoint to restore from.
    """

    def __init__(self, worker: "int | None", superstep: "int | None", reason: str):
        super().__init__(worker, superstep, reason)
        #: all workers declared dead at this barrier (set by the raiser)
        self.workers = [worker] if worker is not None else []


class SyncRetryExhausted(WorkerFailure):
    """A guest-sync record kept being dropped past the retry budget.

    Transient drops are retried with exponential backoff and charged to the
    ``recovery_*`` meters; a record dropped more than ``max_retries`` times
    is treated as a dead link and escalates to this failure.
    """

    def __init__(self, vertex: int, machine: int, attempts: int,
                 superstep: "int | None" = None):
        super().__init__(
            machine, superstep,
            f"sync record for vertex {vertex} dropped {attempts} times "
            f"(retry budget exhausted)",
        )
        self.vertex = vertex
        self.machine = machine
        self.attempts = attempts


class CheckpointError(ReproError):
    """Raised when a checkpoint file cannot be loaded.

    Always carries the offending path and a human-readable reason so a
    truncated, corrupt, or future-versioned checkpoint fails loudly instead
    of surfacing a bare ``json.JSONDecodeError``/``KeyError``.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"cannot load checkpoint {path}: {reason}")
        self.path = path
        self.reason = reason


class RaceViolation(EngineError):
    """Raised by the runtime race sanitizer when a superstep breaks the
    BSP execution discipline or a converged run breaks the MIS invariant.

    ``check`` names the violated invariant (``"mid-superstep-commit"``,
    ``"write-write-overlap"``, ``"non-owned-write"``, ``"meter-double-merge"``,
    ``"independence"``, ``"maximality"``); ``superstep`` and
    ``vertex``/``worker`` localize it when known.  See
    :mod:`repro.analysis.parallel.sanitizer` for what each check asserts.
    """

    def __init__(
        self,
        check: str,
        detail: str,
        superstep: "int | None" = None,
        vertex: "int | None" = None,
        worker: "int | None" = None,
    ):
        where = []
        if superstep is not None:
            where.append(f"superstep {superstep}")
        if worker is not None:
            where.append(f"worker {worker}")
        if vertex is not None:
            where.append(f"vertex {vertex}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"race sanitizer: {check}{suffix}: {detail}")
        self.check = check
        self.detail = detail
        self.superstep = superstep
        self.vertex = vertex
        self.worker = worker


class WALError(ReproError):
    """Raised when the ingestion write-ahead log cannot be read or written.

    Carries the offending path and a human-readable reason.  A torn tail
    (the record being appended when the process died) is *not* an error —
    recovery truncates it silently; this exception covers real corruption:
    a checksum mismatch in the middle of a sealed segment, a segment with a
    foreign magic header, an unwritable directory.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"write-ahead log {path}: {reason}")
        self.path = path
        self.reason = reason


class RecoveryError(ReproError):
    """Raised when WAL replay cannot reproduce the pre-crash state.

    Replay is deterministic: re-applying a committed window's events to the
    restored checkpoint must yield exactly the cumulative logical meters
    the commit record stored.  A divergence means the log and the
    checkpoint disagree (foreign checkpoint file, hand-edited log, changed
    engine semantics) — recovery refuses to continue on a state it cannot
    vouch for.
    """


class BackpressureError(ReproError):
    """Raised by the ``error`` admission policy when the ingress queue is
    above its high watermark — the producer must back off and retry.

    ``pending`` is the queue depth that triggered the rejection,
    ``high_watermark`` the configured limit.
    """

    def __init__(self, pending: int, high_watermark: int):
        super().__init__(
            f"ingress queue at {pending} pending operation(s), "
            f"high watermark {high_watermark}: submission rejected"
        )
        self.pending = pending
        self.high_watermark = high_watermark


class WorkloadError(ReproError):
    """Raised when an update workload cannot be generated as requested."""


class QueryError(ReproError):
    """Raised by the read path when a query cannot be answered.

    Covers querying an unknown vertex for a neighbourhood or why-not
    certificate, reading from a closed snapshot registry, and asking for
    an epoch that was never published.
    """


class VerificationError(ReproError):
    """Raised when a computed result violates a checked invariant."""


class MemoryBudgetExceeded(ReproError):
    """Raised by serial baselines when their modelled memory exceeds a budget.

    This mirrors the out-of-memory failures of the centralized dynamic
    algorithms in the paper's Table IV without needing billion-edge inputs.
    """

    def __init__(self, needed_mb: float, budget_mb: float):
        super().__init__(
            f"modelled memory {needed_mb:.1f} MB exceeds budget {budget_mb:.1f} MB"
        )
        self.needed_mb = needed_mb
        self.budget_mb = budget_mb
