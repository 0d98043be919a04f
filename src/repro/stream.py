"""Streaming session layer: continuous maintenance over an event stream.

The paper's maintainer consumes explicit batches; real deployments see an
*event stream* (edges appearing/disappearing with timestamps) and must
decide when to cut batches.  :class:`StreamingSession` wraps any maintainer
with the ``apply_batch`` interface and provides:

- **windowing** — events buffer until ``window_size`` operations or, when a
  ``window_interval`` is set, until an event's timestamp crosses the
  current window's end (count- and time-based triggers compose);
- **membership deltas** — each flushed window reports exactly which
  vertices entered/left the maintained set, so applications (alerting,
  cache invalidation, reward accounting) react to changes instead of
  re-reading the whole set;
- **history** — per-window cost accounting (ops, supersteps,
  communication), the stream-level counterpart of the paper's Fig. 13
  measurements.

Batch-size choice is the Fig. 11 trade-off: bigger windows amortize
supersteps and sync, smaller windows bound staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set

from repro.errors import WorkloadError
from repro.graph.updates import EdgeUpdate
from repro.util import percentile

__all__ = ["StreamingSession", "WindowReport", "percentile"]


@dataclass
class WindowReport:
    """What one flushed window did."""

    index: int
    operations: int
    set_size: int
    entered: Set[int] = field(default_factory=set)
    left: Set[int] = field(default_factory=set)
    supersteps: int = 0
    communication_mb: float = 0.0
    wall_time_s: float = 0.0
    #: workers declared permanently dead while applying this window (0 for
    #: maintainers without a membership/failover subsystem)
    failovers: int = 0
    #: timestamp of the first event in the window (None when untimed)
    started_at: Optional[float] = None
    #: the window's apply raised: nothing committed, its events are still
    #: buffered in the session, and ``set_size`` is the pre-flush size
    failed: bool = False

    @property
    def churn(self) -> int:
        """Vertices whose membership changed in this window."""
        return len(self.entered) + len(self.left)


class StreamingSession:
    """Windowed event feed into a dynamic MIS maintainer.

    Parameters
    ----------
    maintainer:
        Anything with ``apply_batch(ops)`` / ``independent_set()`` /
        ``update_metrics`` — a :class:`~repro.core.maintainer.MISMaintainer`,
        any baseline from :func:`~repro.core.baselines.make_algorithm`, or
        the weighted maintainer.
    window_size:
        Flush after this many buffered operations (default 100).
    window_interval:
        When set, also flush before accepting an event whose timestamp is
        ``>= window_start + window_interval``.  Timestamps must be
        non-decreasing.
    on_window:
        Optional callback invoked with each :class:`WindowReport`.
    close_maintainer:
        When True, :meth:`close` (and context-manager exit) also calls the
        maintainer's own ``close()`` if it has one — use this when the
        session owns a maintainer running on the multi-process
        :mod:`repro.runtime` backend, so the worker pool is torn down with
        the stream.  Default False: the maintainer stays caller-owned.
    """

    def __init__(
        self,
        maintainer,
        window_size: int = 100,
        window_interval: Optional[float] = None,
        on_window: Optional[Callable[[WindowReport], None]] = None,
        close_maintainer: bool = False,
    ):
        if window_size < 1:
            raise WorkloadError(f"window_size must be >= 1, got {window_size}")
        if window_interval is not None and window_interval <= 0:
            raise WorkloadError("window_interval must be positive")
        self.maintainer = maintainer
        self.window_size = window_size
        self.window_interval = window_interval
        self.on_window = on_window
        self.close_maintainer = close_maintainer
        self.history: List[WindowReport] = []
        #: reports of the windows an :meth:`offer_many` call flushed before
        #: a later flush raised (also attached to the exception itself as
        #: ``exc.partial_reports`` when the exception allows attributes)
        self.partial_reports: List[WindowReport] = []
        #: most operations ever buffered at once (backpressure high-water
        #: mark — how deep the ingress queue got behind a slow or stuck
        #: window)
        self.max_pending: int = 0
        self._buffer: List[EdgeUpdate] = []
        self._window_start_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        self._membership: Set[int] = set(maintainer.independent_set())
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Buffered operations not yet applied."""
        return len(self._buffer)

    @property
    def windows_flushed(self) -> int:
        """Successfully applied windows (failed attempts don't count)."""
        return sum(1 for r in self.history if not r.failed)

    def independent_set(self) -> Set[int]:
        """The maintained set as of the last flush (buffered ops excluded)."""
        return set(self._membership)

    @property
    def dgraph(self):
        """The maintainer's partitioned graph: with :meth:`independent_set`,
        the read surface a :class:`~repro.serve.reads.SnapshotRegistry`
        publishes the committed set from."""
        return self.maintainer.dgraph

    # ------------------------------------------------------------------
    def offer(self, op: EdgeUpdate, timestamp: Optional[float] = None):
        """Feed one event; returns the :class:`WindowReport` if it caused a
        flush (of the *previous* window), else ``None``."""
        if self._closed:
            raise WorkloadError("session is closed")
        if timestamp is not None:
            if self._last_ts is not None and timestamp < self._last_ts:
                raise WorkloadError(
                    f"timestamps must be non-decreasing ({timestamp} < {self._last_ts})"
                )
            self._last_ts = timestamp
        report = None
        if (
            self.window_interval is not None
            and timestamp is not None
            and self._window_start_ts is not None
            and self._buffer
            and timestamp >= self._window_start_ts + self.window_interval
        ):
            try:
                report = self.flush()
            except BaseException:
                # the failed window keeps its events, but the *offered*
                # event must not be lost with them — queue it behind the
                # stuck window before the failure propagates, so a later
                # retry applies both
                self._buffer.append(op)
                self.max_pending = max(self.max_pending, len(self._buffer))
                raise
        if not self._buffer:
            self._window_start_ts = timestamp
        elif self._window_start_ts is None and timestamp is not None:
            # a window opened by untimed events anchors its time trigger
            # on the first timed event it sees — otherwise the whole
            # window would be pinned untimed and never time-flush
            self._window_start_ts = timestamp
        self._buffer.append(op)
        self.max_pending = max(self.max_pending, len(self._buffer))
        if len(self._buffer) >= self.window_size:
            report = self.flush()
        return report

    def offer_many(
        self, operations: Sequence[EdgeUpdate], timestamps: Optional[Sequence[float]] = None
    ) -> List[WindowReport]:
        """Feed a sequence of events; returns the reports of all flushes.

        If a flush raises part-way through, the reports of the windows that
        *did* apply are not lost: they are exposed as
        :attr:`partial_reports` on the session and attached to the raised
        exception as ``exc.partial_reports`` (best-effort — some exception
        types reject new attributes).
        """
        reports: List[WindowReport] = []
        try:
            for i, op in enumerate(operations):
                ts = timestamps[i] if timestamps is not None else None
                report = self.offer(op, timestamp=ts)
                if report is not None:
                    reports.append(report)
        except BaseException as exc:
            self.partial_reports = reports
            try:
                exc.partial_reports = reports
            except (AttributeError, TypeError):  # __slots__ exceptions
                pass
            raise
        return reports

    def flush(self) -> Optional[WindowReport]:
        """Apply the buffered window now; returns its report (None if empty).

        Atomic: if the maintainer's ``apply_batch`` raises (invalid
        operation, superstep-limit blowup, exhausted sync retries under
        fault injection), the buffered events stay queued, the session
        remains usable — the next :meth:`flush` retries the same window —
        and a report with :attr:`WindowReport.failed` set is recorded in
        :attr:`history` before the exception propagates.
        """
        if not self._buffer:
            return None
        metrics = self.maintainer.update_metrics
        before = (metrics.supersteps, metrics.bytes_sent,
                  metrics.wall_time_s, metrics.recovery_failovers)
        ops = list(self._buffer)
        started_at = self._window_start_ts

        def record(**outcome) -> WindowReport:
            # meters are not rolled back with the graph state on failure:
            # a failed attempt's supersteps, bytes, wall time and failovers
            # all really happened, so both outcomes record every delta
            window = WindowReport(
                index=len(self.history),
                operations=len(ops),
                supersteps=metrics.supersteps - before[0],
                communication_mb=(metrics.bytes_sent - before[1])
                / (1024.0 * 1024.0),
                wall_time_s=metrics.wall_time_s - before[2],
                failovers=metrics.recovery_failovers - before[3],
                started_at=started_at,
                **outcome,
            )
            self.history.append(window)
            if self.on_window is not None:
                self.on_window(window)
            return window

        try:
            self.maintainer.apply_batch(ops)
        except BaseException:
            # the maintainer rolled back (apply_batch is atomic); keep the
            # buffer so the caller may drop/repair/retry the window
            record(set_size=len(self._membership), failed=True)
            raise
        self._buffer = []
        self._window_start_ts = None
        current = set(self.maintainer.independent_set())
        entered, left = current - self._membership, self._membership - current
        self._membership = current
        return record(set_size=len(current), entered=entered, left=left)

    def take_pending(self) -> List[EdgeUpdate]:
        """Remove and return the buffered (un-applied) operations.

        The window anchor resets with the buffer.  This is the hook
        :class:`repro.serve.service.IngestionService` uses to bisect a
        poison window: take the stuck events out, re-offer the halves, and
        quarantine the operation(s) that still refuse to apply.
        """
        taken = self._buffer
        self._buffer = []
        self._window_start_ts = None
        return taken

    def close(self) -> Optional[WindowReport]:
        """Flush any remaining events and refuse further offers.

        Exception-safe: even when the final flush raises (a poison event in
        the tail window, a fault escalation), the session still seals itself
        and — with ``close_maintainer=True`` — still releases the
        maintainer's execution backend, so a
        :class:`~repro.runtime.parallel.ParallelRuntime` worker pool is
        never leaked behind a failed close.
        """
        try:
            report = self.flush()
        finally:
            self._closed = True
            self._close_maintainer()
        return report

    def _close_maintainer(self) -> None:
        if self.close_maintainer:
            closer = getattr(self.maintainer, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._close_maintainer()

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Aggregate statistics across flushed windows.

        Failed attempts contribute to ``failed_windows``, ``failovers``
        and ``failed_wall_time_s`` — their events never applied, but the
        time burned attempting them (and any worker declared dead) is
        real and must not vanish from the stream's account.

        Per-window latency is summarized as nearest-rank percentiles of
        the applied windows' ``wall_time_s`` (P50/P95/P99 — the numbers a
        latency SLO is written against), and ``max_pending`` reports the
        ingress high-water mark: the deepest the buffer ever got, e.g.
        while events queued behind a stuck window."""
        applied = [r for r in self.history if not r.failed]
        walls = sorted(r.wall_time_s for r in applied)
        return {
            "windows": len(applied),
            "failed_windows": len(self.history) - len(applied),
            "operations": sum(r.operations for r in applied),
            "churn": sum(r.churn for r in applied),
            "supersteps": sum(r.supersteps for r in applied),
            "communication_mb": sum(r.communication_mb for r in applied),
            "wall_time_s": sum(r.wall_time_s for r in applied),
            "failed_wall_time_s": sum(
                r.wall_time_s for r in self.history if r.failed
            ),
            # failed windows roll back state but a worker declared dead
            # stays dead — count failovers across every attempt
            "failovers": sum(r.failovers for r in self.history),
            "wall_time_p50_s": percentile(walls, 0.50),
            "wall_time_p95_s": percentile(walls, 0.95),
            "wall_time_p99_s": percentile(walls, 0.99),
            "max_pending": self.max_pending,
        }
