"""Durable, overload-resilient ingestion service around the maintainer.

:class:`IngestionService` promotes ``StreamingSession`` into a production
ingestion service.  It wraps a checkpointable maintainer
(:class:`~repro.core.maintainer.MISMaintainer`) and a
:class:`~repro.stream.StreamingSession` with four subsystems:

**Durability** — every admitted event is appended to a
:class:`~repro.serve.wal.WriteAheadLog` *before* it is buffered; every
applied window writes a commit record carrying the last applied sequence
id and the cumulative logical meters.
:meth:`recover` rebuilds a crashed service: load the newest maintainer
checkpoint, re-apply committed windows *with their recorded boundaries*
(idempotent — only events past the checkpoint's watermark replay, and the
recomputed cumulative meters must equal each commit's stored meters), then
re-buffer the uncommitted tail.  A clean recovery is bit-identical to a
run that never crashed: same members, same cumulative logical meters.

**Admission control** — a bounded ingress queue with block / shed / error
policies and high/low watermarks (:mod:`repro.serve.admission`).  Shed
events are dropped *before* sequencing, so the WAL never lies about what
was accepted.

**Failed-window handling** — a window whose ``apply_batch`` raises is
retried up to ``RetryPolicy.max_retries`` times with exponential backoff
(deadlines measured on the deterministic event-time clock, so seeded runs
are bit-reproducible; transient injected faults typically clear on
retry).  A window that exhausts its budget is *bisected*: halves are
applied recursively until the poison operation(s) are isolated, appended
to the dead-letter log (``dead-letter.jsonl``) and recorded as WAL
quarantine records so replay skips them too.  The stream keeps moving;
every valid event still applies exactly once.

**Fixed-count windowing** — every window is cut at ``window_size``
events, the paper's static batch size ``b`` (Fig. 11 sweeps it).

The service is synchronous and single-threaded, like every engine in this
repo: "blocking" a producer means resolving windows inline before its
``submit`` returns.  All control decisions read logical meters and the
event-time clock only — never the wall clock — so behaviour (window
boundaries, sheds, retries, quarantines) is deterministic per seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    BackpressureError,
    GraphError,
    RecoveryError,
    ReproError,
    WALError,
    WorkloadError,
)
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate
from repro.pregel.metrics import LOGICAL_METERS
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.wal import WriteAheadLog
from repro.stream import StreamingSession, WindowReport

#: the session never cuts windows itself — the service does, at its own
#: ``window_size`` — so the session's trigger is pushed out of reach
_UNBOUNDED_WINDOW = 1 << 62

DEAD_LETTER_NAME = "dead-letter.jsonl"


@dataclass(frozen=True)
class RetryPolicy:
    """Failed-window retry budget and backoff shape.

    Backoff is measured in *event-time* seconds (the timestamps the trace
    carries; untimed submissions tick the clock by 1.0 each), which keeps
    retry scheduling deterministic for seeded traces.  After
    ``max_retries`` failed retries the window is bisected and its poison
    operations quarantined.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise WorkloadError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise WorkloadError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise WorkloadError("backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


@dataclass
class ServeStats:
    """Operational counters (durable ones are derivable from the WAL)."""

    window_failures: int = 0
    retries_scheduled: int = 0
    bisections: int = 0
    quarantined: int = 0
    checkpoints: int = 0
    replayed_windows: int = 0
    replayed_events: int = 0
    truncated_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class SubmitResult:
    """Fate of one submission."""

    accepted: bool
    seq: Optional[int] = None
    shed: bool = False


@dataclass
class _RecoveredState:
    """What :meth:`IngestionService.recover` hands the constructor."""

    wal: WriteAheadLog
    next_seq: int
    watermark: int
    totals: Dict[str, int]
    windows_committed: int
    clock: float
    tail: List[Tuple[int, EdgeUpdate, Optional[float]]]
    replayed_windows: int
    replayed_events: int
    truncated_bytes: int
    replay_batches: List[Tuple[List[Tuple[int, EdgeUpdate, Optional[float]]],
                               Dict[str, int]]] = field(default_factory=list)


class IngestionService:
    """Durable windowed ingestion into a checkpointable MIS maintainer.

    Parameters
    ----------
    maintainer:
        Anything with the :class:`~repro.core.maintainer.MISMaintainer`
        surface — ``apply_batch`` / ``independent_set`` /
        ``update_metrics`` *plus* ``save(path)`` (checkpoints are the
        recovery floor).
    wal_dir:
        Directory for the write-ahead log, checkpoints and the
        dead-letter log.  Must not already contain a log — recover an
        existing one with :meth:`recover`.
    window_size:
        Events per window (default 256); the last window of a drain may
        be shorter.
    admission / retry:
        Admission config and retry policy.
    checkpoint_every:
        Write a maintainer checkpoint every N committed windows (0 keeps
        only the initial and closing checkpoints).
    close_maintainer:
        When True (default), :meth:`close` / :meth:`abandon` also close
        the maintainer (releasing a process-runtime worker pool).
    """

    def __init__(
        self,
        maintainer,
        wal_dir: str,
        window_size: int = 256,
        admission: Optional[AdmissionConfig] = None,
        retry: Optional[RetryPolicy] = None,
        fsync: str = "commit",
        segment_bytes: int = 1 << 20,
        checkpoint_every: int = 8,
        close_maintainer: bool = True,
        serve_reads: bool = False,
        _recovered: Optional[_RecoveredState] = None,
    ):
        if checkpoint_every < 0:
            raise WorkloadError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if type(window_size) is not int or window_size < 1:
            raise WorkloadError(
                f"window_size must be an integer >= 1, got {window_size!r}"
            )
        if not hasattr(maintainer, "save"):
            raise WorkloadError(
                "IngestionService needs a checkpointable maintainer "
                "(save(path) — e.g. MISMaintainer); got "
                f"{type(maintainer).__name__}"
            )
        self.maintainer = maintainer
        self.wal_dir = wal_dir
        self.window_size = window_size
        self.admission = AdmissionController(admission or AdmissionConfig())
        self.retry = retry or RetryPolicy()
        self.checkpoint_every = checkpoint_every
        self.stats = ServeStats()
        self.session = StreamingSession(
            maintainer, window_size=_UNBOUNDED_WINDOW,
            close_maintainer=close_maintainer,
        )
        self._queue: Deque[Tuple[int, EdgeUpdate, Optional[float]]] = deque()
        self._window_seqs: List[int] = []
        self._attempts = 0
        self._next_retry_at = 0.0
        #: most accepted events ever pending at once (queue plus any stuck
        #: window): the backlog's high-water mark
        self.max_pending = 0
        self._dead_letter = None
        self._closed = False
        # epoch-consistent read path: a snapshot registry publishing at
        # every committed window, and a query engine answering against the
        # newest epoch (see repro.serve.reads).  Staleness is measured
        # against the ingress frontier — the last *accepted* sequence id.
        self.reads = None
        self.query_engine = None
        if serve_reads:
            from repro.serve.reads import QueryEngine, SnapshotRegistry

            # epochs publish the session's committed set, so birth and
            # each commit walk the maintainer's states once
            self.reads = SnapshotRegistry(
                self.session, frontier_fn=lambda: self._next_seq - 1
            )
            self.query_engine = QueryEngine(self.reads)
        if _recovered is None:
            self.wal = WriteAheadLog(
                wal_dir, segment_bytes=segment_bytes, fsync=fsync
            )
            if self.wal.segments():
                raise WALError(
                    wal_dir,
                    "directory already holds a log — use "
                    "IngestionService.recover() instead of constructing "
                    "a fresh service over it",
                )
            self._next_seq = 1
            self._applied_watermark = 0
            self.windows_committed = 0
            self.totals: Dict[str, int] = {k: 0 for k in LOGICAL_METERS}
            self._clock = 0.0
            # the recovery floor: every service is recoverable from birth
            self.checkpoint()
            self._publish_epoch()
        else:
            self.wal = _recovered.wal
            self._next_seq = _recovered.next_seq
            self._applied_watermark = _recovered.watermark
            self.windows_committed = _recovered.windows_committed
            self.totals = dict(_recovered.totals)
            self._clock = _recovered.clock
            self.stats.replayed_windows = _recovered.replayed_windows
            self.stats.replayed_events = _recovered.replayed_events
            self.stats.truncated_bytes = _recovered.truncated_bytes

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Accepted events not yet applied (queue + any stuck window)."""
        return len(self._queue) + self.session.pending

    @property
    def applied_watermark(self) -> int:
        """Sequence id of the last committed event."""
        return self._applied_watermark

    def submit(
        self, op: EdgeUpdate, timestamp: Optional[float] = None
    ) -> SubmitResult:
        """Admit, sequence, log and buffer one event (flushing windows as
        they fill); returns the submission's fate."""
        if self._closed:
            raise WorkloadError("ingestion service is closed")
        if not isinstance(op, (EdgeInsertion, EdgeDeletion)):
            raise WorkloadError(
                f"serve ingests edge updates only, got {type(op).__name__}"
            )
        if timestamp is not None:
            # a non-finite stamp would be logged and then wedge the clock
            # (inf) or slip past every comparison (nan), across recovery too
            if not math.isfinite(timestamp):
                raise WorkloadError(
                    f"timestamps must be finite, got {timestamp}"
                )
            if timestamp < self._clock:
                raise WorkloadError(
                    f"timestamps must be non-decreasing "
                    f"({timestamp} < {self._clock})"
                )
        verdict = self.admission.admit(self.pending)
        if verdict == "shed":
            # the event is dropped, but its timestamp still happened: move
            # the clock so a stuck window's backoff deadline can expire
            # under sustained overload (untimed sheds leave the clock
            # alone — they are not durable, so recovery could not re-tick
            # them, and the clock re-syncs on the next accepted event)
            if timestamp is not None:
                self._clock = max(self._clock, float(timestamp))
            self._pump()
            return SubmitResult(accepted=False, shed=True)
        if verdict == "drain":
            # block policy: resolve windows (deadlines ignored) until the
            # queue is back under the low watermark, then admit
            self._pump(force=True, target=self.admission.drain_target())
        seq = self._next_seq
        # the seq and the clock tick are taken once the event is durable:
        # an append that raises leaves no gap in the log's seqs
        self.wal.append(_event_payload(seq, op, timestamp))
        self._next_seq += 1
        self._advance_clock(timestamp)
        self.admission.accepted()
        self._queue.append((seq, op, timestamp))
        self.max_pending = max(self.max_pending, self.pending)
        self._pump()
        return SubmitResult(accepted=True, seq=seq)

    def drain(self) -> None:
        """Apply everything pending now (retry deadlines ignored)."""
        self._pump(force=True, target=0)

    # ------------------------------------------------------------------
    # the window pump
    # ------------------------------------------------------------------
    def _advance_clock(self, timestamp: Optional[float]) -> None:
        if timestamp is None:
            self._clock += 1.0
        else:
            self._clock = max(self._clock, float(timestamp))

    def _pump(self, force: bool = False, target: int = 0) -> None:
        """Resolve windows until blocked (backoff pending / not enough
        events for a window) or — under ``force`` — drained to ``target``."""
        while True:
            total = len(self._queue) + self.session.pending
            if total == 0 or (force and total <= target):
                return
            if self.session.pending == 0:
                if not force and len(self._queue) < self.window_size:
                    return
                self._cut_window()
            if (self._attempts and not force
                    and self._clock < self._next_retry_at):
                return  # stuck window waiting out its backoff
            if not self._flush_window(force):
                return

    def _cut_window(self) -> None:
        take = min(self.window_size, len(self._queue))
        for _ in range(take):
            seq, op, ts = self._queue.popleft()
            self._window_seqs.append(seq)
            self.session.offer(op, timestamp=ts)
        self._attempts = 0

    def _flush_window(self, force: bool) -> bool:
        """One resolution pass over the window in the session; returns
        True when the window fully resolved (committed or quarantined)."""
        while True:
            before = self._fingerprint()
            try:
                report = self.session.flush()
            except ReproError:
                self._attempts += 1
                self.stats.window_failures += 1
                if self._attempts <= self.retry.max_retries:
                    if force:
                        continue  # blocked producer: retry immediately
                    self.stats.retries_scheduled += 1
                    self._next_retry_at = (
                        self._clock + self.retry.delay(self._attempts)
                    )
                    return False
                self._bisect_window()
                return True
            if report is not None:
                self._commit_window(report, before)
            return True

    def _fingerprint(self) -> Dict[str, int]:
        return self.maintainer.update_metrics.logical()

    def _accrue(self, before: Dict[str, int]) -> None:
        """Add the logical meters charged since ``before`` to the totals."""
        for name, value in self._fingerprint().items():
            self.totals[name] += value - before[name]

    def _commit_window(
        self, report: WindowReport, before: Dict[str, int]
    ) -> None:
        self._accrue(before)
        self.windows_committed += 1
        first, last = self._window_seqs[0], self._window_seqs[-1]
        self.wal.append({
            "t": "cm",
            "w": self.windows_committed,
            "f": first,
            "l": last,
            "n": report.operations,
            "tot": dict(self.totals),
            "ep": self._membership_epoch(),
        })
        self._applied_watermark = last
        self._window_seqs = []
        self._attempts = 0
        # readers switch to the just-committed window's epoch before
        # anything else observes the commit
        self._publish_epoch()
        if (self.checkpoint_every
                and self.windows_committed % self.checkpoint_every == 0):
            self.checkpoint()

    # ------------------------------------------------------------------
    # epoch-consistent reads
    # ------------------------------------------------------------------
    def _publish_epoch(self) -> None:
        """Publish the current committed state as a read epoch.

        Epoch ids are the committed-window count — derived from the WAL,
        so they are strictly monotonic within a service lifetime *and*
        stable across crash/recover (a recovered service resumes at the
        replayed window count, never reusing or skipping an epoch id).
        """
        if self.reads is None:
            return
        latest = self.reads.latest()
        if latest is not None and latest.epoch == self.windows_committed:
            return
        self.reads.publish(
            epoch=self.windows_committed,
            watermark=self._applied_watermark,
        )

    def _require_reads(self):
        if self.query_engine is None:
            raise WorkloadError(
                "read path disabled — construct the service with "
                "serve_reads=True"
            )
        return self.query_engine

    def query_point(self, vertex: int) -> Dict[str, Any]:
        """Point membership at the last committed epoch."""
        return self._require_reads().point(vertex)

    def query_batch(self, vertices) -> Dict[str, Any]:
        """Vectorized batch membership at the last committed epoch."""
        return self._require_reads().batch(vertices)

    def query_neighborhood(self, vertex: int, hops: int = 1) -> Dict[str, Any]:
        """In-set vertices within ``hops`` of ``vertex`` at the last
        committed epoch."""
        return self._require_reads().neighborhood(vertex, hops=hops)

    def query_why_not(self, vertex: int) -> Dict[str, Any]:
        """Membership certificate (blocking ≺-smaller in-set neighbour
        for a non-member) at the last committed epoch."""
        return self._require_reads().why_not(vertex)

    # ------------------------------------------------------------------
    # membership epoch
    # ------------------------------------------------------------------
    def _membership_epoch(self) -> List[int]:
        """``[cluster_size, membership_epoch]`` for WAL commit records.

        Recovery refuses to replay commits made under a different cluster
        shape (a mixed or foreign log directory) with a clear
        :class:`~repro.errors.RecoveryError` instead of the index errors a
        wrong partitioning would eventually produce.
        """
        failover = getattr(self.maintainer, "failover", None)
        epoch = failover.epoch if failover is not None else 0
        return [int(self.maintainer.num_workers), int(epoch)]

    # ------------------------------------------------------------------
    # poison handling: bisect + quarantine
    # ------------------------------------------------------------------
    def _bisect_window(self) -> None:
        """The window exhausted its retries: isolate the poison."""
        items = list(zip(self._window_seqs, self.session.take_pending()))
        self._window_seqs = []
        self._attempts = 0
        self.stats.bisections += 1
        mid = (len(items) + 1) // 2
        self._apply_fragment(items[:mid])
        self._apply_fragment(items[mid:])

    def _apply_fragment(
        self, items: List[Tuple[int, EdgeUpdate]]
    ) -> None:
        if not items:
            return
        for seq, op in items:
            self._window_seqs.append(seq)
            self.session.offer(op)
        before = self._fingerprint()
        try:
            report = self.session.flush()
        except ReproError as exc:
            self.session.take_pending()
            self._window_seqs = []
            if len(items) == 1:
                self._quarantine(items[0][0], items[0][1], exc)
            else:
                mid = (len(items) + 1) // 2
                self._apply_fragment(items[:mid])
                self._apply_fragment(items[mid:])
            return
        if report is not None:
            self._commit_window(report, before)

    def _quarantine(self, seq: int, op: EdgeUpdate, exc: Exception) -> None:
        reason = f"{type(exc).__name__}: {exc}"[:300]
        self.stats.quarantined += 1
        self.wal.append({
            "t": "qr",
            "q": seq,
            "k": "ins" if isinstance(op, EdgeInsertion) else "del",
            "u": op.u,
            "v": op.v,
            "reason": reason,
        })
        if self._dead_letter is None:
            self._dead_letter = open(
                os.path.join(self.wal_dir, DEAD_LETTER_NAME),
                "a", encoding="utf-8",
            )
        self._dead_letter.write(json.dumps({
            "seq": seq,
            "kind": "ins" if isinstance(op, EdgeInsertion) else "del",
            "u": op.u,
            "v": op.v,
            "reason": reason,
            "after_window": self.windows_committed,
        }, sort_keys=True) + "\n")
        self._dead_letter.flush()

    # ------------------------------------------------------------------
    # checkpoints / shutdown
    # ------------------------------------------------------------------
    def checkpoint(self) -> str:
        """Write a maintainer checkpoint + its WAL record; returns the
        checkpoint file's path.  Crash-ordering-safe: the file is written
        to a temp name, fsynced, renamed into place and the directory
        fsynced, all *before* the ``ck`` record that announces it (no
        fsyncs under the WAL's ``"never"`` policy, as for records)."""
        name = f"checkpoint-{self._applied_watermark:012d}.ckpt"
        path = os.path.join(self.wal_dir, name)
        tmp = path + ".tmp"
        self.maintainer.save(tmp)
        durable = self.wal.fsync != "never"
        if durable:
            _fsync_path(tmp)
        os.replace(tmp, path)
        if durable:
            _fsync_path(self.wal_dir)
        self.wal.append({
            "t": "ck",
            "q": self._applied_watermark,
            "file": name,
            "w": self.windows_committed,
            "tot": dict(self.totals),
        })
        self.stats.checkpoints += 1
        self._prune_checkpoints(keep=2)
        return path

    def _prune_checkpoints(self, keep: int) -> None:
        names = sorted(
            n for n in os.listdir(self.wal_dir)
            if n.startswith("checkpoint-") and n.endswith(".ckpt")
        )
        for name in names[:-keep]:
            try:
                os.remove(os.path.join(self.wal_dir, name))
            except OSError:  # pragma: no cover - best-effort housekeeping
                pass

    def close(self) -> None:
        """Drain every pending window, checkpoint, and release resources."""
        if self._closed:
            return
        try:
            self.drain()
            self.checkpoint()
        finally:
            self._teardown()

    def abandon(self) -> None:
        """Simulate a crash: release file handles and the maintainer's
        backend WITHOUT draining, committing or checkpointing.  Pending
        events stay in the WAL for :meth:`recover` — this is what the
        chaos harness calls "kill"."""
        if self._closed:
            return
        self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        if self.reads is not None:
            self.reads.close()
        try:
            self.wal.close()
        finally:
            if self._dead_letter is not None:
                self._dead_letter.close()
                self._dead_letter = None
            # seal the session without flushing (close() would re-raise a
            # poison tail); the session's _close_maintainer honours the
            # close_maintainer flag it was built with
            self.session._closed = True
            self.session._close_maintainer()

    def __enter__(self) -> "IngestionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abandon()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def logical_totals(self) -> Dict[str, int]:
        """Cumulative logical meters over every committed window — the
        numbers recovery must reproduce bit-for-bit."""
        return dict(self.totals)

    def stats_summary(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "pending": self.pending,
            "applied_watermark": self._applied_watermark,
            "windows_committed": self.windows_committed,
        }
        summary.update(self.admission.stats.as_dict())
        summary.update(self.stats.as_dict())
        # the session only ever buffers one window; the backlog is ours
        summary["session"] = dict(self.session.totals(),
                                  max_pending=self.max_pending)
        summary["logical_totals"] = self.logical_totals()
        if self.query_engine is not None:
            summary["reads"] = self.query_engine.read_stats()
        return summary

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        wal_dir: str,
        maintainer_kwargs: Optional[Dict[str, Any]] = None,
        window_size: int = 256,
        admission: Optional[AdmissionConfig] = None,
        retry: Optional[RetryPolicy] = None,
        fsync: str = "commit",
        segment_bytes: int = 1 << 20,
        checkpoint_every: int = 8,
        close_maintainer: bool = True,
        serve_reads: bool = False,
    ) -> "IngestionService":
        """Rebuild a crashed service from its log directory.

        The replay protocol (see DESIGN.md §13): load the newest loadable
        checkpoint, re-apply every commit past its watermark using the
        commit's *recorded* window boundaries (skipping quarantined
        seqs), assert the recomputed cumulative meters equal each
        commit's stored meters, then re-buffer the uncommitted tail.
        Retry state (attempt counters, backoff deadlines) is deliberately
        not durable — a stuck window restarts its budget after recovery.
        Replay cuts come from the log, so ``window_size`` only shapes the
        windows cut after recovery; it need not match the crashed
        service's.  A ``ctl`` key in ``cm`` / ``ck`` records (logs written
        while window sizes were adaptive) is ignored.

        ``maintainer_kwargs`` pass through to
        :meth:`~repro.core.maintainer.MISMaintainer.load` (``runtime``,
        ``representation``, ``faults``, ...).
        """
        from repro.core.maintainer import MISMaintainer

        wal = WriteAheadLog(wal_dir, segment_bytes=segment_bytes, fsync=fsync)
        scan = wal.scan()
        if not scan.records:
            raise WALError(wal_dir, "no log records to recover from")
        events: Dict[int, Tuple[EdgeUpdate, Optional[float]]] = {}
        quarantined: Set[int] = set()
        checkpoints: List[Dict[str, Any]] = []
        commits: List[Dict[str, Any]] = []
        # (record index, payload) so replay can honour log order of
        # quarantines relative to commits
        ordered: List[Dict[str, Any]] = [r.payload for r in scan.records]
        for payload in ordered:
            kind = payload.get("t")
            if kind == "ev":
                events[int(payload["q"])] = (_decode_event(payload),
                                             payload.get("ts"))
            elif kind == "qr":
                quarantined.add(int(payload["q"]))
            elif kind == "ck":
                checkpoints.append(payload)
            elif kind == "cm":
                commits.append(payload)
            else:
                raise WALError(wal_dir, f"unknown record type {kind!r}")
        maintainer = None
        base = None
        for candidate in reversed(checkpoints):
            path = os.path.join(wal_dir, candidate["file"])
            if not os.path.exists(path):
                continue
            try:
                maintainer = MISMaintainer.load(
                    path, **(maintainer_kwargs or {})
                )
            except ReproError:
                continue  # fall back to the previous checkpoint
            base = candidate
            break
        if maintainer is None or base is None:
            raise WALError(
                wal_dir, "no loadable maintainer checkpoint found"
            )
        # membership epoch guard (satellite of the elastic-membership work):
        # every commit records [cluster_size, epoch]; replaying a log whose
        # commits were made under a different cluster shape than the
        # checkpoint restores would misattribute every host/guest directory,
        # so fail loudly and early instead
        recorded_shape: Optional[Tuple[int, int]] = None
        for commit in commits:
            ep = commit.get("ep")
            if ep is not None:
                recorded_shape = (int(ep[0]), int(ep[1]))
        if recorded_shape is not None \
                and recorded_shape[0] != maintainer.num_workers:
            raise RecoveryError(
                f"{wal_dir}: membership mismatch: log commits were made "
                f"at num_workers={recorded_shape[0]} (membership epoch "
                f"{recorded_shape[1]}), but the recovered checkpoint has "
                f"num_workers={maintainer.num_workers} — recover with the "
                f"original cluster shape or start a fresh log"
            )
        if recorded_shape is not None and recorded_shape[1] > 0:
            failover = getattr(maintainer, "failover", None)
            if failover is not None:
                failover.view.restore_epoch(recorded_shape[1])
        watermark = int(base["q"])
        totals = {k: int(v) for k, v in base["tot"].items()}
        windows_committed = int(base["w"])
        replay_batches = []
        replayed_events = 0
        for commit in commits:
            last = int(commit["l"])
            if last <= watermark:
                continue  # already inside the checkpoint
            batch = []
            for seq in range(watermark + 1, last + 1):
                if seq in quarantined:
                    continue
                if seq not in events:
                    raise RecoveryError(
                        f"{wal_dir}: commit window [{commit['f']}, {last}] "
                        f"references seq {seq} with no event record"
                    )
                op, ts = events[seq]
                batch.append((seq, op, ts))
            replay_batches.append((batch, {
                k: int(v) for k, v in commit["tot"].items()
            }))
            replayed_events += len(batch)
            watermark = last
            windows_committed = int(commit["w"])
        # the uncommitted tail goes back into the ingress queue in order
        tail = [
            (seq, events[seq][0], events[seq][1])
            for seq in sorted(events)
            if seq > watermark and seq not in quarantined
        ]
        clock = 0.0
        for seq in sorted(events):
            ts = events[seq][1]
            clock = clock + 1.0 if ts is None else max(clock, float(ts))
        recovered = _RecoveredState(
            wal=wal,
            next_seq=scan.next_seq,
            watermark=int(base["q"]),
            totals=totals,
            windows_committed=windows_committed,
            clock=clock,
            tail=tail,
            replayed_windows=len(replay_batches),
            replayed_events=replayed_events,
            truncated_bytes=scan.truncated_bytes,
            replay_batches=replay_batches,
        )
        service = cls(
            maintainer,
            wal_dir,
            window_size=window_size,
            admission=admission,
            retry=retry,
            fsync=fsync,
            segment_bytes=segment_bytes,
            checkpoint_every=checkpoint_every,
            close_maintainer=close_maintainer,
            serve_reads=serve_reads,
            _recovered=recovered,
        )
        service._replay(recovered)
        return service

    def _replay(self, recovered: _RecoveredState) -> None:
        """Re-apply committed windows, verify meters, re-buffer the tail."""
        for batch, expected_totals in recovered.replay_batches:
            if not batch:
                continue
            for seq, op, ts in batch:
                self._window_seqs.append(seq)
                self.session.offer(op, timestamp=ts)
            before = self._fingerprint()
            try:
                report = self.session.flush()
            except ReproError as exc:
                raise RecoveryError(
                    f"{self.wal_dir}: committed window "
                    f"[{batch[0][0]}, {batch[-1][0]}] failed to re-apply "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            self._accrue(before)
            self._applied_watermark = batch[-1][0]
            self._window_seqs = []
            if report is None:  # pragma: no cover - batch is never empty
                continue
            if self.totals != expected_totals:
                drifted = {
                    k: (self.totals[k], expected_totals.get(k))
                    for k in self.totals
                    if self.totals[k] != expected_totals.get(k)
                }
                raise RecoveryError(
                    f"{self.wal_dir}: replay of committed window "
                    f"[{batch[0][0]}, {batch[-1][0]}] diverged from the "
                    f"recorded meters: {drifted}"
                )
        self._applied_watermark = max(
            self._applied_watermark,
            max((b[-1][0] for b, _ in recovered.replay_batches if b),
                default=self._applied_watermark),
        )
        # the read watermark survives WAL replay: the first post-recovery
        # epoch is the replayed commit watermark, published before the
        # uncommitted tail pumps any further windows
        self._publish_epoch()
        for seq, op, ts in recovered.tail:
            self._queue.append((seq, op, ts))
        self.max_pending = max(self.max_pending, self.pending)
        self._pump()

    # ------------------------------------------------------------------
    # audit (exactly-once accounting over the log itself)
    # ------------------------------------------------------------------
    def audit(self) -> Tuple[List[str], Dict[str, int]]:
        """Audit this service's log directory; see :func:`audit_log`."""
        return audit_log(self.wal_dir)


def drive(
    service: IngestionService,
    operations: Sequence[EdgeUpdate],
    timestamps: Sequence[float],
    read_mix: float = 0.0,
    read_batch: int = 32,
    seed: int = 0,
) -> Tuple[float, List[int]]:
    """Push a trace through ``service`` with seeded interleaved reads, then
    drain; returns ``(submit→drain wall seconds, per-read staleness)``.

    A ``read_mix`` of R issues R/(1-R) reads per accepted write (0.99 →
    ~99 queries between submissions) against the last committed epoch,
    so the service must be built with ``serve_reads=True``.  Each read
    draws from ``Random(seed + 0x5EED)``: 10% why-not, 10% a batch of
    ``read_batch`` vertices, 80% point.  A :class:`BackpressureError`
    (the ``error`` admission policy) drops the event and moves on — the
    rejection is already on the admission account.
    """
    if not 0.0 <= read_mix < 1.0:
        raise WorkloadError(f"read_mix must be in [0, 1), got {read_mix}")
    if read_batch < 1:
        raise WorkloadError(f"read_batch must be >= 1, got {read_batch}")
    if read_mix and service.reads is None:
        raise WorkloadError("read_mix needs a service with serve_reads=True")
    rng = random.Random(seed + 0x5EED)
    ratio = read_mix / (1.0 - read_mix)
    acc = 0.0
    staleness: List[int] = []
    start = perf_counter()
    for op, ts in zip(operations, timestamps):
        try:
            service.submit(op, ts)
        except BackpressureError:
            continue
        acc += ratio
        while acc >= 1.0:
            acc -= 1.0
            ids = service.reads.latest().ids
            if not ids.size:
                break
            staleness.append(service.reads.staleness())
            draw = rng.random()
            if draw < 0.10:
                service.query_why_not(int(ids[rng.randrange(ids.size)]))
            elif draw < 0.20:
                service.query_batch([
                    int(ids[rng.randrange(ids.size)])
                    for _ in range(read_batch)
                ])
            else:
                service.query_point(int(ids[rng.randrange(ids.size)]))
    service.drain()
    return perf_counter() - start, staleness


def audit_log(wal_dir: str) -> Tuple[List[str], Dict[str, int]]:
    """Exactly-once accounting over a log directory, from the log alone.

    Checks: sequence ids are gapless ``1..N`` with no duplicates; commit
    ranges are ascending and non-overlapping; below the final watermark
    every seq is either committed exactly once or quarantined exactly
    once (never both, never neither); commit ``n`` counts match their
    ranges.  Returns ``(problems, summary)`` — an empty problem list is
    the "zero lost / zero duplicated" certificate the CI soak asserts.
    """
    wal = WriteAheadLog(wal_dir)
    seqs: List[int] = []
    quarantined: Set[int] = set()
    commit_ranges: List[Tuple[int, int, int]] = []  # (first, last, n)
    problems: List[str] = []
    for record in wal.iter_records():
        payload = record.payload
        kind = payload.get("t")
        if kind == "ev":
            seqs.append(int(payload["q"]))
        elif kind == "qr":
            seq = int(payload["q"])
            if seq in quarantined:
                problems.append(f"seq {seq} quarantined twice")
            quarantined.add(seq)
        elif kind == "cm":
            commit_ranges.append(
                (int(payload["f"]), int(payload["l"]), int(payload["n"]))
            )
    expected = list(range(1, len(seqs) + 1))
    if sorted(seqs) != expected:
        counts = Counter(seqs)
        dupes = sorted(s for s, c in counts.items() if c > 1)
        missing = sorted(set(expected) - counts.keys())[:5]
        problems.append(
            f"sequence ids not gapless 1..{len(seqs)}: "
            f"duplicated={dupes[:5]} missing={missing}"
        )
    applied: Set[int] = set()
    prev_last = 0
    for first, last, count in commit_ranges:
        if first <= prev_last:
            problems.append(
                f"commit [{first}, {last}] overlaps an earlier commit "
                f"(previous watermark {prev_last})"
            )
        window = [
            s for s in range(max(first, prev_last + 1), last + 1)
            if s not in quarantined
        ]
        if len(window) != count:
            problems.append(
                f"commit [{first}, {last}] claims {count} op(s) but its "
                f"range holds {len(window)} non-quarantined seq(s)"
            )
        for seq in window:
            if seq in applied:
                problems.append(f"seq {seq} committed twice")
            applied.add(seq)
        prev_last = max(prev_last, last)
    watermark = prev_last
    for seq in range(1, watermark + 1):
        in_applied = seq in applied
        in_quarantine = seq in quarantined
        if in_applied and in_quarantine:
            problems.append(f"seq {seq} both applied and quarantined")
        elif not in_applied and not in_quarantine:
            problems.append(
                f"seq {seq} below watermark {watermark} neither applied "
                "nor quarantined (lost)"
            )
    pending = [s for s in sorted(set(seqs))
               if s > watermark and s not in quarantined]
    summary = {
        "events": len(seqs),
        "applied": len(applied),
        "quarantined": len(quarantined),
        "pending": len(pending),
        "watermark": watermark,
        "commits": len(commit_ranges),
    }
    return problems, summary


def _fsync_path(path: str) -> None:
    """fsync a file or directory by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _event_payload(
    seq: int, op: EdgeUpdate, timestamp: Optional[float]
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "t": "ev",
        "q": seq,
        "k": "ins" if isinstance(op, EdgeInsertion) else "del",
        "u": op.u,
        "v": op.v,
    }
    if timestamp is not None:
        payload["ts"] = timestamp
    return payload


def _decode_event(payload: Dict[str, Any]) -> EdgeUpdate:
    kind = payload.get("k")
    if kind == "ins":
        record = EdgeInsertion
    elif kind == "del":
        record = EdgeDeletion
    else:
        raise WALError("<record>", f"unknown event kind {kind!r}")
    seq, u, v = payload.get("q"), payload.get("u"), payload.get("v")
    for x in (u, v):
        # a logged id is a JSON integer: truncating 1.5 (or reading true
        # as 1) would replay another event than the one submitted
        if type(x) is not int:
            raise WALError("<record>",
                           f"event {seq!r}: vertex id {x!r} is not an integer")
    try:
        return record(u, v)
    except GraphError as exc:  # outside int64
        raise WALError("<record>", f"event {seq!r}: {exc}") from exc
