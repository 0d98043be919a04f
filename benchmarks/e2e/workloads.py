"""One end-to-end workload, run in a fresh process by ``run.py``.

``run.py`` starts this file from the repository root with
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``:

    python benchmarks/e2e/workloads.py --workload ingest_2k --seed 1 \
        --seconds 10 --trace 0

and reads the one JSON object it prints.  Only the library's public API
is called: ``MISMaintainer.from_edges`` / ``apply_batch``,
``IngestionService.submit`` / ``drain`` / ``close`` / ``query_*`` and
``ParallelRuntime``.  The traced run (``--trace 1``) also wraps the
public functions listed in :data:`TRACE_POINTS` with span recorders.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import checks
import inputs
import spans
import stats
from catalog import AVG_DEGREE, EXPONENT, PER_LAYER, WORKLOADS, Spec
from repro import EdgeDeletion, EdgeInsertion, IngestionService, MISMaintainer
from repro.errors import ReproError
from repro.runtime import ParallelRuntime
from repro.serve import audit_log

HERE = os.path.dirname(os.path.abspath(__file__))
#: WAL directories and checkpoints live here while a workload runs
WORK_DIR = os.path.join(HERE, ".work")

#: MISMaintainer's default logical worker count (the paper's 10 machines)
LOGICAL_WORKERS = 10
#: worker processes of the traced process-runtime comparison
PROCESS_RUNTIME_PROCS = 2
#: arrivals are generated this many times past the open-loop duration
OPEN_LOOP_HORIZON = 3.0
READ_BATCH = 64


def _seq(args, result):
    return result.seq


def _epoch(args, result):
    return result["epoch"]


def _window(args, result):
    return len(args[0].history)


def _applied(args, result):
    return args[0].updates_applied


def _length(args, result):
    return len(result)


#: (module, attribute, span name, request id, size) — the public
#: functions the traced run wraps
TRACE_POINTS = [
    ("repro.serve.service", "IngestionService.submit", "serve.submit", _seq, None),
    ("repro.serve.service", "IngestionService.drain", "serve.drain", None, None),
    ("repro.serve.service", "IngestionService.checkpoint", "serve.checkpoint",
     None, None),
    ("repro.serve.wal", "WriteAheadLog.append", "serve.wal.append", None, None),
    ("os", "fsync", "serve.wal.fsync", None, None),
    ("repro.serve.reads", "SnapshotRegistry.publish", "serve.reads.publish",
     lambda args, result: result.epoch, None),
    ("repro.serve.service", "IngestionService.query_point",
     "serve.reads.query", _epoch, None),
    ("repro.serve.service", "IngestionService.query_batch",
     "serve.reads.query", _epoch, None),
    ("repro.serve.service", "IngestionService.query_why_not",
     "serve.reads.query", _epoch, None),
    ("repro.stream", "StreamingSession.flush", "stream.flush", _window, None),
    ("repro.core.doimis", "DOIMISMaintainer.apply_batch", "core.apply_batch",
     _applied, None),
    ("repro.core.doimis", "affected_vertices", "core.affected", None, _length),
    ("repro.graph.distributed_graph", "DistributedGraph.add_edge",
     "graph.mutate", None, None),
    ("repro.graph.distributed_graph", "DistributedGraph.remove_edge",
     "graph.mutate", None, None),
    ("repro.graph.csr", "CSRPartition.ensure", "graph.csr_ensure", None, None),
    ("repro.graph.csr", "CSRPartition.sync_states", "graph.csr_sync", None,
     None),
    ("repro.scaleg.engine", "ScaleGEngine.run", "scaleg.run", None, None),
    ("repro.scaleg.engine", "ScaleGEngine.charge_graph_update",
     "scaleg.charge", None, None),
    ("repro.runtime.base", "InlineExecutor.sweep_scaleg", "runtime.sweep",
     None, None),
    ("repro.runtime.parallel", "ParallelRuntime.sweep_scaleg",
     "runtime.sweep", None, None),
    ("repro.runtime.base", "ExecutionBackend.commit", "runtime.commit", None,
     None),
    ("repro.runtime.parallel", "ParallelRuntime.commit", "runtime.commit",
     None, None),
]

METER_NAMES = ("supersteps", "compute_work", "state_changes",
               "active_vertices", "bytes_sent")


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------
class System:
    """One set-up of the program: maintainer plus, per workload, the
    ingestion service and the process runtime."""

    def __init__(self, spec: Spec, edges, wal_dir: str, procs: int = 0):
        self.wal_dir = wal_dir
        self.runtime = None
        self.service = None
        self.spawn_s = 0.0
        started = perf_counter()
        if procs:
            self.runtime = ParallelRuntime(
                procs=min(procs, os.cpu_count() or 1)
            )
            self.runtime.prestart(num_partitions=LOGICAL_WORKERS)
            self.spawn_s = perf_counter() - started
        self.maintainer = MISMaintainer.from_edges(
            edges, vertices=range(spec.n), runtime=self.runtime,
            representation=spec.representation,
        )
        if spec.kind in ("ingest", "readmix"):
            self.service = IngestionService(
                self.maintainer, wal_dir, serve_reads=spec.kind == "readmix"
            )
        self.setup_s = perf_counter() - started

    def logical(self) -> Dict[str, int]:
        """Exact logical counts so far (static run plus updates)."""
        m = self.maintainer
        counts = {f"init_{k}": getattr(m.init_metrics, k) for k in METER_NAMES}
        counts.update(self.meters())
        if self.service is not None:
            counts["windows"] = self.service.windows_committed
        return counts

    def meters(self) -> Dict[str, int]:
        metrics = self.maintainer.update_metrics
        return {k: getattr(metrics, k) for k in METER_NAMES}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        else:
            self.maintainer.close()

    def discard(self) -> None:
        if self.service is not None:
            self.service.abandon()
        else:
            self.maintainer.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


def _to_update(op):
    insert, u, v = op
    return EdgeInsertion(u, v) if insert else EdgeDeletion(u, v)


class Load:
    """The benchmark side of one run: the pre-generated update and read
    streams and open-loop schedule, how far each has been consumed, and
    what was observed."""

    def __init__(self, ops, reads=(), schedule=()):
        self.ops = ops
        self.updates = [_to_update(op) for op in ops]
        self.reads = list(reads)
        self.schedule = list(schedule)
        self.rewind()

    def rewind(self) -> None:
        """Start over from the first update (a fresh set-up)."""
        self.next_op = 0
        self.next_read = 0
        #: an open loop ran out of arrivals or updates
        self.ran_out = False
        self.skipped: List[int] = []
        self.failed = 0
        self.attempted = 0
        self.frontier = 0
        self.epochs: List[int] = []
        self.staleness: List[int] = []
        self.read_latency: List[float] = []

    def applied_ops(self):
        skip = set(self.skipped)
        return [op for i, op in enumerate(self.ops[:self.next_op])
                if i not in skip]

    def exhausted(self, count: int = 1) -> bool:
        return self.next_op + count > len(self.updates)

    def submit(self, service):
        """Submit the next update; returns its SubmitResult or None."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        try:
            result = service.submit(self.updates[i])
        except ReproError:
            result = None
        if result is None or not result.accepted:
            self.failed += 1
            self.skipped.append(i)
            return None
        self.frontier = result.seq
        return result

    def apply(self, maintainer, count: int) -> None:
        """Apply the next ``count`` updates as one batch."""
        i = self.next_op
        self.next_op += count
        self.attempted += count
        try:
            maintainer.apply_batch(self.updates[i:i + count])
        except ReproError:
            self.failed += count
            self.skipped.extend(range(i, i + count))

    def read(self, service) -> bool:
        """Issue the next read; records its epoch and staleness."""
        kind, arg = self.reads[self.next_read % len(self.reads)]
        self.next_read += 1
        self.attempted += 1
        try:
            if kind == "point":
                answer = service.query_point(arg)
            elif kind == "batch":
                answer = service.query_batch(arg)
            else:
                answer = service.query_why_not(arg)
        except ReproError:
            self.failed += 1
            return False
        self.epochs.append(answer["epoch"])
        self.staleness.append(self.frontier - answer["watermark"])
        return True


def wait_until(target: float) -> None:
    """Sleep, then spin the last millisecond, until ``target``."""
    remaining = target - perf_counter()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while perf_counter() < target:
        pass


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------
def _closed_result(points, extra=None) -> Dict[str, Any]:
    """Throughput of a closed loop from its ``(time, updates done)``
    cycle boundaries: updates over wall time, whole cycles only.

    A shared host changes speed every few seconds, so a run mixes fast
    and slow stretches; the mean moves smoothly with the mix, where the
    median over cycles jumped between the two speeds from run to run.
    """
    (start, _), (end, updates) = points[0], points[-1]
    result = {"updates": updates, "wall": end - start, "start": start,
              "end": end, "cycles": len(points) - 1,
              "rate": updates / (end - start) if end > start else 0.0}
    result.update(extra or {})
    return result


def closed_service(system: System, load: Load, spec: Spec,
                   seconds: float) -> Dict[str, Any]:
    """Submit back to back; a cycle is ``checkpoint_every`` committed
    windows, so each holds one checkpoint.  Stops on the first cycle
    boundary after ``seconds``."""
    service = system.service
    cycle = service.checkpoint_every or 1
    first = load.next_op
    base = service.windows_committed
    start = perf_counter()
    deadline = start + seconds
    points = [(start, 0)]
    while not load.exhausted():
        load.submit(service)
        for _ in range(spec.reads_per_write):
            load.read(service)
        windows = service.windows_committed - base
        if windows % cycle == 0 and windows > cycle * (len(points) - 1):
            now = perf_counter()
            points.append((now, load.next_op - first))
            if now >= deadline:
                break
    service.drain()
    return _closed_result(points)


def closed_apply(system: System, load: Load, spec: Spec,
                 seconds: float) -> Dict[str, Any]:
    """Apply batches of ``spec.batch`` back to back; a cycle is one
    delete-reinsert round's worth of updates (``2k``).  Stops on the
    first cycle boundary after ``seconds`` with at least ``spec.samples``
    calls timed.

    Every update of a batch commits when its ``apply_batch`` call
    returns, so the call's duration is each update's commit lag; the
    percentiles count one sample per call, not per update.
    """
    maintainer = system.maintainer
    cycle = 2 * spec.k
    first = load.next_op
    durations: List[float] = []
    start = perf_counter()
    deadline = start + seconds
    points = [(start, 0)]
    while not load.exhausted(spec.batch):
        began = perf_counter()
        load.apply(maintainer, spec.batch)
        now = perf_counter()
        durations.append(now - began)
        done = load.next_op - first
        if done % cycle == 0:
            points.append((now, done))
            if now >= deadline and len(durations) >= spec.samples:
                break
    return _closed_result(points, {"lags": durations})


def open_loop(system: System, load: Load, seconds: float, tracer=None):
    """Send each write or read when it is due, whatever the service is
    doing, and time each from when it was due.

    Like the closed loop, the phase ends on the first checkpoint-cycle
    boundary after ``seconds``, so every run holds the same share of
    checkpoint stalls.  Writes still waiting at that point are drained
    afterwards and not sampled.
    """
    service = system.service
    cycle = service.checkpoint_every or 1
    base = service.windows_committed
    waiting: deque = deque()  # (seq, due, accepted)
    lags: List[float] = []
    queue_waits: List[float] = []
    late: List[float] = []
    backlog = 0
    start = perf_counter()
    for due, is_read in load.schedule:
        target = start + due
        if perf_counter() < target:
            if tracer is None:
                wait_until(target)
            else:
                with tracer.span("loadgen.wait"):
                    wait_until(target)
        late.append(perf_counter() - target)
        if is_read:
            if load.read(service):
                load.read_latency.append(perf_counter() - target)
        elif load.exhausted():
            load.ran_out = True
            break
        else:
            result = load.submit(service)
            if result is not None:
                waiting.append((result.seq, target, perf_counter()))
            backlog = max(backlog, service.pending)
        watermark = service.applied_watermark
        if waiting and waiting[0][0] <= watermark:
            now = perf_counter()
            while waiting and waiting[0][0] <= watermark:
                _, due_at, accepted = waiting.popleft()
                lags.append(now - due_at)
                queue_waits.append(now - accepted)
        windows = service.windows_committed - base
        if due >= seconds and windows and windows % cycle == 0:
            break
    else:
        load.ran_out = True
    end = perf_counter()
    service.drain()
    return {"lags": lags, "queue_waits": queue_waits, "late": late,
            "backlog": backlog, "start": start, "end": end}


def make_schedule(spec: Spec, seconds: float, seed: int, name: str):
    """Merged open-loop arrivals: ``(due offset, is_read)`` by due time."""
    events = [(t, False) for t in inputs.bursty_arrivals(
        spec.write_rate, seconds, inputs.rng_for(seed, name, "writes"))]
    if spec.read_rate:
        events += [(t, True) for t in inputs.bursty_arrivals(
            spec.read_rate, seconds, inputs.rng_for(seed, name, "reads"))]
    events.sort()
    return events


def make_load(spec: Spec, edges, seed: int, name: str, closed_s: float,
              open_s: float) -> Load:
    """Pre-generate every update, read and arrival the run can consume
    (the open loop may run past ``open_s`` to a cycle boundary)."""
    schedule = []
    if open_s > 0:
        schedule = make_schedule(spec, OPEN_LOOP_HORIZON * open_s, seed, name)
    rng = inputs.rng_for(seed, name, "updates")
    capacity = spec.warmup + max(int(closed_s * spec.max_rate),
                                 spec.samples * spec.batch)
    if spec.kind in ("ingest", "readmix"):
        writes = sum(1 for _, is_read in schedule if not is_read)
        ops = inputs.uniform_stream(spec.n, edges, capacity + writes, rng)
    else:
        make = (inputs.staggered_batches if spec.kind == "batch"
                else inputs.delete_reinsert_rounds)
        parts = make(edges, spec.k, -(-capacity // (2 * spec.k)) + 1, rng)
        ops = [op for part in parts for op in part]
    reads = ()
    if spec.kind == "readmix":
        reads = inputs.read_stream(
            spec.n, 20_000, READ_BATCH, inputs.rng_for(seed, name, "reads")
        )
    return Load(ops, reads, schedule)


def warm_up(system: System, load: Load, spec: Spec) -> None:
    if system.service is not None:
        while load.next_op < spec.warmup:
            load.submit(system.service)
        system.service.drain()
    else:
        if spec.kind == "batch":  # the deletions-only first batch
            load.apply(system.maintainer, spec.k)
        while load.next_op < spec.warmup:
            load.apply(system.maintainer, spec.batch)


def closed_loop(system, load, spec, seconds) -> Dict[str, Any]:
    if system.service is not None:
        return closed_service(system, load, spec, seconds)
    return closed_apply(system, load, spec, seconds)


def timed_phases(system, load, spec, seconds, tracer=None) -> Dict[str, Any]:
    """The closed loop, then (for service workloads) the open loop."""
    result = {"closed": closed_loop(system, load, spec,
                                    seconds * spec.closed_share)}
    if load.schedule:
        result["open"] = open_loop(
            system, load, seconds * (1.0 - spec.closed_share), tracer
        )
    return result


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def _wal_dir(name: str, rep: int) -> str:
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}-{rep}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path)
               if e.name.startswith("wal-"))


def _static(counts: Dict[str, int]) -> Dict[str, int]:
    """The static run's share of ``System.logical()``."""
    return {k: v for k, v in counts.items() if k.startswith("init_")}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stop_resource_tracker() -> None:
    """Stop (and wait for) multiprocessing's resource tracker, which the
    shared-memory frames of the process runtime start."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _metric(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def _latency(report, name, values, q, scale, unit) -> None:
    value = stats.reportable(values, q)
    if value is not None:
        report[name] = _metric(value * scale, unit, len(values))


def run(spec: Spec, name: str, seed: int, seconds: float, trace: bool,
        trace_dir: Optional[str]) -> Dict[str, Any]:
    """One run of workload ``name`` as described by ``spec``."""
    edges = inputs.chung_lu_edges(
        spec.n, AVG_DEGREE, EXPONENT, inputs.rng_for(seed, name, "graph")
    )
    closed_s = seconds * spec.closed_share
    load = make_load(spec, edges, seed, name,
                     closed_s * (1.5 if trace else 1.0), seconds - closed_s)
    # the pre-generated inputs are hundreds of thousands of objects; a
    # full collection that walked them cost the first set-up about 0.07 s
    gc.collect()
    gc.freeze()
    problems: List[str] = []
    result: Dict[str, Any] = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    system = None
    head = 1 if trace else (spec.setup_reps + 1) // 2
    try:
        setup_times, repeats = [], []
        for rep in range(head):
            if system is not None:
                system.discard()
                system = None
                gc.collect()
            load.rewind()
            system = System(spec, edges, _wal_dir(name, rep))
            setup_times.append(system.setup_s)
            warm_up(system, load, spec)
            repeats.append(system.logical())
        problems += checks.check_repeats("set-up and warm-up", repeats)
        result["logical_warmup"] = repeats[0]
        if trace:
            result["per_layer"] = traced_run(
                system, load, spec, seconds, edges, name, trace_dir
            )
        else:
            phases = timed_phases(system, load, spec, seconds)
            # before the checks: reading the WAL back for the audit took
            # 30 MB more on ingest_2k, an amount that grows with the events
            # the host's speed let the closed loop commit
            peak_rss = _peak_rss_mb()
        problems += final_checks(system, load, spec, edges)
        system.close()
        result["logical_final"] = system.logical()
        if system.service is not None:
            problems += checks.check_audit(
                *audit_log(system.wal_dir),
                system.service.admission.stats.accepted,
            )
        if not trace:
            # the rest of the set-ups, after the timed phases, so that
            # setup_s spans the run; their static runs must repeat too
            static = [_static(repeats[0])]
            for rep in range(head, spec.setup_reps):
                system.discard()
                system = None
                gc.collect()
                system = System(spec, edges, _wal_dir(name, rep))
                setup_times.append(system.setup_s)
                static.append(_static(system.logical()))
            problems += checks.check_repeats("static run", static)
            result["metrics"] = e2e_report(spec, phases, load, setup_times)
    finally:
        if system is not None:
            system.discard()
        gc.unfreeze()
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still holds a directory there
            pass
        _stop_resource_tracker()
    if "metrics" in result:
        result["metrics"]["peak_rss_mb"] = _metric(peak_rss, "MB", 1)
        failed_frac = load.failed / max(load.attempted, 1)
        result["metrics"]["failed_frac"] = _metric(
            failed_frac, "ratio", load.attempted
        )
    result.update({
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": not problems, "problems": problems,
        "attempted": load.attempted, "failed": load.failed,
        "env": environment(),
    })
    return result


def e2e_report(spec: Spec, phases, load: Load, setup_times) -> Dict[str, Any]:
    closed = phases["closed"]
    report = {
        "setup_s": _metric(statistics.median(setup_times), "s",
                           len(setup_times)),
        "updates_per_s": _metric(closed["rate"], "1/s", closed["cycles"]),
    }
    lags = phases["open"]["lags"] if "open" in phases else closed["lags"]
    _latency(report, "commit_lag_p50_ms", lags, 0.5, 1e3, "ms")
    _latency(report, "commit_lag_p90_ms", lags, 0.9, 1e3, "ms")
    _latency(report, "commit_lag_p99_ms", lags, 0.99, 1e3, "ms")
    if spec.kind == "readmix":
        _latency(report, "read_p50_us", load.read_latency, 0.5, 1e6, "us")
        _latency(report, "read_p99_us", load.read_latency, 0.99, 1e6, "us")
    return report


def final_checks(system: System, load: Load, spec: Spec, edges) -> List[str]:
    """Outside the timing: the program's answers against the benchmark's
    own greedy over the edge set it tracked."""
    problems: List[str] = []
    if load.exhausted(spec.batch) or load.ran_out:
        problems.append("pre-generated input exhausted before the phase "
                        "ended: raise max_rate or OPEN_LOOP_HORIZON")
    expected = checks.greedy_members(
        spec.n, checks.replay(edges, load.applied_ops())
    )
    problems += checks.compare_members(
        "final members", expected, system.maintainer.independent_set()
    )
    service = system.service
    if service is not None and service.reads is not None:
        problems += checks.compare_members(
            "final epoch", expected, set(service.reads.latest().members())
        )
        problems += checks.check_monotonic("read epochs", load.epochs)
        published = [epoch for epoch, _ in service.reads.history]
        problems += checks.check_monotonic("published epochs", published)
    return problems


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------
def traced_run(system: System, load: Load, spec: Spec, seconds: float,
               edges, name: str, trace_dir: Optional[str]) -> Dict[str, Any]:
    """Untraced closed loop (the overhead base), then the traced phases;
    per-layer metrics come from the traced phases only."""
    base = closed_loop(system, load, spec, 0.5 * seconds * spec.closed_share)
    base_to = load.next_op
    service = system.service
    before = system.meters()
    windows_before = service.windows_committed if service else 0
    history_before = len(service.session.history) if service else 0
    failures_before = service.stats.window_failures if service else 0
    wal_before = _dir_bytes(system.wal_dir) if service else 0
    ops_before = load.next_op
    tracer = spans.Tracer()
    tracer.install(TRACE_POINTS)
    try:
        phases = timed_phases(system, load, spec, seconds, tracer)
    finally:
        tracer.uninstall()
    after = system.meters()
    delta = {k: after[k] - before[k] for k in METER_NAMES}
    table = spans.layer_table(tracer.spans)

    def busy(span_name):
        return table.get(span_name, {}).get("busy_s", 0.0)

    def own(*span_names):
        return sum(table.get(s, {}).get("self_s", 0.0) for s in span_names)

    def count(span_name):
        return table.get(span_name, {}).get("count", 0)

    def pct(values, q):
        return stats.percentile(values, q) if values else 0.0

    closed = phases["closed"]
    opened = phases.get("open", {})
    windows = [r.operations for r in service.session.history[history_before:]
               if not r.failed] if service else []
    affected = [r[spans.SIZE] for r in tracer.spans
                if r[spans.NAME] == "core.affected"]
    covered = spans.coverage(tracer.spans, closed["start"], closed["end"])
    traced_s = closed["end"] - closed["start"]
    if opened:
        open_s = opened["end"] - opened["start"]
        covered = (covered * traced_s + open_s * spans.coverage(
            tracer.spans, opened["start"], opened["end"])) / (traced_s + open_s)
    layers = {
        "loadgen.late_p99_ms": pct(opened.get("late", []), 0.99) * 1e3,
        "loadgen.max_backlog": opened.get("backlog", 0),
        "serve.self_s": own("serve.submit", "serve.drain"),
        "serve.windows": (service.windows_committed - windows_before
                          if service else 0),
        "serve.window_ops_p50": pct(windows, 0.5),
        "serve.queue_wait_p99_ms":
            pct(opened.get("queue_waits", []), 0.99) * 1e3,
        "serve.window_failures": (service.stats.window_failures
                                  - failures_before if service else 0),
        "serve.wal.appends": count("serve.wal.append"),
        "serve.wal.append_s": busy("serve.wal.append"),
        "serve.wal.fsyncs": count("serve.wal.fsync"),
        "serve.wal.fsync_s": busy("serve.wal.fsync"),
        "serve.wal.bytes": (_dir_bytes(system.wal_dir) - wal_before
                            if service else 0),
        "serve.checkpoint.calls": count("serve.checkpoint"),
        "serve.checkpoint.s": busy("serve.checkpoint"),
        "serve.reads.publishes": count("serve.reads.publish"),
        "serve.reads.publish_s": busy("serve.reads.publish"),
        "serve.reads.queries": count("serve.reads.query"),
        "serve.reads.query_s": busy("serve.reads.query"),
        "serve.reads.staleness_p99": pct(load.staleness, 0.99),
        "stream.flushes": count("stream.flush"),
        "stream.self_s": own("stream.flush"),
        "core.batches": count("core.apply_batch"),
        "core.ops": load.next_op - ops_before,
        "core.self_s": own("core.apply_batch", "core.affected"),
        "core.affected_p50": pct(affected, 0.5),
        "core.affected_p99": pct(affected, 0.99),
        "core.affected_max": max(affected, default=0),
        "core.useful_ratio": (delta["state_changes"] / delta["active_vertices"]
                              if delta["active_vertices"] else 0.0),
        "graph.mutations": count("graph.mutate"),
        "graph.mutate_s": busy("graph.mutate"),
        "graph.csr_ensure_calls": count("graph.csr_ensure"),
        "graph.csr_ensure_s": busy("graph.csr_ensure"),
        "graph.csr_sync_s": busy("graph.csr_sync"),
        "scaleg.runs": count("scaleg.run"),
        "scaleg.supersteps": delta["supersteps"],
        "scaleg.self_s": own("scaleg.run"),
        "scaleg.charge_s": busy("scaleg.charge"),
        "scaleg.bytes_sent": delta["bytes_sent"],
        "runtime.sweeps": count("runtime.sweep"),
        "runtime.sweep_s": busy("runtime.sweep"),
        "runtime.commit_s": busy("runtime.commit"),
        "runtime.compute_work": delta["compute_work"],
        "runtime.scans_per_active": (delta["compute_work"]
                                     / delta["active_vertices"]
                                     if delta["active_vertices"] else 0.0),
        "runtime.frame_bytes": 0,
        "runtime.spawn_s": 0.0,
        "runtime.speedup_vs_inline": 0.0,
        "trace.coverage": covered,
        "trace.overhead": closed["rate"] / base["rate"],
    }
    if spec.kind == "batch":
        layers.update(process_runtime_rerun(
            spec, edges, load.ops[:base_to], base["wall"]
        ))
    if trace_dir is not None:
        out = os.path.join(trace_dir, name)
        os.makedirs(out, exist_ok=True)
        origin = closed["start"]
        spans.write_jsonl(tracer.spans, os.path.join(out, "spans.jsonl"),
                          origin)
        spans.write_chrome(tracer.spans, os.path.join(out, "trace.json"),
                           origin)
        with open(os.path.join(out, "layers.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": name, "layers": table,
                       "per_layer": layers}, handle, indent=1, sort_keys=True)
    return {k: _metric(float(v), PER_LAYER[k]["unit"], 1)
            for k, v in layers.items()}


def process_runtime_rerun(spec: Spec, edges, ops,
                          inline_wall: float) -> Dict[str, float]:
    """Warm up, then replay the rest of ``ops`` (the untraced closed
    loop's batches) on the process runtime, same representation: its
    speedup over inline (above 1 means faster), spawn time and pipe
    traffic."""
    system = System(spec, edges, _wal_dir("procs", 0),
                    procs=PROCESS_RUNTIME_PROCS)
    try:
        maintainer = system.maintainer
        replay = Load(ops)
        warm_up(system, replay, spec)
        system.runtime.reset_frame_stats()
        start = perf_counter()
        while not replay.exhausted(spec.batch):
            replay.apply(maintainer, spec.batch)
        wall = perf_counter() - start
        frames = system.runtime.frame_stats()
    finally:
        system.discard()
    return {
        "runtime.speedup_vs_inline": inline_wall / wall,
        "runtime.spawn_s": system.spawn_s,
        "runtime.frame_bytes": (frames["frame_bytes_sent"]
                                + frames["frame_bytes_received"]),
    }


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.workload, args.seed,
                 args.seconds, bool(args.trace), args.trace_dir)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
