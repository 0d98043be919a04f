"""Seeded perf-regression microbenchmarks (``repro-mis bench-perf``).

The tension this suite guards: the rank-ordered adjacency cache and the
engine hot-loop work are *pure* optimizations — every logical meter
(members, supersteps, activations, state changes, messages, bytes) must be
bit-identical to the unoptimized code, while ``compute_work`` (neighbour
scans) is expected to shrink.  Each scenario is fully seeded, so the
logical section of the emitted JSON is deterministic down to the byte and
``compute_work`` is deterministic too; wall time and memory are recorded
for trend-watching but never compared.

``run_suite`` executes the scenarios, ``write_baseline`` commits the result
as ``BENCH_core.json`` at the repo root, and ``check_against`` diffs a fresh
run against the committed baseline — the CI smoke job fails on any drift in
a logical field or in ``compute_work``.

Scenario naming follows the paper's experiments: ``static_oimis_*`` are
full static computations (Table II conditions), ``fig10_single_*`` replay a
delete-reinsert stream one update at a time (Fig. 10), ``fig11_batch_*``
replay it in batches (Fig. 11).  ``runtime_static_oimis_*`` compare the
inline executor against the multi-process :mod:`repro.runtime` backend
across ``procs`` ∈ {1, 2, 4, 8}, asserting bit-identical logical meters and
recording the measured speedup curve (trend data, machine-dependent — the
entry carries ``cpu_count`` so a 1-core runner's flat curve reads as what
it is).  Every scenario sweeps on the default flat-array CSR layout
(:mod:`repro.graph.csr`); the process runtime copies it into the
shared-memory frame its workers map.  ``serve_*`` scenarios push a seeded bursty trace through the
durable ingestion service (:mod:`repro.serve`) and record sustained
updates/s and per-window latency percentiles; their logical
sections are pinned too, because every serve control decision is a function
of logical meters and event time only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

from repro.core.activation import ActivationStrategy
from repro.core.baselines import make_algorithm
from repro.core.oimis import run_oimis
from repro.bench.workloads import delete_reinsert_workload
from repro.graph.datasets import load_dataset
from repro.pregel.metrics import LOGICAL_METERS, RunMetrics

FORMAT = "repro-mis-bench-perf"
VERSION = 1

#: the logical meters pinned bit-for-bit; ``compute_work`` is reported
#: (and checked) in the perf section instead
_PINNED_METERS = tuple(name for name in LOGICAL_METERS if name != "compute_work")
#: logical fields that must match the baseline bit-for-bit
LOGICAL_FIELDS = ("members_size", "members_checksum") + _PINNED_METERS


def members_checksum(members) -> str:
    """First 16 hex chars of sha256 over the sorted, comma-joined ids."""
    blob = ",".join(str(u) for u in sorted(members)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sections(members, metrics: RunMetrics) -> Dict[str, Any]:
    active = metrics.active_vertices
    return {
        "logical": {
            "members_size": len(members),
            "members_checksum": members_checksum(members),
            **{name: getattr(metrics, name) for name in _PINNED_METERS},
        },
        "perf": {
            "compute_work": metrics.compute_work,
            "scans_per_active_vertex": round(
                metrics.compute_work / active, 3
            ) if active else 0.0,
            "wall_time_s": round(metrics.wall_time_s, 3),
            "peak_worker_memory_bytes": metrics.peak_worker_memory_bytes,
        },
    }


# ---------------------------------------------------------------------------
# scenarios (each returns the params echo plus logical/perf sections)
# ---------------------------------------------------------------------------
def _static_oimis(tag: str) -> Dict[str, Any]:
    graph = load_dataset(tag)
    run = run_oimis(graph, num_workers=10, strategy=ActivationStrategy.ALL)
    result = _sections(run.independent_set, run.metrics)
    result["params"] = {"kind": "static_oimis", "dataset": tag,
                        "workers": 10, "strategy": "all"}
    return result


def _maintenance(
    tag: str, k: int, seed: int, batch_size: int, algorithm: str = "DOIMIS*"
) -> Dict[str, Any]:
    """Replay a delete-reinsert stream: one update at a time (Fig. 10) or
    in batches (Fig. 11)."""
    base = load_dataset(tag)
    ops = delete_reinsert_workload(base, k, seed=seed)
    maintainer = make_algorithm(algorithm, base.copy(), num_workers=10)
    maintainer.apply_stream(ops, batch_size=batch_size)
    result = _sections(maintainer.independent_set(), maintainer.update_metrics)
    result["params"] = {
        "kind": "fig10_single" if batch_size == 1 else "fig11_batch",
        "dataset": tag, "k": k, "seed": seed, "batch_size": batch_size,
        "workers": 10, "algorithm": algorithm,
    }
    return result


#: worker-process counts swept by the runtime-comparison scenarios
RUNTIME_PROC_COUNTS = (1, 2, 4, 8)


def _runtime_static_oimis(tag: str) -> Dict[str, Any]:
    """Inline-vs-process runtime comparison on one static computation.

    The inline run provides the logical section (pinned by ``--check`` like
    every other scenario); each process-runtime run must reproduce it
    bit-for-bit — any divergence raises instead of being recorded.  Wall
    times and the derived speedups are trend data only (never compared):
    they are honest measurements of *this* machine, so the recorded
    ``cpu_count`` is part of the entry — speedup curves flatten at the
    physical core count, and a 1-CPU container cannot show any.
    """
    import os

    from repro.runtime import ParallelRuntime

    graph = load_dataset(tag)
    inline = run_oimis(
        graph, num_workers=10, strategy=ActivationStrategy.ALL
    )
    result = _sections(inline.independent_set, inline.metrics)
    inline_wall = inline.metrics.wall_time_s
    curve: Dict[str, Any] = {}
    for procs in RUNTIME_PROC_COUNTS:
        runtime = ParallelRuntime(procs=procs)
        try:
            runtime.prestart(num_partitions=10)  # spawn outside the timing
            run = run_oimis(
                load_dataset(tag), num_workers=10,
                strategy=ActivationStrategy.ALL, runtime=runtime,
            )
        finally:
            runtime.close()
        if run.independent_set != inline.independent_set:
            raise RuntimeError(
                f"runtime_static_oimis_{tag}: process runtime (procs="
                f"{procs}) diverged from inline members"
            )
        reference = inline.metrics.logical()
        for name, value in run.metrics.logical().items():
            if value != reference[name]:
                raise RuntimeError(
                    f"runtime_static_oimis_{tag}: meter {name} diverged "
                    f"under procs={procs}"
                )
        wall = run.metrics.wall_time_s
        curve[str(procs)] = {
            "wall_time_s": round(wall, 3),
            "speedup_vs_inline": round(inline_wall / wall, 3) if wall else 0.0,
        }
    result["params"] = {"kind": "runtime_static_oimis", "dataset": tag,
                        "workers": 10, "strategy": "all"}
    result["perf"]["runtime"] = {
        "backend": "process",
        "cpu_count": os.cpu_count(),
        "inline_wall_time_s": round(inline_wall, 3),
        "procs": curve,
    }
    return result


def _serve(
    tag: str,
    num_ops: int,
    seed: int,
    poison_prob: float = 0.0,
    admission_policy: str = "block",
    high_watermark: int = 512,
    low_watermark: int = 128,
    window: int = 64,
    backoff_s: float = 0.2,
    read_mix: float = 0.0,
    read_batch: int = 32,
) -> Dict[str, Any]:
    """A seeded bursty trace through the durable ingestion service.

    Replays the trace through a full
    :class:`~repro.serve.service.IngestionService` — WAL, admission
    control, ``window``-event windows, retry/quarantine — via
    :func:`repro.serve.drive`.  The logical section is pinned like any
    other scenario: every control decision (window boundaries, sheds,
    retries, quarantines) reads logical meters and event time only, so the
    applied stream is deterministic per seed even with poison operations
    in the trace.  Exactly-once accounting is asserted via the WAL audit.

    With ``read_mix`` > 0 the epoch snapshot read path is on and a seeded
    query stream is interleaved (0.99 → 99 reads per accepted write: a
    read-heavy serving tier over a trickle of updates).  The read
    *counters* — queries by kind, vertices answered, epochs published, the
    epoch-staleness distribution — are pure functions of the seed and land
    in the pinned logical section; read latency percentiles and reads/s
    are wall-clock trend data under ``perf.reads``.  Without reads,
    sustained updates/s and per-window latency percentiles are recorded
    under ``perf.serve``.
    """
    import shutil
    import tempfile

    from repro.core.maintainer import MISMaintainer
    from repro.serve import (
        AdmissionConfig,
        IngestionService,
        RetryPolicy,
        TraceConfig,
        audit_log,
        bursty_trace,
        drive,
    )
    from repro.util import percentile

    kind = "serve_read_mix" if read_mix else "serve_bursty"
    ops, timestamps = bursty_trace(
        load_dataset(tag),
        TraceConfig(num_ops=num_ops, seed=seed, poison_prob=poison_prob),
    )
    maintainer = MISMaintainer(
        load_dataset(tag), num_workers=10,
        strategy=ActivationStrategy.SAME_STATUS,
    )
    wal_dir = tempfile.mkdtemp(prefix="serve-bench-")
    try:
        with IngestionService(
            maintainer, wal_dir, window_size=window,
            admission=AdmissionConfig(
                policy=admission_policy, high_watermark=high_watermark,
                low_watermark=low_watermark,
            ),
            retry=RetryPolicy(max_retries=1, backoff_base_s=backoff_s),
            checkpoint_every=0,  # checkpoint cost stays out of the timing
            serve_reads=read_mix > 0,
        ) as service:
            ingest_wall, stale_samples = drive(
                service, ops, timestamps, read_mix=read_mix,
                read_batch=read_batch, seed=seed,
            )
        problems, audit = audit_log(wal_dir)
        if problems:
            raise RuntimeError(
                f"{kind}_{tag}: WAL audit failed: {problems[:3]}"
            )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    entry = _sections(maintainer.independent_set(), maintainer.update_metrics)
    updates_per_s = (round(audit["applied"] / ingest_wall, 1)
                     if ingest_wall else 0.0)
    if not read_mix:
        session = service.session.totals()
        entry["params"] = {"kind": kind, "dataset": tag,
                           "num_ops": num_ops, "seed": seed,
                           "poison_prob": poison_prob,
                           "admission": admission_policy, "workers": 10}
        entry["perf"]["serve"] = {
            # throughput/latency are trend data; the counters are
            # deterministic
            "updates_per_s": updates_per_s,
            "ingest_wall_s": round(ingest_wall, 3),
            "window_wall_p50_s": round(session["wall_time_p50_s"], 5),
            "window_wall_p95_s": round(session["wall_time_p95_s"], 5),
            "window_wall_p99_s": round(session["wall_time_p99_s"], 5),
            "applied": audit["applied"],
            "accepted": service.admission.stats.accepted,
            "shed": service.admission.stats.shed,
            "blocked": service.admission.stats.blocked,
            "quarantined": audit["quarantined"],
            "windows": audit["commits"],
            "window_failures": service.stats.window_failures,
            "bisections": service.stats.bisections,
            "max_pending": service.max_pending,
        }
        return entry
    engine = service.query_engine
    reads_logical = dict(engine.logical_stats())
    stale_sorted = sorted(stale_samples)
    for tag_q, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        reads_logical[f"staleness_{tag_q}"] = int(
            percentile(stale_sorted, q)
        )
    read_stats = engine.read_stats()
    reads_logical["final_epoch"] = read_stats["epoch"]
    reads_logical["final_watermark"] = read_stats["watermark"]
    entry["params"] = {"kind": kind, "dataset": tag,
                       "num_ops": num_ops, "seed": seed,
                       "read_mix": read_mix, "read_batch": read_batch,
                       "workers": 10}
    entry["logical"]["reads"] = reads_logical
    entry["perf"]["reads"] = {
        # latency/throughput are trend data; the counters above are pinned
        "reads_per_s": read_stats["reads_per_s"],
        "latency_p50_ms": read_stats["latency_p50_ms"],
        "latency_p95_ms": read_stats["latency_p95_ms"],
        "latency_p99_ms": read_stats["latency_p99_ms"],
        "updates_per_s": updates_per_s,
        "ingest_wall_s": round(ingest_wall, 3),
    }
    return entry


def _elastic_transitions(
    tag: str, k: int, seed: int, batch_size: int,
    joins: Tuple[Tuple[int, int], ...] = (),
    drains: Tuple[Tuple[int, int], ...] = (),
) -> Dict[str, Any]:
    """Voluntary joins/drains mid-stream vs a static-membership reference.

    :func:`repro.faults.chaos.rebalance_case` is the oracle (any failure —
    drift from the static run, no transition applied, no movement charged
    — raises); the elastic run's sections become the entry, with the
    deterministic ``rebalance_*`` meters pinned inside the logical section
    (movement cost is part of the contract) and the per-transition trace —
    moved counts, modelled barrier stall, post-transition residency skew —
    recorded under ``perf.elastic``.  ``joins``/``drains`` are
    ``(worker, run)`` pairs.
    """
    from repro.faults.chaos import ChaosWorkload, rebalance_case

    result = rebalance_case(
        ChaosWorkload(tag=tag, k=k, batch_size=batch_size,
                      workload_seed=seed),
        joins=joins, drains=drains,
    )
    if result.failures:
        raise RuntimeError(
            f"elastic_transitions_{tag}: {'; '.join(result.failures)}"
        )
    elastic = result.elastic
    entry = _sections(elastic.independent_set(), elastic.update_metrics)
    entry["logical"]["rebalance"] = dict(result.rebalance)
    num_vertices = elastic.graph.num_vertices
    entry["params"] = {"kind": "elastic_transitions", "dataset": tag,
                       "k": k, "seed": seed, "batch_size": batch_size,
                       "workers": 10, "joins": [list(j) for j in joins],
                       "drains": [list(d) for d in drains]}
    entry["perf"]["elastic"] = {
        "transitions": result.transitions,
        "members_after": len(result.members),
        "moved_fraction": round(
            result.rebalance["rebalance_moved_vertices"] / num_vertices, 4
        ) if num_vertices else 0.0,
        "post_skew": round(result.skew, 4),
    }
    return entry


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "static_oimis_SKI": lambda: _static_oimis("SKI"),
    "static_oimis_TW": lambda: _static_oimis("TW"),
    "fig10_single_SKI": lambda: _maintenance("SKI", 60, 7, 1),
    "fig10_single_scall_SKI": lambda: _maintenance("SKI", 60, 7, 1, "SCALL"),
    "fig11_batch_TW": lambda: _maintenance("TW", 150, 11, 25),
    "fig11_batch_AM": lambda: _maintenance("AM", 100, 13, 20),
    "runtime_static_oimis_SKI": lambda: _runtime_static_oimis("SKI"),
    "runtime_static_oimis_TW": lambda: _runtime_static_oimis("TW"),
    "serve_bursty_AM": lambda: _serve("AM", 400, 7),
    "serve_poison_SL": lambda: _serve(
        "SL", 300, 11, poison_prob=0.05, admission_policy="shed",
        high_watermark=24, low_watermark=8, window=16, backoff_s=0.5),
    "serve_read_mix_AM": lambda: _serve("AM", 300, 7, read_mix=0.99),
    "elastic_scale_up_TW": lambda: _elastic_transitions(
        "TW", 100, 11, 25, joins=((10, 2), (11, 3))),
    "elastic_drain_SKI": lambda: _elastic_transitions(
        "SKI", 60, 7, 10, drains=((5, 3),)),
}


# ---------------------------------------------------------------------------
# suite driver / baseline IO / drift check
# ---------------------------------------------------------------------------
def _stable_sections(entry: Dict[str, Any]) -> Tuple[Any, Any]:
    """The deterministic parts of a scenario result (everything ``--check``
    pins): the logical section plus ``compute_work``."""
    return (entry["logical"], entry["perf"].get("compute_work"))


def _run_scenario(
    name: str, repeat: int, profile_dir: Any = None
) -> Dict[str, Any]:
    """Run one scenario ``repeat`` times (median/min wall time), optionally
    dumping a cProfile ``.pstats`` file from one extra profiled run."""
    import statistics

    fn = SCENARIOS[name]
    entry = fn()
    walls = [entry["perf"]["wall_time_s"]]
    for _ in range(repeat - 1):
        again = fn()
        if _stable_sections(again) != _stable_sections(entry):
            raise RuntimeError(
                f"{name}: logical section or compute_work changed between "
                "repeats — the scenario is not deterministic"
            )
        walls.append(again["perf"]["wall_time_s"])
    if repeat > 1:
        entry["perf"]["wall_time_s"] = round(statistics.median(walls), 3)
        entry["perf"]["wall_time_min_s"] = round(min(walls), 3)
        entry["perf"]["repeats"] = repeat
    if profile_dir is not None:
        import cProfile
        import os

        os.makedirs(profile_dir, exist_ok=True)
        profiler = cProfile.Profile()
        profiler.enable()
        profiled = fn()
        profiler.disable()
        if _stable_sections(profiled) != _stable_sections(entry):
            raise RuntimeError(
                f"{name}: logical section or compute_work changed under "
                "profiling — the scenario is not deterministic"
            )
        profiler.dump_stats(os.path.join(profile_dir, f"{name}.pstats"))
    return entry


def run_suite(
    names: Tuple[str, ...] = (),
    repeat: int = 1,
    profile_dir: Any = None,
) -> Dict[str, Any]:
    """Run the selected scenarios (default: all) and return the document.

    ``repeat`` runs each scenario that many times: the recorded
    ``wall_time_s`` becomes the median, ``wall_time_min_s`` the minimum,
    and the logical sections must be bit-identical across repeats (a
    mismatch raises — the suite's whole premise is determinism).
    ``profile_dir`` additionally profiles one extra run of each scenario
    with :mod:`cProfile` and dumps ``<scenario>.pstats`` files there; the
    profiled run is never the timed one.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    selected = names or tuple(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(sorted(unknown))}")
    return {
        "format": FORMAT,
        "version": VERSION,
        "scenarios": {
            name: _run_scenario(name, repeat, profile_dir)
            for name in selected
        },
    }


def write_baseline(path: str, document: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    if document.get("version") != VERSION:
        raise ValueError(
            f"{path}: version {document.get('version')!r}, expected {VERSION}"
        )
    return document


def check_against(
    baseline: Dict[str, Any], fresh: Dict[str, Any]
) -> List[str]:
    """Diff a fresh run against the committed baseline.

    Logical fields and ``compute_work`` are compared exactly (both are
    deterministic); wall time and memory are never compared.  Returns a list
    of human-readable drift descriptions — empty means the check passed.
    """
    problems: List[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name, fresh_entry in fresh.get("scenarios", {}).items():
        base_entry = base_scenarios.get(name)
        if base_entry is None:
            problems.append(f"{name}: missing from baseline (re-generate it)")
            continue
        for field in LOGICAL_FIELDS:
            expected = base_entry["logical"].get(field)
            got = fresh_entry["logical"].get(field)
            if got != expected:
                problems.append(
                    f"{name}: logical field {field} drifted: "
                    f"expected {expected!r}, got {got!r}"
                )
        # scenario-specific logical sub-sections (reads, rebalance, ...)
        # are deterministic too — pin them whole
        extras = set(base_entry["logical"]) | set(fresh_entry["logical"])
        for field in sorted(extras - set(LOGICAL_FIELDS)):
            expected = base_entry["logical"].get(field)
            got = fresh_entry["logical"].get(field)
            if got != expected:
                problems.append(
                    f"{name}: logical section {field} drifted: "
                    f"expected {expected!r}, got {got!r}"
                )
        expected_work = base_entry["perf"].get("compute_work")
        got_work = fresh_entry["perf"].get("compute_work")
        if got_work != expected_work:
            problems.append(
                f"{name}: compute_work drifted: "
                f"expected {expected_work!r}, got {got_work!r}"
            )
    return problems
