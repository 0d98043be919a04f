"""Tests for :mod:`repro.runtime` — pluggable execution backends.

The contract under test: :class:`ParallelRuntime` is a *pure* execution
substrate.  Members, every logical meter, and the quarantined
``recovery_*`` / ``rebalance_*`` meters must be bit-identical to the
default :class:`InlineExecutor` — on static computations, on update
streams, and with the fault injector firing crashes, stragglers, and
permanent worker losses inside the owning worker processes.

The process-runtime equivalence tests run against the committed
``BENCH_core.json`` baseline where one exists (the same pin ``bench-perf
--check`` enforces), so a divergence here and a CI drift are the same
failure.  Worker processes are forked (not spawned) for speed; one test
exercises the spawn path explicitly since that is the runtime's default.
``REPRO_TEST_PROCS`` overrides the worker count used by the shared
fixture (CI runs the file at ``--procs 2`` under two hash seeds).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activation import ActivationStrategy
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import (
    OIMISProgram,
    independent_set_from_states,
    run_oimis,
)
from repro.bench import perf
from repro.bench.workloads import delete_reinsert_workload
from repro.core.baselines import make_algorithm
from repro.core.dismis import DisMISProgram
from repro.errors import ParallelRuntimeError
from repro.faults.chaos import plan_for
from repro.faults.plan import CrashSpec, FaultPlan, LossSpec
from repro.graph.datasets import load_dataset
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.pregel.metrics import FAMILIES, LOGICAL_METERS, RunMetrics
from repro.pregel.partition import HashPartitioner
from repro.runtime import (
    BarrierDraws,
    ExecutionBackend,
    InlineExecutor,
    ParallelRuntime,
    resolve_runtime,
)
from repro.scaleg.engine import ScaleGEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: worker-process count for the shared runtime (CI overrides via env)
_PROCS = int(os.environ.get("REPRO_TEST_PROCS", "2"))

#: every meter the runtimes must agree on, logical and quarantined alike
_METERS = LOGICAL_METERS


def _meter_tuple(metrics: RunMetrics, fault_meters: bool = False):
    meters = {name: getattr(metrics, name) for name in _METERS}
    if fault_meters:
        for prefix in FAMILIES:
            meters.update(metrics.family(prefix))
    return meters


# ---------------------------------------------------------------------------
# shared runtimes (forked for speed; bind() re-initialises on graph change,
# so one pool serves every test — the hypothesis test caches one per procs)
# ---------------------------------------------------------------------------
_CACHED_RUNTIMES = {}


def _cached_runtime(procs: int) -> ParallelRuntime:
    runtime = _CACHED_RUNTIMES.get(procs)
    if runtime is None:
        runtime = ParallelRuntime(procs=procs, start_method="fork")
        _CACHED_RUNTIMES[procs] = runtime
    return runtime


@pytest.fixture(scope="module", autouse=True)
def _close_cached_runtimes():
    yield
    for runtime in _CACHED_RUNTIMES.values():
        runtime.close()
    _CACHED_RUNTIMES.clear()


@pytest.fixture()
def proc_runtime() -> ParallelRuntime:
    return _cached_runtime(_PROCS)


# ---------------------------------------------------------------------------
# resolve_runtime
# ---------------------------------------------------------------------------
def test_resolve_runtime_selects_backends():
    assert isinstance(resolve_runtime(None), InlineExecutor)
    assert isinstance(resolve_runtime("inline"), InlineExecutor)
    process = resolve_runtime("process", procs=2)
    try:
        assert isinstance(process, ParallelRuntime)
        assert process.procs == 2
    finally:
        process.close()
    backend = InlineExecutor()
    assert resolve_runtime(backend) is backend
    with pytest.raises(ValueError, match="unknown runtime"):
        resolve_runtime("threads")


def test_backend_kinds():
    assert InlineExecutor().kind == "inline"
    assert ParallelRuntime(procs=1).kind == "process"
    assert isinstance(InlineExecutor(), ExecutionBackend)


# ---------------------------------------------------------------------------
# process runtime reproduces the committed bench baseline bit-for-bit
# ---------------------------------------------------------------------------
def _static_on(runtime, tag):
    graph = load_dataset(tag)
    run = run_oimis(graph, num_workers=10, strategy=ActivationStrategy.ALL,
                    runtime=runtime)
    return perf._sections(run.independent_set, run.metrics)


def _maintained_on(runtime, tag, k, seed, batch_size, algorithm="DOIMIS*"):
    base = load_dataset(tag)
    maintainer = make_algorithm(algorithm, base.copy(), num_workers=10,
                                runtime=runtime)
    maintainer.apply_stream(delete_reinsert_workload(base, k, seed=seed),
                            batch_size=batch_size)
    return perf._sections(maintainer.independent_set(),
                          maintainer.update_metrics)


#: the bench-perf scenarios' workloads, rebuilt on a caller-given runtime
_SCENARIO_BUILDERS = {
    "static_oimis_SKI": lambda rt: _static_on(rt, "SKI"),
    "static_oimis_TW": lambda rt: _static_on(rt, "TW"),
    "fig10_single_SKI": lambda rt: _maintained_on(rt, "SKI", 60, 7, 1),
    "fig10_single_scall_SKI": lambda rt: _maintained_on(
        rt, "SKI", 60, 7, 1, "SCALL"
    ),
    "fig11_batch_TW": lambda rt: _maintained_on(rt, "TW", 150, 11, 25),
    "fig11_batch_AM": lambda rt: _maintained_on(rt, "AM", 100, 13, 20),
}


def _load_baseline():
    with open(os.path.join(REPO_ROOT, "BENCH_core.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_SCENARIO_BUILDERS))
def test_bench_scenarios_bit_identical_under_process_runtime(
    name, proc_runtime
):
    """Each seeded bench scenario, run on the process runtime, must equal
    the committed baseline — the exact pin ``bench-perf --check`` enforces
    for the inline path."""
    baseline = _load_baseline()["scenarios"][name]
    entry = _SCENARIO_BUILDERS[name](proc_runtime)
    assert entry["logical"] == baseline["logical"]
    assert entry["perf"]["compute_work"] == baseline["perf"]["compute_work"]


# ---------------------------------------------------------------------------
# fault injection fires *inside* the owning worker and stays bit-identical
# ---------------------------------------------------------------------------
_FAULT_CASES = {
    # preset plans at seeds verified to actually fire on this workload
    "crash": (lambda: plan_for("crash", seed=0), "recovery_crashes"),
    "straggler": (
        lambda: plan_for("straggler", seed=0), "recovery_straggler_s"
    ),
    # the worker-loss preset's loss_prob is tuned for the big chaos
    # harness and never fires at this scale — pin a hotter seeded plan
    "worker-loss": (
        lambda: FaultPlan(loss_prob=0.03, seed=1),
        "recovery_replayed_supersteps",
    ),
    # a loss and a crash at the same barrier: the loss aborts the barrier
    # first, so the crash fires only on the replay — on every backend
    "loss+crash": (
        lambda: FaultPlan(
            losses=(LossSpec(1, 2, run=0),),
            crashes=(CrashSpec(1, 3, run=0),),
        ),
        "recovery_crashes",
    ),
}


def _chaos_run(plan: FaultPlan, runtime=None):
    graph = erdos_renyi(150, 450, seed=3)
    dgraph = DistributedGraph(graph, HashPartitioner(8))
    engine = ScaleGEngine(dgraph, faults=plan, runtime=runtime)
    result = engine.run(OIMISProgram())
    return independent_set_from_states(result.states), result.metrics


# the process runtime sweeps CSR kernels only, and ScaleG is the one engine
# that takes a runtime; the ids name it
@pytest.mark.parametrize("case", sorted(_FAULT_CASES),
                         ids=lambda case: f"{case}-scaleg")
def test_chaos_equivalence(case, proc_runtime):
    make_plan, fire_meter = _FAULT_CASES[case]
    inline_members, inline_metrics = _chaos_run(make_plan())
    # the test is vacuous unless the fault actually fired
    assert getattr(inline_metrics, fire_meter) > 0
    proc_members, proc_metrics = _chaos_run(make_plan(), runtime=proc_runtime)
    assert proc_members == inline_members
    assert _meter_tuple(proc_metrics, fault_meters=True) == \
        _meter_tuple(inline_metrics, fault_meters=True)


@pytest.mark.parametrize("case", ["crash"], ids=["scaleg"])
def test_tampered_fault_slice_is_caught(case, proc_runtime, monkeypatch):
    """A worker echoing a schedule other than the one shipped is a broken
    runtime, not a fault to recover from."""
    honest = BarrierDraws.slice_for

    def drop_crashes(self, owned):
        delays, lost, _crashed = honest(self, owned)
        return delays, lost, []

    monkeypatch.setattr(BarrierDraws, "slice_for", drop_crashes)
    with pytest.raises(ParallelRuntimeError, match="echo"):
        _chaos_run(_FAULT_CASES[case][0](), runtime=proc_runtime)


# ---------------------------------------------------------------------------
# the CSR frame reproduces the inline kernel sweep field by field, with
# and without a fault plan attached
# ---------------------------------------------------------------------------
def _mid_run_engine(faults):
    """A ScaleG engine whose CSR mirror sits mid-computation: a converged
    run, then edge churn (repaired rows) and a scrambled membership."""
    graph = erdos_renyi(120, 360, seed=4)
    dgraph = DistributedGraph(graph, HashPartitioner(7))
    engine = ScaleGEngine(dgraph, faults=faults)
    program = OIMISProgram(strategy=ActivationStrategy.SAME_STATUS)
    states = engine.run(program).states
    for u, v in [tuple(e) for e in graph.sorted_edges()][::9]:
        dgraph.remove_edge(u, v)
    dgraph.add_edge(0, 119)
    for u in sorted(states):
        states[u] = u % 3 != 0
    engine._csr.ensure()
    engine._csr.sync_states(states)
    return engine, program, states


def _sweep_fields(sweep):
    return (sweep.new_states, sweep.changed, sweep.forced, sweep.requests,
            sweep.compute_work, sweep.worker_work)


@pytest.mark.parametrize("procs", [1, 2, 3])
@pytest.mark.parametrize("faults", ["none", "crash"])
def test_csr_frame_sweep_matches_inline(faults, procs):
    engine, program, states = _mid_run_engine(plan_for(faults, seed=0))
    assert (engine._faults is None) == (faults == "none")
    active = sorted(states)
    runtime = ParallelRuntime(procs=procs, start_method="fork")
    try:
        runtime.bind(engine)
        runtime.begin_run(program)
        frame = runtime.sweep_scaleg(active, 0)
    finally:
        runtime.close()
        engine.close()
    inline = InlineExecutor()
    inline.bind(engine)
    inline.begin_run(program)
    reference = inline.sweep_scaleg(active, 0)
    assert reference.changed and reference.compute_work
    assert _sweep_fields(frame) == _sweep_fields(reference)
    assert frame.csr is not None and reference.csr is not None
    assert reference.csr.req_src.size
    for name in ("changed_idx", "changed_val", "req_src", "req_tgt"):
        assert (getattr(frame.csr, name).tolist()
                == getattr(reference.csr, name).tolist())


# ---------------------------------------------------------------------------
# sweeps without a CSR kernel are refused before any process spawns
# ---------------------------------------------------------------------------
def _run_dismis_scaleg(dgraph, runtime):
    ScaleGEngine(dgraph, runtime=runtime).run(DisMISProgram())


def _run_dict_scaleg(dgraph, runtime):
    ScaleGEngine(dgraph, runtime=runtime, representation="dict").run(
        OIMISProgram()
    )


_NO_KERNEL_RUNS = {
    "scaleg-dismis": _run_dismis_scaleg,
    "scaleg-dict": _run_dict_scaleg,
}


@pytest.mark.parametrize("case", sorted(_NO_KERNEL_RUNS))
def test_process_runtime_refuses_sweeps_without_csr_kernel(case):
    dgraph = DistributedGraph(path_graph(8), HashPartitioner(4))
    before = set(multiprocessing.active_children())
    runtime = ParallelRuntime(procs=2)
    try:
        with pytest.raises(ParallelRuntimeError, match="inline"):
            _NO_KERNEL_RUNS[case](dgraph, runtime)
        assert set(multiprocessing.active_children()) == before
    finally:
        runtime.close()


# ---------------------------------------------------------------------------
# dynamic maintenance: the full update API reaches the workers' frame
# ---------------------------------------------------------------------------
def _drive_maintainer(runtime=None) -> MISMaintainer:
    base = erdos_renyi(60, 150, seed=5)
    maintainer = MISMaintainer(base.copy(), num_workers=6, runtime=runtime)
    edges = [tuple(e) for e in base.sorted_edges()]
    for u, v in edges[:4]:
        maintainer.delete_edge(u, v)
    maintainer.apply_batch(
        [EdgeInsertion(*edges[0]), EdgeDeletion(*edges[5])]
    )
    maintainer.insert_vertex(200, [0, 1, 2])
    maintainer.delete_vertex(3)
    maintainer.insert_edge(200, 7)
    return maintainer


def test_dynamic_maintenance_matches_inline(proc_runtime):
    inline = _drive_maintainer()
    parallel = _drive_maintainer(runtime=proc_runtime)
    assert parallel.independent_set() == inline.independent_set()
    assert _meter_tuple(parallel.init_metrics) == \
        _meter_tuple(inline.init_metrics)
    assert _meter_tuple(parallel.update_metrics) == \
        _meter_tuple(inline.update_metrics)
    inline.verify()
    parallel.verify()


def _drive_stream(runtime=None):
    from repro.stream import StreamingSession

    base = erdos_renyi(40, 100, seed=2)
    maintainer = MISMaintainer(base.copy(), num_workers=4, runtime=runtime)
    edges = [tuple(e) for e in base.sorted_edges()][:12]
    ops = [EdgeDeletion(u, v) for u, v in edges[:6]]
    ops += [EdgeInsertion(u, v) for u, v in edges[:6]]
    with StreamingSession(
        maintainer, window_size=4, close_maintainer=runtime is not None
    ) as session:
        session.offer_many(ops)
    return session


def test_streaming_session_over_process_runtime(proc_runtime):
    inline = _drive_stream()
    parallel = _drive_stream(runtime=proc_runtime)

    def windows(session):
        return [
            (r.operations, r.set_size, r.entered, r.left, r.supersteps,
             r.communication_mb)
            for r in session.history
        ]

    assert windows(parallel) == windows(inline)
    assert parallel.independent_set() == inline.independent_set()
    assert parallel.totals()["supersteps"] == inline.totals()["supersteps"]


# ---------------------------------------------------------------------------
# property: inline ≡ process for arbitrary graphs and procs ∈ {1, 2, 4}
# ---------------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices: int = 14):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return DynamicGraph.from_edges(chosen, vertices=range(n))


@settings(max_examples=10, deadline=None)
@given(graph=graphs(), procs=st.sampled_from((1, 2, 4)))
def test_property_process_runtime_bit_identical(graph, procs):
    inline = run_oimis(graph, num_workers=4,
                       strategy=ActivationStrategy.ALL)
    parallel = run_oimis(graph, num_workers=4,
                         strategy=ActivationStrategy.ALL,
                         runtime=_cached_runtime(procs))
    assert parallel.independent_set == inline.independent_set
    assert _meter_tuple(parallel.metrics) == _meter_tuple(inline.metrics)


# ---------------------------------------------------------------------------
# spawn (the default start method) and pool lifecycle
# ---------------------------------------------------------------------------
def test_spawn_start_method_matches_inline():
    graph = path_graph(12)
    inline = run_oimis(graph, num_workers=4)
    runtime = ParallelRuntime(procs=2)  # spawn is the default
    assert runtime.start_method == "spawn"
    try:
        parallel = run_oimis(graph, num_workers=4, runtime=runtime)
    finally:
        runtime.close()
    assert parallel.independent_set == inline.independent_set
    assert _meter_tuple(parallel.metrics) == _meter_tuple(inline.metrics)


def test_close_then_reuse_respawns_workers():
    graph = path_graph(10)
    inline = run_oimis(graph, num_workers=4)
    runtime = ParallelRuntime(procs=2, start_method="fork")
    try:
        first = run_oimis(graph, num_workers=4, runtime=runtime)
        runtime.close()  # explicit close; the instance stays reusable
        second = run_oimis(graph, num_workers=4, runtime=runtime)
    finally:
        runtime.close()
    assert first.independent_set == inline.independent_set
    assert second.independent_set == inline.independent_set
    assert _meter_tuple(second.metrics) == _meter_tuple(inline.metrics)


def test_close_releases_workers_and_shared_segments(monkeypatch, tmp_path):
    """After ``close()``, and separately after a crash-style ``abandon()``,
    of a reads-on service over the process runtime, no worker process
    survives and every segment the runtime published is unlinked."""
    from multiprocessing import shared_memory

    from repro.serve import IngestionService

    segments = set()
    publish = ParallelRuntime._publish

    def recording_publish(self, part):
        meta = publish(self, part)
        segments.add(meta[0])
        return meta

    monkeypatch.setattr(ParallelRuntime, "_publish", recording_publish)
    base = erdos_renyi(60, 150, seed=5)
    ops = delete_reinsert_workload(base, 10, seed=2)
    for teardown in ("close", "abandon"):
        segments.clear()
        runtime = ParallelRuntime(procs=2, start_method="fork")
        service = IngestionService(
            MISMaintainer(base.copy(), num_workers=6, runtime=runtime),
            str(tmp_path / teardown), serve_reads=True,
        )
        try:
            for op in ops[:10]:
                service.submit(op)
            service.drain()
            service.query_batch(sorted(base.vertices()))
            for op in ops[10:]:
                service.submit(op)  # left pending for abandon()
            workers = list(runtime._workers)
        finally:
            getattr(service, teardown)()
        assert len(workers) == 2
        assert not any(proc.is_alive() for proc in workers), teardown
        assert segments, teardown
        for name in sorted(segments):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


#: a caller-owned runtime shared by three maintainers dropped without
#: ``close()`` and then five engines over one array-built graph; prints the
#: segments the runtime published, then how many of them are linked after
#: the maintainers, after ``gc.collect()``, after the engines and after
#: ``close()``
_CALLER_OWNED_RUNTIME_SCRIPT = """
import gc
from multiprocessing import shared_memory

import numpy as np

from repro.core.maintainer import MISMaintainer
from repro.core.oimis import run_oimis
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import chung_lu
from repro.runtime import ParallelRuntime


def main():
    names = set()
    publish = ParallelRuntime._publish

    def recording_publish(self, part):
        meta = publish(self, part)
        names.add(meta[0])
        return meta

    def linked():
        count = 0
        for name in sorted(names):
            try:
                shared_memory.SharedMemory(name=name).close()
            except FileNotFoundError:
                continue
            count += 1
        return count

    ParallelRuntime._publish = recording_publish
    edges = np.array(chung_lu(2000, 8, 2.3, seed=1).sorted_edges(),
                     dtype=np.int64)
    runtime = ParallelRuntime(procs=2)
    maintainers = [MISMaintainer.from_edges(edges, runtime=runtime)
                   for _ in range(3)]
    counts = [linked()]
    del maintainers
    gc.collect()
    counts.append(linked())
    graph = DynamicGraph.from_edges(edges)
    for _ in range(5):
        run_oimis(graph, runtime=runtime)
    counts.append(linked())
    runtime.close()
    counts.append(linked())
    gc.collect()
    print(len(names), *counts)


if __name__ == "__main__":
    main()
"""


def test_caller_owned_runtime_unlinks_every_segment_at_close(tmp_path):
    """A caller-owned runtime owns one segment whichever engines sweep
    on it: dropped maintainers and garbage collection leave at most that
    one linked, and ``close()`` unlinks it.  Runs in a subprocess (spawn
    start method, ``__main__`` guard) so a crash fails the test instead of
    killing pytest."""
    import subprocess
    import sys

    script = tmp_path / "caller_owned_runtime.py"
    script.write_text(_CALLER_OWNED_RUNTIME_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    published, *linked = map(int, proc.stdout.split())
    assert published == 1, proc.stdout  # one segment, reused by every engine
    assert linked == [1, 1, 1, 0], proc.stdout


def test_open_runtime_does_not_pin_a_dropped_maintainer():
    """The runtime holds the bound engine and its frame's partition by
    weak reference: a maintainer dropped without ``close()`` frees its
    graph while the runtime stays open, the next maintainer's partition
    re-lays the frame out, and ``close()`` still unlinks the segment."""
    import gc
    import weakref
    from multiprocessing import shared_memory

    graph = erdos_renyi(80, 240, seed=12)
    expected = MISMaintainer(graph.copy(), num_workers=4)
    u, v = graph.sorted_edges()[0]
    expected.delete_edge(u, v)
    runtime = ParallelRuntime(procs=2, start_method="fork")
    try:
        dropped = MISMaintainer(graph.copy(), num_workers=4, runtime=runtime)
        dropped.delete_edge(u, v)
        graph_ref = weakref.ref(dropped.dgraph)
        epoch = runtime._epoch
        del dropped
        gc.collect()
        assert graph_ref() is None
        assert all(proc.is_alive() for proc in runtime._workers)
        second = MISMaintainer(graph.copy(), num_workers=4, runtime=runtime)
        assert runtime._epoch == epoch + 1  # a new partition: re-layout
        second.delete_edge(u, v)
        assert second.independent_set() == expected.independent_set()
        assert _meter_tuple(second.update_metrics) \
            == _meter_tuple(expected.update_metrics)
        segment = runtime._shm.name
    finally:
        runtime.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment)


# ---------------------------------------------------------------------------
# RunMetrics.merge_delta — the barrier reduce's accumulation primitive
# ---------------------------------------------------------------------------
def test_merge_delta_exactly_once_per_worker_per_superstep():
    """Feeding each worker's echoed increments exactly once, in ascending
    worker order, reproduces the inline totals bit-for-bit — including the
    float meters and the quarantined ``recovery_*`` / ``rebalance_*``
    families."""
    per_superstep = [
        # superstep 0: three workers' deltas, ascending worker order
        [
            {"compute_work": 5, "messages": 2, "bytes_sent": 24,
             "recovery_straggler_s": 0.1, "rebalance_moved_vertices": 1},
            {"compute_work": 3, "messages": 1, "bytes_sent": 8,
             "recovery_straggler_s": 0.2},
            {"compute_work": 7, "recovery_crashes": 1,
             "recovery_replayed_supersteps": 1},
        ],
        # superstep 1
        [
            {"compute_work": 2, "recovery_straggler_s": 0.3,
             "rebalance_moved_vertices": 2, "rebalance_stall_s": 0.05},
            {"compute_work": 4, "messages": 6, "bytes_sent": 96},
            {"compute_work": 1, "wall_time_s": 0.05},
        ],
    ]
    metrics = RunMetrics()
    expected = {}
    for deltas in per_superstep:
        for delta in deltas:  # ascending worker order, exactly once each
            metrics.merge_delta(delta)
            for name, value in delta.items():
                expected[name] = expected.get(name, 0) + value
    for name, value in expected.items():
        assert getattr(metrics, name) == value  # exact, floats included


def test_merge_delta_quarantined_families_never_touch_logical_meters():
    metrics = RunMetrics()
    metrics.merge_delta({
        "recovery_crashes": 1, "recovery_straggler_s": 0.5,
        "rebalance_drains": 3, "rebalance_stall_s": 0.05,
    })
    assert not any(metrics.logical().values())
    assert metrics.recovery_crashes == 1
    assert metrics.recovery_straggler_s == 0.5
    assert metrics.rebalance_drains == 3
    assert metrics.rebalance_stall_s == 0.05


def test_merge_delta_peak_meters_max_merge():
    metrics = RunMetrics()
    metrics.merge_delta({"peak_worker_memory_bytes": 100})
    metrics.merge_delta({"peak_worker_memory_bytes": 60})
    assert metrics.peak_worker_memory_bytes == 100
    metrics.merge_delta({"total_memory_bytes": 10})
    metrics.merge_delta({"total_memory_bytes": 40})
    assert metrics.total_memory_bytes == 40


def test_merge_delta_unknown_meter_raises():
    with pytest.raises(ValueError, match="unknown meter"):
        RunMetrics().merge_delta({"mesages": 1})  # typo must not drop


def test_merge_delta_float_order_is_the_accumulation_order():
    """The reduce applies worker deltas in ascending worker order so float
    accumulation matches the inline loop bit-for-bit."""
    delays = [0.1, 0.2, 0.3]
    metrics = RunMetrics()
    for delay in delays:
        metrics.merge_delta({"recovery_straggler_s": delay})
    expected = 0.0
    for delay in delays:
        expected += delay
    assert metrics.recovery_straggler_s == expected
