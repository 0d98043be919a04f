"""Tests for :mod:`repro.graph.csr` — the array-native partition mirror.

The contract under test: ``representation="csr"`` is a *pure* layout
change.  Members, the checksum, and every logical and recovery meter must
be bit-identical to the dict reference path — on static computations, on
random mixed update streams (property-tested over ER/BA/Chung–Lu
topologies), across worker-process counts, under chaos fault presets, and
under different ``PYTHONHASHSEED`` values.  The CSR arrays themselves
must stay equivalent to a from-scratch rebuild after any incremental
repair, and the shared-memory frame a worker maps must mirror the
master's arrays exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import delete_reinsert_workload
from repro.core.dismis import DisMISProgram
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import OIMISProgram, run_oimis
from repro.core.weighted import WeightedMISMaintainer
from repro.graph.csr import CSRPartition, resolve_representation
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import barabasi_albert, chung_lu, erdos_renyi
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.runtime.parallel import ParallelRuntime, WorkerCSRView
from repro.scaleg.engine import ScaleGEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: every meter both layouts must agree on, logical and quarantined alike
_METERS = (
    "supersteps", "active_vertices", "state_changes", "messages",
    "remote_messages", "bytes_sent", "compute_work",
    "recovery_crashes", "recovery_replayed_supersteps",
    "recovery_compute_work", "recovery_straggler_s", "recovery_failovers",
)


def _fingerprint(maintainer):
    meters = {}
    for metrics_name in ("init_metrics", "update_metrics"):
        metrics = getattr(maintainer, metrics_name)
        for name in _METERS:
            meters[f"{metrics_name}.{name}"] = getattr(metrics, name)
    return sorted(maintainer.independent_set()), meters


def _maintain(graph, ops, batch_size, representation, runtime=None):
    maintainer = MISMaintainer(
        graph.copy(), num_workers=5, runtime=runtime,
        representation=representation,
    )
    maintainer.apply_stream(ops, batch_size=batch_size)
    return _fingerprint(maintainer)


# ---------------------------------------------------------------------------
# representation resolution
# ---------------------------------------------------------------------------
def test_resolve_representation():
    assert resolve_representation(None) == "csr"
    assert resolve_representation("dict") == "dict"
    assert resolve_representation("csr") == "csr"
    with pytest.raises(ValueError, match="unknown representation"):
        resolve_representation("sparse")


def test_default_sweeps_on_csr_only_for_kernel_programs():
    graph = erdos_renyi(30, 80, seed=3)
    maintainer = DOIMISMaintainer(graph.copy(), num_workers=4)
    assert maintainer._engine._csr is not None

    dgraph = DistributedGraph.create(graph.copy(), 4)
    engine = ScaleGEngine(dgraph)
    engine.run(OIMISProgram())
    assert engine._csr is not None
    # programs without an array kernel stay on the dict sweep
    engine.run(DisMISProgram())
    assert engine._csr is None
    weighted = WeightedMISMaintainer(graph.copy(), num_workers=4)
    assert weighted._engine._csr is None
    assert DOIMISMaintainer(
        graph.copy(), num_workers=4, representation="dict"
    )._engine._csr is None


# ---------------------------------------------------------------------------
# array maintenance: incremental repair == from-scratch rebuild
# ---------------------------------------------------------------------------
def _fresh_mirror(dgraph):
    """A from-scratch CSR build of the same distributed graph."""
    mirror = CSRPartition(dgraph)
    mirror.ensure()
    return mirror


def _assert_rows_equivalent(part, fresh):
    assert np.array_equal(part.ids, fresh.ids)
    assert np.array_equal(part.keys, fresh.keys)
    assert np.array_equal(part.indptr, fresh.indptr)
    assert np.array_equal(part.home, fresh.home)
    assert np.array_equal(part.guests, fresh.guests)
    # row *membership* must match; order within a row is unspecified
    # (the sweep compares keys, never positions)
    for r in range(part.ids.size):
        s, e = int(part.indptr[r]), int(part.indptr[r + 1])
        assert sorted(part.nbr[s:e].tolist()) == sorted(
            fresh.nbr[s:e].tolist()
        ), f"row {r} members diverged"


def test_incremental_repair_matches_rebuild():
    graph = erdos_renyi(30, 90, seed=5)
    dgraph = DistributedGraph.create(graph, 4)
    part = CSRPartition.attach(dgraph)
    part.ensure()
    rebuilds_before = part.rebuilds

    edges = graph.sorted_edges()
    dgraph.remove_edge(*edges[0])
    dgraph.remove_edge(*edges[7])
    dgraph.add_edge(*edges[0])
    part.ensure()
    assert part.rebuilds == rebuilds_before  # repaired, not rebuilt
    _assert_rows_equivalent(part, _fresh_mirror(dgraph))


def test_vertex_addition_triggers_rebuild():
    graph = erdos_renyi(20, 50, seed=6)
    dgraph = DistributedGraph.create(graph, 3)
    part = CSRPartition.attach(dgraph)
    part.ensure()
    rebuilds_before = part.rebuilds
    dgraph.add_edge(1000, 0)  # implicit new vertex
    part.ensure()
    assert part.rebuilds == rebuilds_before + 1
    assert 1000 in part.ids.tolist()
    _assert_rows_equivalent(part, _fresh_mirror(dgraph))


def _assert_view_mirrors(meta, part):
    view = WorkerCSRView(meta)
    try:
        for name in ("ids", "keys", "indptr", "nbr", "home", "in_"):
            assert np.array_equal(
                getattr(view, name), getattr(part, name)
            ), f"shared array {name} diverged"
    finally:
        view.close()


def test_publish_shared_roundtrip():
    graph = erdos_renyi(25, 70, seed=8)
    dgraph = DistributedGraph.create(graph, 3)
    part = CSRPartition.attach(dgraph)
    part.ensure()
    runtime = ParallelRuntime(procs=1)  # publishing spawns no process
    try:
        meta = runtime._publish(part)
        # unchanged structure: same segment, same layout epoch
        assert runtime._publish(part) == meta
        _assert_view_mirrors(meta, part)
    finally:
        runtime.close()


def test_republish_after_layout_shift_preserves_bitmap():
    # a repair that grows ``nbr`` shifts every later offset in the reused
    # segment; a worker must then see the master's current arrays and
    # bitmap, and a partition too big for the segment moves to a new one
    from multiprocessing import shared_memory

    graph = erdos_renyi(30, 60, seed=9)
    dgraph = DistributedGraph.create(graph, 3)
    part = CSRPartition.attach(dgraph)
    part.ensure()
    runtime = ParallelRuntime(procs=1)
    try:
        first = runtime._publish(part)
        bitmap = np.zeros(part.ids.size, dtype=np.bool_)
        bitmap[::3] = True
        part.in_[:] = bitmap  # a barrier commit on the master's bitmap
        nnz = part.nbr.size
        vertices = sorted(graph.vertices())
        added = []
        for u in vertices:
            for v in vertices:
                if u < v and not dgraph.graph.has_edge(u, v):
                    dgraph.add_edge(u, v)
                    added.append((u, v))
            if len(added) >= 5:
                break
        part.ensure()
        assert part.nbr.size > nnz
        meta = runtime._publish(part)  # same segment, shifted layout
        assert meta[0] == first[0] and meta[1] == first[1] + 1
        assert np.array_equal(part.in_, bitmap)
        _assert_view_mirrors(meta, part)
        big = CSRPartition.attach(
            DistributedGraph.create(erdos_renyi(400, 1600, seed=9), 3)
        )
        big.ensure()
        grown = runtime._publish(big)
        assert grown[0] != first[0]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first[0])
        _assert_view_mirrors(grown, big)
    finally:
        runtime.close()


def _topology(kind: str, n: int, seed: int):
    if kind == "er":
        return erdos_renyi(n, 3 * n, seed=seed)
    if kind == "ba":
        return barabasi_albert(n, 3, seed=seed)
    return chung_lu(n, 5.0, seed=seed)


@given(
    kind=st.sampled_from(["er", "ba", "cl"]),
    n=st.integers(min_value=12, max_value=40),
    seed=st.integers(min_value=0, max_value=999),
    k=st.integers(min_value=1, max_value=10),
    batch_size=st.sampled_from([1, 3, 7]),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_csr_bit_identical_to_dict_on_random_streams(
    kind, n, seed, k, batch_size
):
    graph = _topology(kind, n, seed)
    if graph.num_edges < 2:
        return
    ops = delete_reinsert_workload(
        graph, min(k, graph.num_edges // 2) or 1, seed=seed
    )
    expected = _maintain(graph, ops, batch_size, "dict")
    actual = _maintain(graph, ops, batch_size, "csr")
    assert actual == expected


def _static_run_graphs():
    """Copies of one graph: built edge by edge, bulk-built from shuffled
    edges (insertion order not ascending), and bulk-built then mutated
    (no kept build order)."""
    graph = erdos_renyi(80, 240, seed=11)
    edges = graph.sorted_edges()
    np.random.default_rng(3).shuffle(edges)

    def incremental():
        return graph.copy()

    def bulk():
        return DynamicGraph.from_edges(edges)

    def mutated():
        built = DynamicGraph.from_edges(edges)
        built.add_edge(1000, edges[0][0])
        built.remove_vertex(1000)
        return built

    return incremental, bulk, mutated


def test_csr_static_run_matches_dict():
    # a fault-free CSR static run keeps its states in the bitmap and
    # builds the dict once: same states, in the same key order
    for make in _static_run_graphs():
        runs = {
            rep: run_oimis(make(), num_workers=6, representation=rep)
            for rep in ("dict", "csr")
        }
        assert list(runs["csr"].states.items()) \
            == list(runs["dict"].states.items()), make.__name__
        assert list(runs["csr"].states) == list(make().vertices())
        for name in _METERS:
            assert (getattr(runs["csr"].metrics, name)
                    == getattr(runs["dict"].metrics, name)), name


def test_fault_free_kernel_run_charges_syncs_from_the_mirror(monkeypatch):
    # the barrier gathers the CSR mirror's per-row guest counts: no
    # per-vertex directory lookup, same meters as the dict path
    graph = erdos_renyi(80, 240, seed=13)
    expected = ScaleGEngine(
        DistributedGraph.create(graph.copy(), 6), representation="dict"
    ).run(OIMISProgram()).metrics
    dgraph = DistributedGraph.create(graph.copy(), 6)

    def per_vertex_lookup(u):
        raise AssertionError("per-vertex guest lookup on the kernel barrier")

    monkeypatch.setattr(dgraph, "num_guest_copies", per_vertex_lookup)
    monkeypatch.setattr(dgraph, "guest_machines", per_vertex_lookup)
    actual = ScaleGEngine(dgraph).run(OIMISProgram()).metrics
    assert actual.state_changes > 0
    for name in _METERS:
        assert getattr(actual, name) == getattr(expected, name), name


def test_new_vertex_stream_matches_dict():
    # implicit vertex creation mid-stream exercises the rebuild path
    graph = erdos_renyi(20, 60, seed=12)
    fresh = [EdgeInsertion(100 + i, i) for i in range(4)]
    deletions = [EdgeDeletion(u, v) for u, v in graph.sorted_edges()[:4]]
    ops = [op for pair in zip(fresh, deletions) for op in pair]
    assert (_maintain(graph, ops, 2, "csr")
            == _maintain(graph, ops, 2, "dict"))


# ---------------------------------------------------------------------------
# bit-identity across worker-process counts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("procs", [1, 2, 4])
def test_csr_parallel_matches_dict_inline(procs):
    from repro.runtime import ParallelRuntime

    graph = erdos_renyi(50, 150, seed=13)
    ops = delete_reinsert_workload(graph, 10, seed=13)
    expected = _maintain(graph, ops, 5, "dict")
    runtime = (ParallelRuntime(procs=procs, start_method="fork")
               if procs > 1 else None)
    try:
        actual = _maintain(graph, ops, 5, "csr", runtime=runtime)
    finally:
        if runtime is not None:
            runtime.close()
    assert actual == expected


# ---------------------------------------------------------------------------
# bit-identity under chaos fault presets
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["crash", "worker-loss"])
def test_chaos_preset_bit_identical_under_csr(preset):
    from repro.faults.chaos import CHAOS_WORKLOADS, run_chaos_case

    result = run_chaos_case(CHAOS_WORKLOADS[0], preset, seed=0)
    assert result.ok, result.failures


def _chaos_maintainer(preset, representation):
    """``CHAOS_WORKLOADS[0]`` under ``preset``'s seed-0 plan."""
    from repro.faults.chaos import CHAOS_WORKLOADS, plan_for
    from repro.faults.injector import FaultInjector
    from repro.graph.datasets import load_dataset

    workload = CHAOS_WORKLOADS[0]
    graph = load_dataset(workload.tag)
    ops = delete_reinsert_workload(
        graph, workload.k, seed=workload.workload_seed
    )
    injector = FaultInjector(plan_for(preset, seed=0))
    maintainer = DOIMISMaintainer(
        graph, num_workers=workload.workers, faults=injector,
        representation=representation,
    )
    maintainer.apply_stream(ops, batch_size=workload.batch_size)
    return maintainer, injector


@pytest.mark.parametrize("preset", ["composed", "cascading-loss", "elastic"])
def test_fault_meters_match_dict_under_csr(preset):
    """Every fault-side meter family agrees across layouts: the keyed
    fault draws never depend on the order the barrier visits requests."""
    from repro.faults.chaos import Observables
    from repro.pregel.metrics import FAMILIES

    runs = {}
    for representation in ("dict", "csr"):
        maintainer, injector = _chaos_maintainer(preset, representation)
        families = {
            f"{phase}.{prefix}":
                getattr(maintainer, f"{phase}_metrics").family(prefix)
            for phase in ("init", "update")
            for prefix in FAMILIES
        }
        runs[representation] = (
            Observables.of(maintainer), families, injector.stats.as_dict()
        )
    assert runs["csr"] == runs["dict"]
    assert sum(runs["csr"][2].values()), "the plan injected nothing"


def test_worker_loss_recovery_never_builds_the_rank_cache():
    """A failover's verification sweep runs the kernel on CSR runs, so the
    dict path's rank cache (repaired on every later mutation) stays off."""
    maintainer, injector = _chaos_maintainer("worker-loss", "csr")
    assert injector.stats.losses
    assert maintainer.update_metrics.recovery_compute_work
    assert maintainer.graph._rank_caches == []


# ---------------------------------------------------------------------------
# bit-identity across hash seeds (fresh interpreters)
# ---------------------------------------------------------------------------
_HASHSEED_SNIPPET = """
import sys
from repro.bench.workloads import delete_reinsert_workload
from repro.core.maintainer import MISMaintainer
from repro.graph.generators import erdos_renyi

graph = erdos_renyi(40, 120, seed=21)
ops = delete_reinsert_workload(graph, 8, seed=21)
lines = []
for rep in ("dict", "csr"):
    m = MISMaintainer(graph.copy(), num_workers=5, representation=rep)
    m.apply_stream(ops, batch_size=4)
    met = m.update_metrics
    lines.append((rep, sorted(m.independent_set()), met.supersteps,
                  met.messages, met.bytes_sent, met.compute_work))
assert lines[0][1:] == lines[1][1:], "csr diverged from dict"
print(lines[0][1:])
"""


def test_csr_equivalence_holds_under_both_hash_seeds():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
