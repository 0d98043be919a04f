"""Tests for the end-to-end benchmark itself.

    python -m pytest benchmarks/e2e -q

Tier-1 (``tests/``) does not collect them.  The smoke runs use the five
workloads' own code paths on tiny graphs for half a second each.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from catalog import E2E_METRICS, LISTED_LAYERS, PER_LAYER, WORKLOADS  # noqa: E402

# tiny graphs are fast, so the pre-generated streams must be longer, and
# the open loops need a whole checkpoint cycle (8 windows) of arrivals
# inside a fraction of a second
FAST = dict(max_rate=100_000)
TINY = {
    "ingest_2k": dict(n=300, warmup=50, write_rate=5000.0, **FAST),
    "ingest_20k": dict(n=400, warmup=50, write_rate=5000.0, **FAST),
    "readmix_20k": dict(n=400, warmup=50, write_rate=5000.0,
                        reads_per_write=1, **FAST),
    "single_100k": dict(n=1000, warmup=5, k=10, samples=50, **FAST),
    "batch_csr_100k": dict(n=1000, warmup=96, k=32, batch=64, samples=20,
                           **FAST),
}
SMOKE_SECONDS = 0.5


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], setup_reps=3, **TINY[name])


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    results = {name: workloads.run(tiny(name), name, 3, SMOKE_SECONDS,
                                   False, None)
               for name in WORKLOADS}
    return results, time.perf_counter() - started


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trace"))
    results = {name: workloads.run(tiny(name), name, 3, SMOKE_SECONDS,
                                   True, out)
               for name in WORKLOADS}
    return results, out


# -- smoke runs -------------------------------------------------------------
def test_smoke_all_workloads_correct_and_quick(smoke):
    results, elapsed = smoke
    assert elapsed < 30
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0
        for metric in ("setup_s", "updates_per_s", "peak_rss_mb"):
            assert result["metrics"][metric]["value"] > 0, (name, metric)
        repeats = result["logical_warmup"]
        assert repeats["init_supersteps"] > 0


def test_smoke_leaves_no_wal_directories_or_workers(smoke):
    assert not os.path.isdir(workloads.WORK_DIR) \
        or not os.listdir(workloads.WORK_DIR)
    assert multiprocessing.active_children() == []


def test_traced_run_covers_its_wall_time(traced):
    results, _ = traced
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        layers = result["per_layer"]
        assert set(layers) == set(PER_LAYER)
        assert layers["trace.coverage"]["value"] >= 0.95, name
        assert layers["trace.overhead"]["value"] > 0, name
    assert results["batch_csr_100k"]["per_layer"][
        "runtime.speedup_vs_inline"]["value"] > 0


def test_traced_run_writes_spans_chrome_trace_and_layers(traced):
    _, out = traced
    for name in WORKLOADS:
        folder = os.path.join(out, name)
        with open(os.path.join(folder, "spans.jsonl"), encoding="utf-8") as f:
            first = json.loads(f.readline())
        assert {"id", "name", "parent", "rid", "start", "end"} <= set(first)
        with open(os.path.join(folder, "trace.json"), encoding="utf-8") as f:
            assert json.load(f)["traceEvents"]
        with open(os.path.join(folder, "layers.json"), encoding="utf-8") as f:
            assert "core.apply_batch" in json.load(f)["layers"]


def test_one_flipped_member_fails_the_check():
    spec = tiny("single_100k")
    edges = inputs.chung_lu_edges(spec.n, 8.0, 2.3,
                                  inputs.rng_for(5, "flip", "graph"))
    load = workloads.make_load(spec, edges, 5, "flip", 0.0, 0.0)
    system = workloads.System(spec, edges, workloads._wal_dir("flip", 0))
    try:
        workloads.warm_up(system, load, spec)
        assert workloads.final_checks(system, load, spec, edges) == []
        members = system.maintainer.independent_set()
        flipped = members ^ {min(members)}
        system.maintainer.independent_set = lambda: flipped
        problems = workloads.final_checks(system, load, spec, edges)
        assert problems and "final members" in problems[0]
    finally:
        system.discard()


# -- oracle and inputs -------------------------------------------------------
def test_greedy_takes_lowest_degree_first():
    # path 0-1-2-3 plus pendant 4 on 1: degrees 1, 3, 2, 1, 1, so the
    # leaves 0, 3, 4 go first and block 1 and 2
    edges = [(0, 1), (1, 2), (2, 3), (1, 4)]
    assert checks.greedy_members(5, edges) == {0, 3, 4}


def test_replay_rejects_an_operation_that_does_not_apply():
    assert checks.replay([(0, 1)], [(False, 1, 0), (True, 2, 1)]) == {(1, 2)}
    with pytest.raises(ValueError):
        checks.replay([(0, 1)], [(True, 0, 1)])


def test_inputs_depend_only_on_seed_and_workload():
    def make(seed, name):
        rng = inputs.rng_for(seed, name, "graph")
        edges = inputs.chung_lu_edges(500, 8.0, 2.3, rng)
        return edges, inputs.uniform_stream(500, edges, 200, rng)

    assert make(1, "a") == make(1, "a")
    assert make(1, "a") != make(2, "a")
    assert make(1, "a") != make(1, "b")
    edges, ops = make(4, "a")
    assert len(edges) == 2000
    checks.replay(edges, ops)  # every update applies


def test_staggered_batches_each_mix_inserts_and_deletes():
    rng = inputs.rng_for(2, "b", "graph")
    edges = inputs.chung_lu_edges(500, 8.0, 2.3, rng)
    batches = inputs.staggered_batches(edges, 20, 6, rng)
    assert len(batches[0]) == 20 and not any(op[0] for op in batches[0])
    for batch in batches[1:]:
        assert len(batch) == 40 and sum(op[0] for op in batch) == 20
    checks.replay(edges, [op for batch in batches for op in batch])


def test_bursty_arrivals_keep_the_mean_rate():
    times = inputs.bursty_arrivals(1000.0, 30.0,
                                   inputs.rng_for(1, "x", "writes"))
    assert times == sorted(times) and times[-1] < 30.0
    assert 0.9 * 30_000 < len(times) < 1.1 * 30_000


# -- statistics --------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.reportable(list(range(999)), 0.99) is None
    assert stats.reportable(list(range(1000)), 0.99) == 989
    assert stats.reportable(list(range(19)), 0.5) is None
    assert stats.reportable(list(range(21)), 0.5) == 10


# -- spans -------------------------------------------------------------------
class Box:
    def inner(self):
        time.sleep(0.002)

    def outer(self):
        self.inner()
        self.inner()
        return "done"


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    original = Box.__dict__["inner"]
    tracer.install([
        (__name__, "Box.inner", "inner", None, None),
        (__name__, "Box.outer", "outer", lambda args, result: result, None),
    ])
    try:
        assert Box().outer() == "done"
    finally:
        tracer.uninstall()
    assert Box.__dict__["inner"] is original
    outer, first, second = tracer.spans
    assert outer[spans.PARENT] == -1 and outer[spans.RID] == "done"
    assert first[spans.PARENT] == second[spans.PARENT] == 0
    table = spans.layer_table(tracer.spans)
    assert table["inner"]["count"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["busy_s"] - table["inner"]["busy_s"], abs=1e-12
    )
    assert table["inner"]["self_s"] == pytest.approx(table["inner"]["busy_s"])
    start, end = outer[spans.START], outer[spans.END]
    assert spans.coverage(tracer.spans, start, end) == pytest.approx(1.0)
    assert spans.coverage(tracer.spans, start, 2 * end - start) == \
        pytest.approx(0.5)


# -- comparison tool ---------------------------------------------------------
def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher",
                           0.1)[0] == "gain"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower",
                           0.1)[0] == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "same"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == \
        "unresolved"
    # 8 of 10 pair wins is not a gain, even with a large median shift
    mostly = [v * 1.2 for v in parent[:8]] + parent[8:]
    assert compare.verdict(parent, mostly, "higher", 0.5)[0] != "gain"


def test_compare_rows_per_workload_with_failures():
    def doc(value, failed):
        return {"results": [{
            "workload": "w", "failed": failed, "attempted": 100,
            "metrics": {"updates_per_s": {"value": value}},
        }]}

    parent = [doc(100.0 + i, 0) for i in range(10)]
    change = [doc(130.0 + i, 1) for i in range(10)]
    (row,) = compare.compare(parent, change)
    assert row["metrics"]["updates_per_s"][0] == "gain"
    assert row["failed_parent"] == (0, 1000)
    assert row["failed_change"] == (10, 1000)
    assert "updates_per_s=gain" in compare.format_row(row)


# -- runner and BENCHMARK.json ------------------------------------------------
def test_summary_line_has_exactly_the_gated_metrics():
    result = {"workload": "w", "correct": True, "problems": [],
              "attempted": 5, "failed": 0,
              "metrics": {name: {"value": 1.5, "unit": spec["unit"],
                                 "samples": 3}
                          for name, spec in E2E_METRICS.items()}}
    result["metrics"]["read_p50_us"] = {"value": 2.0, "unit": "us",
                                        "samples": 3}
    runner.check_reported(result, trace=False)
    line = runner.summary_line([result], trace=False)
    assert line["correct"] and set(line["metrics"]) == set(E2E_METRICS)
    del result["metrics"]["commit_lag_p90_ms"]
    runner.check_reported(result, trace=False)
    assert not result["correct"]


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == [
        name for name, spec in WORKLOADS.items() if spec.gated]
    assert {m["name"]: {"unit": m["unit"], "better": m["better"],
                        "bound": m["bound"]}
            for m in bench["end_to_end"]} == E2E_METRICS
    assert {m["name"]: {"unit": m["unit"], "better": m["better"]}
            for m in bench["per_layer"]} == LISTED_LAYERS


def test_runner_fails_without_the_program(tmp_path):
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest_2k",
         "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
