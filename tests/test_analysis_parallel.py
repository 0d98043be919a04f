"""P-family static rules and the superstep race sanitizer."""

import pytest

from repro.analysis import lint_source
from repro.analysis.linter import lint_file
from repro.analysis.parallel import (
    RaceSanitizer,
    SanitizedBackend,
    resolve_sanitizer,
)
from repro.analysis.parallel.sanitize import run_sanitize_case
from repro.core.oimis import OIMISProgram
from repro.errors import RaceViolation
from repro.faults.chaos import CHAOS_WORKLOADS
from repro.graph import generators
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.pregel.metrics import RunMetrics
from repro.pregel.partition import HashPartitioner
from repro.runtime.base import InlineExecutor
from repro.scaleg.engine import ScaleGEngine

from tests.test_analysis_linter import FIXTURES, _fixture, _rule_lines  # noqa: F401


def _dgraph(graph: DynamicGraph, workers: int = 3) -> DistributedGraph:
    return DistributedGraph(graph, HashPartitioner(workers))


def _er_graph(n: int = 60, m: int = 150, seed: int = 7) -> DynamicGraph:
    return generators.erdos_renyi(n, m, seed=seed)


# ---------------------------------------------------------------------------
# seeded-violation fixtures: exact rule ids and line numbers
# ---------------------------------------------------------------------------
def test_p1_fixture_exact_findings():
    findings = lint_file(_fixture("p1_bad.py"), rules=["P"])
    assert _rule_lines(findings) == [
        ("P1", 8),   # subscript store into the foreign states root
        ("P1", 9),   # mutator call on an alias of host._cache
        ("P1", 11),  # attribute store on the host root
        ("P1", 12),  # del against foreign state
    ]


def test_p2_fixture_exact_findings():
    findings = lint_file(_fixture("p2_bad.py"), rules=["P"])
    assert _rule_lines(findings) == [
        ("P2", 7),   # .values() fold — key lost
        ("P2", 10),  # unsorted .items() with an order-sensitive body
    ]
    # the sorted(...) fold on line 12 is the sanctioned form
    assert all(f.line != 12 for f in findings)


def test_p3_fixture_exact_findings():
    findings = lint_file(_fixture("p3_bad.py"), rules=["P"])
    assert _rule_lines(findings) == [
        ("P3", 10),  # os.environ
        ("P3", 11),  # wall clock
        ("P3", 12),  # unseeded random
        ("P3", 13),  # open()
        ("P3", 14),  # lock
        ("P3", 22),  # nested def shipped across a frame
        ("P3", 23),  # lambda shipped across a frame
    ]


def test_p4_fixture_exact_findings():
    findings = lint_file(_fixture("p4_bad.py"), rules=["P"])
    assert _rule_lines(findings) == [
        ("P4", 7),   # merge under two nested for loops
        ("P4", 14),  # second looped merge site on the same path
        ("P4", 24),  # looped call into a looping merger
    ]


# ---------------------------------------------------------------------------
# construct scoping: identical code outside the scoped constructs is clean
# ---------------------------------------------------------------------------
def test_p1_only_fires_in_sweep_scopes():
    src = (
        "def helper(host, states, superstep):\n"
        "    states[0] = superstep\n"
        "    host._superstep = superstep\n"
    )
    assert lint_source(src, rules=["P"]) == []


def test_p2_only_fires_in_barrier_scopes():
    src = (
        "def tally(replies):\n"
        "    total = 0\n"
        "    for part in replies.values():\n"
        "        total += part\n"
        "    return total\n"
    )
    assert lint_source(src, rules=["P"]) == []


def test_p3_only_fires_in_frame_scopes():
    src = (
        "import time\n"
        "\n"
        "\n"
        "def profile():\n"
        "    return time.time()\n"
    )
    assert lint_source(src, rules=["P"]) == []


def test_p2_superstep_while_loop_is_not_a_nested_merge():
    # the canonical engine shape: per-worker fold inside the superstep
    # while loop merges once per worker per barrier — must stay clean
    src = (
        "def run(metrics, schedule):\n"
        "    active = True\n"
        "    while active:\n"
        "        for delta in schedule:\n"
        "            metrics.merge_delta(delta)\n"
        "        active = False\n"
    )
    assert lint_source(src, rules=["P"]) == []


def test_family_letter_expands_to_all_p_rules():
    source = open(_fixture("p3_bad.py"), encoding="utf-8").read()
    by_family = lint_source(source, path="p3_bad.py", rules=["P"])
    by_ids = lint_source(
        source, path="p3_bad.py", rules=["P1", "P2", "P3", "P4"]
    )
    assert by_family == by_ids


# ---------------------------------------------------------------------------
# suppression comments on multi-line statements (new families)
# ---------------------------------------------------------------------------
def test_multiline_statement_suppression_covers_p3():
    src = (
        "import time\n"
        "\n"
        "\n"
        "def _worker_main_demo(conn):\n"
        "    frame = (  # repro-lint: disable=P3\n"
        "        time.time(),\n"
        "    )\n"
        "    return frame\n"
    )
    assert lint_source(src) == []
    # control: without the comment the continuation line is flagged
    bare = src.replace("  # repro-lint: disable=P3", "")
    assert _rule_lines(lint_source(bare)) == [("P3", 6)]


def test_multiline_suppression_does_not_leak_into_body():
    # a disable on a wrapped for-header covers the header expression only;
    # a violation in the loop body still fires
    src = (
        "class DemoEngine:\n"
        "    def _merge(self, replies, clock):\n"
        "        for w, part in sorted(\n"
        "            replies.items()\n"
        "        ):  # repro-lint: disable=P2\n"
        "            for v in part.values():\n"
        "                self.fold(w, v)\n"
    )
    findings = lint_source(src)
    assert ("P2", 6) in _rule_lines(findings)


# ---------------------------------------------------------------------------
# race sanitizer: enablement and wiring
# ---------------------------------------------------------------------------
def test_resolve_sanitizer_modes():
    assert resolve_sanitizer(None) is None
    assert isinstance(resolve_sanitizer(True), RaceSanitizer)
    assert resolve_sanitizer(False) is None
    shared = RaceSanitizer()
    assert resolve_sanitizer(shared) is shared


def test_wrap_is_idempotent_and_transparent():
    sanitizer = RaceSanitizer()
    inner = InlineExecutor()
    wrapped = sanitizer.wrap(inner)
    assert isinstance(wrapped, SanitizedBackend)
    assert sanitizer.wrap(wrapped) is wrapped
    assert wrapped.kind == inner.kind


# ---------------------------------------------------------------------------
# clean runs pass strict checking, and the sanitizer demonstrably ran
# ---------------------------------------------------------------------------
def test_oimis_scaleg_passes_sanitizer():
    sanitizer = RaceSanitizer()
    engine = ScaleGEngine(_dgraph(_er_graph(), 4), sanitize=sanitizer)
    result = engine.run(OIMISProgram())
    assert any(result.states.values())
    assert sanitizer.supersteps_checked > 0
    assert sanitizer.runs_checked == 1
    assert sanitizer.violations == []
    assert engine.sanitizer is sanitizer


def test_trace_digest_is_deterministic_across_runs():
    digests = []
    for _ in range(2):
        sanitizer = RaceSanitizer()
        engine = ScaleGEngine(_dgraph(_er_graph(), 4), sanitize=sanitizer)
        engine.run(OIMISProgram())
        assert sanitizer.trace
        digests.append(sanitizer.trace_digest())
    assert digests[0] == digests[1]


def test_metrics_watch_restores_instance():
    metrics = RunMetrics()
    original = metrics.merge_delta
    sanitizer = RaceSanitizer()
    sanitizer.begin_engine_run(metrics, num_workers=2)
    assert metrics.merge_delta is not original
    sanitizer.end_engine_run(metrics)
    assert "merge_delta" not in vars(metrics)


# ---------------------------------------------------------------------------
# deliberately injected races are detected
# ---------------------------------------------------------------------------
class _MidSuperstepMutator(InlineExecutor):
    """Commits a state write during the sweep instead of at the barrier."""

    def sweep_scaleg(self, active, superstep, draws=None):
        sweep = super().sweep_scaleg(active, superstep, draws)
        u = active[0]
        self._engine._states[u] = ("tainted", superstep)
        return sweep


class _NonOwnedWriter(InlineExecutor):
    """Reports a write for a vertex that was never dispatched."""

    def sweep_scaleg(self, active, superstep, draws=None):
        sweep = super().sweep_scaleg(active, superstep, draws)
        sweep.changed.append(10**6)
        return sweep


class _DoubleWriter(InlineExecutor):
    """Two 'workers' report a write for the same vertex in one sweep."""

    def sweep_scaleg(self, active, superstep, draws=None):
        sweep = super().sweep_scaleg(active, superstep, draws)
        if sweep.changed:
            sweep.changed.append(sweep.changed[0])
        return sweep


def _tampered(runtime, sanitize) -> ScaleGEngine:
    """A sanitized ScaleG engine driven by a tampering backend."""
    return ScaleGEngine(_dgraph(_er_graph(), 3), runtime=runtime,
                        sanitize=sanitize)


def test_sanitizer_detects_mid_superstep_mutation():
    engine = _tampered(_MidSuperstepMutator(), True)
    with pytest.raises(RaceViolation) as excinfo:
        engine.run(OIMISProgram())
    assert excinfo.value.check == "mid-superstep-commit"
    assert excinfo.value.superstep == 0
    assert excinfo.value.vertex == 0  # the tainted active[0]


def test_sanitizer_detects_non_owned_write():
    engine = _tampered(_NonOwnedWriter(), True)
    with pytest.raises(RaceViolation) as excinfo:
        engine.run(OIMISProgram())
    assert excinfo.value.check == "non-owned-write"
    assert excinfo.value.vertex == 10**6


def test_sanitizer_detects_write_write_overlap():
    engine = _tampered(_DoubleWriter(), True)
    with pytest.raises(RaceViolation) as excinfo:
        engine.run(OIMISProgram())
    assert excinfo.value.check == "write-write-overlap"


def test_sanitizer_detects_meter_double_merge():
    metrics = RunMetrics()
    sanitizer = RaceSanitizer()
    sanitizer.begin_engine_run(metrics, num_workers=2)
    for _ in range(3):
        metrics.merge_delta({"wall_time_s": 0.25})
    with pytest.raises(RaceViolation) as excinfo:
        sanitizer.check_barrier(None)
    assert excinfo.value.check == "meter-double-merge"
    assert "wall_time_s" in str(excinfo.value)
    sanitizer.end_engine_run(metrics)


def test_collecting_mode_surveys_instead_of_raising():
    sanitizer = RaceSanitizer(strict=False)
    engine = _tampered(_MidSuperstepMutator(), sanitizer)
    engine.run(OIMISProgram())  # no raise
    assert sanitizer.violations
    assert all(isinstance(v, RaceViolation) for v in sanitizer.violations)


# ---------------------------------------------------------------------------
# the sanitize driver: inline chaos case is race-free and bit-identical
# ---------------------------------------------------------------------------
def test_run_sanitize_case_inline_clean():
    workload = CHAOS_WORKLOADS[1]  # fig11_batch_SL — the shorter stream
    result = run_sanitize_case(workload, preset="none", seed=0, procs=1)
    assert result.ok, (result.races, result.failures)
    assert result.supersteps_checked > 0
    assert result.trace_digest
    payload = result.as_dict()
    assert payload["ok"] is True
    assert payload["workload"] == workload.name
