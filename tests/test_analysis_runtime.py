"""The one runtime BSP checker (``sanitize=``): barrier isolation and the
independence/maximality check at convergence."""

import pytest

from repro.analysis.parallel import RaceSanitizer
from repro.bench.workloads import delete_reinsert_workload
from repro.core.dismis import DisMISProgram, Status, run_dismis
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import OIMISProgram
from repro.errors import RaceViolation
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.pregel.engine import PregelEngine
from repro.pregel.metrics import STATUS_BYTES
from repro.pregel.partition import HashPartitioner
from repro.scaleg.engine import ScaleGEngine, ScaleGProgram


def _dgraph(graph, workers: int = 3) -> DistributedGraph:
    return DistributedGraph(graph, HashPartitioner(workers))


class _InPlaceMutator(ScaleGProgram):
    """Deliberately broken: writes a neighbour's state mid-superstep."""

    def initial_state(self, dgraph, u):
        return True

    def compute(self, ctx):
        # bypasses the double buffer (every path vertex has a neighbour)
        ctx._engine._states[ctx.sorted_neighbors()[0]] = False
        ctx.set_state(ctx.state)

    def sync_bytes(self, state):
        return STATUS_BYTES


class _LyingProgram(OIMISProgram):
    """Converges correctly but reports every vertex as a member."""

    def contract_members(self, states):
        return set(states)


# -- double-buffer isolation --
def test_in_place_mutation_raises_at_barrier():
    engine = ScaleGEngine(_dgraph(path_graph(6)), sanitize=True)
    with pytest.raises(RaceViolation) as excinfo:
        engine.run(_InPlaceMutator())
    err = excinfo.value
    assert err.check == "mid-superstep-commit"
    assert err.superstep == 0
    # vertex 1's compute wrote vertex 0, the first moved in ascending order
    assert err.vertex == 0


def test_disabled_isolation_lets_mutation_pass_barrier():
    ScaleGEngine(_dgraph(path_graph(6))).run(_InPlaceMutator())  # no raise


# -- clean programs pass with checking on, and the checker demonstrably ran --
def _checked_run(engine_cls, graph, program):
    """Run ``program`` with a fresh sanitizer: it passes, and both the
    barrier check and the convergence check ran."""
    sanitizer = RaceSanitizer()
    result = engine_cls(_dgraph(graph, 4), sanitize=sanitizer).run(program)
    assert sanitizer.supersteps_checked > 0
    assert sanitizer.runs_checked == sanitizer.convergences_checked == 1
    return result


def test_oimis_scaleg_passes_contracts():
    graph = erdos_renyi(80, 200, seed=5)
    assert any(_checked_run(ScaleGEngine, graph, OIMISProgram()).states.values())


def test_dismis_results_unchanged_by_contracts():
    graph = erdos_renyi(60, 150, seed=2)
    result = _checked_run(ScaleGEngine, graph, DisMISProgram())
    checked = {u for u, s in result.states.items() if s == Status.IN}
    assert checked == run_dismis(graph, num_workers=4).independent_set


# -- convergence: independence + maximality of the reported set --
def _lying_run(engine_cls, program):
    """A strict violation must restore every run-entry state."""
    dgraph = _dgraph(path_graph(5))
    states = {u: program.initial_state(dgraph, u) for u in range(5)}
    entry = dict(states)
    with pytest.raises(RaceViolation) as excinfo:
        engine_cls(dgraph, sanitize=True).run(program, states=states)
    assert states == entry
    return excinfo.value.check


def test_lying_contract_members_raises_independence():
    assert _lying_run(ScaleGEngine, _LyingProgram()) == "independence"


def _first_failure(n, members):
    with pytest.raises(RaceViolation) as excinfo:
        RaceSanitizer().check_convergence(path_graph(n), members)
    return excinfo.value.check, excinfo.value.vertex


def test_at_convergence_catches_non_maximal_set():
    # 0-1-2-3-4; {0} leaves 2..4 uncovered
    assert _first_failure(5, {0}) == ("maximality", 2)


def test_at_convergence_catches_phantom_member():
    assert _first_failure(3, {0, 2, 99}) == ("independence", 99)


def test_at_convergence_accepts_valid_mis():
    sanitizer = RaceSanitizer(strict=False)
    sanitizer.check_convergence(path_graph(5), {0, 2, 4})
    assert sanitizer.violations == []
    assert sanitizer.trace == []  # the convergence check adds no entry


# -- enablement: one keyword-only option, off by default --
def test_sanitizer_reaches_maintainer_engine():
    graph = erdos_renyi(40, 90, seed=4)
    with MISMaintainer(graph, num_workers=3, sanitize=True) as maintainer:
        sanitizer = maintainer._engine.sanitizer
        ops = delete_reinsert_workload(maintainer.graph, 10, seed=1)
        maintainer.apply_stream(ops, batch_size=5)
        maintainer.verify()
    assert sanitizer.convergences_checked == sanitizer.runs_checked > 1


def test_contracts_off_by_default():
    dgraph = _dgraph(path_graph(4))
    assert ScaleGEngine(dgraph).sanitizer is None
    with pytest.raises(TypeError):
        ScaleGEngine(dgraph, **{"contracts": True})  # option deleted
    with pytest.raises(TypeError):
        ScaleGEngine(dgraph, None)  # engine options are keyword-only
    with pytest.raises(TypeError):
        PregelEngine(dgraph, sanitize=True)  # the Pregel baseline has none
