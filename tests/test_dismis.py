"""Unit tests for DisMIS (Algorithm 1) on both engines."""

import pytest

from repro.core.dismis import DisMISProgram, Status, run_dismis
from repro.core.oimis import run_oimis
from repro.core.verification import is_maximal_independent_set
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.serial.greedy import greedy_mis


class TestResults:
    def test_empty_graph(self):
        assert run_dismis(DynamicGraph()).independent_set == set()

    def test_isolated_vertex_selected(self):
        g = DynamicGraph.from_edges([(1, 2)], vertices=[9])
        run = run_dismis(g)
        assert 9 in run.independent_set
        assert run.statuses[9] == Status.IN

    def test_every_vertex_decided(self):
        g = erdos_renyi(50, 150, seed=1)
        run = run_dismis(g)
        assert all(s in (Status.IN, Status.NOTIN) for s in run.statuses.values())

    def test_path(self):
        assert run_dismis(path_graph(5)).independent_set == {0, 2, 4}

    def test_star(self):
        assert run_dismis(star_graph(5)).independent_set == set(range(1, 6))

    def test_clique(self):
        assert run_dismis(complete_graph(6)).independent_set == {0}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_greedy_oracle(self, seed):
        g = erdos_renyi(60, 200, seed=seed)
        run = run_dismis(g)
        assert run.independent_set == greedy_mis(g)
        assert is_maximal_independent_set(g, run.independent_set)

    def test_invalid_engine_name(self):
        with pytest.raises(ValueError):
            run_dismis(path_graph(3), engine="spark")

    def test_pregel_refuses_a_runtime_before_building_the_engine(
        self, monkeypatch
    ):
        assert run_dismis(path_graph(3), engine="pregel",
                          runtime="inline").independent_set == {0, 2}

        def no_engine(dgraph):
            raise AssertionError("engine built before the runtime check")

        monkeypatch.setattr("repro.core.dismis.PregelEngine", no_engine)
        with pytest.raises(ValueError, match="inline only"):
            run_dismis(path_graph(3), engine="pregel", runtime="process")


class TestTheorem41:
    """DisMIS(G) == OIMIS(G) on both engines."""

    @pytest.mark.parametrize("engine", ["scaleg", "pregel"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equality_with_oimis(self, engine, seed):
        g = erdos_renyi(45, 140, seed=seed + 20)
        assert (
            run_dismis(g, engine=engine).independent_set
            == run_oimis(g).independent_set
        )


class TestCostsVsOIMIS:
    """The Table II shapes: OIMIS dominates DisMIS on every meter."""

    @pytest.fixture(scope="class")
    def runs(self):
        g = erdos_renyi(150, 600, seed=7)
        return run_dismis(g), run_oimis(g)

    def test_supersteps(self, runs):
        dismis, oimis = runs
        assert oimis.metrics.supersteps <= dismis.metrics.supersteps

    def test_communication_roughly_half(self, runs):
        dismis, oimis = runs
        assert oimis.metrics.bytes_sent < dismis.metrics.bytes_sent
        assert dismis.metrics.bytes_sent < 20 * oimis.metrics.bytes_sent

    def test_memory_not_larger(self, runs):
        dismis, oimis = runs
        assert (
            oimis.metrics.peak_worker_memory_bytes
            <= dismis.metrics.peak_worker_memory_bytes
        )

    def test_sync_payload_sizes(self):
        program = DisMISProgram()
        # status byte + degree info vs OIMIS's single boolean byte
        assert program.sync_bytes(Status.UNKNOWN) == 5


class TestRoundStructure:
    def test_supersteps_include_init_and_full_round(self):
        g = erdos_renyi(40, 120, seed=3)
        run = run_dismis(g)
        # at least: init, selection, deletion, and a quiescing superstep
        assert run.metrics.supersteps >= 4

    def test_statuses_monotone(self):
        """A vertex never leaves In/NotIn once decided (checked via rerun)."""
        g = erdos_renyi(30, 90, seed=4)
        first = run_dismis(g)
        second = run_dismis(g)
        assert first.statuses == second.statuses

    def test_run_repr(self):
        assert "supersteps" in repr(run_dismis(path_graph(3)))
