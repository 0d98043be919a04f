"""Unit tests for the MISMaintainer public facade."""

import pytest

from repro import MISMaintainer
from repro.core.activation import ActivationStrategy
from repro.errors import VerificationError
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list
from repro.serial.greedy import greedy_mis


class TestConstruction:
    def test_from_edges(self):
        m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4)])
        assert sorted(m.independent_set()) == [1, 4]

    def test_from_edges_with_isolated_vertices(self):
        m = MISMaintainer.from_edges([(1, 2)], vertices=[9])
        assert 9 in m.independent_set()

    def test_from_edge_list_file(self, tmp_path):
        g = erdos_renyi(20, 50, seed=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        m = MISMaintainer.from_edge_list_file(path)
        assert m.independent_set() == greedy_mis(g)

    def test_default_strategy_is_same_status(self):
        m = MISMaintainer.from_edges([(1, 2)])
        assert m.strategy is ActivationStrategy.SAME_STATUS

    def test_num_workers_configurable(self):
        m = MISMaintainer.from_edges([(1, 2)], num_workers=3)
        assert m.num_workers == 3


class TestVerify:
    def test_verify_passes_after_updates(self):
        g = erdos_renyi(30, 90, seed=2)
        m = MISMaintainer(g.copy())
        for u, v in g.sorted_edges()[:5]:
            m.delete_edge(u, v)
            m.verify()

    def test_verify_detects_corruption(self):
        m = MISMaintainer.from_edges([(1, 2), (2, 3)])
        m._states[2] = True  # corrupt: 2 is adjacent to members
        with pytest.raises(VerificationError):
            m.verify()


class TestStats:
    def test_stats_snapshot(self):
        g = erdos_renyi(25, 60, seed=3)
        m = MISMaintainer(g.copy())
        edge = g.sorted_edges()[0]
        m.delete_edge(*edge)
        stats = m.stats()
        assert stats["vertices"] == g.num_vertices
        assert stats["edges"] == g.num_edges - 1
        assert stats["updates_applied"] == 1.0
        assert stats["set_size"] == float(len(m))
        assert stats["supersteps"] >= 0
        assert "communication_mb" in stats and "wall_time_s" in stats

    def test_stats_reports_every_overhead_family(self):
        # a drain's cost lands on rebalance_*, which stats() must show
        # next to recovery_*
        from repro.bench.workloads import delete_reinsert_workload
        from repro.faults import DrainSpec, FaultPlan

        g = erdos_renyi(80, 240, seed=3)
        m = MISMaintainer(
            g.copy(), num_workers=4,
            faults=FaultPlan(drains=(DrainSpec(superstep=0, worker=1, run=2),)),
        )
        m.apply_stream(delete_reinsert_workload(g, 3, seed=1), batch_size=1)
        stats = m.stats()
        assert stats["rebalance_drains"] == 1.0
        assert stats["rebalance_moved_vertices"] > 0
        assert stats["recovery_failovers"] == 0.0


class TestDocExample:
    def test_maintainer_docstring_example(self):
        m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4)])
        assert sorted(m.independent_set()) == [1, 4]
        m.delete_edge(2, 3)
        assert sorted(m.independent_set()) == [1, 3]
        m.verify()

    def test_package_docstring_example(self):
        m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
        assert sorted(m.independent_set()) == [1, 3, 5]
        m.insert_edge(3, 5)
        assert sorted(m.independent_set()) == [1, 4]
