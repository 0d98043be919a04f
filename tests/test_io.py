"""Unit tests for graph I/O (SNAP edge lists and adjacency format)."""

import io

import pytest

from repro.errors import GraphError
from repro.graph import io as gio
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi


class TestEdgeList:
    def test_roundtrip_string(self):
        g = erdos_renyi(20, 40, seed=1)
        text = gio.edge_list_string(g)
        back = gio.read_edge_list(io.StringIO(text))
        assert back == g

    def test_roundtrip_file(self, tmp_path):
        g = erdos_renyi(15, 30, seed=2)
        path = tmp_path / "graph.txt"
        gio.write_edge_list(g, path)
        assert gio.read_edge_list(path) == g

    def test_header_written(self, tmp_path):
        g = DynamicGraph.from_edges([(1, 2)])
        path = tmp_path / "g.txt"
        gio.write_edge_list(g, path, header=True)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#") and "Nodes: 2" in first

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\n% other comment\n1 2\n"
        g = gio.read_edge_list(io.StringIO(text))
        assert g.num_edges == 1

    def test_separator_variants(self):
        g = gio.read_edge_list(io.StringIO("1\t2\n3,4\n5 6\n"))
        assert g.num_edges == 3

    def test_duplicate_edges_collapse(self):
        g = gio.read_edge_list(io.StringIO("1 2\n2 1\n1 2\n"))
        assert g.num_edges == 1

    def test_self_loops_skipped_by_default(self):
        g = gio.read_edge_list(io.StringIO("1 1\n1 2\n"))
        assert g.num_edges == 1

    def test_self_loops_rejected_when_strict(self):
        with pytest.raises(GraphError):
            gio.read_edge_list(io.StringIO("1 1\n"), skip_self_loops=False)

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2"):
            gio.read_edge_list(io.StringIO("1 2\nbogus\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError, match="non-integer"):
            gio.read_edge_list(io.StringIO("a b\n"))

    def test_one_bulk_build_matches_incremental(self, tmp_path):
        text = ("# SNAP dump\n% other comment\n\n5 3\n3 5\n7 7\n"
                "3,9\n5\t3\n9 9\n1 5\n")
        path = tmp_path / "dups.txt"
        path.write_text(text)
        g = gio.read_edge_list(path)
        # self-loops skipped (their vertices too), duplicates collapsed
        # whichever way round, insertion order as an incremental build
        ref = DynamicGraph()
        for u, v in [(5, 3), (3, 9), (1, 5)]:
            ref.add_edge(u, v)
        # orders before `==`, which builds every row first
        assert list(g.vertices()) == list(ref.vertices()) == [5, 3, 9, 1]
        for u in ref.vertices():
            assert list(g.neighbors(u)) == list(ref.neighbors(u))
        assert g == ref
        with pytest.raises(GraphError, match=r"self-loop \(7, 7\) in input"):
            gio.read_edge_list(path, skip_self_loops=False)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(GraphError, match=str(2 ** 64)):
            gio.read_edge_list(io.StringIO(f"1 {2 ** 64}\n"))

    def test_iter_edge_list_order(self):
        pairs = list(gio.iter_edge_list(io.StringIO("3 4\n1 2\n")))
        assert pairs == [(3, 4), (1, 2)]


class TestAdjacency:
    def test_roundtrip(self, tmp_path):
        g = erdos_renyi(12, 20, seed=3)
        path = tmp_path / "adj.txt"
        gio.write_adjacency(g, path)
        assert gio.read_adjacency(path) == g

    def test_isolated_vertices_preserved(self, tmp_path):
        g = DynamicGraph.from_edges([(1, 2)], vertices=[7])
        path = tmp_path / "adj.txt"
        gio.write_adjacency(g, path)
        back = gio.read_adjacency(path)
        assert back.has_vertex(7) and back.degree(7) == 0

    def test_missing_colon_rejected(self):
        with pytest.raises(GraphError, match="missing ':'"):
            gio.read_adjacency(io.StringIO("1 2 3\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError):
            gio.read_adjacency(io.StringIO("x: 1 2\n"))

    def test_comments_skipped(self):
        g = gio.read_adjacency(io.StringIO("# c\n1: 2\n"))
        assert g.num_edges == 1
