"""Graph serialization: SNAP-style edge lists and adjacency dumps.

The paper's datasets are distributed as SNAP edge lists (one ``u v`` pair
per line, ``#`` comments).  These readers/writers allow users to run the
library on their own graphs in the same format.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterator, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.dynamic_graph import DynamicGraph, id_array

PathOrFile = Union[str, Path, IO[str]]


def _open_for_read(source: PathOrFile) -> Tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: PathOrFile) -> Tuple[IO[str], bool]:
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def iter_edge_list(source: PathOrFile) -> Iterator[Tuple[int, int]]:
    """Yield ``(u, v)`` pairs from a SNAP-style edge list.

    Lines starting with ``#`` or ``%`` and blank lines are skipped.
    Separators may be spaces, tabs, or commas.

    Raises :class:`GraphError` on malformed lines, naming the line number.
    """
    handle, owned = _open_for_read(source)
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
                raise GraphError(f"edge list line {lineno}: expected two ids, got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"edge list line {lineno}: non-integer vertex id in {raw!r}"
                ) from exc
            yield (u, v)
    finally:
        if owned:
            handle.close()


def read_edge_list(source: PathOrFile, skip_self_loops: bool = True) -> DynamicGraph:
    """Load a graph from a SNAP-style edge list.

    Duplicate edges collapse to one; self-loops are skipped by default
    (SNAP dumps contain them but simple graphs do not).  The parsed pairs
    go through one :meth:`DynamicGraph.from_edges` call.
    """
    pairs = id_array(iter_edge_list(source), (2,))
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        if not skip_self_loops:
            u, v = pairs[np.argmax(loops)].tolist()
            raise GraphError(f"self-loop ({u}, {v}) in input")
        pairs = pairs[~loops]
    return DynamicGraph.from_edges(pairs)


def write_edge_list(graph: DynamicGraph, target: PathOrFile, header: bool = True) -> None:
    """Write ``graph`` as a SNAP-style edge list (canonical ``u < v`` lines)."""
    handle, owned = _open_for_write(target)
    try:
        if header:
            handle.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
        for u, v in graph.sorted_edges():
            handle.write(f"{u}\t{v}\n")
    finally:
        if owned:
            handle.close()


def edge_list_string(graph: DynamicGraph, header: bool = False) -> str:
    """Render ``graph`` as an edge-list string (handy in tests and examples)."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer, header=header)
    return buffer.getvalue()


def read_update_stream(source: PathOrFile):
    """Load an edge-update stream: one ``ins u v`` / ``del u v`` per line.

    ``#`` comments and blank lines are skipped.  Returns a list of
    :class:`~repro.graph.updates.EdgeInsertion` /
    :class:`~repro.graph.updates.EdgeDeletion` in file order.
    """
    from repro.graph.updates import EdgeDeletion, EdgeInsertion

    ops = []
    handle, owned = _open_for_read(source)
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(
                    f"update stream line {lineno}: expected 'ins|del u v', got {raw!r}"
                )
            kind = parts[0].lower()
            if kind in ("ins", "insert", "+"):
                record = EdgeInsertion
            elif kind in ("del", "delete", "-"):
                record = EdgeDeletion
            else:
                raise GraphError(
                    f"update stream line {lineno}: unknown operation {parts[0]!r}"
                )
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphError(
                    f"update stream line {lineno}: non-integer vertex id in {raw!r}"
                ) from exc
            try:
                ops.append(record(u, v))
            except GraphError as exc:  # an id outside int64
                raise GraphError(
                    f"update stream line {lineno}: {exc}"
                ) from exc
    finally:
        if owned:
            handle.close()
    return ops


def write_update_stream(operations, target: PathOrFile) -> None:
    """Write an edge-update stream in the format of :func:`read_update_stream`."""
    from repro.graph.updates import EdgeInsertion

    handle, owned = _open_for_write(target)
    try:
        for op in operations:
            kind = "ins" if isinstance(op, EdgeInsertion) else "del"
            handle.write(f"{kind} {op.u} {op.v}\n")
    finally:
        if owned:
            handle.close()


def read_adjacency(source: PathOrFile) -> DynamicGraph:
    """Load a graph from an adjacency format: ``u: v1 v2 v3`` per line.

    Vertices with no neighbours can be declared with a bare ``u:`` line.
    """
    graph = DynamicGraph()
    handle, owned = _open_for_read(source)
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise GraphError(f"adjacency line {lineno}: missing ':' in {raw!r}")
            head, _, tail = line.partition(":")
            try:
                u = int(head.strip())
                nbrs = [int(tok) for tok in tail.split()]
            except ValueError as exc:
                raise GraphError(
                    f"adjacency line {lineno}: non-integer id in {raw!r}"
                ) from exc
            graph.add_vertex(u)
            for v in nbrs:
                graph.add_vertex(v)
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v)
    finally:
        if owned:
            handle.close()
    return graph


def write_adjacency(graph: DynamicGraph, target: PathOrFile) -> None:
    """Write ``graph`` in the adjacency format accepted by :func:`read_adjacency`."""
    handle, owned = _open_for_write(target)
    try:
        for u in graph.sorted_vertices():
            nbrs = " ".join(str(v) for v in sorted(graph.neighbors(u)))
            handle.write(f"{u}: {nbrs}\n" if nbrs else f"{u}:\n")
    finally:
        if owned:
            handle.close()
