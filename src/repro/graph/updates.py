"""Graph update operations.

The paper's dynamic workload is a sequence of edge insertions and deletions
(Section VII), plus vertex insertion/deletion handled as batches of incident
edge updates (Section VI).  This module defines the operation types, the
batch container, and helpers to apply operations to a
:class:`~repro.graph.dynamic_graph.DynamicGraph` while reporting the affected
vertex set of Definition 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Union

from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph, normalize_edge, vertex_id


class _EdgeRecord:
    """The body both edge updates share: two id slots and no ``__dict__``.

    A record is 48 bytes (``sys.getsizeof``; 152 with a ``__dict__``),
    which matters because a stream, a service queue and a replayed log hold
    one per event.  The constructor applies the library's id rule
    (:func:`~repro.graph.dynamic_graph.vertex_id`), so a record that exists
    holds two ``int`` ids in the ``int64`` range: a bad id is refused where
    it enters, not in the middle of a batch or a log encode.  Each subclass
    is a frozen dataclass over these slots (``repr``, kind-sensitive ``==``,
    ``hash(op) == hash((u, v))``); ``__reduce__`` rebuilds through the
    constructor, because pickle's default slot restore would write to a
    frozen instance.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int) -> None:
        _set_u(self, vertex_id(u))
        _set_v(self, vertex_id(v))

    def __reduce__(self):
        return type(self), (self.u, self.v)

    @property
    def edge(self) -> Tuple[int, int]:
        return normalize_edge(self.u, self.v)


# the slots' own setters: they bypass the frozen ``__setattr__`` at half
# the cost of ``object.__setattr__``
_set_u = _EdgeRecord.u.__set__
_set_v = _EdgeRecord.v.__set__


@dataclass(frozen=True, init=False)
class EdgeInsertion(_EdgeRecord):
    """Insert edge ``(u, v)`` — the paper's ``(ins, u, v)``."""

    __slots__ = ()
    u: int
    v: int

    def inverse(self) -> "EdgeDeletion":
        """The operation that undoes this one."""
        return EdgeDeletion(self.u, self.v)


@dataclass(frozen=True, init=False)
class EdgeDeletion(_EdgeRecord):
    """Delete edge ``(u, v)`` — the paper's ``(del, u, v)``."""

    __slots__ = ()
    u: int
    v: int

    def inverse(self) -> EdgeInsertion:
        return EdgeInsertion(self.u, self.v)


@dataclass(frozen=True)
class VertexInsertion:
    """Insert vertex ``u`` together with its incident edges.

    Per Section VI of the paper, a vertex insertion is processed by first
    adding ``u`` to the MIS (``u.in = true``) and then applying all incident
    edges as one batch.  The constructor applies the id rule to ``u`` and
    every neighbour, as edge records do; ``neighbors`` becomes a tuple.
    """

    u: int
    neighbors: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", vertex_id(self.u))
        object.__setattr__(
            self, "neighbors", tuple(vertex_id(v) for v in self.neighbors)
        )

    def edge_updates(self) -> List[EdgeInsertion]:
        return [EdgeInsertion(self.u, v) for v in self.neighbors]


@dataclass(frozen=True)
class VertexDeletion:
    """Delete vertex ``u``: batch-delete incident edges, then drop ``u``."""

    u: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", vertex_id(self.u))


EdgeUpdate = Union[EdgeInsertion, EdgeDeletion]
UpdateOp = Union[EdgeInsertion, EdgeDeletion, VertexInsertion, VertexDeletion]


class UpdateBatch:
    """An ordered batch of edge updates (the paper's ``OP``).

    Iterating yields the operations in insertion order.  The batch also
    exposes :meth:`touched_vertices` (terminal vertices of all operations)
    used to seed the affected set of Definition 4.1 / Section VI.
    """

    def __init__(self, operations: Iterable[EdgeUpdate] = ()) -> None:
        self._ops: List[EdgeUpdate] = list(operations)
        for op in self._ops:
            if not isinstance(op, (EdgeInsertion, EdgeDeletion)):
                raise WorkloadError(
                    f"UpdateBatch only holds edge updates, got {type(op).__name__}"
                )

    def append(self, op: EdgeUpdate) -> None:
        if not isinstance(op, (EdgeInsertion, EdgeDeletion)):
            raise WorkloadError(
                f"UpdateBatch only holds edge updates, got {type(op).__name__}"
            )
        self._ops.append(op)

    def touched_vertices(self) -> Set[int]:
        """All terminal vertices of the batch's operations."""
        touched: Set[int] = set()
        for op in self._ops:
            touched.add(op.u)
            touched.add(op.v)
        return touched

    def inverse(self) -> "UpdateBatch":
        """The batch that undoes this one (reversed order, inverted ops)."""
        return UpdateBatch(op.inverse() for op in reversed(self._ops))

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self._ops[index]

    def __repr__(self) -> str:
        ins = sum(1 for op in self._ops if isinstance(op, EdgeInsertion))
        return f"UpdateBatch(len={len(self._ops)}, insertions={ins}, deletions={len(self._ops) - ins})"


def apply_edge_update(graph: DynamicGraph, op: EdgeUpdate) -> None:
    """Apply a single edge update to ``graph`` in place."""
    if isinstance(op, EdgeInsertion):
        graph.add_edge(op.u, op.v)
    elif isinstance(op, EdgeDeletion):
        graph.remove_edge(op.u, op.v)
    else:  # pragma: no cover - defensive
        raise WorkloadError(f"unknown edge update {op!r}")


def affected_vertices(graph: DynamicGraph, touched: Iterable[int]) -> Set[int]:
    """The affected vertex set of Definition 4.1 on the *updated* graph.

    ``touched`` is the set of terminal vertices of the update operations; the
    affected set is those vertices plus all their current neighbours.
    Vertices that were removed from the graph (vertex deletion) are skipped.
    """
    affected: Set[int] = set()
    for u in touched:
        if not graph.has_vertex(u):
            continue
        affected.add(u)
        affected.update(graph.neighbors(u))
    return affected


def apply_batch(graph: DynamicGraph, batch: Sequence[EdgeUpdate]) -> Set[int]:
    """Apply a batch of edge updates and return the affected vertex set.

    The affected set is computed on the updated graph per Section VI:
    every terminal vertex of every operation, plus their neighbours after
    all updates are applied.
    """
    touched: Set[int] = set()
    for op in batch:
        apply_edge_update(graph, op)
        touched.add(op.u)
        touched.add(op.v)
    return affected_vertices(graph, touched)
