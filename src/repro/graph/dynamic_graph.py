"""In-memory dynamic undirected graph.

:class:`DynamicGraph` is the single-image graph substrate every algorithm in
this library runs on.  It stores adjacency as hash sets, so edge insertion,
deletion and membership tests are expected O(1), and it keeps vertex degrees
implicitly (``len`` of the adjacency set) and the edge count as a counter.
The distributed engines wrap a ``DynamicGraph`` with a partitioning layer
(:mod:`repro.graph.distributed_graph`).

Self-loops are rejected because an independent set can never contain a
self-looped vertex and the paper's graphs are simple.  Parallel edges are
rejected for the same reason.

Bulk construction (:meth:`DynamicGraph.from_edges`,
:meth:`DynamicGraph.from_csr`) is one numpy pass that builds the CSR arrays
and no set at all: each vertex maps to its row of those (read-only) base
arrays until the row is first touched, when :meth:`DynamicGraph._row`
builds its set in the order an incremental build would have.  Set-up
therefore pays only for the rows it reads -- the static run sweeps the
arrays and reads none -- and the base arrays are dropped once every row
is built.  The graph also keeps the arrays until its first mutation, and
:func:`csr_arrays` hands them out instead of walking the rows, so the
guest directory and the CSR mirror are built from the same arrays.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union,
)

import numpy as np

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.rank_cache import RankedAdjacency

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def normalize_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def id_array(values, shape_tail: Tuple[int, ...] = ()) -> Any:
    """``values`` -- vertex ids, or ``(u, v)`` pairs with ``shape_tail=(2,)``
    -- as one ``int64`` array.

    Ids must be integers (Python or numpy) in the ``int64`` range.  Anything
    else -- a float, a string, ``None``, an id outside ``int64`` -- raises
    :class:`GraphError` naming the first such id: numpy never casts a float
    to an int here.  An integer ndarray and a ``range`` convert without
    per-id Python; anything else converts in one pass, each id through
    ``operator.index`` straight into the array.
    """
    if isinstance(values, np.ndarray):
        if values.shape[1:] != shape_tail and values.size:
            _bad_shape(values, shape_tail)
        kind = values.dtype.kind
        if kind == "i" or (kind == "u" and values.max(initial=0)
                           <= _INT64_MAX):
            return values.astype(np.int64, copy=False) \
                .reshape((-1,) + shape_tail)
        values = values.tolist()  # floats, strings, objects: check each
    elif isinstance(values, range) and not shape_tail and (
            not values or _INT64_MIN <= min(values[0], values[-1])
            and max(values[0], values[-1]) <= _INT64_MAX):
        return np.arange(values.start, values.stop, values.step, np.int64)
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    flat, width = values, 1
    if shape_tail:
        width = shape_tail[0]
        try:
            # a count check alone would take [(1, 2, 3), (4,)] for 2 pairs
            malformed = bool(set(map(len, values)) - {width})
        except TypeError:  # an element without a length
            malformed = True
        if malformed:
            _bad_shape(values, shape_tail)
        flat = chain.from_iterable(values)
    try:
        arr = np.fromiter(map(operator.index, flat), np.int64,
                          count=len(values) * width)
    except (TypeError, OverflowError):
        for x in chain.from_iterable(values) if shape_tail else values:
            vertex_id(x)  # raises GraphError naming the first bad id
        raise
    return arr.reshape((len(values),) + shape_tail)


def _bad_shape(values, shape_tail: Tuple[int, ...]) -> None:
    """Raise :class:`GraphError` naming the first element of ``values``
    that is not a vertex id (``shape_tail=()``) or a ``(u, v)`` pair."""
    bad = next(x for x in values if np.shape(x) != shape_tail)
    what = "a (u, v) pair" if shape_tail else "a vertex id"
    raise GraphError(f"expected {what}, got {bad!r}")


def vertex_id(x) -> int:
    """``x`` as a vertex id: an ``int`` in the ``int64`` range.

    The one-id form of :func:`id_array`'s rule.  ``x`` converts through
    ``operator.index`` (an exact ``int`` comes back as the same object, a
    numpy integer as a Python ``int``); anything else -- a float, a
    string, ``None``, an id outside ``int64`` -- raises :class:`GraphError`
    naming it.
    """
    try:
        i = x if type(x) is int else int(operator.index(x))
    except TypeError:
        i = None
    if i is None or not _INT64_MIN <= i <= _INT64_MAX:
        raise GraphError(
            f"vertex id {x!r} is not an integer in the int64 range"
        )
    return i


def csr_arrays(graph: "DynamicGraph") -> Tuple[Any, Any, Any]:
    """``(ids, indptr, nbr)`` of ``graph``: ascending ``int64`` vertex ids,
    row pointers, and each row's neighbour *row indices*.

    The one array builder behind the guest directory, the CSR mirror
    (:meth:`repro.graph.csr.CSRPartition._rebuild`) and checkpoints.  The
    result is kept on the graph until its first mutation: later calls
    return the same (read-only) arrays instead of walking the sets again.
    Order within a row is the build's: insertion order from
    :meth:`DynamicGraph.from_edges`, the input's from
    :meth:`DynamicGraph.from_csr`, set order from a walk (which builds
    every untouched row); nothing reads it.
    """
    arrays = graph._arrays
    if arrays is None:
        order = graph.sorted_vertices()
        n = len(order)
        ids = np.fromiter(order, np.int64, count=n)
        adj = [graph.neighbors(u) for u in order]
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.fromiter(map(len, adj), np.int64, count=n),
                  out=indptr[1:])
        # one flat pass over the adjacency sets, then a vectorized id → row
        # translation (ids are ascending, so searchsorted is exact)
        nbr = np.searchsorted(ids, np.fromiter(
            chain.from_iterable(adj), np.int64, count=int(indptr[-1])
        ))
        arrays = graph._keep_arrays(ids, indptr, nbr)
    return arrays


def vertex_rows(graph: "DynamicGraph", ids) -> Any:
    """The row in ``ids`` -- ascending, every vertex of ``graph`` once,
    as :func:`csr_arrays` returns them -- of each vertex of ``graph`` in
    its vertex (insertion) order.

    A graph still holding the arrays of its bulk build returns the row
    order that build kept, with no per-vertex pass; otherwise the
    vertices are looked up in ``ids``.
    """
    if graph._order is not None and graph._arrays[0] is ids:
        return graph._order
    return np.searchsorted(ids, np.fromiter(
        graph.vertex_keys(), np.int64, count=len(graph)
    ))


#: the widest id span, per id occurrence, that :func:`_relabel` maps
#: through a bitmap instead of a sort
_DENSE_SPAN = 4


def _relabel(occ) -> Tuple[Any, Any]:
    """``np.unique(occ, return_inverse=True)``: the distinct ids ascending,
    and each occurrence's index among them (its row).

    When the ids span at most :data:`_DENSE_SPAN` times as many values as
    there are occurrences, a ``present`` bitmap over ``[min, max]`` and
    its running count give the same arrays in a few linear passes instead
    of a sort; sparser ids keep the sort.
    """
    if occ.size:
        lo = int(occ.min())
        span = int(occ.max()) - lo + 1  # a Python int: no int64 overflow
        if span <= _DENSE_SPAN * occ.size:
            # occ - lo lies in [0, span), so int64 holds it exactly
            offset = occ - lo
            present = np.zeros(span, np.bool_)
            present[offset] = True
            rank = np.cumsum(present, dtype=np.int64)
            rank -= 1
            return np.flatnonzero(present) + lo, rank[offset]
    return np.unique(occ, return_inverse=True)


def _edge_csr(edges, vertices) -> Tuple[Any, Any, Any, Any]:
    """:meth:`DynamicGraph.from_edges`' arrays: ``(ids, indptr, nbr)`` plus
    the row order an incremental build inserts vertices in.

    Every id occurrence is mapped to its row by :func:`_relabel` -- a
    bitmap over the id span when ids are dense (the common case: ids
    ``0..n-1``), ``np.unique`` otherwise; both give the same rows.  A
    self-loop raises :class:`SelfLoopError` and a bad id
    :class:`GraphError`, each naming the first offender."""
    pairs = id_array(edges, (2,))
    extra = id_array(vertices)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size:
        raise SelfLoopError(int(pairs[loops[0], 0]))
    # every id occurrence -- `vertices` first, then the endpoints
    # u0 v0 u1 v1 ... -- mapped to its row, then sorted by (row,
    # occurrence): each row's occurrences in input order.  A row's first
    # occurrence is where an incremental build inserts its id, and its
    # later ones, read as directed pairs (occurrence -> the edge's other
    # end), are its insertion order: edge k adds v to u's set, then u to
    # v's
    occ = np.concatenate((extra, pairs.ravel()))
    size = occ.size
    ids, row = _relabel(occ)
    n = ids.size
    by_row = np.sort(row * size + np.arange(size, dtype=np.int64))
    by_row %= max(size, 1)
    starts = np.zeros(n, np.int64)
    np.cumsum(np.bincount(row, minlength=n)[:-1], out=starts[1:])
    first = by_row[starts]
    pos = by_row[by_row >= extra.size] - extra.size
    ends = row[extra.size:]
    # one key per undirected edge; an incremental build keeps each key's
    # first occurrence (the least edge index in its run) and skips the
    # rest.  One plain sort finds whether any key repeats; only then
    # does an argsort pick the occurrences to keep
    lo = np.minimum(ends[0::2], ends[1::2])
    key = lo * n + (ends[0::2] + ends[1::2] - lo)
    if key.size and (np.diff(np.sort(key)) == 0).any():
        by_key = np.argsort(key)
        run = np.ones(key.size, np.bool_)
        run[1:] = key[by_key[1:]] != key[by_key[:-1]]
        kept = np.zeros(key.size, np.bool_)
        kept[np.minimum.reduceat(by_key, np.flatnonzero(run))] = True
        pos = pos[kept[pos >> 1]]
    nbr = ends[pos ^ 1]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(ends[pos], minlength=n), out=indptr[1:])
    return ids, indptr, nbr, np.argsort(first)


class DynamicGraph:
    """An undirected simple graph supporting efficient dynamic updates.

    Vertices are integers.  The class deliberately exposes a small, explicit
    API; algorithm-specific state (MIS membership, ranks, ...) lives with the
    algorithms, never on the graph.

    Example
    -------
    >>> g = DynamicGraph.from_edges([(1, 2), (2, 3)])
    >>> g.degree(2)
    2
    >>> g.remove_edge(1, 2)
    >>> sorted(g.neighbors(2))
    [3]
    """

    __slots__ = (
        "_adj", "_rank_caches", "_default_rank_cache", "_mutation_observers",
        "_arrays", "_order", "_base", "_lazy", "_m",
    )

    def __init__(self) -> None:
        # vertex -> adjacency set, or -> its row of the base arrays until
        # the row is first touched (see _row); insertion-ordered
        self._adj: Dict[int, Union[Set[int], int]] = {}
        #: (row bounds, neighbour row indices, ids as an object array) of
        #: a bulk build, while any row is still untouched
        self._base: Optional[Tuple[List[int], Any, Any]] = None
        self._lazy = 0  # untouched rows
        self._m = 0  # edges
        # rank-ordered adjacency caches kept in lock-step with mutations
        # (see repro.graph.rank_cache); attached lazily, so plain graphs
        # pay nothing beyond the empty-list check per update
        self._rank_caches: List[RankedAdjacency] = []
        self._default_rank_cache: Optional[RankedAdjacency] = None
        # mutation observers (e.g. the CSR partition mirror); notified
        # after each committed mutation, same lazy-attach economy as the
        # rank caches
        self._mutation_observers: List[Any] = []
        # (ids, indptr, nbr) this graph was built from or last walked into
        # (see csr_arrays); every mutator drops it before touching a set
        self._arrays: Optional[Tuple[Any, Any, Any]] = None
        # the row of each vertex in insertion order, kept with a bulk
        # build's arrays (see vertex_rows)
        self._order = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int]], vertices: Iterable[int] = ()
    ) -> "DynamicGraph":
        """Build a graph from an edge iterable (plus optional isolated vertices).

        Vertex ids are integers (Python or numpy) in the ``int64`` range;
        any other id raises :class:`GraphError` naming it.  Duplicate edges
        in the input are tolerated (the first occurrence counts, whichever
        way round it is written); a self-loop raises :class:`SelfLoopError`
        naming the first one.  Vertices are inserted in the order an
        incremental build would insert them -- ``vertices`` first, then
        endpoints by first appearance -- and so is every adjacency set,
        so vertex and neighbour iteration orders match
        ``add_vertex``/``add_edge``.  No adjacency set is built here: each
        row is built on first touch (see the module docstring).

        >>> g = DynamicGraph.from_edges([(1, 2), (2, 1), (2, 3)])
        >>> g.num_edges, sorted(g.neighbors(2))
        (2, [1, 3])
        >>> DynamicGraph.from_edges([(1, 2), (4, 4)])
        Traceback (most recent call last):
        ...
        repro.errors.SelfLoopError: self-loop (4, 4) is not allowed
        """
        return cls._from_arrays(*_edge_csr(edges, vertices))

    @classmethod
    def from_csr(cls, ids, indptr, nbr) -> "DynamicGraph":
        """Build a graph straight from CSR arrays: strictly ascending
        ``int64`` ``ids``, row pointers ``indptr`` and neighbour *row
        indices* ``nbr`` (the layout :func:`csr_arrays` returns).

        Raises ``ValueError`` unless the arrays describe a simple
        undirected graph: ``int64`` arrays, well-formed rows, in-range
        neighbours, no self-loops, no duplicate or one-way edges.  The
        graph keeps (read-only views of) the arrays -- it hands them out
        until its first mutation, and an untouched row reads ``nbr`` until
        it is built -- so do not write them afterwards.
        """
        if any(a.dtype != np.int64 for a in (ids, indptr, nbr)):
            raise ValueError("CSR arrays must be int64")
        n = ids.size
        lens = np.diff(indptr)
        if indptr.size != n + 1 or indptr[0] != 0 \
                or indptr[-1] != nbr.size or (lens < 0).any():
            raise ValueError("malformed row pointers")
        if (np.diff(ids) <= 0).any():
            raise ValueError("vertex ids are not strictly ascending")
        if nbr.size and (nbr.min() < 0 or nbr.max() >= n):
            raise ValueError("neighbour index out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        loops = rows == nbr
        if loops.any():
            raise ValueError(f"self-loop at vertex {ids[rows[loops][0]]}")
        # every (row, nbr) pair exactly once, and mirrored by (nbr, row)
        forward = np.sort(rows * n + nbr)
        if (forward[1:] == forward[:-1]).any():
            raise ValueError("duplicate edge in a row")
        if not np.array_equal(forward, np.sort(nbr * n + rows)):
            raise ValueError("asymmetric adjacency")
        return cls._from_arrays(ids, indptr, nbr)

    @classmethod
    def _from_arrays(cls, ids, indptr, nbr, order=None) -> "DynamicGraph":
        """A graph over valid CSR arrays, vertices inserted in ``order``
        (ascending ids by default), every row untouched; the graph keeps
        the arrays."""
        graph = cls()
        ids_list = ids.tolist()
        if order is None:
            rows = range(ids.size)
            order = np.arange(ids.size, dtype=np.int64)
        else:
            rows = order.tolist()
        graph._adj = dict(zip(map(ids_list.__getitem__, rows), rows))
        nbr = graph._keep_arrays(ids, indptr, nbr, order)[2]
        graph._m = nbr.size // 2
        if ids.size:
            # row sets will reference the keys' int objects (no int per
            # entry)
            graph._base = (indptr.tolist(), nbr,
                           np.array(ids_list, dtype=object))
            graph._lazy = ids.size
        return graph

    def _row(self, u: int) -> Set[int]:
        """The adjacency set of ``u`` (``KeyError`` if absent), built from
        the base arrays on first touch.  Every reader and mutator reaches
        a row through here; the base arrays list a row's neighbours in
        insertion order, so the set iterates as an incremental build's."""
        row = self._adj[u]
        if type(row) is not int:
            return row
        bounds, nbr, ids = self._base
        row = self._adj[u] = set(
            ids[nbr[bounds[row]:bounds[row + 1]]].tolist()
        )
        self._lazy -= 1
        if not self._lazy:
            self._base = None
        return row

    def _keep_arrays(self, ids, indptr, nbr,
                     order=None) -> Tuple[Any, Any, Any]:
        """Keep read-only views of this graph's CSR arrays, and of the row
        ``order`` vertices were inserted in when it is known, until the
        next mutation (see :func:`csr_arrays` and :func:`vertex_rows`)."""
        views = tuple(a.view() for a in (ids, indptr, nbr, order)
                      if a is not None)
        for view in views:
            view.flags.writeable = False
        self._arrays = views[:3]
        self._order = views[3] if order is not None else None
        return self._arrays

    def copy(self) -> "DynamicGraph":
        """Return a deep copy (adjacency sets and rank caches not shared).

        Builds every untouched row of this graph: each copied set is a
        copy of the built one, as for a graph that never was lazy."""
        clone = DynamicGraph()
        clone._adj = {u: set(self._row(u)) for u in self._adj}
        clone._m = self._m
        return clone

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, u: int) -> None:
        """Add an isolated vertex.  Adding an existing vertex is a no-op."""
        if u not in self._adj:
            self._arrays = self._order = None
            self._adj[u] = set()
            for obs in self._mutation_observers:
                obs.on_add_vertex(u)

    def remove_vertex(self, u: int) -> List[Tuple[int, int]]:
        """Remove ``u`` and all incident edges.

        Returns the list of removed edges (useful for maintenance algorithms
        that must process the implied edge deletions).

        Observers receive a single ``on_remove_vertex`` event covering the
        implied edge deletions, so the incident ``remove_edge`` calls below
        are not notified separately.
        """
        nbrs = self._require(u)
        self._arrays = self._order = None
        removed = [(u, v) for v in sorted(nbrs)]
        observers = self._mutation_observers
        if self._rank_caches:
            # route through remove_edge so every incident deletion repairs
            # the attached rank caches (neighbour degrees all shift)
            self._mutation_observers = ()
            try:
                for _, v in removed:
                    self.remove_edge(u, v)
            finally:
                self._mutation_observers = observers
            del self._adj[u]
            for cache in self._rank_caches:
                cache.on_remove_vertex(u)
        else:
            for v in nbrs:
                self._row(v).discard(u)
            self._m -= len(nbrs)
            del self._adj[u]
        for obs in observers:
            obs.on_remove_vertex(u)
        return removed

    def has_vertex(self, u: int) -> bool:
        return u in self._adj

    def vertex_keys(self):
        """Live vertex-id keys view — C-level membership and set ops."""
        return self._adj.keys()

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids in insertion order (a bulk build
        inserts as :meth:`from_edges` documents)."""
        return iter(self._adj)

    def sorted_vertices(self) -> List[int]:
        """All vertex ids in ascending order (deterministic iteration)."""
        return sorted(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)``; endpoints are created if missing.

        Raises
        ------
        SelfLoopError
            if ``u == v``.
        EdgeExistsError
            if the edge is already present.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        nbrs = self._row(u)
        if v in nbrs:
            raise EdgeExistsError(u, v)
        self._arrays = self._order = None
        nbrs.add(v)
        self._row(v).add(u)
        self._m += 1
        for cache in self._rank_caches:
            cache.on_add_edge(u, v)
        for obs in self._mutation_observers:
            obs.on_add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            if either endpoint or the edge itself is missing.
        """
        if v not in self._adj or not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._arrays = self._order = None
        self._row(u).discard(v)
        self._row(v).discard(u)
        self._m -= 1
        for cache in self._rank_caches:
            cache.on_remove_edge(u, v)
        for obs in self._mutation_observers:
            obs.on_remove_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._row(u)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges once each, in canonical ``(u < v)`` form."""
        for u in self._adj:
            for v in self._row(u):
                if u < v:
                    yield (u, v)

    def sorted_edges(self) -> List[Tuple[int, int]]:
        """All edges in canonical form, sorted (deterministic iteration)."""
        return sorted(self.edges())

    @property
    def num_edges(self) -> int:
        return self._m

    # ------------------------------------------------------------------
    # neighbourhoods
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> Set[int]:
        """The neighbour set of ``u`` (a live view; do not mutate)."""
        return self._require(u)

    def degree(self, u: int) -> int:
        """Current degree of ``u`` (the paper's ``deg(u, G)``); an
        untouched row's is its span in the base arrays."""
        try:
            row = self._adj[u]
        except KeyError:
            raise VertexNotFoundError(u) from None
        if type(row) is int:
            bounds = self._base[0]
            return bounds[row + 1] - bounds[row]
        return len(row)

    def average_degree(self) -> float:
        """``2m / n`` — the paper's ``deg_avg`` dataset statistic."""
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(map(self.degree, self._adj))

    # ------------------------------------------------------------------
    # rank-ordered adjacency (the paper's ≺ scan order, cached)
    # ------------------------------------------------------------------
    def rank_cache(self) -> RankedAdjacency:
        """The shared ``(degree, id)``-ordered adjacency cache.

        Created on first use — with a single bulk build of every ranked
        list (the engines' first run activates all vertices anyway, so the
        bulk pass never sorts a list lazy materialization wouldn't) — and
        kept in lock-step with every mutation; all engines running on this
        graph share it.
        """
        if self._default_rank_cache is None:
            self._default_rank_cache = RankedAdjacency(self)
            self._rank_caches.append(self._default_rank_cache)
            self._default_rank_cache.build_all()
        return self._default_rank_cache

    def ranked_neighbors(self, u: int) -> List[int]:
        """Neighbours of ``u`` in ascending ``(degree, id)`` order (cached;
        a live view — do not mutate)."""
        return self.rank_cache().ranked_neighbors(u)

    def attach_rank_cache(
        self, key: Callable[[int], Any], bulk: bool = False
    ) -> RankedAdjacency:
        """Attach an extra cache ordered by a custom rank key (e.g. the
        weighted ``≺_w``); it is repaired on every subsequent mutation.

        ``bulk=True`` materializes every list immediately via
        :meth:`RankedAdjacency.build_all` (one counted build); the default
        keeps lazy materialization, which is the right economy for caches
        re-attached per run over small affected sets."""
        cache = RankedAdjacency(self, key=key)
        self._rank_caches.append(cache)
        if bulk:
            cache.build_all()
        return cache

    def detach_rank_cache(self, cache: RankedAdjacency) -> None:
        """Stop repairing ``cache`` (no-op if it is not attached)."""
        if cache in self._rank_caches:
            self._rank_caches.remove(cache)
        if cache is self._default_rank_cache:
            self._default_rank_cache = None

    # ------------------------------------------------------------------
    # mutation observers
    # ------------------------------------------------------------------
    def attach_mutation_observer(self, observer: Any) -> None:
        """Notify ``observer`` after every committed mutation.

        The observer implements ``on_add_vertex(u)``, ``on_add_edge(u, v)``,
        ``on_remove_edge(u, v)`` and ``on_remove_vertex(u)``; the CSR
        partition mirror (:mod:`repro.graph.csr`) uses this to repair its
        arrays incrementally.  Attaching twice is a no-op.
        """
        if observer not in self._mutation_observers:
            self._mutation_observers.append(observer)

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def _require(self, u: int) -> Set[int]:
        try:
            return self._row(u)
        except KeyError:
            raise VertexNotFoundError(u) from None

    def __contains__(self, u: int) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and all(
            self._row(u) == other._row(u) for u in self._adj
        )

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"deg_avg={self.average_degree():.2f})"
        )
