"""Array-native (CSR) partition representation for the sweep hot path.

The dict-path engines walk Python sets/dicts vertex by vertex — correct,
and the bit-identity reference, but the gating cost on the Fig. 10/11
workloads.  This module keeps a flat-array mirror of one
:class:`~repro.graph.distributed_graph.DistributedGraph` partition-local
view so a whole superstep sweep becomes a few vectorized numpy passes:

- ``ids``      — every vertex id, ascending ``int64`` (row order);
- ``keys``     — the paper's total order ``≺`` packed into one ``int64``
  per vertex: ``(degree << 32) | id``, which compares exactly like the
  ``(degree, id)`` tuple for ``0 <= id < 2^32`` and ``degree < 2^31``;
- ``indptr`` / ``nbr`` — CSR adjacency, each row holding the neighbour
  *row indices*, grouped by row and in no particular order within it
  (the sweep compares ``keys`` instead of relying on a rank-sorted scan);
- ``home``     — the owning logical worker per row
  (:func:`repro.pregel.partition.home_array`);
- ``in_``      — the packed membership bitmap (one ``bool`` per row),
  synced from the engine's state dict at run entry (a static run starts
  it from the kernel's initial states instead, and keeps its states
  nowhere else) and updated in place from each kernel sweep's changed
  rows at every barrier commit.  ``states_synced`` says whether it holds
  the states the engine last committed: a rebuild leaves a placeholder
  until the next sync, which checkpoints
  (:meth:`~repro.core.maintainer.MISMaintainer.save`) then do first;
- ``guests``   — each row's guest-copy count (workers other than its home
  hosting a neighbour), what the fault-free barrier charges a state
  change; master-side only, never published.

The mirror registers as a :class:`DynamicGraph` mutation observer (the
same protocol the rank caches use) and repairs itself incrementally: an
edge update re-keys its endpoints and refetches only their two rows;
vertex insertion/removal schedules a full rebuild.
``ensure()`` settles all pending repairs before a run.  The first build
takes the graph's own arrays (:func:`~repro.graph.dynamic_graph.csr_arrays`)
when the graph is still unmutated since it was bulk-built, so it never
walks the adjacency sets; those arrays are read-only, and the first
in-place repair writes to a copy.  It also takes ``home``, ``guests`` and
the row map from the guest directory built from the same arrays
(:meth:`~repro.graph.distributed_graph.DistributedGraph.rows_of`) instead
of computing them a second time.

The multi-process runtime (:mod:`repro.runtime.parallel`) copies these
arrays into the shared-memory frame its workers map; this module holds
only private arrays, the sweep kernel and activation routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.graph.distributed_graph import guest_flags
from repro.graph.dynamic_graph import csr_arrays, vertex_rows
from repro.pregel.partition import home_array

_REPRESENTATIONS = ("dict", "csr")


def resolve_representation(value: Optional[str]) -> str:
    """Resolve an engine's ``representation=`` argument.

    ``None`` means ``"csr"``: programs that provide a kernel sweep on the
    array mirror.  ``"dict"`` selects the reference path; anything else
    raises.
    """
    if value is None:
        return "csr"
    if value not in _REPRESENTATIONS:
        raise ValueError(
            f"unknown representation {value!r}: expected one of "
            f"{_REPRESENTATIONS}"
        )
    return value


@dataclass
class CSRSweepExtras:
    """Typed delta arrays a CSR kernel sweep hands to the barrier.

    All four are numpy arrays over *row indices* of the partition's CSR
    arrays (not vertex ids); ``req_src``/``req_tgt`` are aligned pairs,
    one entry per raw activation request (duplicates preserved — the
    engine's ``messages`` meter counts requests, not targets).
    """

    changed_idx: Any  # int64[k] rows whose state flipped, ascending
    changed_val: Any  # bool[k]  their new membership values
    req_src: Any  # int64[r] activation source rows (non-decreasing)
    req_tgt: Any  # int64[r] activation target rows


class CSRPartition:
    """Flat-array mirror of a distributed partition, repaired under
    mutations via the graph's observer protocol (see module docstring)."""

    def __init__(self, dgraph) -> None:
        self._dgraph = dgraph
        self._graph = dgraph.graph
        self.ids = None
        self.keys = None
        self.indptr = None
        self.nbr = None
        self.home = None
        self.in_ = None
        #: whether ``in_`` holds the engine's last committed states (see
        #: the module docstring)
        self.states_synced = False
        self.guests = None
        self._index: Dict[int, int] = {}
        self._ids_list: List[int] = []
        #: bumped whenever ids/keys/indptr/nbr/home change (repairs and
        #: rebuilds both); the process runtime's frame and the snapshot
        #: registry recopy those arrays only when it moves
        self.structure_version = 0
        self.rebuilds = 0
        self.repairs = 0
        self._needs_rebuild = True
        self._dirty_keys: set = set()

    # -- attachment -----------------------------------------------------
    @classmethod
    def attach(cls, dgraph) -> "CSRPartition":
        """The (cached) CSR mirror of ``dgraph``, observer-attached."""
        part = getattr(dgraph, "_csr_partition", None)
        if part is None:
            part = cls(dgraph)
            dgraph._csr_partition = part
            dgraph.graph.attach_mutation_observer(part)
        return part

    # -- mutation observer (DynamicGraph protocol) ----------------------
    def on_add_vertex(self, u: int) -> None:
        self._needs_rebuild = True

    def on_remove_vertex(self, u: int) -> None:
        self._needs_rebuild = True

    def on_add_edge(self, u: int, v: int) -> None:
        self._mark_edge(u, v)

    def on_remove_edge(self, u: int, v: int) -> None:
        self._mark_edge(u, v)

    def _mark_edge(self, u: int, v: int) -> None:
        if self._needs_rebuild:
            return
        if u not in self._index or v not in self._index:
            # an endpoint this mirror has never seen (implicitly created
            # by add_edge): row set changed, full rebuild
            self._needs_rebuild = True
            return
        # the endpoints' degrees (hence keys) and rows changed
        self._dirty_keys.add(u)
        self._dirty_keys.add(v)

    # -- build / repair -------------------------------------------------
    def ensure(self) -> None:
        """Settle every pending repair; cheap no-op when already fresh."""
        if self._needs_rebuild or self.ids is None:
            self._rebuild()
            self._needs_rebuild = False
            self._dirty_keys.clear()
        elif self._dirty_keys:
            self._repair()
            self._dirty_keys.clear()

    def _rebuild(self) -> None:
        arrays = csr_arrays(self._graph)
        ids, indptr, nbr = arrays
        n = ids.size
        if n:
            if int(ids[0]) < 0 or int(ids[-1]) >= 1 << 32:
                raise ValueError(
                    "the CSR layout requires vertex ids in [0, 2^32): the "
                    "packed rank key would misorder; build the engine with "
                    "representation='dict' for other ids"
                )
        self.ids = ids
        self.keys = (np.diff(indptr) << 32) | ids
        self.indptr = indptr
        self.nbr = nbr
        built = self._dgraph.rows_of(arrays)
        if built is None:
            # the graph changed since the directory was built, so its
            # slots are not these rows
            self.home = home_array(self._dgraph.partitioner, ids)
            owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            built = (self.home, self._guest_counts(owners, nbr, self.home),
                     dict(zip(ids.tolist(), range(n))))
        self.home, self.guests, self._index = built
        self._ids_list = list(self._index)
        self.in_ = np.zeros(n, np.bool_)
        self.states_synced = False
        self.structure_version += 1
        self.rebuilds += 1

    def _repair(self) -> None:
        graph = self._graph
        index = self._index
        keys = self.keys
        for u in self._dirty_keys:
            keys[index[u]] = (graph.degree(u) << 32) | u
        indptr = self.indptr
        nbr = self.nbr
        # only the endpoints' rows changed *membership*: they refetch from
        # the adjacency sets (lengths may differ).  Every other row holding
        # an endpoint keeps its members — only a key moved, and nothing
        # reads order within a row.
        rows = sorted(index[u] for u in self._dirty_keys)
        if rows:
            row_sets = [graph.neighbors(int(self.ids[r])) for r in rows]
            counts = np.fromiter(map(len, row_sets), np.int64,
                                 count=len(rows))
            flat = np.searchsorted(self.ids, np.fromiter(
                chain.from_iterable(row_sets), np.int64,
                count=int(counts.sum()),
            ))
            rows_arr = np.fromiter(rows, np.int64, count=len(rows))
            owners = np.repeat(
                np.arange(rows_arr.size, dtype=np.int64), counts
            )
            # only these rows' neighbour sets changed, so only their guest
            # counts can have moved
            self.guests[rows_arr] = self._guest_counts(
                owners, flat, self.home[rows_arr]
            )
            same_len = bool(np.array_equal(
                counts, indptr[rows_arr + 1] - indptr[rows_arr]
            ))
            if same_len:
                if not nbr.flags.writeable:
                    # still the graph's read-only build arrays: take a copy
                    nbr = self.nbr = nbr.copy()
                # scatter every refetched row in one shot: map flat's
                # positions onto the rows' existing slices
                starts = indptr[rows_arr]
                offs = np.zeros(rows_arr.size, np.int64)
                np.cumsum(counts[:-1], out=offs[1:])
                nbr[np.arange(flat.size, dtype=np.int64)
                    - offs[owners] + starts[owners]] = flat
            else:
                new_rows = np.split(flat, np.cumsum(counts[:-1]))
                lens = np.diff(indptr)
                pieces = []
                prev = 0
                for ridx, arr in zip(rows, new_rows):
                    start = int(indptr[ridx])
                    pieces.append(nbr[prev:start])
                    pieces.append(arr)
                    prev = int(indptr[ridx + 1])
                    lens[ridx] = arr.size
                pieces.append(nbr[prev:])
                self.nbr = np.concatenate(pieces) if pieces else nbr[:0]
                nptr = np.zeros(lens.size + 1, np.int64)
                np.cumsum(lens, out=nptr[1:])
                self.indptr = nptr
        self.structure_version += 1
        self.repairs += 1

    def _guest_counts(self, owners, targets, row_home):
        """Guest copies of each row in ``row_home`` from its adjacency
        entries: ``owners`` indexes ``row_home``, ``targets`` are the
        neighbours' row indices."""
        return guest_flags(owners, self.home[targets], row_home,
                           self._dgraph.num_workers)[0].sum(axis=1)

    # -- state bitmap ---------------------------------------------------
    def sync_states(self, states: Dict[int, Any]) -> None:
        """(Re)load the membership bitmap from the engine's state dict.

        Requires a state entry for every vertex of the graph (the engines
        guarantee it); missing entries raise ``KeyError`` rather than
        silently diverging from the dict path.
        """
        self.in_ = np.fromiter(
            map(states.__getitem__, self._ids_list), np.bool_,
            count=len(self._ids_list),
        )
        self.states_synced = True

    def states_dict(self) -> Dict[int, bool]:
        """The bitmap as a state dict keyed by the graph's own vertex
        objects, in its vertex order: what a static run that kept its
        states in the bitmap returns."""
        rows = vertex_rows(self._graph, self.ids)
        return dict(zip(self._graph.vertex_keys(), self.in_[rows].tolist()))

    def index_of(self, vertex_ids) -> Any:
        """Row indices of ``vertex_ids``: distinct ids in ascending order,
        every one present.  As many ids as rows are every row, so a static
        run's first sweep takes ``arange`` without a search."""
        count = len(vertex_ids)
        if count == self.ids.size:
            return np.arange(count, dtype=np.int64)
        arr = np.fromiter(vertex_ids, np.int64, count=count)
        return np.searchsorted(self.ids, arr)


# ---------------------------------------------------------------------------
# vectorized OIMIS sweep kernel
# ---------------------------------------------------------------------------
def _sweep_arrays(arrs, active_idx, full_scan: bool, suffix_only: bool,
                  num_workers: int):
    """One OIMIS compute sweep over ``active_idx`` rows, vectorized.

    Reproduces the dict path's work accounting exactly (see
    ``OIMISProgram.compute``): with ``P`` prefix neighbours (rank key
    below the vertex's own) and the early break enabled, a vertex whose
    first in-set prefix neighbour sits at 0-based rank position ``f``
    charges ``2*(f+1)``; a vertex with no hit charges
    ``P + min(P+1, deg)``; the SCALL full scan always charges
    ``deg + P``.  Activation requests are emitted for changed vertices
    only — the full ranked row (`ALL`) or its non-prefix suffix
    (`LOWER_RANKING`/`SAME_STATUS`).  Nothing here depends on order
    within a row: prefix membership and the early-break position are both
    key comparisons.

    Returns ``(compute_work, worker_work, changed_idx, changed_val,
    req_src, req_tgt)`` with row-index arrays (see
    :class:`CSRSweepExtras`).
    """
    a = active_idx
    n_a = int(a.size)
    empty = np.empty(0, np.int64)
    if n_a == 0:
        return (0, [0] * num_workers, empty, np.empty(0, np.bool_),
                empty, np.empty(0, np.int64))
    indptr = arrs.indptr
    keys = arrs.keys
    in_ = arrs.in_
    starts = indptr[a]
    lens = indptr[a + 1] - starts
    total = int(lens.sum())
    if total:
        owners = np.repeat(np.arange(n_a, dtype=np.int64), lens)
        if n_a == indptr.size - 1:
            # every row (active rows are distinct): the rows' slices are
            # nbr itself, in row order
            nbrs = arrs.nbr
        else:
            offs = np.zeros(n_a, np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            nbrs = arrs.nbr[np.arange(total, dtype=np.int64)
                            - offs[owners] + starts[owners]]
        nkeys = keys[nbrs]
        prefix = nkeys < keys[a][owners]
        pcounts = np.bincount(
            owners, weights=prefix, minlength=n_a
        ).astype(np.int64)
        # first-hit position without assuming rank-sorted rows: the
        # early break stops at the *minimum-key* in-set prefix neighbour,
        # and its 0-based rank position equals the count of members keyed
        # strictly below it (all of which are prefix members themselves)
        hit_pos = np.flatnonzero(prefix & in_[nbrs])
        if hit_pos.size:
            h_owner = owners[hit_pos]
            gstarts = np.concatenate((
                np.zeros(1, np.int64), np.flatnonzero(np.diff(h_owner)) + 1
            ))
            hit_owner = h_owner[gstarts]
            min_keys = np.minimum.reduceat(nkeys[hit_pos], gstarts)
            # keys are non-negative, so a zero threshold counts nothing
            # for owners without a hit (their f is never read anyway)
            thresh = np.zeros(n_a, np.int64)
            thresh[hit_owner] = min_keys
            f_local = np.bincount(
                owners, weights=nkeys < thresh[owners], minlength=n_a
            ).astype(np.int64)[hit_owner]
        else:
            hit_owner = empty
            f_local = empty
    else:
        owners = empty
        nbrs = empty
        prefix = np.empty(0, np.bool_)
        pcounts = np.zeros(n_a, np.int64)
        hit_owner = empty
        f_local = empty
    new_in = np.ones(n_a, np.bool_)
    new_in[hit_owner] = False
    if full_scan:
        work = lens + pcounts
    else:
        work = pcounts + np.minimum(pcounts + 1, lens)
        work[hit_owner] = 2 * (f_local + 1)
    compute_work = int(work.sum())
    worker_work = np.bincount(
        arrs.home[a], weights=np.maximum(work, 1), minlength=num_workers
    ).astype(np.int64).tolist()
    changed_mask = new_in != in_[a]
    changed_sel = np.flatnonzero(changed_mask)
    changed_idx = a[changed_sel]
    changed_val = new_in[changed_sel]
    if total and changed_sel.size:
        sel = changed_mask[owners]
        if suffix_only:
            sel = sel & ~prefix
        req_src = a[owners[sel]]
        req_tgt = nbrs[sel]
    else:
        req_src = empty
        req_tgt = np.empty(0, np.int64)
    return (compute_work, worker_work, changed_idx, changed_val,
            req_src, req_tgt)


class OIMISKernel:
    """Array-native sweep kernel for :class:`~repro.core.oimis.OIMISProgram`.

    Tiny (strategy + scan mode only): the multi-process runtime ships its
    :meth:`config` primitives with each sweep, never the kernel object.
    """

    def __init__(self, strategy, full_scan: bool):
        self.strategy = strategy
        self.full_scan = full_scan

    @property
    def same_status(self) -> bool:
        from repro.core.activation import ActivationStrategy

        return self.strategy is ActivationStrategy.SAME_STATUS

    @property
    def suffix_only(self) -> bool:
        from repro.core.activation import ActivationStrategy

        return self.strategy is not ActivationStrategy.ALL

    @staticmethod
    def initial_bitmap(size: int) -> Any:
        """A static run's starting bitmap: every vertex in the set
        (Algorithm 2 line 2, as :meth:`OIMISProgram.initial_state`)."""
        return np.ones(size, np.bool_)

    def config(self, num_workers: int) -> Tuple[str, bool, bool, int]:
        """Wire form shipped to worker processes (primitives only)."""
        return (self.strategy.value, self.full_scan, self.suffix_only,
                num_workers)

    def sweep_rows(self, part, active_idx, num_workers: int):
        """:func:`_sweep_arrays` over ``active_idx`` rows of ``part``."""
        return _sweep_arrays(part, active_idx, self.full_scan,
                             self.suffix_only, num_workers)

    def sweep(self, engine, active, superstep: int):
        """Run one inline sweep; returns a standard ``ScaleGSweep``."""
        part = engine._csr
        return self.as_sweep(engine, self.sweep_rows(
            part, part.index_of(active), engine.dgraph.num_workers
        ))

    def as_sweep(self, engine, arrays):
        """Wrap one sweep's arrays (:func:`_sweep_arrays`' tuple, requests
        ascending by source row) as a standard ``ScaleGSweep``.

        The inline kernel and the process runtime's barrier merge both end
        here.  The sweep carries the typed delta arrays as
        :class:`CSRSweepExtras` and an empty request list: the engine's
        barrier routes the activations from the arrays
        (:func:`route_activations`).  While a static run keeps its states
        in the bitmap (the engine's state dict is ``None``), the barrier
        reads the arrays alone, so ``new_states`` and ``changed`` stay
        empty.
        """
        from repro.runtime.base import ScaleGSweep

        (compute_work, worker_work, changed_idx, changed_val,
         req_src, req_tgt) = arrays
        if engine._states is None:
            new_states, changed_ids = {}, []
        else:
            changed_ids = engine._csr.ids[changed_idx].tolist()
            new_states = dict(zip(changed_ids, changed_val.tolist()))
        return ScaleGSweep(
            new_states=new_states,
            changed=changed_ids,
            forced=[],
            requests=[],
            compute_work=compute_work,
            worker_work=worker_work,
            csr=CSRSweepExtras(changed_idx, changed_val, req_src, req_tgt),
        )


def route_activations(part, kernel, extras, record):
    """Charge a kernel sweep's activation routing from its typed arrays.

    Mirrors the engine's dict-path request loops exactly: requests
    filtered by the end-of-superstep same-status predicate where the
    strategy asks, each surviving request counted once (duplicates
    included), remote pairs charged the piggybacked activation entry
    (every OIMIS activation source changed state, so it is always in the
    synced set).  Returns the next active vertex ids, ascending and
    deduplicated.  Must run *after* the barrier committed the changed
    rows into ``part.in_`` — the predicate reads post-commit state.
    """
    from repro.pregel.metrics import ACTIVATION_ENTRY_BYTES

    req_src = extras.req_src
    req_tgt = extras.req_tgt
    if req_src.size and kernel.same_status:
        keep = part.in_[req_src] == part.in_[req_tgt]
        req_src = req_src[keep]
        req_tgt = req_tgt[keep]
    if not req_src.size:
        return []
    record.messages += int(req_src.size)
    remote = part.home[req_src] != part.home[req_tgt]
    remote_count = int(np.count_nonzero(remote))
    record.remote_messages += remote_count
    record.bytes_sent += remote_count * ACTIVATION_ENTRY_BYTES
    # sort and drop repeats: np.unique's hash pass costs about 4x a sort
    # on a static run's first superstep (a request per adjacency entry)
    targets = np.sort(req_tgt)
    head = np.ones(targets.size, np.bool_)
    head[1:] = targets[1:] != targets[:-1]
    return part.ids[targets[head]].tolist()
