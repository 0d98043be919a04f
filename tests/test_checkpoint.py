"""Tests for checkpoint save/load and update-stream file I/O."""

import io
import json
import zlib

import numpy as np
import pytest

from repro import MISMaintainer
from repro.core.maintainer import CHECKPOINT_MAGIC
from repro.errors import CheckpointError, ReproError
from repro.graph.csr import csr_arrays
from repro.graph.generators import erdos_renyi
from repro.graph.io import read_update_stream, write_update_stream
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.serial.greedy import greedy_mis
from repro.bench.workloads import delete_reinsert_workload


def read_checkpoint(path):
    """``(header, [ids, indptr, nbr, members])`` of a checkpoint file."""
    blob = open(path, "rb").read()
    assert blob.startswith(CHECKPOINT_MAGIC)
    split = blob.index(b"\n", len(CHECKPOINT_MAGIC))
    stream = io.BytesIO(blob[split + 1:])
    arrays = [np.load(stream, allow_pickle=False) for _ in range(4)]
    return json.loads(blob[len(CHECKPOINT_MAGIC):split]), arrays


def write_checkpoint(path, header, arrays, fix_crc=True, allow_pickle=False):
    """Write ``header`` + ``arrays`` in the checkpoint layout; ``fix_crc``
    recomputes the body CRC so only the edited field is wrong."""
    body = io.BytesIO()
    for array in arrays:
        np.save(body, array, allow_pickle=allow_pickle)
    if fix_crc:
        header = dict(header, crc32=zlib.crc32(body.getvalue()))
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n"
                     + body.getvalue())


class TestUpdateStreamIO:
    def test_roundtrip(self):
        ops = [EdgeInsertion(1, 2), EdgeDeletion(3, 4), EdgeInsertion(5, 6)]
        buffer = io.StringIO()
        write_update_stream(ops, buffer)
        buffer.seek(0)
        assert read_update_stream(buffer) == ops

    def test_aliases_and_comments(self):
        text = "# header\ninsert 1 2\n+ 3 4\ndelete 1 2\n- 3 4\n\n"
        ops = read_update_stream(io.StringIO(text))
        assert ops == [
            EdgeInsertion(1, 2), EdgeInsertion(3, 4),
            EdgeDeletion(1, 2), EdgeDeletion(3, 4),
        ]

    def test_malformed_line(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError, match="line 1"):
            read_update_stream(io.StringIO("ins 1\n"))
        with pytest.raises(GraphError, match="unknown operation"):
            read_update_stream(io.StringIO("upsert 1 2\n"))
        with pytest.raises(GraphError, match="non-integer"):
            read_update_stream(io.StringIO("ins a b\n"))

    @pytest.mark.parametrize("bad", [2 ** 63, -(2 ** 63) - 1, 10 ** 20])
    def test_out_of_range_id_names_its_line(self, bad):
        from repro.errors import GraphError

        text = f"ins 1 2\n# c\ndel {bad} 1\n"
        with pytest.raises(GraphError, match=f"line 3: vertex id {bad} is"):
            read_update_stream(io.StringIO(text))

    def test_file_roundtrip(self, tmp_path):
        ops = [EdgeInsertion(1, 2), EdgeDeletion(1, 2)]
        path = tmp_path / "ops.txt"
        write_update_stream(ops, path)
        assert read_update_stream(path) == ops


class TestCheckpoint:
    def _saved(self, tmp_path, seed=7, n=20, m=40, **kwargs):
        maintainer = MISMaintainer(erdos_renyi(n, m, seed=seed),
                                   num_workers=2, **kwargs)
        path = tmp_path / "ck.ckpt"
        maintainer.save(path)
        return maintainer, path

    def test_roundtrip_preserves_everything(self, tmp_path):
        g = erdos_renyi(40, 120, seed=3)
        m = MISMaintainer(g.copy(), num_workers=4)
        ops = delete_reinsert_workload(g, 10, seed=1)
        m.apply_stream(ops[:10], batch_size=5)
        path = tmp_path / "ck.ckpt"
        m.save(path)

        restored = MISMaintainer.load(path)
        assert restored.graph == m.graph
        assert restored.independent_set() == m.independent_set()
        assert restored.updates_applied == m.updates_applied
        assert restored.num_workers == m.num_workers
        assert restored.strategy == m.strategy

    def test_restore_skips_recomputation(self, tmp_path):
        g = erdos_renyi(40, 120, seed=4)
        m = MISMaintainer(g.copy(), num_workers=4)
        path = tmp_path / "ck.ckpt"
        m.save(path)
        restored = MISMaintainer.load(path)
        # no initial OIMIS run happened: zero init supersteps
        assert restored.init_metrics.supersteps == 0

    def test_restored_maintainer_keeps_working(self, tmp_path):
        g = erdos_renyi(40, 120, seed=5)
        m = MISMaintainer(g.copy(), num_workers=4)
        path = tmp_path / "ck.ckpt"
        m.save(path)
        restored = MISMaintainer.load(path)
        for u, v in restored.graph.sorted_edges()[:8]:
            restored.delete_edge(u, v)
        assert restored.independent_set() == greedy_mis(restored.graph)

    def test_load_seeds_the_csr_mirror(self, tmp_path):
        m, path = self._saved(tmp_path, seed=9, n=40, m=120)
        restored = MISMaintainer.load(path)
        part = restored.dgraph._csr_partition
        # built once, from the checkpoint's own arrays
        assert part.rebuilds == 1
        assert part.nbr is csr_arrays(restored.graph)[2]
        u, v = restored.graph.sorted_edges()[0]
        restored.apply_batch([EdgeDeletion(u, v)])
        # the update repaired two rows; nothing rebuilt from the sets
        assert (part.rebuilds, part.repairs) == (1, 1)
        ids, indptr, nbr = csr_arrays(restored.graph)
        assert part.ids.tolist() == ids.tolist()
        for i in range(ids.size):
            assert set(part.nbr[part.indptr[i]:part.indptr[i + 1]].tolist()) \
                == set(nbr[indptr[i]:indptr[i + 1]].tolist())
        assert restored.independent_set() == greedy_mis(restored.graph)

    def test_dict_load_attaches_no_mirror(self, tmp_path):
        _, path = self._saved(tmp_path)
        restored = MISMaintainer.load(path, representation="dict")
        assert getattr(restored.dgraph, "_csr_partition", None) is None

    def test_dict_and_csr_checkpoints_restore_equal(self, tmp_path):
        g = erdos_renyi(40, 120, seed=8)
        ops = delete_reinsert_workload(g, 10, seed=2)
        restored = []
        for representation in ("dict", "csr"):
            m = MISMaintainer(g.copy(), num_workers=4,
                              representation=representation)
            m.apply_stream(ops, batch_size=5)
            path = tmp_path / f"{representation}.ckpt"
            m.save(path)
            # saving never attaches a CSR mirror to a dict maintainer
            assert (getattr(m.dgraph, "_csr_partition", None) is None) \
                == (representation == "dict")
            restored.append(MISMaintainer.load(path))
        assert restored[0].graph == restored[1].graph
        assert restored[0].independent_set() == restored[1].independent_set()
        assert restored[0].updates_applied == restored[1].updates_applied

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(CheckpointError, match="not a repro-mis-checkpoint"):
            MISMaintainer.load(path)
        # a version-1 JSON checkpoint is foreign to this build too
        path.write_text(json.dumps({
            "format": "repro-mis-checkpoint", "version": 1,
            "num_workers": 2, "strategy": "ss", "vertices": [1, 2],
            "edges": [[1, 2]], "independent_set": [1], "updates_applied": 0,
        }))
        with pytest.raises(CheckpointError, match="not a repro-mis-checkpoint"):
            MISMaintainer.load(path)
        # the magic line with a header of another format
        header, arrays = read_checkpoint(self._saved(tmp_path)[1])
        write_checkpoint(path, dict(header, format="other"), arrays)
        with pytest.raises(CheckpointError, match="not a repro-mis-checkpoint"):
            MISMaintainer.load(path)

    def test_load_verify_catches_tampering(self, tmp_path):
        from repro.errors import VerificationError

        m, path = self._saved(tmp_path, seed=6, n=30, m=90)
        header, arrays = read_checkpoint(path)
        # flip one member bit under a recomputed CRC: the stored set is no
        # longer the greedy fixpoint
        members = arrays[3].copy()
        members[int(np.flatnonzero(members)[0])] = False
        write_checkpoint(path, header, arrays[:3] + [members])
        with pytest.raises(VerificationError):
            MISMaintainer.load(path)
        # verify=False trusts the file (documented escape hatch)
        restored = MISMaintainer.load(path, verify=False)
        assert restored.graph == m.graph
        assert restored.independent_set() != m.independent_set()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot load checkpoint"):
            MISMaintainer.load(tmp_path / "nope.ckpt")

    def test_load_truncated_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n", len(CHECKPOINT_MAGIC))
        # inside the header line
        path.write_bytes(blob[:header_end - 5])
        with pytest.raises(CheckpointError, match="truncated header"):
            MISMaintainer.load(path)
        # inside an array: the body CRC no longer matches
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            MISMaintainer.load(path)
        # inside the magic line
        path.write_bytes(blob[:4])
        with pytest.raises(CheckpointError, match="not a repro-mis-checkpoint"):
            MISMaintainer.load(path)

    def test_load_rejects_corrupt_body(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            MISMaintainer.load(path)

    def test_load_rejects_future_version(self, tmp_path):
        _, path = self._saved(tmp_path)
        header, arrays = read_checkpoint(path)
        write_checkpoint(path, dict(header, version=99), arrays)
        with pytest.raises(CheckpointError, match="version 99"):
            MISMaintainer.load(path)
        # wrong types and the retired JSON version count as unsupported too
        for version in ("2", True, 1, None):
            write_checkpoint(path, dict(header, version=version), arrays)
            with pytest.raises(CheckpointError,
                               match="unsupported checkpoint version"):
                MISMaintainer.load(path)

    def test_load_rejects_negative_vertex_ids(self, tmp_path):
        _, path = self._saved(tmp_path)
        header, arrays = read_checkpoint(path)
        ids = arrays[0].copy()
        ids[0] = -3  # still ascending: row 0 holds the smallest id
        write_checkpoint(path, header, [ids] + arrays[1:])
        with pytest.raises(CheckpointError, match="negative vertex id"):
            MISMaintainer.load(path)

    def test_load_malformed_payload_is_clean(self, tmp_path):
        _, path = self._saved(tmp_path)
        header, arrays = read_checkpoint(path)
        # a missing or wrong-typed key surfaces as CheckpointError, never a
        # bare KeyError/TypeError
        missing = dict(header)
        del missing["nnz"]
        for bad in (missing, dict(header, n="20"), dict(header, strategy="x")):
            write_checkpoint(path, bad, arrays)
            with pytest.raises(CheckpointError, match="malformed header"):
                MISMaintainer.load(path)
        path.write_bytes(CHECKPOINT_MAGIC + b"{not json\n")
        with pytest.raises(CheckpointError, match="malformed header"):
            MISMaintainer.load(path)
        # arrays that disagree with the header, or that need pickles
        write_checkpoint(path, dict(header, n=header["n"] + 1), arrays)
        with pytest.raises(CheckpointError, match="malformed arrays"):
            MISMaintainer.load(path)
        objects = np.array([object()] * header["n"], dtype=object)
        write_checkpoint(path, header, arrays[:3] + [objects],
                         allow_pickle=True)
        with pytest.raises(CheckpointError, match="malformed arrays"):
            MISMaintainer.load(path)
        write_checkpoint(path, header, arrays + [arrays[0]])
        with pytest.raises(CheckpointError, match="trailing bytes"):
            MISMaintainer.load(path)
        assert issubclass(CheckpointError, ReproError)

    def test_load_rejects_bad_worker_count(self, tmp_path):
        _, path = self._saved(tmp_path)
        header, arrays = read_checkpoint(path)
        write_checkpoint(path, dict(header, num_workers=0), arrays)
        with pytest.raises(CheckpointError, match="num_workers"):
            MISMaintainer.load(path)

    def test_load_rejects_invalid_graph(self, tmp_path):
        _, path = self._saved(tmp_path)
        header, arrays = read_checkpoint(path)
        ids, indptr, nbr, members = arrays
        row = int(np.flatnonzero(np.diff(indptr))[0])
        slot = int(indptr[row])
        # a self-loop under a valid CRC
        loop = nbr.copy()
        loop[slot] = row
        write_checkpoint(path, header, [ids, indptr, loop, members])
        with pytest.raises(CheckpointError, match="invalid graph: self-loop"):
            MISMaintainer.load(path)
        # a one-way edge: retarget one entry at a non-neighbour row
        lonely = nbr.copy()
        present = set(nbr[indptr[row]:indptr[row + 1]].tolist()) | {row}
        lonely[slot] = min(set(range(ids.size)) - present)
        write_checkpoint(path, header, [ids, indptr, lonely, members])
        with pytest.raises(CheckpointError,
                           match="invalid graph: asymmetric adjacency"):
            MISMaintainer.load(path)
        # neighbour indices outside the row range
        wild = nbr.copy()
        wild[slot] = ids.size
        write_checkpoint(path, header, [ids, indptr, wild, members])
        with pytest.raises(CheckpointError, match="invalid graph"):
            MISMaintainer.load(path)

    def test_isolated_vertices_survive_checkpoint(self, tmp_path):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph.from_edges([(1, 2)], vertices=[9])
        m = MISMaintainer(g, num_workers=2)
        path = tmp_path / "ck.ckpt"
        m.save(path)
        restored = MISMaintainer.load(path)
        assert restored.graph.has_vertex(9)
        assert 9 in restored.independent_set()


class TestCheckpointBitmap:
    """A checkpoint takes its members from the CSR mirror's bitmap, so the
    bitmap must hold the maintained set whenever one can be saved."""

    @staticmethod
    def _restored(maintainer, tmp_path, name="ck.ckpt"):
        path = tmp_path / name
        maintainer.save(path)
        return MISMaintainer.load(path, verify=False).independent_set()

    def test_failed_batch_leaves_the_saved_set_true(self, tmp_path):
        from repro.errors import SyncRetryExhausted
        from repro.faults.plan import FaultPlan, SyncDropSpec
        from repro.graph.generators import path_graph

        # path 0-1-2-3: deleting (0, 1) flips vertex 1 into the set at
        # superstep 0 of run 1 (run 0 is the static run); its sync to
        # vertex 2's worker then drops more often than the 3 retries
        # allow, after that barrier committed the flip
        plan = FaultPlan(drops=(
            SyncDropSpec(superstep=0, vertex=1, attempts=5, run=1),
        ))
        maintainer = MISMaintainer(path_graph(4), num_workers=2, faults=plan)
        before = maintainer.independent_set()
        with pytest.raises(SyncRetryExhausted):
            maintainer.delete_edge(0, 1)
        assert maintainer.independent_set() == before
        assert self._restored(maintainer, tmp_path) == before

    def test_failed_static_recompute_keeps_the_bitmap(self, tmp_path):
        from repro.errors import SuperstepLimitExceeded

        maintainer = MISMaintainer(erdos_renyi(40, 120, seed=8),
                                   num_workers=3)
        u, v = maintainer.graph.sorted_edges()[0]
        maintainer.delete_edge(u, v)
        before = maintainer.independent_set()
        engine, program = maintainer._engine, maintainer._program
        with pytest.raises(SuperstepLimitExceeded):
            engine.run(program, max_supersteps=1)
        assert self._restored(maintainer, tmp_path) == before

    def test_vertex_updates_and_restores_save_the_state_dict(self, tmp_path):
        m = MISMaintainer(erdos_renyi(30, 70, seed=2), num_workers=3)
        # a new vertex rebuilds the mirror without a run: its bitmap is
        # stale until the save syncs it
        m.insert_vertex(100)
        assert self._restored(m, tmp_path, "a.ckpt") == m.independent_set()
        m.insert_vertex(101, [0, 1, 100])
        m.delete_vertex(100)
        assert self._restored(m, tmp_path, "b.ckpt") == m.independent_set()
        restored = MISMaintainer.load(tmp_path / "b.ckpt")
        assert self._restored(restored, tmp_path, "c.ckpt") \
            == m.independent_set()

    def test_dict_maintainer_with_a_read_mirror_saves_its_states(
            self, tmp_path):
        from repro.serve.reads import SnapshotRegistry

        graph = erdos_renyi(40, 120, seed=6)
        m = MISMaintainer(graph.copy(), num_workers=3,
                          representation="dict")
        SnapshotRegistry(m).publish()  # attaches a mirror the engine skips
        for u, v in graph.sorted_edges()[:6]:
            m.delete_edge(u, v)
            assert self._restored(m, tmp_path) == m.independent_set()
