"""Unit tests for the repro-mis command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list, write_update_stream
from repro.bench.workloads import delete_reinsert_workload
from tests.test_checkpoint import read_checkpoint


@pytest.fixture
def graph_file(tmp_path):
    graph = erdos_renyi(60, 180, seed=9)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path), graph


@pytest.fixture
def updates_file(tmp_path, graph_file):
    _, graph = graph_file
    ops = delete_reinsert_workload(graph, 20, seed=1)
    path = tmp_path / "updates.txt"
    write_update_stream(ops, path)
    return str(path)


class TestCompute:
    def test_oimis(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["compute", path]) == 0
        out = capsys.readouterr().out
        assert "independent set size:" in out
        assert "supersteps" in out

    def test_dismis_pregel(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["compute", path, "--algorithm", "dismis",
                     "--engine", "pregel", "--workers", "4"]) == 0
        assert "independent set size:" in capsys.readouterr().out

    def test_members_output(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out_file = tmp_path / "members.txt"
        assert main(["compute", path, "-o", str(out_file)]) == 0
        members = [int(line) for line in out_file.read_text().splitlines()]
        from repro.serial.greedy import greedy_mis

        assert set(members) == greedy_mis(graph)

    def test_engines_agree(self, graph_file, tmp_path):
        path, _ = graph_file
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["compute", path, "--engine", "scaleg", "-o", str(a)])
        main(["compute", path, "--engine", "pregel", "--algorithm", "oimis", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_closed_stdout_ends_quietly(self, graph_file, tmp_path):
        """``compute g.txt | head -1``: the reader leaves after the first
        line; the command still writes its members file and exits 0 with
        nothing on stderr.  Unbuffered, so each line is its own write and
        the later ones hit the closed pipe."""
        import os
        import subprocess
        import sys

        from repro.serial.greedy import greedy_mis

        path, graph = graph_file
        members = tmp_path / "members.txt"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        for extra in ([], ["--engine", "pregel", "--algorithm", "dismis"]):
            members.unlink(missing_ok=True)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "compute", path,
                 "-o", str(members), *extra],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            assert proc.stdout.readline().startswith(b"loaded ")
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 0, err
            assert err == b""
            assert {int(line) for line in members.read_text().split()} \
                == greedy_mis(graph)

    def test_process_runtime_refuses_pregel(self, tmp_path, capsys):
        # an argparse error before the graph is read: the path need not exist
        missing = str(tmp_path / "no-such-graph.txt")
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", missing, "--engine", "pregel",
                  "--runtime", "process", "--procs", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "inline" in err
        assert "Traceback" not in err


class TestMaintain:
    def test_maintain_and_verify(self, graph_file, updates_file, capsys):
        path, _ = graph_file
        code = main(["maintain", updates_file, "--graph", path,
                     "--batch-size", "10", "--verify", "--workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification passed" in out

    def test_checkpoint_roundtrip(self, graph_file, updates_file, tmp_path, capsys):
        path, _ = graph_file
        ck = tmp_path / "ck.ckpt"
        main(["maintain", updates_file, "--graph", path,
              "--checkpoint", str(ck), "--workers", "4"])
        header, _ = read_checkpoint(ck)
        assert header["format"] == "repro-mis-checkpoint"
        # resume from the checkpoint and apply the stream again
        code = main(["maintain", updates_file, "--resume", str(ck),
                     "--batch-size", "5", "--verify"])
        assert code == 0
        assert "resumed checkpoint" in capsys.readouterr().out

    def test_requires_graph_or_resume(self, updates_file):
        with pytest.raises(SystemExit):
            main(["maintain", updates_file])

    def test_error_reported_as_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("ins 1\n")
        graph = tmp_path / "g.txt"
        graph.write_text("1 2\n")
        assert main(["maintain", str(bad), "--graph", str(graph)]) == 1
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize("model,extra", [
        ("er", ["--edges", "120"]),
        ("ba", ["--param", "2"]),
        ("chung_lu", ["--param", "4.0"]),
    ])
    def test_models(self, model, extra, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", model, "--n", "80", "-o", str(out)] + extra) == 0
        from repro.graph.io import read_edge_list

        graph = read_edge_list(out)
        assert graph.num_vertices > 0

    def test_dataset_standin(self, tmp_path):
        out = tmp_path / "ski.txt"
        assert main(["generate", "dataset", "--dataset", "SL", "-o", str(out)]) == 0
        from repro.graph.io import read_edge_list

        assert read_edge_list(out).num_edges == 4900

    def test_dataset_requires_tag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "dataset", "-o", str(tmp_path / "x.txt")])

    def test_workload_written(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "er", "--n", "50", "--edges", "100",
              "-o", str(out), "--workload", "10"])
        from repro.graph.io import read_update_stream

        ops = read_update_stream(str(out) + ".updates")
        assert len(ops) == 20


class TestInfoCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Slashdot" in out and "GSH" in out

    def test_bench_fig13(self, capsys):
        assert main(["bench", "fig13"]) == 0
        assert "experiment fig13" in capsys.readouterr().out


class TestCheckpointEvery:
    def test_periodic_checkpoints_written(self, graph_file, updates_file,
                                          tmp_path, capsys):
        path, _ = graph_file
        ck = tmp_path / "ck.ckpt"
        code = main(["maintain", updates_file, "--graph", path,
                     "--batch-size", "10", "--workers", "4",
                     "--checkpoint", str(ck), "--checkpoint-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        # 40 ops / batch 10 = 4 batches, each followed by a save
        assert out.count("checkpoint written to") == 4 + 1  # + final save

    def test_requires_checkpoint_path(self, graph_file, updates_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main(["maintain", updates_file, "--graph", path,
                  "--checkpoint-every", "2"])

    def test_mid_stream_checkpoint_resumes(self, tmp_path, capsys):
        """A stream that dies mid-way leaves the last periodic checkpoint on
        disk; resuming from it with the remaining updates converges to the
        same set as replaying the whole valid stream in one go."""
        from repro.graph.io import read_update_stream

        graph = erdos_renyi(50, 150, seed=4)
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        ops = delete_reinsert_workload(graph, 12, seed=3)  # 24 valid ops
        # poison the stream after the first 12 ops: deleting a missing edge
        from repro.graph.updates import EdgeDeletion

        missing = EdgeDeletion(9999, 9998)
        broken = ops[:12] + [missing] + ops[12:]
        broken_path = tmp_path / "broken.txt"
        write_update_stream(broken, broken_path)
        ck = tmp_path / "ck.ckpt"
        code = main(["maintain", str(broken_path), "--graph", str(graph_path),
                     "--batch-size", "4", "--workers", "4",
                     "--checkpoint", str(ck), "--checkpoint-every", "1"])
        assert code == 1  # the poisoned batch fails...
        assert "error:" in capsys.readouterr().err
        # ...but the checkpoint holds the state after the last good batch
        header, _ = read_checkpoint(ck)
        assert header["updates_applied"] == 12
        rest_path = tmp_path / "rest.txt"
        write_update_stream(ops[12:], rest_path)
        out_resumed = tmp_path / "resumed.txt"
        code = main(["maintain", str(rest_path), "--resume", str(ck),
                     "--batch-size", "4", "--verify",
                     "-o", str(out_resumed)])
        assert code == 0
        # straight-through replay of the valid stream for comparison
        straight_path = tmp_path / "straight.txt"
        write_update_stream(ops, straight_path)
        out_straight = tmp_path / "straight_members.txt"
        assert main(["maintain", str(straight_path), "--graph",
                     str(graph_path), "--batch-size", "4", "--workers", "4",
                     "-o", str(out_straight)]) == 0
        assert out_resumed.read_text() == out_straight.read_text()


class TestChaosCommand:
    def test_single_preset_table(self, capsys):
        assert main(["chaos", "--preset", "crash", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fig10_single_AM" in out and "fig11_batch_SL" in out
        assert "convergence" not in out or "ok:" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        assert main(["chaos", "--preset", "none", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert len(results) == 2  # two workloads x one preset x one seed
        assert all(r["ok"] for r in results)
        assert all(sum(r["injected"].values()) == 0 for r in results)

    def test_unknown_preset_is_clean_error(self, capsys):
        assert main(["chaos", "--preset", "explode"]) == 1
        assert "unknown chaos preset" in capsys.readouterr().err

    def test_help_names_every_preset(self, capsys):
        from repro.faults.chaos import PLAN_PRESETS

        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        # argparse wraps at hyphens: compare with all whitespace removed
        help_text = "".join(capsys.readouterr().out.split())
        for preset in PLAN_PRESETS:
            assert preset in help_text

    def test_every_preset_at_seed_zero(self, capsys):
        from repro.faults.chaos import PLAN_PRESETS

        assert main(["chaos", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for preset in PLAN_PRESETS:
            assert f" {preset} " in out


class TestServeCommand:
    def test_read_mix_check(self, capsys):
        code = main(["serve", "--ops", "80", "--read-mix", "0.9", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reads served" in out
        assert "exactly-once audit clean" in out

    def test_read_mix_out_of_range_is_clean_error(self, capsys):
        assert main(["serve", "--ops", "20", "--read-mix", "1.0"]) == 1
        assert "read_mix must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["shed", "error"])
    def test_window_above_the_watermark_is_refused(self, capsys, policy):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--dataset", "SL", "--ops", "500", "--seed", "7",
                  "--admission", policy, "--high-watermark", "24",
                  "--low-watermark", "8", "--poison-prob", "0.05",
                  "--check"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--window 256 exceeds --high-watermark 24" in err

    @pytest.mark.parametrize("flag", [
        ["--window", "8"], ["--admission", "block"],
        ["--high-watermark", "24"], ["--low-watermark", "8"],
        ["--retries", "1"], ["--backoff", "0.2"], ["--fsync", "never"],
        ["--checkpoint-every", "2"], ["--workers", "3"],
        ["--wal-dir", "wal"], ["--read-mix", "0.5"], ["--read-batch", "4"],
        ["--check"],
    ])
    def test_chaos_refuses_the_flags_its_oracle_ignores(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--chaos", "--ops", "40"] + flag)
        assert exit_info.value.code == 2
        assert f"serve --chaos ignores {flag[0]}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compute", "graph.txt"], ["maintain", "updates.txt", "--graph", "g"],
    ["serve"], ["rebalance"], ["serve", "--runtime", "inline"],
])
def test_procs_without_the_process_runtime_is_refused(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--procs", "2"])
    assert exit_info.value.code == 2
    assert "--procs only applies with --runtime process" \
        in capsys.readouterr().err
