"""Integration tests for the repro-gql command line."""

import json

import pytest

from repro.cli import main
from repro.datasets import tiny_dblp
from repro.storage import save_collection


@pytest.fixture
def dblp_file(tmp_path):
    path = tmp_path / "dblp.gql"
    save_collection(tiny_dblp(), path)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path, paper_graph):
    from repro.core import GraphCollection
    from repro.storage import save_collection as save

    path = tmp_path / "net.gql"
    save(GraphCollection([paper_graph]), path)
    return str(path)


class TestInfo:
    def test_summarizes(self, dblp_file, capsys):
        assert main(["info", dblp_file]) == 0
        out = capsys.readouterr().out
        assert "2 graph(s)" in out
        assert "G1" in out and "G2" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/x.gql"]) == 2
        assert "error" in capsys.readouterr().err


class TestMatch:
    def test_matches_pattern(self, triangle_file, tmp_path, capsys):
        pattern = tmp_path / "q.gql"
        pattern.write_text("""
            graph P {
                node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
                edge e1 (u1, u2); edge e2 (u2, u3); edge e3 (u3, u1);
            }
        """)
        assert main(["match", triangle_file, "--pattern", str(pattern)]) == 0
        out = capsys.readouterr().out
        assert "total: 1 mapping(s)" in out
        assert "u1->A1" in out

    def test_baseline_flag(self, triangle_file, tmp_path, capsys):
        pattern = tmp_path / "q.gql"
        pattern.write_text('graph P { node u <label="B">; }')
        assert main(["match", triangle_file, "--pattern", str(pattern),
                     "--baseline"]) == 0
        assert "total: 2 mapping(s)" in capsys.readouterr().out

    def test_bad_pattern(self, triangle_file, tmp_path, capsys):
        pattern = tmp_path / "q.gql"
        pattern.write_text("graph P { node ;;; }")
        assert main(["match", triangle_file, "--pattern", str(pattern)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_coauthorship_program(self, dblp_file, tmp_path, capsys):
        program = tmp_path / "prog.gql"
        program.write_text("""
            graph P { node v1 <author>; node v2 <author>; };
            C := graph {};
            for P exhaustive in doc("DBLP")
            let C := graph {
              graph C;
              node P.v1, P.v2;
              edge e1 (P.v1, P.v2);
              unify P.v1, C.v1 where P.v1.name=C.v1.name;
              unify P.v2, C.v2 where P.v2.name=C.v2.name;
            }
        """)
        out_file = tmp_path / "result.gql"
        assert main(["run", str(program), "--doc", f"DBLP={dblp_file}",
                     "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.count("node") == 4
        assert text.count("edge") == 4

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_failed_out_write_keeps_the_old_file(self, tmp_path, capsys,
                                                 monkeypatch, json_flag):
        """``--out`` replaces the file whole or not at all: a write that
        fails at the rename leaves the old contents and no temp file."""
        program = tmp_path / "prog.gql"
        program.write_text("C := graph { node n <who=\"x\">; };")
        out_file = tmp_path / "result.gql"
        out_file.write_text("old result\n")

        def failing_replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", failing_replace)
        assert main(["run", str(program), "--out", str(out_file),
                     *json_flag]) == 1
        assert "disk full" in capsys.readouterr().err
        assert out_file.read_text() == "old result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "prog.gql", "result.gql"]

    def test_return_mode_prints_collection(self, dblp_file, tmp_path, capsys):
        program = tmp_path / "prog.gql"
        program.write_text("""
            graph P { node v1 <author>; };
            for P exhaustive in doc("DBLP")
            return graph { node n <who=P.v1.name>; };
        """)
        assert main(["run", str(program), "--doc", f"DBLP={dblp_file}"]) == 0
        out = capsys.readouterr().out
        assert "5 graph(s)" in out

    def test_bad_doc_binding(self, tmp_path, capsys):
        program = tmp_path / "prog.gql"
        program.write_text("C := graph {};")
        assert main(["run", str(program), "--doc", "nopath"]) == 2


class TestExplain:
    def test_explain_prints_plan(self, triangle_file, tmp_path, capsys):
        pattern = tmp_path / "q.gql"
        pattern.write_text("""
            graph P {
                node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
                edge e1 (u1, u2); edge e2 (u2, u3); edge e3 (u3, u1);
            }
        """)
        assert main(["explain", triangle_file,
                     "--pattern", str(pattern)]) == 0
        out = capsys.readouterr().out
        assert "search order [connected]" in out
        # a 6-node member gets the baseline plan (planner.SMALL_MEMBER_NODES)
        assert "local=none, refine=off" in out
        assert "Mapping(" not in out  # no search was run


@pytest.fixture
def dense_file(tmp_path):
    """A one-label dense graph: clique search on it is expensive."""
    from repro.core import GraphCollection
    from repro.datasets.random_graphs import erdos_renyi_graph
    from repro.storage import save_collection as save

    graph = erdos_renyi_graph(80, 1500, num_labels=1, seed=2, name="dense")
    path = tmp_path / "dense.gql"
    save(GraphCollection([graph]), path)
    return str(path)


@pytest.fixture
def clique8_file(tmp_path):
    names = [f"u{i}" for i in range(8)]
    lines = ["graph clique8 {"]
    for name in names:
        lines.append(f'  node {name} <label="L000">;')
    count = 0
    for i in range(8):
        for j in range(i + 1, 8):
            count += 1
            lines.append(f"  edge e{count} ({names[i]}, {names[j]});")
    lines.append("};")
    path = tmp_path / "clique8.gql"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestGovernance:
    def test_timeout_exits_3_with_outcome(self, dense_file, clique8_file,
                                          capsys):
        code = main(["match", dense_file, "--pattern", clique8_file,
                     "--baseline", "--timeout", "0.1"])
        assert code == 3
        out = capsys.readouterr().out
        assert "TIMED_OUT" in out
        assert "deadline" in out

    def test_max_steps_truncates_exit_0(self, dense_file, clique8_file,
                                        capsys):
        code = main(["match", dense_file, "--pattern", clique8_file,
                     "--baseline", "--max-steps", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TRUNCATED" in out
        assert "step budget" in out

    def test_limit_enforced_inside_search(self, dense_file, tmp_path,
                                          capsys):
        pattern = tmp_path / "one.gql"
        pattern.write_text('graph P { node u <label="L000">; }')
        code = main(["match", dense_file, "--pattern", str(pattern),
                     "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total: 3 mapping(s)" in out
        assert "TRUNCATED" in out  # the cap stopped the search early

    def test_limit_zero_is_a_usage_error(self, triangle_file, tmp_path,
                                         capsys):
        # a cap of 0 used to report one mapping; now argparse refuses it
        pattern = tmp_path / "one.gql"
        pattern.write_text('graph P { node u <label="A">; }')
        with pytest.raises(SystemExit) as exc:
            main(["match", triangle_file, "--pattern", str(pattern),
                  "--limit", "0"])
        assert exc.value.code == 2
        assert "--limit: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explain", "data.gql", "--pattern", "p.gql"],
        ["serve", "data.gql"],
        ["cluster", "route", "--endpoints", "127.0.0.1:1",
         "--query", "graph P { node u; }"],
    ], ids=["explain", "serve", "cluster-route"])
    @pytest.mark.parametrize("limit", ["0", "-3", "x"])
    def test_every_limit_flag_takes_a_positive_int(self, argv, limit,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--limit", limit])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err

    def test_uncapped_match_reports_complete(self, triangle_file, tmp_path,
                                             capsys):
        pattern = tmp_path / "q.gql"
        pattern.write_text("""
            graph P {
                node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
                edge e1 (u1, u2); edge e2 (u2, u3); edge e3 (u3, u1);
            }
        """)
        assert main(["match", triangle_file, "--pattern", str(pattern)]) == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_run_with_timeout_flag(self, dblp_file, tmp_path, capsys):
        program = tmp_path / "prog.gql"
        program.write_text("""
            graph P { node v1 <author>; };
            for P exhaustive in doc("DBLP")
            return graph { node n <who=P.v1.name>; };
        """)
        assert main(["run", str(program), "--doc", f"DBLP={dblp_file}",
                     "--timeout", "30"]) == 0


class TestClusterStatus:
    def test_status_reads_the_state_file_and_probes_shards(
            self, tmp_path, capsys):
        from repro.cluster import launch_cluster
        from repro.datasets.molecules import molecule_collection

        state = tmp_path / "cluster.json"
        with launch_cluster(molecule_collection(num_molecules=8, seed=3),
                            num_shards=2) as cluster:
            cluster.write_state(state)
            assert main(["cluster", "status", "--state", str(state)]) == 0
            out = capsys.readouterr().out
            assert "shard0" in out and "shard1" in out
            assert out.count("ready") >= 2
            assert "restarts=0" in out
            assert "R=1" in out
            # kill one shard: status degrades and the exit code says so
            cluster.kill("shard1")
            cluster.write_state(state)
            assert main(["cluster", "status", "--state", str(state)]) == 1
            out = capsys.readouterr().out
            assert "DEAD" in out

    def test_status_json_carries_the_merged_view(self, tmp_path, capsys):
        import json as json_mod

        from repro.cluster import launch_cluster
        from repro.datasets.molecules import molecule_collection

        state = tmp_path / "cluster.json"
        with launch_cluster(molecule_collection(num_molecules=8, seed=3),
                            num_shards=1) as cluster:
            cluster.write_state(state)
            assert main(["cluster", "status", "--state", str(state),
                         "--json"]) == 0
            merged = json_mod.loads(capsys.readouterr().out)
            assert merged["ok"] is True
            assert merged["replication_factor"] == 1
            assert "map_version" not in merged
            assert merged["shards"][0]["shard"] == "shard0"
            assert merged["shards"][0]["breakers"] is not None


TORN_BYTES = 9


@pytest.fixture
def dirty_store(tmp_path):
    """A store closed without compaction, holding two snapshots of one
    document and ending in a torn append."""
    from repro.storage import GraphStore

    path = str(tmp_path / "s.db")
    store = GraphStore(path, fsync="never")
    store.save_document("dblp", tiny_dblp())
    store.save_document("dblp", tiny_dblp())
    store.close(checkpoint=False)
    with open(path, "ab") as handle:
        handle.write(b"\x01" * TORN_BYTES)  # a frame header cut short
    return path


class TestStoreMaintenance:
    def test_recover_replays_then_reports_clean(self, dirty_store, capsys):
        assert main(["recover", dirty_store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 2
        assert report["torn_bytes"] == TORN_BYTES and not report["clean"]
        assert main(["recover", dirty_store]) == 0
        assert "clean" in capsys.readouterr().out

    def test_recover_repairs_the_file_in_place(self, dirty_store, capsys):
        from pathlib import Path

        from repro.storage import GraphStore

        size = Path(dirty_store).stat().st_size
        assert main(["recover", dirty_store]) == 0
        assert f"cut a torn tail of {TORN_BYTES} byte(s)" in (
            capsys.readouterr().out)
        assert Path(dirty_store).stat().st_size == size - TORN_BYTES
        with GraphStore(dirty_store, fsync="never") as store:
            assert len(store.load_documents()["dblp"]) == 2

    def test_checkpoint_reports_freed_bytes(self, dirty_store, capsys):
        from pathlib import Path

        assert main(["checkpoint", dirty_store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # opening cut the torn tail; compaction dropped the superseded
        # snapshot
        assert report["recovery"]["torn_tail"] is True
        assert report["freed_bytes"] > 0
        assert report["store_bytes"] == Path(dirty_store).stat().st_size

    @pytest.mark.parametrize("command", ["recover", "checkpoint"])
    def test_missing_store_is_an_error(self, tmp_path, capsys, command):
        path = tmp_path / "typo.db"
        assert main([command, str(path)]) == 2
        assert f"error: no store at {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
