"""Tests for the crash-point fuzzing harness (small sweeps; the CI
``crash-recovery-fuzz`` job runs the full ≥200-point version)."""


import pytest

from repro.storage.crashfuzz import (
    CHECKPOINT_EVERY,
    MEMBERS,
    NEVER,
    CrashFuzzWorkload,
    fuzz,
    main,
    run_crash_point,
)
from repro.storage.faults import CrashPoint, SimulatedCrash
from repro.storage.graphstore import GraphStore


def small_workload(seed: int = 3) -> CrashFuzzWorkload:
    """Six saves: one compaction after the fifth."""
    return CrashFuzzWorkload(seed, docs=2, rounds=3, base_nodes=6)


def count_ops(workload: CrashFuzzWorkload, tmp_path) -> int:
    counter = CrashPoint(NEVER)
    store = GraphStore(str(tmp_path / "count.db"), fsync="commit",
                       crashpoint=counter)
    workload.run(store)
    store.close(checkpoint=False)
    return counter.ops


class TestWorkload:
    def test_deterministic(self):
        a = CrashFuzzWorkload(11, docs=2, rounds=3)
        b = CrashFuzzWorkload(11, docs=2, rounds=3)
        assert a.ops == b.ops
        for doc, round_no in a.ops:
            for member in range(MEMBERS):
                assert a.state_at(doc, round_no, member).equals(
                    b.state_at(doc, round_no, member))

    def test_state_is_pure(self):
        """state_at(k) is a prefix-extension of state_at(k-1)'s history."""
        w = small_workload()
        g1 = w.state_at("doc0", 1, 0)
        g2 = w.state_at("doc0", 2, 0)
        assert "r1" in g2.node_ids()  # round 1's node survives round 2
        assert "r2" in g2.node_ids()
        assert "r2" not in g1.node_ids()
        assert g2.version > g1.version

    def test_expected_after_tracks_latest_round(self):
        w = small_workload()
        full = w.expected_after(len(w.ops))
        assert set(full) == {doc for doc, _ in w.ops}


class TestCrashSweep:
    def test_every_point_recovers(self, tmp_path, monkeypatch):
        """A full sweep of a small workload: every crash point passes
        the committed-prefix contract, the compaction's temp write, its
        fsync, the rename and the directory fsync included."""
        workload = small_workload()
        assert len(workload.ops) >= CHECKPOINT_EVERY
        in_compaction = []
        checkpoint = GraphStore.checkpoint

        def watched(store):
            try:
                return checkpoint(store)
            except SimulatedCrash:
                in_compaction.append(store.wal.crashpoint.crash_after)
                raise

        monkeypatch.setattr(GraphStore, "checkpoint", watched)
        total = count_ops(workload, tmp_path)
        assert total >= 10
        failures = []
        for point in range(1, total + 1):
            directory = tmp_path / f"p{point}"
            directory.mkdir()
            error = run_crash_point(workload, str(directory), point,
                                    fsync="commit")
            if error is not None:
                failures.append(error)
        assert failures == []
        assert len(in_compaction) == 4

    def test_fuzz_report_shape(self, tmp_path):
        report = fuzz(seed=5, min_points=1, directory=str(tmp_path),
                      fsync="never", verbose=False,
                      docs=2, rounds=2, base_nodes=6)
        assert report.ok
        assert report.points_run == report.total_ops > 0
        payload = report.to_dict()
        assert payload["failures"] == []
        assert payload["seed"] == 5

    def test_a_workload_below_min_points_fails(self, tmp_path):
        """A workload that stops growing below --min-points is a FAIL,
        even when every point it swept passed."""
        report = fuzz(seed=5, min_points=10 ** 6, directory=str(tmp_path),
                      fsync="never", verbose=False, docs=1, rounds=64,
                      base_nodes=4, max_points=3)
        assert report.points_run == 3 and report.failures == []
        assert report.total_ops < report.min_points
        assert not report.ok
        assert report.to_dict()["capped"] is True

    @pytest.mark.parametrize("min_points, code", [(1, 0), (10 ** 6, 1)])
    def test_cli_exit_code_follows_min_points(self, capsys, min_points,
                                              code):
        assert main(["--seed", "4", "--min-points", str(min_points),
                     "--max-points", "2", "--fsync", "never"]) == code
        assert ("PASS" if code == 0 else "FAIL") in capsys.readouterr().out

    def test_cli_entry(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["--seed", "2", "--min-points", "1", "--max-points",
                     "8", "--fsync", "never", "--report", str(report_path)])
        assert code == 0
        assert report_path.exists()
        out = capsys.readouterr().out
        assert "PASS" in out
