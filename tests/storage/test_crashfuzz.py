"""Tests for the crash-point fuzzing harness (small sweeps; the CI
``crash-recovery-fuzz`` job runs the full ≥200-point version)."""


from repro.storage.crashfuzz import (
    MEMBERS,
    NEVER,
    CrashFuzzWorkload,
    fuzz,
    run_crash_point,
)
from repro.storage.faults import CrashPoint
from repro.storage.graphstore import GraphStore


def small_workload(seed: int = 3) -> CrashFuzzWorkload:
    return CrashFuzzWorkload(seed, docs=2, rounds=2, base_nodes=6)


def count_ops(workload: CrashFuzzWorkload, tmp_path) -> int:
    counter = CrashPoint(NEVER)
    store = GraphStore(str(tmp_path / "count.db"), fsync="never",
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
    def test_every_point_recovers(self, tmp_path):
        """A full sweep of a small workload: every crash point passes
        the committed-prefix contract."""
        workload = small_workload()
        total = count_ops(workload, tmp_path)
        assert total >= 10
        failures = []
        for point in range(1, total + 1):
            directory = tmp_path / f"p{point}"
            directory.mkdir()
            error = run_crash_point(workload, str(directory), point,
                                    fsync="never")
            if error is not None:
                failures.append(error)
        assert failures == []

    def test_fuzz_report_shape(self, tmp_path):
        report = fuzz(seed=5, min_points=1, directory=str(tmp_path),
                      fsync="never", verbose=False,
                      docs=2, rounds=2, base_nodes=6)
        assert report.ok
        assert report.points_run == report.total_ops > 0
        payload = report.to_dict()
        assert payload["failures"] == []
        assert payload["seed"] == 5

    def test_cli_entry(self, tmp_path, capsys):
        from repro.storage.crashfuzz import main

        report_path = tmp_path / "report.json"
        code = main(["--seed", "2", "--min-points", "1", "--max-points",
                     "8", "--fsync", "never", "--report", str(report_path)])
        assert code == 0
        assert report_path.exists()
        out = capsys.readouterr().out
        assert "PASS" in out
