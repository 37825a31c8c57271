"""Self-tests of the benchmark (run explicitly; tier-1 testpaths stays tests/):

    python3 -m pytest bench/test_bench.py
"""

import pytest

from bench import run
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_profile_has_no_failed_ops(name):
    result = run.run_child(name, seed=1, seconds=1, traced=False, quick=True,
                           echo=False)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_depend_on_the_seed_only(name):
    def op_bytes(seed):
        return repr(WORKLOADS[name](seed=seed, scale=0.25).ops).encode()

    assert op_bytes(3) == op_bytes(3)
    assert op_bytes(3) != op_bytes(4)
    # the population is the same for every seed: only its order is drawn
    assert sorted(op_bytes(3)) == sorted(op_bytes(4))


def test_knife_edge_assertion_fires_on_a_bad_mix():
    def mix(hits):
        classes = ["hit"] * hits + ["miss"] * (100 - hits)
        floors = [0.0001] * hits + [0.002] * (100 - hits)
        return classes, floors

    run.check_percentile_classes(*mix(65))            # p50 a hit, p95 a miss
    with pytest.raises(AssertionError, match="p50"):
        run.check_percentile_classes(*mix(48))        # p50 on the edge
    with pytest.raises(AssertionError, match="p95"):
        run.check_percentile_classes(*mix(93))        # p95 on the edge
    # classes of similar latency have no edge between them
    run.check_percentile_classes(["miss"] * 50 + ["write"] * 50,
                                 [0.010] * 50 + [0.012] * 50)


def test_floor_estimator_is_the_plain_pass_time_for_one_pass():
    one_pass = [0.004, 0.001, 0.020, 0.002]
    assert run.op_floors([one_pass]) == one_pass
    assert sum(run.op_floors([one_pass])) == sum(one_pass)
    slower = [value * 1.3 for value in one_pass]
    assert run.op_floors([slower, one_pass, slower]) == one_pass
    # an op that failed in any pass has no floor
    assert run.op_floors([one_pass, [0.004, None, 0.02, 0.002]])[1] is None
