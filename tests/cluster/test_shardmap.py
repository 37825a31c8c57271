"""ShardMap: deterministic, fixed placement and replica preference lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ShardMap

IDS = [f"mol{i}" for i in range(200)]


def test_placement_is_deterministic_across_instances():
    first = ShardMap(["a", "b", "c"])
    second = ShardMap(["a", "b", "c"])
    assert [first.owner(g) for g in IDS] == [second.owner(g) for g in IDS]


#: prints every split and preference list of 1-5 shards x R 1-3
PLACEMENT_SCRIPT = """
import json
from repro.cluster import ShardMap
ids = [f"g{i}" for i in range(500)]
out = {}
for n in range(1, 6):
    for r in range(1, 4):
        shard_map = ShardMap([f"shard{i}" for i in range(n)], r)
        out[f"{n}x{r}"] = [shard_map.split(ids), {
            s: shard_map.preference_list(s) for s in shard_map.shards}]
print(json.dumps(out, sort_keys=True))
"""


def test_placement_is_identical_across_processes_and_hash_seeds():
    # str hashing is salted per process: placement must not follow it,
    # or the bootstrap and a coordinator in another process disagree
    src = str(Path(__file__).resolve().parents[2] / "src")

    def placement(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", PLACEMENT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        return json.loads(done.stdout)

    first, second = placement("1"), placement("2")
    assert first == second
    assert first["3x2"][0]["shard0"]  # a real split, not an empty one


def test_split_covers_every_shard_and_every_graph():
    shard_map = ShardMap(["a", "b", "c"])
    split = shard_map.split(IDS)
    assert set(split) == {"a", "b", "c"}  # empty shards stay visible
    assert sorted(g for owned in split.values() for g in owned) == \
        sorted(IDS)
    for shard, owned in split.items():
        assert all(shard_map.owner(g) == shard for g in owned)


def test_distribution_is_roughly_even():
    split = ShardMap(["a", "b", "c", "d"]).split(IDS)
    sizes = sorted(len(owned) for owned in split.values())
    assert sizes[0] >= len(IDS) // 12  # no starved shard


def test_serialization_round_trip_preserves_placement():
    shard_map = ShardMap(["a", "b", "c"])
    back = ShardMap(**json.loads(json.dumps(shard_map.to_dict())))
    assert [back.owner(g) for g in IDS] == \
        [shard_map.owner(g) for g in IDS]


def test_preference_lists_hold_r_distinct_shards_with_the_primary_first():
    shard_map = ShardMap(["a", "b", "c", "d"], replication_factor=3)
    for shard in shard_map.shards:
        prefs = shard_map.preference_list(shard)
        assert len(prefs) == 3
        assert len(set(prefs)) == 3  # distinct processes, or the
        assert prefs[0] == shard  # replica is useless


def test_every_graph_of_a_slice_shares_one_preference_list():
    # failover moves whole slices: stored the way launch_cluster stores
    # them (each slice on every shard of its primary's list), every
    # graph lives on exactly R shards, its owner among them
    shard_map = ShardMap(["a", "b", "c", "d"], replication_factor=2)
    stored = {shard: set() for shard in shard_map.shards}
    for primary, owned in shard_map.split(IDS).items():
        prefs = shard_map.preference_list(primary)
        assert prefs[0] == primary
        for replica in prefs:
            stored[replica].update(owned)
    for graph in IDS:
        holders = [s for s in shard_map.shards if graph in stored[s]]
        assert len(holders) == 2 and shard_map.owner(graph) in holders


def test_replication_factor_above_shard_count_caps_at_every_shard():
    shard_map = ShardMap(["a", "b", "c"], replication_factor=7)
    for shard in shard_map.shards:
        assert sorted(shard_map.preference_list(shard)) == ["a", "b", "c"]


def test_replication_round_trips_through_serialization():
    shard_map = ShardMap(["a", "b", "c"], replication_factor=2)
    back = ShardMap(**json.loads(json.dumps(shard_map.to_dict())))
    assert back.replication_factor == 2
    assert [back.preference_list(s) for s in back.shards] == \
        [shard_map.preference_list(s) for s in shard_map.shards]


def test_preference_list_rejects_unknown_shards():
    with pytest.raises(ValueError):
        ShardMap(["a", "b"]).preference_list("nope")
    with pytest.raises(ValueError):
        ShardMap(["a"], replication_factor=0)


def test_invalid_constructions_are_rejected():
    with pytest.raises(ValueError):
        ShardMap([])
    with pytest.raises(ValueError):
        ShardMap(["a", "a"])
