"""Social-network analytics: patterns, then counts over the matches.

The paper's intro lists social networks among the graph-native domains.
This example builds a directed follower network, finds structural
patterns (reciprocal pairs, "broker" wedges, follow edges), and
summarises the mappings with plain ``collections.Counter`` tallies.

Run with:  python examples/social_network.py
"""

import random
from collections import Counter

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.matching import GraphMatcher, optimized_options


def build_network(num_users: int = 300, seed: int = 9) -> Graph:
    rng = random.Random(seed)
    graph = Graph("follows", directed=True)
    cities = ["tokyo", "berlin", "lagos", "lima", "oslo"]
    for i in range(num_users):
        graph.add_node(
            f"u{i}",
            tag="user",
            label="user",
            handle=f"@user{i}",
            city=rng.choice(cities),
            karma=rng.randint(0, 1000),
        )
    ids = graph.node_ids()
    # preferential attachment on the follow direction creates celebrities
    targets = list(ids[:10])
    for _ in range(num_users * 6):
        source = ids[rng.randrange(num_users)]
        target = (targets[rng.randrange(len(targets))]
                  if rng.random() < 0.6 else ids[rng.randrange(num_users)])
        if source != target and not graph.has_edge(source, target):
            graph.add_edge(source, target, kind="follows")
            targets.append(target)
    return graph


def reciprocal_pattern() -> GroundPattern:
    motif = SimpleMotif()
    motif.add_node("a", tag="user")
    motif.add_node("b", tag="user")
    motif.add_edge("a", "b")
    motif.add_edge("b", "a")
    return GroundPattern(motif, name="mutual")


def broker_pattern() -> GroundPattern:
    """a follows m, m follows b, but a does not know b directly —
    approximated structurally as the open wedge a -> m -> b."""
    motif = SimpleMotif()
    motif.add_node("a", tag="user")
    motif.add_node("m", tag="user")
    motif.add_node("b", tag="user")
    motif.add_edge("a", "m")
    motif.add_edge("m", "b")
    return GroundPattern(motif, name="wedge")


def main() -> None:
    network = build_network()
    print(f"network: {network}")
    matcher = GraphMatcher(network)

    mutual = matcher.match(reciprocal_pattern(),
                           optimized_options(limit=5000))
    pairs = {frozenset(m.nodes.values()) for m in mutual.mappings}
    print(f"reciprocal follow pairs: {len(pairs)}")

    wedges = matcher.match(broker_pattern(), optimized_options(limit=5000))
    print(f"open wedges (a->m->b): {len(wedges.mappings)}")

    # which city's users broker the most wedges?
    per_city = Counter(network.node(m["m"])["city"]
                       for m in wedges.mappings)
    print("\nwedges brokered per city:")
    for city, count in per_city.most_common():
        print(f"  {city:>8}: {count}")

    # ranking: most-followed users via the one-edge pattern
    follow = SimpleMotif()
    follow.add_node("src", tag="user")
    follow.add_node("dst", tag="user")
    follow.add_edge("src", "dst")
    report = matcher.match(GroundPattern(follow, name="F"),
                           optimized_options(limit=10000))
    per_user = Counter(network.node(m["dst"])["handle"]
                       for m in report.mappings)
    print("\ntop celebrities:")
    for handle, count in per_user.most_common(5):
        print(f"  {handle:>10}: {count} followers")


if __name__ == "__main__":
    main()
