"""Synthetic chemical-compound collection (the intro's first example).

*"Find all heterocyclic chemical compounds that contain a given aromatic
ring and a side chain"* — the paper's category-1 workload: a large
collection of small graphs.  The generator produces compounds made of a
backbone ring (with occasional heteroatoms), side chains and bridges,
with atoms as nodes (``label`` = element symbol) and bonds as edges.
"""

from __future__ import annotations

import random
from typing import List

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.motif import SimpleMotif
from ..core.pattern import GroundPattern
from ..core.tuples import AttributeTuple

ELEMENTS = ("C", "N", "O", "S", "P")
#: Carbon dominates organic molecules.
ELEMENT_WEIGHTS = (0.70, 0.12, 0.12, 0.04, 0.02)


def _pick_element(rng: random.Random) -> str:
    roll = rng.random()
    cumulative = 0.0
    for element, weight in zip(ELEMENTS, ELEMENT_WEIGHTS):
        cumulative += weight
        if roll < cumulative:
            return element
    return ELEMENTS[-1]


def random_molecule(
    rng: random.Random,
    name: str,
    ring_size_range=(5, 6),
    chain_length_range=(0, 4),
    num_chains_range=(0, 3),
) -> Graph:
    """One compound: a ring plus random side chains."""
    graph = Graph(name, AttributeTuple({"compound": name}))
    ring_size = rng.randint(*ring_size_range)
    ring_nodes: List[str] = []
    for i in range(ring_size):
        node = graph.add_node(f"a{i}", label=_pick_element(rng))
        ring_nodes.append(node.id)
    for i in range(ring_size):
        graph.add_edge(ring_nodes[i], ring_nodes[(i + 1) % ring_size],
                       bond="aromatic")
    atom_counter = ring_size
    for _ in range(rng.randint(*num_chains_range)):
        anchor = ring_nodes[rng.randrange(ring_size)]
        previous = anchor
        for _ in range(rng.randint(*chain_length_range)):
            node = graph.add_node(f"a{atom_counter}",
                                  label=_pick_element(rng))
            atom_counter += 1
            graph.add_edge(previous, node.id,
                           bond="single" if rng.random() < 0.8 else "double")
            previous = node.id
    return graph


def molecule_collection(
    num_molecules: int = 500,
    seed: int = 13,
    name: str = "compounds",
) -> GraphCollection:
    """A collection of random small compounds."""
    rng = random.Random(seed)
    collection = GraphCollection(name=name)
    for index in range(num_molecules):
        collection.add(random_molecule(rng, f"mol{index}"))
    return collection


def benzene_ring_pattern() -> GroundPattern:
    """A six-carbon aromatic ring query."""
    motif = SimpleMotif()
    for i in range(6):
        motif.add_node(f"c{i}", attrs={"label": "C"})
    for i in range(6):
        motif.add_edge(f"c{i}", f"c{(i + 1) % 6}", name=f"b{i}",
                       attrs={"bond": "aromatic"})
    return GroundPattern(motif, name="benzene")


def ring_with_side_chain_pattern(chain: str = "O") -> GroundPattern:
    """The intro's query: an aromatic carbon pair with a side-chain atom."""
    motif = SimpleMotif()
    motif.add_node("r1", attrs={"label": "C"})
    motif.add_node("r2", attrs={"label": "C"})
    motif.add_node("s", attrs={"label": chain})
    motif.add_edge("r1", "r2", name="ring", attrs={"bond": "aromatic"})
    motif.add_edge("r1", "s", name="branch")
    return GroundPattern(motif, name="ring_with_chain")
