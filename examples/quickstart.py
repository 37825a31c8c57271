"""Quickstart: build a graph, write a GraphQL query, match a pattern.

Run with:  python examples/quickstart.py
"""

from repro import GraphDatabase, GraphMatcher, optimized_options
from repro.core import Graph
from repro.lang import compile_pattern_text


def main() -> None:
    # -- 1. build an attributed graph (the paper's Fig. 4.16 example) -------
    graph = Graph("G")
    for node_id, label in [("A1", "A"), ("A2", "A"), ("B1", "B"),
                           ("B2", "B"), ("C1", "C"), ("C2", "C")]:
        graph.add_node(node_id, label=label)
    for source, target in [("A1", "B1"), ("A1", "C2"), ("B1", "C1"),
                           ("B1", "C2"), ("B2", "C2"), ("A2", "B2")]:
        graph.add_edge(source, target)
    print(f"data graph: {graph}")

    # -- 2. write a graph pattern in GraphQL syntax --------------------------
    pattern = compile_pattern_text("""
        graph P {
            node u1 <label="A">;
            node u2 <label="B">;
            node u3 <label="C">;
            edge e1 (u1, u2);
            edge e2 (u2, u3);
            edge e3 (u3, u1);
        }
    """)

    # -- 3. match with the paper's optimized access methods -----------------
    matcher = GraphMatcher(graph)
    report = matcher.match(pattern.single(), optimized_options())
    print(f"search space: {report.baseline_space} -> "
          f"{report.retrieved_space} (profiles) -> "
          f"{report.refined_space} (refined)")
    for mapping in report.mappings:
        print(f"  match: {mapping}")

    # -- 4. run a whole FLWR query through the database facade ---------------
    db = GraphDatabase()
    db.register("net", graph)
    env = db.query("""
        graph Q { node a <label="A">; node b <label="B">; edge e (a, b); };
        for Q exhaustive in doc("net")
        return graph { node n <left=Q.a.label, right=Q.b.label>; };
    """)
    print(f"FLWR result: {len(env['__result__'])} graphs returned")


if __name__ == "__main__":
    main()
