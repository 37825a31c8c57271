"""GraphQL: graphs-at-a-time query language and access methods.

A from-scratch reproduction of He & Singh, *"Graphs-at-a-time: Query
Language and Access Methods for Graph Databases"* (SIGMOD 2008; extended
book-chapter version).  Graphs are the basic unit of information: the
library provides the attributed-graph data model, a formal language for
graph structures (motifs, grammars), graph patterns and templates, a bulk
graph algebra with FLWR query syntax, and the paper's access methods for
the selection operator (neighborhood-profile pruning, pseudo-subgraph-
isomorphism refinement, cost-based search ordering) — plus the SQL and
Datalog comparison substrates used in its evaluation.

Quickstart::

    from repro import GraphDatabase
    from repro.datasets import tiny_dblp

    db = GraphDatabase()
    db.register("DBLP", tiny_dblp())
    env = db.query('''
        graph P { node v1 <author>; node v2 <author>; };
        for P exhaustive in doc("DBLP")
        return graph { node v1 <name=P.v1.name>; node v2 <name=P.v2.name>;
                       edge e1 (v1, v2); };
    ''')
    coauthor_pairs = env["__result__"]
"""

from .core import (
    AttributeTuple,
    Graph,
    GraphCollection,
    GraphGrammar,
    GraphPattern,
    GraphTemplate,
    GroundPattern,
    Mapping,
    MatchedGraph,
    SimpleMotif,
)
from .lang import compile_pattern_text, compile_program
from .matching import GraphMatcher, MatchOptions, baseline_options, optimized_options
from .runtime import (
    CancellationToken,
    ExecutionContext,
    ExecutionInterrupted,
    Outcome,
    QueryOutcome,
)
from .storage import GraphDatabase, GraphStore

__version__ = "1.0.0"

__all__ = [
    "AttributeTuple",
    "Graph",
    "GraphCollection",
    "GraphGrammar",
    "GraphPattern",
    "GraphTemplate",
    "GroundPattern",
    "Mapping",
    "MatchedGraph",
    "SimpleMotif",
    "compile_pattern_text",
    "compile_program",
    "GraphMatcher",
    "MatchOptions",
    "baseline_options",
    "optimized_options",
    "GraphDatabase",
    "GraphStore",
    "CancellationToken",
    "ExecutionContext",
    "ExecutionInterrupted",
    "Outcome",
    "QueryOutcome",
    "__version__",
]
