"""Graph patterns: motif + predicate (Definitions 4.1 and 4.2).

A :class:`GraphPattern` pairs a motif expression with an optional
``where`` predicate.  Before matching, the pattern is *grounded*: the
motif is derived into one or more :class:`~repro.core.motif.SimpleMotif`
instances (one per disjunct/recursion unrolling) and the predicate is
pushed down into per-node ``F_u`` and per-edge ``F_e`` parts plus a
residual graph-wide ``F`` (Section 4.1).  A recursive pattern matches a
graph iff one of its derived ground patterns matches (Section 3.2).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .bindings import Mapping, MatchedGraph
from .graph import Edge, Graph, Node
from .motif import GraphGrammar, MotifExpr, SimpleMotif
from .predicate import DecomposedPredicate, Expr, Scope, decompose

if TYPE_CHECKING:
    from ..index.path_index import FeatureNeeds
    from ..matching.symmetry import Symmetry


class GroundPattern:
    """A derived (constant-structure) pattern ready for matching."""

    def __init__(
        self,
        motif: SimpleMotif,
        predicate: Optional[Expr] = None,
        name: Optional[str] = None,
    ) -> None:
        self.motif = motif
        self.name = name
        node_names = set(motif.node_names())
        edge_names = set(motif.edge_names())
        self.decomposed: DecomposedPredicate = decompose(
            predicate, node_names, edge_names
        )
        self.predicate = predicate
        self._node_tests: Dict[str, Callable[[Node], bool]] = {}
        self._shared_tests: Optional[Dict[str, str]] = None
        self._symmetry: Dict[bool, "Symmetry"] = {}
        self._profile_needs: Dict[int, Dict[str, Tuple[Tuple[Any, int], ...]]] = {}
        self._feature_needs: Dict[bool, Optional["FeatureNeeds"]] = {}

    # -- element predicates (F_u, F_e) ------------------------------------------

    def node_matches(self, pattern_node_name: str, data_node: Node) -> bool:
        """Evaluate F_u: declarative tuple constraints plus pushed predicate."""
        return self.node_test(pattern_node_name)(data_node)

    def node_test(self, pattern_node_name: str) -> Callable[[Node], bool]:
        """F_u of one pattern node as a one-argument test, compiled once:
        the motif node, its tag and attributes and its predicates (its
        own and the pushed-down one) are resolved here, not per
        candidate, and a :class:`Scope` is built only when a predicate
        exists."""
        test = self._node_tests.get(pattern_node_name)
        if test is None:
            test = self._node_tests[pattern_node_name] = self._compile_node_test(
                pattern_node_name)
        return test

    def shared_node_tests(self) -> Dict[str, str]:
        """Pattern node -> the first node, in declaration order, with the
        same F_u: the same tag and attributes (equal values of one type,
        in one order) and no predicate, own or pushed down.  A node with
        a predicate maps to itself.  Computed once per pattern, so
        retrieval can run one index lookup and one F_u pass per group."""
        if self._shared_tests is None:
            first: Dict[Any, str] = {}
            shared: Dict[str, str] = {}
            for name in self.motif.node_names():
                node = self.motif.node(name)
                shared[name] = name
                if (node.predicate is not None
                        or self.decomposed.node_preds.get(name) is not None):
                    continue
                key = (node.tag, tuple((attr, type(value), value)
                                       for attr, value in node.attrs.items()))
                try:
                    shared[name] = first.setdefault(key, name)
                except TypeError:  # an unhashable attribute value
                    pass
            self._shared_tests = shared
        return self._shared_tests

    def profile_needs(self, radius: int) -> Dict[str, Tuple[Tuple[Any, int], ...]]:
        """Pattern node -> its §4.2 profile within *radius* as
        ``(label, count)`` pairs (:func:`~repro.matching.neighborhood.motif_profile`
        counted), computed once per pattern and radius."""
        found = self._profile_needs.get(radius)
        if found is None:
            from ..matching.neighborhood import motif_profile
            found = self._profile_needs[radius] = {
                name: tuple(Counter(motif_profile(self.motif, name, radius)).items())
                for name in self.motif.node_names()}
        return found

    def feature_needs(self, directed: bool) -> Optional["FeatureNeeds"]:
        """The label counts and label paths a graph of the given
        directedness must have to contain this pattern
        (:func:`~repro.index.path_index.feature_needs`), computed once per
        pattern and flag."""
        try:
            return self._feature_needs[directed]
        except KeyError:
            from ..index.path_index import feature_needs
            found = self._feature_needs[directed] = feature_needs(self, directed)
            return found

    def symmetry(self, directed: bool) -> "Symmetry":
        """The pattern's automorphism group against data graphs of the
        given directedness (:mod:`repro.matching.symmetry`), computed
        once per pattern and flag."""
        found = self._symmetry.get(directed)
        if found is None:
            from ..matching.symmetry import automorphisms
            found = self._symmetry[directed] = automorphisms(self, directed)
        return found

    def _compile_node_test(self, name: str) -> Callable[[Node], bool]:
        motif_node = self.motif.node(name)
        tag, attrs = motif_node.tag, motif_node.attrs
        predicates = tuple(
            p for p in (motif_node.predicate, self.decomposed.node_preds.get(name))
            if p is not None)

        def test(data_node: Node) -> bool:
            if not data_node.tuple.matches_constraints(tag, attrs):
                return False
            if predicates:
                scope = Scope({name: data_node}, fallback=data_node)
                for predicate in predicates:
                    if not predicate.holds(scope):
                        return False
            return True

        return test

    def edge_matches(self, pattern_edge_name: str, data_edge: Edge) -> bool:
        """Evaluate F_e for a candidate data edge."""
        motif_edge = self.motif.edge(pattern_edge_name)
        if not data_edge.tuple.matches_constraints(motif_edge.tag, motif_edge.attrs):
            return False
        scope = Scope({pattern_edge_name: data_edge}, fallback=data_edge)
        if motif_edge.predicate is not None and not motif_edge.predicate.holds(scope):
            return False
        pushed = self.decomposed.edge_preds.get(pattern_edge_name)
        if pushed is not None and not pushed.holds(scope):
            return False
        return True

    def residual_holds(self, mapping: Mapping, graph: Graph) -> bool:
        """Evaluate the graph-wide predicate F over a complete mapping."""
        residual = self.decomposed.residual
        if residual is None:
            return True
        matched = MatchedGraph(mapping, self, graph)
        bindings: Dict[str, Any] = {
            name: graph.node(node_id) for name, node_id in mapping.nodes.items()
        }
        for name, edge_id in mapping.edges.items():
            bindings[name] = graph.edge(edge_id)
        if self.name:
            bindings.setdefault(self.name, matched)
        scope = Scope(bindings, fallback=matched)
        return residual.holds(scope)

    # -- convenience -----------------------------------------------------------------

    def ground(self, grammar=None, max_depth: int = 8) -> List["GroundPattern"]:
        """Its own only derivation (mirrors :meth:`GraphPattern.ground`)."""
        return [self]

    def node_names(self) -> List[str]:
        """Pattern node names in declaration order."""
        return self.motif.node_names()

    def num_nodes(self) -> int:
        """Number of pattern nodes."""
        return self.motif.num_nodes()

    def num_edges(self) -> int:
        """Number of pattern edges."""
        return self.motif.num_edges()

    def __repr__(self) -> str:
        return (
            f"GroundPattern({self.name or '<anon>'}, "
            f"nodes={self.motif.num_nodes()}, edges={self.motif.num_edges()})"
        )


class GraphPattern:
    """A graph pattern P = (M, F): a motif and a predicate (Definition 4.1)."""

    def __init__(
        self,
        motif: MotifExpr,
        where: Optional[Expr] = None,
        name: Optional[str] = None,
    ) -> None:
        self.motif = motif
        self.where = where
        self.name = name
        # max_depth -> the derivations without a grammar: a prepared
        # pattern is executed many times, and its ground patterns carry
        # compiled F_u tests and the automorphism group
        self._grounds: Dict[int, List[GroundPattern]] = {}

    def is_recursive(self) -> bool:
        """Whether the motif involves named-motif references."""
        return self.motif.is_recursive()

    def ground(
        self,
        grammar: Optional[GraphGrammar] = None,
        max_depth: int = 8,
    ) -> List[GroundPattern]:
        """Derive all ground patterns (one per disjunct / unrolling).

        Without a *grammar* the derivations are computed once per
        *max_depth* and every call returns a new list of the same
        :class:`GroundPattern` objects."""
        grounds = self._grounds.get(max_depth) if grammar is None else None
        if grounds is None:
            grounds = [
                GroundPattern(simple, self.where, name=self.name)
                for simple in self.motif.expand(grammar, max_depth)
            ]
            if grammar is None:
                self._grounds[max_depth] = grounds
        return list(grounds)

    def single(self, grammar: Optional[GraphGrammar] = None) -> GroundPattern:
        """The unique ground pattern of a nonrecursive, disjunction-free motif."""
        grounds = self.ground(grammar, max_depth=1 if not self.is_recursive() else 8)
        if len(grounds) != 1:
            raise ValueError(
                f"pattern has {len(grounds)} derivations; use ground() instead"
            )
        return grounds[0]

    def __repr__(self) -> str:
        return f"GraphPattern({self.name or '<anon>'})"
