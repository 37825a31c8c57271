"""Unit and property tests for the attribute, profile and relation
indexes."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal, conjunction
from repro.index import AttributeIndexSet, ProfileIndex
from repro.sqlbaseline import Relation


def ref(path):
    return AttrRef(tuple(path.split(".")))


class TestAttributeIndexSet:
    def graph(self):
        g = Graph()
        g.add_node("n1", label="A", year=2001)
        g.add_node("n2", label="B", year=2005)
        g.add_node("n3", label="A", year=2008)
        g.add_node("n4")  # attribute-free node
        return g

    def test_autodiscovers_attributes(self):
        index = AttributeIndexSet(self.graph())
        assert set(index.attributes()) == {"label", "year"}

    def test_eq_lookup(self):
        index = AttributeIndexSet(self.graph())
        assert sorted(index.lookup_eq("label", "A")) == ["n1", "n3"]
        assert index.lookup_eq("label", "Z") == []

    def test_range_lookup(self):
        index = AttributeIndexSet(self.graph())
        assert sorted(index.lookup_range("year", 2002, None)) == ["n2", "n3"]
        assert index.lookup_range("year", None, 2001) == ["n1"]
        assert sorted(
            index.lookup_range("year", 2001, 2005, include_low=False)
        ) == ["n2"]

    def test_candidates_from_required_attrs(self):
        index = AttributeIndexSet(self.graph())
        ids, exact = index.candidates_for({"label": "A"})
        assert sorted(ids) == ["n1", "n3"] and exact

    def test_candidates_from_predicate(self):
        index = AttributeIndexSet(self.graph())
        pred = BinOp(">", ref("year"), Literal(2004))
        assert sorted(index.candidates_for({}, pred)[0]) == ["n2", "n3"]
        # flipped orientation
        pred = BinOp("<", Literal(2004), ref("year"))
        assert sorted(index.candidates_for({}, pred)[0]) == ["n2", "n3"]

    def test_candidates_picks_most_selective(self):
        index = AttributeIndexSet(self.graph())
        pred = conjunction([
            BinOp(">", ref("year"), Literal(1000)),  # matches 3
            BinOp("==", ref("label"), Literal("B")),  # matches 1
        ])
        assert index.candidates_for({}, pred) == (["n2"], False)

    def test_nothing_indexable(self):
        index = AttributeIndexSet(self.graph())
        pred = BinOp("==", ref("u1.label"), ref("u2.label"))
        assert index.candidates_for({}, pred) == (None, False)
        assert index.candidates_for({}) == (None, False)

    def test_explicit_attribute_list(self):
        index = AttributeIndexSet(self.graph(), attributes=["label"])
        assert index.has_index("label")
        assert not index.has_index("year")

    def test_mixed_type_keys_do_not_clash(self):
        g = Graph()
        g.add_node("a", code=1)
        g.add_node("b", code="1")
        index = AttributeIndexSet(g)
        assert index.lookup_eq("code", 1) == ["a"]
        assert index.lookup_eq("code", "1") == ["b"]


class TestProfileIndex:
    def test_profiles_match_direct_computation(self, paper_graph):
        from repro.matching import profile

        index = ProfileIndex(paper_graph, radius=1)
        labels = {node.get("label") for node in paper_graph.nodes()}
        for node in paper_graph.nodes():
            counts = Counter(profile(paper_graph, node.id, 1))
            for label in labels:
                count = counts[label]
                assert (node.id in index.holders(label, count)) or not count
                assert node.id not in index.holders(label, count + 1)

    def test_subgraph_cached(self, paper_graph):
        index = ProfileIndex(paper_graph, radius=1)
        first = index.subgraph_of("A1")
        again = index.subgraph_of("A1")
        assert first is again
        assert set(first.node_ids()) == {"A1", "B1", "C2"}


# -- properties: an index lookup is the scan it replaces ----------------------

#: values F_u tells apart only by ``==`` and ``<``: ``True == 1 == 1.0``,
#: ``"1"`` is neither, NaN equals and orders against nothing
VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, -2, 2.5, "1", "a", "b",
                     float("nan"), float("inf")]),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text("ab1", max_size=2),
)


def _kind(value):
    return "str" if isinstance(value, str) else "num"


def _f_u(predicate):
    """F_u of a one-node pattern carrying *predicate*."""
    motif = SimpleMotif()
    motif.add_node("u", predicate=predicate)
    return GroundPattern(motif).node_test("u")


def _value_graph(values):
    graph = Graph()
    for i, value in enumerate(values):
        if value is None:
            graph.add_node(f"n{i}")
        else:
            graph.add_node(f"n{i}", v=value)
    return graph


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), VALUES), max_size=12), VALUES, VALUES)
def test_attribute_lookups_equal_the_f_u_scan(values, bound, other):
    graph = _value_graph(values)
    nodes = list(graph.nodes())
    index = AttributeIndexSet(graph)
    if not index.has_index("v"):
        return
    assert index.lookup_eq("v", bound) == [
        node.id for node in nodes if node.get("v") == bound]
    for low, high in ((bound, None), (None, bound), (bound, other)):
        for include_low in (True, False):
            for include_high in (True, False):
                conditions = []
                if low is not None:
                    conditions.append(BinOp(">=" if include_low else ">",
                                            ref("v"), Literal(low)))
                if high is not None:
                    conditions.append(BinOp("<=" if include_high else "<",
                                            ref("v"), Literal(high)))
                accepts = _f_u(conjunction(conditions))
                accepted = {node.id for node in nodes if accepts(node)}
                found = index.lookup_range("v", low, high,
                                           include_low, include_high)
                assert len(found) == len(set(found))
                assert set(found) >= accepted
                # exact within the bound's comparison class
                kind = _kind(bound)
                assert {node_id for node_id in found
                        if _kind(graph.node(node_id).get("v")) == kind
                        } == accepted


@settings(max_examples=200, deadline=None)
@given(st.lists(VALUES, max_size=10), st.lists(VALUES, max_size=10), VALUES)
def test_relation_index_lookup_equals_a_scan(before, after, probe):
    relation = Relation("T", ["k", "v"])
    relation.insert_many([(i, value) for i, value in enumerate(before)])
    relation.create_index("v")
    relation.insert_many([(len(before) + i, value)
                          for i, value in enumerate(after)])
    for value in [probe] + before + after:
        assert relation.index_lookup("v", value) == [
            row_id for row_id, row in relation.scan() if row[1] == value]
