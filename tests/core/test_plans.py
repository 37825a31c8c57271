"""Algebraic plans (Section 3.3): operator nests over named documents, and
the relational rewrite laws the paper says carry over.

A plan here is a nest of :mod:`repro.core.algebra` calls over documents
resolved through a :class:`DictSource`.  A filter is σ with a one-node
pattern whose predicate compares the node's ``x`` or ``y`` with a
constant.  Each rewrite test builds both sides of a law by hand and checks
that they return the same graphs; no plan rewriter applies the laws
(DESIGN.md, "Algebraic laws").  The laws compare results by graph names
or ``(x, y)`` signatures; set operators on selection results (matched
graphs) are tested directly in ``TestEvaluation``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DictSource,
    Graph,
    GraphCollection,
    GraphTemplate,
    GroundPattern,
    as_graph,
    cartesian_product,
    compose,
    difference,
    intersection,
    join,
    select,
    union,
)
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal


def ref(path):
    return AttrRef(tuple(path.split(".")))


def record(name, **attrs):
    """A one-node graph whose node ``n`` carries *attrs*."""
    g = Graph(name)
    g.add_node("n", **attrs)
    return g


def source():
    return DictSource({
        "R": GraphCollection([record("r1", x=1), record("r2", x=2),
                              record("r3", x=3)]),
        "S": GraphCollection([record("s1", y=2), record("s2", y=4)]),
    })


def node_filter(predicate):
    motif = SimpleMotif()
    motif.add_node("u")
    return GroundPattern(motif, predicate)


def where(path, op, value):
    return BinOp(op, ref(path), Literal(value))


def conjunction(parts):
    expr = parts[0]
    for extra in parts[1:]:
        expr = BinOp("&", expr, extra)
    return expr


def result_names(collection):
    return sorted(as_graph(item).name for item in collection)


def pair_names(collection):
    return sorted((graph.members["G1"].name, graph.members["G2"].name)
                  for graph in collection)


class TestEvaluation:
    def test_doc_and_filter(self):
        plan = select(source().doc("R"), node_filter(where("u.x", ">", 1)))
        assert result_names(plan) == ["r2", "r3"]

    def test_union_difference(self):
        r = source().doc("R")
        assert len(union(r, r)) == 3  # set semantics dedupe
        d = difference(r, GraphCollection([record("r1", x=1)]))
        assert result_names(d) == ["r2", "r3"]

    def test_set_operators_on_selections(self):
        """σ results are matched graphs: set operators compare the
        mapping and the graph, not object identity."""
        c = GraphCollection([record("r1", x=1), record("r2", x=2),
                             record("r3", x=3)])
        d = GraphCollection([record("r2", x=2), record("r4", x=4)])
        above_one = node_filter(where("u.x", ">", 1))
        left, right = select(c, above_one), select(d, above_one)
        assert result_names(union(left, right)) == ["r2", "r3", "r4"]
        assert result_names(difference(left, right)) == ["r3"]
        assert result_names(intersection(left, right)) == ["r2"]

    def test_set_operators_keep_distinct_mappings(self):
        pair = Graph("pair")
        pair.add_node("a", x=1)
        pair.add_node("b", x=1)
        matches = select(GraphCollection([pair]),
                         node_filter(where("u.x", "==", 1)))
        assert len(matches) == 2  # one graph, two mappings
        assert len(union(matches, matches)) == 2
        assert len(intersection(matches, matches)) == 2
        assert len(difference(matches, matches)) == 0

    def test_product_members(self):
        src = source()
        collection = cartesian_product(src.doc("R"), src.doc("S"))
        assert len(collection) == 6
        assert set(collection[0].members) == {"G1", "G2"}

    def test_select(self):
        motif = SimpleMotif()
        motif.add_node("u")
        assert len(select(source().doc("R"), GroundPattern(motif))) == 3

    def test_compose(self):
        template = GraphTemplate(["P"])
        template.add_node("v", attr_exprs={"copied": ref("P.n.x")})
        collection = compose(template, source().doc("R"))
        assert sorted(g.node("v")["copied"] for g in collection) == [1, 2, 3]


class TestRewrites:
    def test_filter_cascade(self):
        r = source().doc("R")
        twice = select(select(r, node_filter(where("u.x", ">", 1))),
                       node_filter(where("u.x", "<", 3)))
        once = select(r, node_filter(BinOp("&", where("u.x", ">", 1),
                                           where("u.x", "<", 3))))
        assert result_names(twice) == result_names(once) == ["r2"]

    def test_filter_through_union(self):
        r = source().doc("R")
        pattern = node_filter(where("u.x", "==", 2))
        above = result_names(select(union(r, r), pattern))
        below = (set(result_names(select(r, pattern)))
                 | set(result_names(select(r, pattern))))
        assert above == sorted(below) == ["r2"]

    def test_filter_through_difference(self):
        r = source().doc("R")
        removed = GraphCollection([record("r3", x=3)])
        pattern = node_filter(where("u.x", ">", 1))
        above = result_names(select(difference(r, removed), pattern))
        below = (set(result_names(select(r, pattern)))
                 - set(result_names(select(removed, pattern))))
        assert above == sorted(below) == ["r2"]

    def test_selection_pushdown_through_product(self):
        src = source()
        r, s = src.doc("R"), src.doc("S")
        on_value = BinOp("==", ref("G1.n.x"), ref("G2.n.y"))
        above = join(r, s, BinOp("&", where("G1.n.x", ">", 1), on_value))
        # the single-side conjunct moved below the product; the join
        # condition stays above it
        below = join(select(r, node_filter(where("u.x", ">", 1))), s,
                     on_value)
        assert pair_names(above) == pair_names(below) == [("r2", "s1")]

    def test_pushdown_reduces_product_size(self):
        src = source()
        r, s = src.doc("R"), src.doc("S")
        above = join(r, s, where("G1.n.x", "==", 1))
        pushed = select(r, node_filter(where("u.x", "==", 1)))
        # pushing the filter shrinks the product input from 3 to 1 graph
        assert len(pushed) == 1
        below = cartesian_product(pushed, s)
        assert len(below) == 2  # 1 x 2
        assert pair_names(above) == pair_names(below)


records = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   max_size=4)
#: ``(operator, attribute, constant)`` of one comparison
comparisons = st.tuples(st.sampled_from(["==", "!=", "<", ">"]),
                        st.sampled_from("xy"), st.integers(0, 3))


def collection_of(pairs):
    """One single-node graph per ``(x, y)``."""
    return GraphCollection([record(f"r{x}{y}", x=x, y=y) for x, y in pairs])


def compare(node_path, comparison):
    op, attr, value = comparison
    return where(f"{node_path}.{attr}", op, value)


def filtered(collection, comparisons_):
    if not comparisons_:
        return collection
    return select(collection, node_filter(
        conjunction([compare("u", c) for c in comparisons_])))


def signature(graph):
    node = as_graph(graph).node("n")
    return node["x"], node["y"]


def signatures(collection):
    """Equal graphs here have equal ``(x, y)``, so sets of these compare
    collections as sets."""
    return {signature(graph) for graph in collection}


def pair_signatures(collection):
    return {(signature(graph.members["G1"]), signature(graph.members["G2"]))
            for graph in collection}


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(["cascade", "union", "difference", "product"]),
    left=records,
    right=records,
    first=st.lists(comparisons, min_size=1, max_size=3),
    second=st.lists(comparisons, min_size=1, max_size=3),
    sides=st.lists(st.sampled_from(["G1", "G2"]), min_size=3, max_size=3),
    joined=st.booleans(),
)
def test_optimize_preserves_semantics(case, left, right, first, second,
                                      sides, joined):
    """Property: each law's rewritten plan returns exactly the same graphs."""
    c, d = collection_of(left), collection_of(right)
    if case == "cascade":
        twice = filtered(filtered(c, first), second)
        assert signatures(twice) == signatures(filtered(c, first + second))
    elif case == "union":
        assert (signatures(filtered(union(c, d), first))
                == signatures(filtered(c, first)) | signatures(filtered(d, first)))
    elif case == "difference":
        assert (signatures(filtered(difference(c, d), first))
                == signatures(filtered(c, first)) - signatures(filtered(d, first)))
    else:
        conjuncts = list(zip(sides, first))
        residual = [BinOp("==", ref("G1.n.x"), ref("G2.n.y"))] if joined else []
        above = join(c, d, conjunction(
            [compare(f"{side}.n", cmp) for side, cmp in conjuncts] + residual))
        pushed_left = filtered(c, [cmp for side, cmp in conjuncts if side == "G1"])
        pushed_right = filtered(d, [cmp for side, cmp in conjuncts if side == "G2"])
        below = (join(pushed_left, pushed_right, conjunction(residual))
                 if residual else cartesian_product(pushed_left, pushed_right))
        assert pair_signatures(above) == pair_signatures(below)
