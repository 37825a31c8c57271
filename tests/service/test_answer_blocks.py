"""Answers on the wire: blocks of flat id rows, read through one row view.

A reply carries one ``{"graph", "nodes", "edges", "rows"}`` block per
search; :class:`~repro.service.protocol.AnswerRows` builds a row dict
only when a caller reads a row.  The rows read back after the whole
trip — ``QueryResponse.to_dict`` → ``encode`` → ``decode`` → the
client's view — must be exactly the row dicts the service built per
mapping before (``tests/service/reference.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bindings import AnswerTable, Block
from repro.datasets.molecules import molecule_collection
from repro.service import QueryService, ServiceConfig
from repro.service.protocol import AnswerRows, ProtocolError, decode, encode
from repro.service.service import QueryResponse
from tests.service.reference import answer_rows

#: ids and names, quotes, backslashes and non-ASCII included (no lone
#: surrogates: they have no UTF-8 encoding)
TEXT = st.one_of(
    st.sampled_from(['"', "'", "\\", '"\\"', "é", "图", "😀", "a\nb"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))


@st.composite
def answer_tables(draw):
    """Per-graph answer tables whose blocks have differing schemas,
    zero-edge and zero-row blocks among them."""
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        blocks = []
        for _ in range(draw(st.integers(1, 3))):
            nodes = tuple(draw(st.lists(TEXT, max_size=3, unique=True)))
            edges = tuple(draw(st.lists(TEXT, max_size=2, unique=True)))
            rows = draw(st.lists(st.tuples(
                *[TEXT] * (len(nodes) + len(edges))), max_size=4))
            blocks.append(Block("", nodes, edges, tuple(rows)))
        tables.append((draw(TEXT), AnswerTable(blocks)))
    return tables


def named(tables):
    """Per-graph tables as the named blocks a reply carries, the way
    ``GraphDatabase.execute`` names them."""
    return [block._replace(graph=name) for name, table in tables
            for block in table.blocks if block.rows]


def through_the_wire(rows: AnswerRows) -> AnswerRows:
    """A reply's rows as a client reads them back."""
    line = encode(QueryResponse(request_id="q", results=rows).to_dict())
    return AnswerRows.from_wire(decode(line)["blocks"])


@settings(max_examples=150, deadline=None)
@given(answer_tables())
def test_rows_read_back_are_the_row_dicts(tables):
    expected = answer_rows(named(tables))
    served = AnswerRows(named(tables))
    for rows in (served, through_the_wire(served)):
        assert len(rows) == len(expected) == sum(
            len(table) for _, table in tables)
        assert list(rows) == expected
        assert rows == expected and expected == rows
        assert [rows[i] for i in range(-len(rows), 0)] == expected
        assert rows[1:] == expected[1:]
        with pytest.raises(IndexError):
            rows[len(rows)]


def test_the_view_is_read_only_and_rows_are_new_on_every_read():
    rows = AnswerRows([Block("g", ("u",), ("e",), (("v1", "e1"),))])
    rows[0]["nodes"]["u"] = "BOGUS"
    assert rows[0] == {"graph": "g", "nodes": {"u": "v1"},
                       "edges": {"e": "e1"}}
    for mutate in (lambda: rows.append({}), lambda: rows.__setitem__(0, {})):
        with pytest.raises((AttributeError, TypeError)):
            mutate()
    assert rows != [] and AnswerRows() == [] and rows != "g"


def test_head_cuts_the_block_the_cap_falls_in():
    rows = AnswerRows.from_wire([
        {"graph": "a", "nodes": ["u"], "edges": [], "rows": [["1"], ["2"]]},
        {"graph": "b", "nodes": ["u"], "edges": [], "rows": []},
        {"graph": "c", "nodes": ["u"], "edges": [], "rows": [["3"], ["4"]]},
    ])
    for count in range(6):
        assert rows.head(count) == list(rows)[:count]
    assert [len(block.rows) for block in rows.head(3).blocks] == [2, 0, 1]
    tagged = rows.tagged("shard1")
    assert all(row["shard"] == "shard1" for row in tagged)
    assert all(block["shard"] == "shard1" for block in tagged.to_wire())


GOOD = {"graph": "g", "nodes": ["u1", "u2"], "edges": ["e1"],
        "rows": [["v1", "v2", "e7"]]}


@pytest.mark.parametrize("blocks", [
    {"graph": "g"},                                   # not a list
    ["not a block"],
    [dict(GOOD, graph=3)],
    [dict(GOOD, shard=["s"])],
    [dict(GOOD, nodes="u1")],                         # names not a list
    [dict(GOOD, nodes=["u1", 2])],                    # a name not a string
    [dict(GOOD, edges=None)],
    [{key: value for key, value in GOOD.items() if key != "edges"}],
    [dict(GOOD, rows={"0": ["v1", "v2", "e7"]})],     # rows not a list
    [dict(GOOD, rows=["v1v2e7"])],                    # a row not a list
    [dict(GOOD, rows=[["v1", "v2"]])],                # a short row
    [dict(GOOD, rows=[["v1", "v2", "e7", "e8"]])],    # a long row
], ids=lambda blocks: repr(blocks)[:40])
def test_a_malformed_block_is_a_protocol_error(blocks):
    with pytest.raises(ProtocolError):
        AnswerRows.from_wire(blocks)


def test_a_well_formed_block_decodes():
    assert AnswerRows.from_wire([GOOD]) == [
        {"graph": "g", "nodes": {"u1": "v1", "u2": "v2"},
         "edges": {"e1": "e7"}}]


def test_blocks_take_at_most_six_tenths_of_the_row_dict_bytes():
    """Bytes per answer on a fixed molecule reply: flat rows under one
    name list per block against one dict per row repeating every name."""
    query = ('graph P { node a <label="C">; node b <label="C">; '
             'node c <label="C">; edge e1 (a, b); edge e2 (b, c); }')
    with QueryService(ServiceConfig(workers=1)) as service:
        service.register("data", molecule_collection(num_molecules=16,
                                                     seed=5))
        payload = service.execute(query, document="data").to_dict()
        blocks = service.database.execute("data", query).blocks
    rows = answer_rows(blocks)
    assert len(rows) >= 50
    as_blocks = len(encode(payload))
    payload.pop("blocks")
    as_dicts = len(encode(dict(payload, results=rows)))
    assert as_blocks <= 0.6 * as_dicts, (as_blocks, as_dicts)


def test_the_cache_the_memo_and_a_replay_share_one_copy_of_the_rows():
    """One miss through the service, then one more execute of the same
    prepared pattern: the result cache's blocks, the small-member memo's
    tables and the replayed answer hold the very same row tuples."""
    query = ('graph P { node a <label="C">; node b <label="C">; '
             'edge e1 (a, b); }')
    with QueryService(ServiceConfig(workers=1)) as service:
        service.register("data", molecule_collection(num_molecules=6,
                                                     seed=5))
        assert service.execute(query, document="data").cache == "miss"
        db = service.database
        replayed = db.execute("data", service.plan_cache.get(query).pattern)
        ((cached, _),) = service.result_cache._entries.values()
        memo = {matcher.graph.name: [block.rows
                                     for runs in matcher.memo.values()
                                     for recorded in runs.values()
                                     for block in recorded.report.mappings.blocks]
                for matcher in db._matchers.values()}
    assert len(cached.blocks) == len(replayed.blocks) >= 2
    for kept, again in zip(cached.blocks, replayed.blocks):
        (rows,) = memo[kept.graph]
        assert kept.rows is rows and again.rows is rows and len(rows) > 0
