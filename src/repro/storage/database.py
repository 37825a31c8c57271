"""The graph database facade.

A :class:`GraphDatabase` holds named collections (a single large graph is
a one-graph collection — the paper treats the two uniformly), resolves
``doc(name)`` for FLWR queries, caches per-graph access-method state
(matchers with their indexes and statistics), and runs GraphQL text
end-to-end.
"""

from __future__ import annotations

from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..core.algebra import matched_graphs
from ..core.bindings import Block
from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.pattern import GraphPattern, GroundPattern
from ..lang.compiler import compile_pattern_text, compile_program
from ..matching.planner import (
    GraphMatcher,
    MatchOptions,
    MatchReport,
    MemberRun,
    match_members,
)
from ..runtime import ExecutionContext
from .graphstore import GraphStore
from .serializer import load_collection
from .wal import RecoveryResult


class Answers(NamedTuple):
    """A query's answer in a shape nobody can change: the searches' own
    blocks (:class:`~repro.core.bindings.Block`), each named after its
    graph.  A named block shares its ``rows`` with the report it came
    from, so the small-member memo, the service's result cache and every
    reply hold one set of row tuples; the wire sends them as they are."""

    #: the blocks with rows, in graph order, each ``graph`` its member's
    #: name in :meth:`GraphDatabase.match`'s keys
    blocks: Tuple[Block, ...]
    #: degradation notes, each prefixed with the graph it concerns
    notes: Tuple[str, ...]


class GraphDatabase:
    """Named collections of graphs plus cached access methods."""

    #: Collections with at least this many graphs get a path index for
    #: filter+verify selection (the paper's category-1 access method).
    COLLECTION_INDEX_THRESHOLD = 32

    def __init__(self) -> None:
        self._collections: Dict[str, GraphCollection] = {}
        #: per-document count of registrations that changed the
        #: collection object (see :meth:`registration`)
        self._registrations: Dict[str, int] = {}
        self._matchers: Dict[int, GraphMatcher] = {}
        self._collection_indexes: Dict[str, "object"] = {}
        self._store: Optional[GraphStore] = None
        #: per durable document: the collection object the store last
        #: wrote, its members and their versions as written
        self._persisted: Dict[str, Tuple[GraphCollection, List[Graph],
                                         List[int]]] = {}
        #: what opening the durable store found/repaired (see
        #: :meth:`attach_durable`); ``None`` until a store is attached
        self.recovery: Optional[RecoveryResult] = None

    # -- collection management ----------------------------------------------------

    def register(self, name: str, collection: Union[GraphCollection, Graph]) -> None:
        """Register a collection (or a single large graph) under a name."""
        if isinstance(collection, Graph):
            collection = GraphCollection([collection], name=name)
        collection.name = collection.name or name
        replaced = self._collections.get(name)
        if replaced is not collection:
            self._registrations[name] = self._registrations.get(name, 0) + 1
            if replaced is not None:
                # a matcher holds its graph, statistics and indexes: drop
                # the ones only the replaced collection used, or every
                # re-register leaks a collection's worth of them
                kept = {id(graph) for graph in collection}
                for graph in replaced:
                    if id(graph) not in kept:
                        self._matchers.pop(id(graph), None)
                self._collection_indexes.pop(name, None)
        self._collections[name] = collection

    def registration(self, name: str) -> int:
        """Which collection object is registered under *name*: bumped
        whenever a registration replaces the object, unchanged by a
        re-registration of the same (possibly mutated) object — that one
        is tracked by its graphs' :attr:`Graph.version` instead.  Raises
        ``KeyError`` for an unknown document."""
        return self._registrations[name]

    def doc(self, name: str) -> GraphCollection:
        """Resolve ``doc(name)`` (FLWR data source)."""
        if name not in self._collections:
            raise KeyError(f"unknown document {name!r}")
        return self._collections[name]

    def names(self) -> list:
        """All registered document names."""
        return list(self._collections)

    def load(self, name: str, path: Union[str, Path], directed: bool = False) -> None:
        """Load a collection from a GraphQL text file."""
        self.register(name, load_collection(path, directed=directed))

    # -- the durable-mutation path ---------------------------------------------

    @property
    def durable_store(self) -> Optional[GraphStore]:
        """The attached durable store, or ``None``."""
        return self._store

    def attach_durable(self, path: Union[str, Path],
                       fsync: str = "commit") -> RecoveryResult:
        """Open a durable :class:`GraphStore` as the mutation backend.

        Opening the store is its recovery (committed frames are read, a
        torn tail is cut), then every document the store holds is
        registered — with each graph's persisted :attr:`Graph.version`
        restored, so version-keyed caches stay monotone across the
        restart.  Further :meth:`register_durable` calls write through
        the store before the in-memory registration becomes visible; a
        loaded document counts as written, so re-registering it after a
        write to one member persists that member only.
        """
        if self._store is not None:
            raise RuntimeError("a durable store is already attached")
        store = GraphStore(str(path), fsync=fsync)
        self._store = store
        self.recovery = store.recovery
        for name, collection in store.load_documents().items():
            self.register(name, collection)
            members = list(collection)
            self._persisted[name] = (collection, members,
                                     [graph.version for graph in members])
        return store.recovery

    def _changed_members(self, name: str, collection: GraphCollection,
                         members: List[Graph], versions: List[int],
                         ) -> Optional[List[Tuple[int, Graph]]]:
        """``(position, graph)`` of each of *members* whose version moved
        since the store last wrote *collection* under *name*; ``None``
        when a full snapshot is due instead (another collection object,
        other member graphs, or every member changed)."""
        written, written_members, written_versions = self._persisted.get(
            name, (None, [], []))
        if (written is not collection
                or len(written_members) != len(members)
                or any(graph is not before
                       for graph, before in zip(members, written_members))):
            return None
        changed = [(position, graph) for position, (graph, version, before)
                   in enumerate(zip(members, versions, written_versions))
                   if version != before]
        return None if len(changed) == len(members) else changed

    def register_durable(self, name: str,
                         collection: Union[GraphCollection, Graph]) -> None:
        """Persist a document through the store's log, then register it.

        The store write is one transaction: a crash leaves either the
        previous registered state or the complete new one.  Re-registering
        the collection object the store last wrote, with the same member
        graphs, writes only the members whose :attr:`Graph.version` moved
        since (member-replace records, :meth:`GraphStore.save_members`;
        nothing when none moved).  Anything else — a new collection, other
        members, every member changed — writes a full snapshot (document
        marker + every member graph).  Write-through ordering means a
        registration that returned is durable.
        """
        if self._store is None:
            raise RuntimeError(
                "no durable store attached (call attach_durable first)")
        if isinstance(collection, Graph):
            collection = GraphCollection([collection], name=name)
        members = list(collection)
        versions = [graph.version for graph in members]
        changed = self._changed_members(name, collection, members, versions)
        if changed is None:
            self._store.save_document(name, members)
        elif changed:
            self._store.save_members(name, changed)
        self._persisted[name] = (collection, members, versions)
        self.register(name, collection)

    def checkpoint(self) -> int:
        """Compact the durable store; returns the bytes freed."""
        if self._store is None:
            return 0
        return self._store.checkpoint()

    def close_store(self, checkpoint: bool = True) -> None:
        """Compact (by default) and close the durable store."""
        if self._store is None:
            return
        store, self._store = self._store, None
        self._persisted.clear()
        store.close(checkpoint=checkpoint)

    # -- access methods --------------------------------------------------------------

    def member_runs(self, document: str, grounds: Sequence[GroundPattern],
                    options: Optional[MatchOptions] = None,
                    context: Optional[ExecutionContext] = None,
                    search: bool = True) -> Iterator[MemberRun]:
        """:func:`~repro.matching.planner.match_members` over a registered
        document, with this database's cached per-graph matchers."""
        return match_members(self.doc(document), grounds, options,
                             self._matchers, context, search)

    def match(
        self,
        document: str,
        pattern: Union[GraphPattern, GroundPattern, str],
        options: Optional[MatchOptions] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, MatchReport]:
        """Match a pattern against every graph of a document.

        Returns one :class:`MatchReport` per graph (derivations merged),
        keyed by graph name (or ``#position`` when unnamed; a name an
        earlier member already holds gets ``#position`` appended until
        it is free).  Pattern text is compiled on the fly.  Once
        ``options.limit`` is filled or a shared *context* trips,
        remaining graphs are skipped; each report carries the outcome
        snapshot at the time it finished.
        """
        if isinstance(pattern, str):
            pattern = compile_pattern_text(pattern)
        reports: Dict[str, MatchReport] = {}
        merged_position = None
        for run in self.member_runs(document, pattern.ground(), options,
                                    context):
            if run.position == merged_position:
                reports[name].absorb(run.report)
                continue
            name = run.matcher.graph.name or f"#{run.position}"
            while name in reports:
                name = f"{name}#{run.position}"
            reports[name] = run.report
            merged_position = run.position
        return reports

    def execute(
        self,
        document: str,
        pattern: Union[GraphPattern, GroundPattern, str],
        options: Optional[MatchOptions] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Answers:
        """Run a pattern over a document: :meth:`match` as immutable
        :class:`Answers`, the blocks the service caches and replies with.
        Naming a block copies no row."""
        reports = self.match(document, pattern, options, context=context)
        return Answers(
            tuple(block._replace(graph=name)
                  for name, report in reports.items()
                  for block in report.mappings.blocks if block.rows),
            tuple(f"{name}: {note}" for name, report in reports.items()
                  for note in report.degradation))

    def collection_index_for(self, document: str):
        """The cached path index of a document (rebuilt when the document
        or a member graph changed).

        Only collections of at least :data:`COLLECTION_INDEX_THRESHOLD`
        graphs are indexed; smaller ones return ``None`` (scanning wins).
        """
        from ..index.path_index import PathIndex

        collection = self.doc(document)
        if len(collection) < self.COLLECTION_INDEX_THRESHOLD:
            return None
        index = self._collection_indexes.get(document)
        if (index is None or index.collection is not collection
                or index.member_versions != [g.version for g in collection]):
            index = PathIndex(collection)
            self._collection_indexes[document] = index
        return index

    def select(
        self,
        document: str,
        pattern: Union[GraphPattern, GroundPattern, str],
        exhaustive: bool = True,
        context: Optional[ExecutionContext] = None,
        grammar=None,
    ) -> GraphCollection:
        """σ_P over a document, as matched graphs; big collections are
        filtered by their path index first (filter + verify).

        The filter only narrows which members are matched: results are
        identical either way, and when the index cannot be built (e.g. a
        storage fault) every member is matched instead of failing.
        """
        if isinstance(pattern, str):
            pattern = compile_pattern_text(pattern)
        grounds = pattern.ground(grammar)
        members: Iterable[Graph] = self.doc(document)
        try:
            index = self.collection_index_for(document)
        except Exception:
            index = None
        if index is not None:
            # a member matches when any derivation does
            members = [index.collection[position] for position in sorted(
                set().union(*map(index.candidate_positions, grounds)))]
        return matched_graphs(match_members(
            members, grounds, MatchOptions(exhaustive=exhaustive),
            self._matchers, context))

    # -- full query execution ------------------------------------------------------------

    def query(
        self,
        source: str,
        env: Optional[Dict[str, Any]] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, Any]:
        """Compile and run a GraphQL program; returns the environment.

        The last statement's value is available under ``"__result__"``.
        With a *context*, an interrupted run returns the environment as
        built so far (``context.outcome()`` tells why it stopped).
        """
        compiled = compile_program(source)
        return compiled.run(self, env, context=context)
