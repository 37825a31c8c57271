"""FLWR expressions: the query syntax semantics (Section 3.4).

GraphQL adopts For / Let / Where / Return expressions.  A ``for`` clause
binds a graph pattern (or a plain variable) against a document collection;
``where`` filters bindings; ``return`` emits one instantiated template per
binding, while ``let`` *accumulates* — each binding re-instantiates the
template with the accumulator included (``graph C;``), which is how the
co-authorship query of Fig. 4.12 grows its result graph.

A :class:`Program` is a sequence of statements (assignments and FLWR
expressions) evaluated against a database that resolves ``doc(name)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Union

from ..obs.trace import span as trace_span
from ..runtime import ExecutionContext, ExecutionInterrupted
from .algebra import select
from .bindings import MatchedGraph
from .collection import GraphCollection
from .graph import Graph
from .pattern import GraphPattern
from .predicate import Expr, Scope
from .template import GraphTemplate


class DocumentSource(Protocol):
    """Anything that can resolve ``doc(name)`` to a collection and select
    from it."""

    def doc(self, name: str) -> GraphCollection:  # pragma: no cover - protocol
        ...

    def select(self, name: str, pattern: GraphPattern, exhaustive: bool = True,
               context: Optional[ExecutionContext] = None, grammar=None,
               ) -> GraphCollection:
        """σ_P over the named document.  A source that keeps access
        methods for its documents (``GraphDatabase``) overrides this."""
        return select(self.doc(name), pattern, exhaustive=exhaustive,
                      grammar=grammar, context=context)


class DictSource(DocumentSource):
    """A document source backed by a plain dict (handy in tests)."""

    def __init__(self, docs: Dict[str, GraphCollection]) -> None:
        self._docs = dict(docs)

    def doc(self, name: str) -> GraphCollection:
        """Resolve a document name (KeyError when unknown)."""
        if name not in self._docs:
            raise KeyError(f"unknown document {name!r}")
        return self._docs[name]


class ForClause:
    """``for <pattern|var> [exhaustive] in doc(source) [where ...]``."""

    def __init__(
        self,
        source: str,
        pattern: Optional[GraphPattern] = None,
        var: Optional[str] = None,
        exhaustive: bool = False,
        where: Optional[Expr] = None,
    ) -> None:
        if (pattern is None) == (var is None):
            raise ValueError("a for clause binds either a pattern or a variable")
        self.source = source
        self.pattern = pattern
        self.var = var
        self.exhaustive = exhaustive
        self.where = where

    @property
    def binding_name(self) -> str:
        """The name the clause binds for downstream template parameters."""
        if self.var is not None:
            return self.var
        assert self.pattern is not None
        if not self.pattern.name:
            raise ValueError("for-clause patterns must be named")
        return self.pattern.name

    def bindings(
        self,
        database: DocumentSource,
        env: Dict[str, Any],
        grammar=None,
        context: Optional[ExecutionContext] = None,
    ) -> List[Union[Graph, MatchedGraph]]:
        """Evaluate the clause to the list of bindings, in document order."""
        out: List[Union[Graph, MatchedGraph]] = []
        with trace_span("flwr.for", source=self.source) as sp:
            if self.pattern is not None:
                candidates = database.select(
                    self.source, self.pattern, exhaustive=self.exhaustive,
                    context=context, grammar=grammar)
            else:
                candidates = database.doc(self.source)
            for binding in candidates:
                if context is not None:
                    context.tick()
                if self.where is not None:
                    scope = Scope(
                        {self.binding_name: binding, **env}, fallback=binding
                    )
                    if not self.where.holds(scope):
                        continue
                out.append(binding)
            sp.incr("bindings", len(out))
        return out


class FLWRQuery:
    """One FLWR expression: a for clause plus a return or let clause."""

    def __init__(
        self,
        for_clause: ForClause,
        template: GraphTemplate,
        let_var: Optional[str] = None,
    ) -> None:
        self.for_clause = for_clause
        self.template = template
        self.let_var = let_var  # None => return mode

    def evaluate(
        self,
        database: DocumentSource,
        env: Optional[Dict[str, Any]] = None,
        grammar=None,
        context: Optional[ExecutionContext] = None,
    ) -> Union[GraphCollection, Graph]:
        """Evaluate against a database; returns the collection or accumulator.

        In ``let`` mode the environment entry for the accumulator is
        updated in place (so later statements see it) and the final
        accumulator graph is returned.
        """
        env = env if env is not None else {}
        name = self.for_clause.binding_name
        mode = "return" if self.let_var is None else "let"
        with trace_span("flwr.query", mode=mode) as sp:
            bindings = self.for_clause.bindings(database, env, grammar,
                                                context=context)
            if self.let_var is None:
                out = GraphCollection()
                for binding in bindings:
                    if context is not None:
                        context.tick()
                    arguments = self._arguments(env, name, binding)
                    out.add(self.template.instantiate(arguments))
                sp.incr("graphs", len(out))
                return out
            accumulator = env.get(self.let_var)
            if accumulator is None:
                accumulator = Graph(self.let_var)
            for binding in bindings:
                if context is not None:
                    context.tick()
                arguments = self._arguments(env, name, binding)
                arguments[self.let_var] = accumulator
                accumulator = self.template.instantiate(arguments)
            env[self.let_var] = accumulator
            sp.incr("graphs", 1)
        return accumulator

    def _arguments(
        self,
        env: Dict[str, Any],
        binding_name: str,
        binding: Union[Graph, MatchedGraph],
    ) -> Dict[str, Any]:
        arguments: Dict[str, Any] = {}
        for param in self.template.params:
            if param == binding_name:
                arguments[param] = binding
            elif param in env:
                arguments[param] = env[param]
        arguments.setdefault(binding_name, binding)
        return arguments


class Assignment:
    """``C := <graph literal>;`` — bind a name in the environment."""

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph

    def evaluate(self, database: DocumentSource, env: Dict[str, Any],
                 grammar=None, context: Optional[ExecutionContext] = None):
        """Bind a fresh copy so repeated runs do not share state."""
        env[self.name] = self.graph.copy(name=self.name)
        return env[self.name]


class Program:
    """A sequence of statements (assignments and FLWR expressions)."""

    def __init__(self, statements: Optional[List[Any]] = None, grammar=None) -> None:
        self.statements = list(statements) if statements else []
        self.grammar = grammar

    def add(self, statement: Any) -> None:
        """Append a statement."""
        self.statements.append(statement)

    def run(
        self,
        database: DocumentSource,
        env: Optional[Dict[str, Any]] = None,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, Any]:
        """Run all statements; returns the final environment.

        The value of the last statement is stored under ``"__result__"``.
        A governance interruption (deadline, budget, cancellation) stops
        the program: the interruption is recorded on the context and the
        environment built so far is returned — ``"__result__"`` then
        holds the last *completed* statement's value.
        """
        env = env if env is not None else {}
        result: Any = None
        with trace_span("flwr.program") as sp:
            try:
                for statement in self.statements:
                    if context is not None:
                        context.check()
                    result = statement.evaluate(database, env, self.grammar,
                                                context=context)
                    sp.incr("statements", 1)
            except ExecutionInterrupted as exc:
                if context is None:
                    raise
                context.mark_interrupted(exc)
        env["__result__"] = result
        return env
