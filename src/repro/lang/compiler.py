"""Lowering the syntactic AST to core objects.

Three compilation contexts share the same surface syntax:

* **data graphs** — constant structures with literal tuples (used by the
  storage layer and by ``C := graph {};`` assignments);
* **patterns** — graph declarations with constraints and ``where``
  predicates; named declarations are also registered as grammar motifs so
  later declarations (and recursive ones) can reference them;
* **templates** — graph declarations appearing in ``return``/``let``
  clauses, whose tuples carry *expressions* over parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..core.flwr import Assignment, FLWRQuery, ForClause, Program
from ..core.graph import Graph
from ..core.motif import (
    Disjunction,
    GraphGrammar,
    MotifBlock,
    MotifError,
    MotifExpr,
    MotifRef,
)
from ..core.pattern import GraphPattern
from ..core.predicate import Expr, Literal
from ..core.template import GraphTemplate
from ..core.tuples import AttributeTuple
from .ast import (
    AssignAst,
    BlockAst,
    EdgeDeclAst,
    ExportAst,
    FLWRAst,
    GraphDeclAst,
    GraphMemberAst,
    NestedBlocksAst,
    NodeDeclAst,
    TupleAst,
    UnifyAst,
)
from .errors import GraphQLCompileError, GraphQLSyntaxError
from .parser import parse_graph_decl, parse_program

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic


def _err(message: str, node: Any = None) -> GraphQLCompileError:
    """A compile error carrying the AST node's source position.

    *node* may be an AST dataclass (``line``/``column`` attributes), an
    expression (``pos`` tuple), or ``None`` for position-less errors.
    """
    line = column = 0
    if node is not None:
        pos = getattr(node, "pos", None)
        if pos:
            line, column = pos
        else:
            line = getattr(node, "line", 0)
            column = getattr(node, "column", 0)
    return GraphQLCompileError(message, line, column)


# --------------------------------------------------------------------------
# Data graphs
# --------------------------------------------------------------------------


def compile_graph(decl: GraphDeclAst, directed: bool = False) -> Graph:
    """Compile a constant graph declaration to a :class:`Graph`."""
    if len(decl.blocks) != 1:
        raise _err("a data graph cannot use disjunction", decl)
    if decl.where is not None:
        raise _err("a data graph cannot have a where clause", decl.where)
    graph = Graph(decl.name, _literal_tuple(decl.tuple), directed=directed)
    block = decl.blocks[0]
    for member in block.members:
        if isinstance(member, list) and member and isinstance(member[0], NodeDeclAst):
            for node_decl in member:
                if node_decl.where is not None:
                    raise _err("data nodes cannot have predicates", node_decl)
                attrs = _literal_tuple(node_decl.tuple)
                node = graph.add_node(node_decl.name, tag=attrs.tag)
                node.tuple = attrs
        elif isinstance(member, list) and member and isinstance(member[0], EdgeDeclAst):
            for edge_decl in member:
                if edge_decl.where is not None:
                    raise _err("data edges cannot have predicates", edge_decl)
                attrs = _literal_tuple(edge_decl.tuple)
                edge = graph.add_edge(
                    edge_decl.source, edge_decl.target, edge_id=edge_decl.name
                )
                edge.tuple = attrs
        else:
            raise _err(
                f"unsupported member in data graph: {type(member).__name__}",
                member[0] if isinstance(member, list) and member else member,
            )
    return graph


def _literal_tuple(tuple_ast: Optional[TupleAst]) -> AttributeTuple:
    if tuple_ast is None:
        return AttributeTuple()
    attrs: Dict[str, Any] = {}
    for name, expr in tuple_ast.entries:
        if not isinstance(expr, Literal):
            raise _err(
                f"attribute {name!r} must be a literal in this context",
                expr,
            )
        attrs[name] = expr.value
    return AttributeTuple(attrs, tag=tuple_ast.tag)


# --------------------------------------------------------------------------
# Patterns / motifs
# --------------------------------------------------------------------------


def compile_motif(decl: GraphDeclAst) -> MotifExpr:
    """Compile a graph declaration body to a motif expression."""
    blocks: List[MotifBlock] = []
    for block_ast in decl.blocks:
        compiled = _compile_block(block_ast)
        if isinstance(compiled, Disjunction):
            blocks.extend(compiled.alternatives)  # type: ignore[arg-type]
        else:
            blocks.append(compiled)
    if len(blocks) == 1:
        return blocks[0]
    return Disjunction(blocks)


def _compile_block(block_ast: BlockAst) -> MotifExpr:
    """Compile one block; anonymous nested disjunctions are *distributed*.

    ``{ A... {B1}|{B2} }`` (Fig. 4.5) means the block is either ``A+B1``
    or ``A+B2``, with one shared namespace — inner edges may reference
    outer nodes (``edge e2 (v1, v3)``) and vice versa.  Distribution makes
    that scoping exact.  Multiple anonymous members multiply out.
    """
    base = MotifBlock()
    alternative_sets: List[List[MotifBlock]] = []
    auto_node = 0
    for member in block_ast.members:
        if isinstance(member, list) and member and isinstance(member[0], NodeDeclAst):
            for node_decl in member:
                name = node_decl.name
                if name is None:
                    auto_node += 1
                    name = f"_v{auto_node}"
                tag, attrs = _constraint_tuple(node_decl.tuple)
                base.add_node(name, tag=tag, attrs=attrs, predicate=node_decl.where)
        elif isinstance(member, list) and member and isinstance(member[0], EdgeDeclAst):
            for edge_decl in member:
                tag, attrs = _constraint_tuple(edge_decl.tuple)
                base.add_edge(
                    edge_decl.source,
                    edge_decl.target,
                    name=edge_decl.name,
                    tag=tag,
                    attrs=attrs,
                    predicate=edge_decl.where,
                )
        elif isinstance(member, GraphMemberAst):
            for ref, alias in member.refs:
                base.add_member(MotifRef(ref), alias=alias or ref)
        elif isinstance(member, UnifyAst):
            if member.where is not None:
                raise _err(
                    "unify ... where is only allowed in templates", member
                )
            first = member.paths[0]
            for other in member.paths[1:]:
                base.unify(first, other)
        elif isinstance(member, ExportAst):
            base.export(member.path, member.alias)
        elif isinstance(member, NestedBlocksAst):
            alternatives: List[MotifBlock] = []
            for nested_ast in member.blocks:
                nested = _compile_block(nested_ast)
                if isinstance(nested, Disjunction):
                    alternatives.extend(nested.alternatives)  # type: ignore[arg-type]
                else:
                    alternatives.append(nested)
            alternative_sets.append(alternatives)
        else:
            raise _err(
                f"unsupported member {type(member).__name__}",
                member[0] if isinstance(member, list) and member else member,
            )
    if not alternative_sets:
        return base
    import itertools

    distributed: List[MotifBlock] = []
    for combination in itertools.product(*alternative_sets):
        merged = _merge_blocks([base, *combination])
        distributed.append(merged)
    if len(distributed) == 1:
        return distributed[0]
    return Disjunction(distributed)


def _merge_blocks(blocks: List[MotifBlock]) -> MotifBlock:
    """Concatenate block contents into one shared namespace."""
    merged = MotifBlock()
    used_edge_names: Set[str] = set()
    for block in blocks:
        for node in block.nodes:
            merged.add_node(node.name, tag=node.tag, attrs=node.attrs,
                            predicate=node.predicate)
        for edge in block.edges:
            name = edge.name
            while name in used_edge_names:
                name = name + "_"
            used_edge_names.add(name)
            merged.add_edge(edge.source, edge.target, name=name,
                            tag=edge.tag, attrs=edge.attrs,
                            predicate=edge.predicate)
        for alias, expr in block.members:
            merged.add_member(expr, alias=alias)
        for path_a, path_b in block.unifications:
            merged.unify(path_a, path_b)
        for inner, exposed in block.exports:
            merged.export(inner, exposed)
    return merged


def _constraint_tuple(
    tuple_ast: Optional[TupleAst],
) -> Tuple[Optional[str], Dict[str, Any]]:
    if tuple_ast is None:
        return None, {}
    attrs: Dict[str, Any] = {}
    for name, expr in tuple_ast.entries:
        if not isinstance(expr, Literal):
            raise _err(
                f"pattern attribute {name!r} must be a literal constraint",
                expr,
            )
        attrs[name] = expr.value
    return tuple_ast.tag, attrs


def compile_pattern(decl: GraphDeclAst) -> GraphPattern:
    """Compile a graph declaration to a :class:`GraphPattern`."""
    return GraphPattern(compile_motif(decl), where=decl.where, name=decl.name)


# --------------------------------------------------------------------------
# Anonymous-block scoping note: edges in Fig. 4.5 live *inside* the
# alternative blocks and reference the outer nodes v1/v2.  MotifBlock
# resolves edge end points within its own flattened namespace, so those
# references need the outer nodes visible inside each alternative.  The
# compiler handles this in _compile_block by exporting; references from
# inner blocks to outer nodes are resolved by *unification stubs*: the
# inner block declares a free node of the same name and the flattener
# unifies it with the outer node.
# --------------------------------------------------------------------------


# --------------------------------------------------------------------------
# Templates
# --------------------------------------------------------------------------


def compile_template(decl: GraphDeclAst) -> GraphTemplate:
    """Compile a ``return``/``let`` graph declaration to a template."""
    if len(decl.blocks) != 1:
        raise _err("templates cannot use disjunction", decl)
    if decl.where is not None:
        raise _err("templates cannot have a trailing where", decl.where)
    block = decl.blocks[0]
    attr_exprs: Dict[str, Expr] = {}
    tag = None
    if decl.tuple is not None:
        tag = decl.tuple.tag
        attr_exprs = dict(decl.tuple.entries)

    template = GraphTemplate([], name=decl.name, tag=tag, attr_exprs=attr_exprs)
    local_names: Set[str] = set()
    roots: Set[str] = set()

    def note_expr(expr: Optional[Expr]) -> None:
        if expr is not None:
            roots.update(expr.root_names())

    for member in block.members:
        if isinstance(member, GraphMemberAst):
            for ref, alias in member.refs:
                if alias is not None:
                    raise _err(
                        "template graph members cannot be aliased", member
                    )
                template.include_graph(ref)
                roots.add(ref)
        elif isinstance(member, list) and member and isinstance(member[0], NodeDeclAst):
            for node_decl in member:
                if node_decl.where is not None:
                    raise _err("template nodes cannot have where", node_decl)
                if node_decl.name and "." in node_decl.name and node_decl.tuple is None:
                    template.add_copied_node(node_decl.name)
                    roots.add(node_decl.name.split(".")[0])
                    local_names.add(node_decl.name)
                else:
                    if node_decl.name is None:
                        raise _err("template nodes must be named", node_decl)
                    entries = dict(node_decl.tuple.entries) if node_decl.tuple else {}
                    for expr in entries.values():
                        note_expr(expr)
                    template.add_node(
                        node_decl.name,
                        tag=node_decl.tuple.tag if node_decl.tuple else None,
                        attr_exprs=entries,
                    )
                    local_names.add(node_decl.name)
        elif isinstance(member, list) and member and isinstance(member[0], EdgeDeclAst):
            for edge_decl in member:
                if edge_decl.where is not None:
                    raise _err("template edges cannot have where", edge_decl)
                entries = dict(edge_decl.tuple.entries) if edge_decl.tuple else {}
                for expr in entries.values():
                    note_expr(expr)
                template.add_edge(
                    edge_decl.source,
                    edge_decl.target,
                    name=edge_decl.name,
                    tag=edge_decl.tuple.tag if edge_decl.tuple else None,
                    attr_exprs=entries,
                )
        elif isinstance(member, UnifyAst):
            note_expr(member.where)
            for path in member.paths:
                root = path.split(".")[0]
                if path not in local_names and root not in local_names:
                    roots.add(root)
            template.unify(*member.paths, where=member.where)
        else:
            raise _err(
                f"unsupported template member {type(member).__name__}",
                member[0] if isinstance(member, list) and member else member,
            )

    template.params = sorted(roots - local_names)
    return template


# --------------------------------------------------------------------------
# Programs
# --------------------------------------------------------------------------


class CompiledProgram:
    """The result of compiling a source file.

    Exposes the runnable :class:`~repro.core.flwr.Program`, the named
    patterns and the motif grammar (for recursive references).
    """

    def __init__(self) -> None:
        self.program = Program()
        self.patterns: Dict[str, GraphPattern] = {}
        self.grammar = GraphGrammar()
        self.program.grammar = self.grammar

    def run(self, database: Any, env: Optional[Dict[str, Any]] = None,
            context: Any = None) -> Dict[str, Any]:
        """Run the program against a document source.

        *context* optionally governs the run (deadline, budgets,
        cancellation); see :class:`repro.runtime.ExecutionContext`.
        """
        return self.program.run(database, env, context=context)


def _raise_on_analysis_errors(diagnostics: Any) -> None:
    """Turn the first error-severity diagnostic into a compile error."""
    from ..analysis.diagnostics import errors_only

    errors = errors_only(diagnostics)
    if errors:
        first = errors[0]
        span = first.span
        raise GraphQLCompileError(
            f"{first.code}: {first.message}",
            span.line if span else 0,
            span.column if span else 0,
        )


def compile_program(source: Any, check: bool = True) -> CompiledProgram:
    """Compile GraphQL source text (or a parsed AST) to a runnable program.

    With ``check`` (the default) the semantic analyzer runs first and any
    error-severity diagnostic — unbound variable, unsatisfiable template
    parameter, anonymous for-pattern — raises
    :class:`GraphQLCompileError` before lowering begins.  Warnings and
    hints never block compilation; ``repro-gql check`` surfaces those.
    """
    ast = parse_program(source) if isinstance(source, str) else source
    if check:
        from ..analysis.analyzer import analyze_program

        _raise_on_analysis_errors(analyze_program(ast))
    compiled = CompiledProgram()
    for statement in ast.statements:
        if isinstance(statement, GraphDeclAst):
            pattern = compile_pattern(statement)
            if statement.name:
                compiled.patterns[statement.name] = pattern
                compiled.grammar.define(statement.name, pattern.motif)
        elif isinstance(statement, AssignAst):
            graph = compile_graph(statement.value)
            graph.name = statement.name
            compiled.program.add(Assignment(statement.name, graph))
        elif isinstance(statement, FLWRAst):
            compiled.program.add(_compile_flwr(statement, compiled))
        else:
            raise _err(
                f"unsupported statement {type(statement).__name__}", statement
            )
    return compiled


def _compile_flwr(ast: FLWRAst, compiled: CompiledProgram) -> FLWRQuery:
    if ast.pattern is not None:
        pattern = compile_pattern(ast.pattern)
        if pattern.name:
            compiled.patterns[pattern.name] = pattern
            compiled.grammar.define(pattern.name, pattern.motif)
        clause = ForClause(
            ast.source,
            pattern=pattern,
            exhaustive=ast.exhaustive,
            where=ast.where,
        )
    else:
        name = ast.binding_name
        assert name is not None
        if name in compiled.patterns:
            clause = ForClause(
                ast.source,
                pattern=compiled.patterns[name],
                exhaustive=ast.exhaustive,
                where=ast.where,
            )
        else:
            clause = ForClause(
                ast.source,
                var=name,
                exhaustive=ast.exhaustive,
                where=ast.where,
            )
    template = compile_template(ast.template)
    return FLWRQuery(clause, template, let_var=ast.let_var)


def compile_graph_text(text: str, directed: bool = False) -> Graph:
    """Parse and compile one constant graph declaration."""
    return compile_graph(parse_graph_decl(text), directed=directed)


def compile_pattern_text(text: str, check: bool = True) -> GraphPattern:
    """Parse and compile one graph pattern declaration.

    With ``check`` (the default) error-severity analyzer findings raise
    :class:`GraphQLCompileError` before compilation, mirroring
    :func:`compile_program`.
    """
    decl = parse_graph_decl(text)
    if check:
        from ..analysis.analyzer import analyze_pattern

        _raise_on_analysis_errors(analyze_pattern(decl))
    return compile_pattern(decl)


def prepare_pattern_text(
    text: str,
) -> Tuple[List[Diagnostic], Optional[GraphPattern]]:
    """Query text to ``(error diagnostics, compiled pattern)``.

    The one admission-time preparation of a served query: parsed once,
    analyzed once, and compiled and grounded only when the analyzer
    found no error-severity finding (the grounds are cached on the
    pattern, so the run reuses them).  Never raises on bad text: a
    syntax error is the single ``GQL000`` diagnostic, a construct the
    analyzer passes but the compiler or the grounding refuses the single
    ``GQL012``.  Exactly one of the two results is empty.
    """
    from ..analysis.analyzer import analyze_pattern, error_diagnostic
    from ..analysis.diagnostics import errors_only

    try:
        decl = parse_graph_decl(text)
    except GraphQLSyntaxError as exc:
        return [error_diagnostic(exc)], None
    errors = errors_only(analyze_pattern(decl))
    if errors:
        return errors, None
    try:
        pattern = compile_pattern(decl)
        pattern.ground()
    except (GraphQLCompileError, MotifError) as exc:
        return [error_diagnostic(exc, "GQL012")], None
    return [], pattern
