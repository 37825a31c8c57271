"""The query semantic analyzer: static checks over the GraphQL AST.

Because FLWR expressions over graph patterns compile to an algebra, a
whole class of failures is decidable before any worker runs the query.
This module walks the syntactic AST (:mod:`repro.lang.ast`) and reports
:class:`~repro.analysis.diagnostics.Diagnostic` findings:

Scope checks
    ``GQL001`` (error) — a dotted reference whose root is not bound by
    any pattern element, member alias, export, FLWR binding or earlier
    statement; also template parameters no environment name satisfies
    (a guaranteed runtime failure) and anonymous for-clause patterns.
    ``GQL002`` (warning) — a binding shadowing an earlier one that was
    already used.  ``GQL003`` (hint) — a binding shadowed before it was
    ever used (dead).

Schema-aware checks (optional :class:`CollectionSchema`)
    ``GQL004`` (warning) — an attribute name no graph in the collection
    carries.  ``GQL005`` (warning) — a tuple tag or ``label`` value the
    collection never uses.  ``GQL006`` (warning) — a comparison whose
    two sides cannot have the same type (string vs number).

Predicate analysis
    ``GQL007`` (warning) — a constant conjunct that folds to false (the
    whole conjunction can never hold).  ``GQL008`` (hint) — a constant
    conjunct that folds to true (redundant).  ``GQL011`` (warning) — a
    set of range conjuncts over one attribute with an empty solution
    (``x > 5 & x < 3``).

Plan lints
    ``GQL009`` (warning) — a pattern whose elements form two or more
    disconnected components with no cross predicate: the match is a
    cartesian product.

Severity semantics follow the data model: missing attributes make
comparisons *false*, not errors, so "unknown attribute" is a warning
(legal, surely a bug) while "unbound variable" — a name that can never
resolve through any scope — is an error.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.predicate import (
    COMPARISON_OPS,
    MISSING,
    AttrRef,
    BinOp,
    Expr,
    Literal,
    Not,
    Scope,
)
from ..lang.ast import (
    AssignAst,
    BlockAst,
    EdgeDeclAst,
    ExportAst,
    FLWRAst,
    GraphDeclAst,
    GraphMemberAst,
    NestedBlocksAst,
    NodeDeclAst,
    ProgramAst,
    TupleAst,
    UnifyAst,
)
from ..lang.errors import GraphQLSyntaxError
from ..lang.parser import parse_graph_decl, parse_program
from .diagnostics import Diagnostic, Severity, Span, sort_diagnostics
from .schema import CollectionSchema, type_bucket

#: Every code the analyzer can emit, with its fixed severity and a
#: short title (the docs catalog and the golden tests read this).
CODES: Dict[str, Tuple[Severity, str]] = {
    "GQL000": (Severity.ERROR, "syntax error"),
    "GQL001": (Severity.ERROR, "unbound variable reference"),
    "GQL002": (Severity.WARNING, "binding shadows an earlier one"),
    "GQL003": (Severity.HINT, "dead binding (shadowed before use)"),
    "GQL004": (Severity.WARNING, "unknown attribute for this collection"),
    "GQL005": (Severity.WARNING, "unknown tag or label for this collection"),
    "GQL006": (Severity.WARNING, "type-confused comparison"),
    "GQL007": (Severity.WARNING, "conjunct is always false"),
    "GQL008": (Severity.HINT, "conjunct is always true"),
    "GQL009": (Severity.WARNING, "disconnected pattern (cartesian product)"),
    "GQL011": (Severity.WARNING, "empty value range"),
    # not an analyzer finding: what prepare_pattern_text reports when a
    # text the analyzer passed is refused by the compiler
    "GQL012": (Severity.ERROR, "construct the compiler refuses"),
}


def _span_of(node: Any) -> Optional[Span]:
    """The span of an AST node or expression, if it carries one."""
    if node is None:
        return None
    pos = getattr(node, "pos", None)
    if pos:
        return Span(pos[0], pos[1])
    line = getattr(node, "line", 0)
    if line:
        return Span(line, getattr(node, "column", 0))
    return None


def _walk_exprs(expr: Optional[Expr]) -> Iterator[Expr]:
    """Every sub-expression of *expr*, pre-order."""
    if expr is None:
        return
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Not):
            stack.append(node.operand)


def _attr_refs(expr: Optional[Expr]) -> Iterator[AttrRef]:
    for node in _walk_exprs(expr):
        if isinstance(node, AttrRef):
            yield node


def _is_constant(expr: Expr) -> bool:
    """Whether *expr* references no attributes (foldable)."""
    return not any(True for _ in _attr_refs(expr))


_EMPTY_SCOPE = Scope()


def _fold(expr: Expr) -> Any:
    """Evaluate a constant expression; MISSING on any failure."""
    try:
        return expr.evaluate(_EMPTY_SCOPE)
    except Exception:  # pragma: no cover - defensive, folding never raises
        return MISSING


class _DeclNames:
    """Every name one graph declaration binds, across all its blocks."""

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self.edges: Set[str] = set()
        self.members: Set[str] = set()
        self.exports: Set[str] = set()

    @property
    def all(self) -> Set[str]:
        return self.nodes | self.edges | self.members | self.exports


def _iter_blocks(decl: GraphDeclAst) -> Iterator[BlockAst]:
    """Every block of a declaration, nested disjunctions included."""
    stack: List[BlockAst] = list(decl.blocks)
    while stack:
        block = stack.pop()
        yield block
        for member in block.members:
            if isinstance(member, NestedBlocksAst):
                stack.extend(member.blocks)


def _decl_names(decl: GraphDeclAst) -> _DeclNames:
    names = _DeclNames()
    for block in _iter_blocks(decl):
        for member in block.members:
            if isinstance(member, list) and member:
                if isinstance(member[0], NodeDeclAst):
                    for node in member:
                        if node.name:
                            names.nodes.add(node.name)
                            names.nodes.add(node.name.split(".")[0])
                elif isinstance(member[0], EdgeDeclAst):
                    for edge in member:
                        if edge.name:
                            names.edges.add(edge.name)
            elif isinstance(member, GraphMemberAst):
                for ref, alias in member.refs:
                    names.members.add(alias or ref)
            elif isinstance(member, ExportAst):
                names.exports.add(member.alias)
    return names


class Analyzer:
    """Accumulates diagnostics over one program or pattern."""

    def __init__(self, schema: Optional[CollectionSchema] = None) -> None:
        self.schema = schema if schema is not None and schema.graphs else None
        self.diagnostics: List[Diagnostic] = []

    # -- emission -------------------------------------------------------------

    def emit(self, code: str, message: str, node: Any = None) -> None:
        severity, _title = CODES[code]
        self.diagnostics.append(
            Diagnostic(code, severity, message, _span_of(node)))

    # -- programs -------------------------------------------------------------

    def program(self, ast: ProgramAst) -> List[Diagnostic]:
        """Analyze a whole source file."""
        # pass 1: collect pattern names — motif references may point
        # forward, the grammar is only consulted at ground time
        pattern_names: Set[str] = {
            statement.name
            for statement in ast.statements
            if isinstance(statement, GraphDeclAst) and statement.name
        }
        #: name -> (kind, definition node, used?)
        defs: Dict[str, List[Any]] = {}

        def define(name: str, kind: str, node: Any) -> None:
            previous = defs.get(name)
            if previous is not None:
                if previous[2]:
                    self.emit(
                        "GQL002",
                        f"{kind} {name!r} shadows the {previous[0]} "
                        f"defined earlier",
                        node,
                    )
                else:
                    self.emit(
                        "GQL003",
                        f"{previous[0]} {name!r} is never used before "
                        f"being shadowed",
                        previous[1],
                    )
            defs[name] = [kind, node, False]

        def use(name: str) -> None:
            if name in defs:
                defs[name][2] = True

        pattern_decls: Dict[str, GraphDeclAst] = {
            statement.name: statement
            for statement in ast.statements
            if isinstance(statement, GraphDeclAst) and statement.name
        }
        env: Set[str] = set()
        for statement in ast.statements:
            if isinstance(statement, GraphDeclAst):
                self.pattern(statement, env=env | pattern_names,
                             on_use=use)
                if statement.name:
                    define(statement.name, "pattern", statement)
                    env.add(statement.name)
            elif isinstance(statement, AssignAst):
                define(statement.name, "assignment", statement)
                env.add(statement.name)
            elif isinstance(statement, FLWRAst):
                self._flwr(statement, env, pattern_names, pattern_decls, use)
                if statement.let_var:
                    define(statement.let_var, "let variable", statement)
                    env.add(statement.let_var)
        return self.result()

    def _flwr(self, ast: FLWRAst, env: Set[str], pattern_names: Set[str],
              pattern_decls: Dict[str, GraphDeclAst],
              use: Callable[[str], None]) -> None:
        binding: Optional[str] = None
        pattern_decl: Optional[GraphDeclAst] = None
        pattern_mode = False
        if ast.pattern is not None:
            pattern_decl = ast.pattern
            pattern_mode = True
            if not ast.pattern.name:
                self.emit("GQL001",
                          "for-clause patterns must be named (the name is "
                          "the binding downstream clauses reference)",
                          ast)
            else:
                binding = ast.pattern.name
            self.pattern(ast.pattern, env=env | pattern_names, on_use=use)
        else:
            binding = ast.binding_name
            if binding in env or binding in pattern_names:
                pattern_mode = True
                pattern_decl = pattern_decls.get(binding or "")
                use(binding)

        bound = set(env) | ({binding} if binding else set())
        element_names: Set[str] = set()
        if pattern_mode and pattern_decl is not None:
            element_names = _decl_names(pattern_decl).all
        # in pattern mode the where clause resolves through the matched
        # graph: pattern elements are visible.  In plain-variable mode
        # the binding is a whole data graph — roots are data node ids
        # the analyzer cannot know, so scope checking is skipped.
        if ast.where is not None and pattern_mode:
            self._expr_scope(ast.where, bound | element_names, use)
            self._predicates(ast.where, context="flwr")
        # the template's free roots are its parameters; each must be
        # satisfiable by the environment or the for-binding, otherwise
        # instantiation fails at run time
        self._template(ast.template, bound | element_names, use)

    def _template(self, decl: GraphDeclAst, avail: Set[str],
                  use: Callable[[str], None]) -> None:
        if len(decl.blocks) != 1:
            return  # the compiler rejects disjunction templates
        block = decl.blocks[0]
        local_names: Set[str] = set()
        free: List[Tuple[str, Any]] = []  # (root, node to blame)

        def note_expr(expr: Optional[Expr]) -> None:
            for ref in _attr_refs(expr):
                free.append((ref.path[0], ref))

        if decl.tuple is not None:
            for _name, expr in decl.tuple.entries:
                note_expr(expr)
        for member in block.members:
            if isinstance(member, GraphMemberAst):
                for ref, _alias in member.refs:
                    free.append((ref, member))
            elif isinstance(member, list) and member \
                    and isinstance(member[0], NodeDeclAst):
                for node in member:
                    if node.name and "." in node.name and node.tuple is None:
                        free.append((node.name.split(".")[0], node))
                        local_names.add(node.name)
                    elif node.name:
                        for _n, expr in (node.tuple.entries
                                         if node.tuple else []):
                            note_expr(expr)
                        local_names.add(node.name)
            elif isinstance(member, list) and member \
                    and isinstance(member[0], EdgeDeclAst):
                for edge in member:
                    for _n, expr in (edge.tuple.entries
                                     if edge.tuple else []):
                        note_expr(expr)
            elif isinstance(member, UnifyAst):
                note_expr(member.where)
                for path in member.paths:
                    root = path.split(".")[0]
                    if path not in local_names and root not in local_names:
                        free.append((root, member))
        for root, node in free:
            if root in local_names:
                continue
            if root in avail:
                use(root)
                continue
            self.emit("GQL001",
                      f"template parameter {root!r} is not bound by the "
                      f"for clause or any earlier statement",
                      node)

    # -- patterns -------------------------------------------------------------

    def pattern(self, decl: GraphDeclAst,
                env: Iterable[str] = (),
                on_use: Optional[Callable[[str], None]] = None,
                standalone: bool = False) -> List[Diagnostic]:
        """Analyze one graph pattern declaration.

        *env* holds externally bound names (earlier statements, the
        grammar); *standalone* means the pattern is compiled on its own
        (the service path), where member references cannot resolve
        against anything but the pattern itself.
        """
        use = on_use if on_use is not None else (lambda name: None)
        env_names = set(env)
        names = _decl_names(decl)
        bound = names.all | env_names
        if decl.name:
            bound.add(decl.name)

        # member references must name a known pattern (or, standalone,
        # the pattern itself for recursion)
        for block in _iter_blocks(decl):
            for member in block.members:
                if isinstance(member, GraphMemberAst):
                    for ref, _alias in member.refs:
                        if ref == decl.name or ref in env_names:
                            use(ref)
                        elif standalone:
                            # program-mode refs may be supplied by a
                            # grammar at ground time; a standalone
                            # pattern (the service path) never gets one
                            self.emit(
                                "GQL001",
                                f"graph member {ref!r} references no "
                                f"known pattern or binding",
                                member)
                elif isinstance(member, UnifyAst):
                    for path in member.paths:
                        root = path.split(".")[0]
                        if root not in bound:
                            self.emit(
                                "GQL001",
                                f"unify path {path!r} starts at unbound "
                                f"name {root!r}",
                                member)
                elif isinstance(member, ExportAst):
                    root = member.path.split(".")[0]
                    if root not in bound:
                        self.emit(
                            "GQL001",
                            f"export path {member.path!r} starts at "
                            f"unbound name {root!r}",
                            member)
                elif isinstance(member, list) and member \
                        and isinstance(member[0], EdgeDeclAst):
                    # a simple end point names a node of the pattern
                    for edge in member:
                        for end in (edge.source, edge.target):
                            if end and "." not in end \
                                    and end not in names.nodes:
                                self.emit(
                                    "GQL001",
                                    f"edge {edge.name or '<anon>'!r} end "
                                    f"point {end!r} names no declared node",
                                    edge)

        # graph-level where: resolved against the matched graph —
        # pattern elements, members, exports and the pattern name
        if decl.where is not None:
            self._expr_scope(decl.where, bound, use)
            self._predicates(decl.where, context="graph")
            self._schema_predicates(decl.where, names, context="graph")

        # node/edge-level checks
        for block in _iter_blocks(decl):
            for member in block.members:
                if isinstance(member, list) and member \
                        and isinstance(member[0], NodeDeclAst):
                    for node in member:
                        self._element(node, names, kind="node")
                elif isinstance(member, list) and member \
                        and isinstance(member[0], EdgeDeclAst):
                    for edge in member:
                        self._element(edge, names, kind="edge")

        self._connectivity(decl, names)
        return self.result()

    def _element(self, decl: Any, names: _DeclNames, kind: str) -> None:
        """Checks local to one node/edge declarator."""
        self._tuple_schema(decl.tuple, kind)
        if decl.where is None:
            return
        own = {decl.name, (decl.name or "").split(".")[0]} - {None, ""}
        # element-level predicates resolve bare names against the
        # element's own tuple; a dotted root naming anything else can
        # never resolve (the scope holds only the element itself)
        for ref in _attr_refs(decl.where):
            if len(ref.path) > 1 and ref.path[0] not in own:
                self.emit(
                    "GQL001",
                    f"{kind}-level predicate references {ref.path[0]!r}, "
                    f"but only the {kind}'s own attributes are in scope "
                    f"here (move the conjunct to the graph-level where)",
                    ref)
        self._predicates(decl.where, context=kind)
        self._schema_element_where(decl.where, kind)

    # -- scope ----------------------------------------------------------------

    def _expr_scope(self, expr: Expr, bound: Set[str],
                    use: Callable[[str], None]) -> None:
        """GQL001 for dotted roots that no binding can resolve.

        Bare single-segment roots fall back to graph/element attribute
        lookups at run time, so only dotted paths are errors.
        """
        for ref in _attr_refs(expr):
            root = ref.path[0]
            if root in bound:
                use(root)
            elif len(ref.path) > 1:
                self.emit(
                    "GQL001",
                    f"unbound variable {root!r} in {'.'.join(ref.path)!r}",
                    ref)

    # -- predicates -----------------------------------------------------------

    def _predicates(self, where: Expr, context: str) -> None:
        """Constant folding (GQL007/GQL008) and range analysis (GQL011)."""
        conjuncts = where.conjuncts()
        for conjunct in conjuncts:
            if _is_constant(conjunct):
                value = _fold(conjunct)
                truth = bool(value) and value is not MISSING
                if truth:
                    self.emit(
                        "GQL008",
                        f"constant conjunct {conjunct.to_graphql()} is "
                        f"always true (redundant)",
                        conjunct)
                else:
                    self.emit(
                        "GQL007",
                        f"constant conjunct {conjunct.to_graphql()} is "
                        f"always false — the {context} predicate can "
                        f"never hold",
                        conjunct)
        self._ranges(conjuncts, where)

    def _ranges(self, conjuncts: List[Expr], where: Expr) -> None:
        """GQL011: per-attribute interval analysis over one conjunction."""
        bounds: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        for conjunct in conjuncts:
            shaped = _attr_vs_literal(conjunct)
            if shaped is None:
                continue
            path, op, value = shaped
            state = bounds.setdefault(
                path, {"lo": None, "hi": None, "eq": set(), "expr": conjunct})
            if op == "==":
                state["eq"].add(value)
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                if op in (">", ">="):
                    current = state["lo"]
                    candidate = (value, op == ">=")
                    if current is None or candidate[0] > current[0] or (
                            candidate[0] == current[0] and not candidate[1]):
                        state["lo"] = candidate
                elif op in ("<", "<="):
                    current = state["hi"]
                    candidate = (value, op == "<=")
                    if current is None or candidate[0] < current[0] or (
                            candidate[0] == current[0] and not candidate[1]):
                        state["hi"] = candidate
        for path, state in bounds.items():
            name = ".".join(path)
            empty = None
            if len(state["eq"]) > 1:
                empty = (f"{name} is pinned to "
                         f"{len(state['eq'])} different constants")
            lo, hi = state["lo"], state["hi"]
            if empty is None and lo is not None and hi is not None:
                lo_v, lo_inc = lo
                hi_v, hi_inc = hi
                if lo_v > hi_v or (lo_v == hi_v and not (lo_inc and hi_inc)):
                    empty = (f"{name} is bounded to the empty range "
                             f"({'>=' if lo_inc else '>'}{lo_v!r} and "
                             f"{'<=' if hi_inc else '<'}{hi_v!r})")
            if empty is None and len(state["eq"]) == 1 and (
                    lo is not None or hi is not None):
                (pin,) = state["eq"]
                if isinstance(pin, (int, float)) \
                        and not isinstance(pin, bool):
                    if lo is not None and (
                            pin < lo[0] or (pin == lo[0] and not lo[1])):
                        empty = (f"{name} == {pin!r} contradicts its "
                                 f"lower bound")
                    if hi is not None and (
                            pin > hi[0] or (pin == hi[0] and not hi[1])):
                        empty = (f"{name} == {pin!r} contradicts its "
                                 f"upper bound")
            if empty is not None:
                self.emit("GQL011",
                          f"empty value range: {empty} — no graph can "
                          f"satisfy this conjunction",
                          state["expr"])

    # -- schema checks --------------------------------------------------------

    def _tuple_schema(self, tuple_ast: Optional[TupleAst], kind: str) -> None:
        if tuple_ast is None or self.schema is None:
            return
        tags = (self.schema.node_tags if kind == "node"
                else self.schema.edge_tags)
        attrs = (self.schema.node_attrs if kind == "node"
                 else self.schema.edge_attrs)
        if tuple_ast.tag is not None and tags and tuple_ast.tag not in tags:
            self.emit("GQL005",
                      f"no {kind} in the collection has tag "
                      f"{tuple_ast.tag!r} (known: {_sample(tags)})",
                      tuple_ast)
        for name, expr in tuple_ast.entries:
            if attrs and name not in attrs:
                self.emit("GQL004",
                          f"no {kind} in the collection has attribute "
                          f"{name!r} (known: {_sample(attrs)})",
                          expr if expr.pos else tuple_ast)
            elif name == "label" and isinstance(expr, Literal) \
                    and isinstance(expr.value, str) and self.schema.labels \
                    and expr.value not in self.schema.labels:
                self.emit("GQL005",
                          f"label {expr.value!r} never occurs in the "
                          f"collection",
                          expr)

    def _schema_element_where(self, where: Expr, kind: str) -> None:
        """GQL004/005/006 for element-local predicates."""
        if self.schema is None:
            return
        attrs = (self.schema.node_attrs if kind == "node"
                 else self.schema.edge_attrs)
        for conjunct in where.conjuncts():
            shaped = _attr_vs_literal(conjunct)
            if shaped is None:
                continue
            path, op, value = shaped
            attr = path[-1]
            if len(path) > 1 and path[0] not in attrs and attr == path[0]:
                continue  # foreign root, already a GQL001
            self._check_attr(attr, op, value, attrs, conjunct)

    def _schema_predicates(self, where: Expr, names: _DeclNames,
                           context: str) -> None:
        """GQL004/005/006 for graph-level predicates with resolvable
        element roots (``v1.year > 2000`` => ``year`` on nodes)."""
        if self.schema is None:
            return
        for conjunct in where.conjuncts():
            shaped = _attr_vs_literal(conjunct)
            if shaped is None:
                continue
            path, op, value = shaped
            attr = path[-1]
            if len(path) < 2:
                continue  # bare graph-attribute fallback: unknowable
            root = path[0]
            if root in names.nodes or (len(path) > 2
                                       and path[-2] in names.nodes):
                self._check_attr(attr, op, value,
                                 self.schema.node_attrs, conjunct)
            elif root in names.edges:
                self._check_attr(attr, op, value,
                                 self.schema.edge_attrs, conjunct)
            elif len(path) > 2:
                # P.v1.name / X.v.name — the middle segment is a node
                # of a referenced pattern; node attributes apply
                self._check_attr(attr, op, value,
                                 self.schema.node_attrs, conjunct)

    def _check_attr(self, attr: str, op: str, value: Any,
                    attrs: Dict[str, Set[str]], conjunct: Expr) -> None:
        assert self.schema is not None
        if attrs and attr not in attrs:
            self.emit("GQL004",
                      f"no element in the collection has attribute "
                      f"{attr!r} (known: {_sample(attrs)}) — the "
                      f"comparison is always false",
                      conjunct)
            return
        if attr == "label" and op == "==" and isinstance(value, str) \
                and self.schema.labels and value not in self.schema.labels:
            self.emit("GQL005",
                      f"label {value!r} never occurs in the collection",
                      conjunct)
            return
        buckets = attrs.get(attr, set())
        if buckets and type_bucket(value) not in buckets \
                and type_bucket(value) != "other":
            self.emit("GQL006",
                      f"attribute {attr!r} holds "
                      f"{_render_buckets(buckets)} values but is compared "
                      f"{op} {value!r} ({type_bucket(value)}) — the "
                      f"comparison is always false",
                      conjunct)

    # -- plan lints -----------------------------------------------------------

    def _connectivity(self, decl: GraphDeclAst, names: _DeclNames) -> None:
        """GQL009: union-find over pattern elements.

        Components are joined by edges, unifications and graph-level
        conjuncts referencing elements of two components (join
        predicates).  Two or more surviving components mean the match
        enumerates their cross product.
        """
        parents: Dict[str, str] = {}

        def find(name: str) -> str:
            parents.setdefault(name, name)
            while parents[name] != name:
                parents[name] = parents[parents[name]]
                name = parents[name]
            return name

        def union(a: str, b: str) -> None:
            parents[find(a)] = find(b)

        elements = set(names.nodes) | set(names.members)
        if len(elements) < 2:
            return
        for name in elements:
            find(name)

        def root_of(path: str) -> str:
            return path.split(".")[0]

        for block in _iter_blocks(decl):
            for member in block.members:
                if isinstance(member, list) and member \
                        and isinstance(member[0], EdgeDeclAst):
                    for edge in member:
                        src, dst = root_of(edge.source), root_of(edge.target)
                        if src in elements and dst in elements:
                            union(src, dst)
                        if edge.name:
                            # the edge itself joins its end points'
                            # component for predicate purposes
                            parents.setdefault(edge.name, find(src)
                                               if src in elements
                                               else edge.name)
                elif isinstance(member, UnifyAst):
                    anchors = [root_of(p) for p in member.paths
                               if root_of(p) in elements]
                    for other in anchors[1:]:
                        union(anchors[0], other)
        if decl.where is not None:
            for conjunct in decl.where.conjuncts():
                touched = {root for root in conjunct.root_names()
                           if root in elements}
                touched |= {p[1] for p in
                            (ref.path for ref in _attr_refs(conjunct))
                            if len(p) > 1 and p[0] == decl.name
                            and p[1] in elements}
                touched = list(touched)
                for other in touched[1:]:
                    union(touched[0], other)
        components: Dict[str, List[str]] = {}
        for name in sorted(elements):
            components.setdefault(find(name), []).append(name)
        if len(components) > 1:
            rendered = "; ".join(
                "{" + ", ".join(group) + "}"
                for group in sorted(components.values()))
            self.emit("GQL009",
                      f"pattern falls into {len(components)} disconnected "
                      f"component(s) {rendered} — matching enumerates "
                      f"their cartesian product; connect them with an "
                      f"edge, a unify, or a cross predicate",
                      decl)

    # -- results --------------------------------------------------------------

    def result(self) -> List[Diagnostic]:
        """The accumulated findings, sorted and de-duplicated."""
        seen: Set[Tuple[str, str, Optional[Span]]] = set()
        unique: List[Diagnostic] = []
        for diag in self.diagnostics:
            key = (diag.code, diag.message, diag.span)
            if key not in seen:
                seen.add(key)
                unique.append(diag)
        return sort_diagnostics(unique)


def _attr_vs_literal(
    conjunct: Expr,
) -> Optional[Tuple[Tuple[str, ...], str, Any]]:
    """Decompose ``attr OP literal`` (either side); None otherwise."""
    if not isinstance(conjunct, BinOp) or conjunct.op not in COMPARISON_OPS:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, AttrRef) and isinstance(right, Literal):
        return left.path, conjunct.op, right.value
    if isinstance(left, Literal) and isinstance(right, AttrRef):
        flipped = {">": "<", "<": ">", ">=": "<=", "<=": ">="}
        return (right.path,
                flipped.get(conjunct.op, conjunct.op),
                left.value)
    return None


def _sample(names: Iterable[str], cap: int = 6) -> str:
    ordered = sorted(names)
    listed = ", ".join(ordered[:cap])
    return listed + (", ..." if len(ordered) > cap else "")


def _render_buckets(buckets: Set[str]) -> str:
    return "/".join(sorted(buckets))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def analyze_program(
    ast: ProgramAst,
    schema: Optional[CollectionSchema] = None,
) -> List[Diagnostic]:
    """Analyze a parsed program."""
    return Analyzer(schema).program(ast)


def analyze_pattern(
    decl: GraphDeclAst,
    schema: Optional[CollectionSchema] = None,
    env: Iterable[str] = (),
    standalone: bool = True,
) -> List[Diagnostic]:
    """Analyze a single parsed pattern declaration."""
    return Analyzer(schema).pattern(decl, env=env, standalone=standalone)


def analyze_text(
    text: str,
    schema: Optional[CollectionSchema] = None,
) -> List[Diagnostic]:
    """Analyze program source text (syntax errors become GQL000)."""
    try:
        ast = parse_program(text)
    except GraphQLSyntaxError as exc:
        return [error_diagnostic(exc)]
    return analyze_program(ast, schema)


def analyze_pattern_text(
    text: str,
    schema: Optional[CollectionSchema] = None,
) -> List[Diagnostic]:
    """Analyze one pattern declaration's source text (the service's
    admission-time validation: mirrors ``compile_pattern_text``)."""
    try:
        decl = parse_graph_decl(text)
    except GraphQLSyntaxError as exc:
        return [error_diagnostic(exc)]
    return analyze_pattern(decl, schema, standalone=True)


def error_diagnostic(exc: Exception, code: str = "GQL000") -> Diagnostic:
    """A front-end exception as an error diagnostic at its position (a
    grounding error carries none)."""
    line = getattr(exc, "line", None)
    span = Span(line, exc.column) if line else None
    return Diagnostic(code, Severity.ERROR, str(exc), span)
