"""Text serialization of graphs and collections in GraphQL syntax.

Graphs round-trip through the language's own concrete syntax (the same
declarations the parser reads), so a saved database is also a readable
GraphQL document.  Collections are stored as a sequence of graph
declarations in one file.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, List, Union

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.tuples import AttributeTuple
from ..lang.compiler import compile_graph
from ..lang.parser import parse_program
from ..lang.ast import GraphDeclAst


def _format_value(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value)


def _format_tuple(attrs: AttributeTuple) -> str:
    if attrs.tag is None and len(attrs) == 0:
        return ""
    parts: List[str] = []
    if attrs.tag is not None:
        parts.append(attrs.tag)
    parts.extend(f"{name}={_format_value(value)}" for name, value in attrs.items())
    return " <" + " ".join(parts) + ">"


def graph_to_text(graph: Graph) -> str:
    """Render a graph as a GraphQL declaration."""
    name = f" {graph.name}" if graph.name else ""
    lines = [f"graph{name}{_format_tuple(graph.tuple)} {{"]
    for node in graph.nodes():
        lines.append(f"  node {node.id}{_format_tuple(node.tuple)};")
    for edge in graph.edges():
        lines.append(
            f"  edge {edge.id} ({edge.source}, {edge.target})"
            f"{_format_tuple(edge.tuple)};"
        )
    lines.append("};")
    return "\n".join(lines)


def graph_from_text(text: str, directed: bool = False) -> Graph:
    """Parse one graph declaration back into a graph."""
    from ..lang.parser import parse_graph_decl

    return compile_graph(parse_graph_decl(text), directed=directed)


def collection_to_text(collection: GraphCollection) -> str:
    """Render a collection as consecutive graph declarations."""
    return "\n\n".join(graph_to_text(g) for g in collection)


def collection_from_text(text: str, directed: bool = False) -> GraphCollection:
    """Parse consecutive graph declarations into a collection."""
    ast = parse_program(text)
    collection = GraphCollection()
    for statement in ast.statements:
        if not isinstance(statement, GraphDeclAst):
            raise ValueError(
                f"collection files may only contain graph declarations, "
                f"found {type(statement).__name__}"
            )
        collection.add(compile_graph(statement, directed=directed))
    return collection


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Replace *path*'s contents all-or-nothing.

    The text is written to a temporary file in the *same directory*
    (``os.replace`` must not cross filesystems), flushed and fsynced,
    then renamed over the target — so a crash at any point leaves either
    the complete old file or the complete new one, never a truncated
    mix.  The temporary file is removed on failure.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=str(path.parent) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_collection(collection: GraphCollection, path: Union[str, Path]) -> None:
    """Write a collection to a file (atomically: temp file + rename)."""
    atomic_write_text(path, collection_to_text(collection) + "\n")


def load_collection(path: Union[str, Path], directed: bool = False) -> GraphCollection:
    """Read a collection from a file."""
    return collection_from_text(Path(path).read_text(encoding="utf-8"), directed)


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write one graph to a file (atomically: temp file + rename)."""
    atomic_write_text(path, graph_to_text(graph) + "\n")


def load_graph(path: Union[str, Path], directed: bool = False) -> Graph:
    """Read one graph from a file."""
    return graph_from_text(Path(path).read_text(encoding="utf-8"), directed)
