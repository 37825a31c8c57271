"""Attribute tuples: the unit of annotation in the GraphQL data model.

Section 3.1 of the paper: *"we use a tuple, a list of name and value pairs,
to represent the attributes of each node, edge, or graph. A tuple may have
an optional tag that denotes the tuple type."*

Tuples are ordered (insertion order is preserved, as in the concrete
syntax), values are scalars (``int``, ``float``, ``str`` or ``bool``), and
the representations of attributes and structures are kept separate: graph
elements *have* a tuple, they are not themselves tuples.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Optional, Tuple

#: The scalar value types a tuple attribute may take.
ScalarValue = (int, float, str, bool)


def check_scalar(name: str, value: Any) -> Any:
    """Validate that *value* is a legal attribute value and return it."""
    if not isinstance(value, ScalarValue):
        raise TypeError(
            f"attribute {name!r} must be int, float, str or bool, "
            f"got {type(value).__name__}"
        )
    return value


class AttributeTuple:
    """An ordered list of name/value pairs with an optional *tag*.

    The tag denotes the tuple type (e.g. ``<author name="A">`` has tag
    ``author``).  Instances behave like small read-mostly mappings::

        >>> t = AttributeTuple({"name": "A"}, tag="author")
        >>> t["name"]
        'A'
        >>> t.get("year") is None
        True
        >>> t.tag
        'author'

    A tuple that belongs to a graph (its own, or one of its nodes' or
    edges') has that graph as *owner*: every :meth:`set` bumps the
    owner's :attr:`~repro.core.graph.Graph.version`, so version-keyed
    caches and durable writes see attribute edits as they see
    structural ones.
    """

    __slots__ = ("_tag", "_attrs", "_owner")

    def __init__(
        self,
        attrs: Optional[Mapping[str, Any]] = None,
        tag: Optional[str] = None,
    ) -> None:
        self._tag = tag
        self._attrs: dict[str, Any] = {}
        self._owner: Any = None
        if attrs:
            for name, value in attrs.items():
                self._attrs[name] = check_scalar(name, value)

    # -- basic mapping protocol -------------------------------------------

    @property
    def tag(self) -> Optional[str]:
        """The optional tuple type tag, or ``None``."""
        return self._tag

    def __getitem__(self, name: str) -> Any:
        return self._attrs[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Return the attribute value, or *default* if absent."""
        return self._attrs.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def names(self) -> Tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(self._attrs)

    def items(self) -> Iterable[Tuple[str, Any]]:
        """Iterate over ``(name, value)`` pairs in declaration order."""
        return self._attrs.items()

    def as_dict(self) -> dict[str, Any]:
        """A fresh plain-dict copy of the attributes."""
        return dict(self._attrs)

    # -- updates -----------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        """Set (or overwrite) one attribute."""
        self._attrs[name] = check_scalar(name, value)
        if self._owner is not None:
            self._owner.version += 1

    def update(self, attrs: Mapping[str, Any]) -> None:
        """Set several attributes at once."""
        for name, value in attrs.items():
            self.set(name, value)

    def merged(self, other: "AttributeTuple") -> "AttributeTuple":
        """A new tuple with *other*'s attributes layered over this one.

        Used when two nodes are unified: the surviving node keeps its own
        attributes and gains any attribute of the absorbed node it did not
        already have.  The surviving tag wins; the absorbed tag is used
        only if the survivor has none.
        """
        merged = AttributeTuple(self._attrs, tag=self._tag or other._tag)
        for name, value in other.items():
            if name not in merged:
                merged.set(name, value)
        return merged

    def matches_constraints(
        self,
        required_tag: Optional[str],
        required_attrs: Optional[Mapping[str, Any]],
    ) -> bool:
        """Check the declarative constraints a pattern tuple imposes.

        A pattern element ``<author name="A">`` requires the data tuple to
        carry tag ``author`` and attribute ``name`` equal to ``"A"``.
        """
        if required_tag is not None and self._tag != required_tag:
            return False
        if required_attrs:
            for name, value in required_attrs.items():
                if self._attrs.get(name) != value:
                    return False
        return True

    def owned_by(self, owner: Any) -> "AttributeTuple":
        """This tuple with *owner* (a graph) as its owner, or an owned
        copy when another graph owns it already: a tuple bumps at most
        one graph's version."""
        if self._owner is owner:
            return self
        attrs = self if self._owner is None else self.copy()
        attrs._owner = owner
        return attrs

    # -- copying / equality -------------------------------------------------

    def copy(self) -> "AttributeTuple":
        """An independent copy (with no owner)."""
        return AttributeTuple(self._attrs, tag=self._tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeTuple):
            return NotImplemented
        return self._tag == other._tag and self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash((self._tag, tuple(sorted(self._attrs.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._attrs.items())
        tag = f"{self._tag} " if self._tag else ""
        return f"<{tag}{inner}>"


EMPTY_TUPLE = AttributeTuple()
