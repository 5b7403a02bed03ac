"""Immutable RDF 1.1 value types: terms, statements, graphs, and datasets.

Terms and statements are immutable slotted classes validated on
construction; they compare and hash by class and fields.  Graphs and
datasets keep set semantics but preserve first-occurrence order, so
serialization and stream conversions stay deterministic.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import MalformedIri

RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

# Conservative label subset; like the W3C grammar, a label may contain '.'
# but must not end with one (a trailing '.' would merge with the statement
# terminator on serialization).
_BLANK_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*$")
# Characters an IRI must not hold: '\s' matches exactly the characters
# str.isspace() accepts; surrogates have no UTF-8 encoding.  One regex
# validates an IRI; the other only finds the character to name in the error.
_IRI_BAD = r'\s<>"\ud800-\udfff'
_IRI_VALID = re.compile(rf"[^{_IRI_BAD}]*:[^{_IRI_BAD}]*")
_IRI_BAD_CHAR = re.compile(rf"[{_IRI_BAD}]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")
# The RDF 1.1 N-Triples LANGTAG production, without its leading '@'.
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANGTAG_RE = re.compile(LANGTAG)
# Datatype IRIs Literal has already checked: few distinct ones occur, and
# checking an IRI costs more than building the rest of a literal.
_checked_datatypes = {XSD_STRING}

# Sets a field of an immutable instance; constructors run on every parsed
# term, so they call it directly (a parameter named object shadows the
# builtin in Triple and Quad).
_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes: a subclass lists its fields as
    __slots__ and sets each once in __init__ with object.__setattr__.
    Values of the same class with equal fields are equal and hash equal."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# Every parsed statement is built and hashed through the classes below, and
# terms are compared as dictionary keys, so those methods are written out.


class Iri(Frozen):
    """An absolute IRI reference.

    Validation is a conservative syntactic subset, not full RFC 3987: the
    value must be non-empty, contain a ':' (scheme separator), and contain
    no whitespace, no surrogate code point and none of '<', '>', '\"'.
    """

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not _IRI_VALID.fullmatch(value):
            if not value:
                raise MalformedIri("empty IRI")
            if ":" not in value:
                raise MalformedIri(f"IRI has no scheme separator ':': {value!r}")
            bad = _IRI_BAD_CHAR.search(value)[0]
            raise MalformedIri(f"IRI contains forbidden character {bad!r}: {value!r}")
        _set(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value


class BlankNode(Frozen):
    """A blank node with a document-scoped label."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not _BLANK_LABEL.fullmatch(label) or label.endswith("."):
            raise ValueError(f"invalid blank node label: {label!r}")
        _set(self, "label", label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.label)

    def __str__(self) -> str:
        return f"_:{self.label}"


class Literal(Frozen):
    """An RDF literal: lexical form, datatype IRI, optional language tag.

    A language-tagged literal always has datatype rdf:langString; a literal
    without an explicit datatype defaults to xsd:string. A tag must match
    the N-Triples LANGTAG production, a datatype must be a valid Iri value
    and the lexical form must hold no surrogate code point, so every literal
    survives a write and read. Equality is structural (lexical form,
    datatype, language) with no value-space comparison.
    """

    __slots__ = ("lexical", "datatype", "language")

    def __init__(self, lexical: str, datatype: str = XSD_STRING, language: str | None = None):
        try:
            ascii_only = str.isascii(lexical)
        except TypeError:
            raise TypeError(f"literal lexical form must be a str: {lexical!r}") from None
        if not ascii_only and (bad := _SURROGATE.search(lexical)):
            raise ValueError(f"literal contains surrogate code point U+{ord(bad[0]):04X}")
        if language is not None:
            if not _LANGTAG_RE.fullmatch(language):
                raise ValueError(f"invalid language tag: {language!r}")
            if datatype not in (XSD_STRING, RDF_LANGSTRING):
                raise ValueError("language-tagged literal must have datatype rdf:langString")
            datatype = RDF_LANGSTRING
        elif datatype == RDF_LANGSTRING:
            raise ValueError("rdf:langString literal requires a language tag")
        elif datatype not in _checked_datatypes:
            Iri(datatype)  # raises MalformedIri naming the fault
            if len(_checked_datatypes) < 1024:
                _checked_datatypes.add(datatype)
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language", language)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.lexical, self.datatype, self.language) == (other.lexical, other.datatype, other.language)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype, self.language))


Term = Iri | BlankNode | Literal
SubjectTerm = Iri | BlankNode
GraphName = Iri | BlankNode


class Triple(Frozen):
    """An RDF triple; subject must not be a literal, predicate must be an IRI."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: SubjectTerm, predicate: Iri, object: Term):
        if isinstance(subject, Literal):
            raise ValueError("triple subject must not be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object))


class Quad(Frozen):
    """An RDF quad; an absent graph label marks the default graph."""

    __slots__ = ("subject", "predicate", "object", "graph_label")

    def __init__(
        self,
        subject: SubjectTerm,
        predicate: Iri,
        object: Term,
        graph_label: GraphName | None = None,
    ):
        if isinstance(subject, Literal):
            raise ValueError("quad subject must not be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("quad predicate must be an IRI")
        if isinstance(graph_label, Literal):
            raise ValueError("graph label must be an IRI or blank node")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)
        _set(self, "graph_label", graph_label)

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object, self.graph_label))

    def triple(self) -> Triple:
        return Triple(self.subject, self.predicate, self.object)


Statement = Triple | Quad


class Graph:
    """A set of triples that remembers first-occurrence order.

    Duplicates are dropped on construction (first occurrence wins), so
    building a graph from its own triples is the identity.
    """

    __slots__ = ("_triples", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        seen: dict[Triple, None] = {}
        for t in triples:
            if not isinstance(t, Triple):
                raise TypeError(f"Graph elements must be Triple, got {type(t).__name__}")
            if t not in seen:
                seen[t] = None
        self._triples: tuple[Triple, ...] = tuple(seen)
        self._index = seen

    @property
    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    def nodes(self) -> frozenset[Term]:
        """All subjects and objects; predicate-only IRIs do not count as nodes."""
        out: set[Term] = set()
        for t in self._triples:
            out.add(t.subject)
            out.add(t.object)
        return frozenset(out)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: object) -> bool:
        return t in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"


class Dataset:
    """A default graph plus named graphs with pairwise-distinct names.

    Named graphs iterate in first-occurrence order. Empty named graphs are
    legal in memory but have no N-Quads representation, so they do not
    survive serialization.
    """

    __slots__ = ("_default", "_named")

    def __init__(
        self,
        default_graph: Graph | None = None,
        named_graphs: Iterable[tuple[GraphName, Graph]] | Mapping[GraphName, Graph] = (),
    ):
        self._default = default_graph if default_graph is not None else Graph()
        items = named_graphs.items() if isinstance(named_graphs, Mapping) else named_graphs
        named: dict[GraphName, Graph] = {}
        for name, graph in items:
            if isinstance(name, Literal):
                raise ValueError("graph name must be an IRI or blank node")
            if name in named:
                raise ValueError(f"duplicate graph name: {name}")
            named[name] = graph
        self._named = named

    @classmethod
    def from_quads(cls, quads: Iterable[Quad]) -> "Dataset":
        """Partition quads into graphs: absent labels go to the default graph,
        labels keep first-occurrence order, duplicates within a graph are dropped."""
        default: list[Triple] = []
        named: dict[GraphName, list[Triple]] = {}
        for q in quads:
            if not isinstance(q, Quad):
                raise TypeError(f"expected Quad, got {type(q).__name__}")
            if q.graph_label is None:
                default.append(q.triple())
            else:
                named.setdefault(q.graph_label, []).append(q.triple())
        return cls(Graph(default), [(n, Graph(ts)) for n, ts in named.items()])

    @property
    def default_graph(self) -> Graph:
        return self._default

    @property
    def named_graphs(self) -> Mapping[GraphName, Graph]:
        return dict(self._named)

    def named_items(self) -> tuple[tuple[GraphName, Graph], ...]:
        return tuple(self._named.items())

    def statement_count(self) -> int:
        return len(self._default) + sum(len(g) for g in self._named.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        # Order-sensitive on named graphs: round-trips must be exact.
        return self._default == other._default and tuple(self._named.items()) == tuple(
            other._named.items()
        )

    def __hash__(self) -> int:
        return hash((self._default, tuple(self._named.items())))

    def __repr__(self) -> str:
        return f"Dataset(default={len(self._default)} triples, named={len(self._named)})"


Element = Graph | Dataset
