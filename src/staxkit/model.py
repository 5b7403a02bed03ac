"""Immutable RDF 1.1 value types: terms, statements, graphs, and datasets.

Terms and statements are frozen dataclasses validated on construction.
Graphs and datasets keep set semantics but preserve first-occurrence order,
so serialization and stream conversions stay deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import MalformedIri

RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

# Conservative label subset; like the W3C grammar, a label may contain '.'
# but must not end with one (a trailing '.' would merge with the statement
# terminator on serialization).
_BLANK_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*$")
_IRI_FORBIDDEN = set('<>"')
# One regex validates an IRI; the checks in Iri only pick the error message.
# '\s' matches exactly the characters str.isspace() accepts.
_IRI_VALID = re.compile(r'[^\s<>"]*:[^\s<>"]*')
# The RDF 1.1 N-Triples LANGTAG production, without its leading '@'.
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANGTAG_RE = re.compile(LANGTAG)
# Datatype IRIs Literal has already checked: few distinct ones occur, and
# checking an IRI costs more than building the rest of a literal.
_checked_datatypes = {XSD_STRING}


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI reference.

    Validation is a conservative syntactic subset, not full RFC 3987: the
    value must be non-empty, contain a ':' (scheme separator), and contain
    no whitespace or any of '<', '>', '\"'.
    """

    value: str

    def __post_init__(self):
        v = self.value
        if _IRI_VALID.fullmatch(v):
            return
        if not v:
            raise MalformedIri("empty IRI")
        if ":" not in v:
            raise MalformedIri(f"IRI has no scheme separator ':': {v!r}")
        for c in v:
            if c.isspace() or c in _IRI_FORBIDDEN:
                raise MalformedIri(f"IRI contains forbidden character {c!r}: {v!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A blank node with a document-scoped label."""

    label: str

    def __post_init__(self):
        if not _BLANK_LABEL.fullmatch(self.label) or self.label.endswith("."):
            raise ValueError(f"invalid blank node label: {self.label!r}")

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal: lexical form, datatype IRI, optional language tag.

    A language-tagged literal always has datatype rdf:langString; a literal
    without an explicit datatype defaults to xsd:string. A tag must match
    the N-Triples LANGTAG production and a datatype must be a valid Iri
    value, so every literal survives a write and read. Equality is
    structural (lexical form, datatype, language) with no value-space
    comparison.
    """

    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self):
        if self.language is not None:
            if not _LANGTAG_RE.fullmatch(self.language):
                raise ValueError(f"invalid language tag: {self.language!r}")
            if self.datatype not in (XSD_STRING, RDF_LANGSTRING):
                raise ValueError(
                    "language-tagged literal must have datatype rdf:langString"
                )
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
        elif self.datatype == RDF_LANGSTRING:
            raise ValueError("rdf:langString literal requires a language tag")
        elif self.datatype not in _checked_datatypes:
            Iri(self.datatype)  # raises MalformedIri naming the fault
            if len(_checked_datatypes) < 1024:
                _checked_datatypes.add(self.datatype)


Term = Union[Iri, BlankNode, Literal]
SubjectTerm = Union[Iri, BlankNode]
GraphName = Union[Iri, BlankNode]


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF triple; subject must not be a literal, predicate must be an IRI."""

    subject: SubjectTerm
    predicate: Iri
    object: Term

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject must not be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")


@dataclass(frozen=True, slots=True)
class Quad:
    """An RDF quad; an absent graph label marks the default graph."""

    subject: SubjectTerm
    predicate: Iri
    object: Term
    graph_label: GraphName | None = None

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise ValueError("quad subject must not be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("quad predicate must be an IRI")
        if self.graph_label is not None and isinstance(self.graph_label, Literal):
            raise ValueError("graph label must be an IRI or blank node")

    def triple(self) -> Triple:
        return Triple(self.subject, self.predicate, self.object)


Statement = Union[Triple, Quad]


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


Element = Union[Graph, Dataset]
