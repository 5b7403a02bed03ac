"""Immutable RDF 1.1 value types: terms, statements, graphs, and datasets.

Terms and statements are validated on construction and built on builtin
types, so dict and set operations hash them in C: an Iri or BlankNode is a
str holding its value or label, and a Literal, Triple or Quad is a tuple of
its fields.  A value still equals only a value of its own class with equal
fields.  Graphs and datasets keep set semantics but preserve
first-occurrence order, so serialization and stream conversions stay
deterministic.
"""

from __future__ import annotations

import re
from operator import itemgetter
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
# validates an IRI, anchored on its first ':' so that it never backtracks;
# the other only finds the character to name in the error, and is compiled
# on first use through re's cache.
_IRI_BAD = r'\s<>"\ud800-\udfff'
_IRI_VALID = re.compile(rf"[^{_IRI_BAD}:]*:[^{_IRI_BAD}]*")
_IRI_BAD_CHAR = rf"[{_IRI_BAD}]"
_SURROGATE = re.compile(r"[\ud800-\udfff]")
# The RDF 1.1 N-Triples LANGTAG production, without its leading '@'.
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANGTAG_RE = re.compile(LANGTAG)
# Datatype IRIs Literal has already checked, each mapped to its value as a
# plain str: few distinct ones occur, and checking an IRI costs more than
# building the rest of a literal.  A key may be an Iri; the reader's are
# interned, so they are found by identity.
_checked_datatypes = {XSD_STRING: XSD_STRING}


# Every parsed statement is built and hashed through the classes below.  They
# keep their builtin base's __hash__, so dict and set operations run no Python
# code.  __eq__ and __ne__ check the class and always answer with a bool: with
# NotImplemented, the reflected str or tuple method would make Iri("x:y") ==
# "x:y" true.  Each class declares __slots__ = () to have no __dict__, and
# names its fields in order in __match_args__, which repr uses.


class _StrTerm(str):
    """A term held as the str of its value or label."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or str.__ne__(self, other)

    def __reduce__(self):
        return self.__class__, (str.__str__(self),)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({self.__match_args__[0]}={str.__repr__(self)})"


class _TupleValue(tuple):
    """A literal, statement or record (classify.ClassifierConfig,
    annotate.AnnotationManifest) held as the tuple of its fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self))
        return f"{self.__class__.__qualname__}({fields})"


class Iri(_StrTerm):
    """An absolute IRI reference.

    Validation is a conservative syntactic subset, not full RFC 3987: the
    value must be non-empty, contain a ':' (scheme separator), and contain
    no whitespace, no surrogate code point and none of '<', '>', '\"'.
    """

    __slots__ = ()
    __match_args__ = ("value",)
    value = property(str.__str__, doc="The IRI as a plain str.")

    def __new__(cls, value: str) -> Iri:
        if not _IRI_VALID.fullmatch(value):
            if not value:
                raise MalformedIri("empty IRI")
            if ":" not in value:
                raise MalformedIri(f"IRI has no scheme separator ':': {value!r}")
            bad = re.search(_IRI_BAD_CHAR, value)[0]
            raise MalformedIri(f"IRI contains forbidden character {bad!r}: {value!r}")
        # str.__new__ takes str() of its argument, which a str subclass (a
        # BlankNode, say) may override; str.__str__ gives the text checked.
        return str.__new__(cls, str.__str__(value))


class BlankNode(_StrTerm):
    """A blank node with a document-scoped label; its str form is '_:label'."""

    __slots__ = ()
    __match_args__ = ("label",)
    label = property(str.__str__, doc="The label as a plain str.")

    def __new__(cls, label: str) -> BlankNode:
        if not _BLANK_LABEL.fullmatch(label) or label.endswith("."):
            raise ValueError(f"invalid blank node label: {label!r}")
        return str.__new__(cls, str.__str__(label))  # as in Iri

    def __str__(self) -> str:
        return "_:" + self

    def __format__(self, spec: str) -> str:
        return format("_:" + self, spec)


class Literal(_TupleValue):
    """An RDF literal: lexical form, datatype IRI, optional language tag.

    A language-tagged literal always has datatype rdf:langString; a literal
    without an explicit datatype defaults to xsd:string. A tag must match
    the N-Triples LANGTAG production, a datatype must be a valid Iri value
    and the lexical form must hold no surrogate code point, so every literal
    survives a write and read. Equality is structural (lexical form,
    datatype, language) with no value-space comparison.  The lexical form
    and the datatype are kept as plain str.
    """

    __slots__ = ()
    __match_args__ = ("lexical", "datatype", "language")
    lexical = property(itemgetter(0))
    datatype = property(itemgetter(1))
    language = property(itemgetter(2))

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language: str | None = None) -> Literal:
        if lexical.__class__ is not str:
            if not isinstance(lexical, str):
                raise TypeError(f"literal lexical form must be a str: {lexical!r}")
            lexical = str.__str__(lexical)
        if not lexical.isascii() and (bad := _SURROGATE.search(lexical)):
            raise ValueError(f"literal contains surrogate code point U+{ord(bad[0]):04X}")
        if language is not None:
            if not _LANGTAG_RE.fullmatch(language):
                raise ValueError(f"invalid language tag: {language!r}")
            # An Iri equals no str: compare an Iri's value as a plain str.
            if datatype not in (XSD_STRING, RDF_LANGSTRING) and (
                not isinstance(datatype, str) or str.__str__(datatype) not in (XSD_STRING, RDF_LANGSTRING)
            ):
                raise ValueError("language-tagged literal must have datatype rdf:langString")
            datatype = RDF_LANGSTRING
        elif (checked := _checked_datatypes.get(datatype)) is not None:
            datatype = checked
        else:
            value = Iri(datatype).value  # raises MalformedIri naming the fault
            if value == RDF_LANGSTRING:
                raise ValueError("rdf:langString literal requires a language tag")
            if len(_checked_datatypes) < 1024:
                _checked_datatypes[datatype] = value
            datatype = value
        return tuple.__new__(cls, (lexical, datatype, language))


Term = Iri | BlankNode | Literal
SubjectTerm = Iri | BlankNode
GraphName = Iri | BlankNode


def _check_roles(kind: str, subject: object, predicate: object, obj: object) -> None:
    """Raise ValueError unless the three terms may stand in their roles."""
    if not isinstance(subject, (Iri, BlankNode)):
        if isinstance(subject, Literal):
            raise ValueError(f"{kind} subject must not be a literal")
        raise ValueError(f"{kind} subject must be an IRI or blank node")
    if not isinstance(predicate, Iri):
        raise ValueError(f"{kind} predicate must be an IRI")
    if not isinstance(obj, (Iri, BlankNode, Literal)):
        raise ValueError(f"{kind} object must be an IRI, blank node or literal")


class Triple(_TupleValue):
    """An RDF triple: an IRI or blank node subject, an IRI predicate, any term as object."""

    __slots__ = ()
    __match_args__ = ("subject", "predicate", "object")
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __new__(cls, subject: SubjectTerm, predicate: Iri, object: Term) -> Triple:
        _check_roles("triple", subject, predicate, object)
        return tuple.__new__(cls, (subject, predicate, object))


class Quad(_TupleValue):
    """An RDF quad; an absent graph label marks the default graph."""

    __slots__ = ()
    __match_args__ = ("subject", "predicate", "object", "graph_label")
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))
    graph_label = property(itemgetter(3))

    def __new__(
        cls,
        subject: SubjectTerm,
        predicate: Iri,
        object: Term,
        graph_label: GraphName | None = None,
    ) -> Quad:
        _check_roles("quad", subject, predicate, object)
        if graph_label is not None and not isinstance(graph_label, (Iri, BlankNode)):
            raise ValueError("graph label must be an IRI or blank node")
        return tuple.__new__(cls, (subject, predicate, object, graph_label))

    def triple(self) -> Triple:
        # the fields were checked when this quad was built
        return tuple.__new__(Triple, self[:3])


Statement = Triple | Quad


class Graph:
    """A set of triples that remembers first-occurrence order.

    Duplicates are dropped on construction (first occurrence wins), so
    building a graph from its own triples is the identity.
    """

    __slots__ = ("_index",)

    def __init__(self, triples: Iterable[Triple] = ()):
        # The dict alone holds the triples: its keys are the set, its order
        # the order.  Storing a key again keeps the first object and place.
        index: dict[Triple, None] = {}
        for t in triples:
            if not isinstance(t, Triple):
                raise TypeError(f"Graph elements must be Triple, got {type(t).__name__}")
            index[t] = None
        self._index = index

    @classmethod
    def _of(cls, index: dict[Triple, None]) -> Graph:
        """The graph of index, whose keys are checked triples, taken over as is."""
        graph = object.__new__(cls)
        graph._index = index
        return graph

    @property
    def triples(self) -> tuple[Triple, ...]:
        return tuple(self._index)

    def nodes(self) -> frozenset[Term]:
        """All subjects and objects; predicate-only IRIs do not count as nodes."""
        out: set[Term] = set()
        for t in self._index:
            out.add(t.subject)
            out.add(t.object)
        return frozenset(out)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, t: object) -> bool:
        return t in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Order-sensitive, which comparing the dicts' key views is not.
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._index)} triples)"


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
        if default_graph is None:
            default_graph = Graph()
        elif not isinstance(default_graph, Graph):
            raise ValueError(f"default graph must be a Graph, got {type(default_graph).__name__}")
        self._default = default_graph
        items = named_graphs.items() if isinstance(named_graphs, Mapping) else named_graphs
        named: dict[GraphName, Graph] = {}
        for name, graph in items:
            if not isinstance(name, (Iri, BlankNode)):
                raise ValueError("graph name must be an IRI or blank node")
            if not isinstance(graph, Graph):
                raise ValueError(f"named graph must be a Graph, got {type(graph).__name__}")
            if name in named:
                raise ValueError(f"duplicate graph name: {name}")
            named[name] = graph
        self._named = named

    @classmethod
    def from_quads(cls, quads: Iterable[Quad]) -> "Dataset":
        """Partition quads into graphs: absent labels go to the default graph,
        labels keep first-occurrence order, duplicates within a graph are dropped."""
        graphs: dict[GraphName | None, dict[Triple, None]] = {}
        for q in quads:
            if not isinstance(q, Quad):
                raise TypeError(f"expected Quad, got {type(q).__name__}")
            # the fields were checked when the quad was built
            graphs.setdefault(q[3], {})[tuple.__new__(Triple, q[:3])] = None
        return cls._of(graphs)

    @classmethod
    def _of(cls, graphs: dict[GraphName | None, dict[Triple, None]]) -> Dataset:
        """The dataset of graphs: label (None for the default graph) -> index
        of checked triples, labels in first-occurrence order, taken over as is."""
        dataset = object.__new__(cls)
        dataset._default = Graph._of(graphs.pop(None, {}))
        dataset._named = {name: Graph._of(index) for name, index in graphs.items()}
        return dataset

    @property
    def default_graph(self) -> Graph:
        return self._default

    def named_items(self) -> tuple[tuple[GraphName, Graph], ...]:
        return tuple(self._named.items())

    def quads(self) -> Iterator[Quad]:
        """The quads of the dataset: the default graph's first, then each named
        graph's, graphs in order of first appearance, each in its own order.
        Flattening and the writers use this order."""
        # The fields were checked when the triples were built.
        new = tuple.__new__
        for t in self._default:
            yield new(Quad, t + (None,))
        for name, graph in self._named.items():
            label = (name,)
            for t in graph:
                yield new(Quad, t + label)

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
