"""Single-pass stream classifier.

Checks every concrete stream type applicable to the input's framing:

* flat framings are classified by the framing itself (a triple file is a
  flat triple stream, a quad file a flat quad stream);
* graph framings check, per element, whether some IRI node reaches every
  node of the graph along subject-to-object edges and is unused so far in
  the stream (subject graph stream);
* dataset framings check the one-named-graph shape (named graph stream)
  and the presence of a timestamp triple about the graph name in the
  default graph, with non-decreasing timestamps (timestamped named graph
  stream).

Candidate subjects are found in time linear in the size of the graph, with
three walks over forward and backward adjacency maps built in one scan of
the triples.  First, a depth-first search starts from every subject not yet
visited; if any node reaches every node, the last start does (Tarjan 1972).
Second, a forward walk from that last start checks that it reaches every
node; if not, there are no candidates.  Third, a backward walk from it
collects the nodes that reach it, which are exactly the nodes that reach
every node; the IRIs among them are the candidates.

A Classifier holds one run: feed(item) checks the next statement or element
once, and report() gives the report so far; classify_stream feeds it a whole
stream.  Its memory is bounded except for the chosen subjects (one entry per
element that found an unused candidate) and the notes (one per element with
several candidate subjects or several timestamp triples).  The rest is fixed
in size: the counts, the first violation per type, the evidence capped at
max_evidence, and the greatest timestamp per predicate and domain.
"""

from __future__ import annotations

import os
import re
from operator import itemgetter
from typing import Iterable, NamedTuple, Union

from .errors import MixedPayload, SchemaError
from .framing import Framing, Payload
from .io import _ITEM_CLASS, Source, read_flat_stream, read_grouped_stream
from .model import Dataset, Graph, Iri, Literal, Quad, Statement, Term, Triple, _TupleValue
from .taxonomy import InferredTaxonomy, default_taxonomy, infer_closure, most_specific

PROV_GENERATED_AT_TIME = Iri("http://www.w3.org/ns/prov#generatedAtTime")

XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


class ClassifierConfig(_TupleValue):
    __slots__ = ()
    __match_args__ = ("timestamp_predicates", "check_timestamp_order", "max_evidence")
    timestamp_predicates = property(itemgetter(0))
    check_timestamp_order = property(itemgetter(1))
    max_evidence = property(itemgetter(2))

    def __new__(
        cls,
        timestamp_predicates: frozenset[Iri] = frozenset({PROV_GENERATED_AT_TIME}),
        check_timestamp_order: bool = True,
        max_evidence: int = 10,
    ) -> ClassifierConfig:
        if not timestamp_predicates:
            raise ValueError("timestamp_predicates must not be empty")
        if max_evidence < 0:
            raise ValueError("max_evidence must be non-negative")
        return tuple.__new__(cls, (timestamp_predicates, check_timestamp_order, max_evidence))


class TypeVerdict(NamedTuple):
    passed: bool
    reason: str | None = None
    detail: str | None = None


class ElementVerdict(NamedTuple):
    element_index: int
    per_type: dict[str, TypeVerdict]
    notes: tuple[str, ...] = ()


class FirstViolation(NamedTuple):
    element_index: int
    reason: str


class ClassificationReport(NamedTuple):
    framing: Framing
    element_count: int
    statement_count: int
    applicable: tuple[str, ...]
    conforming: tuple[str, ...]
    most_specific: tuple[str, ...]
    first_violation: dict[str, FirstViolation]
    vacuous: bool
    ambiguous: bool
    notes: tuple[str, ...]
    evidence: tuple[ElementVerdict, ...]

    def to_dict(self) -> dict:
        return {
            "framing": self.framing.value,
            "elementCount": self.element_count,
            "statementCount": self.statement_count,
            "applicable": list(self.applicable),
            "conforming": list(self.conforming),
            "mostSpecific": list(self.most_specific),
            "vacuous": self.vacuous,
            "ambiguous": self.ambiguous,
            "firstViolation": {
                t: {"elementIndex": v.element_index, "reason": v.reason}
                for t, v in sorted(self.first_violation.items())
            },
            "notes": list(self.notes),
            "evidence": [
                {
                    "elementIndex": ev.element_index,
                    "verdicts": {
                        t: (
                            {"pass": True}
                            if v.passed
                            else {
                                "pass": False,
                                "reason": v.reason,
                                **({"detail": v.detail} if v.detail else {}),
                            }
                        )
                        for t, v in ev.per_type.items()
                    },
                    "notes": list(ev.notes),
                }
                for ev in self.evidence
            ],
        }


# ---------------------------------------------------------------------------
# Element-level checks
# ---------------------------------------------------------------------------


def candidate_subject_nodes(graph: Graph) -> frozenset[Iri]:
    """IRI nodes from which every node of the graph is reachable.

    Reachability follows subject-to-object edges only.  Predicates are not
    nodes.  An empty graph has no candidates.
    """
    forward: dict[Term, list[Term]] = {}
    backward: dict[Term, list[Term]] = {}
    for t in graph:
        forward.setdefault(t.subject, []).append(t.object)
        backward.setdefault(t.object, []).append(t.subject)
    # Every object is reached from its subject, so after this loop `seen`
    # holds every node, and `root` reaches every node if any node does.
    seen: set[Term] = set()
    root: Term | None = None
    for s in forward:
        if s not in seen:
            root = s
            _reach(s, forward, seen)
    if root is None or len(_reach(root, forward, set())) < len(seen):
        return frozenset()
    return frozenset(n for n in _reach(root, backward, set()) if isinstance(n, Iri))


def _reach(start: Term, edges: dict[Term, list[Term]], seen: set[Term]) -> set[Term]:
    """Add start and every node reachable from it along edges to seen."""
    seen.add(start)
    stack = [start]
    while stack:
        for m in edges.get(stack.pop(), ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _timestamp_triples(dataset: Dataset, name: Term, cfg: ClassifierConfig) -> list[Triple]:
    """Default-graph triples about name with a timestamp predicate, in document order."""
    return [t for t in dataset.default_graph if t.subject == name and t.predicate in cfg.timestamp_predicates]


# The XSD 1.1 lexical spaces of the timestamp types, in ASCII digits
# (https://www.w3.org/TR/xmlschema11-2/#dateTime and the sections after it).
# datetime.fromisoformat alone would also take a space separator, the basic
# format and a missing seconds field; Decimal() would take exponents,
# underscores, other scripts' digits, NaN and Infinity.  The end of day
# 24:00:00 is left out: datetime has no hour 24, so it stays incomparable
# until it is read as the next day's midnight.  A date keeps its fields in
# group 1.  Each pattern is compiled once, at the first timestamp of its
# type, into _timestamp_patterns.
_XSD_YMD = r"-?(?:[1-9][0-9]{3,}|0[0-9]{3})-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])"
_XSD_TIMEZONE = r"(?:Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
_TIMESTAMP_LEXICAL = {
    XSD_DATETIME: rf"{_XSD_YMD}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?{_XSD_TIMEZONE}",
    XSD_DATE: rf"({_XSD_YMD}){_XSD_TIMEZONE}",
    XSD_INTEGER: r"[+-]?[0-9]+",
    XSD_DECIMAL: r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)",
}
_timestamp_patterns: dict[str, re.Pattern] = {}


def comparable_timestamp(term: Term) -> tuple[str, object] | None:
    """(comparability domain, value) for an orderable timestamp, else None.

    Chronological values split into offset-aware and naive domains because
    the two cannot be compared; a date is its naive midnight, whatever its
    timezone.  Finite numeric timestamps share one decimal domain.
    Everything else is incomparable and never ordered: values outside their
    type's lexical space, the end of day 24:00:00, and years datetime cannot
    hold (before 1 or after 9999).  datetime and decimal are imported only
    for the timestamps that need them.
    """
    if not isinstance(term, Literal):
        return None
    pattern = _timestamp_patterns.get(term.datatype)
    if pattern is None and term.datatype in _TIMESTAMP_LEXICAL:
        pattern = _timestamp_patterns[term.datatype] = re.compile(_TIMESTAMP_LEXICAL[term.datatype])
    lex = term.lexical.strip()
    if pattern is None or (match := pattern.fullmatch(lex)) is None:
        return None
    # A repeated `import m` only finds m in sys.modules; `from m import n`
    # also looks for m.__path__, and the AttributeError costs about 1 µs.
    if term.datatype in (XSD_DATETIME, XSD_DATE):
        import datetime

        try:
            if term.datatype == XSD_DATE:
                return "chrono-naive", datetime.datetime.fromisoformat(match[1])
            dt = datetime.datetime.fromisoformat(lex.replace("Z", "+00:00"))
        except ValueError:
            return None
        return ("chrono-aware" if dt.tzinfo is not None else "chrono-naive"), dt
    import decimal

    return "numeric", decimal.Decimal(lex)


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------

# The concrete types a stream of each payload is checked against.
_APPLICABLE = {
    Payload.TRIPLES: ("flatTripleStream",),
    Payload.QUADS: ("flatQuadStream",),
    Payload.GRAPHS: ("graphStream", "subjectGraphStream"),
    Payload.DATASETS: ("datasetStream", "namedGraphStream", "timestampedNamedGraphStream"),
}

_PASS = TypeVerdict(True)


class Classifier:
    """One classification run: feed it a stream's items in order, then ask for
    the report.  A taxonomy that lacks a type the framing is checked against
    raises SchemaError here, before any item is read."""

    def __init__(
        self, framing: Framing, cfg: ClassifierConfig | None = None, inferred: InferredTaxonomy | None = None
    ) -> None:
        self.framing = framing
        self._cfg = cfg or ClassifierConfig()
        self._inferred = inferred or infer_closure(default_taxonomy())
        missing = [t for t in _APPLICABLE[framing.payload] if not self._inferred.taxonomy.has_type(t)]
        if missing:
            raise SchemaError(
                f"the taxonomy lacks {', '.join(missing)}, which {framing.value} streams are classified against"
            )
        self.subjects: dict[Iri, int] = {}  # chosen subject -> index of the element that took it
        self.ambiguous = False  # some element had several candidate subjects
        # (predicate value, comparability domain) -> (max value, its element index)
        self.order_max: dict[tuple[str, str], tuple[object, int]] = {}
        self._elements = 0
        self._statements = 0
        self._kind = _ITEM_CLASS[framing.payload]
        checks = {Payload.GRAPHS: self._classify_graph, Payload.DATASETS: self._classify_dataset}
        self._check = checks.get(framing.payload, self._count_statement)
        self._first_violation: dict[str, FirstViolation] = {}
        self._evidence: list[ElementVerdict] = []
        self._notes: list[str] = []
        self._labelled = False  # some flat quad has a graph label

    def feed(self, item: Statement | Graph | Dataset) -> ElementVerdict | None:
        """The verdict on the stream's next element, or None for a flat framing's
        statement, as every flat stream conforms to its framing's one type.
        An item of another class than the framing's payload raises MixedPayload."""
        idx = self._elements
        if not isinstance(item, self._kind):
            name = type(item).__name__
            raise MixedPayload(f"element {idx}: {self.framing.value} framing cannot classify a {name}")
        self._elements = idx + 1
        verdict = self._check(item, idx)
        if verdict is not None:
            self._notes.extend(verdict.notes)
            failed = [(t, v) for t, v in verdict.per_type.items() if not v.passed]
            for t, v in failed:
                if t not in self._first_violation:
                    self._first_violation[t] = FirstViolation(idx, v.reason or "failed")
            if failed and len(self._evidence) < self._cfg.max_evidence:
                self._evidence.append(verdict)
        return verdict

    def report(self) -> ClassificationReport:
        """The report on the items fed so far."""
        applicable = _APPLICABLE[self.framing.payload]
        notes = tuple(self._notes)
        if self.framing is Framing.FLAT_QUADS and self._elements and not self._labelled:
            notes += ("projectable to flat triple stream: every quad is in the default graph",)
        conforming = tuple(t for t in applicable if t not in self._first_violation)
        return ClassificationReport(
            framing=self.framing,
            element_count=self._elements,
            statement_count=self._statements,
            applicable=applicable,
            conforming=conforming,
            most_specific=most_specific(self._inferred, conforming),
            first_violation=dict(self._first_violation),
            vacuous=self._elements == 0,
            ambiguous=self.ambiguous,
            notes=notes,
            evidence=tuple(self._evidence),
        )

    def _count_statement(self, statement: Statement, idx: int) -> None:
        self._statements += 1
        if statement.__class__ is Quad and statement[3] is not None:
            self._labelled = True

    def _classify_graph(self, graph: Graph, idx: int) -> ElementVerdict:
        self._statements += len(graph)
        candidates = sorted(candidate_subject_nodes(graph))  # IRIs sort as their str values
        chosen = next((c for c in candidates if c not in self.subjects), None)
        notes: tuple[str, ...] = ()
        if len(candidates) > 1:
            self.ambiguous = True
            outcome = "all already used" if chosen is None else f"chose {chosen.value}"
            notes = (f"element {idx}: {len(candidates)} candidate subjects; {outcome}",)
        if chosen is not None:
            self.subjects[chosen] = idx
            verdict = _PASS
        elif not graph:
            verdict = TypeVerdict(False, "no candidate subject node", "element is an empty graph")
        elif not candidates:
            detail = "no IRI node reaches every node of the graph"
            verdict = TypeVerdict(False, "no candidate subject node", detail)
        elif len(candidates) > 1:
            verdict = TypeVerdict(False, "subject not unique in stream", "every candidate already used")
        else:
            used = candidates[0]
            detail = f"{used.value} first used by element {self.subjects[used]}"
            verdict = TypeVerdict(False, "subject not unique in stream", detail)
        return ElementVerdict(idx, {"graphStream": _PASS, "subjectGraphStream": verdict}, notes)

    def _classify_dataset(self, dataset: Dataset, idx: int) -> ElementVerdict:
        """The one-named-graph shape (default-graph content never disqualifies
        it), then the timestamp triple about the graph name."""
        self._statements += dataset.statement_count()
        per_type = dict.fromkeys(_APPLICABLE[Payload.DATASETS], _PASS)
        named = dataset.named_items()
        if len(named) != 1:
            reason = f"expected exactly one named graph, found {len(named)}"
            failed = TypeVerdict(False, "not a single named graph", reason)
            per_type["namedGraphStream"] = per_type["timestampedNamedGraphStream"] = failed
            return ElementVerdict(idx, per_type)
        stamps = _timestamp_triples(dataset, named[0][0], self._cfg)
        if not stamps:
            detail = "default graph has no timestamp triple about the graph name"
            per_type["timestampedNamedGraphStream"] = TypeVerdict(False, "no timestamp triple", detail)
            return ElementVerdict(idx, per_type)
        notes: tuple[str, ...] = ()
        if len(stamps) > 1:
            notes = (f"element {idx}: multiple timestamp triples; first in document order wins",)
        comparable = comparable_timestamp(stamps[0].object) if self._cfg.check_timestamp_order else None
        if comparable is not None:
            key = (stamps[0].predicate.value, comparable[0])
            prev = self.order_max.get(key)
            if prev is not None and comparable[1] < prev[0]:  # type: ignore[operator]
                detail = f"timestamp precedes the one from element {prev[1]}"
                per_type["timestampedNamedGraphStream"] = TypeVerdict(False, "timestamp order violation", detail)
            else:
                self.order_max[key] = (comparable[1], idx)
        return ElementVerdict(idx, per_type, notes)


def classify_stream(
    source: Union[Source, Iterable],
    framing: Framing,
    cfg: ClassifierConfig | None = None,
    inferred: InferredTaxonomy | None = None,
) -> ClassificationReport:
    """Classify a whole stream in one pass.

    source may be bytes, a path, a binary file object, or an already
    materialized iterable of statements (flat framings) or elements
    (grouped framings).  In a flat framing each statement is an element,
    and every flat stream conforms to its framing's one type.
    """
    classifier = Classifier(framing, cfg, inferred)
    if isinstance(source, (bytes, str, os.PathLike)) or hasattr(source, "read"):
        source = (read_flat_stream if framing.is_flat else read_grouped_stream)(source, framing)
    for item in source:
        classifier.feed(item)
    return classifier.report()
