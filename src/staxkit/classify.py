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
at most three walks over forward and backward adjacency maps built in one
scan of the triples.  First, a depth-first search starts from every subject
not yet visited; if any node reaches every node, the last start does
(Tarjan 1972).  Second, if that search made more than one start, a forward
walk from the last start checks that it reaches every node; if not, there
are no candidates.  A single start has already reached every node.  Third,
a backward walk from it collects the nodes that reach it, which are exactly
the nodes that reach every node; the IRIs among them are the candidates.

A Classifier holds one run: feed(item) checks the next statement or element
once, and report() gives the report so far; classify_stream feeds it a whole
stream.  An item is a statement, Graph or Dataset or, where classify_stream
or the CLI opens the stream, the reader's index of canonical lines by graph
label token (see io._read), one line for a flat statement: the walks then
run over the lines' tokens, and a candidate is built as an Iri only when
the greedy choice tests it.  The dataset check builds no term: it compares
a line's subject token with the label token, and reads the first stamp's
lexical form and datatype from its object token.  Its memory is bounded
except for the chosen subjects (one entry per element that found an unused
candidate) and the notes (one per element with several candidate subjects
or several timestamp triples).  The rest is fixed in size: the counts, the
first violation per type, the evidence capped at max_evidence, and the
greatest timestamp per predicate and domain.
"""

from __future__ import annotations

import os
import re
from operator import itemgetter
from typing import Iterable, NamedTuple, Union

from .errors import MixedPayload, SchemaError
from .framing import Framing, Payload
from .io import Source, _node, _read_stream, _unescape
from .model import _IRI_ESC, _ITEM_CLASS, Dataset, Graph, Iri, Literal, Quad, Statement, Term, _TupleValue
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
    return frozenset(n for n in _reaching_all(graph) if isinstance(n, Iri))


def _reaching_all(element: Graph | dict) -> set:
    """The nodes of a Graph, or of a graph index's lines as tokens, from which
    every node is reachable.  A line of an index is canonical: its subject
    and predicate are tokens without a space, and ' .\\n' ends its object."""
    forward: dict[Term | str, list] = {}
    backward: dict[Term | str, list] = {}
    triples = (line[:-3].split(" ", 2) for line in element.get(None, ())) if element.__class__ is dict else element
    for s, _, o in triples:
        forward.setdefault(s, []).append(o)
        backward.setdefault(o, []).append(s)
    # Every object is reached from its subject, so after this loop `seen`
    # holds every node, and the last start reaches every node if any node
    # does; a single start reached all of `seen` itself.
    seen: set = set()
    starts = []
    for s in forward:
        if s not in seen:
            starts.append(s)
            _reach(s, forward, seen)
    if not starts or len(starts) > 1 and len(_reach(starts[-1], forward, set())) < len(seen):
        return set()
    return _reach(starts[-1], backward, set())


def _iri_value(token: str) -> str:
    """The value of an IRI token of a canonical line: the text between its
    brackets, unless the writer escaped one of {, }, |, ^, ` or \\ in it."""
    return token[1:-1] if "\\" not in token else _node(token)


def _reach(start: Term | str, edges: dict, seen: set) -> set:
    """Add start and every node reachable from it along edges to seen."""
    seen.add(start)
    stack = [start]
    while stack:
        for m in edges.get(stack.pop(), ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _timestamps(
    element: Dataset | dict, name: Term | str, predicates: frozenset | dict
) -> list[tuple[str, Term | str]]:
    """Predicate value and object of each default-graph triple about name with
    a timestamp predicate, in document order.  Of a Dataset, predicates is the
    set of predicate terms; of an index, name is its label's token, predicates
    maps each predicate's canonical token to its value, and the object is its
    token.  A term has one canonical token, so tokens compare as terms do."""
    if element.__class__ is not dict:
        return [(p.value, o) for s, p, o in element.default_graph if s == name and p in predicates]
    stamps = []
    for line in element.get(None, ()):
        s, p, o = line.split(" ", 2)
        if s == name and p in predicates:
            stamps.append((predicates[p], o[:-3]))  # o ends in ' .\n'
    return stamps


# The XSD 1.1 lexical spaces of the timestamp types, in ASCII digits
# (https://www.w3.org/TR/xmlschema11-2/#dateTime and the sections after it);
# Decimal() alone would take exponents, underscores, other scripts' digits,
# NaN and Infinity.  A date captures its year, month, day and timezone.  A
# date-time also captures its hour, minute, second and fraction less its
# trailing zeros, in that order before the timezone; the end of day
# 24:00:00, with an all-zero fraction if any, leaves those four groups
# empty.  Each pattern is compiled once, at the first timestamp of its
# type, into _timestamp_patterns.
_XSD_YMD = r"(-?(?:[1-9][0-9]{3,}|0[0-9]{3}))-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
_XSD_TIMEZONE = r"(Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
_TIMESTAMP_LEXICAL = {
    XSD_DATETIME: rf"{_XSD_YMD}T(?:([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])"
    rf"(?:\.(?:([0-9]*[1-9])0*|0+))?|24:00:00(?:\.0+)?){_XSD_TIMEZONE}",
    XSD_DATE: rf"{_XSD_YMD}{_XSD_TIMEZONE}",
    XSD_INTEGER: r"[+-]?[0-9]+",
    XSD_DECIMAL: r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)",
}
_timestamp_patterns: dict[str, re.Pattern] = {}
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def comparable_timestamp(term: Term) -> tuple[str, object] | None:
    """(comparability domain, value) for an orderable timestamp, else None.

    Chronological values split into offset-aware and naive domains because
    the two cannot be compared.  Their value is exact: the whole seconds
    since 1970-01-01T00:00:00 on the proleptic Gregorian calendar, with
    astronomical years (0000 is a leap year, -0001 the year before it) and
    the timezone's offset subtracted, paired with the fraction's digits
    less their trailing zeros, so that equal instants have equal values.
    The end of day 24:00:00 is the next day's midnight, and a date is its
    first instant, as in XSD 1.1.  Finite numeric timestamps share one
    decimal domain.  A value outside its type's lexical space, or a day its
    month does not have, is incomparable and never ordered.  Only the XSD
    whitespace (space, TAB, LF, CR) around a value is ignored.  decimal is
    imported only for the numeric timestamps.
    """
    return _comparable(term.lexical, term.datatype) if isinstance(term, Literal) else None


def _comparable(lexical: str, datatype: str) -> tuple[str, object] | None:
    """comparable_timestamp of the literal of lexical form and datatype."""
    pattern = _timestamp_patterns.get(datatype)
    if pattern is None and datatype in _TIMESTAMP_LEXICAL:
        pattern = _timestamp_patterns[datatype] = re.compile(_TIMESTAMP_LEXICAL[datatype])
    lex = lexical.strip(" \t\n\r")
    if pattern is None or (match := pattern.fullmatch(lex)) is None:
        return None
    if datatype == XSD_DATETIME:
        year, month, day, hour, minute, second, fraction, zone = match.groups()
        seconds = 86400 if hour is None else int(hour) * 3600 + int(minute) * 60 + int(second)
    elif datatype == XSD_DATE:
        year, month, day, zone = match.groups()
        seconds, fraction = 0, None
    else:
        # A repeated `import m` only finds m in sys.modules; `from m import n`
        # also looks for m.__path__, and the AttributeError costs about 1 µs.
        import decimal

        return "numeric", decimal.Decimal(lex)
    y, m, d = int(year), int(month), int(day)
    if d > 28 and d > _MONTH_DAYS[m - 1] + (m == 2 and y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)):
        return None
    # Days since 1970-01-01 in years that begin on March 1, so that a leap
    # day ends its year (Hinnant, "chrono-Compatible Low-Level Date
    # Algorithms"); floor division carries it to negative years.
    y -= m < 3
    seconds += 86400 * (365 * y + y // 4 - y // 100 + y // 400 + (153 * ((m + 9) % 12) + 2) // 5 + d - 719469)
    if zone and zone != "Z":
        seconds -= int(zone[:3]) * 3600 + int(zone[0] + zone[4:]) * 60
    return ("chrono-aware" if zone else "chrono-naive"), (seconds, fraction or "")


def _comparable_token(token: str) -> tuple[str, object] | None:
    """comparable_timestamp of the term an object token of a canonical line
    spells.  Only a typed literal's token, "..."^^<...>, can give a value;
    the writer escapes no character of a timestamp datatype's IRI, so the
    text between the brackets is compared as the datatype."""
    lexical, _, datatype = token[1:].rpartition('"')
    if token[0] != '"' or datatype[:2] != "^^":
        return None
    return _comparable(_unescape(lexical), datatype[3:-1])


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
_DATASET_PASS = dict.fromkeys(_APPLICABLE[Payload.DATASETS], _PASS)  # copied per element


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
        # the canonical token of each timestamp predicate -> its value
        self._stamp_tokens = {f"<{p.translate(_IRI_ESC)}>": p.value for p in self._cfg.timestamp_predicates}
        self._elements = 0
        self._statements = 0
        self._kind = (_ITEM_CLASS[framing.payload], dict)
        self._flat, self._labels = framing.is_flat, framing.quads_payload  # which indexes fit (see feed)
        checks = {Payload.GRAPHS: self._classify_graph, Payload.DATASETS: self._classify_dataset}
        self._check = checks.get(framing.payload, self._count_statement)
        self._first_violation: dict[str, FirstViolation] = {}
        self._evidence: list[ElementVerdict] = []
        self._notes: list[str] = []
        self._labelled = False  # some flat quad has a graph label

    def feed(self, item: Statement | Graph | Dataset | dict) -> ElementVerdict | None:
        """The verdict on the stream's next element, or None for a flat framing's
        statement, as every flat stream conforms to its framing's one type.
        An item is of the framing's payload class or an index (see io._read)
        that fits it: in a flat framing one line under one label, None for
        triples, and for graphs no label but None; a dataset's named graph is
        keyed by its label's token, not the label term.  Another item raises
        MixedPayload."""
        idx = self._elements
        index = item.__class__ is dict
        if not isinstance(item, self._kind) or index and (
            self._flat and [*map(len, item.values())] != [1] or not self._labels and len(item) > (None in item)
        ):
            name = (f"dict of {sum(map(len, item.values()))} line(s) in {len(item)} graph(s)" if index
                    else type(item).__name__)
            raise MixedPayload(f"element {idx}: {self.framing.value} framing cannot classify a {name}")
        verdict = self._check(item, idx)
        self._elements = idx + 1
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

    def _count_statement(self, statement: Statement | dict, idx: int) -> None:
        """Count a statement, or an index of its one line keyed by its graph label."""
        self._statements += 1
        if statement.__class__ is dict:
            self._labelled = self._labelled or None not in statement
        elif statement.__class__ is Quad and statement[3] is not None:
            self._labelled = True

    def _classify_graph(self, element: Graph | dict, idx: int) -> ElementVerdict:
        """The subject check of a Graph or an index, whose candidates are IRI
        tokens: each is built as an Iri only when the greedy choice tests it."""
        index = element.__class__ is dict
        if index:
            self._statements += len(element.get(None, ()))
            candidates = sorted((n for n in _reaching_all(element) if n[0] == "<"), key=_iri_value)
            tested = map(_node, candidates)
        else:
            self._statements += len(element)
            candidates = tested = sorted(candidate_subject_nodes(element))  # IRIs sort as their str values
        chosen = next((c for c in tested if c not in self.subjects), None)
        notes: tuple[str, ...] = ()
        if len(candidates) > 1:
            self.ambiguous = True
            outcome = "all already used" if chosen is None else f"chose {chosen.value}"
            notes = (f"element {idx}: {len(candidates)} candidate subjects; {outcome}",)
        if chosen is not None:
            self.subjects[chosen] = idx
            verdict = _PASS
        elif not element:
            verdict = TypeVerdict(False, "no candidate subject node", "element is an empty graph")
        elif not candidates:
            detail = "no IRI node reaches every node of the graph"
            verdict = TypeVerdict(False, "no candidate subject node", detail)
        elif len(candidates) > 1:
            verdict = TypeVerdict(False, "subject not unique in stream", "every candidate already used")
        else:
            used = _node(candidates[0]) if index else candidates[0]
            detail = f"{used.value} first used by element {self.subjects[used]}"
            verdict = TypeVerdict(False, "subject not unique in stream", detail)
        return ElementVerdict(idx, {"graphStream": _PASS, "subjectGraphStream": verdict}, notes)

    def _classify_dataset(self, element: Dataset | dict, idx: int) -> ElementVerdict:
        """The one-named-graph shape (default-graph content never disqualifies
        it), then the timestamp triple about the graph name, of a Dataset or
        an index, whose label keys, lines and stamp are read as tokens."""
        if element.__class__ is dict:
            named = [label for label in element if label is not None]
            if len(named) == 1 and named[0].__class__ is not str:
                # A term never equals a line's subject token: the element
                # would silently read as having no timestamp triple.
                raise MixedPayload(
                    f"element {idx}: {self.framing.value} framing cannot classify a dict keyed by a label term,"
                    " not its token"
                )
            self._statements += sum(map(len, element.values()))
            predicates = self._stamp_tokens
        else:
            self._statements += element.statement_count()
            named = [label for label, _ in element.named_items()]
            predicates = self._cfg.timestamp_predicates
        per_type = _DATASET_PASS.copy()
        if len(named) != 1:
            reason = f"expected exactly one named graph, found {len(named)}"
            failed = TypeVerdict(False, "not a single named graph", reason)
            per_type["namedGraphStream"] = per_type["timestampedNamedGraphStream"] = failed
            return ElementVerdict(idx, per_type)
        stamps = _timestamps(element, named[0], predicates)
        if not stamps:
            detail = "default graph has no timestamp triple about the graph name"
            per_type["timestampedNamedGraphStream"] = TypeVerdict(False, "no timestamp triple", detail)
            return ElementVerdict(idx, per_type)
        notes: tuple[str, ...] = ()
        if len(stamps) > 1:
            notes = (f"element {idx}: multiple timestamp triples; first in document order wins",)
        predicate, stamp = stamps[0]
        comparable = None
        if self._cfg.check_timestamp_order:
            comparable = _comparable_token(stamp) if stamp.__class__ is str else comparable_timestamp(stamp)
        if comparable is not None:
            key = (predicate, comparable[0])
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
    (grouped framings).  A stream opened here is read in the reader's text
    mode, as indexes of canonical lines.  In a flat framing each statement
    is an element, and every flat stream conforms to its framing's one type.
    """
    classifier = Classifier(framing, cfg, inferred)
    if isinstance(source, (bytes, str, os.PathLike)) or hasattr(source, "read"):
        source = _read_stream(source, framing, "index")
    for item in source:
        classifier.feed(item)
    return classifier.report()
