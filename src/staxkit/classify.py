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

The engine reads each element once.  Memory is bounded except for the
chosen subjects (one entry per element that found an unused candidate), the
report notes (one per element with several candidate subjects or several
timestamp triples) and the capped evidence buffer.
"""

from __future__ import annotations

import os
import re
from datetime import datetime, timezone
from decimal import Decimal
from typing import Iterable, Iterator, NamedTuple, Union

from .framing import Framing, Payload
from .io import Source, read_flat_stream, read_grouped_stream
from .model import Dataset, Frozen, Graph, Iri, Literal, Quad, Term, Triple
from .taxonomy import InferredTaxonomy, default_taxonomy, infer_closure, most_specific

PROV_GENERATED_AT_TIME = Iri("http://www.w3.org/ns/prov#generatedAtTime")

XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


class ClassifierConfig(Frozen):
    __slots__ = ("timestamp_predicates", "check_timestamp_order", "max_evidence")

    def __init__(
        self,
        timestamp_predicates: frozenset[Iri] = frozenset({PROV_GENERATED_AT_TIME}),
        check_timestamp_order: bool = True,
        max_evidence: int = 10,
    ):
        if not timestamp_predicates:
            raise ValueError("timestamp_predicates must not be empty")
        if max_evidence < 0:
            raise ValueError("max_evidence must be non-negative")
        object.__setattr__(self, "timestamp_predicates", timestamp_predicates)
        object.__setattr__(self, "check_timestamp_order", check_timestamp_order)
        object.__setattr__(self, "max_evidence", max_evidence)


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


def check_named_graph_shape(dataset: Dataset) -> tuple[Term, Graph] | None:
    """The (name, graph) pair when the dataset has exactly one named graph.

    Default-graph content never disqualifies the shape.
    """
    items = dataset.named_items()
    if len(items) != 1:
        return None
    return items[0]


def check_timestamped_named_graph(
    dataset: Dataset, cfg: ClassifierConfig
) -> tuple[Term, Iri, Term] | None:
    """The (name, predicate, timestamp) of the first timestamp triple.

    Requires the one-named-graph shape; the timestamp triple must sit in
    the default graph with the graph name as its subject.  When several
    triples qualify the first one in document order wins.
    """
    shape = check_named_graph_shape(dataset)
    if shape is None:
        return None
    stamps = _timestamp_triples(dataset, shape[0], cfg)
    return (shape[0], stamps[0].predicate, stamps[0].object) if stamps else None


def _timestamp_triples(dataset: Dataset, name: Term, cfg: ClassifierConfig) -> list[Triple]:
    """Default-graph triples about name with a timestamp predicate, in document order."""
    return [t for t in dataset.default_graph if t.subject == name and t.predicate in cfg.timestamp_predicates]


# The XSD lexical spaces of the numeric timestamp types, in ASCII digits.
# Decimal() alone would also take exponents, underscores, other scripts'
# digits, NaN and Infinity.
_NUMERIC_LEXICAL = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+"),
    XSD_DECIMAL: re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"),
}


def comparable_timestamp(term: Term) -> tuple[str, object] | None:
    """(comparability domain, value) for an orderable timestamp, else None.

    Chronological values split into offset-aware and naive domains because
    the two cannot be compared; dates are promoted to naive midnights.
    Finite numeric timestamps share one decimal domain.  Everything else,
    dates out of range included, is incomparable and never ordered.
    """
    if not isinstance(term, Literal):
        return None
    lex = term.lexical.strip()
    try:
        if term.datatype == XSD_DATETIME:
            dt = datetime.fromisoformat(lex.replace("Z", "+00:00"))
            domain = "chrono-aware" if dt.tzinfo is not None else "chrono-naive"
            return domain, dt
        if term.datatype == XSD_DATE:
            dt = datetime.fromisoformat(lex.replace("Z", "+00:00"))
            if dt.tzinfo is not None:
                dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
            return "chrono-naive", datetime(dt.year, dt.month, dt.day)
    except (ValueError, OverflowError):
        return None
    numeric = _NUMERIC_LEXICAL.get(term.datatype)
    return ("numeric", Decimal(lex)) if numeric is not None and numeric.fullmatch(lex) else None


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------

GRAPH_TYPES = ("graphStream", "subjectGraphStream")
DATASET_TYPES = ("datasetStream", "namedGraphStream", "timestampedNamedGraphStream")

_PASS = TypeVerdict(True)


class ClassifierState:
    """Mutable cross-element state of one classification run."""

    __slots__ = ("subjects", "ambiguous", "order_max")

    def __init__(self) -> None:
        # chosen subject -> index of the element that took it
        self.subjects: dict[Iri, int] = {}
        # whether some element had more than one candidate subject
        self.ambiguous = False
        # (predicate value, comparability domain) -> (max value, its element index)
        self.order_max: dict[tuple[str, str], tuple[object, int]] = {}


def classify_element(
    element: Union[Graph, Dataset],
    state: ClassifierState,
    cfg: ClassifierConfig,
    element_index: int = 0,
) -> ElementVerdict:
    """Verdicts for one element; updates the chosen subjects and order state."""
    if isinstance(element, Graph):
        return _classify_graph(element, state, element_index)
    if isinstance(element, Dataset):
        return _classify_dataset(element, state, cfg, element_index)
    raise TypeError(f"cannot classify {type(element).__name__}")


def _classify_graph(graph: Graph, state: ClassifierState, idx: int) -> ElementVerdict:
    candidates = sorted(candidate_subject_nodes(graph), key=lambda c: c.value)
    chosen = next((c for c in candidates if c not in state.subjects), None)
    notes: tuple[str, ...] = ()
    if len(candidates) > 1:
        state.ambiguous = True
        outcome = "all already used" if chosen is None else f"chose {chosen.value}"
        notes = (f"element {idx}: {len(candidates)} candidate subjects; {outcome}",)
    if chosen is not None:
        state.subjects[chosen] = idx
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
        detail = f"{used.value} first used by element {state.subjects[used]}"
        verdict = TypeVerdict(False, "subject not unique in stream", detail)
    return ElementVerdict(idx, {"graphStream": _PASS, "subjectGraphStream": verdict}, notes)


def _classify_dataset(
    dataset: Dataset, state: ClassifierState, cfg: ClassifierConfig, idx: int
) -> ElementVerdict:
    per_type = dict.fromkeys(DATASET_TYPES, _PASS)
    shape = check_named_graph_shape(dataset)
    if shape is None:
        reason = f"expected exactly one named graph, found {len(dataset.named_items())}"
        failed = TypeVerdict(False, "not a single named graph", reason)
        per_type["namedGraphStream"] = per_type["timestampedNamedGraphStream"] = failed
        return ElementVerdict(idx, per_type)
    stamps = _timestamp_triples(dataset, shape[0], cfg)
    if not stamps:
        detail = "default graph has no timestamp triple about the graph name"
        per_type["timestampedNamedGraphStream"] = TypeVerdict(False, "no timestamp triple", detail)
        return ElementVerdict(idx, per_type)
    notes: tuple[str, ...] = ()
    if len(stamps) > 1:
        notes = (f"element {idx}: multiple timestamp triples; first in document order wins",)
    comparable = comparable_timestamp(stamps[0].object) if cfg.check_timestamp_order else None
    if comparable is not None:
        key = (stamps[0].predicate.value, comparable[0])
        prev = state.order_max.get(key)
        if prev is not None and comparable[1] < prev[0]:  # type: ignore[operator]
            detail = f"timestamp precedes the one from element {prev[1]}"
            per_type["timestampedNamedGraphStream"] = TypeVerdict(False, "timestamp order violation", detail)
        else:
            state.order_max[key] = (comparable[1], idx)
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
    (grouped framings).
    """
    cfg = cfg or ClassifierConfig()
    inferred = inferred or infer_closure(default_taxonomy())
    if framing.is_flat:
        return _classify_flat(source, framing, cfg, inferred)
    return _classify_grouped(source, framing, cfg, inferred)


def _iterate(source, framing: Framing, reader) -> Iterator:
    """Iterate source, running reader on it unless it is already materialized."""
    if isinstance(source, (bytes, str, os.PathLike)) or hasattr(source, "read"):
        return reader(source, framing)
    return iter(source)


def _classify_flat(
    source, framing: Framing, cfg: ClassifierConfig, inferred: InferredTaxonomy
) -> ClassificationReport:
    applicable = ("flatTripleStream",) if framing is Framing.FLAT_TRIPLES else ("flatQuadStream",)
    count = 0
    all_default_graph = True
    for st in _iterate(source, framing, read_flat_stream):
        count += 1
        if isinstance(st, Quad) and st.graph_label is not None:
            all_default_graph = False
    notes: list[str] = []
    if framing is Framing.FLAT_QUADS and count > 0 and all_default_graph:
        notes.append("projectable to flat triple stream: every quad is in the default graph")
    conforming = applicable
    return ClassificationReport(
        framing=framing,
        element_count=count,
        statement_count=count,
        applicable=applicable,
        conforming=conforming,
        most_specific=most_specific(inferred, conforming),
        first_violation={},
        vacuous=count == 0,
        ambiguous=False,
        notes=tuple(notes),
        evidence=(),
    )


def _classify_grouped(
    source, framing: Framing, cfg: ClassifierConfig, inferred: InferredTaxonomy
) -> ClassificationReport:
    applicable = GRAPH_TYPES if framing.payload is Payload.GRAPHS else DATASET_TYPES
    state = ClassifierState()
    first_violation: dict[str, FirstViolation] = {}
    evidence: list[ElementVerdict] = []
    notes: list[str] = []
    element_count = 0
    statement_count = 0
    for idx, element in enumerate(_iterate(source, framing, read_grouped_stream)):
        element_count += 1
        statement_count += len(element) if isinstance(element, Graph) else element.statement_count()
        verdict = classify_element(element, state, cfg, idx)
        notes.extend(verdict.notes)
        failed = [(t, v) for t, v in verdict.per_type.items() if not v.passed]
        for t, v in failed:
            if t not in first_violation:
                first_violation[t] = FirstViolation(idx, v.reason or "failed")
        if failed and len(evidence) < cfg.max_evidence:
            evidence.append(verdict)
    conforming = tuple(t for t in applicable if t not in first_violation)
    return ClassificationReport(
        framing=framing,
        element_count=element_count,
        statement_count=statement_count,
        applicable=applicable,
        conforming=conforming,
        most_specific=most_specific(inferred, conforming),
        first_violation=first_violation,
        vacuous=element_count == 0,
        ambiguous=state.ambiguous,
        notes=tuple(notes),
        evidence=tuple(evidence),
    )
