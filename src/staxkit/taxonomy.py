"""Stream type taxonomy: types, relations, and inferred closures.

A taxonomy is a set of stream types (abstract or concrete) connected by
four relations:

* broader: the type hierarchy (narrower type points at its broader type)
* canBeFlattenedInto: a grouped formulation can be flattened to a flat one
* canBeGroupedInto: a flat formulation can be batched into a grouped one
* canBeTriviallyExtendedInto: embed without restructuring (triple kinds
  into quad kinds, graphs into single-graph datasets)

Each conversion relation propagates down the hierarchy: whatever a broader
type can convert into, its narrower types can convert into as well.  The
load computes these conversion closures while it checks them (below), in
time linear in their size; inference adds broader's transitive closure
(irreflexive) from the ancestor map.

Four anchor types fix what a type carries (_ANCHORS): a type that is or
narrows one carries its payload, and may narrow no second.  Each conversion
relation is a step on payloads (_STEPS).  The load refuses a closure edge
that touches a payload and that the step table does not map, so every plan
between payload-carrying types is one that convert can run.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    AbstractType,
    CycleError,
    DanglingReference,
    InvalidBatchSize,
    NoConversionPath,
    SchemaError,
    UnknownType,
)
from .framing import Payload

STAX_NS = "https://w3id.org/stax/ontology#"

BROADER = "broader"
FLATTEN = "canBeFlattenedInto"
GROUP = "canBeGroupedInto"
EXTEND = "canBeTriviallyExtendedInto"
RELATION_NAMES = (BROADER, FLATTEN, GROUP, EXTEND)

# Short aliases accepted wherever a relation is named by the caller.
_RELATION_ALIASES = {
    "broader": BROADER,
    "flatten": FLATTEN,
    "group": GROUP,
    "extend": EXTEND,
    BROADER: BROADER,
    FLATTEN: FLATTEN,
    GROUP: GROUP,
    EXTEND: EXTEND,
}

# The payload of each anchor type, which every type that is or narrows it carries.
_ANCHORS = {
    "flatTripleStream": Payload.TRIPLES,
    "flatQuadStream": Payload.QUADS,
    "graphStream": Payload.GRAPHS,
    "datasetStream": Payload.DATASETS,
}

# The step each conversion relation takes on payloads, by short name in the
# planner's tie-break rank: short name -> {source payload: target payload}.
_STEPS = {
    "flatten": {Payload.GRAPHS: Payload.TRIPLES, Payload.DATASETS: Payload.QUADS},
    "group": {Payload.TRIPLES: Payload.GRAPHS, Payload.QUADS: Payload.DATASETS},
    "extend": {Payload.TRIPLES: Payload.QUADS, Payload.GRAPHS: Payload.DATASETS},
}


def normalize_relation(name: str) -> str:
    rel = _RELATION_ALIASES.get(name)
    if rel is None:
        raise ValueError(f"unknown relation name: {name!r}")
    return rel


class TypeKind(enum.Enum):
    ABSTRACT = "abstract"
    CONCRETE = "concrete"


class StreamType(NamedTuple):
    id: str
    iri: str
    kind: TypeKind
    label: str


Edge = tuple[str, str]


class Taxonomy:
    """Validated set of stream types plus base relation edges."""

    __slots__ = ("_types", "_relations", "_ancestors", "_payloads", "_closures")

    def __init__(
        self,
        types: Iterable[StreamType],
        relations: Mapping[str, Iterable[Edge]] | None = None,
    ):
        by_id: dict[str, StreamType] = {}
        for t in types:
            if t.id in by_id:
                raise SchemaError(f"duplicate stream type id: {t.id}")
            by_id[t.id] = t
        # Edges given under a relation's alias and its full name merge, each once.
        rels: dict[str, dict[Edge, None]] = {name: {} for name in RELATION_NAMES}
        for name, edges in (relations or {}).items():
            rels[normalize_relation(name)].update(((a, b), None) for a, b in edges)
        self._types = by_id
        self._relations = {name: tuple(edges) for name, edges in rels.items()}
        self._validate()

    # -- basic access -------------------------------------------------------

    @property
    def types(self) -> dict[str, StreamType]:
        return dict(self._types)

    def type(self, type_id: str) -> StreamType:
        t = self._types.get(type_id)
        if t is None:
            raise UnknownType(f"unknown stream type: {type_id}")
        return t

    def has_type(self, type_id: str) -> bool:
        return type_id in self._types

    def type_ids(self) -> tuple[str, ...]:
        return tuple(self._types)

    def edges(self, relation: str) -> tuple[Edge, ...]:
        return self._relations[normalize_relation(relation)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return self._types == other._types and {
            k: frozenset(v) for k, v in self._relations.items()
        } == {k: frozenset(v) for k, v in other._relations.items()}

    def __hash__(self) -> int:  # keeps an InferredTaxonomy, which holds one, hashable
        return hash(frozenset(self._types))

    def __repr__(self) -> str:
        return f"Taxonomy({len(self._types)} types)"

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        for name, edges in self._relations.items():
            for a, b in edges:
                for endpoint in (a, b):
                    if endpoint not in self._types:
                        raise DanglingReference(
                            f"{name} edge ({a}, {b}) references unknown type {endpoint}"
                        )
        self._ancestors = self._broader_ancestors()
        for t in self._types.values():
            if t.kind is TypeKind.CONCRETE and not any(
                self._types[a].kind is TypeKind.ABSTRACT for a in self._ancestors[t.id]
            ):
                raise SchemaError(f"concrete type {t.id} has no abstract ancestor")
        self._payloads = payloads = {}
        for t, up in self._ancestors.items():
            found = [a for a in _ANCHORS if a == t or a in up]
            if len(found) > 1:
                raise SchemaError(f"type {t} is or narrows more than one payload anchor: {', '.join(found)}")
            if found:
                payloads[t] = _ANCHORS[found[0]]
        # Every closure edge (x, b) of an asserted (a, b), x being a or below
        # it, must step x's payload to b's; edges between payload-less types
        # are not checked.  below[a] is a, then the types under it in the
        # ancestor map's post-order.  The load keeps the closures it checks,
        # in _STEPS order, which is RELATION_NAMES's.
        below: dict[str, list[str]] = {t: [t] for t in self._ancestors}
        for t, up in self._ancestors.items():
            for a in up:
                below[a].append(t)
        self._closures = []
        for short, step in _STEPS.items():
            rel, fits = normalize_relation(short), {(None, None), *step.items()}
            closure: set[Edge] = set()
            for a, b in self._relations[rel]:
                to = payloads.get(b)
                for x in below[a]:
                    held = payloads.get(x)
                    if (held, to) not in fits:
                        raise SchemaError(
                            f"{rel} edge ({a}, {b}) cannot take {x} ({held.value if held else 'no payload'}) "
                            f"to {b} ({to.value if to else 'no payload'})"
                        )
                    closure.add((x, b))
            self._closures.append(frozenset(closure))

    def _broader_ancestors(self) -> dict[str, frozenset[str]]:
        """Strict broader ancestors of every type, built in post-order by one
        iterative DFS that raises CycleError on the first cycle it meets."""
        succ: dict[str, list[str]] = {i: [] for i in self._types}
        for a, b in self._relations[BROADER]:
            succ[a].append(b)
        done: dict[str, frozenset[str]] = {}
        for start in self._types:
            if start in done:
                continue
            # The current DFS path in order, each node with its unvisited edges.
            trail = {start: iter(succ[start])}
            while trail:
                node, rest = next(reversed(trail.items()))
                nxt = next(rest, None)
                if nxt is None:
                    del trail[node]
                    done[node] = frozenset(succ[node]).union(*(done[b] for b in succ[node]))
                elif nxt in trail:
                    path = list(trail)
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CycleError("broader cycle: " + " -> ".join(cycle))
                elif nxt not in done:
                    trail[nxt] = iter(succ[nxt])
        return done

    def ancestors(self, type_id: str) -> frozenset[str]:
        """Strict broader ancestors of type_id (transitive, never itself)."""
        return self._ancestors[self.type(type_id).id]

    def payload(self, type_id: str) -> Payload | None:
        """The payload of the one anchor type_id is or narrows, else None."""
        return self._payloads.get(self.type(type_id).id)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "types": [
                {"id": t.id, "iri": t.iri, "kind": t.kind.value, "label": t.label}
                for t in self._types.values()
            ],
            "relations": [
                [a, name, b]
                for name in RELATION_NAMES
                for a, b in sorted(self._relations[name])
            ],
        }


def _check_object(value: object, keys: set[str], refusal: str, name: str) -> None:
    """Refuse a JSON value that is no object, with refusal, or that has other
    keys than keys, naming them as name keys."""
    if not isinstance(value, dict):
        raise SchemaError(refusal)
    if extra := set(value) - keys:
        raise SchemaError(f"unknown {name} keys: {', '.join(sorted(extra))}")


def _read_text(path: str) -> str:
    """A UTF-8 document, a taxonomy or an annotation manifest; bad encoding
    is a SchemaError.  The CLI reads both through it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not valid UTF-8: {exc}") from None


def load_taxonomy(text: str) -> Taxonomy:
    """Parse a JSON taxonomy document.

    Shape: {"types": [{"id", "iri", "kind", "label"?}, ...],
            "relations": [[fromId, relationName, toId], ...]}
    """
    import json  # imported here, like Iri: only a taxonomy document needs them

    from .model import Iri

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"taxonomy is not valid JSON: {exc}") from exc
    _check_object(doc, {"types", "relations"}, "taxonomy document must be a JSON object", "taxonomy")
    if "types" not in doc:
        raise SchemaError("taxonomy document needs a 'types' array")
    raw_types = doc["types"]
    if not isinstance(raw_types, list):
        raise SchemaError("'types' must be an array")

    types: list[StreamType] = []
    for entry in raw_types:
        _check_object(entry, {"id", "iri", "kind", "label"}, "every type entry must be an object", "type entry")
        for key in ("id", "iri", "kind"):
            if key not in entry or not isinstance(entry[key], str):
                raise SchemaError(f"type entry needs a string '{key}'")
        try:
            kind = TypeKind(entry["kind"])
        except ValueError:
            raise SchemaError(
                f"type kind must be 'abstract' or 'concrete', got {entry['kind']!r}"
            ) from None
        try:
            Iri(entry["iri"])
        except Exception as exc:
            raise SchemaError(f"type {entry['id']}: bad iri: {exc}") from exc
        label = entry.get("label", entry["id"])
        if not isinstance(label, str):
            raise SchemaError(f"type {entry['id']}: label must be a string")
        types.append(StreamType(entry["id"], entry["iri"], kind, label))

    relations: dict[str, list[Edge]] = {name: [] for name in RELATION_NAMES}
    raw_relations = doc.get("relations", [])
    if not isinstance(raw_relations, list):
        raise SchemaError("'relations' must be an array")
    for entry in raw_relations:
        if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(x, str) for x in entry)):
            raise SchemaError("every relation entry must be [fromId, relation, toId]")
        a, name, b = entry
        try:
            rel = normalize_relation(name)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        relations[rel].append((a, b))
    return Taxonomy(types, relations)


def default_taxonomy() -> Taxonomy:
    """The built-in stream type taxonomy (10 types, 4 relations)."""
    def st(type_id: str, kind: TypeKind, label: str) -> StreamType:
        return StreamType(type_id, STAX_NS + type_id, kind, label)

    types = [
        st("rdfStream", TypeKind.ABSTRACT, "RDF stream"),
        st("groupedStream", TypeKind.ABSTRACT, "grouped RDF stream"),
        st("flatStream", TypeKind.ABSTRACT, "flat RDF stream"),
        st("graphStream", TypeKind.CONCRETE, "RDF graph stream"),
        st("subjectGraphStream", TypeKind.CONCRETE, "RDF subject graph stream"),
        st("datasetStream", TypeKind.CONCRETE, "RDF dataset stream"),
        st("namedGraphStream", TypeKind.CONCRETE, "RDF named graph stream"),
        st("timestampedNamedGraphStream", TypeKind.CONCRETE, "timestamped RDF named graph stream"),
        st("flatTripleStream", TypeKind.CONCRETE, "flat RDF triple stream"),
        st("flatQuadStream", TypeKind.CONCRETE, "flat RDF quad stream"),
    ]
    relations = {
        BROADER: [
            ("groupedStream", "rdfStream"),
            ("flatStream", "rdfStream"),
            ("graphStream", "groupedStream"),
            ("subjectGraphStream", "graphStream"),
            ("datasetStream", "groupedStream"),
            ("namedGraphStream", "datasetStream"),
            ("timestampedNamedGraphStream", "namedGraphStream"),
            ("flatTripleStream", "flatStream"),
            ("flatQuadStream", "flatStream"),
        ],
        FLATTEN: [
            ("graphStream", "flatTripleStream"),
            ("datasetStream", "flatQuadStream"),
        ],
        GROUP: [
            ("flatTripleStream", "graphStream"),
            ("flatQuadStream", "datasetStream"),
        ],
        EXTEND: [
            ("graphStream", "datasetStream"),
            ("flatTripleStream", "flatQuadStream"),
        ],
    }
    return Taxonomy(types, relations)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class InferredTaxonomy(NamedTuple):
    """A taxonomy plus its inferred relation closures."""

    taxonomy: Taxonomy
    broader_closure: frozenset[Edge]
    flatten_closure: frozenset[Edge]
    group_closure: frozenset[Edge]
    extend_closure: frozenset[Edge]

    def closure(self, relation: str) -> frozenset[Edge]:
        # The closure fields follow the taxonomy field in RELATION_NAMES order.
        return self[1 + RELATION_NAMES.index(normalize_relation(relation))]


def infer_closure(taxonomy: Taxonomy) -> InferredTaxonomy:
    """The transitive broader closure and the conversion closures.

    broader closure: least transitive superset of the broader edges
    (irreflexive; the hierarchy is acyclic so no reflexive pairs appear),
    read from the ancestor map.  Conversion closures: least fixpoint of
        rel ∪ {(x, z) | (x, y) in broaderClosure and (y, z) in rel}
    which the load computed while checking each of their edges.
    """
    return InferredTaxonomy(
        taxonomy,
        frozenset((x, y) for x, up in taxonomy._ancestors.items() for y in up),
        *taxonomy._closures,
    )


def relates(inferred: InferredTaxonomy, relation: str, from_id: str, to_id: str) -> bool:
    """True when (from, to) is in the inferred closure of the relation."""
    inferred.taxonomy.type(from_id)
    inferred.taxonomy.type(to_id)
    return (from_id, to_id) in inferred.closure(relation)


def most_specific(inferred: InferredTaxonomy, type_ids: Iterable[str]) -> tuple[str, ...]:
    """Drop every type that has a strictly narrower type in the set."""
    ids = list(dict.fromkeys(type_ids))
    for i in ids:
        inferred.taxonomy.type(i)
    keep = [
        t
        for t in ids
        if not any(u != t and (u, t) in inferred.broader_closure for u in ids)
    ]
    return tuple(sorted(keep))


# ---------------------------------------------------------------------------
# Conversion paths
# ---------------------------------------------------------------------------


class ConversionStep(NamedTuple):
    relation: str  # 'flatten' | 'group' | 'extend'
    source: str
    target: str


def conversion_path(
    inferred: InferredTaxonomy,
    from_id: str,
    to_id: str,
    policy: str = "strict",
) -> list[ConversionStep] | None:
    """Plan a conversion from one stream type to another.

    Returns [] when the source type already is the target type or a
    narrower one (nothing to do), a list of steps otherwise, or None when
    no plan exists under the policy.

    * strict: at most one step, taken directly from an inferred closure.
    * transitive: shortest chain of closure steps; ties are broken by
      preferring flatten over group over extend, then the lesser target id,
      comparing steps from the end of the chain backwards.
    """
    if policy not in ("strict", "transitive"):
        raise ValueError(f"policy must be 'strict' or 'transitive', got {policy!r}")
    taxonomy = inferred.taxonomy
    taxonomy.type(from_id)
    taxonomy.type(to_id)
    if from_id == to_id or (from_id, to_id) in inferred.broader_closure:
        return []

    if policy == "strict":
        for short in _STEPS:
            if (from_id, to_id) in inferred.closure(short):
                return [ConversionStep(short, from_id, to_id)]
        return None

    # Breadth-first layers over the closure steps: every shortest plan steps
    # from one layer into the next and ends at a node that reaches to_id.
    steps = [
        (rank, short, a, b)
        for rank, short in enumerate(_STEPS)
        for a, b in inferred.closure(short)
    ]
    layers = [{from_id}]
    seen = {from_id}
    kept: set[str] = set()
    while not kept:
        layer = {b for _, _, a, b in steps if a in layers[-1] and b not in seen}
        if not layer:
            return None
        seen |= layer
        layers.append(layer)
        kept = {n for n in layer if n == to_id or (n, to_id) in inferred.broader_closure}
    # Plans compare by (rank, target) from the last step backwards, so take
    # the least step into the kept nodes, one layer at a time from the end.
    chosen: list[tuple[str, str]] = []
    for layer in reversed(layers[:-1]):
        rank, target, short = min(
            (rank, b, short) for rank, short, a, b in steps if a in layer and b in kept
        )
        chosen.append((short, target))
        kept = {a for r, _, a, b in steps if r == rank and b == target and a in layer}
    chosen.reverse()
    sources = [from_id] + [target for _, target in chosen]
    return [ConversionStep(short, a, b) for a, (short, b) in zip(sources, chosen)]


def payload_kind(inferred: InferredTaxonomy, type_id: str) -> Payload:
    """Payload of a concrete type: which anchor it is or narrows."""
    taxonomy = inferred.taxonomy
    if taxonomy.type(type_id).kind is not TypeKind.CONCRETE:
        raise AbstractType(f"{type_id} is abstract; only concrete types have a payload")
    payload = taxonomy.payload(type_id)
    if payload is None:
        raise SchemaError(
            f"concrete type {type_id} must be or narrow exactly one of {', '.join(_ANCHORS)}, found 0"
        )
    return payload


def plan(
    from_type: str,
    to_type: str,
    inferred: InferredTaxonomy,
    policy: str = "strict",
    batch_size: int | None = None,
) -> list[str]:
    """The relations convert applies between two concrete stream types, in
    order.  Raises AbstractType, SchemaError for a type with no payload,
    InvalidBatchSize, or NoConversionPath when the policy admits no plan.
    The load checked every closure edge against the step table, so each
    plan steps the source's payload to the target's."""
    payload_kind(inferred, from_type)
    payload_kind(inferred, to_type)
    if batch_size is not None and batch_size < 1:
        raise InvalidBatchSize(f"batch size must be >= 1, got {batch_size}")
    steps = conversion_path(inferred, from_type, to_type, policy)
    if steps is None:
        raise NoConversionPath(from_type, to_type, policy)
    return [step.relation for step in steps]
