"""Stream type taxonomy: types, relations, and inferred closures.

A taxonomy is a set of stream types (abstract or concrete) connected by
four relations:

* broader: the type hierarchy (narrower type points at its broader type)
* canBeFlattenedInto: a grouped formulation can be flattened to a flat one
* canBeGroupedInto: a flat formulation can be batched into a grouped one
* canBeTriviallyExtendedInto: embed without restructuring (triple kinds
  into quad kinds, graphs into single-graph datasets)

Inference closes broader transitively (irreflexive) and then propagates
each conversion relation down the hierarchy: whatever a broader type can
convert into, its narrower types can convert into as well.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple

from .errors import CycleError, DanglingReference, SchemaError, UnknownType

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

# Anchor type ids used for side checks and payload-kind derivation when the
# taxonomy defines them.
GROUPED_SIDE = "groupedStream"
FLAT_SIDE = "flatStream"


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

    __slots__ = ("_types", "_relations", "_ancestors")

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
        rels: dict[str, tuple[Edge, ...]] = {name: () for name in RELATION_NAMES}
        for name, edges in (relations or {}).items():
            rel = normalize_relation(name)
            seen: dict[Edge, None] = {}
            for a, b in edges:
                seen[(a, b)] = None
            rels[rel] = tuple(seen)
        self._types = by_id
        self._relations = rels
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
        if GROUPED_SIDE in self._types and FLAT_SIDE in self._types:
            self._check_sides()

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

    def side(self, type_id: str) -> str | None:
        """'grouped' or 'flat' by the side anchor type_id is or narrows, else None."""
        reach = self._ancestors.get(type_id)
        if reach is None:
            return None
        for anchor, name in ((GROUPED_SIDE, "grouped"), (FLAT_SIDE, "flat")):
            if type_id == anchor or anchor in reach:
                return name
        return None

    def _check_sides(self) -> None:
        expectations = {
            FLATTEN: ("grouped", "flat"),
            GROUP: ("flat", "grouped"),
        }
        for rel, (want_from, want_to) in expectations.items():
            for a, b in self._relations[rel]:
                if self.side(a) != want_from or self.side(b) != want_to:
                    raise SchemaError(
                        f"{rel} edge ({a}, {b}) must go from the {want_from} side "
                        f"to the {want_to} side"
                    )
        for a, b in self._relations[EXTEND]:
            if self.side(a) is None or self.side(a) != self.side(b):
                raise SchemaError(
                    f"{EXTEND} edge ({a}, {b}) must stay on one side of the hierarchy"
                )

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
    if not isinstance(doc, dict):
        raise SchemaError("taxonomy document must be a JSON object")
    extra = set(doc) - {"types", "relations"}
    if extra:
        raise SchemaError(f"unknown taxonomy keys: {', '.join(sorted(extra))}")
    if "types" not in doc:
        raise SchemaError("taxonomy document needs a 'types' array")
    raw_types = doc["types"]
    if not isinstance(raw_types, list):
        raise SchemaError("'types' must be an array")

    types: list[StreamType] = []
    for entry in raw_types:
        if not isinstance(entry, dict):
            raise SchemaError("every type entry must be an object")
        extra = set(entry) - {"id", "iri", "kind", "label"}
        if extra:
            raise SchemaError(f"unknown type entry keys: {', '.join(sorted(extra))}")
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
        rel = normalize_relation(relation)
        return {
            BROADER: self.broader_closure,
            FLATTEN: self.flatten_closure,
            GROUP: self.group_closure,
            EXTEND: self.extend_closure,
        }[rel]


def infer_closure(taxonomy: Taxonomy) -> InferredTaxonomy:
    """Compute the transitive broader closure and propagated conversion closures.

    broader closure: least transitive superset of the broader edges
    (irreflexive; the hierarchy is acyclic so no reflexive pairs appear).
    Conversion closures: least fixpoint of
        rel ∪ {(x, z) | (x, y) in broaderClosure and (y, z) in rel}
    The ancestor map is transitive, so one pass reaches it: (x, z) whenever
    (y, z) is asserted and y is x or an ancestor of x; linear in the closures.
    """
    lineage = {x: (x, *taxonomy.ancestors(x)) for x in taxonomy.type_ids()}

    def propagate(relation: str) -> frozenset[Edge]:
        targets: dict[str, list[str]] = {}
        for y, z in taxonomy.edges(relation):
            targets.setdefault(y, []).append(z)
        return frozenset(
            (x, z) for x, up in lineage.items() for y in up for z in targets.get(y, ())
        )

    return InferredTaxonomy(
        taxonomy=taxonomy,
        broader_closure=frozenset((x, y) for x, up in lineage.items() for y in up[1:]),
        flatten_closure=propagate(FLATTEN),
        group_closure=propagate(GROUP),
        extend_closure=propagate(EXTEND),
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


_STEP_RELATIONS = (("flatten", FLATTEN), ("group", GROUP), ("extend", EXTEND))


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
        for short, rel in _STEP_RELATIONS:
            if (from_id, to_id) in inferred.closure(rel):
                return [ConversionStep(short, from_id, to_id)]
        return None

    # Breadth-first layers over the closure steps: every shortest plan steps
    # from one layer into the next and ends at a node that reaches to_id.
    steps = [
        (rank, short, a, b)
        for rank, (short, rel) in enumerate(_STEP_RELATIONS)
        for a, b in inferred.closure(rel)
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
