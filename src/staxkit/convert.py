"""Stream conversions: flatten, group, extend, and composition.

Flattening concatenates element contents in order.  Grouping batches a
flat stream into count-sized elements.  Extending embeds triples/graphs
into the quad/dataset world by placing everything in the default graph.

convert() composes these primitives along a taxonomy conversion path, so
e.g. a graph stream reaches a flat quad stream via extend then flatten
under the transitive policy.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    AbstractType,
    InvalidBatchSize,
    MixedPayload,
    NoConversionPath,
    SchemaError,
)
from .framing import Payload
from .model import Dataset, Element, Graph, Quad, Statement, Triple
from .taxonomy import InferredTaxonomy, conversion_path


def flatten_graphs(elements: Iterable[Graph]) -> Iterator[Triple]:
    """Concatenate the triples of each graph, preserving both orders."""
    for g in elements:
        yield from g


def flatten_datasets(elements: Iterable[Dataset]) -> Iterator[Quad]:
    """Concatenate the quads of each dataset, in Dataset.quads() order."""
    for d in elements:
        yield from d.quads()


def group_statements(
    statements: Iterable[Statement], batch_size: int, kind: str
) -> Iterator[Element]:
    """Batch consecutive statements into elements of batch_size (last may
    be smaller): graphs when kind is 'graphs', datasets when 'datasets'.

    Duplicates within one batch are absorbed by set semantics.
    """
    if batch_size < 1:
        raise InvalidBatchSize(f"batch size must be >= 1, got {batch_size}")
    if kind not in (Payload.GRAPHS, Payload.DATASETS):
        raise ValueError(f"kind must be 'graphs' or 'datasets', got {kind!r}")

    def emit(batch: list[Statement]) -> Element:
        if kind == Payload.GRAPHS:
            triples = []
            for st in batch:
                if isinstance(st, Quad):
                    if st.graph_label is not None:
                        raise MixedPayload("cannot group a named-graph quad into a graph")
                    st = st.triple()
                triples.append(st)
            return Graph(triples)
        return Dataset.from_quads(
            st if isinstance(st, Quad) else Quad(st.subject, st.predicate, st.object)
            for st in batch
        )

    def run() -> Iterator[Element]:
        batch: list[Statement] = []
        for st in statements:
            batch.append(st)
            if len(batch) == batch_size:
                yield emit(batch)
                batch = []
        if batch:
            yield emit(batch)

    return run()


def extend(items: Iterable, source_kind: str) -> Iterator:
    """Embed triples as default-graph quads or graphs as datasets."""
    if source_kind == Payload.TRIPLES:
        for st in items:
            if not isinstance(st, Triple):
                raise MixedPayload(f"extend expected Triple, got {type(st).__name__}")
            yield Quad(st.subject, st.predicate, st.object)
    elif source_kind == Payload.GRAPHS:
        for g in items:
            if not isinstance(g, Graph):
                raise MixedPayload(f"extend expected Graph, got {type(g).__name__}")
            yield Dataset(default_graph=g)
    else:
        raise ValueError(f"source_kind must be 'triples' or 'graphs', got {source_kind!r}")


# ---------------------------------------------------------------------------
# Composition along taxonomy paths
# ---------------------------------------------------------------------------

_ANCHOR_PAYLOADS = {
    "flatTripleStream": Payload.TRIPLES,
    "flatQuadStream": Payload.QUADS,
    "graphStream": Payload.GRAPHS,
    "datasetStream": Payload.DATASETS,
}

# relation -> {source payload: target payload}
_STEPS = {
    "flatten": {Payload.GRAPHS: Payload.TRIPLES, Payload.DATASETS: Payload.QUADS},
    "group": {Payload.TRIPLES: Payload.GRAPHS, Payload.QUADS: Payload.DATASETS},
    "extend": {Payload.TRIPLES: Payload.QUADS, Payload.GRAPHS: Payload.DATASETS},
}


def payload_kind(inferred: InferredTaxonomy, type_id: str) -> Payload:
    """Payload of a concrete type: which built-in anchor it descends from."""
    taxonomy = inferred.taxonomy
    if taxonomy.type(type_id).kind.value != "concrete":
        raise AbstractType(f"{type_id} is abstract; only concrete types have a payload")
    reach = {type_id, *taxonomy.ancestors(type_id)}
    matches = [payload for anchor, payload in _ANCHOR_PAYLOADS.items() if anchor in reach]
    if len(matches) != 1:
        raise SchemaError(
            f"concrete type {type_id} must be or narrow exactly one of "
            f"{', '.join(_ANCHOR_PAYLOADS)}, found {len(matches)}"
        )
    return matches[0]


def convert(
    items: Iterable,
    from_type: str,
    to_type: str,
    inferred: InferredTaxonomy,
    policy: str = "strict",
    batch_size: int | None = None,
) -> Iterator:
    """Convert a stream between two concrete stream types.

    Applies the primitives dictated by conversionPath(policy); grouping
    steps use batch_size (default 1).  Raises NoConversionPath when the
    policy admits no plan.
    """
    kind = payload_kind(inferred, from_type)
    expect = payload_kind(inferred, to_type)
    if batch_size is not None and batch_size < 1:
        raise InvalidBatchSize(f"batch size must be >= 1, got {batch_size}")
    steps = conversion_path(inferred, from_type, to_type, policy)
    if steps is None:
        raise NoConversionPath(from_type, to_type, policy)

    out: Iterable = items
    for step in steps:
        target = _STEPS[step.relation].get(kind)
        if target is None:
            raise MixedPayload(f"cannot {step.relation} a {kind.value} stream")
        if step.relation == "flatten":
            out = flatten_graphs(out) if kind is Payload.GRAPHS else flatten_datasets(out)
        elif step.relation == "group":
            out = group_statements(out, batch_size or 1, target)
        else:
            out = extend(out, kind)
        kind = target
    if kind is not expect:
        raise MixedPayload(
            f"conversion plan ends at a {kind.value} stream but {to_type} holds {expect.value}"
        )
    return iter(out)
