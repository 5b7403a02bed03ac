"""Stream conversions: flatten, group, extend, and composition.

Flattening concatenates element contents in order.  Grouping batches a
flat stream into count-sized elements.  Extending embeds triples/graphs
into the quad/dataset world by placing everything in the default graph.

convert() composes these primitives along the plan that taxonomy.plan()
makes, so e.g. a graph stream reaches a flat quad stream via extend then
flatten under the transitive policy; the taxonomy's step table gives the
payload after each step, and its load made sure every plan fits.  Flattening and extending change
no statement, only the framing: the CLI writes their plans from the
elements as read (see writer).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidBatchSize, MixedPayload
from .framing import Payload
from .model import Dataset, Element, Graph, Quad, Statement, Triple
from .taxonomy import _STEPS, InferredTaxonomy, payload_kind, plan


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


def convert(
    items: Iterable,
    from_type: str,
    to_type: str,
    inferred: InferredTaxonomy,
    policy: str = "strict",
    batch_size: int | None = None,
) -> Iterator:
    """Convert a stream between two concrete stream types: the primitives
    of plan(), which raises before any item is read; grouping steps use
    batch_size (default 1)."""
    kind = payload_kind(inferred, from_type)
    out: Iterable = items
    for relation in plan(from_type, to_type, inferred, policy, batch_size):
        if relation == "flatten":
            out = flatten_graphs(out) if kind is Payload.GRAPHS else flatten_datasets(out)
        elif relation == "group":
            out = group_statements(out, batch_size or 1, _STEPS[relation][kind])
        else:
            out = extend(out, kind)
        kind = _STEPS[relation][kind]
    return iter(out)
