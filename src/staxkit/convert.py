"""Stream conversion: convert() runs the plan that taxonomy.plan() makes,
each relation stepping the payload as the taxonomy's step table says.

Flatten concatenates the elements' statements (a dataset's in
Dataset.quads() order); group batches consecutive statements, batch_size
at a time, into graphs or datasets with set semantics inside a batch;
extend embeds triples as default-graph quads and graphs as datasets.  The
CLI runs every plan in the reader's text mode instead (see io._read).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .errors import MixedPayload
from .framing import Payload
from .model import _ITEM_CLASS, Dataset, Graph, Quad
from .taxonomy import _STEPS, InferredTaxonomy, payload_kind, plan


def convert(
    items: Iterable,
    from_type: str,
    to_type: str,
    inferred: InferredTaxonomy,
    policy: str = "strict",
    batch_size: int | None = None,
) -> Iterator:
    """Convert a stream between two concrete stream types, lazily.

    The plan is made, and its errors raised, before any item is read;
    grouping steps use batch_size (default 1).  The first item that is not
    of the source payload's class raises MixedPayload, naming its index.
    """
    payload = payload_kind(inferred, from_type)
    relations = plan(from_type, to_type, inferred, policy, batch_size)
    out = _checked(items, from_type, _ITEM_CLASS[payload])
    for relation in relations:
        out = _step(out, relation, payload, batch_size or 1)
        payload = _STEPS[relation][payload]
    return out


def _checked(items: Iterable, from_type: str, kind: type) -> Iterator:
    for index, item in enumerate(items):
        if not isinstance(item, kind):
            name = type(item).__name__
            raise MixedPayload(f"item {index} of a {from_type} stream is a {name}, not a {kind.__name__}")
        yield item


def _step(items: Iterator, relation: str, payload: Payload, size: int) -> Iterator:
    """The items of one relation's step on a stream of payload."""
    if relation == "flatten":
        for element in items:
            yield from element.quads() if payload is Payload.DATASETS else element
    elif relation == "extend" and payload is Payload.TRIPLES:
        for triple in items:
            yield tuple.__new__(Quad, triple + (None,))  # its fields were checked
    elif relation == "extend":
        for graph in items:
            yield Dataset(default_graph=graph)
    elif payload is Payload.TRIPLES:
        while batch := dict.fromkeys(islice(items, size)):
            yield Graph._of(batch)
    else:
        while batch := list(islice(items, size)):
            yield Dataset.from_quads(batch)
