"""Seeded pseudo-random stream corpora for property and acceptance tests.

All generators take a random.Random so corpora are reproducible.  The
classification corpus mixes rooted trees (one candidate subject), cycles
(several candidates), disconnected and empty graphs, plus dataset shapes
with and without timestamps, mostly non-decreasing.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from io import BytesIO

from staxkit.framing import Framing
from staxkit.model import BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple
from staxkit.writer import write_stream

EX = "http://example.org/"
PROV_AT = "http://www.w3.org/ns/prov#generatedAtTime"
XSD = "http://www.w3.org/2001/XMLSchema#"

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
          "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"]


def framed_bytes(elements, framing: Framing) -> bytes:
    """What write_stream writes for a framed stream, as one bytes object."""
    sink = BytesIO()
    write_stream(elements, framing, sink)
    return sink.getvalue()


def gen_iri(r: random.Random, pool: int = 40) -> Iri:
    return Iri(f"{EX}{r.choice(_WORDS)}/{r.randrange(pool)}")


def gen_predicate(r: random.Random) -> Iri:
    return Iri(f"{EX}p/{r.choice(_WORDS)}")


def gen_literal(r: random.Random) -> Literal:
    roll = r.random()
    if roll < 0.4:
        return Literal(r.choice(_WORDS) + " " * r.randrange(2) + str(r.randrange(99)))
    if roll < 0.55:
        return Literal('tricky "quoted"\n\tline\\' + r.choice(_WORDS))
    if roll < 0.75:
        return Literal(r.choice(_WORDS), language=r.choice(["en", "pl", "de", "en-GB"]))
    return Literal(str(r.randrange(10_000)), datatype=XSD + "integer")


def gen_object(r: random.Random):
    roll = r.random()
    if roll < 0.45:
        return gen_iri(r)
    if roll < 0.6:
        return BlankNode(f"b{r.randrange(30)}")
    return gen_literal(r)


def gen_triple(r: random.Random) -> Triple:
    subject = gen_iri(r) if r.random() < 0.8 else BlankNode(f"b{r.randrange(30)}")
    return Triple(subject, gen_predicate(r), gen_object(r))


def gen_quad(r: random.Random, labeled_prob: float = 0.5) -> Quad:
    t = gen_triple(r)
    label = gen_iri(r, pool=8) if r.random() < labeled_prob else None
    return Quad(t.subject, t.predicate, t.object, label)


def gen_unique_statements(r: random.Random, n: int, quads: bool) -> list:
    """n distinct statements (flat stream without duplicates)."""
    out: list = []
    seen: set = set()
    counter = 0
    while len(out) < n:
        st = gen_quad(r) if quads else gen_triple(r)
        key = (st.subject, st.predicate, st.object,
               st.graph_label if quads else None)
        if key in seen:
            # disambiguate deterministically instead of rerolling forever
            st2 = (Quad if quads else Triple)(
                st.subject, st.predicate, Literal(f"unique-{counter}"),
                *((st.graph_label,) if quads else ()),
            )
            counter += 1
            key = (st2.subject, st2.predicate, st2.object,
                   st2.graph_label if quads else None)
            if key in seen:
                continue
            st = st2
        seen.add(key)
        out.append(st)
    return out


# ---------------------------------------------------------------------------
# Graph elements for classification corpora
# ---------------------------------------------------------------------------


def gen_rooted_graph(r: random.Random, root: Iri, size: int) -> Graph:
    """Tree rooted at root: every node reachable from it, nothing reaches back."""
    triples: list[Triple] = []
    reachable: list = [root]
    for _ in range(max(1, size)):
        subject = r.choice([n for n in reachable if not isinstance(n, Literal)])
        obj = gen_object(r)
        triples.append(Triple(subject, gen_predicate(r), obj))
        reachable.append(obj)
    return Graph(triples)


def gen_cycle_graph(r: random.Random, fresh: int) -> Graph:
    """A small IRI cycle: every member is a candidate subject."""
    k = r.choice([2, 3])
    nodes = [Iri(f"{EX}cycle/{fresh}/{i}") for i in range(k)]
    triples = [
        Triple(nodes[i], gen_predicate(r), nodes[(i + 1) % k]) for i in range(k)
    ]
    return Graph(triples)


def gen_disconnected_graph(r: random.Random) -> Graph:
    a = Triple(gen_iri(r), gen_predicate(r), Literal("island one"))
    b = Triple(gen_iri(r), gen_predicate(r), Literal("island two"))
    while b.subject == a.subject:
        b = Triple(gen_iri(r), gen_predicate(r), Literal("island two"))
    return Graph([a, b])


def gen_graph_stream(r: random.Random, max_elements: int = 10) -> list[Graph]:
    n = r.randrange(max_elements + 1)
    used_roots: list[Iri] = []
    elements: list[Graph] = []
    # Rarely, manufacture the documented greedy blind spot: a cycle (two
    # candidates, greedy takes the smaller) followed by a tree rooted at
    # exactly that smaller node.  Exhaustive assignment still succeeds.
    inject_at = r.randrange(n - 1) if n >= 2 and r.random() < 0.004 else None
    skip_next = False
    for i in range(n):
        if skip_next:
            skip_next = False
            continue
        if i == inject_at:
            fresh = r.randrange(10_000)
            cycle = gen_cycle_graph(r, fresh)
            smallest = min(
                (c for c in cycle.nodes() if isinstance(c, Iri)), key=lambda c: c.value
            )
            elements.append(cycle)
            elements.append(gen_rooted_graph(r, smallest, r.randrange(1, 6)))
            skip_next = True
            continue
        roll = r.random()
        if roll < 0.70:
            # fresh root most of the time; occasional reuse to hit uniqueness
            if used_roots and r.random() < 0.12:
                root = r.choice(used_roots)
            else:
                root = Iri(f"{EX}root/{r.randrange(10_000)}")
            used_roots.append(root)
            elements.append(gen_rooted_graph(r, root, r.randrange(1, 12)))
        elif roll < 0.80:
            elements.append(gen_cycle_graph(r, r.randrange(10_000)))
        elif roll < 0.90:
            elements.append(gen_disconnected_graph(r))
        else:
            elements.append(Graph())
    return elements


# ---------------------------------------------------------------------------
# Dataset elements for classification corpora
# ---------------------------------------------------------------------------


def _timestamp_literal(r: random.Random, base: datetime, step: int) -> Literal:
    roll = r.random()
    if roll < 0.6:
        value = base + timedelta(minutes=step)
        lex = value.isoformat()
        if value.tzinfo is not None and r.random() < 0.5:
            lex = lex.replace("+00:00", "Z")
        return Literal(lex, datatype=XSD + "dateTime")
    if roll < 0.75:
        value = base + timedelta(days=step)
        return Literal(value.date().isoformat(), datatype=XSD + "date")
    if roll < 0.9:
        return Literal(str(1000 + step), datatype=XSD + "integer")
    return Literal("not a timestamp")


def gen_dataset_stream(r: random.Random, max_elements: int = 10) -> list[Dataset]:
    n = r.randrange(max_elements + 1)
    base = datetime(2024, 1, 1, tzinfo=timezone.utc).replace(tzinfo=None)
    base_aware = datetime(2024, 1, 1, tzinfo=timezone.utc)
    elements: list[Dataset] = []
    step = 0
    for i in range(n):
        step += r.randrange(1, 5)
        shape = r.random()
        default: list[Triple] = [gen_triple(r) for _ in range(r.randrange(3))]
        if shape < 0.12:
            named: list[tuple] = []  # zero named graphs
        elif shape < 0.24:
            named = [
                (Iri(f"{EX}g/{i}/a"), Graph([gen_triple(r)])),
                (Iri(f"{EX}g/{i}/b"), Graph([gen_triple(r)])),
            ]
        else:
            name = Iri(f"{EX}g/{i}")
            named = [(name, Graph([gen_triple(r) for _ in range(r.randrange(1, 11))]))]
            if r.random() < 0.82:
                use_aware = r.random() < 0.5
                effective = step if r.random() > 0.15 else max(0, step - 50)
                stamp = _timestamp_literal(
                    r, base_aware if use_aware else base, effective
                )
                default.insert(
                    r.randrange(len(default) + 1),
                    Triple(name, Iri(PROV_AT), stamp),
                )
                if r.random() < 0.05:
                    default.append(Triple(name, Iri(PROV_AT), Literal("9",
                                    datatype=XSD + "integer")))
            if r.random() < 0.1:
                # decoy timestamp about a different node
                default.append(Triple(gen_iri(r), Iri(PROV_AT),
                                      _timestamp_literal(r, base, step)))
        elements.append(Dataset(default_graph=Graph(default), named_graphs=named))
    return elements


def gen_classification_case(r: random.Random):
    """(kind, elements) pair for the oracle-equivalence corpus."""
    if r.random() < 0.5:
        return "graphs", gen_graph_stream(r)
    return "datasets", gen_dataset_stream(r)


# ---------------------------------------------------------------------------
# Elements for I/O round-trip corpora
# ---------------------------------------------------------------------------


def gen_graph_elements(r: random.Random, max_elements: int = 6) -> list[Graph]:
    n = r.randrange(max_elements + 1)
    elements = [Graph([gen_triple(r) for _ in range(r.randrange(6))]) for _ in range(n)]
    if len(elements) == 1 and len(elements[0]) == 0:
        elements[0] = Graph([gen_triple(r)])  # lone empty element is ambiguous on disk
    return elements


def gen_dataset_elements(r: random.Random, max_elements: int = 6) -> list[Dataset]:
    n = r.randrange(max_elements + 1)
    out: list[Dataset] = []
    for i in range(n):
        default = Graph([gen_triple(r) for _ in range(r.randrange(4))])
        named = []
        for j in range(r.randrange(3)):
            named.append(
                (Iri(f"{EX}ng/{i}/{j}"), Graph([gen_triple(r) for _ in range(r.randrange(1, 4))]))
            )
        out.append(Dataset(default_graph=default, named_graphs=named))
    if len(out) == 1 and out[0].statement_count() == 0:
        out[0] = Dataset(default_graph=Graph([gen_triple(r)]))
    return out
