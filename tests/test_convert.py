import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import staxkit.io
from oracles import oracle_project
from streamgen import EX, gen_quad, gen_triple, gen_unique_statements
from staxkit.classify import classify_stream
from staxkit.convert import (
    convert,
    extend,
    flatten_datasets,
    flatten_graphs,
    group_statements,
    payload_kind,
)
from staxkit.errors import (
    AbstractType,
    InvalidBatchSize,
    MixedPayload,
    NoConversionPath,
    SchemaError,
)
from staxkit.io import Framing, read_grouped_stream, write_stream
from staxkit.model import Dataset, Graph, Iri, Quad, Triple
from staxkit.taxonomy import Taxonomy, default_taxonomy, infer_closure, load_taxonomy

C = infer_closure(default_taxonomy())
P = Iri(EX + "p")


def iri(name):
    return Iri(EX + name)


def t(s, o):
    return Triple(iri(s), P, iri(o))


def q(s, o, g=None):
    return Quad(iri(s), P, iri(o), None if g is None else iri(g))


class TestFlatten:
    def test_graphs_concatenate_in_order(self):
        gs = [Graph([t("a", "b"), t("b", "c")]), Graph(), Graph([t("d", "e")])]
        assert list(flatten_graphs(gs)) == [t("a", "b"), t("b", "c"), t("d", "e")]

    def test_datasets_default_first_then_named(self):
        d = Dataset(
            default_graph=Graph([t("a", "b")]),
            named_graphs=[(iri("g1"), Graph([t("c", "d")])), (iri("g2"), Graph([t("e", "f")]))],
        )
        assert list(flatten_datasets([d])) == [
            q("a", "b"),
            q("c", "d", "g1"),
            q("e", "f", "g2"),
        ]

    def test_empty_stream(self):
        assert list(flatten_graphs([])) == []
        assert list(flatten_datasets([])) == []


class TestGroup:
    def test_batches_of_two(self):
        statements = [t("a", "b"), t("c", "d"), t("e", "f"), t("g", "h"), t("i", "j")]
        got = list(group_statements(statements, 2, "graphs"))
        assert [len(g) for g in got] == [2, 2, 1]
        assert got[0] == Graph([t("a", "b"), t("c", "d")])

    def test_kind_decides_the_element_type(self):
        # kind is required; the first statement's class does not decide
        with pytest.raises(TypeError):
            group_statements([t("a", "b")], 1)
        assert list(group_statements([q("a", "b")], 1, "graphs")) == [Graph([t("a", "b")])]
        assert list(group_statements([q("a", "b")], 1, "datasets")) == [Dataset(default_graph=Graph([t("a", "b")]))]

    def test_quads_partition_by_label(self):
        got = list(group_statements([q("a", "b"), q("c", "d", "g")], 2, "datasets"))
        d = got[0]
        assert list(d.default_graph) == [t("a", "b")]
        assert d.named_items()[0][0] == iri("g")

    def test_triples_into_dataset_batches(self):
        got = list(group_statements([t("a", "b")], 1, "datasets"))
        assert isinstance(got[0], Dataset)
        assert list(got[0].default_graph) == [t("a", "b")]

    def test_labeled_quad_cannot_become_a_graph(self):
        with pytest.raises(MixedPayload):
            list(group_statements([q("a", "b", "g")], 1, "graphs"))

    def test_zero_batch_size_rejected_eagerly(self):
        with pytest.raises(InvalidBatchSize):
            group_statements([t("a", "b")], 0, "graphs")

    def test_duplicates_within_a_batch_are_absorbed(self):
        got = list(group_statements([t("a", "b"), t("a", "b")], 2, "graphs"))
        assert got == [Graph([t("a", "b")])]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            group_statements([t("a", "b")], 1, "frames")


class TestExtendProject:
    def test_extend_triples(self):
        assert list(extend([t("a", "b")], "triples")) == [q("a", "b")]

    def test_extend_graphs(self):
        g = Graph([t("a", "b")])
        got = list(extend([g], "graphs"))
        assert got == [Dataset(default_graph=g)]
        assert not got[0].named_items()

    def test_kind_mismatch_is_mixed_payload(self):
        with pytest.raises(MixedPayload):
            list(extend([q("a", "b")], "triples"))
        with pytest.raises(MixedPayload):
            list(extend([Dataset()], "graphs"))

    def test_bad_source_kind(self):
        with pytest.raises(ValueError):
            list(extend([], "quads"))

    def test_projection_oracle_refuses_named_graph_content(self):
        # the round trips below rely on this: an extend that added a label gives None
        assert oracle_project([q("a", "b")], "quads") == [t("a", "b")]
        assert oracle_project([q("a", "b"), q("c", "d", "g")], "quads") is None
        named = Dataset(named_graphs=[(iri("g"), Graph([t("a", "b")]))])
        assert oracle_project([Dataset(default_graph=Graph([t("a", "b")]))], "datasets") == [Graph([t("a", "b")])]
        assert oracle_project([Dataset(), named], "datasets") is None


class TestRoundTrips:
    def test_flatten_undoes_group(self):
        r = random.Random(61)
        statements = gen_unique_statements(r, 200, quads=False)
        for k in (1, 2, 3, 7, len(statements)):
            regrouped = group_statements(iter(statements), k, "graphs")
            assert list(flatten_graphs(regrouped)) == statements

    def test_flatten_undoes_group_for_quads(self):
        r = random.Random(62)
        statements = [
            Quad(s.subject, s.predicate, s.object)
            for s in gen_unique_statements(r, 120, quads=False)
        ]
        for k in (1, 4, 120):
            regrouped = group_statements(iter(statements), k, "datasets")
            assert list(flatten_datasets(regrouped)) == statements

    def test_project_undoes_extend(self):
        r = random.Random(63)
        triples = [gen_triple(r) for _ in range(80)]
        assert oracle_project(extend(iter(triples), "triples"), "quads") == triples
        graphs = list(group_statements(iter(triples), 5, "graphs"))
        assert oracle_project(extend(iter(graphs), "graphs"), "datasets") == graphs

    def test_group_restores_elements_with_matching_sizes(self):
        r = random.Random(64)
        elements = [
            Graph(gen_unique_statements(r, n, quads=False)) for n in (3, 1, 4, 2)
        ]
        flat = list(flatten_graphs(elements))
        rebuilt = []
        pos = 0
        for size in [len(e) for e in elements]:
            rebuilt.append(Graph(flat[pos:pos + size]))
            pos += size
        assert rebuilt == elements


class TestConvert:
    def test_flatten_step(self):
        gs = [Graph([t("a", "b")]), Graph([t("c", "d")])]
        got = list(convert(gs, "graphStream", "flatTripleStream", C))
        assert got == [t("a", "b"), t("c", "d")]

    def test_identity_is_passthrough(self):
        gs = [Graph([t("a", "b")])]
        assert list(convert(gs, "graphStream", "graphStream", C)) == gs

    def test_upcast_is_passthrough(self):
        gs = [Graph([t("a", "b")])]
        assert list(convert(gs, "subjectGraphStream", "graphStream", C)) == gs

    def test_strict_refuses_two_step_plans(self):
        with pytest.raises(NoConversionPath) as info:
            convert([], "graphStream", "flatQuadStream", C)
        assert info.value.policy == "strict"

    def test_transitive_two_step_plan(self):
        gs = [Graph([t("a", "b"), t("c", "d")]), Graph([t("e", "f")])]
        got = list(convert(gs, "graphStream", "flatQuadStream", C, policy="transitive"))
        assert got == [q("a", "b"), q("c", "d"), q("e", "f")]

    def test_group_step_uses_batch_size(self):
        statements = [t("a", "b"), t("c", "d"), t("e", "f")]
        got = list(
            convert(statements, "flatTripleStream", "graphStream", C, batch_size=2)
        )
        assert [len(g) for g in got] == [2, 1]

    def test_default_batch_size_is_one(self):
        statements = [t("a", "b"), t("c", "d")]
        got = list(convert(statements, "flatTripleStream", "graphStream", C))
        assert [len(g) for g in got] == [1, 1]

    def test_bad_batch_size_raised_before_consuming(self):
        with pytest.raises(InvalidBatchSize):
            convert([], "flatTripleStream", "graphStream", C, batch_size=0)

    def test_abstract_endpoint_rejected(self):
        with pytest.raises(ValueError):
            convert([], "groupedStream", "flatTripleStream", C)
        with pytest.raises(ValueError):
            convert([], "graphStream", "flatStream", C)

    def test_narrow_source_uses_inherited_edges(self):
        gs = [Graph([t("a", "b")])]
        got = list(convert(gs, "subjectGraphStream", "flatTripleStream", C))
        assert got == [t("a", "b")]

    def test_extend_step(self):
        gs = [Graph([t("a", "b")])]
        got = list(convert(gs, "graphStream", "datasetStream", C))
        assert got == [Dataset(default_graph=Graph([t("a", "b")]))]

    @pytest.mark.parametrize(
        "relation,edge,message",
        [
            ("extend", ("datasetStream", "graphStream"), "cannot extend a datasets stream"),
            (
                "flatten",
                ("graphStream", "flatQuadStream"),
                "conversion plan ends at a triples stream but flatQuadStream holds quads",
            ),
        ],
    )
    def test_payload_mismatch_messages(self, relation, edge, message):
        base = default_taxonomy()
        relations = {name: base.edges(name) for name in ("broader", "flatten", "group", "extend")}
        relations[relation] += (edge,)
        inferred = infer_closure(Taxonomy(base.types.values(), relations))
        with pytest.raises(MixedPayload) as info:
            convert([], *edge, inferred)
        assert str(info.value) == message

    def test_lazy_until_iterated(self):
        seen = []

        def source():
            for i in range(3):
                seen.append(i)
                yield Graph([t(f"s{i}", "o")])

        it = convert(source(), "graphStream", "flatTripleStream", C)
        assert seen == []
        next(it)
        assert seen and len(seen) <= 2


class TestPayloadKind:
    def test_anchors(self):
        assert payload_kind(C, "flatTripleStream") == "triples"
        assert payload_kind(C, "flatQuadStream") == "quads"
        assert payload_kind(C, "graphStream") == "graphs"
        assert payload_kind(C, "datasetStream") == "datasets"

    def test_descendants_inherit_their_anchor(self):
        assert payload_kind(C, "subjectGraphStream") == "graphs"
        assert payload_kind(C, "namedGraphStream") == "datasets"
        assert payload_kind(C, "timestampedNamedGraphStream") == "datasets"

    def test_abstract_types_have_no_kind(self):
        with pytest.raises(ValueError):
            payload_kind(C, "rdfStream")

    def test_abstract_type_error_is_a_stax_error(self):
        with pytest.raises(AbstractType, match="rdfStream is abstract"):
            payload_kind(C, "rdfStream")
        with pytest.raises(AbstractType, match="flatStream is abstract"):
            convert(iter([]), "flatStream", "flatTripleStream", C)

    def test_concrete_type_needs_exactly_one_anchor(self):
        anchorless = infer_closure(load_taxonomy(json.dumps({
            "types": [
                {"id": "rootStream", "iri": "http://x:1/root", "kind": "abstract"},
                {"id": "leafStream", "iri": "http://x:1/leaf", "kind": "concrete"},
            ],
            "relations": [["leafStream", "broader", "rootStream"]],
        })))
        with pytest.raises(SchemaError, match="leafStream must be or narrow exactly one"):
            payload_kind(anchorless, "leafStream")


class TestClassificationCoherence:
    def test_flattened_graph_stream_classifies_as_flat_triples(self):
        r = random.Random(71)
        graphs = [Graph([gen_triple(r) for _ in range(3)]) for _ in range(5)]
        flat = list(convert(graphs, "graphStream", "flatTripleStream", C))
        report = classify_stream(flat, Framing.FLAT_TRIPLES)
        assert report.conforming == ("flatTripleStream",)

    def test_extended_graph_stream_keeps_dataset_conformance(self):
        r = random.Random(72)
        graphs = [Graph([gen_triple(r) for _ in range(2)]) for _ in range(5)]
        datasets = list(convert(graphs, "graphStream", "datasetStream", C))
        report = classify_stream(datasets, Framing.FRAMED_DATASETS)
        assert "datasetStream" in report.conforming
        # extension introduces no named graphs
        assert report.first_violation["namedGraphStream"].reason == "not a single named graph"

    def test_grouped_flat_stream_conforms_to_graph_stream(self):
        r = random.Random(73)
        statements = [gen_triple(r) for _ in range(30)]
        graphs = list(convert(statements, "flatTripleStream", "graphStream", C, batch_size=3))
        report = classify_stream(graphs, Framing.FRAMED_GRAPHS)
        assert "graphStream" in report.conforming


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            Triple,
            st.sampled_from([Iri(EX + c) for c in "abcdef"]),
            st.just(P),
            st.sampled_from([Iri(EX + c) for c in "uvwxyz"]),
        ),
        max_size=30,
        unique=True,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_property_group_then_flatten_is_identity(statements, k):
    assert list(flatten_graphs(group_statements(iter(statements), k, "graphs"))) == statements


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_project_extend_identity(seed):
    r = random.Random(seed)
    triples = [gen_triple(r) for _ in range(r.randint(0, 20))]
    assert oracle_project(extend(iter(triples), "triples"), "quads") == triples


def _batch_in_set_order(batch):
    """One batch as a dataset holds it: first occurrences only, default graph
    first, then each named graph in order of its label's first appearance."""
    unique = list(dict.fromkeys(batch))
    labels = list(dict.fromkeys(q.graph_label for q in unique))
    labels.sort(key=lambda label: label is not None)
    return [q for label in labels for q in unique if q.graph_label == label]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            Quad,
            st.sampled_from([iri(c) for c in "abc"]),
            st.just(P),
            st.sampled_from([iri(c) for c in "uvw"]),
            st.sampled_from([None, iri("g1"), iri("g2")]),
        ),
        max_size=30,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_property_group_then_flatten_applies_set_semantics_per_batch(quads, k):
    batches = [quads[i:i + k] for i in range(0, len(quads), k)]
    expected = [q for batch in batches for q in _batch_in_set_order(batch)]
    assert list(flatten_datasets(group_statements(iter(quads), k, "datasets"))) == expected
    triples = [q.triple() for q in quads]
    expected_triples = [t for i in range(0, len(triples), k) for t in dict.fromkeys(triples[i:i + k])]
    assert list(flatten_graphs(group_statements(iter(triples), k, "graphs"))) == expected_triples


class _Discard:
    """A binary sink that keeps nothing."""

    def write(self, data):
        return len(data)


# 25 triples per element: tuples of up to 20 items go to CPython's tuple free
# list when freed, and a free list filling over the run would read as growth.
TRIPLES_PER_ELEMENT = 25


def _traced_convert_peak(path):
    """The tracemalloc peak of the CLI's read -> convert -> write_stream chain."""
    staxkit.io._interned.clear()  # each run fills the bounded intern table afresh
    tracemalloc.start()
    try:
        items = read_grouped_stream(str(path), Framing.FRAMED_GRAPHS)
        out = convert(items, "graphStream", "flatTripleStream", C)
        write_stream(out, Framing.FLAT_TRIPLES, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convert_memory_does_not_grow_with_the_stream(tmp_path):
    # Every IRI is new, so the 1x stream already fills the intern table:
    # what is left to grow is the state the chain should not keep.
    elements = 100
    assert 2 * TRIPLES_PER_ELEMENT * elements > staxkit.io._INTERN_LIMIT
    peaks = []
    for scale in (1, 10):
        path = tmp_path / f"{scale}x.nt"
        path.write_bytes(
            b"#---\n".join(
                b"".join(
                    b"<http://ex.org/s%d-%d> <http://ex.org/p> <http://ex.org/o%d-%d> .\n" % (i, j, i, j)
                    for j in range(TRIPLES_PER_ELEMENT)
                )
                for i in range(elements * scale)
            )
        )
        peaks.append(_traced_convert_peak(path))
    assert peaks[1] < 1.1 * peaks[0], peaks
