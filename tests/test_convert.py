import contextlib
import functools
import gc
import io
import json
import random
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

import staxkit.cli
import staxkit.io
from oracles import oracle_convert, oracle_project
from streamgen import EX, gen_quad, gen_triple, gen_unique_statements
from test_cli import set_stdin
from staxkit.classify import classify_stream
from staxkit.cli import main
from staxkit.commands import _framing_for
from staxkit.convert import convert
from staxkit.errors import (
    AbstractType,
    InvalidBatchSize,
    MixedPayload,
    NoConversionPath,
    SchemaError,
)
from staxkit.framing import Payload
from staxkit.io import Framing, read_grouped_stream
from staxkit.model import Dataset, Graph, Iri, Quad, Triple
from staxkit.taxonomy import TypeKind, default_taxonomy, infer_closure, load_taxonomy, payload_kind, plan
from staxkit.writer import write_stream

C = infer_closure(default_taxonomy())
P = Iri(EX + "p")


def iri(name):
    return Iri(EX + name)


def t(s, o):
    return Triple(iri(s), P, iri(o))


def q(s, o, g=None):
    return Quad(iri(s), P, iri(o), None if g is None else iri(g))


def flatten(elements, from_type="graphStream"):
    to_type = "flatQuadStream" if payload_kind(C, from_type) is Payload.DATASETS else "flatTripleStream"
    return list(convert(elements, from_type, to_type, C))


def group(statements, k, to_type="graphStream"):
    from_type = "flatTripleStream" if to_type == "graphStream" else "flatQuadStream"
    return list(convert(statements, from_type, to_type, C, batch_size=k))


def extend(items, from_type):
    to_type = "flatQuadStream" if from_type == "flatTripleStream" else "datasetStream"
    return list(convert(items, from_type, to_type, C))


class TestFlatten:
    def test_graphs_concatenate_in_order(self):
        gs = [Graph([t("a", "b"), t("b", "c")]), Graph(), Graph([t("d", "e")])]
        assert flatten(gs) == [t("a", "b"), t("b", "c"), t("d", "e")]

    def test_datasets_default_first_then_named(self):
        d = Dataset(
            default_graph=Graph([t("a", "b")]),
            named_graphs=[(iri("g1"), Graph([t("c", "d")])), (iri("g2"), Graph([t("e", "f")]))],
        )
        assert flatten([d], "datasetStream") == [
            q("a", "b"),
            q("c", "d", "g1"),
            q("e", "f", "g2"),
        ]

    def test_empty_stream(self):
        assert flatten([]) == []
        assert flatten([], "datasetStream") == []


class TestGroup:
    def test_batches_of_two(self):
        statements = [t("a", "b"), t("c", "d"), t("e", "f"), t("g", "h"), t("i", "j")]
        got = group(statements, 2)
        assert [len(g) for g in got] == [2, 2, 1]
        assert got[0] == Graph([t("a", "b"), t("c", "d")])

    def test_the_target_decides_the_element_type(self):
        assert group([t("a", "b")], 1) == [Graph([t("a", "b")])]
        assert group([q("a", "b")], 1, "datasetStream") == [Dataset(default_graph=Graph([t("a", "b")]))]

    def test_quads_partition_by_label(self):
        got = group([q("a", "b"), q("c", "d", "g")], 2, "datasetStream")
        d = got[0]
        assert list(d.default_graph) == [t("a", "b")]
        assert d.named_items()[0][0] == iri("g")

    def test_triples_into_dataset_batches(self):
        got = list(convert([t("a", "b")], "flatTripleStream", "datasetStream", C, "transitive", 1))
        assert isinstance(got[0], Dataset)
        assert list(got[0].default_graph) == [t("a", "b")]

    def test_labeled_quad_cannot_become_a_graph(self):
        with pytest.raises(MixedPayload):
            group([q("a", "b", "g")], 1)

    def test_zero_batch_size_rejected_eagerly(self):
        with pytest.raises(InvalidBatchSize):
            convert(_unread(), "flatTripleStream", "graphStream", C, batch_size=0)

    def test_duplicates_within_a_batch_are_absorbed(self):
        assert group([t("a", "b"), t("a", "b")], 2) == [Graph([t("a", "b")])]


def _unread():
    raise AssertionError("the stream was read")
    yield


class TestItemCheck:
    """convert() checks each input item against the source payload's class,
    whatever the plan, and names the first wrong one by its index."""

    @pytest.mark.parametrize(
        "items, from_type, to_type, batch_size, message",
        [
            ([Graph([t("a", "b")]), t("c", "d")], "graphStream", "flatTripleStream", None,
             "item 1 of a graphStream stream is a Triple, not a Graph"),
            ([Dataset(default_graph=Graph([t("a", "b")]))], "graphStream", "flatTripleStream", None,
             "item 0 of a graphStream stream is a Dataset, not a Graph"),
            ([t("a", "b"), q("c", "d")], "flatTripleStream", "graphStream", 1,
             "item 1 of a flatTripleStream stream is a Quad, not a Triple"),
            ([t("a", "b")], "graphStream", "graphStream", None,
             "item 0 of a graphStream stream is a Triple, not a Graph"),
        ],
        ids=["triples-to-flatten", "dataset-to-flatten", "default-graph-quad-to-group", "triple-to-identity"],
    )
    def test_a_wrong_item_is_mixed_payload(self, items, from_type, to_type, batch_size, message):
        out = convert(iter(items), from_type, to_type, C, batch_size=batch_size)
        with pytest.raises(MixedPayload) as info:
            list(out)
        assert str(info.value) == message

    def test_the_items_before_the_wrong_one_are_yielded(self):
        out = convert(iter([Graph([t("a", "b")]), t("c", "d")]), "graphStream", "flatTripleStream", C)
        assert next(out) == t("a", "b")
        with pytest.raises(MixedPayload, match="item 1 "):
            next(out)


class TestExtendProject:
    def test_extend_triples(self):
        assert extend([t("a", "b")], "flatTripleStream") == [q("a", "b")]

    def test_extend_graphs(self):
        g = Graph([t("a", "b")])
        got = extend([g], "graphStream")
        assert got == [Dataset(default_graph=g)]
        assert not got[0].named_items()

    def test_kind_mismatch_is_mixed_payload(self):
        with pytest.raises(MixedPayload):
            extend([q("a", "b")], "flatTripleStream")
        with pytest.raises(MixedPayload):
            extend([Dataset()], "graphStream")

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
            assert flatten(group(iter(statements), k)) == statements

    def test_flatten_undoes_group_for_quads(self):
        r = random.Random(62)
        statements = [
            Quad(s.subject, s.predicate, s.object)
            for s in gen_unique_statements(r, 120, quads=False)
        ]
        for k in (1, 4, 120):
            assert flatten(group(iter(statements), k, "datasetStream"), "datasetStream") == statements

    def test_project_undoes_extend(self):
        r = random.Random(63)
        triples = [gen_triple(r) for _ in range(80)]
        assert oracle_project(extend(iter(triples), "flatTripleStream"), "quads") == triples
        graphs = group(iter(triples), 5)
        assert oracle_project(extend(iter(graphs), "graphStream"), "datasets") == graphs

    def test_group_restores_elements_with_matching_sizes(self):
        r = random.Random(64)
        elements = [
            Graph(gen_unique_statements(r, n, quads=False)) for n in (3, 1, 4, 2)
        ]
        flat = flatten(elements)
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
    assert flatten(group(iter(statements), k)) == statements


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_project_extend_identity(seed):
    r = random.Random(seed)
    triples = [gen_triple(r) for _ in range(r.randint(0, 20))]
    assert oracle_project(extend(iter(triples), "flatTripleStream"), "quads") == triples


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
    assert flatten(group(iter(quads), k, "datasetStream"), "datasetStream") == expected
    triples = [q.triple() for q in quads]
    expected_triples = [t for i in range(0, len(triples), k) for t in dict.fromkeys(triples[i:i + k])]
    assert flatten(group(iter(triples), k)) == expected_triples


class _Discard:
    """A binary sink that keeps nothing."""

    def write(self, data):
        return len(data)


# 25 triples per element: tuples of up to 20 items go to CPython's tuple free
# list when freed, and a free list filling over the run would read as growth.
TRIPLES_PER_ELEMENT = 25


def _traced_convert_peak(path):
    """The tracemalloc peak of the library's read -> convert -> write_stream chain."""
    staxkit.io._interned.clear()  # each run fills the bounded intern table afresh
    tracemalloc.start()
    try:
        items = read_grouped_stream(str(path), Framing.FRAMED_GRAPHS)
        out = convert(items, "graphStream", "flatTripleStream", C)
        write_stream(out, Framing.FLAT_TRIPLES, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_cli_convert_peak(plan_args, path):
    """The tracemalloc peak of the CLI's convert of path to stdout under
    plan_args: --from, --to and the plan's other options."""
    staxkit.io._interned.clear()
    # An earlier main's parser is cyclic garbage: left for a collection
    # during the run, it moves the peak by a tenth from one call to the next.
    gc.collect()
    stdout = types.SimpleNamespace(buffer=_Discard(), flush=lambda: None)
    argv = ["convert", "--input", str(path), "--output", "-", *plan_args]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks_at_1x_and_10x(traced_peak, tmp_path):
    """traced_peak of framed graph streams of 100 and 1,000 elements."""
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
        peaks.append(traced_peak(path))
    return peaks


def test_convert_memory_does_not_grow_with_the_stream(tmp_path):
    peaks = _peaks_at_1x_and_10x(_traced_convert_peak, tmp_path)
    assert peaks[1] < 1.1 * peaks[0], peaks


# Framed graphs to flat quads (extend, flatten) re-frame the reader's text;
# the same file read as flat triples, whose '#---' lines are comments, is
# grouped into graphs the size of its elements.
@pytest.mark.parametrize("plan_args", [
    ["--from", "graphStream", "--to", "flatQuadStream", "--policy", "transitive"],
    ["--from", "flatTripleStream", "--to", "graphStream", "--batch-size", str(TRIPLES_PER_ELEMENT)],
])
def test_cli_convert_memory_does_not_grow_with_the_stream(plan_args, tmp_path):
    peaks = _peaks_at_1x_and_10x(functools.partial(_traced_cli_convert_peak, plan_args), tmp_path)
    assert peaks[1] < 1.1 * peaks[0], peaks


# Every stream up to a small bound: convert() must yield what the oracle
# derives from the step definitions, for every concrete pair with a plan,
# under both policies, with batch sizes 1-3 where the plan groups.  Tier-1
# enumerates streams of up to 2 elements of 1-2 statements each, and flat
# streams of up to 4 statements (what such a stream flattens to); the deep
# profile takes 3 elements and 6 statements.  convert() compares statements
# only for equality, so one stream of each class under renaming the triples
# is enough: the enumerated streams use distinct triples in the order below,
# which is not sorted, over the IRIs a, b and c and the graph label g.
SCOPE_ELEMENTS = 3 if settings().max_examples >= settings.get_profile("deep").max_examples else 2
_SCOPE_TRIPLES = [t(s, o) for s, o in ("ca", "ab", "bc", "aa", "cb", "ba")]


def _scope_items(payload, triples):
    """The distinct items of payload over the first triples, each with the
    indices of its triples in reading order (a dataset's in Dataset.quads()
    order)."""
    labels = [None, iri("g")] if payload.quads else [None]
    statements = [Quad(*x, g) if payload.quads else x for x in _SCOPE_TRIPLES[:triples] for g in labels]
    if payload.is_flat:
        items = statements
    else:
        pairs = [[a] for a in statements] + [[a, b] for a in statements for b in statements if a != b]
        build = Dataset.from_quads if payload is Payload.DATASETS else Graph
        items = list(dict.fromkeys(map(build, pairs)))
    return [
        (item, [_SCOPE_TRIPLES.index(Triple(*x[:3])) for x in (
            [item] if payload.is_flat else item.quads() if payload is Payload.DATASETS else item
        )])
        for item in items
    ]


def _scope_streams(payload):
    """Every stream of payload within the scope whose triples first appear
    in the order of _SCOPE_TRIPLES: one stream of each class under renaming."""
    bound = 2 * SCOPE_ELEMENTS if payload.is_flat else SCOPE_ELEMENTS
    items = _scope_items(payload, 2 * SCOPE_ELEMENTS)
    streams = []

    def grow(stream, used):
        streams.append(stream)
        if len(stream) < bound:
            for item, seen in items:
                new = list(dict.fromkeys(i for i in seen if i >= used))
                if new == list(range(used, used + len(new))):
                    grow(stream + [item], used + len(new))

    grow([], 0)
    return streams


def _scope_plans(from_type):
    """Each (to_type, policy, relations, batch_size) of a plan from from_type,
    under both policies, with batch sizes 1-3 where the plan groups."""
    for to_type in C.taxonomy.types:
        for policy in ("strict", "transitive"):
            try:
                relations = plan(from_type, to_type, C, policy)
            except (AbstractType, NoConversionPath):
                continue
            for batch_size in (1, 2, 3) if "group" in relations else (None,):
                yield to_type, policy, relations, batch_size


_CONCRETE = [t for t, v in C.taxonomy.types.items() if v.kind is TypeKind.CONCRETE]


@pytest.mark.parametrize("from_type", _CONCRETE)
def test_convert_agrees_with_the_oracle_on_every_small_stream(from_type):
    payload = payload_kind(C, from_type)
    streams = _scope_streams(payload)
    runs = 0
    for to_type, policy, relations, batch_size in _scope_plans(from_type):
        for stream in streams:
            got = list(convert(stream, from_type, to_type, C, policy, batch_size))
            assert got == oracle_convert(stream, payload.value, relations, batch_size or 1), \
                (to_type, policy, batch_size, stream)
            runs += 1
    assert runs >= len(streams) > 1


def _written(items, payload):
    """The bytes write_stream writes of items in payload's flat or framed framing."""
    sink = io.BytesIO()
    write_stream(items, _framing_for(payload, "-"), sink)
    return sink.getvalue()


# The CLI against the library over the same scope: for every case above, an
# in-process convert from standard input to standard output must write what
# write_stream writes of convert(), and when the input is of the source type,
# its output must classify as the target type.
@pytest.mark.parametrize("from_type", _CONCRETE)
def test_cli_convert_writes_what_convert_writes_on_every_small_stream(from_type, monkeypatch, capsysbinary):
    # One parser for every call: parse_args leaves it as it was.
    monkeypatch.setattr(staxkit.cli, "build_parser", functools.cache(staxkit.cli.build_parser))
    source = payload_kind(C, from_type)
    streams = [
        (stream, _written(stream, source),
         from_type in classify_stream(stream, _framing_for(source, "-"), None, C).conforming)
        for stream in _scope_streams(source)
    ]
    runs = 0
    for to_type, policy, _, batch_size in _scope_plans(from_type):
        target = payload_kind(C, to_type)
        argv = ["convert", "--input", "-", "--output", "-", "--from", from_type, "--to", to_type,
                "--policy", policy] + ([] if batch_size is None else ["--batch-size", str(batch_size)])
        for stream, data, typed in streams:
            set_stdin(monkeypatch, data)
            assert main(argv) == 0, (argv, stream)
            got = capsysbinary.readouterr().out
            assert got == _written(convert(stream, from_type, to_type, C, policy, batch_size), target), (argv, stream)
            if typed:
                assert to_type in classify_stream(got, _framing_for(target, "-"), None, C).conforming, (argv, stream)
            runs += 1
    assert runs >= len(streams) > 1
