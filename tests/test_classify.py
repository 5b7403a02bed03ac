import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import oracle_candidate_subjects, oracle_classify
from streamgen import (
    EX,
    gen_classification_case,
    gen_dataset_stream,
    gen_graph_stream,
)
from staxkit.classify import (
    PROV_GENERATED_AT_TIME,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    ClassifierConfig,
    ClassifierState,
    candidate_subject_nodes,
    check_named_graph_shape,
    check_timestamped_named_graph,
    classify_element,
    classify_stream,
    comparable_timestamp,
)
from staxkit.io import Framing
from staxkit.model import BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple

P = Iri(EX + "p")
AT = PROV_GENERATED_AT_TIME


def iri(name):
    return Iri(EX + name)


def chain(*names):
    """s -> a -> b ... as a graph rooted at the first name."""
    nodes = [iri(n) for n in names]
    return Graph(Triple(a, P, b) for a, b in zip(nodes, nodes[1:]))


def named_dataset(name, *, stamp=None, predicate=AT, extra_named=0, graph_triples=1):
    named = [(iri(name), Graph(Triple(iri(name + f"-s{i}"), P, iri(name + f"-o{i}"))
                                for i in range(graph_triples)))]
    for i in range(extra_named):
        named.append((iri(f"{name}-extra{i}"), Graph([Triple(iri("x"), P, iri("y"))])))
    default = Graph()
    if stamp is not None:
        default = Graph([Triple(iri(name), predicate, stamp)])
    return Dataset(default_graph=default, named_graphs=named)


def dt(lex):
    return Literal(lex, datatype=XSD_DATETIME)


class TestCandidateSubjectNodes:
    def test_chain_has_one_candidate(self):
        g = chain("s", "a", "b")
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_disconnected_graph_has_none(self):
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("c"), P, iri("d"))])
        assert candidate_subject_nodes(g) == frozenset()

    def test_cycle_makes_every_member_a_candidate(self):
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        assert candidate_subject_nodes(g) == frozenset({iri("a"), iri("b")})

    def test_blank_root_is_not_a_candidate(self):
        g = Graph([Triple(BlankNode("root"), P, iri("leaf"))])
        assert candidate_subject_nodes(g) == frozenset()

    def test_empty_graph(self):
        assert candidate_subject_nodes(Graph()) == frozenset()

    def test_literal_leaves_count_as_nodes(self):
        g = Graph([Triple(iri("s"), P, Literal("leaf"))])
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_predicates_are_not_nodes(self):
        # p never appears as subject or object, so it does not block anyone
        g = Graph([Triple(iri("s"), iri("unusual"), iri("o"))])
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_agrees_with_matrix_oracle_on_random_graphs(self):
        r = random.Random(77)
        for _ in range(300):
            stream = gen_graph_stream(r, max_elements=3)
            for g in stream:
                assert set(candidate_subject_nodes(g)) == oracle_candidate_subjects(g)

    def test_long_chain_has_one_candidate(self):
        # a per-node search is quadratic here: tens of seconds at 8,000 triples
        nodes = [iri(f"n{i}") for i in range(8001)]
        g = Graph(Triple(a, P, b) for a, b in zip(nodes, nodes[1:]))
        assert candidate_subject_nodes(g) == frozenset({nodes[0]})

    def test_two_way_linked_tree_makes_every_iri_a_candidate(self):
        # the shape of the benchmark's linked graphs: parts linked both ways, labelled
        r = random.Random(5)
        parts = [iri(f"part{i}") for i in range(150)]
        triples = []
        for i, part in enumerate(parts[1:], start=1):
            parent = parts[r.randrange(i)]
            triples.append(Triple(parent, iri("hasPart"), part))
            triples.append(Triple(part, iri("isPartOf"), parent))
            triples.append(Triple(part, iri("label"), Literal(f"part {i}", language="en")))
        assert candidate_subject_nodes(Graph(triples)) == frozenset(parts)


_IRIS = [iri(c) for c in "abcde"]
_SUBJECTS = _IRIS + [BlankNode("x"), BlankNode("y")]
_NODES = _SUBJECTS + [Literal("leaf"), Literal("leaf", language="en")]
_EDGES = st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_NODES))


def edge_graph(*edges):
    return Graph(Triple(s, P, o) for s, o in edges)


@st.composite
def rooted_graphs(draw):
    """A random tree hung from one subject, plus random extra edges, in random order."""
    root = draw(st.sampled_from(_SUBJECTS))
    others = draw(st.lists(st.sampled_from([n for n in _NODES if n != root]), unique=True))
    reached, edges = [root], []
    for node in others:
        parent = draw(st.sampled_from([n for n in reached if not isinstance(n, Literal)]))
        edges.append((parent, node))
        reached.append(node)
    edges += draw(st.lists(_EDGES, max_size=5))
    return edge_graph(*draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_EDGES, max_size=12).map(lambda e: edge_graph(*e)), rooted_graphs()))
# a blank node reaches every node: the IRIs reaching it are candidates, it is not
@example(edge_graph((BlankNode("x"), iri("a")), (BlankNode("x"), iri("b")), (iri("a"), BlankNode("x"))))
# the first search starts at a, which is not a candidate
@example(edge_graph((iri("a"), iri("b")), (iri("c"), iri("a"))))
# self-loops
@example(edge_graph((iri("a"), iri("a"))))
@example(edge_graph((iri("a"), iri("a")), (iri("b"), iri("a"))))
@example(edge_graph((BlankNode("x"), BlankNode("x"))))
# several strongly connected components, one of which reaches the others
@example(edge_graph((iri("c"), iri("d")), (iri("d"), iri("c")), (iri("a"), iri("b")),
                    (iri("b"), iri("a")), (iri("b"), iri("c"))))
@example(edge_graph((iri("a"), iri("b")), (iri("b"), iri("a")), (iri("c"), iri("d")),
                    (iri("d"), iri("c"))))
# literal-only leaves
@example(edge_graph((iri("a"), Literal("leaf")), (iri("a"), Literal("leaf", language="en"))))
@example(edge_graph((iri("a"), Literal("leaf")), (iri("b"), Literal("leaf"))))
# one triple
@example(edge_graph((iri("a"), iri("b"))))
@example(edge_graph((BlankNode("x"), iri("a"))))
def test_candidate_subjects_agree_with_matrix_oracle(graph):
    assert set(candidate_subject_nodes(graph)) == oracle_candidate_subjects(graph)


class TestNamedGraphShape:
    def test_single_named_graph(self):
        d = named_dataset("g")
        shape = check_named_graph_shape(d)
        assert shape is not None and shape[0] == iri("g")

    def test_zero_named_graphs(self):
        assert check_named_graph_shape(Dataset()) is None

    def test_two_named_graphs(self):
        assert check_named_graph_shape(named_dataset("g", extra_named=1)) is None

    def test_default_content_does_not_disqualify(self):
        d = named_dataset("g", stamp=Literal("anything"))
        assert check_named_graph_shape(d) is not None

    def test_blank_name_is_a_valid_shape(self):
        d = Dataset(named_graphs=[(BlankNode("g"), Graph([Triple(iri("s"), P, iri("o"))]))])
        shape = check_named_graph_shape(d)
        assert shape is not None and shape[0] == BlankNode("g")


class TestTimestampedShape:
    def test_finds_timestamp(self):
        d = named_dataset("g", stamp=dt("2024-01-01T00:00:00"))
        found = check_timestamped_named_graph(d, ClassifierConfig())
        assert found == (iri("g"), AT, dt("2024-01-01T00:00:00"))

    def test_no_timestamp(self):
        assert check_timestamped_named_graph(named_dataset("g"), ClassifierConfig()) is None

    def test_decoy_about_other_subject_ignored(self):
        d = Dataset(
            default_graph=Graph([Triple(iri("other"), AT, dt("2024-01-01T00:00:00"))]),
            named_graphs=[(iri("g"), Graph([Triple(iri("s"), P, iri("o"))]))],
        )
        assert check_timestamped_named_graph(d, ClassifierConfig()) is None

    def test_first_in_document_order_wins(self):
        d = Dataset(
            default_graph=Graph(
                [
                    Triple(iri("g"), AT, dt("2024-06-01T00:00:00")),
                    Triple(iri("g"), AT, dt("2024-01-01T00:00:00")),
                ]
            ),
            named_graphs=[(iri("g"), Graph([Triple(iri("s"), P, iri("o"))]))],
        )
        found = check_timestamped_named_graph(d, ClassifierConfig())
        assert found is not None and found[2] == dt("2024-06-01T00:00:00")

    def test_custom_predicate(self):
        custom = iri("observedAt")
        cfg = ClassifierConfig(timestamp_predicates=frozenset({custom}))
        d = named_dataset("g", stamp=dt("2024-01-01T00:00:00"), predicate=custom)
        assert check_timestamped_named_graph(d, cfg) is not None
        assert check_timestamped_named_graph(d, ClassifierConfig()) is None

    def test_shape_failure_wins_over_timestamp(self):
        d = named_dataset("g", stamp=dt("2024-01-01T00:00:00"), extra_named=1)
        assert check_timestamped_named_graph(d, ClassifierConfig()) is None


class TestComparableTimestamp:
    def test_aware_and_naive_datetimes_split_domains(self):
        aware = comparable_timestamp(dt("2024-01-01T00:00:00Z"))
        naive = comparable_timestamp(dt("2024-01-01T00:00:00"))
        assert aware[0] == "chrono-aware"
        assert naive[0] == "chrono-naive"

    def test_offset_suffix_is_aware(self):
        got = comparable_timestamp(dt("2024-01-01T05:00:00+02:00"))
        assert got[0] == "chrono-aware"

    def test_date_promotes_to_naive_midnight(self):
        got = comparable_timestamp(Literal("2024-03-05", datatype=XSD_DATE))
        assert got[0] == "chrono-naive"
        assert got[1].hour == 0 and got[1].day == 5

    def test_integer_and_decimal_share_a_domain(self):
        a = comparable_timestamp(Literal("5", datatype=XSD_INTEGER))
        b = comparable_timestamp(Literal("5.5", datatype=XSD_DECIMAL))
        assert a[0] == b[0] == "numeric"
        assert a[1] < b[1]

    def test_junk_is_incomparable(self):
        assert comparable_timestamp(Literal("not a time", datatype=XSD_DATETIME)) is None
        assert comparable_timestamp(Literal("soon")) is None
        assert comparable_timestamp(iri("t")) is None

    def test_plain_string_timestamp_is_incomparable(self):
        assert comparable_timestamp(Literal("2024-01-01T00:00:00")) is None

    @pytest.mark.parametrize("lex", ["NaN", "sNaN", "Infinity", "-Inf"])
    @pytest.mark.parametrize("datatype", [XSD_DECIMAL, XSD_INTEGER])
    def test_non_finite_number_is_incomparable(self, lex, datatype):
        assert comparable_timestamp(Literal(lex, datatype=datatype)) is None

    @pytest.mark.parametrize(
        "lex, datatype, value",
        [
            ("1e3", XSD_INTEGER, None),
            ("1_000", XSD_DECIMAL, None),
            ("1.5", XSD_INTEGER, None),
            ("\u0661\u0662", XSD_INTEGER, None),  # Arabic-Indic digits
            ("1e3", XSD_DECIMAL, None),
            (".", XSD_DECIMAL, None),
            ("+", XSD_INTEGER, None),
            ("-007", XSD_INTEGER, "-7"),
            (" 12 ", XSD_INTEGER, "12"),
            ("+1.", XSD_DECIMAL, "1"),
            (".5", XSD_DECIMAL, "0.5"),
            ("-0.50", XSD_DECIMAL, "-0.5"),
        ],
    )
    def test_numbers_follow_the_xsd_lexical_spaces(self, lex, datatype, value):
        got = comparable_timestamp(Literal(lex, datatype=datatype))
        assert got == (None if value is None else ("numeric", Decimal(value)))

    def test_out_of_range_date_is_incomparable(self):
        assert comparable_timestamp(Literal("0001-01-01T00:00:00+01:00", datatype=XSD_DATE)) is None

    @pytest.mark.parametrize(
        "first",
        [Literal("NaN", datatype=XSD_DECIMAL), Literal("0001-01-01T00:00:00+01:00", datatype=XSD_DATE)],
    )
    def test_incomparable_first_stamp_does_not_break_the_order_check(self, first):
        stream = [named_dataset("a", stamp=first), named_dataset("b", stamp=Literal("1", datatype=XSD_INTEGER))]
        report = classify_stream(stream, Framing.FRAMED_DATASETS)
        assert "timestampedNamedGraphStream" in report.conforming


class TestClassifyElement:
    def test_fresh_subject_passes(self):
        state = ClassifierState()
        v = classify_element(chain("s", "a"), state, ClassifierConfig(), 0)
        assert v.per_type["graphStream"].passed
        assert v.per_type["subjectGraphStream"].passed

    def test_reused_subject_fails_second_element(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(chain("s", "a"), state, cfg, 0)
        v = classify_element(chain("s", "b"), state, cfg, 1)
        assert v.per_type["graphStream"].passed
        failed = v.per_type["subjectGraphStream"]
        assert not failed.passed
        assert failed.reason == "subject not unique in stream"
        assert "element 0" in failed.detail

    def test_empty_graph_fails_subject_type(self):
        v = classify_element(Graph(), ClassifierState(), ClassifierConfig(), 0)
        assert v.per_type["graphStream"].passed
        assert not v.per_type["subjectGraphStream"].passed

    def test_ambiguous_choice_prefers_smallest_unused(self):
        state = ClassifierState()
        classify_element(chain("x", "y"), state, ClassifierConfig(), 0)
        assert not state.ambiguous
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classify_element(g, state, ClassifierConfig(), 1)
        assert v.per_type["subjectGraphStream"].passed
        assert v.notes == (f"element 1: 2 candidate subjects; chose {EX}a",)
        assert state.ambiguous
        assert state.subjects == {iri("x"): 0, iri("a"): 1}

    def test_ambiguous_skips_used_candidates(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(chain("a", "x"), state, cfg, 0)
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classify_element(g, state, cfg, 1)
        assert v.per_type["subjectGraphStream"].passed
        assert iri("b") in state.subjects

    def test_all_candidates_used_fails(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(chain("a", "x"), state, cfg, 0)
        classify_element(chain("b", "y"), state, cfg, 1)
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classify_element(g, state, cfg, 2)
        assert not v.per_type["subjectGraphStream"].passed
        assert v.per_type["subjectGraphStream"].detail == "every candidate already used"

    def test_dataset_without_shape_fails_both_named_types(self):
        v = classify_element(Dataset(), ClassifierState(), ClassifierConfig(), 0)
        assert v.per_type["datasetStream"].passed
        assert not v.per_type["namedGraphStream"].passed
        assert not v.per_type["timestampedNamedGraphStream"].passed

    def test_order_violation_points_at_earlier_element(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")), state, cfg, 0)
        v = classify_element(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")), state, cfg, 1)
        bad = v.per_type["timestampedNamedGraphStream"]
        assert not bad.passed
        assert bad.reason == "timestamp order violation"
        assert "element 0" in bad.detail

    def test_equal_timestamps_are_fine(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(named_dataset("g1", stamp=dt("2024-01-01T00:00:00")), state, cfg, 0)
        v = classify_element(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")), state, cfg, 1)
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_incomparable_timestamps_never_violate_order(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")), state, cfg, 0)
        v = classify_element(
            named_dataset("g2", stamp=Literal("sometime later")), state, cfg, 1
        )
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_aware_and_naive_do_not_cross_compare(self):
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(named_dataset("g1", stamp=dt("2024-01-02T00:00:00Z")), state, cfg, 0)
        v = classify_element(
            named_dataset("g2", stamp=dt("2024-01-01T00:00:00")), state, cfg, 1
        )
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_order_check_can_be_disabled(self):
        state = ClassifierState()
        cfg = ClassifierConfig(check_timestamp_order=False)
        classify_element(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")), state, cfg, 0)
        v = classify_element(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")), state, cfg, 1)
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_wrong_element_type_raises(self):
        with pytest.raises(TypeError):
            classify_element(42, ClassifierState(), ClassifierConfig(), 0)

    @pytest.mark.parametrize(
        "first,second,passes",
        [("2024-01-01T00:00:00", "2024-01-03T00:00:00", False),
         ("2024-01-03T00:00:00", "2024-01-01T00:00:00", True)],
    )
    def test_multiple_timestamp_triples_first_wins(self, first, second, passes):
        # the first timestamp in document order is the one order-checked
        state = ClassifierState()
        cfg = ClassifierConfig()
        classify_element(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")), state, cfg, 0)
        d = Dataset(
            default_graph=Graph(
                [Triple(iri("g2"), AT, dt(first)), Triple(iri("g2"), AT, dt(second))]
            ),
            named_graphs=[(iri("g2"), Graph([Triple(iri("s"), P, iri("o"))]))],
        )
        v = classify_element(d, state, cfg, 1)
        assert v.notes == ("element 1: multiple timestamp triples; first in document order wins",)
        assert v.per_type["timestampedNamedGraphStream"].passed is passes
        single = classify_element(named_dataset("g3", stamp=dt("2024-01-04T00:00:00")), state, cfg, 2)
        assert single.notes == ()


class TestClassifyStream:
    def test_fresh_chains_conform_to_both_graph_types(self):
        report = classify_stream([chain("s1", "a"), chain("s2", "b")], Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream", "subjectGraphStream")
        assert report.most_specific == ("subjectGraphStream",)
        assert not report.vacuous and not report.ambiguous

    def test_empty_stream_is_vacuous(self):
        report = classify_stream([], Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream", "subjectGraphStream")
        assert report.vacuous

    def test_first_violation_records_earliest_index(self):
        elements = [chain("s", "a"), chain("s", "b"), chain("s", "c")]
        report = classify_stream(elements, Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream",)
        fv = report.first_violation["subjectGraphStream"]
        assert fv.element_index == 1
        assert fv.reason == "subject not unique in stream"

    def test_timestamped_stream(self):
        elements = [
            named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z")),
            named_dataset("g2", stamp=dt("2024-01-02T00:00:00Z")),
        ]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.conforming == (
            "datasetStream",
            "namedGraphStream",
            "timestampedNamedGraphStream",
        )
        assert report.most_specific == ("timestampedNamedGraphStream",)

    def test_missing_timestamp_downgrades(self):
        elements = [named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z")), named_dataset("g2")]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.most_specific == ("namedGraphStream",)
        assert report.first_violation["timestampedNamedGraphStream"].element_index == 1

    def test_statement_count_sums_quads_and_triples(self):
        elements = [
            named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z"), graph_triples=2),
            named_dataset("g2", graph_triples=3),
        ]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.element_count == 2
        assert report.statement_count == 2 + 1 + 3  # named triples plus one stamp

    def test_flat_triples_always_conform(self):
        statements = [Triple(iri("a"), P, iri("b"))]
        report = classify_stream(statements, Framing.FLAT_TRIPLES)
        assert report.applicable == ("flatTripleStream",)
        assert report.conforming == ("flatTripleStream",)
        assert report.most_specific == ("flatTripleStream",)
        assert report.statement_count == 1

    def test_flat_quads_projectable_note(self):
        statements = [Quad(iri("a"), P, iri("b")), Quad(iri("c"), P, iri("d"))]
        report = classify_stream(statements, Framing.FLAT_QUADS)
        assert any("projectable" in n for n in report.notes)

    def test_flat_quads_with_labels_no_note(self):
        statements = [Quad(iri("a"), P, iri("b"), iri("g"))]
        report = classify_stream(statements, Framing.FLAT_QUADS)
        assert not report.notes

    def test_empty_flat_stream_no_projectable_note(self):
        report = classify_stream([], Framing.FLAT_QUADS)
        assert report.vacuous and not report.notes

    def test_bytes_source_accepted(self):
        payload = b"<http://x:1/s> <http://x:1/p> <http://x:1/o> .\n"
        report = classify_stream(payload, Framing.FLAT_TRIPLES)
        assert report.statement_count == 1

    def test_evidence_capped(self):
        elements = [chain("s", "a")] + [chain("s", f"b{i}") for i in range(8)]
        cfg = ClassifierConfig(max_evidence=3)
        report = classify_stream(elements, Framing.FRAMED_GRAPHS, cfg)
        assert len(report.evidence) == 3
        assert report.first_violation["subjectGraphStream"].element_index == 1

    def test_report_dict_shape_and_key_order(self):
        report = classify_stream([chain("s", "a")], Framing.FRAMED_GRAPHS)
        d = report.to_dict()
        assert list(d) == [
            "framing",
            "elementCount",
            "statementCount",
            "applicable",
            "conforming",
            "mostSpecific",
            "vacuous",
            "ambiguous",
            "firstViolation",
            "notes",
            "evidence",
        ]
        assert d["framing"] == "framed-graphs"
        assert d["firstViolation"] == {}

    def test_report_dict_violation_entry(self):
        report = classify_stream([chain("s", "a"), chain("s", "b")], Framing.FRAMED_GRAPHS)
        d = report.to_dict()
        entry = d["firstViolation"]["subjectGraphStream"]
        assert entry == {"elementIndex": 1, "reason": "subject not unique in stream"}
        verdicts = d["evidence"][0]["verdicts"]
        assert verdicts["graphStream"] == {"pass": True}
        assert verdicts["subjectGraphStream"]["pass"] is False

    def test_determinism(self):
        r = random.Random(5150)
        for _ in range(20):
            kind, elements = gen_classification_case(r)
            framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
            a = classify_stream(elements, framing).to_dict()
            b = classify_stream(elements, framing).to_dict()
            assert a == b


class TestGreedyBlindSpot:
    def test_greedy_can_fail_where_backtracking_succeeds(self):
        # element 0 takes 'a' (the smaller candidate of its cycle), element 1
        # then needs exactly 'a'; exhaustive search would have given element 0
        # 'b' instead. The engine flags the ambiguity instead of solving it.
        cyc = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        needs_a = chain("a", "z")
        report = classify_stream([cyc, needs_a], Framing.FRAMED_GRAPHS)
        assert "subjectGraphStream" not in report.conforming
        assert report.ambiguous
        verdicts, _ = oracle_classify([cyc, needs_a], "graphs")
        assert verdicts["subjectGraphStream"]  # a valid assignment exists

    def test_disagreements_on_random_streams_are_rare_and_flagged(self):
        r = random.Random(31337)
        disagreements = 0
        for _ in range(400):
            stream = gen_graph_stream(r)
            report = classify_stream(stream, Framing.FRAMED_GRAPHS)
            verdicts, _ = oracle_classify(stream, "graphs")
            got = "subjectGraphStream" in report.conforming
            want = verdicts["subjectGraphStream"]
            if got != want:
                disagreements += 1
                assert not got and want  # greedy is only ever too strict
                assert report.ambiguous
        assert disagreements <= 4  # < 1%


class TestUpwardClosure:
    def test_conforming_sets_are_upward_closed(self):
        # anything passing a narrow check passes every broader one
        r = random.Random(97)
        for _ in range(200):
            kind, elements = gen_classification_case(r)
            framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
            report = classify_stream(elements, framing)
            conforming = set(report.conforming)
            if "subjectGraphStream" in conforming:
                assert "graphStream" in conforming
            if "timestampedNamedGraphStream" in conforming:
                assert "namedGraphStream" in conforming
            if "namedGraphStream" in conforming:
                assert "datasetStream" in conforming

    def test_oracle_agrees_on_dataset_streams(self):
        r = random.Random(98)
        for _ in range(200):
            stream = gen_dataset_stream(r)
            report = classify_stream(stream, Framing.FRAMED_DATASETS)
            verdicts, _ = oracle_classify(stream, "datasets")
            for t in ("datasetStream", "namedGraphStream", "timestampedNamedGraphStream"):
                assert (t in report.conforming) == verdicts[t], (t, stream)


class TestConfig:
    def test_empty_predicates_rejected(self):
        with pytest.raises(ValueError):
            ClassifierConfig(timestamp_predicates=frozenset())

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            ClassifierConfig(max_evidence=-1)

    def test_is_an_immutable_value(self):
        cfg = ClassifierConfig(max_evidence=3)
        with pytest.raises(AttributeError):
            cfg.max_evidence = 4
        with pytest.raises(AttributeError):
            del cfg.check_timestamp_order
        assert cfg == ClassifierConfig(max_evidence=3) != ClassifierConfig()
        assert hash(cfg) == hash(ClassifierConfig(max_evidence=3))
        assert repr(ClassifierConfig()).startswith("ClassifierConfig(timestamp_predicates=frozenset(")
