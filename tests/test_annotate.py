import json
import re

import pytest

from oracles import reference_parse_turtle, turtle_signature
from staxkit.annotate import (
    DCAT_DATASET,
    AnnotationManifest,
    CrossCheckEntry,
    StreamTypeUsage,
    ValidationReport,
    Violation,
    cross_check,
    emit_turtle,
    load_manifest,
    validate_usages,
)
from staxkit.classify import classify_stream
from staxkit.errors import EmptyUsages, SchemaError, UnknownStreamType
from staxkit.io import Framing
from staxkit.model import Dataset, Graph, Iri, Literal, Quad, Triple
from staxkit.taxonomy import STAX_NS, TypeKind, default_taxonomy, infer_closure, load_taxonomy

C = infer_closure(default_taxonomy())

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
CONCRETE = [
    "graphStream",
    "subjectGraphStream",
    "datasetStream",
    "namedGraphStream",
    "timestampedNamedGraphStream",
    "flatTripleStream",
    "flatQuadStream",
]


def manifest(*type_ids, comments=None):
    usages = tuple(
        StreamTypeUsage(t, None if comments is None else comments.get(t))
        for t in type_ids
    )
    return AnnotationManifest(usages)


class TestLoadManifest:
    def test_full_document(self):
        doc = {
            "subjectIri": "http://ex.org/ds",
            "subjectClass": "http://www.w3.org/ns/dcat#Dataset",
            "usages": [
                {"streamType": "datasetStream", "comment": "sequence of datasets"},
                {"streamType": "flatQuadStream"},
            ],
        }
        m = load_manifest(json.dumps(doc))
        assert m.subject_iri == Iri("http://ex.org/ds")
        assert m.usages[0].comment == "sequence of datasets"
        assert m.usages[1].comment is None

    def test_minimal_document(self):
        m = load_manifest('{"usages": [{"streamType": "graphStream"}]}')
        assert m.subject_iri is None
        assert m.subject_class_iri == Iri(DCAT_DATASET)

    def test_empty_usages(self):
        with pytest.raises(EmptyUsages):
            load_manifest('{"usages": []}')

    def test_missing_usages(self):
        with pytest.raises(SchemaError):
            load_manifest("{}")

    def test_unknown_stream_type(self):
        with pytest.raises(UnknownStreamType):
            load_manifest('{"usages": [{"streamType": "zigzagStream"}]}')

    def test_abstract_type_rejected(self):
        with pytest.raises(SchemaError) as info:
            load_manifest('{"usages": [{"streamType": "groupedStream"}]}')
        assert "abstract" in str(info.value)

    def test_duplicate_usage(self):
        doc = {"usages": [{"streamType": "graphStream"}, {"streamType": "graphStream"}]}
        with pytest.raises(SchemaError):
            load_manifest(json.dumps(doc))

    def test_unknown_top_level_key(self):
        doc = {"usages": [{"streamType": "graphStream"}], "color": "red"}
        with pytest.raises(SchemaError):
            load_manifest(json.dumps(doc))

    def test_unknown_usage_key(self):
        doc = {"usages": [{"streamType": "graphStream", "note": "hi"}]}
        with pytest.raises(SchemaError):
            load_manifest(json.dumps(doc))

    def test_bad_subject_iri(self):
        doc = {"subjectIri": "noscheme", "usages": [{"streamType": "graphStream"}]}
        with pytest.raises(SchemaError):
            load_manifest(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_manifest("{nope")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "manifest must be a JSON object"),
            ('{"usages": [{"streamType": "graphStream"}], "b": 1, "a": 2}', "unknown manifest keys: a, b"),
            ('{"usages": ["graphStream"]}', "every usage must be an object"),
            ('{"usages": [{"streamType": "graphStream", "note": "hi"}]}', "unknown usage keys: note"),
            ('{"usages": [{"streamType": 1}]}', "usage needs a string 'streamType'"),
            ('{"usages": [{"comment": "c"}]}', "usage needs a string 'streamType'"),
            ('{"usages": [{"streamType": "graphStream", "comment": 2}]}', "usage graphStream: comment must be a string"),
            ('{"usages": [{"streamType": "graphStream"}], "subjectIri": 3}', "subjectIri must be a string"),
            ('{"usages": [{"streamType": "graphStream"}], "subjectClass": null}', "subjectClass must be a string"),
            ('{"usages": [{"streamType": "graphStream"}], "subjectClass": "noscheme"}',
             "bad subjectClass: IRI has no scheme separator ':': 'noscheme'"),
            ('{"usages": [{"streamType": "graphStream"}], "subjectIri": "noscheme"}',
             "bad subjectIri: IRI has no scheme separator ':': 'noscheme'"),
            # subjectIri is checked first, whatever the keys' order in the document.
            ('{"usages": [{"streamType": "graphStream"}], "subjectClass": "x", "subjectIri": "y"}',
             "bad subjectIri: IRI has no scheme separator ':': 'y'"),
        ],
    )
    def test_a_malformed_document_is_refused_with_its_message(self, text, message):
        with pytest.raises(SchemaError) as info:
            load_manifest(text)
        assert str(info.value) == message

    def test_custom_taxonomy(self):
        doc = {
            "types": [
                {"id": "root", "iri": "http://x:1/root", "kind": "abstract"},
                {"id": "myStream", "iri": "http://x:1/my", "kind": "concrete"},
            ],
            "relations": [["myStream", "broader", "root"]],
        }
        tax = load_taxonomy(json.dumps(doc))
        m = load_manifest('{"usages": [{"streamType": "myStream"}]}', tax)
        assert m.usages[0].stream_type == "myStream"
        with pytest.raises(UnknownStreamType):
            load_manifest('{"usages": [{"streamType": "graphStream"}]}', tax)

    def test_direct_constructor_checks_too(self):
        with pytest.raises(EmptyUsages):
            AnnotationManifest(())
        with pytest.raises(SchemaError):
            AnnotationManifest((StreamTypeUsage("a"), StreamTypeUsage("a")))

    def test_manifest_is_an_immutable_value(self):
        m = manifest("graphStream")
        with pytest.raises(AttributeError):
            m.usages = ()
        with pytest.raises(AttributeError):
            del m.subject_iri
        assert m == manifest("graphStream") != manifest("datasetStream")
        assert m.subject_class_iri == Iri(DCAT_DATASET)


class TestValidateUsages:
    def test_flattenable_pair_is_consistent(self):
        report = validate_usages(manifest("datasetStream", "flatQuadStream"), C)
        assert report.consistent

    def test_groupable_pair_is_consistent_in_either_order(self):
        report = validate_usages(manifest("flatQuadStream", "datasetStream"), C)
        assert report.consistent

    def test_unrelated_cross_side_pair_fails_strict(self):
        report = validate_usages(manifest("graphStream", "flatQuadStream"), C)
        assert not report.consistent
        v = report.violations[0]
        assert v.rule == "pair-relation"
        assert v.usages == ("graphStream", "flatQuadStream")

    def test_same_pair_passes_transitive(self):
        report = validate_usages(
            manifest("graphStream", "flatQuadStream"), C, policy="transitive"
        )
        assert report.consistent

    def test_narrow_grouped_type_reaches_flat_side(self):
        report = validate_usages(manifest("timestampedNamedGraphStream", "flatQuadStream"), C)
        assert report.consistent

    def test_same_side_unrelated_pair_fails(self):
        report = validate_usages(manifest("graphStream", "datasetStream"), C)
        assert not report.consistent
        assert report.violations[0].rule == "same-side"

    def test_same_side_broader_pair_is_consistent(self):
        report = validate_usages(manifest("datasetStream", "namedGraphStream"), C)
        assert report.consistent

    def test_flat_side_pair_fails(self):
        report = validate_usages(manifest("flatTripleStream", "flatQuadStream"), C)
        assert not report.consistent
        assert report.violations[0].rule == "same-side"

    @pytest.mark.parametrize("type_id", CONCRETE)
    def test_singleton_manifests_are_always_consistent(self, type_id):
        assert validate_usages(manifest(type_id), C).consistent

    def test_three_way_manifest_collects_every_bad_pair(self):
        report = validate_usages(
            manifest("graphStream", "datasetStream", "flatTripleStream"), C
        )
        rules = sorted(v.rule for v in report.violations)
        # graph/dataset clash on the same side; dataset/flatTriple lack a relation
        assert rules == ["pair-relation", "same-side"]

    def test_a_usage_without_a_payload_is_in_no_pair(self):
        # A concrete type that narrows no anchor type holds no payload: it
        # is paired with no other usage, and the other pairs are still checked.
        doc = default_taxonomy().to_dict()
        doc["types"].append({"id": "oddStream", "iri": STAX_NS + "oddStream", "kind": "concrete"})
        doc["relations"].append(["oddStream", "broader", "rdfStream"])
        inferred = infer_closure(load_taxonomy(json.dumps(doc)))
        assert inferred.taxonomy.payload("oddStream") is None
        usages = ("oddStream", "subjectGraphStream", "namedGraphStream")
        m = load_manifest(json.dumps({"usages": [{"streamType": t} for t in usages]}), inferred.taxonomy)
        violations = validate_usages(m, inferred).violations
        assert [(v.rule, v.usages) for v in violations] == [("same-side", ("subjectGraphStream", "namedGraphStream"))]

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            validate_usages(manifest("graphStream"), C, policy="lax")

    def test_report_dict(self):
        report = validate_usages(manifest("graphStream", "flatQuadStream"), C)
        d = report.to_dict()
        assert d["consistent"] is False
        assert d["violations"][0]["rule"] == "pair-relation"
        assert "crossCheck" not in d


class TestCrossCheck:
    def _stamped(self, name, lex):
        return Dataset(
            default_graph=Graph(
                [
                    Triple(
                        Iri(f"http://ex.org/{name}"),
                        Iri("http://www.w3.org/ns/prov#generatedAtTime"),
                        Literal(lex, datatype="http://www.w3.org/2001/XMLSchema#dateTime"),
                    )
                ]
            ),
            named_graphs=[
                (
                    Iri(f"http://ex.org/{name}"),
                    Graph([Triple(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Iri("http://ex.org/o"))]),
                )
            ],
        )

    def test_direct_conformance(self):
        report = classify_stream(
            [self._stamped("g1", "2024-01-01T00:00:00Z")], Framing.FRAMED_DATASETS
        )
        result = cross_check(manifest("timestampedNamedGraphStream"), report, C)
        assert result.cross_check_passed
        assert result.cross_check[0].message == "declared type conforms directly"

    def test_flat_declaration_reached_by_flatten(self):
        report = classify_stream(
            [self._stamped("g1", "2024-01-01T00:00:00Z")], Framing.FRAMED_DATASETS
        )
        result = cross_check(manifest("flatQuadStream"), report, C)
        assert result.cross_check_passed
        entry = result.cross_check[0]
        assert entry.passed and "via flatten" in entry.message

    def test_violated_declaration_fails_with_location(self):
        stream = [self._stamped("g1", "2024-01-02T00:00:00Z"),
                  self._stamped("g2", "2024-01-01T00:00:00Z")]
        report = classify_stream(stream, Framing.FRAMED_DATASETS)
        result = cross_check(manifest("timestampedNamedGraphStream"), report, C)
        entry = result.cross_check[0]
        assert not entry.passed
        assert "element 1" in entry.message
        assert "timestamp order violation" in entry.message

    def test_unreachable_declaration(self):
        report = classify_stream(
            [Graph([Triple(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Iri("http://ex.org/o"))])],
            Framing.FRAMED_GRAPHS,
        )
        result = cross_check(manifest("flatQuadStream"), report, C)
        entry = result.cross_check[0]
        assert not entry.passed
        assert entry.message == "no conforming type converts into it"

    def test_mixed_manifest_reports_each_usage(self):
        report = classify_stream(
            [self._stamped("g1", "2024-01-01T00:00:00Z")], Framing.FRAMED_DATASETS
        )
        result = cross_check(manifest("datasetStream", "flatQuadStream"), report, C)
        assert [e.passed for e in result.cross_check] == [True, True]
        assert not result.violations  # cross check never adds pair violations

    def test_report_dict_includes_cross_check(self):
        entries = (CrossCheckEntry("graphStream", True, "declared type conforms directly"),)
        d = ValidationReport((), entries).to_dict()
        assert d["crossCheck"] == [
            {
                "streamType": "graphStream",
                "pass": True,
                "message": "declared type conforms directly",
            }
        ]


def usable_as(sources, target, policy):
    """A test-side search of whether data of the source types can be used as
    target.  strict: one flatten/group/extend closure step or a broader
    upcast.  transitive: a breadth-first search over those closure steps
    that ends at target or at a type narrower than it."""
    steps = C.flatten_closure | C.group_closure | C.extend_closure

    def done(t):
        return t == target or (t, target) in C.broader_closure

    if policy == "strict":
        return any(done(t) or (t, target) in steps for t in sources)
    queue, seen = list(sources), set(sources)
    for t in queue:
        if done(t):
            return True
        for a, b in steps:
            if a == t and b not in seen:
                seen.add(b)
                queue.append(b)
    return False


def _t(s, o):
    return Triple(Iri(f"http://ex.org/{s}"), Iri("http://ex.org/p"), Iri(f"http://ex.org/{o}"))


def _named(*names, stamp=None):
    """A dataset of one small named graph per name, the first stamped if stamp is given."""
    default = []
    if stamp is not None:
        prov = Iri("http://www.w3.org/ns/prov#generatedAtTime")
        default.append(Triple(Iri(f"http://ex.org/{names[0]}"), prov, Literal(stamp, datatype=XSD_DATETIME)))
    named = [(Iri(f"http://ex.org/{n}"), Graph([_t("s", "o")])) for n in names]
    return Dataset(default_graph=Graph(default), named_graphs=named)


# One stream for every conforming set the built-in framings produce.
STREAMS = [
    ([Graph([_t("s", "o")])], Framing.FRAMED_GRAPHS),
    ([Graph([_t("s", "a")]), Graph([_t("s", "b")])], Framing.FRAMED_GRAPHS),
    ([_named("g1", stamp="2024-01-01T00:00:00Z")], Framing.FRAMED_DATASETS),
    ([_named("g1")], Framing.FRAMED_DATASETS),
    ([_named("g1", "g2")], Framing.FRAMED_DATASETS),
    ([_t("s", "o")], Framing.FLAT_TRIPLES),
    ([Quad(*_t("s", "o"), Iri("http://ex.org/g"))], Framing.FLAT_QUADS),
]
REPORTS = [classify_stream(items, framing) for items, framing in STREAMS]
GROUPED_FLAT = [
    (g, f) for g in CONCRETE for f in CONCRETE
    if not C.taxonomy.payload(g).is_flat and C.taxonomy.payload(f).is_flat
]


class TestUsableAs:
    def test_the_streams_produce_every_conforming_set(self):
        # every non-empty subset of a framing's types that holds each broader one
        def closed(types):
            return all((t, u) not in C.broader_closure or u in types for t in types for u in CONCRETE)

        expected = set()
        for applicable in {r.applicable for r in REPORTS}:
            for n in range(1, 2 ** len(applicable)):
                subset = tuple(t for i, t in enumerate(applicable) if n >> i & 1)
                if closed(subset):
                    expected.add(subset)
        assert sorted(r.conforming for r in REPORTS) == sorted(expected)
        assert len(expected) == 7

    @pytest.mark.parametrize("policy", ["strict", "transitive"])
    @pytest.mark.parametrize("declared", CONCRETE)
    def test_cross_check_passes_exactly_when_the_search_finds_a_path(self, declared, policy):
        for report in REPORTS:
            entry = cross_check(manifest(declared), report, C, policy).cross_check[0]
            assert entry.passed == usable_as(report.conforming, declared, policy), report.conforming
            if entry.passed and declared not in report.conforming:
                assert re.fullmatch(r"conforming \w+ reaches it via \w+(, \w+)*", entry.message)

    def test_the_transitive_policy_passes_three_more_rows(self):
        gained = [
            (r.conforming, declared)
            for r in REPORTS
            for declared in CONCRETE
            if cross_check(manifest(declared), r, C, "transitive").cross_check_passed
            and not cross_check(manifest(declared), r, C).cross_check_passed
        ]
        assert gained == [
            (("graphStream", "subjectGraphStream"), "flatQuadStream"),
            (("graphStream",), "flatQuadStream"),
            (("flatTripleStream",), "datasetStream"),
        ]
        entry = cross_check(manifest("flatQuadStream"), REPORTS[1], C, "transitive").cross_check[0]
        assert entry.message == "conforming graphStream reaches it via extend, flatten"

    PAIR_MESSAGES = {
        "strict": "{grouped} does not flatten into {flat} and {flat} does not group into {grouped}",
        "transitive": "no chain of conversions reaches {flat} from {grouped} or {grouped} from {flat}",
    }

    @pytest.mark.parametrize("policy", ["strict", "transitive"])
    @pytest.mark.parametrize("grouped, flat", GROUPED_FLAT)
    def test_a_pair_is_consistent_exactly_when_the_search_finds_a_path(self, grouped, flat, policy):
        ok = usable_as([grouped], flat, policy) or usable_as([flat], grouped, policy)
        why = self.PAIR_MESSAGES[policy].format(grouped=grouped, flat=flat)
        for pair in ((grouped, flat), (flat, grouped)):
            report = validate_usages(manifest(*pair), C, policy)
            assert report.violations == (() if ok else (Violation("pair-relation", (grouped, flat), why),))

    @pytest.mark.parametrize("policy", ["strict", "transitive"])
    def test_the_pair_message_says_why_under_each_policy(self, policy):
        # Under strict no single flatten or group step relates the pair; under
        # transitive no chain of steps reaches either type from the other.
        report = validate_usages(manifest("namedGraphStream", "flatTripleStream"), C, policy)
        assert [v.message for v in report.violations] == [
            self.PAIR_MESSAGES[policy].format(grouped="namedGraphStream", flat="flatTripleStream")
        ]

    def test_every_concrete_type_is_covered(self):
        concrete = [t for t in C.taxonomy.type_ids() if C.taxonomy.type(t).kind is TypeKind.CONCRETE]
        assert sorted(concrete) == sorted(CONCRETE)
        assert len(GROUPED_FLAT) == 10


class TestEmitTurtle:
    def test_two_usage_pattern(self):
        m = AnnotationManifest(
            (
                StreamTypeUsage("datasetStream", "The data is a sequence of RDF datasets."),
                StreamTypeUsage(
                    "flatQuadStream", "The data can be viewed as a flat sequence of RDF quads."
                ),
            )
        )
        text = emit_turtle(m)
        triples = reference_parse_turtle(text)

        type_triples = [t for t in triples if t[1] == ("iri", RDF_TYPE)]
        assert (
            sum(1 for t in type_triples if t[2] == ("iri", DCAT_DATASET)) == 1
        )
        assert (
            sum(1 for t in type_triples if t[2] == ("iri", STAX_NS + "RdfStreamTypeUsage")) == 2
        )

        usage_links = [t for t in triples if t[1] == ("iri", STAX_NS + "hasStreamTypeUsage")]
        assert len(usage_links) == 2

        has_type = {t[2][1] for t in triples if t[1] == ("iri", STAX_NS + "hasStreamType")}
        assert has_type == {STAX_NS + "datasetStream", STAX_NS + "flatQuadStream"}

        comments = {t[2][1] for t in triples if t[1] == ("iri", RDFS_COMMENT)}
        assert comments == {
            "The data is a sequence of RDF datasets.",
            "The data can be viewed as a flat sequence of RDF quads.",
        }
        for t in triples:
            if t[1] == ("iri", RDFS_COMMENT):
                assert t[2][3] == "en"

    def test_comment_follows_type_inside_each_block(self):
        m = AnnotationManifest(
            (StreamTypeUsage("graphStream", "graphs"),)
        )
        text = emit_turtle(m)
        type_pos = text.index("stax:hasStreamType stax:graphStream")
        comment_pos = text.index("rdfs:comment")
        assert type_pos < comment_pos

    def test_named_subject(self):
        m = AnnotationManifest(
            (StreamTypeUsage("graphStream"),), subject_iri=Iri("http://ex.org/ds")
        )
        text = emit_turtle(m)
        assert "<http://ex.org/ds> a dcat:Dataset ;" in text
        triples = reference_parse_turtle(text)
        assert (("iri", "http://ex.org/ds"), ("iri", RDF_TYPE), ("iri", DCAT_DATASET)) in triples

    def test_blank_subject_by_default(self):
        text = emit_turtle(AnnotationManifest((StreamTypeUsage("graphStream"),)))
        assert "_:dataset a dcat:Dataset ;" in text

    def test_usage_without_comment_has_no_comment_line(self):
        text = emit_turtle(AnnotationManifest((StreamTypeUsage("flatTripleStream"),)))
        assert "rdfs:comment" not in text
        triples = reference_parse_turtle(text)
        assert (("iri", STAX_NS + "flatTripleStream"),) == tuple(
            t[2] for t in triples if t[1] == ("iri", STAX_NS + "hasStreamType")
        )

    def test_comment_escaping(self):
        m = AnnotationManifest(
            (StreamTypeUsage("graphStream", 'say "hi"\nthen stop'),)
        )
        text = emit_turtle(m)
        assert '"say \\"hi\\"\\nthen stop"@en' in text
        triples = reference_parse_turtle(text)
        assert 'say "hi"\nthen stop' in {
            t[2][1] for t in triples if t[1] == ("iri", RDFS_COMMENT)
        }

    def test_every_iri_is_a_turtle_iriref(self):
        from staxkit.taxonomy import load_taxonomy

        # IRIREF of the Turtle and N-Triples grammars, written out here
        iriref = re.compile(r'<(?:[^\x00-\x20<>"{}|^`\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*>')
        odd = {"plain": STAX_NS + "plainStream", "dotted": STAX_NS + "a.b/c",
               "spaced": STAX_NS + "x{y}", "outside": "http://x:1/m`n^\\o|"}
        doc = {
            "types": [{"id": "root", "iri": "http://x:1/root", "kind": "abstract"}]
            + [{"id": i, "iri": v, "kind": "concrete"} for i, v in odd.items()],
            "relations": [[i, "broader", "root"] for i in odd],
        }
        tax = load_taxonomy(json.dumps(doc))
        m = AnnotationManifest(
            tuple(StreamTypeUsage(i, "<not an IRI>") for i in odd),
            subject_iri=Iri("http://ex.org/d{1}|x^"),
            subject_class_iri=Iri(STAX_NS + "odd{class}"),
        )
        text = emit_turtle(m, tax)
        outside_literals = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
        written = re.findall(r"<[^>]*>", outside_literals)
        assert len(written) == 3 + 1 + 1 + 3  # prefixes, subject, class, unsafe types
        assert all(iriref.fullmatch(w) for w in written), written
        assert "stax:plainStream" in text
        triples = reference_parse_turtle(text)
        assert ("iri", "http://ex.org/d{1}|x^") in {t[0] for t in triples}
        assert {t[2] for t in triples if t[1] == ("iri", STAX_NS + "hasStreamType")} == {
            ("iri", v) for v in odd.values()
        }

    def test_custom_taxonomy_iri_outside_stax_namespace(self):
        from staxkit.taxonomy import load_taxonomy

        doc = {
            "types": [
                {"id": "root", "iri": "http://x:1/root", "kind": "abstract"},
                {"id": "myStream", "iri": "http://x:1/my", "kind": "concrete"},
            ],
            "relations": [["myStream", "broader", "root"]],
        }
        tax = load_taxonomy(json.dumps(doc))
        m = AnnotationManifest((StreamTypeUsage("myStream"),))
        text = emit_turtle(m, tax)
        assert "stax:hasStreamType <http://x:1/my>" in text

    def test_emission_round_trips_through_load(self):
        # the ttl parser sees exactly the triples the manifest implies,
        # independent of blank node labels
        m1 = AnnotationManifest(
            (
                StreamTypeUsage("datasetStream", "datasets"),
                StreamTypeUsage("flatQuadStream"),
            ),
            subject_iri=Iri("http://ex.org/ds"),
        )
        sig1 = turtle_signature(reference_parse_turtle(emit_turtle(m1)))
        sig2 = turtle_signature(reference_parse_turtle(emit_turtle(m1)))
        assert sig1 == sig2

    def test_deterministic_output(self):
        m = AnnotationManifest(
            (StreamTypeUsage("datasetStream", "d"), StreamTypeUsage("flatQuadStream", "q"))
        )
        assert emit_turtle(m) == emit_turtle(m)


RDFS_COMMENT = "http://www.w3.org/2000/01/rdf-schema#comment"
