import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import STEP_NAMES, oracle_broader_closure, oracle_conversion_path, oracle_relation_closure
from staxkit.convert import convert
from staxkit.errors import (
    CycleError,
    DanglingReference,
    NoConversionPath,
    SchemaError,
    UnknownType,
)
from staxkit.model import Dataset, Graph, Iri, Quad, Triple
from staxkit.taxonomy import (
    STAX_NS,
    ConversionStep,
    conversion_path,
    default_taxonomy,
    infer_closure,
    load_taxonomy,
    most_specific,
    relates,
)

T = default_taxonomy()
C = infer_closure(T)

CONCRETE = [
    "graphStream",
    "subjectGraphStream",
    "datasetStream",
    "namedGraphStream",
    "timestampedNamedGraphStream",
    "flatTripleStream",
    "flatQuadStream",
]
ABSTRACT = ["rdfStream", "groupedStream", "flatStream"]


class TestDefaultTaxonomy:
    def test_type_inventory(self):
        assert sorted(T.types) == sorted(CONCRETE + ABSTRACT)
        assert len(T.types) == 10

    def test_kinds(self):
        for t in ABSTRACT:
            assert T.type(t).kind.value == "abstract"
        for t in CONCRETE:
            assert T.type(t).kind.value == "concrete"

    def test_iris_live_in_the_stax_namespace(self):
        assert T.type("datasetStream").iri == STAX_NS + "datasetStream"
        assert T.type("flatQuadStream").iri == STAX_NS + "flatQuadStream"

    def test_edge_counts(self):
        assert len(T.edges("broader")) == 9
        assert len(T.edges("flatten")) == 2
        assert len(T.edges("group")) == 2
        assert len(T.edges("extend")) == 2

    def test_broader_edges(self):
        broader = set(T.edges("broader"))
        assert ("groupedStream", "rdfStream") in broader
        assert ("flatStream", "rdfStream") in broader
        assert ("subjectGraphStream", "graphStream") in broader
        assert ("timestampedNamedGraphStream", "namedGraphStream") in broader
        assert ("namedGraphStream", "datasetStream") in broader

    def test_asserted_conversion_edges(self):
        assert set(T.edges("flatten")) == {
            ("graphStream", "flatTripleStream"),
            ("datasetStream", "flatQuadStream"),
        }
        assert set(T.edges("group")) == {
            ("flatTripleStream", "graphStream"),
            ("flatQuadStream", "datasetStream"),
        }
        assert set(T.edges("extend")) == {
            ("graphStream", "datasetStream"),
            ("flatTripleStream", "flatQuadStream"),
        }

    def test_ancestors(self):
        assert T.ancestors("timestampedNamedGraphStream") == {
            "namedGraphStream",
            "datasetStream",
            "groupedStream",
            "rdfStream",
        }
        assert T.ancestors("flatQuadStream") == {"flatStream", "rdfStream"}
        assert T.ancestors("rdfStream") == frozenset()
        with pytest.raises(UnknownType):
            T.ancestors("nope")

    def test_payload(self):
        want = {
            "graphStream": "graphs",
            "subjectGraphStream": "graphs",
            "datasetStream": "datasets",
            "namedGraphStream": "datasets",
            "timestampedNamedGraphStream": "datasets",
            "flatTripleStream": "triples",
            "flatQuadStream": "quads",
        }
        assert {t: T.payload(t) for t in CONCRETE + ABSTRACT} == {**dict.fromkeys(ABSTRACT), **want}
        with pytest.raises(UnknownType):
            T.payload("nope")

    @pytest.mark.parametrize("kind", ["abstract", "concrete"])
    def test_a_type_under_two_anchors_is_refused_at_load(self, kind):
        doc = T.to_dict()
        doc["types"].append({"id": "both", "iri": "http://x:1/both", "kind": kind})
        doc["relations"] += [["both", "broader", "graphStream"], ["both", "broader", "flatQuadStream"]]
        with pytest.raises(SchemaError) as info:
            load_taxonomy(json.dumps(doc))
        assert str(info.value) == "type both is or narrows more than one payload anchor: flatQuadStream, graphStream"

    def test_unknown_type_lookup(self):
        with pytest.raises(UnknownType):
            T.type("mysteryStream")


class TestClosure:
    def test_inferred_taxonomy_is_hashable(self):
        # an equal taxonomy infers an equal closure, which finds the same dict entry
        again = infer_closure(default_taxonomy())
        assert again == C and {C: "closure"}[again] == "closure"

    def test_broader_closure_is_transitive(self):
        assert ("subjectGraphStream", "rdfStream") in C.broader_closure
        assert ("timestampedNamedGraphStream", "datasetStream") in C.broader_closure
        assert ("timestampedNamedGraphStream", "groupedStream") in C.broader_closure

    def test_broader_closure_is_irreflexive(self):
        for a, b in C.broader_closure:
            assert a != b

    def test_flatten_closure_exact(self):
        assert C.flatten_closure == frozenset(
            {
                ("graphStream", "flatTripleStream"),
                ("subjectGraphStream", "flatTripleStream"),
                ("datasetStream", "flatQuadStream"),
                ("namedGraphStream", "flatQuadStream"),
                ("timestampedNamedGraphStream", "flatQuadStream"),
            }
        )

    def test_group_closure_gains_nothing(self):
        # group sources are flat leaves with no narrower types
        assert C.group_closure == frozenset(T.edges("group"))

    def test_extend_closure_exact(self):
        assert C.extend_closure == frozenset(
            {
                ("graphStream", "datasetStream"),
                ("subjectGraphStream", "datasetStream"),
                ("flatTripleStream", "flatQuadStream"),
            }
        )

    def test_closure_matches_independent_oracle(self):
        ids = T.type_ids()
        assert C.broader_closure == oracle_broader_closure(ids, T.edges("broader"))
        for name in ("flatten", "group", "extend"):
            assert C.closure(name) == oracle_relation_closure(
                ids, T.edges("broader"), T.edges(name)
            ), name

    def test_closure_is_idempotent(self):
        again = infer_closure(T)
        assert again == C


class TestRelates:
    def test_documented_positives(self):
        assert relates(C, "flatten", "subjectGraphStream", "flatTripleStream")
        assert relates(C, "flatten", "timestampedNamedGraphStream", "flatQuadStream")
        assert relates(C, "extend", "subjectGraphStream", "datasetStream")
        assert relates(C, "broader", "timestampedNamedGraphStream", "groupedStream")

    def test_documented_negatives(self):
        assert not relates(C, "flatten", "graphStream", "flatQuadStream")
        assert not relates(C, "broader", "graphStream", "graphStream")
        assert not relates(C, "group", "graphStream", "flatTripleStream")

    def test_ontology_names_accepted(self):
        assert relates(C, "canBeFlattenedInto", "datasetStream", "flatQuadStream")
        assert relates(C, "canBeGroupedInto", "flatQuadStream", "datasetStream")
        assert relates(C, "canBeTriviallyExtendedInto", "flatTripleStream", "flatQuadStream")

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            relates(C, "narrower", "graphStream", "rdfStream")

    def test_unknown_types_rejected(self):
        with pytest.raises(UnknownType):
            relates(C, "broader", "graphStream", "nope")
        with pytest.raises(UnknownType):
            relates(C, "broader", "nope", "graphStream")


class TestMostSpecific:
    def test_drops_broader_companions(self):
        got = most_specific(C, ["graphStream", "subjectGraphStream", "rdfStream"])
        assert got == ("subjectGraphStream",)

    def test_keeps_incomparable_types(self):
        got = most_specific(C, ["subjectGraphStream", "flatTripleStream"])
        assert set(got) == {"flatTripleStream", "subjectGraphStream"}

    def test_duplicates_collapse(self):
        assert most_specific(C, ["graphStream", "graphStream"]) == ("graphStream",)

    def test_empty_in_empty_out(self):
        assert most_specific(C, []) == ()

    def test_output_sorted(self):
        got = most_specific(C, ["flatTripleStream", "datasetStream", "graphStream"])
        assert list(got) == sorted(got)

    def test_unknown_type(self):
        with pytest.raises(UnknownType):
            most_specific(C, ["graphStream", "who"])


class TestConversionPath:
    def test_identity_same_type(self):
        assert conversion_path(C, "graphStream", "graphStream") == []

    def test_identity_upcast(self):
        assert conversion_path(C, "subjectGraphStream", "graphStream") == []
        assert conversion_path(C, "timestampedNamedGraphStream", "rdfStream") == []

    def test_strict_single_step(self):
        path = conversion_path(C, "subjectGraphStream", "flatTripleStream")
        assert path == [ConversionStep("flatten", "subjectGraphStream", "flatTripleStream")]

    def test_strict_refuses_chains(self):
        assert conversion_path(C, "graphStream", "flatQuadStream") is None

    def test_transitive_chain(self):
        path = conversion_path(C, "graphStream", "flatQuadStream", policy="transitive")
        assert path == [
            ConversionStep("extend", "graphStream", "datasetStream"),
            ConversionStep("flatten", "datasetStream", "flatQuadStream"),
        ]

    def test_transitive_prefers_single_step(self):
        path = conversion_path(C, "datasetStream", "flatQuadStream", policy="transitive")
        assert path == [ConversionStep("flatten", "datasetStream", "flatQuadStream")]

    def test_transitive_uses_closed_edges(self):
        path = conversion_path(
            C, "timestampedNamedGraphStream", "flatQuadStream", policy="transitive"
        )
        assert path == [
            ConversionStep("flatten", "timestampedNamedGraphStream", "flatQuadStream")
        ]

    def test_trailing_upcast_allowed(self):
        # flatTripleStream flattens nowhere, but reaching it covers the
        # flat side's abstract ancestor
        path = conversion_path(C, "graphStream", "flatStream", policy="transitive")
        assert path == [ConversionStep("flatten", "graphStream", "flatTripleStream")]

    def test_unreachable_target(self):
        assert conversion_path(C, "flatQuadStream", "graphStream", policy="transitive") is None

    def test_deterministic_choice(self):
        first = conversion_path(C, "graphStream", "flatQuadStream", policy="transitive")
        second = conversion_path(C, "graphStream", "flatQuadStream", policy="transitive")
        assert first == second

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            conversion_path(C, "graphStream", "flatQuadStream", policy="eager")

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownType):
            conversion_path(C, "graphStream", "nope")


class TestLoadTaxonomy:
    @pytest.mark.parametrize(
        "relation,edge,message",
        [
            (
                "extend",
                ("datasetStream", "graphStream"),
                "canBeTriviallyExtendedInto edge (datasetStream, graphStream) "
                "cannot take datasetStream (datasets) to graphStream (graphs)",
            ),
            (
                "flatten",
                ("graphStream", "flatQuadStream"),
                "canBeFlattenedInto edge (graphStream, flatQuadStream) "
                "cannot take graphStream (graphs) to flatQuadStream (quads)",
            ),
            (
                "group",
                ("flatQuadStream", "graphStream"),
                "canBeGroupedInto edge (flatQuadStream, graphStream) "
                "cannot take flatQuadStream (quads) to graphStream (graphs)",
            ),
            # an abstract end: checked through the payloads of the types below the source
            (
                "flatten",
                ("groupedStream", "flatStream"),
                "canBeFlattenedInto edge (groupedStream, flatStream) "
                "cannot take graphStream (graphs) to flatStream (no payload)",
            ),
        ],
    )
    def test_payload_mismatch_messages(self, relation, edge, message):
        doc = T.to_dict()
        doc["relations"].append([edge[0], relation, edge[1]])
        with pytest.raises(SchemaError) as info:
            load_taxonomy(json.dumps(doc))
        assert str(info.value) == message

    def test_default_survives_serialization(self):
        text = json.dumps(T.to_dict())
        assert load_taxonomy(text) == T

    def test_minimal_document(self):
        doc = {
            "types": [
                {"id": "root", "iri": "http://x:1/root", "kind": "abstract"},
                {"id": "leaf", "iri": "http://x:1/leaf", "kind": "concrete"},
            ],
            "relations": [["leaf", "broader", "root"]],
        }
        tax = load_taxonomy(json.dumps(doc))
        assert set(tax.types) == {"root", "leaf"}
        assert tax.edges("flatten") == ()

    def test_relations_as_triples(self):
        doc = {
            "types": [
                {"id": "root", "iri": "http://x:1/root", "kind": "abstract"},
                {"id": "a", "iri": "http://x:1/a", "kind": "abstract"},
                {"id": "b", "iri": "http://x:1/b", "kind": "abstract"},
            ],
            "relations": [
                ["a", "broader", "root"],
                ["b", "broader", "root"],
                ["a", "flatten", "b"],
                ["b", "group", "a"],
            ],
        }
        tax = load_taxonomy(json.dumps(doc))
        assert tax.edges("flatten") == (("a", "b"),)
        assert tax.edges("group") == (("b", "a"),)

    def test_ontology_relation_names_accepted(self):
        doc = {
            "types": [
                {"id": "a", "iri": "http://x:1/a", "kind": "abstract"},
                {"id": "b", "iri": "http://x:1/b", "kind": "abstract"},
            ],
            "relations": [["a", "canBeFlattenedInto", "b"]],
        }
        tax = load_taxonomy(json.dumps(doc))
        assert tax.edges("flatten") == (("a", "b"),)

    def test_missing_label_falls_back_to_id(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract"}],
            "relations": [],
        }
        assert load_taxonomy(json.dumps(doc)).type("a").label == "a"

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_taxonomy("{nope")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "taxonomy document must be a JSON object"),
            ('{"types": [], "relations": [], "extra": 1}', "unknown taxonomy keys: extra"),
            ('{"relations": []}', "taxonomy document needs a 'types' array"),
            ('{"types": {}}', "'types' must be an array"),
            ('{"types": [], "relations": {}}', "'relations' must be an array"),
            ('{"types": ["a"]}', "every type entry must be an object"),
            ('{"types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract", "color": "red"}]}',
             "unknown type entry keys: color"),
            ('{"types": [{"id": "a", "kind": "abstract"}]}', "type entry needs a string 'iri'"),
            ('{"types": [{"id": 1, "iri": "http://x:1/a", "kind": "abstract"}]}', "type entry needs a string 'id'"),
            ('{"types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract", "label": 7}]}',
             "type a: label must be a string"),
            ('{"types": [], "relations": [["a", "broader"]]}', "every relation entry must be [fromId, relation, toId]"),
            ('{"types": [], "relations": [["a", "broader", 3]]}',
             "every relation entry must be [fromId, relation, toId]"),
        ],
    )
    def test_a_malformed_document_is_refused_with_its_message(self, text, message):
        with pytest.raises(SchemaError) as info:
            load_taxonomy(text)
        assert str(info.value) == message

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            load_taxonomy("[1, 2]")

    def test_unknown_top_level_key(self):
        doc = {"types": [], "relations": [], "extra": 1}
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_unknown_type_key(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract", "color": "red"}],
            "relations": [],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_bad_kind(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "virtual"}],
            "relations": [],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_bad_iri(self):
        doc = {
            "types": [{"id": "a", "iri": "noscheme", "kind": "abstract"}],
            "relations": [],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_duplicate_type_id(self):
        doc = {
            "types": [
                {"id": "a", "iri": "http://x:1/a", "kind": "abstract"},
                {"id": "a", "iri": "http://x:1/b", "kind": "abstract"},
            ],
            "relations": [],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_dangling_broader_edge(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract"}],
            "relations": [["a", "broader", "ghost"]],
        }
        with pytest.raises(DanglingReference):
            load_taxonomy(json.dumps(doc))

    def test_dangling_relation_edge(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract"}],
            "relations": [["a", "flatten", "ghost"]],
        }
        with pytest.raises(DanglingReference):
            load_taxonomy(json.dumps(doc))

    def test_broader_cycle(self):
        doc = {
            "types": [
                {"id": "a", "iri": "http://x:1/a", "kind": "abstract"},
                {"id": "b", "iri": "http://x:1/b", "kind": "abstract"},
            ],
            "relations": [["a", "broader", "b"], ["b", "broader", "a"]],
        }
        with pytest.raises(CycleError, match=r"^broader cycle: a -> b -> a$"):
            load_taxonomy(json.dumps(doc))

    def test_self_loop_is_a_cycle(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "abstract"}],
            "relations": [["a", "broader", "a"]],
        }
        with pytest.raises(CycleError, match=r"^broader cycle: a -> a$"):
            load_taxonomy(json.dumps(doc))

    def test_concrete_type_needs_an_abstract_ancestor(self):
        doc = {
            "types": [{"id": "a", "iri": "http://x:1/a", "kind": "concrete"}],
            "relations": [],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))

    def test_unknown_relation_name(self):
        doc = {
            "types": [
                {"id": "a", "iri": "http://x:1/a", "kind": "abstract"},
                {"id": "b", "iri": "http://x:1/b", "kind": "abstract"},
            ],
            "relations": [["a", "squash", "b"]],
        }
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))


# random DAG taxonomies: the engine's closure must agree with the oracle
# on every relation, for any shape of broader hierarchy

def _random_taxonomy(seed):
    r = random.Random(seed)
    n = r.randint(2, 8)
    ids = [f"t{i}" for i in range(n)]
    types = [{"id": t, "iri": f"http://x:1/{t}", "kind": "abstract"} for t in ids]
    relations = []
    # broader edges only point from higher index to lower: acyclic by construction
    for i in range(1, n):
        for j in range(i):
            if r.random() < 0.35:
                relations.append([ids[i], "broader", ids[j]])
    for name in ("flatten", "group", "extend"):
        for _ in range(r.randint(0, 3)):
            a, b = r.sample(ids, 2)
            relations.append([a, name, b])
    return load_taxonomy(json.dumps({"types": types, "relations": relations}))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_closure_matches_oracle(seed):
    tax = _random_taxonomy(seed)
    closed = infer_closure(tax)
    ids = tax.type_ids()
    assert closed.broader_closure == oracle_broader_closure(ids, tax.edges("broader"))
    for name in ("flatten", "group", "extend"):
        assert closed.closure(name) == oracle_relation_closure(
            ids, tax.edges("broader"), tax.edges(name)
        ), (seed, name)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_closure_contains_asserted_edges(seed):
    tax = _random_taxonomy(seed)
    closed = infer_closure(tax)
    assert set(tax.edges("broader")) <= closed.broader_closure
    for name in ("flatten", "group", "extend"):
        assert set(tax.edges(name)) <= closed.closure(name)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_conversion_path_matches_oracle(seed):
    tax = _random_taxonomy(seed)
    closed = infer_closure(tax)
    ids = tax.type_ids()
    edges = {name: tax.edges(name) for name in ("broader", "flatten", "group", "extend")}
    for a in ids:
        for b in ids:
            for policy in ("strict", "transitive"):
                plan = conversion_path(closed, a, b, policy)
                got = None if plan is None else [(s.relation, s.source, s.target) for s in plan]
                assert got == oracle_conversion_path(ids, edges, a, b, policy), (seed, a, b, policy)


def _abstract_types(ids):
    return [{"id": t, "iri": f"http://x:1/{t}", "kind": "abstract"} for t in ids]


def test_deep_chain_listed_leaf_first_loads():
    # t999 -> t998 -> ... -> t0, narrowest type first in the document
    ids = [f"t{i}" for i in range(1000)]
    relations = [[ids[i], "broader", ids[i - 1]] for i in range(1, 1000)]
    tax = load_taxonomy(json.dumps({"types": _abstract_types(ids[::-1]), "relations": relations}))
    closed = infer_closure(tax)
    assert len(closed.broader_closure) == 1000 * 999 // 2 == 499_500
    assert tax.ancestors("t999") == frozenset(ids[:-1])


def test_ladder_of_parallel_steps_plans_one_step_per_rung():
    # every rung can be taken by group or by extend: 2**59 shortest plans
    ids = [f"t{i}" for i in range(60)]
    relations = [[a, rel, b] for a, b in zip(ids, ids[1:]) for rel in ("group", "extend")]
    closed = infer_closure(load_taxonomy(json.dumps({"types": _abstract_types(ids), "relations": relations})))
    plan = conversion_path(closed, "t0", "t59", policy="transitive")
    assert plan == [ConversionStep("group", a, b) for a, b in zip(ids, ids[1:])]


def test_no_conversion_path_error_carries_context():
    err = NoConversionPath("flatQuadStream", "graphStream", "strict")
    assert err.from_type == "flatQuadStream"
    assert err.to_type == "graphStream"
    assert err.policy == "strict"
    assert "flatQuadStream" in str(err)


# The built-in taxonomy plus up to three types and up to three conversion
# edges: it loads exactly when every closure edge that touches a payload
# maps it through the step table below, and then every plan between
# payload-carrying concrete types runs.  The anchors and the step table
# are written out here, apart from the ones the taxonomy module holds.
ORACLE_ANCHORS = {
    "flatTripleStream": "triples",
    "flatQuadStream": "quads",
    "graphStream": "graphs",
    "datasetStream": "datasets",
}
ORACLE_STEPS = {
    "flatten": {"graphs": "triples", "datasets": "quads"},
    "group": {"triples": "graphs", "quads": "datasets"},
    "extend": {"triples": "quads", "graphs": "datasets"},
}
_TRIPLE = Triple(Iri("http://x:1/s"), Iri("http://x:1/p"), Iri("http://x:1/o"))
ONE_ITEM = {
    "triples": _TRIPLE,
    "quads": Quad(*_TRIPLE, Iri("http://x:1/g")),
    "graphs": Graph([_TRIPLE]),
    "datasets": Dataset.from_quads([Quad(*_TRIPLE, Iri("http://x:1/g"))]),
}


def oracle_payloads(type_ids, broader_edges):
    """Each type's anchor payloads: those of the anchors it is or narrows."""
    broader = oracle_broader_closure(type_ids, broader_edges)
    return {
        t: tuple(p for a, p in ORACLE_ANCHORS.items() if a == t or (t, a) in broader)
        for t in type_ids
    }


def oracle_fits(relation, source, target):
    """Whether a closure edge between types of these anchor payloads fits."""
    if not source or not target:
        return not source and not target
    return ORACLE_STEPS[relation].get(source[0]) == target[0]


@st.composite
def extended_taxonomies(draw):
    doc = T.to_dict()
    ids = list(T.type_ids())
    for new in ("n0", "n1", "n2")[: draw(st.integers(0, 3), label="new types")]:
        kind = draw(st.sampled_from(["abstract", "concrete"]), label=f"{new} kind")
        doc["types"].append({"id": new, "iri": f"http://x:1/{new}", "kind": kind})
        for up in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True), label=f"{new} broader"):
            doc["relations"].append([new, "broader", up])
        ids.append(new)
    broader_edges = [(a, b) for a, name, b in doc["relations"] if name == "broader"]
    held, broader = oracle_payloads(ids, broader_edges), oracle_broader_closure(ids, broader_edges)
    below = {a: [x for x in ids if x == a or (x, a) in broader] for a in ids}
    for _ in range(draw(st.integers(0, 3), label="new edges")):
        relation = draw(st.sampled_from(STEP_NAMES), label="relation")
        # three edges in four fit their source and every type below it, when
        # one can, so that many extended taxonomies load
        fitting = [
            (a, b) for a in ids for b in ids if all(oracle_fits(relation, held[x], held[b]) for x in below[a])
        ]
        if fitting and draw(st.integers(0, 3), label="fit"):
            a, b = draw(st.sampled_from(fitting), label="fitting edge")
        else:
            a, b = draw(st.sampled_from(ids), label="source"), draw(st.sampled_from(ids), label="target")
        doc["relations"].append([a, relation, b])
    return doc


@settings(deadline=None)
@given(extended_taxonomies())
def test_property_taxonomy_loads_when_its_closure_fits_and_then_every_plan_runs(doc):
    ids = [t["id"] for t in doc["types"]]
    edges = {name: [(a, b) for a, n, b in doc["relations"] if n == name] for name in ("broader", *STEP_NAMES)}
    held = oracle_payloads(ids, edges["broader"])
    loads = all(len(p) <= 1 for p in held.values()) and all(
        oracle_fits(name, held[x], held[z])
        for name in STEP_NAMES
        for x, z in oracle_relation_closure(ids, edges["broader"], edges[name])
    )
    if not loads:
        with pytest.raises(SchemaError):
            load_taxonomy(json.dumps(doc))
        return
    closed = infer_closure(load_taxonomy(json.dumps(doc)))
    carriers = [t["id"] for t in doc["types"] if t["kind"] == "concrete" and held[t["id"]]]
    for a in carriers:
        for b in carriers:
            for policy in ("strict", "transitive"):
                if conversion_path(closed, a, b, policy) is None:
                    continue
                out = list(convert([ONE_ITEM[held[a][0]]], a, b, closed, policy))
                assert [type(item) for item in out] == [type(ONE_ITEM[held[b][0]])], (a, b, policy)
