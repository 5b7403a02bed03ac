import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_broader_closure, oracle_conversion_path, oracle_relation_closure
from staxkit.errors import (
    CycleError,
    DanglingReference,
    NoConversionPath,
    SchemaError,
    UnknownType,
)
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

    def test_side(self):
        flat = {"flatStream", "flatTripleStream", "flatQuadStream"}
        for t in CONCRETE + ABSTRACT:
            want = None if t == "rdfStream" else "flat" if t in flat else "grouped"
            assert T.side(t) == want, t
        assert T.side("nope") is None

    def test_side_prefers_grouped_under_both_anchors(self):
        tax = load_taxonomy(
            json.dumps(
                {
                    "types": [
                        {"id": i, "iri": f"http://x:1/{i}", "kind": "abstract"}
                        for i in ("groupedStream", "flatStream", "both")
                    ],
                    "relations": [["both", "broader", "flatStream"], ["both", "broader", "groupedStream"]],
                }
            )
        )
        assert tax.side("both") == "grouped"

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
