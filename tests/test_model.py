import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from streamgen import framed_bytes, gen_dataset_elements, gen_dataset_stream, gen_quad
from staxkit.convert import convert
from staxkit.errors import MalformedIri
from staxkit.framing import Framing
from staxkit.model import (
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Dataset,
    Graph,
    Iri,
    Literal,
    Quad,
    Triple,
)
from staxkit.taxonomy import default_taxonomy, infer_closure
from staxkit.writer import serialize_statement

EX = "http://example.org/"


def t(s, p, o):
    return Triple(Iri(EX + s), Iri(EX + p), Iri(EX + o))


class TestIri:
    def test_value_and_str(self):
        iri = Iri("http://example.org/a")
        assert iri.value == "http://example.org/a"
        assert str(iri) == "http://example.org/a"

    def test_requires_colon(self):
        with pytest.raises(MalformedIri):
            Iri("no-scheme-here")

    def test_rejects_empty(self):
        with pytest.raises(MalformedIri):
            Iri("")

    @pytest.mark.parametrize("bad", ["http://a b", "http://a<b", 'http://a"b', "http://a\tb", "http://a\nb"])
    def test_rejects_forbidden_chars(self, bad):
        with pytest.raises(MalformedIri):
            Iri(bad)

    def test_regex_refuses_exactly_the_forbidden_characters(self):
        # every code point: refused iff str.isspace(), one of '<>"' or a
        # surrogate, with the message the character checks give
        for code in range(sys.maxunicode + 1):
            value = "urn:" + chr(code)
            forbidden = value[-1].isspace() or value[-1] in '<>"' or 0xD800 <= code <= 0xDFFF
            try:
                Iri(value)
            except MalformedIri as exc:
                assert forbidden, value
                assert str(exc) == f"IRI contains forbidden character {value[-1]!r}: {value!r}"
            else:
                assert not forbidden, value

    @given(
        st.text(
            st.one_of(
                st.sampled_from(':/<>"#\u00a0\u2028\u3000\ud800\udfff \t\n'),
                st.characters(),
            ),
            max_size=40,
        )
    )
    def test_accepts_exactly_the_strings_the_character_oracle_accepts(self, value):
        # Iri's one regex against a character-by-character reading of its rule
        valid = ":" in value and not any(
            c.isspace() or c in '<>"' or 0xD800 <= ord(c) <= 0xDFFF for c in value
        )
        try:
            Iri(value)
        except MalformedIri:
            assert not valid, value
        else:
            assert valid, value

    def test_equality_is_by_value(self):
        assert Iri("urn:x") == Iri("urn:x")
        assert hash(Iri("urn:x")) == hash(Iri("urn:x"))


class TestBlankNode:
    def test_str_form(self):
        assert str(BlankNode("b1")) == "_:b1"

    @pytest.mark.parametrize("label", ["b1", "B", "0", "a.b-c_d", "9x"])
    def test_accepts(self, label):
        assert BlankNode(label).label == label

    @pytest.mark.parametrize("label", ["", "_x", ".x", "-a", "a.", "has space"])
    def test_rejects(self, label):
        with pytest.raises(ValueError):
            BlankNode(label)


class TestLiteral:
    def test_plain_defaults_to_string(self):
        lit = Literal("hello")
        assert lit.datatype == XSD_STRING
        assert lit.language is None

    def test_language_normalizes_datatype(self):
        lit = Literal("hej", language="sv")
        assert lit.datatype == RDF_LANGSTRING

    def test_langstring_without_language_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=RDF_LANGSTRING)

    def test_language_with_other_datatype_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", datatype="http://example.org/dt", language="en")

    def test_empty_language_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="")

    @pytest.mark.parametrize("tag", ["e1", "en-", "en--a", "enß", "en-\u0661"])
    def test_tag_outside_langtag_rejected(self, tag):
        with pytest.raises(ValueError, match="invalid language tag"):
            Literal("x", language=tag)

    @pytest.mark.parametrize("tag", ["en", "en-GB", "zh-Hant-TW", "x-1a2b"])
    def test_langtag_accepted(self, tag):
        assert Literal("x", language=tag).language == tag

    @pytest.mark.parametrize("datatype", ["nocolon", "http://a b", "http://a<b", ""])
    def test_datatype_must_be_an_iri(self, datatype):
        with pytest.raises(MalformedIri):
            Literal("x", datatype=datatype)

    def test_typed(self):
        lit = Literal("4", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert lit.language is None

    # A tag goes with xsd:string or rdf:langString, given as str or as Iri.
    @pytest.mark.parametrize(
        "datatype",
        [XSD_STRING, RDF_LANGSTRING, Iri(XSD_STRING), Iri(RDF_LANGSTRING)],
        ids=["str-string", "str-langString", "iri-string", "iri-langString"],
    )
    def test_language_accepts_either_datatype_as_str_or_iri(self, datatype):
        lit = Literal("x", datatype, "en")
        assert lit == Literal("x", language="en")
        assert type(lit.datatype) is str and lit.datatype == RDF_LANGSTRING

    @pytest.mark.parametrize(
        "datatype", [EX + "dt", Iri(EX + "dt"), BlankNode("b"), None], ids=["str", "iri", "blank", "none"]
    )
    def test_language_with_any_other_datatype_keeps_its_error(self, datatype):
        with pytest.raises(ValueError, match="^language-tagged literal must have datatype rdf:langString$"):
            Literal("x", datatype, "en")


class TestStatements:
    def test_triple_rejects_literal_subject(self):
        with pytest.raises(ValueError):
            Triple(Literal("x"), Iri(EX + "p"), Iri(EX + "o"))

    def test_triple_rejects_non_iri_predicate(self):
        with pytest.raises(ValueError):
            Triple(Iri(EX + "s"), BlankNode("b"), Iri(EX + "o"))

    def test_quad_default_graph(self):
        q = Quad(Iri(EX + "s"), Iri(EX + "p"), Literal("o"))
        assert q.graph_label is None
        assert q.triple() == Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("o"))

    def test_quad_rejects_literal_label(self):
        with pytest.raises(ValueError):
            Quad(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"), Literal("g"))


S, P, O = Iri(EX + "s"), Iri(EX + "p"), Literal("o", language="en")

# One of each term and statement class, built twice to get distinct objects.
MAKERS = {
    "Iri": lambda: Iri(EX + "a"),
    "BlankNode": lambda: BlankNode("b1"),
    "Literal": lambda: Literal("x", language="en"),
    "Triple": lambda: Triple(S, P, O),
    "Quad": lambda: Quad(S, P, O, BlankNode("g")),
}
FIELDS = {
    "Iri": ("value",),
    "BlankNode": ("label",),
    "Literal": ("lexical", "datatype", "language"),
    "Triple": ("subject", "predicate", "object"),
    "Quad": ("subject", "predicate", "object", "graph_label"),
}


class TestValueSemantics:
    def test_terms_of_other_classes_and_tuples_are_unequal(self):
        values = [Literal("x:y"), Iri("x:y"), ("x:y",), "x:y"]
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert a != b and b != a, (a, b)
                assert not (a == b or b == a), (a, b)

    def test_statement_kinds_and_tuples_are_unequal(self):
        assert Triple(S, P, O) != Quad(S, P, O)
        assert Quad(S, P, O) != Triple(S, P, O)
        assert Triple(S, P, O) != (S, P, O)
        assert Quad(S, P, O) != (S, P, O, None)

    @pytest.mark.parametrize(
        "plain, value",
        [
            ("x:y", Iri("x:y")),
            ("g", BlankNode("g")),
            (("x:y", XSD_STRING, None), Literal("x:y")),
            ((S, P, O), Triple(S, P, O)),
            ((S, P, O, None), Quad(S, P, O)),
        ],
        ids=["Iri", "BlankNode", "Literal", "Triple", "Quad"],
    )
    def test_equality_with_the_builtin_value_fails_in_both_orders(self, plain, value):
        assert not plain == value and not value == plain
        assert plain != value and value != plain

    def test_terms_and_equal_strings_are_distinct_set_members(self):
        assert len({Iri("a:b"), BlankNode("b"), "a:b", "b"}) == 4
        assert len({"a:b", "b", Iri("a:b"), BlankNode("b")}) == 4
        assert {"a:b": 1, Iri("a:b"): 2} == {"a:b": 1, Iri("a:b"): 2}
        assert Iri("a:b") not in {"a:b"} and "a:b" not in {Iri("a:b")}

    def test_blank_node_formats_with_its_prefix(self):
        assert f"{BlankNode('g')}" == str(BlankNode("g")) == "_:g"

    def test_duplicate_blank_graph_name_is_named_with_its_prefix(self):
        with pytest.raises(ValueError, match="^duplicate graph name: _:g$"):
            Dataset(named_graphs=[(BlankNode("g"), Graph()), (BlankNode("g"), Graph())])

    @pytest.mark.parametrize("kind", MAKERS)
    def test_equal_values_hash_equal(self, kind):
        a, b = MAKERS[kind](), MAKERS[kind]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("kind", MAKERS)
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        value = MAKERS[kind]()
        for name in (*FIELDS[kind], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, "x")
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == MAKERS[kind]()

    def test_repr_is_pinned(self):
        lang = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
        iri_s, iri_p = "Iri(value='http://example.org/s')", "Iri(value='http://example.org/p')"
        lit = f"Literal(lexical='o', datatype='{lang}', language='en')"
        assert repr(Iri(EX + "a")) == "Iri(value='http://example.org/a')"
        assert repr(BlankNode("b1")) == "BlankNode(label='b1')"
        assert repr(O) == lit
        assert repr(Literal("4", EX + "int")) == (
            "Literal(lexical='4', datatype='http://example.org/int', language=None)"
        )
        assert repr(Triple(S, P, O)) == f"Triple(subject={iri_s}, predicate={iri_p}, object={lit})"
        assert repr(Quad(S, P, O, BlankNode("g"))) == (
            f"Quad(subject={iri_s}, predicate={iri_p}, object={lit}, "
            "graph_label=BlankNode(label='g'))"
        )
        assert repr(Quad(S, P, O)).endswith(", graph_label=None)")

    def test_keyword_construction(self):
        assert Iri(value=EX + "a") == Iri(EX + "a")
        assert BlankNode(label="b") == BlankNode("b")
        assert Literal(lexical="x", datatype=XSD_STRING, language=None) == Literal("x")
        assert Triple(subject=S, predicate=P, object=O) == Triple(S, P, O)
        quad = Quad(subject=S, predicate=P, object=O, graph_label=None)
        assert quad == Quad(S, P, O) and quad.graph_label is None
        # the positional forms the benchmark's term rebuild uses
        assert Literal(O.lexical, O.datatype, O.language) == O
        assert Quad(S, P, O, None) == quad

    def test_language_tag_normalizes_datatype(self):
        assert Literal("x", language="en").datatype == RDF_LANGSTRING
        assert Literal("x", XSD_STRING, "en") == Literal("x", RDF_LANGSTRING, "en")

    @pytest.mark.parametrize("kind", MAKERS)
    def test_copy_and_pickle_keep_the_value(self, kind):
        value = MAKERS[kind]()
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    @pytest.mark.parametrize("code", [0xD800, 0xDBFF, 0xDC00, 0xDFFF], ids="U+{:04X}".format)
    def test_surrogates_are_refused(self, code):
        with pytest.raises(ValueError, match=f"surrogate code point U\\+{code:04X}"):
            Literal("a" + chr(code))
        with pytest.raises(MalformedIri, match="forbidden character"):
            Iri("http://s:" + chr(code))
        with pytest.raises(MalformedIri):
            Literal("x", "http://d:" + chr(code))

    @pytest.mark.parametrize("kind", MAKERS)
    def test_every_pickle_protocol_keeps_the_value(self, kind):
        value = MAKERS[kind]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copied = pickle.loads(pickle.dumps(value, protocol))
            assert copied == value and type(copied) is type(value)
        assert copy.deepcopy(value) == value

    @pytest.mark.parametrize("lexical", [5, b"x", None], ids=repr)
    def test_non_str_lexical_form_raises_type_error_naming_it(self, lexical):
        with pytest.raises(TypeError, match=f"lexical form must be a str: {re.escape(repr(lexical))}"):
            Literal(lexical)


class TestBuiltinBases:
    """Terms are str and statements tuples, so hashing runs in C; the rest
    of the value semantics is pinned in TestValueSemantics."""

    def test_hashing_is_the_builtin_one(self):
        # A Python-level __hash__ would be called on every dict and set
        # operation of the reader and classifier.
        assert Iri.__hash__ is str.__hash__
        assert BlankNode.__hash__ is str.__hash__
        assert Literal.__hash__ is tuple.__hash__
        assert Triple.__hash__ is tuple.__hash__
        assert Quad.__hash__ is tuple.__hash__

    @pytest.mark.parametrize("kind", MAKERS)
    def test_no_instance_dict(self, kind):
        assert not hasattr(MAKERS[kind](), "__dict__")

    def test_terms_are_str_and_statements_tuples(self):
        assert isinstance(Iri(EX + "a"), str) and isinstance(BlankNode("b"), str)
        triple, quad = Triple(S, P, O), Quad(S, P, O)
        assert len(triple) == 3 and len(quad) == 4 and len(O) == 3
        assert triple[0] is S and quad[3] is None and tuple(O) == ("o", RDF_LANGSTRING, "en")
        assert list(triple) == [S, P, O]
        assert Triple(Iri(EX + "a"), P, O) < Triple(Iri(EX + "b"), P, O)
        assert sorted([Iri("b:1"), Iri("a:1")]) == [Iri("a:1"), Iri("b:1")]

    def test_fields_are_plain_str(self):
        lit = Literal("4", EX + "int")
        for value in (Iri(EX + "a").value, BlankNode("b").label, lit.lexical, lit.datatype):
            assert type(value) is str

    def test_blank_node_format_spec_applies_to_its_str_form(self):
        assert f"{BlankNode('g'):>4}" == " _:g"
        assert "%s" % BlankNode("g") == "_:g"

    def test_term_arguments_are_read_as_their_values(self):
        class Renamed(str):
            def __str__(self):
                return "other"

        assert Iri(Iri(EX + "a")) == Iri(EX + "a")
        assert Iri(Renamed(EX + "a")).value == EX + "a"
        assert BlankNode(BlankNode("g")).label == "g"
        lit = Literal(Iri(EX + "a"), Iri(EX + "int"))
        assert lit == Literal(EX + "a", EX + "int")
        assert type(lit.lexical) is str and type(lit.datatype) is str
        with pytest.raises(ValueError, match="requires a language tag"):
            Literal("x", Iri(RDF_LANGSTRING))

    def test_internal_rebuilds_keep_the_class(self):
        quad = Quad(S, P, O, BlankNode("g"))
        assert type(quad.triple()) is Triple and quad.triple() == Triple(S, P, O)
        d = Dataset.from_quads([quad, Quad(S, P, O)])
        assert [type(q) for q in d.quads()] == [Quad, Quad]
        assert list(d.quads()) == [Quad(S, P, O), quad]


class TestGraph:
    def test_preserves_first_occurrence_order_and_dedupes(self):
        g = Graph([t("a", "p", "b"), t("c", "p", "d"), t("a", "p", "b")])
        assert len(g) == 2
        assert g.triples == (t("a", "p", "b"), t("c", "p", "d"))

    def test_nodes_exclude_predicates(self):
        g = Graph([t("a", "p", "b")])
        assert g.nodes() == frozenset({Iri(EX + "a"), Iri(EX + "b")})

    def test_contains(self):
        g = Graph([t("a", "p", "b")])
        assert t("a", "p", "b") in g
        assert t("a", "p", "c") not in g

    def test_rejects_non_triples(self):
        with pytest.raises(TypeError):
            Graph([Quad(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))])

    def test_equality_is_order_sensitive(self):
        a = Graph([t("a", "p", "b"), t("c", "p", "d")])
        b = Graph([t("c", "p", "d"), t("a", "p", "b")])
        assert a != b


class TestDataset:
    def test_from_quads_partitions(self):
        g = Iri(EX + "g")
        quads = [
            Quad(Iri(EX + "s"), Iri(EX + "p"), Literal("default")),
            Quad(Iri(EX + "s"), Iri(EX + "p"), Literal("named"), g),
            Quad(Iri(EX + "s2"), Iri(EX + "p"), Literal("named2"), g),
        ]
        d = Dataset.from_quads(quads)
        assert len(d.default_graph) == 1
        assert [name for name, _ in d.named_items()] == [g]
        assert len(d.named_items()[0][1]) == 2
        assert d.statement_count() == 3

    def test_named_graph_order_is_first_occurrence(self):
        g1, g2 = Iri(EX + "g1"), Iri(EX + "g2")
        quads = [
            Quad(Iri(EX + "a"), Iri(EX + "p"), Literal("1"), g2),
            Quad(Iri(EX + "a"), Iri(EX + "p"), Literal("2"), g1),
            Quad(Iri(EX + "a"), Iri(EX + "p"), Literal("3"), g2),
        ]
        d = Dataset.from_quads(quads)
        assert [name for name, _ in d.named_items()] == [g2, g1]

    def test_from_quads_graphs_hold_exactly_their_triples(self):
        g, b = Iri(EX + "g"), BlankNode("g")
        quads = [Quad(*t("a", "p", "b"), b), Quad(*t("a", "p", "b"), g), Quad(*t("a", "p", "b")),
                 Quad(*t("c", "p", "d"), b), Quad(*t("a", "p", "b"), b)]
        d = Dataset.from_quads(quads)
        assert d == Dataset(Graph([t("a", "p", "b")]), [(b, Graph([t("a", "p", "b"), t("c", "p", "d")])),
                                                         (g, Graph([t("a", "p", "b")]))])
        assert {type(x) for _, graph in d.named_items() for x in graph} == {Triple}
        assert list(d.quads()) == [quads[2], quads[0], quads[3], quads[1]]
        with pytest.raises(TypeError, match="expected Quad, got Triple"):
            Dataset.from_quads([t("a", "p", "b")])

    def test_duplicate_names_rejected(self):
        g = Iri(EX + "g")
        with pytest.raises(ValueError):
            Dataset(named_graphs=[(g, Graph()), (g, Graph())])

    def test_literal_name_rejected(self):
        with pytest.raises(ValueError):
            Dataset(named_graphs=[(Literal("g"), Graph())])

    def test_equality(self):
        d1 = Dataset(default_graph=Graph([t("a", "p", "b")]))
        d2 = Dataset(default_graph=Graph([t("a", "p", "b")]))
        assert d1 == d2
        assert d1 != Dataset()


def streamgen_datasets(seed: int) -> list[Dataset]:
    """A dataset of shuffled labelled and unlabelled quads, then streamgen's
    round-trip and classification datasets."""
    r = random.Random(seed)
    mixed = Dataset.from_quads(gen_quad(r) for _ in range(r.randrange(12)))
    return [mixed, *gen_dataset_elements(r), *gen_dataset_stream(r, max_elements=4)]


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_dataset_quads_order_and_round_trips(seed, with_empty_graph):
    for d in streamgen_datasets(seed):
        if with_empty_graph:
            d = Dataset(d.default_graph, [*d.named_items(), (Iri(EX + "empty"), Graph())])
        quads = list(d.quads())
        named = d.named_items()
        # Default graph first, then each named graph in turn, each in its own order.
        labels = [None] * len(d.default_graph) + [name for name, graph in named for _ in graph]
        assert [q.graph_label for q in quads] == labels
        for label, graph in [(None, d.default_graph), *named]:
            assert [q.triple() for q in quads if q.graph_label == label] == list(graph)
        if all(graph for _, graph in named):
            assert Dataset.from_quads(quads) == d
        assert list(convert([d], "datasetStream", "flatQuadStream", infer_closure(default_taxonomy()))) == quads
        lines = "".join(serialize_statement(q) + "\n" for q in quads)
        assert framed_bytes([d], Framing.FRAMED_DATASETS) == lines.encode("utf-8")


# term values survive arbitrary content as long as invariants hold
@given(st.text(min_size=0, max_size=40))
def test_literal_accepts_any_lexical(text):
    assert Literal(text).lexical == text


@given(st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,10}", fullmatch=True))
def test_blank_label_roundtrip(label):
    assert BlankNode(label).label == label
