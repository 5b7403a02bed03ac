import sys

import pytest
from hypothesis import given, strategies as st

from staxkit.errors import MalformedIri
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
        # every code point: refused iff str.isspace() or one of '<>"', with the
        # message the character checks give
        for code in range(sys.maxunicode + 1):
            value = "urn:" + chr(code)
            forbidden = value[-1].isspace() or value[-1] in '<>"'
            try:
                Iri(value)
            except MalformedIri as exc:
                assert forbidden, value
                assert str(exc) == f"IRI contains forbidden character {value[-1]!r}: {value!r}"
            else:
                assert not forbidden, value

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


# term values survive arbitrary content as long as invariants hold
@given(st.text(min_size=0, max_size=40))
def test_literal_accepts_any_lexical(text):
    assert Literal(text).lexical == text


@given(st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,10}", fullmatch=True))
def test_blank_label_roundtrip(label):
    assert BlankNode(label).label == label
