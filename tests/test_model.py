import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from streamgen import gen_dataset_elements, gen_dataset_stream, gen_quad
from staxkit.convert import flatten_datasets
from staxkit.errors import MalformedIri
from staxkit.framing import Framing
from staxkit.io import serialize_statement, write_grouped_stream
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

    @pytest.mark.parametrize("lexical", [5, b"x", None], ids=repr)
    def test_non_str_lexical_form_raises_type_error_naming_it(self, lexical):
        with pytest.raises(TypeError, match=f"lexical form must be a str: {re.escape(repr(lexical))}"):
            Literal(lexical)


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
        assert list(flatten_datasets([d])) == quads
        lines = "".join(serialize_statement(q) + "\n" for q in quads)
        assert write_grouped_stream([d], Framing.FRAMED_DATASETS) == lines.encode("utf-8")


# term values survive arbitrary content as long as invariants hold
@given(st.text(min_size=0, max_size=40))
def test_literal_accepts_any_lexical(text):
    assert Literal(text).lexical == text


@given(st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,10}", fullmatch=True))
def test_blank_label_roundtrip(label):
    assert BlankNode(label).label == label
