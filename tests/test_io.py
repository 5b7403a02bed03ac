import os
import random
import re
import stat
import tempfile
from io import BytesIO
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import oracle_scan_statement, reference_parse_nquads, term_tuple
from streamgen import (
    framed_bytes,
    gen_dataset_elements,
    gen_graph_elements,
    gen_quad,
    gen_triple,
    gen_unique_statements,
)
import staxkit.io
import staxkit.locator
import staxkit.writer
from staxkit.cli import main
from staxkit.convert import convert
from staxkit.errors import MalformedIri, MixedPayload, OutputExists, ParseError
from staxkit.framing import Payload
from staxkit.io import (
    FRAME_DELIMITER,
    Framing,
    LineKind,
    ParsedLine,
    parse_statement_line,
    read_flat_stream,
    read_grouped_stream,
    write_flat_stream,
)
from staxkit.locator import _locate
from staxkit.taxonomy import default_taxonomy, infer_closure
from staxkit.model import RDF_LANGSTRING, XSD_STRING, BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple
from staxkit.writer import _member_stem, serialize_statement, serialize_term, write_stream

EX = "http://example.org/"


@pytest.mark.parametrize("framing", list(Framing))
def test_framing_value_is_layout_and_payload(framing):
    layout = framing.value.partition("-")[0]
    assert layout in ("flat", "framed", "dir")
    assert Framing(f"{layout}-{framing.payload.value}") is framing
    assert framing.is_flat == (layout == "flat") == framing.payload.is_flat
    assert framing.is_dir == (layout == "dir")
    assert framing.quads_payload == framing.payload.quads


class TestParseStatementLine:
    def test_simple_triple(self):
        p = parse_statement_line("<http://a:1> <http://p:1> <http://o:1> .", "triples")
        assert p.kind is LineKind.STATEMENT
        assert p.statement == Triple(Iri("http://a:1"), Iri("http://p:1"), Iri("http://o:1"))

    def test_blank_nodes_and_terminator_dot(self):
        p = parse_statement_line("_:s <http://p:1> _:o .", "triples")
        assert p.statement.subject == BlankNode("s")
        assert p.statement.object == BlankNode("o")

    def test_blank_label_does_not_eat_the_dot(self):
        # greedy label scan must give the terminator back
        p = parse_statement_line("<http://s:1> <http://p:1> _:o.", "triples")
        assert p.statement.object == BlankNode("o")

    def test_plain_literal(self):
        p = parse_statement_line('<http://s:1> <http://p:1> "hi there" .', "triples")
        assert p.statement.object == Literal("hi there")

    def test_language_literal(self):
        p = parse_statement_line('<http://s:1> <http://p:1> "czesc"@pl .', "triples")
        assert p.statement.object == Literal("czesc", language="pl")

    def test_typed_literal(self):
        line = '<http://s:1> <http://p:1> "4"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        p = parse_statement_line(line, "triples")
        assert p.statement.object.datatype.endswith("integer")

    def test_escapes_in_literal(self):
        p = parse_statement_line(r'<http://s:1> <http://p:1> "a\tb\nc\"d\\e" .', "triples")
        assert p.statement.object.lexical == 'a\tb\nc"d\\e'

    def test_unicode_escapes(self):
        p = parse_statement_line(r'<http://s:1> <http://p:1> "Żo\U0000142Fk" .', "triples")
        assert p.statement.object.lexical == "Żoᐯk"

    def test_iri_unicode_escape(self):
        p = parse_statement_line(r"<http://s:1/A> <http://p:1> <http://o:1> .", "triples")
        assert p.statement.subject == Iri("http://s:1/A")

    def test_comment_and_blank_lines(self):
        assert parse_statement_line("# anything", "triples").kind is LineKind.COMMENT
        assert parse_statement_line("   ", "triples").kind is LineKind.BLANK
        assert parse_statement_line("", "quads").kind is LineKind.BLANK

    def test_frame_delimiter_exact_match_only(self):
        assert parse_statement_line("#---", "triples").kind is LineKind.FRAME_DELIMITER
        assert parse_statement_line("#--- ", "triples").kind is LineKind.COMMENT
        assert parse_statement_line(" #---", "triples").kind is LineKind.COMMENT
        assert parse_statement_line("#----", "triples").kind is LineKind.COMMENT

    def test_trailing_comment_after_dot(self):
        p = parse_statement_line("<http://s:1> <http://p:1> <http://o:1> . # done", "triples")
        assert p.kind is LineKind.STATEMENT

    def test_quads_mode_three_terms_is_default_graph(self):
        p = parse_statement_line("<http://s:1> <http://p:1> <http://o:1> .", "quads")
        assert isinstance(p.statement, Quad)
        assert p.statement.graph_label is None

    def test_quads_mode_graph_label(self):
        p = parse_statement_line("<http://s:1> <http://p:1> <http://o:1> <http://g:1> .", "quads")
        assert p.statement.graph_label == Iri("http://g:1")

    def test_quads_mode_blank_graph_label(self):
        p = parse_statement_line("<http://s:1> <http://p:1> <http://o:1> _:g .", "quads")
        assert p.statement.graph_label == BlankNode("g")

    def test_extra_whitespace_tolerated(self):
        p = parse_statement_line("  <http://s:1>\t<http://p:1>   <http://o:1>  .  ", "triples")
        assert p.kind is LineKind.STATEMENT

    def test_non_ascii_language_tag(self):
        # RDF 1.1 LANGTAG allows ASCII letters and digits only
        with pytest.raises(ParseError) as info:
            parse_statement_line('<http://s:1> <http://p:1> "x"@enß .', "triples")
        assert (info.value.column, info.value.reason) == (30, "bad language tag")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_statement_line("<http://s:1> <http://p:1> <http://o:1> .", "trips")

    # A str line was never decoded, so no strict decoding kept surrogates out
    # of it: its literals must be checked as Literal checks them.
    @pytest.mark.parametrize("mode", ["triples", "quads"])
    @pytest.mark.parametrize(
        "line",
        ['<http://s:1> <http://p:1> "a\ud800" .', '<http://s:1> <http://p:1> "a\ud800"@en .',
         '<http://s:1> <http://p:1> "a\ud800"^^<http://ex.org/dt> . # c'],
    )
    def test_surrogate_in_a_literal_is_located(self, line, mode):
        with pytest.raises(ParseError) as info:
            parse_statement_line(line, mode)
        assert str(info.value) == "line 1, column 27: literal contains surrogate code point U+D800"

    @pytest.mark.parametrize(
        "line, statement",
        [("# \ud800", None),
         ('<http://s:1> <http://p:1> "a" . # \udfff', Triple(Iri("http://s:1"), Iri("http://p:1"), Literal("a")))],
    )
    def test_surrogate_in_a_comment_is_read(self, line, statement):
        kind = LineKind.COMMENT if statement is None else LineKind.STATEMENT
        assert parse_statement_line(line, "triples") == ParsedLine(kind, 1, statement)


# (line, mode, expected 1-based line number, expected column or None)
MALFORMED = [
    ("<http://a:1> <http://p:1> .", "triples", 1, 27),           # missing object
    ("<http://a:1> <http://p:1> <http://o:1>", "triples", 1, None),  # missing dot
    ("http://a:1 <http://p:1> <http://o:1> .", "triples", 1, 1),  # bare subject
    ("<http://a:1> _:p <http://o:1> .", "triples", 1, 14),        # blank predicate
    ('"lit" <http://p:1> <http://o:1> .', "triples", 1, 1),       # literal subject
    ('<http://a:1> <http://p:1> "unterminated .', "triples", 1, 27),
    ("<http://a:1> <http://p:1> <http://o:1> <http://g:1> .", "triples", 1, 40),  # fourth term
    ("<http://a b> <http://p:1> <http://o:1> .", "triples", 1, 1),  # space inside IRI
    ('<http://a:1> <http://p:1> "x"@ .', "triples", 1, 30),       # empty language tag
    ('<http://a:1> <http://p:1> "x"^^foo .', "triples", 1, None), # ^^ without <
    ('<http://a:1> <http://p:1> "x" junk .', "quads", 1, 31),     # junk fourth term
    ("<http://a:1> <http://p:1> <http://o:1> . extra", "triples", 1, None),
    ("_http <http://p:1> <http://o:1> .", "triples", 1, None),    # _ without colon
    ("_: <http://p:1> <http://o:1> .", "triples", 1, 1),          # empty blank label
    (r'<http://a:1> <http://p:1> "\x" .', "triples", 1, None),    # unknown escape
    (r'<http://a:1> <http://p:1> "\u12G4" .', "triples", 1, None),  # bad hex
    (r'<http://a:1> <http://p:1> "\uD800" .', "triples", 1, None),  # lone surrogate
    ("<http://a:1> <http://p:1> <http://o .", "triples", 1, 27),  # unterminated IRI
    ('<http://a:1> <http://p:1> "x"^^<notairi> .', "triples", 1, None),  # datatype not an IRI
    ("<http://a:1>", "triples", 1, None),                          # subject only
    ('<http://a:1> <http://p:1> <http://o:1> "g" .', "quads", 1, 40),  # literal graph label
    ('<http://a:1> <http://p:1> "x"@en^^<http://d:1> .', "quads", 1, None),
    ("<http://a:1> <http://p:1> 42 .", "triples", 1, 27),          # bare number object
    (r"<http://a:1> <\n> <http://o:1> .", "triples", 1, None),    # bad IRI escape
    ("<http://a:1> <http://p:1> _:a_:b .", "triples", 1, 31),     # label stops at ':'
    ("<http://a:1> <http://p:1> _:a_:b .", "quads", 1, 31),
    ('<http://a:1> <http://p:1> "x"@en_US .', "quads", 1, 33),    # '_' ends the tag
    (r"<http://a:1> <http://p:1> <a:\u003E> .", "triples", 1, 27),  # escaped '>'
    ('<http://a:1> <http://p:1> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
     "triples", 1, 27),                                            # langString without tag
    ("<http://a:1> <http://p:1> _:o..", "triples", 1, 31),        # second dot after terminator
    # language tags outside RDF 1.1 LANGTAG, located at the '@'
    ('<http://a:1> <http://p:1> "x"@en- .', "triples", 1, 30),
    ('<http://a:1> <http://p:1> "x"@en--a .', "triples", 1, 30),
    ('<http://a:1> <http://p:1> "x"@e1 .', "triples", 1, 30),
    ('<http://a:1> <http://p:1> "x"@enß .', "triples", 1, 30),
    ('<http://a:1> <http://p:1> "x"@en-\u0661 .', "quads", 1, 30),  # Arabic-Indic digit one
    # only spaces and tabs make a line blank or lead into a comment
    ("\xa0", "triples", 1, 1),
    ("\x0c", "quads", 1, 1),
    ("\u2028", "triples", 1, 1),
    ("\x1c", "triples", 1, 1),
    ("\u3000# c", "quads", 1, 1),
    # the first error in reading order wins
    (r'<http://a:1> <http://p:1> "\uD800\q" .', "triples", 1, 28),  # bad scalar before bad escape
    (r"<a:\uD800 b", "triples", 1, 4),                           # bad scalar before unterminated IRI
    ('<http://a:1> <http://p:1> "x\\', "triples", 1, 29),         # lone '\' ends the line
    ('<http://a:1> <http://p:1> "a\rb" .', "triples", 1, 29),     # raw CR inside a literal
]

# A token IRIREF forbids, in each role: an ECHAR, which only a literal may
# hold, fails at its backslash; a raw character fails at the IRI's '<'.
IRI_ROLES = [  # (line with the IRI left out, mode, column of the IRI's '<')
    ("{} <http://p:1> <http://o:1> .", "triples", 1),
    ("<http://s:1> {} <http://o:1> .", "triples", 14),
    ("<http://s:1> <http://p:1> {} .", "triples", 27),
    ('<http://s:1> <http://p:1> "x"^^{} .', "triples", 32),
    ("<http://s:1> <http://p:1> <http://o:1> {} .", "quads", 40),
]
BAD_IRI_PARTS = {"\\'": 15, '\\"': 15, "\\t": 15, '"': 0, "<": 0, "\u00a0": 0, "\u3000": 0, "{": 0, "\x01": 0}
BAD_IRI_LINES = [
    (line.format(f"<http://ex.org/{part}>"), mode, 1, column + shift)
    for line, mode, column in IRI_ROLES
    for part, shift in BAD_IRI_PARTS.items()
]
MALFORMED += BAD_IRI_LINES


class TestMalformedLines:
    @pytest.mark.parametrize("line,mode,line_no,column", MALFORMED)
    def test_parse_error_with_position(self, line, mode, line_no, column):
        with pytest.raises(ParseError) as info:
            parse_statement_line(line, mode, line_no)
        assert info.value.line == line_no
        assert info.value.column >= 1
        if column is not None:
            assert info.value.column == column

    def test_line_numbers_count_comments_and_blanks(self):
        data = b"# header\n\n<http://a:1> <http://p:1> <http://o:1> .\nbroken line\n"
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(data, Framing.FLAT_TRIPLES))
        assert info.value.line == 4

    def test_error_inside_framed_element_reports_file_line(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> .\n#---\nbad .\n"
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(data, Framing.FRAMED_GRAPHS))
        assert info.value.line == 3

    def test_invalid_utf8_is_located(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> .\n<http://a:1> <http://p:1> \"\xc3\xa9\xff\" .\n"
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(data, Framing.FLAT_TRIPLES))
        # 'é' takes two bytes but one column; line 1 is 41 bytes long
        assert (info.value.line, info.value.column) == (2, 29)
        assert info.value.reason == "invalid UTF-8 byte 0xFF at byte offset 70"

    def test_message_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_statement_line("junk", "triples", 7)
        assert "line 7" in str(info.value)


BOM_LINE = b"\xef\xbb\xbf<http://a:1> <http://p:1> <http://o:1> .\n"
BOM_REASON = "unexpected byte order mark (U+FEFF)"


class TestInputNames:
    @pytest.mark.parametrize("framing", [Framing.FLAT_TRIPLES, Framing.FRAMED_GRAPHS])
    def test_byte_order_mark_is_named(self, framing, tmp_path):
        f = tmp_path / "bom.nt"
        f.write_bytes(BOM_LINE + b"#---\n" + BOM_LINE[3:])
        read = read_flat_stream if framing.is_flat else read_grouped_stream
        for source in (f, str(f), f.read_bytes()):
            with pytest.raises(ParseError) as info:
                list(read(source, framing))
            assert (info.value.line, info.value.column, info.value.reason) == (1, 1, BOM_REASON)

    def test_byte_order_mark_in_a_member_is_named(self, tmp_path):
        (tmp_path / "00000.nt").write_bytes(BOM_LINE[3:])
        (tmp_path / "00001.nt").write_bytes(BOM_LINE)
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert str(info.value) == f"00001.nt: line 1, column 1: {BOM_REASON}"

    @pytest.mark.parametrize("framing", [Framing.FLAT_QUADS, Framing.FRAMED_DATASETS])
    def test_path_sources_name_the_path(self, framing, tmp_path):
        f = tmp_path / "bad.nq"
        f.write_bytes(BOM_LINE[3:] + b"bad .\n")
        read = read_flat_stream if framing.is_flat else read_grouped_stream
        for source, member in ((f, str(f)), (str(f), str(f)), (f.read_bytes(), None)):
            with pytest.raises(ParseError) as info:
                list(read(source, framing))
            assert (info.value.member, info.value.line, info.value.column) == (member, 2, 1)
            prefix = f"{member}: " if member else ""
            assert str(info.value) == f"{prefix}line 2, column 1: expected IRI, blank node, or literal"

    def test_invalid_utf8_in_a_path_names_the_path(self, tmp_path):
        f = tmp_path / "bad.nt"
        f.write_bytes(b"\xff\n")
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(f, Framing.FLAT_TRIPLES))
        assert str(info.value).startswith(f"{f}: line 1, column 1: invalid UTF-8 byte 0xFF")


class TestFlatStreams:
    def test_triples_roundtrip(self):
        r = random.Random(11)
        statements = [gen_triple(r) for _ in range(50)]
        payload = write_flat_stream(statements, Framing.FLAT_TRIPLES)
        assert list(read_flat_stream(payload, Framing.FLAT_TRIPLES)) == statements

    def test_quads_roundtrip(self):
        r = random.Random(12)
        statements = [gen_quad(r) for _ in range(50)]
        payload = write_flat_stream(statements, Framing.FLAT_QUADS)
        assert list(read_flat_stream(payload, Framing.FLAT_QUADS)) == statements

    def test_duplicates_survive_in_flat_streams(self):
        t = gen_triple(random.Random(1))
        payload = write_flat_stream([t, t, t], Framing.FLAT_TRIPLES)
        assert list(read_flat_stream(payload, Framing.FLAT_TRIPLES)) == [t, t, t]

    def test_delimiter_line_is_comment_in_flat_streams(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> .\n#---\n<http://b:1> <http://p:1> <http://o:1> .\n"
        assert len(list(read_flat_stream(data, Framing.FLAT_TRIPLES))) == 2

    def test_crlf_tolerated(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> .\r\n"
        assert len(list(read_flat_stream(data, Framing.FLAT_TRIPLES))) == 1

    def test_writer_rejects_wrong_statement_kind(self):
        q = Quad(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))
        with pytest.raises(MixedPayload):
            write_flat_stream([q], Framing.FLAT_TRIPLES)
        with pytest.raises(MixedPayload):
            write_flat_stream([Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))],
                              Framing.FLAT_QUADS)

    def test_empty_write_is_empty_bytes(self):
        assert write_flat_stream([], Framing.FLAT_TRIPLES) == b""


class TestFramedStreams:
    def test_zero_bytes_is_empty_stream(self):
        assert list(read_grouped_stream(b"", Framing.FRAMED_GRAPHS)) == []

    def test_single_delimiter_makes_two_empty_elements(self):
        elements = list(read_grouped_stream(b"#---\n", Framing.FRAMED_GRAPHS))
        assert elements == [Graph(), Graph()]

    def test_final_line_without_newline(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> ."
        elements = list(read_grouped_stream(data, Framing.FRAMED_GRAPHS))
        assert len(elements) == 1 and len(elements[0]) == 1

    def test_graphs_roundtrip(self):
        r = random.Random(21)
        for _ in range(25):
            elements = gen_graph_elements(r)
            payload = framed_bytes(elements, Framing.FRAMED_GRAPHS)
            assert list(read_grouped_stream(payload, Framing.FRAMED_GRAPHS)) == elements

    def test_datasets_roundtrip(self):
        r = random.Random(22)
        for _ in range(25):
            elements = gen_dataset_elements(r)
            payload = framed_bytes(elements, Framing.FRAMED_DATASETS)
            assert list(read_grouped_stream(payload, Framing.FRAMED_DATASETS)) == elements

    def test_named_graph_label_in_graph_framing_is_mixed_payload(self):
        data = b"<http://a:1> <http://p:1> <http://o:1> <http://g:1> .\n"
        with pytest.raises(MixedPayload):
            list(read_grouped_stream(data, Framing.FRAMED_GRAPHS))

    @pytest.mark.parametrize("label", ["<http://g:1>", "_:g"])
    def test_graph_label_in_graph_framing_framed_and_dir(self, label, tmp_path):
        data = f"<http://a:1> <http://p:1> <http://o:1> .\n<http://a:1> <http://p:1> <http://o:1> {label} .\n"
        with pytest.raises(MixedPayload) as info:
            list(read_grouped_stream(data.encode(), Framing.FRAMED_GRAPHS))
        assert str(info.value) == "line 2: named graph label inside a graph framing"
        (tmp_path / "00000.nt").write_text(data)
        with pytest.raises(MixedPayload) as info:
            list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert str(info.value) == "line 2: named graph label inside a graph framing"

    def test_literal_graph_label_in_graph_framing_is_located(self, tmp_path):
        data = b'<http://a:1> <http://p:1> <http://o:1> "g" .\n'
        (tmp_path / "00000.nt").write_bytes(data)
        for source, framing in ((data, Framing.FRAMED_GRAPHS), (tmp_path, Framing.DIR_GRAPHS)):
            with pytest.raises(ParseError) as info:
                list(read_grouped_stream(source, framing))
            assert (info.value.line, info.value.column, info.value.reason) == (
                1, 40, "graph label must be an IRI or blank node"
            )

    @pytest.mark.parametrize("line", dict.fromkeys(row[0] for row in MALFORMED))
    def test_graph_framing_errors_are_quads_mode_errors(self, line):
        # graph framings report every line as quads mode does, except that a
        # well-formed graph label is a payload mismatch
        try:
            expected = parse_statement_line(line, "quads", 1).statement
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                list(read_grouped_stream(line.encode(), Framing.FRAMED_GRAPHS))
            assert (info.value.line, info.value.column, info.value.reason) == (
                exc.line, exc.column, exc.reason
            )
            return
        assert expected.graph_label is not None
        with pytest.raises(MixedPayload):
            list(read_grouped_stream(line.encode(), Framing.FRAMED_GRAPHS))

    def test_writer_rejects_wrong_element_kind(self):
        with pytest.raises(MixedPayload):
            framed_bytes([Dataset()], Framing.FRAMED_GRAPHS)
        with pytest.raises(MixedPayload):
            framed_bytes([Graph()], Framing.FRAMED_DATASETS)

    def test_lone_empty_element_serializes_to_zero_bytes(self):
        # documented boundary: this one layout cannot be told apart from
        # the empty stream on disk
        assert framed_bytes([Graph()], Framing.FRAMED_GRAPHS) == b""

    def test_empty_named_graphs_are_dropped_on_write(self):
        d = Dataset(named_graphs=[(Iri(EX + "g"), Graph())])
        payload = framed_bytes([d], Framing.FRAMED_DATASETS)
        assert payload == b""


class _Recorder:
    """A binary sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        return len(data)


# Items of each payload, long enough that a flat stream takes several chunks.
_STREAM_QUADS = [Quad(Iri(f"{EX}s{i}"), Iri(EX + "p"), Literal(f"v\t{i}"), Iri(f"{EX}g{i % 3}")) for i in range(600)]
_STREAM_ITEMS = {
    Payload.TRIPLES: [Triple(s, p, o) for s, p, o, _ in _STREAM_QUADS],
    Payload.QUADS: _STREAM_QUADS,
    Payload.GRAPHS: [Graph([Triple(s, p, o) for s, p, o, _ in _STREAM_QUADS[i : i + 7]]) for i in range(0, 600, 7)],
    Payload.DATASETS: [Dataset.from_quads(_STREAM_QUADS[i : i + 7]) for i in range(0, 600, 7)],
}


class TestWriteStream:
    # One-statement elements put a '#---' line between every two statement
    # lines, so chunk boundaries fall at every offset within the pattern.
    GRAPHS = [Graph([Triple(Iri(f"{EX}s{i}"), Iri(EX + "p"), Literal(f"v{i}"))]) for i in range(1000)]
    QUADS = [Quad(Iri(f"{EX}s{i}"), Iri(EX + "p"), Literal("v"), Iri(f"{EX}g{i % 3}")) for i in range(1000)]

    @pytest.mark.parametrize(
        "items, framing, expected",
        [
            (GRAPHS, Framing.FRAMED_GRAPHS, "#---\n".join(serialize_statement(g.triples[0]) + "\n" for g in GRAPHS)),
            (QUADS, Framing.FLAT_QUADS, "".join(serialize_statement(q) + "\n" for q in QUADS)),
        ],
        ids=["framed-graphs", "flat-quads"],
    )
    def test_chunks_are_whole_lines_of_the_serialization(self, items, framing, expected):
        sink = _Recorder()
        assert write_stream(iter(items), framing, sink) == len(expected.encode())
        assert len(sink.writes) > 1
        assert all(chunk.endswith(b"\n") for chunk in sink.writes)
        assert b"".join(sink.writes) == expected.encode()

    @pytest.mark.parametrize("framing", [Framing.DIR_GRAPHS, Framing.DIR_DATASETS])
    def test_dir_framing_is_refused(self, framing):
        sink = _Recorder()
        with pytest.raises(ValueError, match=f"^{framing.value} framing writes member files to a directory path"):
            write_stream([], framing, sink)
        assert sink.writes == []

    @pytest.mark.parametrize("framing", [f for f in Framing if not f.is_dir])
    def test_a_file_target_gets_the_sink_bytes(self, framing, tmp_path):
        items = _STREAM_ITEMS[framing.payload]
        sink = BytesIO()
        size = write_stream(items, framing, sink)
        target = tmp_path / "out"
        for path in (target, str(target)):  # a new file, then one replaced
            assert write_stream(items, framing, path) == size
            assert target.read_bytes() == sink.getvalue()
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("framing", [f for f in Framing if not f.is_dir])
    def test_a_failed_file_write_leaves_the_target(self, framing, tmp_path):
        # The bad item comes after several chunks or elements are written.
        target = tmp_path / "out"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        with pytest.raises(MixedPayload, match="cannot serialize a NoneType"):
            write_stream([*_STREAM_ITEMS[framing.payload], None], framing, target)
        assert target.read_bytes() == b"old\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("framing", list(Framing))
    def test_an_empty_path_is_refused_before_any_item_is_read(self, framing, tmp_path, monkeypatch):
        # os.path.realpath('') is the working directory: a temp file beside
        # it would take the whole stream before the rename failed.
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        read = []
        items = (read.append(item) or item for item in _STREAM_ITEMS[framing.payload])
        with pytest.raises(FileNotFoundError) as info:
            write_stream(items, framing, "")
        assert str(info.value) == "[Errno 2] No such file or directory: ''"
        assert read == []
        assert [p.name for p in tmp_path.rglob("*")] == ["cwd"]

    def test_empty_stream_writes_nothing(self):
        sink = _Recorder()
        assert write_stream([], Framing.FRAMED_DATASETS, sink) == 0
        assert sink.writes == []


class TestDirStreams:
    def test_roundtrip_graphs(self, tmp_path):
        r = random.Random(31)
        elements = [Graph([gen_triple(r) for _ in range(3)]) for _ in range(4)]
        names = write_stream(elements, Framing.DIR_GRAPHS, tmp_path)
        assert names == ["00000.nt", "00001.nt", "00002.nt", "00003.nt"]
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == elements

    def test_roundtrip_datasets(self, tmp_path):
        r = random.Random(32)
        elements = gen_dataset_elements(r) or [Dataset(default_graph=Graph([gen_triple(r)]))]
        write_stream(elements, Framing.DIR_DATASETS, tmp_path)
        assert list(read_grouped_stream(tmp_path, Framing.DIR_DATASETS)) == elements

    def test_member_order_is_bytewise(self, tmp_path):
        line = b"<http://a:%d> <http://p:1> <http://o:1> .\n"
        for i, name in enumerate(["10.nt", "2.nt", "a.nt"]):
            (tmp_path / name).write_bytes(line % i)
        elements = list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        subjects = [e.triples[0].subject.value for e in elements]
        # '1' < '2' < 'a' in byte order, so 10.nt sorts before 2.nt
        assert subjects == ["http://a:0", "http://a:1", "http://a:2"]

    def test_other_extensions_ignored(self, tmp_path):
        (tmp_path / "data.nt").write_bytes(b"<http://a:1> <http://p:1> <http://o:1> .\n")
        (tmp_path / "notes.txt").write_bytes(b"not rdf")
        (tmp_path / "other.nq").write_bytes(b"also skipped in graph mode")
        assert len(list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))) == 1

    def test_empty_element_is_an_empty_file(self, tmp_path):
        names = write_stream([Graph()], Framing.DIR_GRAPHS, tmp_path)
        assert (tmp_path / names[0]).read_bytes() == b""
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == [Graph()]

    def test_delimiter_inside_member_is_a_comment(self, tmp_path):
        (tmp_path / "0.nt").write_bytes(
            b"<http://a:1> <http://p:1> <http://o:1> .\n#---\n"
            b"<http://b:1> <http://p:1> <http://o:1> .\n"
        )
        elements = list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert len(elements) == 1 and len(elements[0]) == 2

    def test_parse_error_names_the_member(self, tmp_path):
        (tmp_path / "00000.nt").write_bytes(b"<http://a:1> <http://p:1> <http://o:1> .\n")
        (tmp_path / "00001.nt").write_bytes(b"<http://a:1> <http://p:1> <http://o:1> .\nbad .\n")
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert (info.value.member, info.value.line, info.value.column) == ("00001.nt", 2, 1)
        assert str(info.value).startswith("00001.nt: line 2, column 1: ")

    def test_failed_write_leaves_no_members(self, tmp_path):
        elements = [Graph([Triple(Iri("http://a:1"), Iri("http://p:1"), Iri("http://o:1"))]), Dataset()]
        keep = tmp_path / "kept"
        keep.mkdir()
        (keep / "notes.txt").write_bytes(b"not ours")
        for target in (tmp_path / "fresh", keep):
            with pytest.raises(MixedPayload):
                write_stream(elements, Framing.DIR_GRAPHS, target)
        # the directory this call created is gone; the one it found keeps only what it held
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert sorted(p.name for p in keep.iterdir()) == ["notes.txt"]

    def test_directory_holding_members_is_refused(self, tmp_path):
        graphs = [Graph([Triple(Iri(EX + f"s{i}"), Iri(EX + "p"), Iri(EX + "o"))]) for i in range(3)]
        write_stream(graphs, Framing.DIR_GRAPHS, tmp_path)
        with pytest.raises(OutputExists, match=r"already holds member 00000\.nt$") as info:
            write_stream(graphs[:1], Framing.DIR_GRAPHS, tmp_path)
        assert str(tmp_path) in str(info.value)
        # nothing was written: the three old members still read back as they were
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == graphs
        # members of another extension do not count
        datasets = [Dataset(default_graph=graphs[0])]
        assert write_stream(datasets, Framing.DIR_DATASETS, tmp_path) == ["00000.nq"]
        assert list(read_grouped_stream(tmp_path, Framing.DIR_DATASETS)) == datasets

    def test_bytes_input_rejected(self):
        with pytest.raises(ValueError):
            list(read_grouped_stream(b"", Framing.DIR_GRAPHS))

    def test_member_names_sort_in_element_order_past_99999(self):
        indices = [0, 9_999, 10_000, 10_001, 99_999, 100_000, 999_999, 1_000_000, 10**7]
        stems = [_member_stem(i) for i in indices]
        assert stems[0] == "00000" and stems[4] == "99999"
        assert stems[5:] == ["z100000", "z999999", "zz1000000", "zzz10000000"]
        names = [stem + ".nt" for stem in stems]
        assert sorted(names, key=lambda n: n.encode("utf-8")) == names

    def test_blank_label_names_one_node_across_members(self, tmp_path):
        # as in a framed file, _:b in two members is one node of the stream
        (tmp_path / "00000.nt").write_bytes(b"_:b <http://p:1> <http://o:1> .\n")
        (tmp_path / "00001.nt").write_bytes(b"_:b <http://p:2> <http://o:2> .\n")
        elements = list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        framed = framed_bytes(elements, Framing.FRAMED_GRAPHS)
        assert list(read_grouped_stream(framed, Framing.FRAMED_GRAPHS)) == elements
        flat = list(convert(elements, "graphStream", "flatTripleStream", infer_closure(default_taxonomy())))
        assert len(flat) == 2
        assert [t.subject for t in flat] == [BlankNode("b"), BlankNode("b")]



CANONICAL_FIXTURES = [
    b"",
    b"#---\n",
    b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n",
    b'<http://ex.org/a> <http://ex.org/p> "plain" .\n',
    b'<http://ex.org/a> <http://ex.org/p> "hej"@sv .\n',
    b'<http://ex.org/a> <http://ex.org/p> "4"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
    b'<http://ex.org/a> <http://ex.org/p> "line\\nbreak\\ttab\\"q\\" back\\\\slash" .\n',
    b"_:b1 <http://ex.org/p> _:b2 .\n",
    b"<http://ex.org/\\u0001ctl> <http://ex.org/p> <http://ex.org/\\u007Bbrace\\u007D> .\n",
    "<http://ex.org/ż> <http://ex.org/p> \"unicode é\".\n".replace('".', '" .').encode("utf-8"),
]

FRAMED_FIXTURE = (
    b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n"
    b"#---\n"
    b"#---\n"
    b"<http://ex.org/c> <http://ex.org/p> _:x .\n"
    b'_:x <http://ex.org/q> "two"@en .\n'
)

QUAD_FIXTURE = (
    b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n"
    b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> <http://ex.org/g> .\n"
    b"_:s <http://ex.org/p> \"v\" _:g .\n"
)


class TestCanonicalByteIdentity:
    @pytest.mark.parametrize("fixture", [f for f in CANONICAL_FIXTURES if b"#---" not in f])
    def test_flat_triples(self, fixture):
        statements = list(read_flat_stream(fixture, Framing.FLAT_TRIPLES))
        assert write_flat_stream(statements, Framing.FLAT_TRIPLES) == fixture

    def test_framed_graphs(self):
        elements = list(read_grouped_stream(FRAMED_FIXTURE, Framing.FRAMED_GRAPHS))
        assert len(elements) == 3
        assert framed_bytes(elements, Framing.FRAMED_GRAPHS) == FRAMED_FIXTURE

    def test_flat_quads(self):
        statements = list(read_flat_stream(QUAD_FIXTURE, Framing.FLAT_QUADS))
        assert write_flat_stream(statements, Framing.FLAT_QUADS) == QUAD_FIXTURE

    def test_two_empty_elements(self):
        elements = list(read_grouped_stream(b"#---\n", Framing.FRAMED_GRAPHS))
        assert framed_bytes(elements, Framing.FRAMED_GRAPHS) == b"#---\n"


class TestAgainstReferenceParser:
    def test_quads_corpus_agrees(self):
        r = random.Random(41)
        statements = gen_unique_statements(r, 200, quads=True)
        payload = write_flat_stream(statements, Framing.FLAT_QUADS).decode("utf-8")
        reference = reference_parse_nquads(payload)
        assert len(reference) == 200
        for st, ref in zip(statements, reference):
            assert term_tuple(st.subject) == ref[0]
            assert term_tuple(st.predicate) == ref[1]
            assert term_tuple(st.object) == ref[2]
            expected = None if st.graph_label is None else term_tuple(st.graph_label)
            assert expected == ref[3]

    def test_triples_corpus_agrees(self):
        r = random.Random(42)
        statements = [gen_triple(r) for _ in range(120)]
        payload = write_flat_stream(statements, Framing.FLAT_TRIPLES).decode("utf-8")
        reference = reference_parse_nquads(payload)
        for st, ref in zip(statements, reference):
            assert (term_tuple(st.subject), term_tuple(st.predicate), term_tuple(st.object)) == ref[:3]
            assert ref[3] is None


# hypothesis: single statements survive a write/read cycle exactly

iri_values = st.builds(
    lambda body: "http://x:" + body,
    st.text(
        alphabet=st.characters(
            blacklist_characters='<>"{}|^`\\',
            blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"),
        ),
        max_size=12,
    ),
)
iris = st.builds(Iri, iri_values)
blanks = st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,6}", fullmatch=True))
lexicals = st.text(max_size=20)
plain_literals = st.builds(Literal, lexicals)
lang_literals = st.builds(
    lambda lex, lang: Literal(lex, language=lang),
    lexicals,
    st.from_regex(r"[a-z]{2,3}(-[a-z0-9]{1,4})?", fullmatch=True),
)
typed_literals = st.builds(lambda lex, dt: Literal(lex, datatype=dt.value), lexicals, iris)
objects = st.one_of(iris, blanks, plain_literals, lang_literals, typed_literals)
subjects = st.one_of(iris, blanks)
triples = st.builds(Triple, subjects, iris, objects)
quads = st.builds(Quad, subjects, iris, objects, st.one_of(st.none(), iris, blanks))


@settings(max_examples=200)
@given(st.lists(triples, max_size=5))
def test_property_triple_roundtrip(statements):
    payload = write_flat_stream(statements, Framing.FLAT_TRIPLES)
    assert list(read_flat_stream(payload, Framing.FLAT_TRIPLES)) == statements


@settings(max_examples=200)
@given(st.lists(quads, max_size=5))
def test_property_quad_roundtrip(statements):
    payload = write_flat_stream(statements, Framing.FLAT_QUADS)
    assert list(read_flat_stream(payload, Framing.FLAT_QUADS)) == statements


@settings(max_examples=100)
@given(st.lists(st.builds(Graph, st.lists(triples, max_size=4)), min_size=2, max_size=4))
def test_property_framed_graph_roundtrip(elements):
    payload = framed_bytes(elements, Framing.FRAMED_GRAPHS)
    assert list(read_grouped_stream(payload, Framing.FRAMED_GRAPHS)) == elements


def _accepted_literal(lexical, language, datatype):
    try:
        return Literal(lexical, datatype, language)
    except (MalformedIri, ValueError):
        return None


# Any text for every field: the model decides which literals exist, and
# every literal it accepts must be writable.  st.text leaves lone surrogates
# out by default, so lexical forms also draw them on purpose.
with_surrogates = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\ud800\udbff\udc00\udfff"), max_size=8
)
any_literals = st.builds(
    _accepted_literal,
    st.text(max_size=8) | with_surrogates,
    st.one_of(
        st.none(),
        st.text(max_size=8),
        st.text(alphabet="enGB1-\u00df\u0661", max_size=6),
    ),
    st.one_of(st.just(XSD_STRING), st.text(max_size=8), iri_values),
).filter(lambda lit: lit is not None)


@settings(max_examples=300)
@given(any_literals)
def test_property_every_literal_roundtrips(literal):
    statement = Triple(Iri("http://s:1"), Iri("http://p:1"), literal)
    payload = write_flat_stream([statement], Framing.FLAT_TRIPLES)
    assert list(read_flat_stream(payload, Framing.FLAT_TRIPLES)) == [statement]


# hypothesis: the line pattern, the locator and the scanner oracle agree on
# every line, accepted or not

MUTATION_CHARS = list('<>"_:.@^\\#-1\'{|`') + ["\t", " ", "\u00a0", "ß", "u", "\u0661", "\ufeff", "\x01"]


@st.composite
def mutated_lines(draw):
    r = random.Random(draw(st.integers(0, 2**32 - 1)))
    line = serialize_statement(gen_quad(r) if draw(st.booleans()) else gen_triple(r))
    for _ in range(draw(st.integers(0, 3))):
        # half of the edits land next to a token boundary, where the pattern
        # and the scanner are most likely to part
        edges = [i + d for i, c in enumerate(line) if c in '<>"_:.@^ ' for d in (0, 1)]
        at = draw(st.one_of(st.integers(0, len(line)), st.sampled_from(edges)))
        c = draw(st.sampled_from(MUTATION_CHARS))
        line = draw(st.sampled_from([
            line[:at] + c + line[at:],
            line[:at] + line[at + 1:],
            line[:at] + c + line[at + 1:],
        ]))
    return line


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return (exc.line, exc.column, exc.reason)


def assert_pattern_agrees_with_scanner(line, mode):
    expected = _outcome(lambda: oracle_scan_statement(line, mode == "quads", 5))
    assert _outcome(lambda: _locate(line, mode == "quads", 5)) == expected
    parsed = _outcome(lambda: parse_statement_line(line, mode, 5))
    if isinstance(parsed, ParsedLine):
        if parsed.kind is not LineKind.STATEMENT:
            assert parsed.kind is _line_kind(line)
            return
        parsed = parsed.statement
    assert parsed == expected


# The reader differentials run 1000 examples, or as many as the loaded
# profile asks for when that is more (`--hypothesis-profile=deep`).
READER_EXAMPLES = max(1000, settings().max_examples)


@settings(max_examples=READER_EXAMPLES)
@given(mutated_lines(), st.sampled_from(["triples", "quads"]))
def test_property_pattern_agrees_with_scanner(line, mode):
    assert_pattern_agrees_with_scanner(line, mode)


# Random edits rarely build these; the table pins them, reason included.
@pytest.mark.parametrize("mode", ["triples", "quads"])
@pytest.mark.parametrize("line", dict.fromkeys(row[0] for row in MALFORMED))
def test_table_lines_agree_with_scanner(line, mode):
    assert_pattern_agrees_with_scanner(line, mode)


# The pattern only finds where an IRI token ends; _node checks each new one
# against IRIREF, so the intern table never holds a token that failed, and a
# repeated bad token fails each time it is read.
def assert_only_iriref_tokens_interned(table):
    # The oracle's scanner, not the reader's pattern, judges each IRI token.
    for token in table:
        if token.startswith("<"):
            oracle_scan_statement(f"{token} <a:p> <a:o> .", False, 1)


@pytest.mark.parametrize("line, column", [(row[0], row[3]) for row in BAD_IRI_LINES])
def test_a_rejected_iri_token_is_never_interned(line, column, tmp_path):
    data = GOOD_LINE + b"#---\n" + line.encode() + b"\n"
    (tmp_path / "00000.nq").write_bytes(data)
    expected = _outcome(lambda: oracle_scan_statement(line, True, 3))
    assert expected[:2] == (3, column)
    with mock.patch.object(staxkit.io, "_interned", {}) as table:
        for source, framing in ((data, Framing.FRAMED_DATASETS), (tmp_path, Framing.DIR_DATASETS)):
            for _ in range(2):
                with pytest.raises(ParseError) as info:
                    list(read_grouped_stream(source, framing))
                assert (info.value.line, info.value.column, info.value.reason) == expected
        assert_only_iriref_tokens_interned(table)


@settings(max_examples=300)
@given(mutated_lines())
def test_property_only_iriref_tokens_are_interned(line):
    data = (line + "\n").encode() * 2
    with mock.patch.object(staxkit.io, "_interned", {}) as table:
        for mode in ("triples", "quads"):
            _outcome(lambda: parse_statement_line(line, mode))
        for framing in (Framing.FLAT_TRIPLES, Framing.FLAT_QUADS, Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS):
            read = read_flat_stream if framing.is_flat else read_grouped_stream
            _outcome_of(lambda: list(read(data, framing)))
        assert_only_iriref_tokens_interned(table)


# IRIREF excludes these raw characters, which Iri allows: each is valid only
# written as a UCHAR, which is how the writer writes it.
IRIREF_ONLY = [*map(chr, range(0x09)), *map(chr, range(0x0E, 0x1C)), *"{}|^`"]


@pytest.mark.parametrize("c", IRIREF_ONLY, ids=lambda c: f"U+{ord(c):04X}")
def test_iriref_excluded_characters_are_valid_only_escaped(c):
    code = f"{ord(c):04X}"
    for template, mode, column in IRI_ROLES:
        line = template.format(f"<http://ex.org/a{c}b>")
        with pytest.raises(ParseError) as info:
            parse_statement_line(line, mode, 1)
        reason = f"{c!r} (U+{code}) inside an IRI; write it as \\u{code}"
        assert (info.value.column, info.value.reason) == (column, reason)
        assert_pattern_agrees_with_scanner(line, mode)
        escaped = template.format(f"<http://ex.org/a\\u{code}b>")
        assert serialize_statement(parse_statement_line(escaped, mode).statement) == escaped
        assert_pattern_agrees_with_scanner(escaped, mode)


# The reader builds each statement in one loop; a reference built one line
# at a time with the scanner oracle and the public constructors must give
# the same statements and elements, with every value of exactly the same
# class, or the same error.

def _node_token(r):
    k = r.randrange(8)
    if k == 0:
        return f"_:b{r.randrange(4)}"
    if k == 1:
        # the same IRI escaped and not: one term from two tokens
        return r.choice(["<http://ex.org/\\u00E9%d>", "<http://ex.org/é%d>"]) % r.randrange(3)
    if k < 4:
        return f"<http://ex.org/fresh{r.randrange(10**9)}>"
    return f"<http://ex.org/r{r.randrange(5)}>"


def _object_token(r):
    k = r.randrange(8)
    if k < 3:
        return _node_token(r)
    lexical = r.choice(["x", "a b", "tab\\there", 'q\\"', "\\u00e9t\\u00E9", "", "é"])
    if k < 5:
        return f'"{lexical}"'
    if k == 5:
        return f'"{lexical}"@{r.choice(["en", "en-GB", "pl"])}'
    if k == 6:
        return f'"{lexical}"^^<http://ex.org/dt{r.randrange(10**9)}>'  # a datatype not seen before
    return f'"{lexical}"^^<{r.choice([XSD_STRING, "http://www.w3.org/2001/XMLSchema#integer"])}>'


BAD_LINES = [
    '<http://ex.org/s> <http://ex.org/p> "\\uD800" .',
    '<http://ex.org/s> <http://ex.org/p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
    '<http://ex.org/s> <http://ex.org/p> "x"^^<nocolon> .',
    '<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .',
    '<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> "g" .',
    '"s" <http://ex.org/p> <http://ex.org/o> .',
    "junk .",
]


@st.composite
def grouped_inputs(draw):
    """(quads, elements as lists of lines): statements in several graphs, with
    comments, blank lines, '#---', repeats and at times one bad line."""
    r = random.Random(draw(st.integers(0, 2**32 - 1)))
    quads = r.random() < 0.5
    seen: list[str] = []
    elements = []
    for _ in range(r.randrange(1, 5)):
        lines = []
        for _ in range(r.randrange(12)):
            k = r.randrange(10)
            if k == 0:
                lines.append(r.choice(["", " \t", "# note", "  #--- not a delimiter", "#---"]))
            elif k == 1 and seen:
                lines.append(r.choice(seen))
            else:
                terms = [_node_token(r), f"<http://ex.org/p{r.randrange(3)}>", _object_token(r)]
                if quads and r.random() < 0.6:
                    # g0 twice: escaped and not
                    labels = ["<http://ex.org/g0>", "<http://ex.org/\\u00670>", "<http://ex.org/g1>", "_:g"]
                    terms.append(r.choice(labels))
                line = r.choice([" ", "\t", "  "]).join(terms) + r.choice([" .", ".", " . # c", " .\t"])
                seen.append(line)
                lines.append(line)
        elements.append(lines)
    if r.random() < 0.2:
        element = r.choice(elements)
        element.insert(r.randrange(len(element) + 1), r.choice(BAD_LINES))
    return quads, elements


def _line_kind(line):
    """The kind of a line, by the rule the README states: only spaces and
    tabs may precede a comment or fill a blank line."""
    if line == FRAME_DELIMITER:
        return LineKind.FRAME_DELIMITER
    return {"": LineKind.BLANK, "#": LineKind.COMMENT}.get(line.lstrip(" \t")[:1], LineKind.STATEMENT)


def _reference(lines, quads, layout):
    """The statements of lines in a flat layout, else the elements, read one
    line at a time; a framed input splits at '#---', a member's ends only
    with its last line."""
    elements, current = [], []
    for no, line in enumerate(lines, 1):
        kind = _line_kind(line)
        if kind is LineKind.STATEMENT:
            try:
                current.append(oracle_scan_statement(line, quads, no))
            except ParseError:
                if quads or layout == "flat":
                    raise
                oracle_scan_statement(line, True, no)  # raises the quads-mode error
                raise MixedPayload(f"line {no}: named graph label inside a graph framing") from None
        elif kind is LineKind.FRAME_DELIMITER and layout == "framed":
            elements.append(current)
            current = []
    if layout == "flat":
        return current
    if lines or layout == "dir":
        elements.append(current)
    return [Dataset.from_quads(e) if quads else Graph(e) for e in elements]


def _encode(lines, r):
    """lines with LF or CRLF ends, the last at times with none."""
    ends = [r.choice(["\n", "\r\n"]) for _ in lines]
    if lines and lines[-1] and r.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def _statement_classes(statement):
    out = [type(statement), *map(type, statement)]
    if type(statement[2]) is Literal:
        out += map(type, statement[2])
    return out


def _classes(item):
    """The class of a statement or element and of every graph, label,
    statement, term and literal field in it, in order."""
    if type(item) in (Triple, Quad):
        return _statement_classes(item)
    if type(item) is Graph:
        graphs = [item]
    else:
        graphs = [item.default_graph, *(g for _, g in item.named_items())]
    out = [type(item), *(type(name) for name, _ in getattr(item, "named_items", tuple)())]
    for graph in graphs:
        out.append(type(graph))
        for statement in graph:
            out += _statement_classes(statement)
    return out


def _outcome_of(read):
    try:
        return read()
    except (ParseError, MixedPayload) as exc:
        return type(exc), str(exc)


@settings(max_examples=READER_EXAMPLES, deadline=None)
@given(grouped_inputs(), st.integers(0, 2**32 - 1), st.sampled_from([3, 4096]))
def test_property_one_loop_reader_equals_per_line_reference(case, seed, limit):
    # A small intern table empties in the middle of elements.
    quads, elements = case
    r = random.Random(seed)
    with mock.patch.object(staxkit.io, "_INTERN_LIMIT", limit), tempfile.TemporaryDirectory() as d:
        lines = [line for i, e in enumerate(elements) for line in ([FRAME_DELIMITER] if i else []) + e]
        data = _encode(lines, r)
        framing = Framing.FLAT_QUADS if quads else Framing.FLAT_TRIPLES
        got = _outcome_of(lambda: list(read_flat_stream(data, framing)))
        expected = _outcome_of(lambda: _reference(lines, quads, "flat"))
        assert got == expected
        if isinstance(got, list):
            assert [_classes(s) for s in got] == [_classes(s) for s in expected]

        framing = Framing.FRAMED_DATASETS if quads else Framing.FRAMED_GRAPHS
        got = _outcome_of(lambda: list(read_grouped_stream(data, framing)))
        expected = _outcome_of(lambda: _reference(lines, quads, "framed"))
        assert got == expected
        if isinstance(got, list):
            assert [_classes(e) for e in got] == [_classes(e) for e in expected]

        framing = Framing.DIR_DATASETS if quads else Framing.DIR_GRAPHS
        expected = []
        for i, member in enumerate(elements):
            name = _member_stem(i) + (".nq" if quads else ".nt")
            with open(os.path.join(d, name), "wb") as f:
                f.write(_encode(member, r))
            if isinstance(expected, list):
                try:
                    expected += _reference(member, quads, "dir")
                except ParseError as exc:
                    expected = ParseError, str(ParseError(exc.line, exc.column, exc.reason, member=name))
                except MixedPayload as exc:
                    expected = MixedPayload, str(exc)
        got = _outcome_of(lambda: list(read_grouped_stream(d, framing)))
        assert got == expected
        if isinstance(got, list):
            assert [_classes(e) for e in got] == [_classes(e) for e in expected]


# The reader builds a literal without Literal's surrogate check: strict UTF-8
# decoding and the escape decoder must refuse every surrogate first.
GOOD_LINE = b"<http://s:1> <http://p:1> <http://o:1> .\n"
SURROGATE_ESCAPE = "escape U+{:X} is not a valid scalar value"


@pytest.mark.parametrize(
    "line, reason",
    [
        (b'<http://s:1> <http://p:1> "a\\uD800" .', SURROGATE_ESCAPE.format(0xD800)),
        (b'<http://s:1> <http://p:1> "a\\uDFFF"@en .', SURROGATE_ESCAPE.format(0xDFFF)),
        (b'<http://s:1> <http://p:1> "a\\U0000DC00"^^<' + XSD_STRING.encode() + b"> .",
         SURROGATE_ESCAPE.format(0xDC00)),
        (b'<http://s:1> <http://p:1> "a\\uD800"^^<http://ex.org/dt> .', SURROGATE_ESCAPE.format(0xD800)),
        (b'<http://s:1> <http://p:1> "a\xed\xa0\x80" .', "invalid UTF-8 byte 0xED at byte offset {}"),
        (b'<http://s:1> <http://p:1> "a\xed\xa0\x80"@en .', "invalid UTF-8 byte 0xED at byte offset {}"),
    ],
)
@pytest.mark.parametrize("framing", [Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS, Framing.DIR_GRAPHS])
def test_surrogates_in_literals_raise_located_errors(line, reason, framing, tmp_path):
    data = GOOD_LINE + b"#---\n" + line + b"\n"
    source = data
    if framing.is_dir:
        (tmp_path / "00000.nt").write_bytes(data)
        source = tmp_path
    with pytest.raises(ParseError) as info:
        list(read_grouped_stream(source, framing))
    # the backslash or the first byte of the surrogate: column 29 of line 3
    assert (info.value.line, info.value.column) == (3, 29)
    assert info.value.reason == reason.format(len(GOOD_LINE) + 5 + 28)


class _CountingSource:
    """A binary stream that counts the lines it has handed out."""

    def __init__(self, data: bytes):
        self._lines = data.splitlines(keepends=True)
        self.handed = 0

    def __iter__(self):
        for line in self._lines:
            self.handed += 1
            yield line


@pytest.mark.parametrize("framing", [Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS])
def test_each_element_comes_out_when_its_delimiter_is_read(framing):
    data = GOOD_LINE + b"# comment\n\n" + GOOD_LINE + b"#---\n" + GOOD_LINE + b"#---\n#---\n" + GOOD_LINE
    source = _CountingSource(data)
    elements = read_grouped_stream(source, framing)
    handed = []
    for element in elements:
        handed.append(source.handed)
    assert handed == [5, 7, 8, 9]


ESCAPED_IRIS = [Iri("http://ex.org/{a}"), Iri("http://ex.org/a|b^c`\x01"), Iri("http://ex.org/\\d")]


def _writer_statements(quads: bool) -> list:
    """Statements with IRIs that need escapes, repeated blank nodes and more
    distinct IRIs than the table holds once _INTERN_LIMIT is patched small."""
    r = random.Random(5)
    nodes = [*ESCAPED_IRIS, BlankNode("b0"), BlankNode("b1"), *(Iri(f"{EX}n{i}") for i in range(40))]
    objects = [*nodes, Literal("x\ty"), Literal("v", language="en"), Literal("1", "http://ex.org/{dt}")]
    out = []
    for _ in range(120):
        s, p, o = r.choice(nodes), r.choice([Iri(EX + "p"), ESCAPED_IRIS[0]]), r.choice(objects)
        out.append(Quad(s, p, o, r.choice([None, BlankNode("b0"), ESCAPED_IRIS[1]])) if quads else Triple(s, p, o))
    return out


@pytest.mark.parametrize("limit", [3, 4096])
def test_writers_equal_serialize_statement(limit, monkeypatch, tmp_path):
    monkeypatch.setattr(staxkit.writer, "_INTERN_LIMIT", limit)
    for quads in (False, True):
        statements = _writer_statements(quads)
        lines = [serialize_statement(s) + "\n" for s in statements]
        flat = Framing.FLAT_QUADS if quads else Framing.FLAT_TRIPLES
        escaped = []
        with monkeypatch.context() as m:
            m.setattr(staxkit.writer, "serialize_term", lambda term: escaped.append(term) or serialize_term(term))
            assert write_flat_stream(statements, flat) == "".join(lines).encode()
        # Each IRI and blank node is escaped once while the table holds its
        # text; a table smaller than the stream's nodes empties, and some
        # are escaped again.
        nodes = [term for term in escaped if isinstance(term, (Iri, BlankNode))]
        assert (len(nodes) == len(set(nodes))) == (limit > len(set(nodes)))

        chunks = [statements[i : i + 25] for i in range(0, len(statements), 25)]
        elements = [Dataset.from_quads(c) if quads else Graph(c) for c in chunks]
        texts = ["".join(serialize_statement(s) + "\n" for s in (e.quads() if quads else e)) for e in elements]
        framed = Framing.FRAMED_DATASETS if quads else Framing.FRAMED_GRAPHS
        assert framed_bytes(elements, framed) == "#---\n".join(texts).encode()

        directory = tmp_path / ("quads" if quads else "triples")
        names = write_stream(elements, Framing.DIR_DATASETS if quads else Framing.DIR_GRAPHS, directory)
        assert [(directory / n).read_bytes() for n in names] == [t.encode() for t in texts]


_ORDER_NODES = [Iri(EX + "a"), Iri(EX + "{b}"), BlankNode("b0")]
_ORDER_GRAPHS = st.lists(
    st.builds(Triple, st.sampled_from(_ORDER_NODES), st.just(Iri(EX + "p")),
              st.sampled_from([*_ORDER_NODES, Literal("x\ny")])),
    max_size=4,
).map(Graph)
_DATASETS = st.builds(
    lambda default, named: Dataset(default, named),
    _ORDER_GRAPHS,
    st.dictionaries(st.sampled_from([Iri(EX + "g1"), Iri(EX + "g|2"), BlankNode("b0"), Iri(EX + "a")]),
                    _ORDER_GRAPHS, max_size=3),
)


@given(st.lists(_DATASETS, max_size=4))
def test_property_dataset_writers_follow_the_quads_order(datasets):
    # README: the order of Dataset.quads(), which flattening and every
    # dataset writer use.  The writers serialize whole graphs, not quads,
    # and drop empty named graphs.
    texts = ["".join(serialize_statement(q) + "\n" for q in d.quads()) for d in datasets]
    assert framed_bytes(datasets, Framing.FRAMED_DATASETS) == "#---\n".join(texts).encode()
    flat = BytesIO()
    elements = staxkit.writer._texts(datasets, Framing.FRAMED_DATASETS)
    staxkit.writer._write_texts(staxkit.writer._reframed(elements, Payload.DATASETS, Framing.FLAT_QUADS), flat)
    assert flat.getvalue() == "".join(texts).encode()
    with tempfile.TemporaryDirectory() as directory:
        names = write_stream(datasets, Framing.DIR_DATASETS, directory)
        assert [Path(directory, n).read_bytes() for n in names] == [t.encode() for t in texts]



_GRAPHS = st.builds(Graph, st.lists(triples, max_size=3))
_PAYLOAD_ITEMS = {
    Payload.TRIPLES: triples,
    Payload.QUADS: quads,
    Payload.GRAPHS: _GRAPHS,
    Payload.DATASETS: st.builds(Dataset, _GRAPHS, st.dictionaries(st.one_of(iris, blanks), _GRAPHS, max_size=2)),
}


@settings(max_examples=60)
@given(st.sampled_from(list(Framing)), st.data())
def test_property_writer_texts_have_the_reader_text_shape(framing, data):
    # The writer's item texts and the reader's text mode share one shape, so
    # one framing step serves both: a statement's line with its LF, or an
    # element's lines.  A framed stream of one empty element, which reads
    # back as no element, does not round-trip and is left out.
    items = data.draw(st.lists(_PAYLOAD_ITEMS[framing.payload], max_size=4))
    texts = list(staxkit.writer._texts(items, framing))
    assert len(texts) == len(items)
    if framing.is_dir:
        with tempfile.TemporaryDirectory() as directory:
            write_stream(items, framing, directory)
            assert list(staxkit.io._read_stream(directory, framing, text=True)) == texts
        return
    assume(framing.is_flat or texts != [""])
    sink = BytesIO()
    write_stream(items, framing, sink)
    assert list(staxkit.io._read_stream(sink.getvalue(), framing, text=True)) == texts

# The writers serialize every field as a term: the constructors let no
# other value into a statement or a dataset.
S, P, O = Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o")
NO_TERM = "{} object must be an IRI, blank node or literal"
NOT_A_NODE = "{} subject must be an IRI or blank node"
BAD_LABEL = "graph label must be an IRI or blank node"


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: Triple(S, P, None), NO_TERM.format("triple")),
        (lambda: Triple([1], P, O), NOT_A_NODE.format("triple")),
        (lambda: Triple(Literal("s"), P, O), "triple subject must not be a literal"),
        (lambda: Quad(S, P, "o"), NO_TERM.format("quad")),
        (lambda: Quad(EX + "s", P, O), NOT_A_NODE.format("quad")),
        (lambda: Quad(S, P, O, EX + "g"), BAD_LABEL),
        (lambda: Quad(S, P, O, [1]), BAD_LABEL),
        (lambda: Dataset(named_graphs=[(EX + "g", Graph())]), "graph name must be an IRI or blank node"),
        (lambda: Dataset(named_graphs={Iri(EX + "g"): []}), "named graph must be a Graph, got list"),
        (lambda: Dataset(default_graph=[]), "default graph must be a Graph, got list"),
    ],
    ids=["none-object", "list-subject", "literal-subject", "str-object", "str-subject", "str-label",
         "list-label", "str-graph-name", "list-graph", "list-default-graph"],
)
def test_constructors_reject_fields_that_are_no_terms(build, reason):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == reason


# A CR alone ends no line, so a file with CR-only line ends arrives as one
# line; the error names the CR.
CR_STATEMENT = b"<http://a:1> <http://p:1> <http://o:1> ."
CR_REASON = "carriage return (U+000D) line end; lines must end in LF or CRLF"
COMMENT_LF_REASON = "line feed (U+000A) inside a comment"


class TestCarriageReturnLineEnds:
    @pytest.mark.parametrize("framing", [Framing.FLAT_TRIPLES, Framing.FLAT_QUADS])
    def test_flat_file(self, framing, tmp_path):
        f = tmp_path / "cr.nt"
        f.write_bytes(CR_STATEMENT + b"\r" + CR_STATEMENT + b"\r")
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(f, framing))
        assert str(info.value) == f"{f}: line 1, column 41: {CR_REASON}"

    @pytest.mark.parametrize("framing", [Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS])
    def test_framed_file(self, framing):
        data = b"# a comment line\n" + CR_STATEMENT + b"\r#---\r" + CR_STATEMENT + b"\r"
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(data, framing))
        assert (info.value.line, info.value.column, info.value.reason) == (2, 41, CR_REASON)

    def test_dir_member(self, tmp_path):
        (tmp_path / "00000.nt").write_bytes(CR_STATEMENT + b"\n")
        (tmp_path / "00001.nt").write_bytes(CR_STATEMENT + b"\r" + CR_STATEMENT)
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert str(info.value) == f"00001.nt: line 1, column 41: {CR_REASON}"

    @pytest.mark.parametrize(
        "data, column, reason",
        [
            # an error before the CR keeps its own reason
            (b"<http://a:1> <http://p:1> bad .\r" + CR_STATEMENT, 27, "expected IRI, blank node, or literal"),
            (b"<http://a:1> <http://p:1>\r<http://o:1> .", 26, CR_REASON),
            (b"<http://a:1> <http://p:1> <http://o:1>\r.", 39, CR_REASON),
        ],
    )
    def test_error_at_or_after_the_cr(self, data, column, reason):
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(data, Framing.FLAT_TRIPLES))
        assert (info.value.line, info.value.column, info.value.reason) == (1, column, reason)


# comment ::= '#' [^#xD#xA]*: a comment ends before a CR, so a CR in a comment
# line or a trailing comment fails at that CR, as one between terms does.
# STRING_LITERAL_QUOTE excludes a CR too, so one in a literal fails there.
CR_COMMENT = b"# header\r" + CR_STATEMENT + b"\r" + CR_STATEMENT + b"\r"
CR_TRAILING = CR_STATEMENT + b" # c\r" + CR_STATEMENT
LITERAL_CR = b'<http://a:1> <http://p:1> "a\rb" .'
CR_PLACES = pytest.mark.parametrize(
    "data, column",
    [(CR_COMMENT, 9), (CR_TRAILING, 45), (LITERAL_CR + b"\n", 29)],
    ids=["comment-first", "trailing", "literal"],
)


class TestCarriageReturnInComments:
    @pytest.mark.parametrize("framing", [Framing.FLAT_TRIPLES, Framing.FLAT_QUADS])
    @CR_PLACES
    def test_flat_file(self, framing, data, column):
        with pytest.raises(ParseError) as info:
            list(read_flat_stream(data, framing))
        assert (info.value.line, info.value.column, info.value.reason) == (1, column, CR_REASON)

    @pytest.mark.parametrize("framing", [Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS])
    @CR_PLACES
    def test_framed_file(self, framing, data, column):
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(GOOD_LINE + b"#---\n" + data, framing))
        assert (info.value.line, info.value.column, info.value.reason) == (3, column, CR_REASON)

    def test_delimiter_before_a_cr_is_a_comment(self):
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(GOOD_LINE + b"#---\r" + GOOD_LINE, Framing.FRAMED_GRAPHS))
        assert (info.value.line, info.value.column, info.value.reason) == (2, 5, CR_REASON)

    @CR_PLACES
    def test_dir_member(self, data, column, tmp_path):
        (tmp_path / "00000.nt").write_bytes(CR_STATEMENT + b"\n")
        (tmp_path / "00001.nt").write_bytes(data)
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS))
        assert str(info.value) == f"00001.nt: line 1, column {column}: {CR_REASON}"

    @pytest.mark.parametrize("line", ["# header\r", "<http://a:1> <http://p:1> <http://o:1> . # c\r"])
    def test_statement_line(self, line):
        with pytest.raises(ParseError) as info:
            parse_statement_line(line, "triples", 4)
        assert (info.value.line, info.value.column, info.value.reason) == (4, len(line), CR_REASON)

    def test_classify_exits_3(self, tmp_path, capsys):
        f = tmp_path / "cr.nt"
        f.write_bytes(b"# header\r<http://a:1> <http://p:1> <http://o:1> .\r<http://a:2> <http://p:1> <http://o:1> .\r")
        assert main(["classify", "--framing", "flat-triples", "--json", "--input", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stax-kit: ParseError: {f}: line 1, column 9: {CR_REASON}\n"


# STRING_LITERAL_QUOTE ::= '"' ([^#x22#x5C#xA#xD] | ECHAR | UCHAR)* '"': a raw
# CR or LF inside a literal is an error at that character.  A file's lines
# hold no LF, so only parse_statement_line can meet one; MALFORMED and
# CR_PLACES hold the plain CR case.
LF_REASON = "line feed (U+000A) inside a literal; write it as \\n"


class TestLineEndsInsideLiterals:
    @pytest.mark.parametrize(
        "line, mode, column, reason",
        [
            ('<http://a:1> <http://p:1> "a\nb" .', "triples", 29, LF_REASON),
            ('<http://a:1> <http://p:1> "a\nb"@en <http://g:1> .', "quads", 29, LF_REASON),
            ('<http://a:1> <http://p:1> "\n"^^<http://d:1> .', "quads", 28, LF_REASON),
            ('<http://a:1> <http://p:1> "ab\\n\r" .', "triples", 32, CR_REASON),
            ('<http://a:1> <http://p:1> "a\r', "triples", 29, CR_REASON),
        ],
        ids=["lf", "lf-tagged", "lf-typed", "cr-after-escape", "cr-not-unterminated"],
    )
    def test_statement_line(self, line, mode, column, reason):
        with pytest.raises(ParseError) as info:
            parse_statement_line(line, mode, 1)
        assert (info.value.line, info.value.column, info.value.reason) == (1, column, reason)
        assert_pattern_agrees_with_scanner(line, mode)

    def test_classify_exits_3(self, tmp_path, capsys):
        f = tmp_path / "cr.nt"
        f.write_bytes(LITERAL_CR + b"\n")
        assert main(["classify", "--framing", "flat-triples", "--input", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stax-kit: ParseError: {f}: line 1, column 29: {CR_REASON}\n"


# One loop decodes each line and parses it: the decoding error, the line
# ends and the line numbers are those of a separate line splitter.
BAD_UTF8 = b'<http://s:1> <http://p:1> "\xc3\xa9\xff" .\n'  # 0xFF: byte 29 and column 29
T = Triple(Iri("http://s:1"), Iri("http://p:1"), Iri("http://o:1"))


class TestOneDecodeLoop:
    @pytest.mark.parametrize("framing", [Framing.FRAMED_GRAPHS, Framing.FRAMED_DATASETS])
    def test_invalid_utf8_in_the_second_element(self, framing):
        elements = read_grouped_stream(GOOD_LINE + b"#---\n" + GOOD_LINE + BAD_UTF8, framing)
        assert next(elements) == (Dataset.from_quads([Quad(*T)]) if framing.quads_payload else Graph([T]))
        with pytest.raises(ParseError) as info:
            next(elements)
        offset = 2 * len(GOOD_LINE) + len(b"#---\n") + 29
        assert str(info.value) == f"line 4, column 29: invalid UTF-8 byte 0xFF at byte offset {offset}"

    def test_invalid_utf8_in_a_dir_member(self, tmp_path):
        (tmp_path / "00000.nt").write_bytes(GOOD_LINE)
        (tmp_path / "00001.nt").write_bytes(GOOD_LINE + BAD_UTF8)
        elements = read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)
        assert next(elements) == Graph([T])
        with pytest.raises(ParseError) as info:
            next(elements)
        # the offset counts from the start of the member
        assert str(info.value) == "00001.nt: line 2, column 29: invalid UTF-8 byte 0xFF at byte offset 70"

    @pytest.mark.parametrize(
        "data, elements",
        [
            (b"", []),
            (b"\n", [Graph()]),
            (b"\r\n", [Graph()]),
            (GOOD_LINE[:-1], [Graph([T])]),
            (b"# c\r\n" + GOOD_LINE.replace(b"\n", b"\r\n") + b"#---\r\n\r\n" + GOOD_LINE[:-1], [Graph([T])] * 2),
            (GOOD_LINE + b"#---\n" + GOOD_LINE[:-1] + b"\r", [Graph([T])] * 2),
            (GOOD_LINE[:-1] + b" # c\r\n#---\n" + GOOD_LINE[:-1] + b"\t# c\n", [Graph([T])] * 2),
        ],
        ids=["zero-bytes", "lf", "crlf", "no-final-lf", "crlf-lines", "final-cr", "trailing-comments"],
    )
    def test_line_ends(self, data, elements, tmp_path):
        assert list(read_grouped_stream(data, Framing.FRAMED_GRAPHS)) == elements
        assert list(read_flat_stream(data, Framing.FLAT_TRIPLES)) == [T] * len(elements) * bool(data.strip())
        (tmp_path / "00000.nt").write_bytes(data)
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == [Graph([T] if data.strip() else [])]

    # Lines split at LF, so only the last line can be '#---' with a bare CR.
    @pytest.mark.parametrize("text", [False, True, "index"])
    def test_a_last_delimiter_ending_in_a_cr_ends_its_element(self, text):
        elements = list(staxkit.io._read_stream(GOOD_LINE + b"#---\r", Framing.FRAMED_GRAPHS, text))
        assert len(elements) == 2 and not elements[1]

    def test_line_numbers_past_line_ends(self):
        data = b"\r\n# c\n\n" + GOOD_LINE.replace(b"\n", b"\r\n") + b"#---\r\nbad .\n"
        with pytest.raises(ParseError) as info:
            list(read_grouped_stream(data, Framing.FRAMED_GRAPHS))
        assert (info.value.line, info.value.column) == (6, 1)

    # A str line was never split at its LF or CR, so it keeps both, and its
    # errors are placed as in a line that holds them.
    @pytest.mark.parametrize("mode", ["triples", "quads"])
    @pytest.mark.parametrize(
        "line, outcome",
        [
            (CR_STATEMENT.decode() + "\n", (4, 41, "unexpected content after '.'")),
            (CR_STATEMENT.decode() + "\r", (4, 41, CR_REASON)),
            (CR_STATEMENT.decode() + "\r\n", (4, 41, CR_REASON)),
            ("<http://a:1> <http://p:1>\n<http://o:1> .", (4, 26, "expected IRI, blank node, or literal")),
            ("\n", (4, 1, "expected IRI, blank node, or literal")),
            ("\r", (4, 1, CR_REASON)),
            ("# c\r", (4, 4, CR_REASON)),
            ("# c\n", ParsedLine(LineKind.COMMENT, 4)),
            ("#---\n", ParsedLine(LineKind.COMMENT, 4)),
            # comment ::= '#' [^#xD#xA]*: an LF before the line's last character is in no comment.
            ("<http://a:1> <http://p:1> <http://o:1> . # x\n<http://b:1> <http://p:1> <http://o:1> .",
             (4, 45, COMMENT_LF_REASON)),
            ("# c\nx", (4, 4, COMMENT_LF_REASON)),
        ],
    )
    def test_statement_line_keeps_its_line_ends(self, line, outcome, mode):
        assert _outcome(lambda: parse_statement_line(line, mode, 4)) == outcome


# The reader's text mode, which convert's re-framings read: every statement
# is its canonical line, whatever its spelling, and every error is the term
# mode's error.
def _text_or_error(data: bytes, framing: Framing, text: bool):
    """The items read, each as its canonical text, or the error's class, message and place.
    A directory framing reads data as the one member of a fresh directory."""
    try:
        if framing.is_dir:
            with tempfile.TemporaryDirectory() as directory:
                Path(directory, "00000.nq" if framing.quads_payload else "00000.nt").write_bytes(data)
                items = list(staxkit.io._read_stream(directory, framing, text))
        else:
            items = list(staxkit.io._read_stream(data, framing, text))
    except (ParseError, MixedPayload) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    if text:
        return items
    if framing.is_flat:
        return [serialize_statement(s) + "\n" for s in items]
    return ["".join(serialize_statement(q) + "\n" for q in (e.quads() if isinstance(e, Dataset) else e))
            for e in items]


# In a framed layout, MALFORMED's fourth-term row is a labelled line in a graph framing.
@pytest.mark.parametrize("layout", ["flat", "framed"])
@pytest.mark.parametrize("line,mode,line_no,column", MALFORMED)
def test_the_text_mode_raises_what_the_term_mode_raises(line, mode, line_no, column, layout):
    payload = {"flat": {"triples": "triples", "quads": "quads"}, "framed": {"triples": "graphs", "quads": "datasets"}}
    framing = Framing(f"{layout}-{payload[layout][mode]}")
    data = GOOD_LINE + b"#---\n" + line.encode() + b"\n"
    outcome = _text_or_error(data, framing, True)
    assert outcome == _text_or_error(data, framing, False)
    # A fourth term in a graph framing is a MixedPayload, which names its line in the message.
    assert outcome[2] == 3 if outcome[0] is ParseError else outcome[1].startswith("line 3: ")


# One statement in several spellings, and the canonical line they all share.
SPELLINGS = [
    b'<http://s:1> <http://p:1> "a b"@en <http://g:1> .\n',
    b'  <http://s:1>   <http://p:1> "a b"@en <http://g:1>. # comment\r\n',
    b'<http://s:1>\t<http://p:1>\t"a b"@en\t<http://g:1> .\n',
    b'<http://s:1> <http://p:1> "a\\u0020b"@en <http://g:1> .\n',
    b'<http://s:1> <http://p:1> "a b"@en <http://\\u0067:1> .\n',
]
XSD_SPELLINGS = [
    b'<http://s:1> <http://p:1> "x" <http://g:1> .\n',
    b'<http://s:1> <http://p:1> "x"^^<http://www.w3.org/2001/XMLSchema#string> <http://g:1> .\n',
    b'<http://s:1> <http://p:1> "x"^^<http://www.w3.org/2001/XMLSchema\\u0023string> <http://g:1>.\n',
]


@pytest.mark.parametrize("spellings", [SPELLINGS, XSD_SPELLINGS], ids=["language", "xsd-string"])
def test_every_spelling_of_a_statement_is_one_canonical_line(spellings):
    canonical = spellings[0].decode()
    default = b"<http://s:1> <http://p:1> <http://o:1> .\n"
    data = b"".join(spellings) + default + b"#---\n" + b"".join(reversed(spellings))
    assert _text_or_error(data, Framing.FLAT_QUADS, True) == [canonical] * len(spellings) + [default.decode()] + [
        canonical] * len(spellings)
    # Within an element a repeat is kept once, and the default graph comes first.
    assert _text_or_error(data, Framing.FRAMED_DATASETS, True) == [default.decode() + canonical, canonical]
    for framing in (Framing.FLAT_QUADS, Framing.FRAMED_DATASETS):
        assert _text_or_error(data, framing, True) == _text_or_error(data, framing, False)


# A line the writer would write keeps its bytes in the text mode, with no
# term built; every other spelling is rebuilt or serialized.  Either way the
# text is the term mode's statement serialized, or its error at its place.
CANONICAL_LINE = re.compile(staxkit.io._CANONICAL)
WRITER_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
ECHARS = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r", "\f": "\\f", '"': '\\"', "'": "\\'", "\\": "\\\\"}
IRI_EXCLUDED = {*map(chr, range(0x21)), *'<>"{}|^`\\'}


def _escape_char(draw, c):
    """c spelled as a \\u or \\U escape."""
    return draw(st.sampled_from([f"\\u{ord(c):04X}", f"\\u{ord(c):04x}", f"\\U{ord(c):08X}"]))


def _spell_iri(draw, value, canonical):
    chars = [f"\\u{ord(c):04X}" if c in IRI_EXCLUDED else c for c in value]
    if not canonical:
        chars = [_escape_char(draw, c) if draw(st.integers(0, 3)) == 0 else t for c, t in zip(value, chars)]
    return "<" + "".join(chars) + ">"


def _spell_literal(draw, lexical, canonical):
    if canonical:
        return '"' + "".join(WRITER_ESCAPES.get(c, c) for c in lexical) + '"'
    out = []
    for c in lexical:
        ways = [_escape_char(draw, c), ECHARS.get(c, c)]
        if c not in '"\\\n\r':
            ways.append(c)
        out.append(draw(st.sampled_from(ways)))
    if draw(st.integers(0, 9)) == 0:
        out.append(draw(st.sampled_from(["\\uD800", "\\U00110000"])))  # no scalar value
    return '"' + "".join(out) + '"'


iri_texts = st.builds(
    str.__add__,
    st.sampled_from(["http://ex.org/", "urn:x:", "http://ex.org/é/", "nocolon/"]),
    st.text(alphabet="ab.:#/é\x7f{ ", max_size=4),
)
blank_labels = st.from_regex(r"[A-Za-z0-9](?:[A-Za-z0-9_.-]{0,4}[A-Za-z0-9_-])?", fullmatch=True)


@st.composite
def spelled_statements(draw, canonical=None):
    """One statement line ending in LF or CRLF, spelled canonically (single
    spaces, ' .', the writer's escapes) or in a random other way."""
    if canonical is None:
        canonical = draw(st.booleans())

    def node():
        if draw(st.integers(0, 3)) == 0:
            return "_:" + draw(blank_labels)
        return _spell_iri(draw, draw(iri_texts), canonical)

    terms = [node(), _spell_iri(draw, draw(iri_texts), canonical)]
    if draw(st.booleans()):
        terms.append(node())
    else:
        o = _spell_literal(draw, draw(st.text(alphabet='ab"\\\n\r\t\b\f\'é\x7f\u2028', max_size=6)), canonical)
        suffix = draw(st.sampled_from(["", "lang", "datatype"]))
        if suffix == "lang":
            o += "@" + draw(st.sampled_from(["en", "en-GB", "EN"]))
        elif suffix == "datatype":
            datatype = draw(st.sampled_from(
                ["http://www.w3.org/2001/XMLSchema#integer", XSD_STRING, RDF_LANGSTRING, "http://ex.org/dt/é"]
            ))
            o += "^^" + _spell_iri(draw, datatype, canonical)
        terms.append(o)
    if draw(st.integers(0, 4)) == 0:
        terms.append(node())  # a graph label
    if canonical:
        return " ".join(terms) + " .\n"
    separators = [draw(st.sampled_from([" ", "\t", "  ", " \t"])) for _ in terms[1:]]
    line = terms[0] + "".join(s + t for s, t in zip(separators, terms[1:]))
    return line + draw(st.sampled_from([" .", ".", " . # c", "\t."])) + draw(st.sampled_from(["\n", "\r\n"]))


# 300 examples, or as many as the loaded profile asks for when that is more.
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(
    st.lists(st.one_of(spelled_statements(), st.just("#---\n")), max_size=6),
    st.sampled_from(list(Framing)),
    st.data(),
)
def test_property_text_mode_is_the_term_mode_serialized(lines, framing, data):
    # A statement spelled twice, once each way, is kept once in an element.
    if lines and data.draw(st.booleans()):
        lines.append(data.draw(st.sampled_from(lines)))
    encoded = "".join(lines).encode()
    assert _text_or_error(encoded, framing, True) == _text_or_error(encoded, framing, False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(spelled_statements(), st.just("#---\n")), max_size=6))
def test_property_an_index_keys_each_graph_by_its_label_token(lines):
    # The index mode keys a named graph by its label's canonical token, the
    # writer's spelling, however the label is spelled; term mode keys it by
    # the label, so the same graphs come in the same order.
    data = "".join(lines).encode()

    def read(text):
        try:
            return list(staxkit.io._read_stream(data, Framing.FRAMED_DATASETS, text))
        except (ParseError, MixedPayload) as exc:
            return str(exc)

    def lines_of(graph, label=None):
        return [serialize_statement(Quad(*t, label)) + "\n" for t in graph]

    datasets, indexes = read(False), read("index")
    if datasets.__class__ is str:
        assert indexes == datasets
        return
    assert [(list(index.pop(None, {})), [(label, list(graph)) for label, graph in index.items()])
            for index in indexes] == [
        (lines_of(d.default_graph), [(serialize_term(g), lines_of(graph, g)) for g, graph in d.named_items()])
        for d in datasets
    ]


@settings(max_examples=300)
@given(st.one_of(spelled_statements(), spelled_statements(canonical=True), mutated_lines().map("{}\n".format)))
def test_property_a_line_the_pattern_accepts_is_canonical(line):
    if CANONICAL_LINE.fullmatch(line):
        [statement] = read_flat_stream(line.encode(), Framing.FLAT_QUADS)
        assert serialize_statement(statement) + "\n" == line


NEAR_CANONICAL = [
    '<http://a:1> <http://p:1> "x" .\r\n',
    '<http://a:1>  <http://p:1> "x" .\n',
    '<http://a:1>\t<http://p:1> "x" .\n',
    ' <http://a:1> <http://p:1> "x" .\n',
    '<http://a:1> <http://p:1> "x".\n',
    '<http://a:1> <http://p:1> "x" . # c\n',
    '<http://a:1> <http://p:1> "x" .',
    '<http://a:1> <http://p:1> "\\u0041" .\n',
    '<http://a:1> <http://p:1> "\\b\\f\\\'" .\n',
    '<http://a:1> <http://p:1> "a\tb" .\n',
    '<http://\\u0061:1> <http://p:1> "x" .\n',
    '<http://a:é> <http://p:1> "x" .\n',
    '<http://a:\x7f> <http://p:1> "x" .\n',
    '<http://a:1> <http://p:1> "x" <http://g:1> .\n',
    '<http://a:1> <http://p:1> "x"^^<http://www.w3.org/2001/XMLSchema#string> .\n',
    '<http://a:1> <http://p:1> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .\n',
    '<http://a:1> <http://p:1> "x"^^<nocolon> .\n',
    '<nocolon> <http://p:1> "x" .\n',
    '<http://a:1> <http://p:1> _:b. .\n',
    '_:b. <http://p:1> "x" .\n',
    '_:-b <http://p:1> "x" .\n',
    '<http://a:1> <http://p:1> "x"@en- .\n',
    '<http://a:1> <http://p:1> "\\uD800" .\n',
    '<http://a:1> <http://p:1> "x" . .\n',
    '<http://\\u0061:1> <http://p:1> "a\\tb" .\n',
    '<http://a:1> <http://p:1> "x" <http://\\u0067:1> .\n',
    '<http://a:1>\t<http://p:1> "x"@en <http://g:1> .\n',
    '<http://a:1>\t<http://p:1> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
]


@pytest.mark.parametrize("framing", [Framing.FLAT_TRIPLES, Framing.FRAMED_DATASETS, Framing.DIR_GRAPHS])
@pytest.mark.parametrize("line", NEAR_CANONICAL)
def test_near_canonical_lines_take_the_checked_path(line, framing):
    assert not CANONICAL_LINE.fullmatch(line)
    data = line.encode()
    assert _text_or_error(data, framing, True) == _text_or_error(data, framing, False)


def _index_text(index: dict) -> str:
    """The lines of an index of the reader's 'index' mode, as its text mode joins them."""
    return "".join(chain(index.get(None, {}), *(lines for label, lines in index.items() if label is not None)))


# Valid lines that the canonical patterns decline: the statement pattern reads each.
LOCATED_LINES = [
    '<http://a:1>\t<http://p:1> "x"@en .\r\n',
    "# a comment\n",
    '<http://\\u0061:2> <http://p:1> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . # c\n',
    "#---\n",
    "_:b1  <http://p:1> <http://a:1>.\n",
]
LOCATED_QUAD_LINES = [
    '<http://a:1>\t<http://p:1> "x"@en <http://g:1> .\r\n',
    "<http://a:1> <http://p:1> _:b1 <http://\\u0067:1> .\n",
    '<http://a:1> <http://p:1> "y" <http://g:1> . # c\n',
]


def _valid_line(line: str, framing: Framing) -> bool:
    """Whether the scanner oracle reads line, less its LF and CR, as a statement of framing's payload."""
    line = line[: -1 - line.endswith("\r\n")]
    return isinstance(_outcome(lambda: oracle_scan_statement(line, framing.quads_payload, 1)), (Triple, Quad))


# The reader takes no statement from the locator: a valid line, however it is
# spelled, is read by the statement pattern and its term checks alone, in
# term, text and index modes alike.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(spelled_statements(), st.just("#---\n")), max_size=6),
       st.sampled_from([f for f in Framing if not f.is_dir]))
def test_a_valid_line_never_reaches_the_locator(drawn, framing):
    lines = LOCATED_LINES + (LOCATED_QUAD_LINES if framing.quads_payload else [])
    lines += [line for line in drawn if line == "#---\n" or _valid_line(line, framing)]
    data = "".join(lines).encode()
    calls = []
    locate = staxkit.locator._locate
    with mock.patch.object(staxkit.locator, "_locate", lambda *a: calls.append(a) or locate(*a)):
        expected = _text_or_error(data, framing, False)
        texts = _text_or_error(data, framing, True)
        indexes = [_index_text(index) for index in staxkit.io._read_stream(data, framing, "index")]
    assert calls == []
    assert expected.__class__ is list
    assert texts == indexes == expected


def test_the_pattern_accepts_the_writer_escapes_only():
    # The text mode re-escapes a literal with the writer's table, and keeps a
    # literal as read when its escapes are that table's and no other.
    assert staxkit.writer._LITERAL_ESC == str.maketrans(WRITER_ESCAPES)
    for c, escape in ECHARS.items():
        line = f'<http://a:1> <http://p:1> "{escape}" .\n'
        assert bool(CANONICAL_LINE.fullmatch(line)) == (WRITER_ESCAPES.get(c) == escape)
        assert _text_or_error(line.encode(), Framing.FLAT_TRIPLES, True) == [
            f'<http://a:1> <http://p:1> "{WRITER_ESCAPES.get(c, c)}" .\n'
        ]


def test_canonical_lines_build_no_terms(monkeypatch):
    elements = gen_graph_elements(random.Random(7))
    data = framed_bytes(elements, Framing.FRAMED_GRAPHS)
    calls = []
    node = staxkit.io._node
    monkeypatch.setattr(staxkit.io, "_node", lambda token: calls.append(token) or node(token))
    staxkit.io._interned.clear()
    texts = _text_or_error(data, Framing.FRAMED_GRAPHS, True)
    assert calls == []
    assert texts == _text_or_error(data, Framing.FRAMED_GRAPHS, False)
    assert "".join(texts) == data.decode().replace("#---\n", "")
