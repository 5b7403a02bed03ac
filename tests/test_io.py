import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_scan_statement, reference_parse_nquads, term_tuple
from streamgen import (
    gen_dataset_elements,
    gen_graph_elements,
    gen_quad,
    gen_triple,
    gen_unique_statements,
)
from staxkit.convert import flatten_graphs
from staxkit.errors import MalformedIri, MixedPayload, OutputExists, ParseError
from staxkit.io import (
    FRAME_DELIMITER,
    Framing,
    LineKind,
    ParsedLine,
    _locate,
    _member_stem,
    parse_statement_line,
    read_flat_stream,
    read_grouped_stream,
    serialize_statement,
    write_dir_stream,
    write_flat_stream,
    write_grouped_stream,
    write_stream,
)
from staxkit.model import XSD_STRING, BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple

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
]


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
            payload = write_grouped_stream(elements, Framing.FRAMED_GRAPHS)
            assert list(read_grouped_stream(payload, Framing.FRAMED_GRAPHS)) == elements

    def test_datasets_roundtrip(self):
        r = random.Random(22)
        for _ in range(25):
            elements = gen_dataset_elements(r)
            payload = write_grouped_stream(elements, Framing.FRAMED_DATASETS)
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
            write_grouped_stream([Dataset()], Framing.FRAMED_GRAPHS)
        with pytest.raises(MixedPayload):
            write_grouped_stream([Graph()], Framing.FRAMED_DATASETS)

    def test_lone_empty_element_serializes_to_zero_bytes(self):
        # documented boundary: this one layout cannot be told apart from
        # the empty stream on disk
        assert write_grouped_stream([Graph()], Framing.FRAMED_GRAPHS) == b""

    def test_empty_named_graphs_are_dropped_on_write(self):
        d = Dataset(named_graphs=[(Iri(EX + "g"), Graph())])
        payload = write_grouped_stream([d], Framing.FRAMED_DATASETS)
        assert payload == b""


class _Recorder:
    """A binary sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        return len(data)


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
        with pytest.raises(ValueError, match="flat or framed"):
            write_stream([], framing, sink)
        assert sink.writes == []

    def test_empty_stream_writes_nothing(self):
        sink = _Recorder()
        assert write_stream([], Framing.FRAMED_DATASETS, sink) == 0
        assert sink.writes == []


class TestDirStreams:
    def test_roundtrip_graphs(self, tmp_path):
        r = random.Random(31)
        elements = [Graph([gen_triple(r) for _ in range(3)]) for _ in range(4)]
        names = write_dir_stream(elements, Framing.DIR_GRAPHS, tmp_path)
        assert names == ["00000.nt", "00001.nt", "00002.nt", "00003.nt"]
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == elements

    def test_roundtrip_datasets(self, tmp_path):
        r = random.Random(32)
        elements = gen_dataset_elements(r) or [Dataset(default_graph=Graph([gen_triple(r)]))]
        write_dir_stream(elements, Framing.DIR_DATASETS, tmp_path)
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
        names = write_dir_stream([Graph()], Framing.DIR_GRAPHS, tmp_path)
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
                write_dir_stream(elements, Framing.DIR_GRAPHS, target)
        # the directory this call created is gone; the one it found keeps only what it held
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert sorted(p.name for p in keep.iterdir()) == ["notes.txt"]

    def test_directory_holding_members_is_refused(self, tmp_path):
        graphs = [Graph([Triple(Iri(EX + f"s{i}"), Iri(EX + "p"), Iri(EX + "o"))]) for i in range(3)]
        write_dir_stream(graphs, Framing.DIR_GRAPHS, tmp_path)
        with pytest.raises(OutputExists, match=r"already holds member 00000\.nt$") as info:
            write_dir_stream(graphs[:1], Framing.DIR_GRAPHS, tmp_path)
        assert str(tmp_path) in str(info.value)
        # nothing was written: the three old members still read back as they were
        assert list(read_grouped_stream(tmp_path, Framing.DIR_GRAPHS)) == graphs
        # members of another extension do not count
        datasets = [Dataset(default_graph=graphs[0])]
        assert write_dir_stream(datasets, Framing.DIR_DATASETS, tmp_path) == ["00000.nq"]
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
        framed = write_grouped_stream(elements, Framing.FRAMED_GRAPHS)
        assert list(read_grouped_stream(framed, Framing.FRAMED_GRAPHS)) == elements
        flat = list(flatten_graphs(elements))
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
        assert write_grouped_stream(elements, Framing.FRAMED_GRAPHS) == FRAMED_FIXTURE

    def test_flat_quads(self):
        statements = list(read_flat_stream(QUAD_FIXTURE, Framing.FLAT_QUADS))
        assert write_flat_stream(statements, Framing.FLAT_QUADS) == QUAD_FIXTURE

    def test_two_empty_elements(self):
        elements = list(read_grouped_stream(b"#---\n", Framing.FRAMED_GRAPHS))
        assert write_grouped_stream(elements, Framing.FRAMED_GRAPHS) == b"#---\n"


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
    payload = write_grouped_stream(elements, Framing.FRAMED_GRAPHS)
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

MUTATION_CHARS = list('<>"_:.@^\\#-1') + ["\t", " ", "\u00a0", "ß", "u", "\u0661"]


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
            # only spaces and tabs may precede a comment or fill a blank line
            kind = {"": LineKind.BLANK, "#": LineKind.COMMENT}.get(line.lstrip(" \t")[:1])
            assert parsed.kind is (LineKind.FRAME_DELIMITER if line == FRAME_DELIMITER else kind)
            return
        parsed = parsed.statement
    assert parsed == expected


@settings(max_examples=1000)
@given(mutated_lines(), st.sampled_from(["triples", "quads"]))
def test_property_pattern_agrees_with_scanner(line, mode):
    assert_pattern_agrees_with_scanner(line, mode)


# Random edits rarely build these; the table pins them, reason included.
@pytest.mark.parametrize("mode", ["triples", "quads"])
@pytest.mark.parametrize("line", dict.fromkeys(row[0] for row in MALFORMED))
def test_table_lines_agree_with_scanner(line, mode):
    assert_pattern_agrees_with_scanner(line, mode)
