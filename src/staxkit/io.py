"""Streaming readers and writers for flat and grouped RDF streams.

Flat streams are N-Triples / N-Quads files (W3C RDF 1.1 grammar subset):
one statement per line terminated by '.', IRIs as <...> with \\u/\\U escapes,
literals in double quotes with optional @lang or ^^<iri>, blank nodes as
_:label, '#' comments to end of line.

Grouped streams come in two on-disk conventions:

* framed files: elements are separated by a delimiter line whose entire
  content is '#---'.  Because '#' lines are comments in N-Triples/N-Quads,
  a framed file degrades gracefully to a flat stream of the same statements.
* directories: every *.nt (graphs) or *.nq (datasets) member file, in
  byte-wise lexicographic filename order, is one element.

This module holds the reader, and write_flat_stream, which returns a flat
stream's bytes through writer.write_stream.  The writers are in writer,
and the error locator, which reads a line the statement pattern declines
term by term, is in locator; a call imports each only when it runs it.

The reader has a text mode, for convert and for classify's checks: it
yields each statement's canonical N-Triples/N-Quads line, or each element's
lines, in place of terms (see _read).  A line already canonical is kept as
read; any other has its terms checked as in term mode, and only a line with
an escape outside its literal makes a valid classify or validate load the
writer.
"""

from __future__ import annotations

import enum
import os
import re
from contextlib import nullcontext
from io import BytesIO
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .errors import MalformedIri, MixedPayload, ParseError
from .framing import _INTERN_LIMIT, FRAME_DELIMITER, Framing, Payload
from .model import (
    _IRI_EXCLUDED,
    _LITERAL_ESC,
    _SURROGATE,
    LANGTAG,
    RDF_LANGSTRING,
    XSD_STRING,
    _checked_datatypes,
    BlankNode,
    Dataset,
    Graph,
    Iri,
    Literal,
    Quad,
    Statement,
    Triple,
)

Source = Union[bytes, "os.PathLike[str]", str, IO[bytes]]


class LineKind(enum.Enum):
    STATEMENT = "statement"
    COMMENT = "comment"
    BLANK = "blank"
    FRAME_DELIMITER = "frame-delimiter"


class ParsedLine(NamedTuple):
    kind: LineKind
    line_no: int
    statement: Statement | None = None


# ---------------------------------------------------------------------------
# Line-level parsing
# ---------------------------------------------------------------------------
# Each lexical production is written once, as a regex fragment: below, or
# in model for LANGTAG, which Literal checks as well, and for the characters
# IRIREF excludes, which the writer escapes.  One precompiled
# statement pattern built from them parses every valid line, but scans an
# IRI token only to its first '>' (IRIREF holds no raw '>'): _node checks
# each new token against IRIREF once.  A line the pattern declines, or whose
# terms fail a check, is read again token by token with the same fragments
# (locator._locate) to raise the first error.

_WS = r"[ \t]*"
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_ECHAR_VALUE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ECHAR = rf"\\[{re.escape(''.join(_ECHAR_VALUE))}]"
_LABEL = r"[A-Za-z0-9_.-]"

_IRI_CHAR = rf"[^{_IRI_EXCLUDED}]"
_IRI_TOKEN = rf"<{_IRI_CHAR}*(?:{_UCHAR}{_IRI_CHAR}*)*>"
_IRIREF = re.compile(_IRI_TOKEN)
_IRI_SCAN = "<[^>]*>"
# A blank label is the longest run of label characters less its trailing
# dots, which belong to the terminator: no label character may follow them.
_NODE_TOKEN = rf"({_IRI_SCAN}|_:[A-Za-z0-9]{_LABEL}*(?<!\.)(?=\.*(?!{_LABEL})))"
_STATEMENT = re.compile(
    rf"{_WS}{_NODE_TOKEN}{_WS}({_IRI_SCAN}){_WS}(?:{_NODE_TOKEN}"
    rf'|"([^"\\\r\n]*(?:(?:{_ECHAR}|{_UCHAR})[^"\\\r\n]*)*)"'
    rf"(?:@({LANGTAG})|\^\^({_IRI_SCAN}))?)"
    rf"{_WS}(?:{_NODE_TOKEN}{_WS})?\.{_WS}(?:#[^\r\n]*)?\r?\n?\Z"
)
_ESCAPE = re.compile(rf"{_UCHAR}|{_ECHAR}")
_SKIP_WS = re.compile(_WS)

# A three-term line exactly as the writer writes it, and whose terms need no
# check beyond it: ASCII IRIREFs holding a ':' (for ASCII, all Iri checks),
# BlankNode's labels, literal bodies with only the writer's escapes, and no
# datatype the writer omits or Literal refuses; in quad layouts a captured
# graph label may follow.  The text mode keeps such a line as read.  Each
# pattern is compiled on first use through re's cache, so term mode compiles
# neither; a positive class compiles far faster than a negated one to U+10FFFF.
_CANONICAL_IRI = r"<[!#-9;=?-\[\]_a-z~]*:[!#-;=?-\[\]_a-z~]*>"
_CANONICAL_NODE = rf"(?:{_CANONICAL_IRI}|_:[A-Za-z0-9][A-Za-z0-9_.-]*(?<!\.))"
_CANONICAL_TERMS = (
    rf"{_CANONICAL_NODE} {_CANONICAL_IRI} (?:{_CANONICAL_NODE}"
    rf'|"[^"\\\r\n\t]*(?:\\["\\nrt][^"\\\r\n\t]*)*"'
    rf"(?:@{LANGTAG}|\^\^(?!<{re.escape(XSD_STRING)}>|<{re.escape(RDF_LANGSTRING)}>){_CANONICAL_IRI})?)"
)
_CANONICAL = _CANONICAL_TERMS + r" \.\n"
_CANONICAL_QUAD = rf"{_CANONICAL_TERMS}(?: ({_CANONICAL_NODE}))? \.\n"

# The '#---' lines that end a framed element, tested before the statement
# pattern.  Lines split at LF, so '#---\r' can only be the last line.
_DELIMITER_LINES = (
    FRAME_DELIMITER + "\n", FRAME_DELIMITER, FRAME_DELIMITER + "\r\n", FRAME_DELIMITER + "\r",
)

_CR_REASON = "carriage return (U+000D) line end; lines must end in LF or CRLF"
_COMMENT_LF_REASON = "line feed (U+000A) inside a comment"

# IRIs and blank nodes interned by token: a repeated one is built and checked
# once.  Terms are immutable, so sharing is safe; at _INTERN_LIMIT entries
# the table empties.
_interned: dict[str, Iri | BlankNode] = {}


def _unescape_match(m: re.Match) -> str:
    e = m[0]
    if len(e) == 2:
        return _ECHAR_VALUE[e[1]]
    code = int(e[2:], 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"escape U+{code:X} is not a valid scalar value")
    return chr(code)


def _unescape(text: str) -> str:
    return _ESCAPE.sub(_unescape_match, text) if "\\" in text else text


def _node(token: str) -> Iri | BlankNode:
    """The IRI or blank node a pattern token denotes, from the intern table;
    a new IRI token that is no IRIREF raises ValueError and is not interned."""
    term = _interned.get(token)
    if term is None:
        if token[0] == "_":
            term = BlankNode(token[2:])
        elif _IRIREF.fullmatch(token):
            value = token[1:-1]
            # IRIREF excludes every ASCII character Iri does: an ASCII value
            # without escapes needs only Iri's ':' check.
            if ":" in value and "\\" not in value and value.isascii():
                term = str.__new__(Iri, value)
            else:
                term = Iri(_unescape(value))
        else:
            raise ValueError(f"not an IRIREF: {token}")
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
        _interned[token] = term
    return term


def _check_comment(line: str, start: int, line_no: int) -> None:
    """Raise at the comment's first CR or LF, bar the line's own last LF: comment ::= '#' [^#xD#xA]*."""
    bad = re.compile("[\r\n]").search(line, start, len(line) - line.endswith("\n"))
    if bad is not None:
        raise ParseError(line_no, bad.start() + 1, _CR_REASON if bad[0] == "\r" else _COMMENT_LF_REASON)


def _parse_line(line: str, quads: bool, line_no: int) -> Statement | LineKind:
    """The kind of a line that holds no statement, or the statement the
    locator reads from any other line: it raises the line's first error."""
    if line == FRAME_DELIMITER:
        return LineKind.FRAME_DELIMITER
    start = _SKIP_WS.match(line).end()
    if start == len(line):
        return LineKind.BLANK
    if line[start] == "#":
        _check_comment(line, start, line_no)
        return LineKind.COMMENT
    from .locator import _locate

    return _locate(line, quads, line_no)


def parse_statement_line(line: str, mode: str, line_no: int = 1) -> ParsedLine:
    """Classify and parse one input line.

    mode is 'triples' or 'quads'.  A line whose entire content is '#---' is
    a frame delimiter; other lines whose first character past spaces and
    tabs is '#' are comments; lines of spaces and tabs only are blank.  In
    triples mode a fourth term is an error; in quads mode a three-term
    statement becomes a default-graph quad.
    """
    if mode not in (Payload.TRIPLES, Payload.QUADS):
        raise ValueError(f"mode must be 'triples' or 'quads', got {mode!r}")
    quads = mode == Payload.QUADS
    # The reader's loop takes a line's LF or CRLF, and builds literals
    # unchecked, as strict UTF-8 decoding lets no surrogate through; a str
    # holding a CR, LF or surrogate goes to the locator, which checks them.
    if "\n" not in line and "\r" not in line and (line.isascii() or _SURROGATE.search(line) is None):
        for statement in _read((line.encode(),), quads, "flat", line_no):
            return ParsedLine(LineKind.STATEMENT, line_no, statement)
    parsed = _parse_line(line, quads, line_no)
    if isinstance(parsed, LineKind):
        return ParsedLine(parsed, line_no)
    return ParsedLine(LineKind.STATEMENT, line_no, parsed)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _read_file(source: Source, quads: bool, layout: str, text: bool | str, name: str = "", size: int = 0) -> Iterator:
    """_read over source's lines.  A ParseError names name if given, else a
    path source; bytes and binary streams have no other name to give."""
    if isinstance(source, bytes):
        source = BytesIO(source)
    path = isinstance(source, (str, os.PathLike))
    name = name or (os.fspath(source) if path else None)
    try:
        with open(source, "rb") if path else nullcontext(source) as handle:
            yield from _read(handle, quads, layout, 1, text, size)
    except ParseError as exc:
        raise ParseError(exc.line, exc.column, exc.reason, member=name) from None


def _read_stream(source: Source, framing: Framing, text: bool | str = False, size: int = 0, name: str = "") -> Iterator:
    """The items of source under framing, read lazily: statements or elements,
    or with text the canonical text of each; with text 'index', the elements'
    indexes (see _read), a flat framing's statements each as a one-statement
    element.  A size batches a flat stream's statements, or a grouped
    stream's elements' canonical lines.  A ParseError names name if given
    (see _read_file); a directory's names its member."""
    if text == "index" and framing.is_flat:
        size = 1
    split = size and not framing.is_flat  # read its elements' canonical lines as a flat stream
    items = (_read_dir_stream(source, framing, split or text) if framing.is_dir
             else _read_file(source, framing.quads_payload, framing.value.partition("-")[0], split or text, name, size))
    lines = (line for element in items for line in element.encode().splitlines(True))
    return _read(lines, framing.quads_payload, "flat", 1, text, size) if split else items


def read_flat_stream(source: Source, framing: Framing) -> Iterator[Statement]:
    """Yield statements of an N-Triples/N-Quads stream in file order.

    Comments and blank lines are skipped; a '#---' line inside a flat stream
    is an ordinary comment.
    """
    if not framing.is_flat:
        raise ValueError(f"read_flat_stream needs a flat framing, got {framing.value}")
    yield from _read_stream(source, framing)


def _read(
    lines: Iterable[bytes], quads: bool, layout: str, first: int = 1, text: bool | str = False, size: int = 0
) -> Iterator[Statement | Graph | Dataset | str | dict]:
    """The one loop from encoded line to statement.  layout is the first
    part of a framing's value: 'flat', 'framed' or 'dir'; first is the
    first line's number.  Each line is decoded as strict UTF-8 and fails
    at its first bad byte.  The pattern takes a line with its LF or CRLF;
    a line it declines loses one trailing LF, then one CR.

    A flat layout yields each statement as soon as it is built.  A framed
    file yields its elements, split at '#---', a line tested for before the
    statement pattern but after the canonical one; a directory member, where
    '#---' is a comment, yields its one element.  A line the pattern
    matches has its terms built inline, and in a grouped layout its triple
    goes straight into its graph's index.  Any other line takes _parse_line
    once, in quads mode in a graph framing: a blank line or comment is
    skipped, an error raised, and a labelled line there is a MixedPayload.
    At '#---' and at the end the indexes become the element, unchecked.  A
    size groups a flat layout as convert does, under the flat error rules:
    every size statements read, repeats counted, the last few an element.

    With text, a statement is its canonical line, LF included, and an
    element the str of its lines in Dataset.quads() order, or with text
    'index' the indexes themselves.  A line that _CANONICAL, or in a quad
    layout _CANONICAL_QUAD, matches in full is already that line: it is
    kept as read, and no term is built.  Any other matched line has its
    tokens checked as terms by the code that builds term mode's statements.
    With no '\\' outside its literal it is written from its tokens: single
    spaces, ' .', no comment, no CR, no xsd:string suffix, and the literal
    escaped with the writer's table.  Any other line, such as one with a
    \\u escape in an IRI, is a Quad the writer serializes, which only such
    a line imports.  In text mode a graph label's canonical token, the
    writer's spelling, keys its index, where term mode keys it by the label
    term; a term has one canonical token, so a statement repeated in any
    spelling is kept once in either mode.
    """
    if text:
        canonical = re.compile(_CANONICAL_QUAD if quads else _CANONICAL).fullmatch
    flat = layout == "flat" and not size
    framed = layout == "framed"
    flat_quads = flat and quads
    left = size if layout == "flat" else 0  # a size batches a flat layout only
    match = _STATEMENT.match
    get = _interned.get
    checked = _checked_datatypes.get
    new = tuple.__new__
    graphs: dict[Iri | BlankNode | str | None, dict] = {}  # label term, or in text mode its token
    no = first - 1
    offset = 0
    for no, raw in enumerate(lines, first):
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            column = len(raw[: exc.start].decode()) + 1
            reason = f"invalid UTF-8 byte 0x{raw[exc.start]:02X} at byte offset {offset + exc.start}"
            raise ParseError(no, column, reason) from None
        offset += len(raw)
        if text and (kept := canonical(line)) is not None:
            # A canonical line is its own text, in the graph of its label if any.
            statement, m = line, None
            label = kept.lastindex and kept[1]
        elif framed and line in _DELIMITER_LINES:
            yield _element(graphs, quads, text)
            graphs = {}
            continue
        else:
            m = match(line)
            statement = None
        # A matched line starts with a term: never a delimiter, blank or comment.
        if m is not None and (quads or m[7] is None):
            s, p, o, lexical, language, datatype, g = m.groups()
            try:
                subject = get(s) or _node(s)
                predicate = get(p) or _node(p)
                label = None if g is None else get(g) or _node(g)
                if o is not None:
                    obj = get(o) or _node(o)
                else:
                    value = lexical
                    if "\\" in lexical:
                        value = _ESCAPE.sub(_unescape_match, lexical)
                    # No surrogate gets through and the pattern checked LANGTAG: only a new datatype needs Literal.
                    dt = RDF_LANGSTRING if language is not None else XSD_STRING
                    if datatype is not None:
                        dt = checked(iri := get(datatype) or _node(datatype)) or Literal(value, iri)[1]
                if text and ("\\" not in line or lexical is not None and line.count("\\") == lexical.count("\\")):
                    # Escape-free node tokens are canonical; the literal is escaped as the writer does.
                    if lexical is not None:
                        if "\\" in lexical or "\t" in lexical:
                            lexical = value.translate(_LITERAL_ESC)
                        o = f'"{lexical}"'
                        if language is not None:
                            o += "@" + language
                        elif dt != XSD_STRING:
                            o += "^^" + datatype
                    statement = f"{s} {p} {o} .\n" if g is None else f"{s} {p} {o} {g} .\n"
                    label = g
                else:
                    if lexical is not None:
                        obj = new(Literal, (value, dt, language))
                    # The pattern admits only the roles Triple and Quad check.
                    statement = (new(Quad, (subject, predicate, obj, label)) if flat_quads or text
                                 else new(Triple, (subject, predicate, obj)))
                    if text:
                        from .writer import serialize_statement, serialize_term

                        statement = serialize_statement(statement) + "\n"
                        if label is not None:
                            label = serialize_term(label)
            except (MalformedIri, ValueError):
                statement = None  # the locator raises the located error
        if statement is None:
            line = line.removesuffix("\n").removesuffix("\r")
            # The modes differ only in a fourth term: a valid quad in a graph framing holds a label.
            if _parse_line(line, quads or layout != "flat", no).__class__ is not LineKind:
                raise MixedPayload(f"line {no}: named graph label inside a graph framing")
            continue
        if flat:
            yield statement
            continue
        index = graphs.get(label)
        if index is None:
            index = graphs[label] = {}
        index[statement] = None
        if left:
            left -= 1
            if not left:
                yield _element(graphs, quads, text)
                graphs, left = {}, size
    if layout == "dir" or framed and no or graphs:
        yield _element(graphs, quads, text)


def _element(graphs: dict, quads: bool, text: bool | str) -> Graph | Dataset | str | dict:
    """The element of _read's indexes, label (None for the default graph) ->
    statements: a Dataset, a Graph, with text the str of its lines, the
    default graph's first, or with text 'index' the indexes themselves."""
    if text:
        return graphs if text == "index" else "".join(chain(graphs.pop(None, {}), *graphs.values()))
    return Dataset._of(graphs) if quads else Graph._of(graphs.get(None, {}))


def read_grouped_stream(source: Source, framing: Framing) -> Iterator[Graph | Dataset]:
    """Yield the elements of a grouped stream.

    Framed sources split on '#---' delimiter lines: n delimiters make n+1
    elements (elements may be empty), except that zero-byte input is an
    empty stream.  Directory sources yield one element per member file.
    One loop reads a line at a time straight into the element being built,
    which is yielded as soon as the line that ends it is read.
    """
    if framing.is_flat:
        raise ValueError(f"read_grouped_stream needs a grouped framing, got {framing.value}")
    yield from _read_stream(source, framing)


def _read_dir_stream(source: Source, framing: Framing, text: bool | str) -> Iterator:
    if isinstance(source, bytes) or hasattr(source, "read"):
        raise ValueError("directory framing requires a directory path")
    ext = ".nq" if framing.quads_payload else ".nt"
    names = sorted((n for n in os.listdir(source) if n.endswith(ext)), key=lambda n: n.encode("utf-8"))
    for name in names:
        # A member is one element: the loop reads '#---' as a comment.
        yield from _read_file(os.path.join(os.fspath(source), name), framing.quads_payload, "dir", text, name)


def write_flat_stream(statements: Iterable[Statement], framing: Framing) -> bytes:
    """Serialize a flat stream canonically; statement kinds must match framing.
    It imports writer.write_stream when called."""
    from .writer import write_stream

    if not framing.is_flat:
        raise ValueError(f"write_flat_stream needs a flat framing, got {framing.value}")
    sink = BytesIO()
    write_stream(statements, framing, sink)
    return sink.getvalue()
