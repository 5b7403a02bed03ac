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

Serialization is canonical: single spaces between terms, ' .' line endings,
minimal literal escapes (\\" \\\\ \\n \\r \\t), datatype suffix omitted for
xsd:string, UTF-8 throughout, '\\n' line endings.  read(write(s)) reproduces
s exactly; write(read(f)) is byte-identical for files already canonical.
"""

from __future__ import annotations

import contextlib
import enum
import os
import re
from io import BytesIO
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Union

from .errors import MalformedIri, MixedPayload, OutputExists, ParseError
from .framing import Framing, Payload
from .model import (
    _LANGTAG_RE,
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
    Term,
    Triple,
)

FRAME_DELIMITER = "#---"

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
# in model for LANGTAG, which Literal checks as well.  One precompiled
# statement pattern built from them parses every valid line, but scans an
# IRI token only to its first '>' (IRIREF holds no raw '>'): _node checks
# each new token against IRIREF once.  A line the pattern declines, or whose
# terms fail a check, is read again token by token with the same fragments
# (_locate) to raise the first error.

_WS = r"[ \t]*"
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_ECHAR_VALUE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ECHAR = rf"\\[{re.escape(''.join(_ECHAR_VALUE))}]"
_LABEL = r"[A-Za-z0-9_.-]"

# IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\] | UCHAR)* '>'; the writer escapes
# the same characters.
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
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

# The locator's reads: each takes the prefix of a term up to where it must
# stop, the closing '>' or '"', or the first character that breaks the term.
# Only the lines the statement pattern declines need them, so all but
# _SKIP_WS are compiled on first use through re's cache.
_SKIP_WS = re.compile(_WS)
_IRI_READ = rf"<(?:[^>\\]|{_UCHAR})*"
_IRIREF_READ = rf"<(?:{_IRI_CHAR}|{_UCHAR})*"  # for a token IRIREF fails
_LITERAL_READ = rf'"(?:[^"\\\r\n]|{_ECHAR}|{_UCHAR})*'
_BLANK_READ = rf"_:{_LABEL}*"
_TAG_READ = r"@(?:[^\W_]|-)*"  # alphanumerics and '-'

# The terms a statement holds, in order: the types each may be, and the
# error for any other.  The fourth, the graph label, is optional.
_ROLES = (
    ((Iri, BlankNode), "subject must be an IRI or blank node"),
    (Iri, "predicate must be an IRI"),
    ((Iri, BlankNode, Literal), ""),
    ((Iri, BlankNode), "graph label must be an IRI or blank node"),
)

_CR_REASON = "carriage return (U+000D) line end; lines must end in LF or CRLF"
_LF_REASON = "line feed (U+000A) inside a literal; write it as \\n"

# IRIs and blank nodes interned by token: a repeated one is built and checked
# once.  Terms are immutable, so sharing is safe; at the cap the table empties.
_INTERN_LIMIT = 4096
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


def _parse_line(line: str, quads: bool, line_no: int) -> Statement | LineKind:
    """The kind of a line that holds no statement, or the statement the
    locator reads from any other line: it raises the line's first error."""
    if line == FRAME_DELIMITER:
        return LineKind.FRAME_DELIMITER
    start = _SKIP_WS.match(line).end()
    if start == len(line):
        return LineKind.BLANK
    if line[start] == "#":
        # comment ::= '#' [^#xD#xA]*
        cr = line.find("\r", start)
        if cr < 0:
            return LineKind.COMMENT
        raise ParseError(line_no, cr + 1, _CR_REASON)
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


def _locate(line: str, quads: bool, line_no: int) -> Statement:
    """Read a statement line term by term; raise its first error, in reading order.

    A line without an error gives its statement, the one the pattern gives.
    An error at or after a bare CR is reported at the CR: the lines of a
    file with CR-only line ends arrive joined as one.
    """
    terms: list[Term] = []
    try:
        pos = _SKIP_WS.match(line).end()
        for kinds, reason in _ROLES:
            if len(terms) == 3:
                if line[pos : pos + 1] in ("", "."):
                    break
                if not quads:
                    raise ParseError(line_no, pos + 1, "statement has a fourth term but framing expects triples")
            term, end = _read_term(line, pos, line_no)
            if not isinstance(term, kinds):
                raise ParseError(line_no, pos + 1, reason)
            terms.append(term)
            pos = _SKIP_WS.match(line, end).end()
        if line[pos : pos + 1] != ".":
            raise ParseError(line_no, pos + 1, "expected '.' at end of statement")
        pos = _SKIP_WS.match(line, pos + 1).end()
        if line[pos : pos + 1] not in ("", "#"):
            raise ParseError(line_no, pos + 1, "unexpected content after '.'")
        cr = line.find("\r", pos)  # in the comment: comment ::= '#' [^#xD#xA]*
        if cr >= 0:
            raise ParseError(line_no, cr + 1, _CR_REASON)
    except ParseError as exc:
        cr = line.find("\r")
        if not 0 <= cr < exc.column:
            raise
        raise ParseError(line_no, cr + 1, _CR_REASON) from None
    return Quad(*terms) if quads else Triple(*terms)


def _read_term(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    """The term that starts at pos, and the position after it."""
    first = line[pos : pos + 1]
    try:
        if first == "_":
            m = re.compile(_BLANK_READ).match(line, pos)
            if m is None:
                raise ParseError(line_no, pos + 1, "expected '_:'")
            label = m[0][2:].rstrip(".")
            return BlankNode(label), pos + 2 + len(label)
        if first not in ("<", '"'):
            if first == "\ufeff":
                # A UTF-8 byte order mark decodes to U+FEFF, which starts no term.
                raise ParseError(line_no, pos + 1, "unexpected byte order mark (U+FEFF)")
            raise ParseError(line_no, pos + 1, "expected IRI, blank node, or literal")
        text, end = _read_quoted(line, pos, line_no)
        if first == "<":
            iri = Iri(text)
            if not _IRIREF.fullmatch(line, pos, end):
                # A character IRIREF excludes that Iri allows is valid only escaped.
                bad = line[re.compile(_IRIREF_READ).match(line, pos).end()]
                code = f"{ord(bad):04X}"
                raise ParseError(line_no, pos + 1, f"{bad!r} (U+{code}) inside an IRI; write it as \\u{code}")
            return iri, end
        if line.startswith("@", end):
            tag = re.compile(_TAG_READ).match(line, end)[0][1:]
            if not _LANGTAG_RE.fullmatch(tag):
                raise ParseError(line_no, end + 1, "bad language tag")
            return Literal(text, language=tag), end + 1 + len(tag)
        if not line.startswith("^^", end):
            return Literal(text), end
        if not line.startswith("<", end + 2):
            raise ParseError(line_no, end + 3, "expected '<' after '^^'")
        datatype, end = _read_term(line, end + 2, line_no)
        return Literal(text, datatype.value), end
    except (MalformedIri, ValueError) as exc:
        raise ParseError(line_no, pos + 1, str(exc)) from None


def _read_quoted(line: str, pos: int, line_no: int) -> tuple[str, int]:
    """The decoded text of the IRI or literal body at pos, and the position
    past its closing '>' or '"'."""
    iri = line[pos] == "<"
    end = re.compile(_IRI_READ if iri else _LITERAL_READ).match(line, pos).end()
    for escape in _ESCAPE.finditer(line, pos, end):
        try:
            _unescape_match(escape)
        except ValueError as exc:
            raise ParseError(line_no, escape.start() + 1, str(exc)) from None
    stop = line[end : end + 1]
    if not stop:
        raise ParseError(line_no, pos + 1, "unterminated IRI" if iri else "unterminated literal")
    if stop in ("\r", "\n"):
        # Only a literal stops here: STRING_LITERAL_QUOTE excludes a raw CR and LF.
        raise ParseError(line_no, end + 1, _CR_REASON if stop == "\r" else _LF_REASON)
    if stop == "\\":
        after = line[end + 1 : end + 2]
        if after in ("u", "U"):
            reason = f"bad \\{after} escape"
        else:
            reason = "only \\u/\\U escapes are allowed in IRIs" if iri else f"bad escape '\\{after}'"
        raise ParseError(line_no, end + 1, reason)
    return _unescape(line[pos + 1 : end]), end + 1


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _read_file(source: Source, quads: bool, layout: str, name: str | None = None) -> Iterator:
    """_read over source's lines.  A ParseError names a path source, or name
    if given; bytes and binary streams have no name to give."""
    if not isinstance(source, (str, os.PathLike)):
        yield from _read(BytesIO(source) if isinstance(source, bytes) else source, quads, layout)
        return
    try:
        with open(source, "rb") as handle:
            yield from _read(handle, quads, layout)
    except ParseError as exc:
        raise ParseError(exc.line, exc.column, exc.reason, member=name or os.fspath(source)) from None


def read_flat_stream(source: Source, framing: Framing) -> Iterator[Statement]:
    """Yield statements of an N-Triples/N-Quads stream in file order.

    Comments and blank lines are skipped; a '#---' line inside a flat stream
    is an ordinary comment.
    """
    if not framing.is_flat:
        raise ValueError(f"read_flat_stream needs a flat framing, got {framing.value}")
    yield from _read_file(source, framing.quads_payload, "flat")


def _read(lines: Iterable[bytes], quads: bool, layout: str, first: int = 1) -> Iterator[Statement | Graph | Dataset]:
    """The one loop from encoded line to statement.  layout is the first
    part of a framing's value: 'flat', 'framed' or 'dir'; first is the
    first line's number.  Each line is decoded as strict UTF-8 and fails
    at its first bad byte.  The pattern takes a line with its LF or CRLF;
    a line it declines loses one trailing LF, then one CR.

    A flat layout yields each statement as soon as it is built.  A framed
    file yields its elements, split at '#---'; a directory member, where
    '#---' is a comment, yields its one element.  A line the pattern
    matches has its terms built inline, and in a grouped layout its triple
    goes straight into its graph's index; any other line takes _parse_line,
    which gives its kind or raises the located error.  At '#---' and at the
    end the indexes become the element, unchecked.
    """
    flat = layout == "flat"
    framed = layout == "framed"
    flat_quads = flat and quads
    match = _STATEMENT.match
    get = _interned.get
    checked = _checked_datatypes.get
    new = tuple.__new__
    graphs: dict[Iri | BlankNode | None, dict[Triple, None]] = {}
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
        m = match(line)
        statement = None
        # A matched line starts with a term: never a delimiter, blank or comment.
        if m is not None and (quads or m[7] is None):
            s, p, o, lexical, language, datatype, g = m.groups()
            try:
                if o is not None:
                    o = get(o) or _node(o)
                else:
                    if "\\" in lexical:
                        lexical = _ESCAPE.sub(_unescape_match, lexical)
                    # Strict UTF-8 decoding and _unescape_match let no surrogate through and
                    # the pattern checked LANGTAG: only a new datatype needs Literal's checks.
                    if language is not None:
                        o = new(Literal, (lexical, RDF_LANGSTRING, language))
                    elif datatype is None:
                        o = new(Literal, (lexical, XSD_STRING, None))
                    else:
                        dt = get(datatype) or _node(datatype)
                        plain = checked(dt)
                        o = Literal(lexical, dt) if plain is None else new(Literal, (lexical, plain, None))
                s = get(s) or _node(s)
                p = get(p) or _node(p)
                label = None if g is None else get(g) or _node(g)
                # The pattern admits only the roles Triple and Quad check.
                statement = new(Quad, (s, p, o, label)) if flat_quads else new(Triple, (s, p, o))
            except (MalformedIri, ValueError):
                statement = None  # the locator raises the located error
        if statement is None:
            if line.endswith("\n"):
                line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
            try:
                statement = _parse_line(line, quads, no)
            except ParseError:
                if quads or flat:
                    raise
                # The modes differ only in the fourth term, so a line that fails as a
                # triple but parses as a quad carries a graph label: a payload
                # mismatch.  Any other error is reported as in quads mode.
                _parse_line(line, True, no)
                raise MixedPayload(f"line {no}: named graph label inside a graph framing") from None
            if statement.__class__ is LineKind:
                if framed and statement is LineKind.FRAME_DELIMITER:
                    yield Dataset._of(graphs) if quads else Graph._of(graphs.get(None, {}))
                    graphs = {}
                continue
            # A line the locator accepts where the pattern did not.
            label = None
            if quads and not flat:
                statement, label = new(Triple, statement[:3]), statement[3]
        if flat:
            yield statement
            continue
        index = graphs.get(label)
        if index is None:
            index = graphs[label] = {}
        index[statement] = None
    if layout == "dir" or framed and no:
        yield Dataset._of(graphs) if quads else Graph._of(graphs.get(None, {}))


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
    if framing.is_dir:
        yield from _read_dir_stream(source, framing)
        return
    yield from _read_file(source, framing.quads_payload, "framed")


def _read_dir_stream(source: Source, framing: Framing) -> Iterator[Graph | Dataset]:
    if isinstance(source, bytes) or hasattr(source, "read"):
        raise ValueError("directory framing requires a directory path")
    ext = ".nq" if framing.quads_payload else ".nt"
    names = sorted(
        (n for n in os.listdir(source) if n.endswith(ext)),
        key=lambda n: n.encode("utf-8"),
    )
    for name in names:
        # A member is one element: the loop reads '#---' as a comment.
        yield from _read_file(os.path.join(os.fspath(source), name), framing.quads_payload, "dir", name)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_LITERAL_SPECIAL = re.compile(r'[\\"\n\r\t]')
_LITERAL_ESC = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_IRI_SPECIAL = re.compile(f"[{_IRI_EXCLUDED}]")
_IRI_ESC = {c: f"\\u{c:04X}" for c in range(0x80) if _IRI_SPECIAL.match(chr(c))}


def _escape_iri(value: str) -> str:
    return value.translate(_IRI_ESC) if _IRI_SPECIAL.search(value) else value


def escape_literal(value: str) -> str:
    return value.translate(_LITERAL_ESC) if _LITERAL_SPECIAL.search(value) else value


def serialize_term(term: Term) -> str:
    # Terms are str and tuple values: concatenation and unpacking read them
    # directly, where field properties would copy or call.
    if isinstance(term, Iri):
        return "<" + _escape_iri(term) + ">"
    if isinstance(term, BlankNode):
        return "_:" + term
    if isinstance(term, Literal):
        lexical, datatype, language = term
        body = '"' + escape_literal(lexical) + '"'
        if language is not None:
            return body + "@" + language
        if datatype != XSD_STRING:
            return body + "^^<" + _escape_iri(datatype) + ">"
        return body
    raise TypeError(f"not an RDF term: {term!r}")


def serialize_statement(statement: Statement) -> str:
    """One canonical N-Triples/N-Quads line, without the trailing newline."""
    s = serialize_term(statement[0])
    p = serialize_term(statement[1])
    o = serialize_term(statement[2])
    if isinstance(statement, Quad) and statement[3] is not None:
        return f"{s} {p} {o} {serialize_term(statement[3])} ."
    return f"{s} {p} {o} ."


_ITEM_CLASS = {Payload.TRIPLES: Triple, Payload.QUADS: Quad, Payload.GRAPHS: Graph, Payload.DATASETS: Dataset}

# Items of _lines joined into one sink write: 256 lines.  A few hundred
# lines per write put the first bytes out early and keep one small chunk in
# memory; larger chunks delay the first output.
_CHUNK_ITEMS = 512


def _statement_serializer() -> Callable[[Statement], str]:
    """serialize_statement for one stream, keeping the text of each IRI and
    blank node in a table that empties at _INTERN_LIMIT entries."""
    texts: dict[Iri | BlankNode, str] = {}
    get = texts.get

    def text(term: Term) -> str:
        out = serialize_term(term)
        if term.__class__ is Iri or term.__class__ is BlankNode:
            if len(texts) >= _INTERN_LIMIT:
                texts.clear()
            texts[term] = out
        return out

    def serialize(statement: Statement) -> str:
        s = get(statement[0]) or text(statement[0])
        p = get(statement[1]) or text(statement[1])
        o = get(statement[2]) or text(statement[2])
        if isinstance(statement, Quad) and (g := statement[3]) is not None:
            return f"{s} {p} {o} {get(g) or text(g)} ."
        return f"{s} {p} {o} ."

    return serialize


def _lines(items: Iterable, framing: Framing, serialize: Callable[[Statement], str]) -> Iterator[str]:
    """The canonical text of a stream's items, line by line, each line and its
    newline yielded apart, so every line is two items: one line per
    statement, and a grouped framing's '#---' between elements.  An item of
    the wrong class raises MixedPayload."""
    kind = _ITEM_CLASS[framing.payload]
    flat = framing.is_flat
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            where = f"{framing.value} framing" if flat else f"{kind.__name__.lower()} framing {framing.value}"
            raise MixedPayload(f"{where} cannot serialize {'a ' if flat else ''}{type(item).__name__}")
        if flat:
            yield serialize(item)
            yield "\n"
            continue
        if i:
            yield FRAME_DELIMITER
            yield "\n"
        for statement in item.quads() if framing.quads_payload else item:
            yield serialize(statement)
            yield "\n"


def _write_lines(lines: Iterator[str], sink: IO[bytes]) -> int:
    """Encode lines to sink, one write per chunk of whole lines; the byte count."""
    written = 0
    while True:
        chunk = "".join(islice(lines, _CHUNK_ITEMS)).encode("utf-8")
        if not chunk:
            return written
        sink.write(chunk)
        written += len(chunk)


def write_stream(items: Iterable, framing: Framing, sink: IO[bytes]) -> int:
    """Serialize a flat or framed stream canonically to a binary sink as it
    is read from items; returns the number of bytes written.

    Each sink.write call carries a chunk of whole lines, so memory holds one
    chunk, not the stream.  Each IRI and blank node is escaped once, its text
    kept in a table local to the call that empties at _INTERN_LIMIT entries.
    When an item fails, the chunks before it have been written already.
    Item classes must match the framing's payload.  A framed stream has
    '#---' between elements and none at its edges, so a stream of exactly
    one empty element writes zero bytes and reads back as an empty stream;
    every other boundary layout round-trips.
    """
    if framing.is_dir:
        raise ValueError(f"write_stream needs a flat or framed framing, got {framing.value}")
    return _write_lines(_lines(items, framing, _statement_serializer()), sink)


def write_flat_stream(statements: Iterable[Statement], framing: Framing) -> bytes:
    """Serialize a flat stream canonically; statement kinds must match framing."""
    if not framing.is_flat:
        raise ValueError(f"write_flat_stream needs a flat framing, got {framing.value}")
    sink = BytesIO()
    write_stream(statements, framing, sink)
    return sink.getvalue()


def _member_stem(index: int) -> str:
    """Index padded to five digits; each further digit adds a leading 'z',
    which sorts after every digit, so names sort bytewise in element order."""
    digits = f"{index:05d}"
    return "z" * (len(digits) - 5) + digits


def write_dir_stream(
    elements: Iterable[Graph | Dataset],
    framing: Framing,
    directory: "os.PathLike[str] | str",
) -> list[str]:
    """Write one member file per element; returns the filenames created.

    A directory that already holds members with the framing's extension is
    refused with OutputExists before anything is written.  When any element
    fails, the members written so far are removed, and so is the directory
    if this call created it, before the error propagates.
    """
    if not framing.is_dir:
        raise ValueError(f"write_dir_stream needs a dir framing, got {framing.value}")
    directory = os.fspath(directory)
    ext = ".nq" if framing.quads_payload else ".nt"
    created = not os.path.isdir(directory)
    if not created:
        held = min((n for n in os.listdir(directory) if n.endswith(ext)), default=None)
        if held is not None:
            raise OutputExists(f"output directory {directory} already holds member {held}")
    os.makedirs(directory, exist_ok=True)
    names: list[str] = []
    serialize = _statement_serializer()
    try:
        for i, element in enumerate(elements):
            name = _member_stem(i) + ext
            with open(os.path.join(directory, name), "wb") as f:
                # Recorded only once open() succeeds, so cleanup never removes
                # a file this call could not open.
                names.append(name)
                _write_lines(_lines((element,), framing, serialize), f)
    except BaseException:
        for name in names:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(directory, name))
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return names
