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
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .errors import MalformedIri, MixedPayload, OutputExists, ParseError
from .framing import Framing, Payload
from .model import (
    LANGTAG,
    XSD_STRING,
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
# in model for LANGTAG, which Literal checks as well.  One
# precompiled statement pattern built from them parses every valid line.  A
# line it declines, or whose terms fail validation, is read again token by
# token with the same fragments (_locate) to raise the first error.

_WS = r"[ \t]*"
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_ECHAR_VALUE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ECHAR = rf"\\[{re.escape(''.join(_ECHAR_VALUE))}]"
_LABEL = r"[A-Za-z0-9_.-]"

_IRI_TOKEN = rf'<[^\s<>"\\]*(?:{_UCHAR}[^\s<>"\\]*)*>'
# A blank label is the longest run of label characters less its trailing
# dots, which belong to the terminator: no label character may follow them.
_NODE_TOKEN = rf"({_IRI_TOKEN}|_:[A-Za-z0-9]{_LABEL}*(?<!\.)(?=\.*(?!{_LABEL})))"
_STATEMENT = re.compile(
    rf"{_WS}{_NODE_TOKEN}{_WS}({_IRI_TOKEN}){_WS}(?:{_NODE_TOKEN}"
    rf'|"([^"\\]*(?:(?:{_ECHAR}|{_UCHAR})[^"\\]*)*)"'
    rf"(?:@({LANGTAG})|\^\^({_IRI_TOKEN}))?)"
    rf"{_WS}(?:{_NODE_TOKEN}{_WS})?\.{_WS}(?:#|\Z)"
)
_ESCAPE = re.compile(rf"{_UCHAR}|{_ECHAR}")

# The locator's reads: each takes the prefix of a term up to where it must
# stop, the closing '>' or '"', or the first character that breaks the term.
_SKIP_WS = re.compile(_WS)
_IRI_READ = re.compile(rf"<(?:[^>\\]|{_UCHAR})*")
_LITERAL_READ = re.compile(rf'"(?:[^"\\]|{_ECHAR}|{_UCHAR})*')
_BLANK_READ = re.compile(rf"_:{_LABEL}*")
_TAG_READ = re.compile(r"@(?:[^\W_]|-)*")  # alphanumerics and '-'

# The terms a statement holds, in order: the types each may be, and the
# error for any other.  The fourth, the graph label, is optional.
_ROLES = (
    ((Iri, BlankNode), "subject must be an IRI or blank node"),
    (Iri, "predicate must be an IRI"),
    ((Iri, BlankNode, Literal), ""),
    ((Iri, BlankNode), "graph label must be an IRI or blank node"),
)

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
    """The IRI or blank node a pattern token denotes, taken from the intern table."""
    term = _interned.get(token)
    if term is None:
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
        term = Iri(_unescape(token[1:-1])) if token[0] == "<" else BlankNode(token[2:])
        _interned[token] = term
    return term


def _parse_line(line: str, quads: bool, line_no: int) -> Statement | LineKind:
    """The statement on one line, or the kind of a line that holds none."""
    m = _STATEMENT.match(line)
    # A matched line starts with a term: never a delimiter, blank or comment.
    if m is not None and (quads or m[7] is None):
        s, p, o, lexical, language, datatype, g = m.groups()
        try:
            if o is not None:
                obj: Term = _node(o)
            else:
                dt = _node(datatype).value if datatype else XSD_STRING
                obj = Literal(_unescape(lexical), dt, language)
            if quads:
                return Quad(_node(s), _node(p), obj, None if g is None else _node(g))
            return Triple(_node(s), _node(p), obj)
        except (MalformedIri, ValueError):
            pass  # the locator raises the located error
    if line == FRAME_DELIMITER:
        return LineKind.FRAME_DELIMITER
    start = _SKIP_WS.match(line).end()
    if start == len(line):
        return LineKind.BLANK
    if line[start] == "#":
        return LineKind.COMMENT
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
    parsed = _parse_line(line, mode == Payload.QUADS, line_no)
    if isinstance(parsed, LineKind):
        return ParsedLine(parsed, line_no)
    return ParsedLine(LineKind.STATEMENT, line_no, parsed)


def _locate(line: str, quads: bool, line_no: int) -> Statement:
    """Read a statement line term by term; raise its first error, in reading order.

    A line without an error gives its statement, the one the pattern gives.
    """
    terms: list[Term] = []
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
    return Quad(*terms) if quads else Triple(*terms)


def _read_term(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    """The term that starts at pos, and the position after it."""
    first = line[pos : pos + 1]
    try:
        if first == "_":
            m = _BLANK_READ.match(line, pos)
            if m is None:
                raise ParseError(line_no, pos + 1, "expected '_:'")
            label = m[0][2:].rstrip(".")
            return BlankNode(label), pos + 2 + len(label)
        if first not in ("<", '"'):
            raise ParseError(line_no, pos + 1, "expected IRI, blank node, or literal")
        text, end = _read_quoted(line, pos, line_no)
        if first == "<":
            return Iri(text), end
        if line.startswith("@", end):
            tag = _TAG_READ.match(line, end)[0][1:]
            try:
                return Literal(text, language=tag), end + 1 + len(tag)
            except ValueError:
                raise ParseError(line_no, end + 1, "bad language tag") from None
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
    end = (_IRI_READ if iri else _LITERAL_READ).match(line, pos).end()
    for escape in _ESCAPE.finditer(line, pos, end):
        try:
            _unescape_match(escape)
        except ValueError as exc:
            raise ParseError(line_no, escape.start() + 1, str(exc)) from None
    stop = line[end : end + 1]
    if not stop:
        raise ParseError(line_no, pos + 1, "unterminated IRI" if iri else "unterminated literal")
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


def _iter_lines(source: Source) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without trailing newline/CR)."""
    if isinstance(source, bytes):
        handle: IO[bytes] = BytesIO(source)
        close = False
    elif isinstance(source, (str, os.PathLike)):
        handle = open(source, "rb")
        close = True
    else:
        handle = source
        close = False
    try:
        offset = 0
        for no, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                column = len(raw[: exc.start].decode("utf-8")) + 1
                reason = f"invalid UTF-8 byte 0x{raw[exc.start]:02X} at byte offset {offset + exc.start}"
                raise ParseError(no, column, reason) from None
            offset += len(raw)
            if text.endswith("\n"):
                text = text[:-1]
            if text.endswith("\r"):
                text = text[:-1]
            yield no, text
    finally:
        if close:
            handle.close()


def read_flat_stream(source: Source, framing: Framing) -> Iterator[Statement]:
    """Yield statements of an N-Triples/N-Quads stream in file order.

    Comments and blank lines are skipped; a '#---' line inside a flat stream
    is an ordinary comment.
    """
    if not framing.is_flat:
        raise ValueError(f"read_flat_stream needs a flat framing, got {framing.value}")
    quads = framing.quads_payload
    for no, line in _iter_lines(source):
        parsed = _parse_line(line, quads, no)
        if not isinstance(parsed, LineKind):
            yield parsed


def _statements_to_element(statements: list[Statement], framing: Framing):
    if framing.quads_payload:
        return Dataset.from_quads(statements)  # type: ignore[arg-type]
    return Graph(statements)  # type: ignore[arg-type]


def _parse_grouped_line(line: str, no: int, quads_payload: bool) -> Statement | LineKind:
    if quads_payload:
        return _parse_line(line, True, no)
    try:
        return _parse_line(line, False, no)
    except ParseError:
        # The modes differ only in the fourth term, so a line that fails as a
        # triple but parses as a quad carries a graph label: a payload
        # mismatch.  Any other error is reported as in quads mode.
        _parse_line(line, True, no)
        raise MixedPayload(f"line {no}: named graph label inside a graph framing") from None


def read_grouped_stream(source: Source, framing: Framing) -> Iterator[Graph | Dataset]:
    """Yield the elements of a grouped stream.

    Framed sources split on '#---' delimiter lines: n delimiters make n+1
    elements (elements may be empty), except that zero-byte input is an
    empty stream.  Directory sources yield one element per member file.
    """
    if framing.is_flat:
        raise ValueError(f"read_grouped_stream needs a grouped framing, got {framing.value}")
    if framing.is_dir:
        yield from _read_dir_stream(source, framing)
        return

    quads_payload = framing.quads_payload
    current: list[Statement] = []
    saw_line = False
    for no, line in _iter_lines(source):
        saw_line = True
        parsed = _parse_grouped_line(line, no, quads_payload)
        if parsed is LineKind.FRAME_DELIMITER:
            yield _statements_to_element(current, framing)
            current = []
        elif not isinstance(parsed, LineKind):
            current.append(parsed)
    if saw_line:
        yield _statements_to_element(current, framing)


def _read_dir_stream(source: Source, framing: Framing) -> Iterator[Graph | Dataset]:
    if isinstance(source, bytes) or hasattr(source, "read"):
        raise ValueError("directory framing requires a directory path")
    ext = ".nq" if framing.quads_payload else ".nt"
    names = sorted(
        (n for n in os.listdir(source) if n.endswith(ext)),
        key=lambda n: n.encode("utf-8"),
    )
    for name in names:
        path = os.path.join(os.fspath(source), name)
        try:
            parsed = [_parse_grouped_line(line, no, framing.quads_payload) for no, line in _iter_lines(path)]
        except ParseError as exc:
            raise ParseError(exc.line, exc.column, exc.reason, member=name) from None
        # '#---' inside a member file is a delimiter line type, but a
        # directory element is the whole file; treat it as a comment.
        statements = [s for s in parsed if not isinstance(s, LineKind)]
        yield _statements_to_element(statements, framing)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_LITERAL_SPECIAL = re.compile(r'[\\"\n\r\t]')
_LITERAL_ESC = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_IRI_SPECIAL = re.compile(r"[\x00-\x20\\{}|^`]")
_IRI_ESC = {c: f"\\u{c:04X}" for c in (*range(0x21), *b"\\{}|^`")}


def _escape_iri(value: str) -> str:
    return value.translate(_IRI_ESC) if _IRI_SPECIAL.search(value) else value


def escape_literal(value: str) -> str:
    return value.translate(_LITERAL_ESC) if _LITERAL_SPECIAL.search(value) else value


def serialize_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{_escape_iri(term.value)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{escape_literal(term.lexical)}"'
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{_escape_iri(term.datatype)}>"
        return body
    raise TypeError(f"not an RDF term: {term!r}")


def serialize_statement(statement: Statement) -> str:
    """One canonical N-Triples/N-Quads line, without the trailing newline."""
    s = serialize_term(statement.subject)
    p = serialize_term(statement.predicate)
    o = serialize_term(statement.object)
    if isinstance(statement, Quad) and statement.graph_label is not None:
        return f"{s} {p} {o} {serialize_term(statement.graph_label)} ."
    return f"{s} {p} {o} ."


_ITEM_CLASS = {Payload.TRIPLES: Triple, Payload.QUADS: Quad, Payload.GRAPHS: Graph, Payload.DATASETS: Dataset}

# Items of _lines joined into one sink write: 256 lines.  A few hundred
# lines per write put the first bytes out early and keep one small chunk in
# memory; larger chunks delay the first output.
_CHUNK_ITEMS = 512


def _lines(items: Iterable, framing: Framing) -> Iterator[str]:
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
            yield serialize_statement(item)
            yield "\n"
            continue
        if i:
            yield FRAME_DELIMITER
            yield "\n"
        for statement in item.quads() if framing.quads_payload else item:
            yield serialize_statement(statement)
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
    chunk, not the stream.  When an item fails, the chunks before it have
    been written already.  Item classes must match the framing's payload.
    """
    if framing.is_dir:
        raise ValueError(f"write_stream needs a flat or framed framing, got {framing.value}")
    return _write_lines(_lines(items, framing), sink)


def write_flat_stream(statements: Iterable[Statement], framing: Framing) -> bytes:
    """Serialize a flat stream canonically; statement kinds must match framing."""
    if not framing.is_flat:
        raise ValueError(f"write_flat_stream needs a flat framing, got {framing.value}")
    sink = BytesIO()
    write_stream(statements, framing, sink)
    return sink.getvalue()


def write_grouped_stream(elements: Iterable[Graph | Dataset], framing: Framing) -> bytes:
    """Serialize a framed grouped stream: '#---' between elements, none at edges.

    A stream of exactly one empty element serializes to zero bytes and will
    read back as an empty stream; every other boundary layout round-trips.
    """
    if framing.is_dir or framing.is_flat:
        raise ValueError(f"write_grouped_stream needs a framed framing, got {framing.value}")
    sink = BytesIO()
    write_stream(elements, framing, sink)
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
    try:
        for i, element in enumerate(elements):
            name = _member_stem(i) + ext
            with open(os.path.join(directory, name), "wb") as f:
                # Recorded only once open() succeeds, so cleanup never removes
                # a file this call could not open.
                names.append(name)
                _write_lines(_lines((element,), framing), f)
    except BaseException:
        for name in names:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(directory, name))
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return names
