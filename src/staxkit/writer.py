"""Canonical writers for flat and grouped RDF streams (see io for the formats).

Serialization is canonical: single spaces between terms, ' .' line endings,
minimal literal escapes (\\" \\\\ \\n \\r \\t), datatype suffix omitted for
xsd:string, UTF-8 throughout, '\\n' line endings.  read(write(s)) reproduces
s exactly; write(read(f)) is byte-identical for files already canonical.

Only a call that writes imports this module: convert, and annotate's
Turtle output for serialize_term.
"""

from __future__ import annotations

import contextlib
import os
import re
from itertools import islice
from typing import IO, Callable, Iterable, Iterator

from .errors import MixedPayload, OutputExists
from .framing import Framing
from .io import _INTERN_LIMIT, _IRI_EXCLUDED, _ITEM_CLASS, FRAME_DELIMITER
from .model import XSD_STRING, BlankNode, Dataset, Graph, Iri, Literal, Quad, Statement, Term

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


# Items of _lines joined into one sink write: 256 lines.  A few hundred
# lines per write put the first bytes out early and keep one small chunk in
# memory; larger chunks delay the first output.
_CHUNK_ITEMS = 512


def _statement_serializer() -> Callable[[Statement], str]:
    """serialize_statement for one stream, keeping the text of each IRI and
    blank node in a table that empties at _INTERN_LIMIT entries: io's
    value, copied into this module's own name on import."""
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
