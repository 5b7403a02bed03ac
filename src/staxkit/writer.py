"""Canonical writers for flat and grouped RDF streams (see io for the formats).

Serialization is canonical: single spaces between terms, ' .' line endings,
minimal literal escapes (\\" \\\\ \\n \\r \\t), datatype suffix omitted for
xsd:string, UTF-8 throughout, '\\n' line endings.  read(write(s)) reproduces
s exactly; write(read(f)) is byte-identical for files already canonical.

The unit of work is the element: one loop (_texts) turns each graph or
dataset into one string and builds no Quad, and turns a flat stream into
batches of whole lines.  write_stream, write_dir_stream and the CLI's
convert of a plan with a group step write through it.  A stream re-framed
by the extend and flatten relations, which change no statement, never
becomes terms: the CLI reads it in the reader's text mode, as canonical
lines or element texts, and _reframed only batches or delimits them.  One
helper (_framed) puts the '#---' lines between elements for both.

Only a call that writes imports this module: convert, and annotate's
Turtle output for serialize_term.
"""

from __future__ import annotations

import contextlib
import os
import re
from itertools import islice
from typing import IO, Iterable, Iterator

from .errors import MixedPayload, OutputExists
from .framing import _INTERN_LIMIT, FRAME_DELIMITER, Framing, Payload
from .model import _IRI_EXCLUDED, _ITEM_CLASS, XSD_STRING, BlankNode, Element, Iri, Literal, Quad, Statement, Term

_LITERAL_SPECIAL = re.compile(r'[\\"\n\r\t]')
_LITERAL_ESC = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_IRI_SPECIAL = re.compile(f"[{_IRI_EXCLUDED}]")
_IRI_ESC = {c: f"\\u{c:04X}" for c in range(0x80) if _IRI_SPECIAL.match(chr(c))}


def _escape_iri(value: str) -> str:
    return value.translate(_IRI_ESC) if _IRI_SPECIAL.search(value) else value


def serialize_term(term: Term) -> str:
    # Terms are str and tuple values: concatenation and unpacking read them
    # directly, where field properties would copy or call.  Literals come
    # first: a stream writer's text table holds every other term.
    if isinstance(term, Literal):
        lexical, datatype, language = term
        if _LITERAL_SPECIAL.search(lexical):
            lexical = lexical.translate(_LITERAL_ESC)
        if language is not None:
            return '"' + lexical + '"@' + language
        if datatype != XSD_STRING:
            return '"' + lexical + '"^^<' + _escape_iri(datatype) + ">"
        return '"' + lexical + '"'
    if isinstance(term, Iri):
        return "<" + _escape_iri(term) + ">"
    if isinstance(term, BlankNode):
        return "_:" + term
    raise TypeError(f"not an RDF term: {term!r}")


def serialize_statement(statement: Statement) -> str:
    """One canonical N-Triples/N-Quads line, without the trailing newline."""
    s = serialize_term(statement[0])
    p = serialize_term(statement[1])
    o = serialize_term(statement[2])
    if isinstance(statement, Quad) and statement[3] is not None:
        return f"{s} {p} {o} {serialize_term(statement[3])} ."
    return f"{s} {p} {o} ."


# Statements per sink write of a flat stream: a few hundred lines put the
# first bytes out early and keep one small chunk in memory.
_CHUNK_LINES = 256


def _batches(items: Iterable) -> Iterator[list]:
    """items in lists of _CHUNK_LINES, the last one shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, _CHUNK_LINES)), [])


def _framed(texts: Iterable[str], framing: Framing) -> Iterator[str]:
    """Element texts under framing: in a framed framing each after the first
    is led by '#---'; a flat or directory framing has no delimiter."""
    delimiter = "" if framing.is_flat or framing.is_dir else FRAME_DELIMITER + "\n"
    for i, text in enumerate(texts):
        yield delimiter + text if i else text


def _reframed(texts: Iterable[str], payload: Payload, framing: Framing) -> Iterator[str]:
    """The output of the reader's text mode under framing: a flat stream's
    lines joined _CHUNK_LINES at a time, or each element's text as
    _framed gives it.  payload is the input's."""
    return map("".join, _batches(texts)) if payload.is_flat else _framed(texts, framing)


def _texts(items: Iterable, payload: Payload, framing: Framing) -> Iterator[str]:
    """The text of payload items under framing: one str per element, in
    Dataset.quads() order and delimited by _framed; one per _CHUNK_LINES
    statements of a flat stream.
    payload is framing's, or one that extend and flatten take to it.  Each
    IRI and blank node is escaped once, its text kept in a table local to
    the stream that empties at _INTERN_LIMIT entries.  An item not of
    payload's class raises MixedPayload."""
    texts: dict[Iri | BlankNode, str] = {}
    get = texts.get

    def new(term: Term) -> str:
        out = serialize_term(term)
        if term.__class__ is Iri or term.__class__ is BlankNode:
            if len(texts) >= _INTERN_LIMIT:
                texts.clear()
            texts[term] = out
        return out

    def lines(triples: Iterable, tail: str) -> str:
        body = tail.join([f"{get(s) or new(s)} {get(p) or new(p)} {get(o) or new(o)}" for s, p, o in triples])
        return body + tail if body else ""

    kind = _ITEM_CLASS[payload]

    def refuse(item) -> None:
        raise MixedPayload(f"{framing.value} framing cannot serialize a {type(item).__name__}")

    if payload.is_flat:
        for batch in _batches(items):
            for statement in batch:
                if not isinstance(statement, kind):
                    refuse(statement)
            if payload is Payload.TRIPLES:
                yield lines(batch, " .\n")
            else:
                yield "".join([lines((q[:3],), " .\n" if q[3] is None else f" {get(q[3]) or new(q[3])} .\n")
                               for q in batch])
        return

    def element_text(element) -> str:
        if not isinstance(element, kind):
            refuse(element)
        if payload is Payload.GRAPHS:
            return lines(element, " .\n")
        text = lines(element.default_graph, " .\n")
        for label, graph in element.named_items():
            text += lines(graph, f" {get(label) or new(label)} .\n")
        return text

    yield from _framed(map(element_text, items), framing)


def _write_texts(texts: Iterable[str], sink: IO[bytes]) -> int:
    """Encode each text to sink in one write, skipping empty ones; the byte count."""
    written = 0
    for text in texts:
        if text:
            data = text.encode("utf-8")
            sink.write(data)
            written += len(data)
    return written


def write_stream(items: Iterable, framing: Framing, sink: IO[bytes]) -> int:
    """Serialize a flat or framed stream canonically to a binary sink as it
    is read from items; returns the number of bytes written.

    Each element is one sink write, made once it is read, and a flat stream
    is written a few hundred whole lines at a time, so memory holds one
    element or batch, not the stream.  When an item fails, what came before
    it has been written already.  Item classes must match the framing's
    payload.  A framed stream has '#---' between elements and
    none at its edges, so a stream of exactly one empty element writes zero
    bytes and reads back as an empty stream; every other boundary layout
    round-trips.
    """
    if framing.is_dir:
        raise ValueError(f"write_stream needs a flat or framed framing, got {framing.value}")
    return _write_texts(_texts(items, framing.payload, framing), sink)


def _member_stem(index: int) -> str:
    """Index padded to five digits; each further digit adds a leading 'z',
    which sorts after every digit, so names sort bytewise in element order."""
    digits = f"{index:05d}"
    return "z" * (len(digits) - 5) + digits


def write_dir_stream(
    elements: Iterable[Element],
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
    return _write_members(_texts(elements, framing.payload, framing), framing, directory)


def _write_members(texts: Iterable[str], framing: Framing, directory: "os.PathLike[str] | str") -> list[str]:
    """write_dir_stream's work: one member file per element text."""
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
        for i, text in enumerate(texts):
            name = _member_stem(i) + ext
            with open(os.path.join(directory, name), "wb") as f:
                # Recorded only once open() succeeds, so cleanup never removes
                # a file this call could not open.
                names.append(name)
                f.write(text.encode("utf-8"))
    except BaseException:
        for name in names:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(directory, name))
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return names
