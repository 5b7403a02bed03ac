"""Canonical writers for flat and grouped RDF streams (see io for the formats).

Serialization is canonical: single spaces between terms, ' .' line endings,
minimal literal escapes (\\" \\\\ \\n \\r \\t), datatype suffix omitted for
xsd:string, UTF-8 throughout, '\\n' line endings.  read(write(s)) reproduces
s exactly; write(read(f)) is byte-identical for files already canonical.

Every output takes one path: item texts, one framing step, one target writer.
_texts turns each statement into its line and each graph or dataset into
one string, building no Quad: the shape of the reader's text mode, in
which the CLI's convert reads every plan's stream.  _reframed frames
either: it joins a flat stream's lines a few hundred at a time and puts
'#---' between framed elements.  write_stream frames through it from
_texts, and the CLI's convert from the reader's text.  _write_to writes
them, for convert and annotate --out too, to a sink, a file or a directory.

A call imports this module when it writes: convert, and annotate for
serialize_term and _write_to.  The reader's text mode spells every line
itself, so classify and validate --data never import it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
from itertools import chain, islice
from typing import IO, Iterable, Iterator

from .errors import MixedPayload, OutputExists
from .framing import _INTERN_LIMIT, FRAME_DELIMITER, Framing, Payload
from .model import _IRI_ESC, _IRI_EXCLUDED, _ITEM_CLASS, _LITERAL_ESC, XSD_STRING, BlankNode, Iri, Literal
from .model import Quad, Statement, Term

_LITERAL_SPECIAL = re.compile(r'[\\"\n\r\t]')
_IRI_SPECIAL = re.compile(f"[{_IRI_EXCLUDED}]")


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


def _reframed(texts: Iterable[str], payload: Payload, framing: Framing) -> Iterator[str]:
    """Item texts in the shape of io._read's text mode for payload, as
    framing writes them: a flat stream's lines joined _CHUNK_LINES at a
    time; one str per element, each after the first led by '#---' in a
    framed framing and by nothing in a flat or directory one."""
    texts = iter(texts)
    if payload.is_flat:
        # A line is never empty, so only the end of texts joins to "".
        return iter(lambda: "".join(islice(texts, _CHUNK_LINES)), "")
    if framing.is_flat or framing.is_dir:
        return texts
    return chain(islice(texts, 1), map(f"{FRAME_DELIMITER}\n".__add__, texts))


def _texts(items: Iterable, framing: Framing) -> Iterator[str]:
    """The canonical text of each item of framing's payload, in the shape of
    io._read's text mode: a statement's line with its LF, or an element's
    lines in Dataset.quads() order.  Each IRI and blank node is escaped
    once, its text kept in a table local to the stream that empties at
    _INTERN_LIMIT entries.  An item not of the payload's class raises
    MixedPayload."""
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

    payload = framing.payload
    kind = _ITEM_CLASS[payload]

    def refuse(item) -> None:
        raise MixedPayload(f"{framing.value} framing cannot serialize a {type(item).__name__}")

    # One loop per payload: a loop shared by triples and quads unpacks each
    # statement into a list and tests its length on every line.
    if payload is Payload.TRIPLES:
        for triple in items:
            if not isinstance(triple, kind):
                refuse(triple)
            s, p, o = triple
            yield f"{get(s) or new(s)} {get(p) or new(p)} {get(o) or new(o)} .\n"
    elif payload is Payload.QUADS:
        for quad in items:
            if not isinstance(quad, kind):
                refuse(quad)
            s, p, o, g = quad
            text = f"{get(s) or new(s)} {get(p) or new(p)} {get(o) or new(o)}"
            yield text + " .\n" if g is None else f"{text} {get(g) or new(g)} .\n"
    else:
        for element in items:
            if not isinstance(element, kind):
                refuse(element)
            if payload is Payload.GRAPHS:
                yield lines(element, " .\n")
                continue
            text = lines(element.default_graph, " .\n")
            for label, graph in element.named_items():
                text += lines(graph, f" {get(label) or new(label)} .\n")
            yield text


def write_stream(items: Iterable, framing: Framing, target: "IO[bytes] | os.PathLike[str] | str") -> int | list[str]:
    """Serialize a stream canonically to target as it is read from items: a
    binary sink, a file path or, for a dir framing, a directory path (see
    _write_to).  Returns the number of bytes written, or the member names.

    Each element is one write, made once it is read, and a flat stream is
    written a few hundred whole lines at a time, so memory holds one element
    or batch, not the stream.  Item classes must match the framing's
    payload.  A framed stream has '#---' between elements and none at its
    edges, so a stream of exactly one empty element writes zero bytes and
    reads back as an empty stream; every other boundary layout round-trips.
    """
    return _write_to(_reframed(_texts(items, framing), framing.payload, framing), framing, target)


def _write_to(texts: Iterable[str], framing: Framing | None, target) -> int | list[str]:
    """Write a stream's texts to target; the byte count, or the member names.

    A binary sink takes each text as it comes, so a failed item leaves what
    came before it written; a dir framing refuses a sink with ValueError.  A
    path is a directory of member files for a dir framing (_write_members),
    else one file written atomically (_write_file).  framing is None for
    annotate's Turtle, which is no RDF stream.
    """
    is_dir = framing is not None and framing.is_dir
    if not isinstance(target, (str, os.PathLike)):
        if is_dir:
            raise ValueError(f"{framing.value} framing writes member files to a directory path, not to a sink")
        return _write_texts(texts, target)
    return _write_members(texts, framing, os.fspath(target)) if is_dir else _write_file(texts, os.fspath(target))


def _write_texts(texts: Iterable[str], sink: IO[bytes]) -> int:
    """Encode each text to sink in one write, skipping empty ones; the byte count."""
    written = 0
    for text in texts:
        if text:
            data = text.encode("utf-8")
            sink.write(data)
            written += len(data)
    return written


def _write_file(texts: Iterable[str], path: str) -> int:
    """Write a stream's texts to path, which appears only once it is whole; the byte count.

    The stream goes to a temp file beside path.  On success os.replace moves
    it over path; any failure removes it, so path is left as it was.  The
    new file takes the mode of the file it replaces, or the mode open()
    gives a new file.  A symlink's target is replaced, not the link; a
    device or pipe, which cannot be replaced, is written in place.  A path
    ending in '/' names a directory, as for convert, and is refused at once,
    and so is the empty path, before any text is read.
    """
    import stat
    import tempfile

    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if path.endswith("/"):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.exists(path):
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    elif os.path.isfile(path):
        mode = stat.S_IMODE(os.stat(path).st_mode)
    else:
        with open(path, "wb") as f:
            return _write_texts(texts, f)
    target = os.path.realpath(path)
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target))
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as f:
            os.chmod(temp, mode)
            size = _write_texts(texts, f)
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
    return size


def _member_stem(index: int) -> str:
    """Index padded to five digits; each further digit adds a leading 'z',
    which sorts after every digit, so names sort bytewise in element order."""
    digits = f"{index:05d}"
    return "z" * (len(digits) - 5) + digits


def _write_members(texts: Iterable[str], framing: Framing, directory: str) -> list[str]:
    """Write one member file per element text; returns the filenames created.

    A missing directory is made, but not its parents: a missing parent
    fails with FileNotFoundError before any element is read.  A path
    ending in '/' that holds a file fails with IsADirectoryError, as a
    file target ending in '/' does.  A directory that already holds
    members with the framing's extension is refused with OutputExists
    before anything is written.  When any element fails, the members
    written so far are removed, and so is the directory if this call
    created it, before the error propagates.
    """
    ext = ".nq" if framing.quads_payload else ".nt"
    created = not os.path.isdir(directory)
    if created:
        try:
            os.mkdir(directory)
        except FileExistsError:
            if not directory.endswith("/"):
                raise
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), directory) from None
    else:
        held = min((n for n in os.listdir(directory) if n.endswith(ext)), default=None)
        if held is not None:
            raise OutputExists(f"output directory {directory} already holds member {held}")
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
