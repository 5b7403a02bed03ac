"""The error locator: reads a statement line that the reader's pattern
declined term by term and raises its first error, with its column.

The reader (io) imports this module only for a statement line that its
pattern or term checks decline, so a valid stream never loads it; a
statement it returns serves only parse_statement_line and the reader's
MixedPayload test of a labelled line in a graph framing.  Each read uses
the same regex fragments as the pattern.
"""

from __future__ import annotations

import re

from .errors import MalformedIri, ParseError
from .io import (
    _CR_REASON,
    _ECHAR,
    _ESCAPE,
    _IRI_CHAR,
    _IRIREF,
    _LABEL,
    _SKIP_WS,
    _UCHAR,
    _check_comment,
    _unescape,
    _unescape_match,
)
from .model import _LANGTAG_RE, BlankNode, Iri, Literal, Quad, Statement, Term, Triple

# Each read takes the prefix of a term up to where it must stop, the
# closing '>' or '"', or the first character that breaks the term.  They are
# compiled on first use through re's cache.
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

_LF_REASON = "line feed (U+000A) inside a literal; write it as \\n"


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
        _check_comment(line, pos, line_no)
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
