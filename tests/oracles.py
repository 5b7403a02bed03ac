"""Independent oracles used to cross-check the production code.

Everything here is implemented on purpose with different machinery than
the package: all-pairs matrix reachability instead of per-node BFS,
exhaustive backtracking instead of greedy subject choice, literal path
enumeration instead of an ancestor map and layered search, a character
scanner instead of the statement pattern and its token locator, field
slicing and digit counts instead of the XSD timestamp patterns, and
regex/recursive-descent reference parsers for the serialized formats.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal

from staxkit.errors import ParseError
from staxkit.model import BlankNode, Dataset, Graph, Iri, Literal, Quad, Statement, Term, Triple

PROV_AT = "http://www.w3.org/ns/prov#generatedAtTime"
XSD = "http://www.w3.org/2001/XMLSchema#"


# ---------------------------------------------------------------------------
# Closure oracles (path enumeration)
# ---------------------------------------------------------------------------


def enum_reachable(start, edges):
    """Targets of every directed path out of start, by enumerating simple paths."""
    found = set()

    def walk(node, seen):
        for a, b in edges:
            if a == node and b not in seen:
                found.add(b)
                walk(b, seen | {b})

    walk(start, {start})
    return found


def oracle_broader_closure(type_ids, broader_edges):
    pairs = set()
    for t in type_ids:
        for target in enum_reachable(t, broader_edges):
            pairs.add((t, target))
    return pairs


def oracle_relation_closure(type_ids, broader_edges, rel_edges):
    """(x, z) iff some broader-ancestor y of x (or x itself) has (y, z) asserted."""
    pairs = set()
    for x in type_ids:
        ancestors = {x} | enum_reachable(x, broader_edges)
        for y, z in rel_edges:
            if y in ancestors:
                pairs.add((x, z))
    return pairs


STEP_NAMES = ("flatten", "group", "extend")  # in tie-break rank order


def oracle_conversion_path(type_ids, edges, from_id, to_id, policy):
    """Plan as (relation, source, target) tuples, or None, from every simple path.

    edges maps "broader" and each step name to its asserted edges.  All
    simple paths of closure steps that end at or below to_id are enumerated
    recursively; the shortest ones win, and ties go to the least path compared
    by (rank, target) from the last step backwards.
    """
    broader = oracle_broader_closure(type_ids, edges["broader"])
    if from_id == to_id or (from_id, to_id) in broader:
        return []
    steps = [
        (rank, name, a, b)
        for rank, name in enumerate(STEP_NAMES)
        for a, b in oracle_relation_closure(type_ids, edges["broader"], edges[name])
    ]
    if policy == "strict":
        direct = sorted(s for s in steps if s[2:] == (from_id, to_id))
        return [direct[0][1:]] if direct else None
    found = []

    def walk(node, path, seen):
        if path and (node == to_id or (node, to_id) in broader):
            found.append(path)
            return
        for step in steps:
            if step[2] == node and step[3] not in seen:
                walk(step[3], path + [step], seen | {step[3]})

    walk(from_id, [], {from_id})
    if not found:
        return None
    shortest = min(len(p) for p in found)
    best = min(
        (p for p in found if len(p) == shortest),
        key=lambda p: [(rank, b) for rank, _, _, b in reversed(p)],
    )
    return [step[1:] for step in best]


# ---------------------------------------------------------------------------
# Reachability / subject oracles (matrix closure)
# ---------------------------------------------------------------------------


def oracle_candidate_subjects(graph: Graph) -> set[Iri]:
    nodes = list(graph.nodes())
    if not nodes:
        return set()
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for t in graph:
        reach[index[t.subject]][index[t.object]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {
        node
        for node, i in index.items()
        if isinstance(node, Iri) and all(reach[i])
    }


def oracle_subject_assignment(candidate_sets: list[set[Iri]]) -> bool:
    """Is there a system of distinct representatives?  Full backtracking."""
    values = [sorted({c.value for c in s}) for s in candidate_sets]

    def backtrack(i: int, used: frozenset[str]) -> bool:
        if i == len(values):
            return True
        for v in values[i]:
            if v not in used and backtrack(i + 1, used | {v}):
                return True
        return False

    return backtrack(0, frozenset())


# ---------------------------------------------------------------------------
# Timestamp oracle (all-pairs comparison)
# ---------------------------------------------------------------------------


def _ascii_digits(text: str) -> bool:
    """text is a non-empty run of ASCII digits."""
    return bool(text) and all("0" <= c <= "9" for c in text)


def _split_timezone(text: str):
    """(text before its XSD timezone, tzinfo or None), or None for a bad timezone.

    The timezone is 'Z' or a sign, two digits, ':' and two digits, from
    -14:00 to +14:00.  Text whose last six characters are not shaped like
    one has no timezone, and the field checks see all of it.
    """
    if text.endswith("Z"):
        return text[:-1], timezone.utc
    tail = text[-6:]
    if len(tail) < 6 or tail[0] not in "+-" or tail[3] != ":":
        return text, None
    hours, minutes = tail[1:3], tail[4:]
    if not (_ascii_digits(hours) and _ascii_digits(minutes)):
        return None
    total = int(hours) * 60 + int(minutes)
    if int(minutes) > 59 or total > 14 * 60:
        return None
    return text[:-6], timezone(timedelta(minutes=-total if tail[0] == "-" else total))


def _date_fields(text: str):
    """(year, month, day) of a 'YYYY-MM-DD' date, else None.

    Longer and negative years are in the XSD lexical space, but datetime
    cannot hold them, so they are incomparable like every value it refuses.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        return None
    fields = (text[:4], text[5:7], text[8:])
    return tuple(map(int, fields)) if all(_ascii_digits(f) for f in fields) else None


def _time_fields(text: str):
    """(hour, minute, second, microsecond) of 'hh:mm:ss' with an optional
    fraction of any length (its first six digits count), else None."""
    clock, point, fraction = text.partition(".")
    if len(clock) != 8 or clock[2] != ":" or clock[5] != ":":
        return None
    fields = (clock[:2], clock[3:5], clock[6:])
    if not all(_ascii_digits(f) for f in fields) or (point and not _ascii_digits(fraction)):
        return None
    return (*map(int, fields), int(fraction[:6].ljust(6, "0")))


def oracle_timestamp_value(term):
    """(domain, value) of an orderable timestamp, checked field by field
    where comparable_timestamp matches a regex per XSD 1.1 production."""
    if not isinstance(term, Literal):
        return None
    lex = term.lexical.strip()
    try:
        if term.datatype in (XSD + "dateTime", XSD + "date"):
            split = _split_timezone(lex)
            if split is None:
                return None
            rest, tz = split
            if term.datatype == XSD + "date":
                ymd = _date_fields(rest)
                # a date's timezone does not move it
                return None if ymd is None else ("chrono-naive", datetime(*ymd))
            ymd, time = _date_fields(rest[:10]), _time_fields(rest[11:])
            if ymd is None or rest[10:11] != "T" or time is None:
                return None
            return ("chrono-aware" if tz else "chrono-naive", datetime(*ymd, *time, tzinfo=tz))
        if term.datatype in (XSD + "integer", XSD + "decimal"):
            whole, point, fraction = lex[lex[:1] in ("+", "-"):].partition(".")
            if point and term.datatype == XSD + "integer":
                return None
            if not (whole or fraction) or not all(_ascii_digits(f) for f in (whole, fraction) if f):
                return None
            return ("numeric", Decimal(lex))
    except ValueError:
        return None
    return None


def oracle_first_timestamp(dataset: Dataset, predicates: set[str]):
    items = dataset.named_items()
    if len(items) != 1:
        return None
    name = items[0][0]
    for t in dataset.default_graph:
        if t.subject == name and t.predicate.value in predicates:
            return t.predicate.value, t.object
    return None


def oracle_order_consistent(stamps: list[tuple[str, object]]) -> tuple[bool, int | None]:
    """All-pairs non-decreasing check over (element index kept implicitly).

    stamps: per element, (predicate, term) or None.  Returns (ok, index of
    the first offending later element).
    """
    parsed = []
    for entry in stamps:
        if entry is None:
            parsed.append(None)
            continue
        pred, term = entry
        v = oracle_timestamp_value(term)
        parsed.append(None if v is None else (pred, v[0], v[1]))
    for j in range(len(parsed)):
        for i in range(j):
            a, b = parsed[i], parsed[j]
            if a is None or b is None:
                continue
            if a[0] == b[0] and a[1] == b[1] and b[2] < a[2]:
                return False, j
    return True, None


# ---------------------------------------------------------------------------
# Projection oracle (graph-label check)
# ---------------------------------------------------------------------------


def oracle_project(items, kind: str):
    """The inverse of extend, read off the quads: every graph label must be absent.

    kind is 'quads' (items are quads; gives their triples) or 'datasets'
    (items are datasets; gives each one's triples as a graph).  None when
    some quad carries a graph label.
    """

    def triples(quads):
        quads = list(quads)
        if any(q.graph_label is not None for q in quads):
            return None
        return [Triple(q.subject, q.predicate, q.object) for q in quads]

    if kind == "quads":
        return triples(items)
    graphs = [triples(d.quads()) for d in items]
    return None if any(ts is None for ts in graphs) else [Graph(ts) for ts in graphs]


# ---------------------------------------------------------------------------
# Whole-stream brute-force classifier (Definitions 4-9)
# ---------------------------------------------------------------------------


def oracle_classify(elements, kind: str, predicates: set[str] | None = None,
                    check_order: bool = True):
    """Brute-force verdicts for the concrete types applicable to the kind.

    kind is 'graphs' or 'datasets'.  Returns (verdicts dict, ambiguous flag).
    Subject uniqueness is decided by exhaustive assignment, not greedily.
    """
    predicates = predicates or {PROV_AT}
    if kind == "graphs":
        verdicts = {"graphStream": True}
        candidate_sets = [oracle_candidate_subjects(g) for g in elements]
        ambiguous = any(len(s) > 1 for s in candidate_sets)
        ok = all(candidate_sets) and oracle_subject_assignment(candidate_sets) \
            if elements else True
        verdicts["subjectGraphStream"] = bool(ok)
        return verdicts, ambiguous

    verdicts = {"datasetStream": True}
    shapes = [len(d.named_items()) == 1 for d in elements]
    verdicts["namedGraphStream"] = all(shapes)
    stamps = [oracle_first_timestamp(d, predicates) for d in elements]
    has_all = all(shapes) and all(s is not None for s in stamps)
    if has_all and check_order:
        ok, _ = oracle_order_consistent(stamps)
    else:
        ok = has_all
    verdicts["timestampedNamedGraphStream"] = bool(ok)
    ambiguous = any(
        sum(
            1
            for t in d.default_graph
            if len(d.named_items()) == 1
            and t.subject == d.named_items()[0][0]
            and t.predicate.value in predicates
        )
        > 1
        for d in elements
    )
    return verdicts, ambiguous


# ---------------------------------------------------------------------------
# N-Triples / N-Quads error oracle (character scanner)
# ---------------------------------------------------------------------------
# The package reads a statement line with regexes; this reads it one
# character at a time and raises the first error with its line and column.

_HEX = set("0123456789abcdefABCDEF")
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_LABEL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")
# IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\] | UCHAR)* '>'
_IRIREF_EXCLUDED = {chr(c) for c in range(0x21)} | set('<>"{}|^`\\')


class _Scanner:
    """Single-line cursor over one N-Triples/N-Quads statement."""

    __slots__ = ("text", "pos", "line_no")

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def fail(self, reason: str, column: int | None = None) -> "ParseError":
        raise ParseError(self.line_no, (self.pos if column is None else column) + 1, reason)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _unicode_escape(self) -> str:
        # Cursor sits on 'u' or 'U'.
        width = 4 if self.text[self.pos] == "u" else 8
        start = self.pos
        self.pos += 1
        digits = self.text[self.pos : self.pos + width]
        if len(digits) < width or any(d not in _HEX for d in digits):
            self.fail(f"bad \\{self.text[start]} escape", column=start - 1)
        self.pos += width
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            self.fail(f"escape U+{code:X} is not a valid scalar value", column=start - 1)
        return chr(code)

    def parse_iri(self) -> Iri:
        start = self.pos
        self.pos += 1  # consume '<'
        out: list[str] = []
        raw: list[str] = []  # the characters not written as escapes
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated IRI", column=start)
            c = self.text[self.pos]
            if c == ">":
                self.pos += 1
                break
            if c == "\\":
                self.pos += 1
                if self.peek() not in ("u", "U"):
                    self.fail("only \\u/\\U escapes are allowed in IRIs", column=self.pos - 1)
                out.append(self._unicode_escape())
            else:
                out.append(c)
                raw.append(c)
                self.pos += 1
        try:
            iri = Iri("".join(out))
        except Exception as exc:
            self.fail(str(exc), column=start)
            raise AssertionError  # unreachable
        # Iri's own checks come first; what is left is a character that
        # IRIREF allows only escaped.
        for c in raw:
            if c in _IRIREF_EXCLUDED:
                code = "%04X" % ord(c)
                self.fail(f"{c!r} (U+{code}) inside an IRI; write it as \\u{code}", column=start)
        return iri

    def parse_blank(self) -> BlankNode:
        start = self.pos
        if not self.text.startswith("_:", self.pos):
            self.fail("expected '_:'")
        self.pos += 2
        end = self.pos
        while end < len(self.text) and self.text[end] in _LABEL_CHARS:
            end += 1
        # Trailing dots belong to the statement terminator, not the label.
        while end > self.pos and self.text[end - 1] == ".":
            end -= 1
        label = self.text[self.pos : end]
        self.pos = end
        try:
            return BlankNode(label)
        except Exception as exc:
            self.fail(str(exc), column=start)
            raise AssertionError

    def parse_literal(self) -> Literal:
        start = self.pos
        self.pos += 1  # consume '"'
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated literal", column=start)
            c = self.text[self.pos]
            if c == '"':
                self.pos += 1
                break
            # STRING_LITERAL_QUOTE ::= '"' ([^#x22#x5C#xA#xD] | ECHAR | UCHAR)* '"'
            if c == "\r":
                self.fail("carriage return (U+000D) line end; lines must end in LF or CRLF")
            if c == "\n":
                self.fail("line feed (U+000A) inside a literal; write it as \\n")
            if c == "\\":
                self.pos += 1
                e = self.peek()
                if e in _ECHAR:
                    out.append(_ECHAR[e])
                    self.pos += 1
                elif e in ("u", "U"):
                    out.append(self._unicode_escape())
                else:
                    self.fail(f"bad escape '\\{e}'", column=self.pos - 1)
            else:
                out.append(c)
                self.pos += 1
        lexical = "".join(out)
        if self.peek() == "@":
            tag_start = self.pos
            self.pos += 1
            end = self.pos
            while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "-"):
                end += 1
            tag = self.text[self.pos : end]
            # RDF 1.1 LANGTAG: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
            subtags = tag.split("-")
            if not all(subtags) or not tag.isascii() or not subtags[0].isalpha():
                self.fail("bad language tag", column=tag_start)
            self.pos = end
            return Literal(lexical, language=tag)
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() != "<":
                self.fail("expected '<' after '^^'")
            dt = self.parse_iri()
            try:
                return Literal(lexical, datatype=dt.value)
            except Exception as exc:
                self.fail(str(exc), column=start)
        return Literal(lexical)

    def parse_term(self) -> Term:
        c = self.peek()
        if c == "<":
            return self.parse_iri()
        if c == "_":
            return self.parse_blank()
        if c == '"':
            return self.parse_literal()
        if c == "\ufeff":
            self.fail("unexpected byte order mark (U+FEFF)")
        self.fail("expected IRI, blank node, or literal")
        raise AssertionError


def oracle_scan_statement(line: str, quads: bool, line_no: int) -> Statement:
    """Parse a statement line with the scanner; errors carry line and column."""
    sc = _Scanner(line, line_no)
    sc.skip_ws()
    subj_col = sc.pos
    subject = sc.parse_term()
    if isinstance(subject, Literal):
        sc.fail("subject must be an IRI or blank node", column=subj_col)
    sc.skip_ws()
    pred_col = sc.pos
    predicate = sc.parse_term()
    if not isinstance(predicate, Iri):
        sc.fail("predicate must be an IRI", column=pred_col)
    sc.skip_ws()
    obj = sc.parse_term()
    sc.skip_ws()

    graph_label: Iri | BlankNode | None = None
    if sc.peek() and sc.peek() != ".":
        label_col = sc.pos
        if not quads:
            sc.fail("statement has a fourth term but framing expects triples", column=label_col)
        term = sc.parse_term()
        if isinstance(term, Literal):
            sc.fail("graph label must be an IRI or blank node", column=label_col)
        graph_label = term
        sc.skip_ws()
    if sc.peek() != ".":
        sc.fail("expected '.' at end of statement")
    sc.pos += 1
    sc.skip_ws()
    if sc.peek() and sc.peek() != "#":
        sc.fail("unexpected content after '.'")

    return Quad(subject, predicate, obj, graph_label) if quads else Triple(subject, predicate, obj)


# ---------------------------------------------------------------------------
# Reference N-Quads parser (regex driven, canonical lines)
# ---------------------------------------------------------------------------

_IRI_PART = r'<((?:[^\x00-\x20<>"{}|^`\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)>'
_BNODE_PART = r"_:([A-Za-z0-9][A-Za-z0-9_\-.]*)"
_LIT_PART = r'"((?:[^"\\\n\r]|\\.)*)"(?:@([A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^' + _IRI_PART + r")?"
_TERM = f"(?:{_IRI_PART}|{_BNODE_PART}|{_LIT_PART})"
_LINE_RE = re.compile(rf"^{_TERM} {_TERM} {_TERM}(?: {_TERM})? \.$")

_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_ECHAR_DECODE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                 '"': '"', "'": "'", "\\": "\\"}


def _unescape(raw: str) -> str:
    def sub(m: re.Match) -> str:
        if m.group(1):
            return chr(int(m.group(1), 16))
        if m.group(2):
            return chr(int(m.group(2), 16))
        return _ECHAR_DECODE[m.group(3)]

    return _UNESCAPE_RE.sub(sub, raw)


def _term_tuple(groups, base: int):
    iri, bnode, lit, lang, dtype = groups[base : base + 5]
    if iri is not None:
        return ("iri", _unescape(iri))
    if bnode is not None:
        return ("bnode", bnode)
    lexical = _unescape(lit)
    if lang is not None:
        return ("lit", lexical, "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", lang)
    if dtype is not None:
        return ("lit", lexical, _unescape(dtype), None)
    return ("lit", lexical, XSD + "string", None)


def reference_parse_nquads(text: str):
    """Parse canonical N-Quads lines into term tuples; None for bad lines."""
    out = []
    for line in text.split("\n"):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ValueError(f"reference parser rejected line: {line!r}")
        g = m.groups()
        s = _term_tuple(g, 0)
        p = _term_tuple(g, 5)
        o = _term_tuple(g, 10)
        graph = _term_tuple(g, 15) if any(x is not None for x in g[15:20]) else None
        out.append((s, p, o, graph))
    return out


def term_tuple(term):
    """The production model term rendered in the reference tuple form."""
    if isinstance(term, Iri):
        return ("iri", term.value)
    if isinstance(term, BlankNode):
        return ("bnode", term.label)
    return ("lit", term.lexical, term.datatype, term.language)


# ---------------------------------------------------------------------------
# Reference Turtle parser (recursive descent, emitted subset)
# ---------------------------------------------------------------------------

_TURTLE_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<prefix>@prefix)
  | (?P<iri><[^<>]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?)
  | (?P<punct>[;,.\[\]])
  | (?P<a>\ba\b)
  | (?P<pname>[A-Za-z][\w-]*:[\w.-]*)
  | (?P<bnode>_:[A-Za-z0-9][\w.-]*)
    """,
    re.VERBOSE,
)


class ReferenceTurtleParser:
    """Parses the emitted annotation pattern back into triples.

    Covers: @prefix directives, one subject block, predicate-object lists
    with ';', object lists with ',', bracketed blank nodes, 'a', prefixed
    names, IRIs, and language-tagged string literals.  Blank nodes get
    fresh synthetic labels.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.triples: list[tuple] = []
        self._blank_count = 0

    @staticmethod
    def _tokenize(text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TURTLE_TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"turtle tokenizer stuck at {text[pos:pos+20]!r}")
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            tokens.append((kind, m.group()))
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, value: str):
        kind, tok = self._next()
        if tok != value:
            raise ValueError(f"expected {value!r}, got {tok!r}")

    def _fresh_blank(self) -> tuple:
        self._blank_count += 1
        return ("bnode", f"ref{self._blank_count}")

    def _resolve(self, kind: str, tok: str) -> tuple:
        if kind == "iri":
            return ("iri", _unescape(tok[1:-1]))
        if kind == "a":
            return ("iri", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        if kind == "pname":
            prefix, local = tok.split(":", 1)
            if prefix not in self.prefixes:
                raise ValueError(f"undefined prefix {prefix!r}")
            return ("iri", self.prefixes[prefix] + local)
        if kind == "bnode":
            return ("bnode", tok[2:])
        if kind == "literal":
            body, _, lang = tok.partition("@")
            lexical = _unescape(body[1:-1])
            if lang:
                return ("lit", lexical, "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", lang)
            return ("lit", lexical, XSD + "string", None)
        raise ValueError(f"unexpected token {tok!r}")

    def parse(self):
        while self._peek()[0] == "prefix":
            self._next()
            kind, name = self._next()
            assert kind == "pname" and name.endswith(":")
            kind, iri = self._next()
            assert kind == "iri"
            self.prefixes[name[:-1]] = iri[1:-1]
            self._expect(".")
        kind, tok = self._next()
        subject = self._fresh_blank() if kind == "bnode" else self._resolve(kind, tok)
        self._predicate_object_list(subject)
        self._expect(".")
        if self._peek() != (None, None):
            raise ValueError("trailing content after subject block")
        return self.triples

    def _predicate_object_list(self, subject):
        while True:
            kind, tok = self._next()
            predicate = self._resolve(kind, tok)
            while True:
                self.triples.append((subject, predicate, self._object()))
                if self._peek()[1] == ",":
                    self._next()
                    continue
                break
            if self._peek()[1] == ";":
                self._next()
                continue
            break

    def _object(self):
        kind, tok = self._peek()
        if tok == "[":
            self._next()
            node = self._fresh_blank()
            self._predicate_object_list(node)
            self._expect("]")
            return node
        self._next()
        if kind == "bnode":
            return self._fresh_blank()
        return self._resolve(kind, tok)


def reference_parse_turtle(text: str):
    return ReferenceTurtleParser(text).parse()


def turtle_signature(triples) -> frozenset:
    """Blank-label-insensitive form: each blank node becomes the recursive
    multiset of its outgoing (predicate, object) pairs."""
    by_subject: dict[tuple, list] = {}
    for s, p, o in triples:
        by_subject.setdefault(s, []).append((p, o))

    def sig(node, depth=0):
        if depth > 6:
            raise ValueError("turtle signature: nesting too deep")
        if node[0] != "bnode":
            return node
        pairs = by_subject.get(node, [])
        return ("node", frozenset((p, sig(o, depth + 1)) for p, o in pairs))

    objects = {o for _, _, o in triples}
    roots = [s for s in by_subject if s not in objects or s[0] != "bnode"]
    return frozenset(sig(r) for r in roots)
