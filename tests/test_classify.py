import random
from decimal import Decimal
from fractions import Fraction
from io import BytesIO

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import oracle_candidate_subjects, oracle_classify, oracle_timestamp_value
from streamgen import (
    EX,
    gen_classification_case,
    gen_dataset_stream,
    gen_graph_stream,
)
import staxkit.classify
from staxkit.classify import (
    PROV_GENERATED_AT_TIME,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    Classifier,
    ClassifierConfig,
    candidate_subject_nodes,
    classify_stream,
    comparable_timestamp,
)
from staxkit.errors import MixedPayload
from staxkit.io import Framing, read_flat_stream, read_grouped_stream
from staxkit.model import BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple
from staxkit.writer import serialize_term, write_stream

P = Iri(EX + "p")
AT = PROV_GENERATED_AT_TIME


def iri(name):
    return Iri(EX + name)


def chain(*names):
    """s -> a -> b ... as a graph rooted at the first name."""
    nodes = [iri(n) for n in names]
    return Graph(Triple(a, P, b) for a, b in zip(nodes, nodes[1:]))


def named_dataset(name, *, stamp=None, predicate=AT, extra_named=0, graph_triples=1):
    named = [(iri(name), Graph(Triple(iri(name + f"-s{i}"), P, iri(name + f"-o{i}"))
                                for i in range(graph_triples)))]
    for i in range(extra_named):
        named.append((iri(f"{name}-extra{i}"), Graph([Triple(iri("x"), P, iri("y"))])))
    default = Graph()
    if stamp is not None:
        default = Graph([Triple(iri(name), predicate, stamp)])
    return Dataset(default_graph=default, named_graphs=named)


def dt(lex):
    return Literal(lex, datatype=XSD_DATETIME)


def exact(comparable):
    """comparable_timestamp's (domain, value) with a chronological value as
    one Fraction of seconds, the form oracle_timestamp_value gives."""
    if comparable is None or comparable[0] == "numeric":
        return comparable
    domain, (seconds, fraction) = comparable
    return domain, seconds + Fraction(int(fraction or "0"), 10 ** len(fraction))


class TestCandidateSubjectNodes:
    def test_chain_has_one_candidate(self):
        g = chain("s", "a", "b")
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_disconnected_graph_has_none(self):
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("c"), P, iri("d"))])
        assert candidate_subject_nodes(g) == frozenset()

    def test_cycle_makes_every_member_a_candidate(self):
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        assert candidate_subject_nodes(g) == frozenset({iri("a"), iri("b")})

    def test_blank_root_is_not_a_candidate(self):
        g = Graph([Triple(BlankNode("root"), P, iri("leaf"))])
        assert candidate_subject_nodes(g) == frozenset()

    def test_empty_graph(self):
        assert candidate_subject_nodes(Graph()) == frozenset()

    def test_literal_leaves_count_as_nodes(self):
        g = Graph([Triple(iri("s"), P, Literal("leaf"))])
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_predicates_are_not_nodes(self):
        # p never appears as subject or object, so it does not block anyone
        g = Graph([Triple(iri("s"), iri("unusual"), iri("o"))])
        assert candidate_subject_nodes(g) == frozenset({iri("s")})

    def test_agrees_with_matrix_oracle_on_random_graphs(self):
        r = random.Random(77)
        for _ in range(300):
            stream = gen_graph_stream(r, max_elements=3)
            for g in stream:
                assert set(candidate_subject_nodes(g)) == oracle_candidate_subjects(g)

    def test_long_chain_has_one_candidate(self):
        # a per-node search is quadratic here: tens of seconds at 8,000 triples
        nodes = [iri(f"n{i}") for i in range(8001)]
        g = Graph(Triple(a, P, b) for a, b in zip(nodes, nodes[1:]))
        assert candidate_subject_nodes(g) == frozenset({nodes[0]})

    def test_two_way_linked_tree_makes_every_iri_a_candidate(self):
        # the shape of the benchmark's linked graphs: parts linked both ways, labelled
        r = random.Random(5)
        parts = [iri(f"part{i}") for i in range(150)]
        triples = []
        for i, part in enumerate(parts[1:], start=1):
            parent = parts[r.randrange(i)]
            triples.append(Triple(parent, iri("hasPart"), part))
            triples.append(Triple(part, iri("isPartOf"), parent))
            triples.append(Triple(part, iri("label"), Literal(f"part {i}", language="en")))
        assert candidate_subject_nodes(Graph(triples)) == frozenset(parts)


_IRIS = [iri(c) for c in "abcde"]
_SUBJECTS = _IRIS + [BlankNode("x"), BlankNode("y")]
_NODES = _SUBJECTS + [Literal("leaf"), Literal("leaf", language="en")]
_EDGES = st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_NODES))


def edge_graph(*edges):
    return Graph(Triple(s, P, o) for s, o in edges)


@st.composite
def rooted_graphs(draw):
    """A random tree hung from one subject, plus random extra edges, in random order."""
    root = draw(st.sampled_from(_SUBJECTS))
    others = draw(st.lists(st.sampled_from([n for n in _NODES if n != root]), unique=True))
    reached, edges = [root], []
    for node in others:
        parent = draw(st.sampled_from([n for n in reached if not isinstance(n, Literal)]))
        edges.append((parent, node))
        reached.append(node)
    edges += draw(st.lists(_EDGES, max_size=5))
    return edge_graph(*draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_EDGES, max_size=12).map(lambda e: edge_graph(*e)), rooted_graphs()))
# a blank node reaches every node: the IRIs reaching it are candidates, it is not
@example(edge_graph((BlankNode("x"), iri("a")), (BlankNode("x"), iri("b")), (iri("a"), BlankNode("x"))))
# the first search starts at a, which is not a candidate
@example(edge_graph((iri("a"), iri("b")), (iri("c"), iri("a"))))
# self-loops
@example(edge_graph((iri("a"), iri("a"))))
@example(edge_graph((iri("a"), iri("a")), (iri("b"), iri("a"))))
@example(edge_graph((BlankNode("x"), BlankNode("x"))))
# several strongly connected components, one of which reaches the others
@example(edge_graph((iri("c"), iri("d")), (iri("d"), iri("c")), (iri("a"), iri("b")),
                    (iri("b"), iri("a")), (iri("b"), iri("c"))))
@example(edge_graph((iri("a"), iri("b")), (iri("b"), iri("a")), (iri("c"), iri("d")),
                    (iri("d"), iri("c"))))
# literal-only leaves
@example(edge_graph((iri("a"), Literal("leaf")), (iri("a"), Literal("leaf", language="en"))))
@example(edge_graph((iri("a"), Literal("leaf")), (iri("b"), Literal("leaf"))))
# one triple
@example(edge_graph((iri("a"), iri("b"))))
@example(edge_graph((BlankNode("x"), iri("a"))))
def test_candidate_subjects_agree_with_matrix_oracle(graph):
    assert set(candidate_subject_nodes(graph)) == oracle_candidate_subjects(graph)


NO_STAMP = ("no timestamp triple", "default graph has no timestamp triple about the graph name")
CUSTOM = iri("observedAt")


def not_single(found):
    return ("not a single named graph", f"expected exactly one named graph, found {found}")


def blank_named_dataset():
    name = BlankNode("g")
    return Dataset(
        default_graph=Graph([Triple(name, AT, dt("2024-01-01T00:00:00"))]),
        named_graphs=[(name, Graph([Triple(iri("s"), P, iri("o"))]))],
    )


# The dataset shape and timestamp checks, one element at a time: the
# element, the timestamp predicates, and the failed (reason, detail) of
# namedGraphStream and of timestampedNamedGraphStream, None for a pass.
DATASET_VERDICTS = [
    pytest.param(Dataset(), None, not_single(0), not_single(0), id="zero-named-graphs"),
    pytest.param(named_dataset("g"), None, None, NO_STAMP, id="one-named-graph"),
    pytest.param(named_dataset("g", extra_named=1), None, not_single(2), not_single(2), id="two-named-graphs"),
    pytest.param(named_dataset("g", stamp=Literal("anything")), None, None, None, id="default-content"),
    pytest.param(blank_named_dataset(), None, None, None, id="blank-graph-name"),
    pytest.param(named_dataset("g", stamp=dt("2024-01-01T00:00:00")), None, None, None, id="timestamped"),
    pytest.param(
        Dataset(
            default_graph=Graph([Triple(iri("other"), AT, dt("2024-01-01T00:00:00"))]),
            named_graphs=[(iri("g"), Graph([Triple(iri("s"), P, iri("o"))]))],
        ),
        None, None, NO_STAMP, id="decoy-subject",
    ),
    pytest.param(
        named_dataset("g", stamp=dt("2024-01-01T00:00:00"), predicate=CUSTOM),
        frozenset({CUSTOM}), None, None, id="custom-predicate",
    ),
    pytest.param(
        named_dataset("g", stamp=dt("2024-01-01T00:00:00"), predicate=CUSTOM),
        None, None, NO_STAMP, id="custom-predicate-not-configured",
    ),
    pytest.param(
        named_dataset("g", stamp=dt("2024-01-01T00:00:00"), extra_named=1),
        None, not_single(2), not_single(2), id="shape-fails-before-timestamp",
    ),
]


class TestDatasetShape:
    @pytest.mark.parametrize("dataset, predicates, named, timestamped", DATASET_VERDICTS)
    def test_verdicts(self, dataset, predicates, named, timestamped):
        cfg = ClassifierConfig(timestamp_predicates=predicates) if predicates else ClassifierConfig()
        verdict = Classifier(Framing.FRAMED_DATASETS, cfg).feed(dataset)
        got = {t: None if v.passed else (v.reason, v.detail) for t, v in verdict.per_type.items()}
        assert got == {"datasetStream": None, "namedGraphStream": named, "timestampedNamedGraphStream": timestamped}

    def test_first_timestamp_in_document_order_wins(self):
        d = Dataset(
            default_graph=Graph(
                [
                    Triple(iri("g"), AT, dt("2024-06-01T00:00:00")),
                    Triple(iri("g"), AT, dt("2024-01-01T00:00:00")),
                ]
            ),
            named_graphs=[(iri("g"), Graph([Triple(iri("s"), P, iri("o"))]))],
        )
        classifier = Classifier(Framing.FRAMED_DATASETS)
        first = classifier.feed(d)
        assert first.notes == ("element 0: multiple timestamp triples; first in document order wins",)
        # 2024-06-01T00:00:00 is 1717200000 s after 1970-01-01T00:00:00
        assert classifier.order_max == {(AT.value, "chrono-naive"): ((1717200000, ""), 0)}
        # March follows the June stamp, not the January one
        later = classifier.feed(named_dataset("h", stamp=dt("2024-03-01T00:00:00")))
        assert later.per_type["timestampedNamedGraphStream"].reason == "timestamp order violation"


@st.composite
def _day_and_clock(draw):
    """(date, clock) text: long, negative and 0000 years, Feb 29 of leap and
    common years, and the end of day."""
    if draw(st.integers(0, 4)) == 0:
        year, month, day = draw(st.sampled_from([0, 1900, 2000, -4])), 2, 29
    else:
        year = draw(st.one_of(st.integers(-99999, 99999), st.sampled_from([-1, 0, 1, 9999, 10000])))
        month, day = draw(st.integers(1, 12)), draw(st.integers(1, 31))
    date = f"{'-' if year < 0 else ''}{abs(year):04d}-{month:02d}-{day:02d}"
    if draw(st.integers(0, 4)) == 0:
        return date, "24:00:00"
    clock = draw(st.one_of(
        st.sampled_from([(0, 0, 0), (23, 59, 59)]),
        st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
    ))
    return date, "{:02d}:{:02d}:{:02d}".format(*clock)


_OFFSETS = st.one_of(st.none(), st.sampled_from([0, -14 * 60, 14 * 60]), st.integers(-14 * 60, 14 * 60))


@st.composite
def xsd_timestamps(draw):
    """An xsd:dateTime or xsd:date with a fraction of 1-12 digits or none
    and an offset up to 14:00 either way or none.  The day, clock and
    offset are often those shared by the whole example, so that equal and
    close instants meet in one list."""
    date, clock = draw(st.one_of(st.shared(_day_and_clock(), key="day and clock"), _day_and_clock()))
    datatype = draw(st.sampled_from([XSD_DATETIME, XSD_DATE]))
    stamp = date
    if datatype == XSD_DATETIME:
        fraction = draw(st.one_of(
            st.sampled_from(["", ".0", ".000"]),
            st.sampled_from([".5", ".50", ".05", ".1234566", ".1234567"]),
            st.text("0123456789", min_size=1, max_size=12).map(".".__add__),
        ))
        if clock.startswith("24") and fraction.strip(".0"):
            fraction = ""  # the end of day takes no fraction but zeros
        stamp += "T" + clock + fraction
    offset = draw(st.one_of(st.shared(_OFFSETS, key="offset"), _OFFSETS))
    if offset == 0 and draw(st.booleans()):
        stamp += "Z"
    elif offset is not None:
        stamp += f"{'-' if offset < 0 else '+'}{abs(offset) // 60:02d}:{abs(offset) % 60:02d}"
    return Literal(stamp, datatype=datatype)


class TestComparableTimestamp:
    def test_aware_and_naive_datetimes_split_domains(self):
        aware = comparable_timestamp(dt("2024-01-01T00:00:00Z"))
        naive = comparable_timestamp(dt("2024-01-01T00:00:00"))
        assert aware[0] == "chrono-aware"
        assert naive[0] == "chrono-naive"

    def test_offset_suffix_is_aware(self):
        got = comparable_timestamp(dt("2024-01-01T05:00:00+02:00"))
        assert got[0] == "chrono-aware"

    def test_date_promotes_to_naive_midnight(self):
        got = comparable_timestamp(Literal("2024-03-05", datatype=XSD_DATE))
        assert got == comparable_timestamp(dt("2024-03-05T00:00:00")) == ("chrono-naive", (1709596800, ""))

    def test_integer_and_decimal_share_a_domain(self):
        a = comparable_timestamp(Literal("5", datatype=XSD_INTEGER))
        b = comparable_timestamp(Literal("5.5", datatype=XSD_DECIMAL))
        assert a[0] == b[0] == "numeric"
        assert a[1] < b[1]

    def test_junk_is_incomparable(self):
        assert comparable_timestamp(Literal("not a time", datatype=XSD_DATETIME)) is None
        assert comparable_timestamp(Literal("soon")) is None
        assert comparable_timestamp(iri("t")) is None

    def test_plain_string_timestamp_is_incomparable(self):
        assert comparable_timestamp(Literal("2024-01-01T00:00:00")) is None

    @pytest.mark.parametrize("lex", ["NaN", "sNaN", "Infinity", "-Inf"])
    @pytest.mark.parametrize("datatype", [XSD_DECIMAL, XSD_INTEGER])
    def test_non_finite_number_is_incomparable(self, lex, datatype):
        assert comparable_timestamp(Literal(lex, datatype=datatype)) is None

    @pytest.mark.parametrize(
        "lex, datatype, value",
        [
            ("1e3", XSD_INTEGER, None),
            ("1_000", XSD_DECIMAL, None),
            ("1.5", XSD_INTEGER, None),
            ("\u0661\u0662", XSD_INTEGER, None),  # Arabic-Indic digits
            ("1e3", XSD_DECIMAL, None),
            (".", XSD_DECIMAL, None),
            ("+", XSD_INTEGER, None),
            ("-007", XSD_INTEGER, "-7"),
            (" 12 ", XSD_INTEGER, "12"),
            ("\t12\r\n", XSD_INTEGER, "12"),
            ("\x1c5\x1f", XSD_INTEGER, None),  # str.isspace, but not XSD whitespace
            ("\u00a05", XSD_DECIMAL, None),
            ("+1.", XSD_DECIMAL, "1"),
            (".5", XSD_DECIMAL, "0.5"),
            ("-0.50", XSD_DECIMAL, "-0.5"),
        ],
    )
    def test_numbers_follow_the_xsd_lexical_spaces(self, lex, datatype, value):
        got = comparable_timestamp(Literal(lex, datatype=datatype))
        assert got == (None if value is None else ("numeric", Decimal(value)))

    def test_out_of_range_date_is_incomparable(self):
        assert comparable_timestamp(Literal("0001-01-01T00:00:00+01:00", datatype=XSD_DATE)) is None

    @pytest.mark.parametrize(
        "lex, datatype",
        [
            ("2024-01-01 10:00", XSD_DATETIME),  # space separator
            ("20240101T1000", XSD_DATETIME),  # basic format
            ("2024-01-01T10:00", XSD_DATETIME),  # no seconds
            ("2024-01-01t10:00:00", XSD_DATETIME),
            ("2024-01-01T10:00:00+14:30", XSD_DATETIME),  # offset beyond 14:00
            ("2024-01-01T10:00:00+0500", XSD_DATETIME),
            ("2024-01-01T10:00:60", XSD_DATETIME),
            ("\uff12\uff10\uff12\uff14-01-01T10:00:00", XSD_DATETIME),  # fullwidth digits
            ("20240305", XSD_DATE),
            ("2024-03-05T10:00:00", XSD_DATE),
            ("2024-3-05", XSD_DATE),
            ("2024-02-30", XSD_DATE),
            ("2023-02-29", XSD_DATE),
            ("1900-02-29T00:00:00", XSD_DATETIME),
            ("2024-04-31T00:00:00", XSD_DATETIME),
            ("02024-01-01T00:00:00", XSD_DATETIME),  # a long year has no leading zero
            ("2024-01-01T24:00:01", XSD_DATETIME),
            ("2024-01-01T24:00:00.001", XSD_DATETIME),
            ("2024-01-01T10:00:00.", XSD_DATETIME),
            # whitespace to str.strip, but not to XSD's whiteSpace=collapse
            ("\u30002024-01-01T00:00:00Z", XSD_DATETIME),
            ("2024-03-05\u00a0", XSD_DATE),
            ("\x1c2024-03-05", XSD_DATE),
        ],
    )
    def test_values_outside_the_xsd_lexical_space_are_incomparable(self, lex, datatype):
        term = Literal(lex, datatype=datatype)
        assert comparable_timestamp(term) is None
        assert oracle_timestamp_value(term) is None

    @pytest.mark.parametrize(
        "lex, datatype, domain, seconds, fraction",
        [
            # seconds since 1970-01-01T00:00:00, less the offset if zoned
            ("2024-01-01T10:00:00", XSD_DATETIME, "chrono-naive", 1704103200, ""),
            ("2024-01-01T10:00:00.250Z", XSD_DATETIME, "chrono-aware", 1704103200, "25"),
            ("2024-01-01T10:00:00.000001-05:30", XSD_DATETIME, "chrono-aware", 1704123000, "000001"),
            ("2024-01-01T23:59:59+14:00", XSD_DATETIME, "chrono-aware", 1704103199, ""),
            ("2024-01-01T00:00:00.123456789012Z", XSD_DATETIME, "chrono-aware", 1704067200, "123456789012"),
            ("2023-12-31T24:00:00Z", XSD_DATETIME, "chrono-aware", 1704067200, ""),
            ("2024-01-01T24:00:00.000", XSD_DATETIME, "chrono-naive", 1704153600, ""),
            ("0000-01-01T00:00:00", XSD_DATETIME, "chrono-naive", -62167219200, ""),
            ("-0001-12-31T23:59:59Z", XSD_DATETIME, "chrono-aware", -62167219201, ""),
            ("-2024-01-01T00:00:00", XSD_DATETIME, "chrono-naive", -126038505600, ""),
            ("12024-01-01T00:00:00", XSD_DATETIME, "chrono-naive", 317273587200, ""),
            (" 2024-03-05 ", XSD_DATE, "chrono-naive", 1709596800, ""),
            ("\t2024-03-05\r\n", XSD_DATE, "chrono-naive", 1709596800, ""),
            ("2024-03-05Z", XSD_DATE, "chrono-aware", 1709596800, ""),
            # a zoned date is its first instant: these two are 26 hours apart
            ("2024-03-05-12:00", XSD_DATE, "chrono-aware", 1709640000, ""),
            ("2024-03-05+14:00", XSD_DATE, "chrono-aware", 1709546400, ""),
            ("0001-01-01+01:00", XSD_DATE, "chrono-aware", -62135600400, ""),
            ("0000-02-29", XSD_DATE, "chrono-naive", -62162121600, ""),
            ("2000-02-29", XSD_DATE, "chrono-naive", 951782400, ""),
            ("-0004-02-29", XSD_DATE, "chrono-naive", -62288352000, ""),
        ],
    )
    def test_values_in_the_xsd_lexical_space_are_ordered(self, lex, datatype, domain, seconds, fraction):
        term = Literal(lex, datatype=datatype)
        assert comparable_timestamp(term) == (domain, (seconds, fraction))
        assert oracle_timestamp_value(term) == exact((domain, (seconds, fraction)))

    @pytest.mark.parametrize(
        "first, later, equal",
        [
            ("2023-12-31T24:00:00Z", "2024-01-01T00:00:00Z", True),
            ("2024-01-01T00:00:00.1234566Z", "2024-01-01T00:00:00.1234567Z", False),
            ("2024-01-01T00:00:00.5", "2024-01-01T00:00:00.50", True),
            ("2024-01-01T00:00:00.05", "2024-01-01T00:00:00.5", False),
            ("9999-12-31T23:59:59Z", "12024-01-01T00:00:00Z", False),
            ("-2024-01-01T00:00:00", "0000-01-01T00:00:00", False),
            ("0000-12-31T23:59:59.9", "0001-01-01T00:00:00", False),
        ],
    )
    def test_values_datetime_cannot_hold_are_ordered(self, first, later, equal):
        # the end of day, fractions past six digits and years outside
        # 0001-9999 are ordered exactly, in the stream as in the oracle
        def conforms(*stamps):
            stream = [named_dataset(f"g{i}", stamp=dt(stamp)) for i, stamp in enumerate(stamps)]
            return "timestampedNamedGraphStream" in classify_stream(stream, Framing.FRAMED_DATASETS).conforming

        assert conforms(first, later)
        assert conforms(later, first) is equal
        a, b = oracle_timestamp_value(dt(first)), oracle_timestamp_value(dt(later))
        assert a[0] == b[0] and (a[1] == b[1]) is equal and a[1] <= b[1]

    @given(
        st.tuples(
            st.sampled_from(
                ["2024", "0001", "0000", "9999", "12024", "-2024", "1900", "02024", "202", "\uff12\uff10\uff12\uff14"]
            ),
            st.sampled_from(["-", "", "/"]),
            st.sampled_from(["01", "02", "12", "13", "00", "1"]),
            st.sampled_from(["-", ""]),
            st.sampled_from(["01", "28", "29", "30", "31", "32", "5"]),
            st.sampled_from(["", "T", " ", "t"]),
            st.sampled_from(
                ["", "10:00:00", "23:59:59", "24:00:00", "24:00:01", "10:00", "1000", "10:00:60", "25:00:00"]
            ),
            st.sampled_from(["", ".0", ".000", ".5", ".50", ".123", ".1234567", "."]),
            st.sampled_from(["", "Z", "+00:00", "-05:30", "+14:00", "+14:01", "+13:59", "+1:00", "+0500", "z"]),
        ).map("".join),
        st.sampled_from([XSD_DATETIME, XSD_DATE]),
    )
    def test_chronological_values_agree_with_the_field_oracle(self, lex, datatype):
        term = Literal(lex, datatype=datatype)
        assert exact(comparable_timestamp(term)) == oracle_timestamp_value(term)

    @settings(max_examples=300)
    @given(st.lists(xsd_timestamps(), min_size=2, max_size=6))
    def test_pairwise_order_agrees_with_the_field_oracle(self, stamps):
        ours = [comparable_timestamp(t) for t in stamps]
        theirs = [oracle_timestamp_value(t) for t in stamps]
        assert [v is None for v in ours] == [v is None for v in theirs]
        for i, (a, oa) in enumerate(zip(ours, theirs)):
            for b, ob in zip(ours[i + 1:], theirs[i + 1:]):
                if a is None or b is None:
                    continue
                assert (a[0] == b[0]) == (oa[0] == ob[0])
                if a[0] == b[0]:
                    assert (a[1] > b[1]) - (a[1] < b[1]) == (oa[1] > ob[1]) - (oa[1] < ob[1])

    @given(st.one_of(
        xsd_timestamps(),
        xsd_timestamps().map(lambda stamp: Literal(f" {stamp.lexical}\t", stamp.datatype)),
        st.builds(Literal, st.text(max_size=12),
                  st.sampled_from([XSD_DATETIME, XSD_DATE, XSD_INTEGER, XSD_DECIMAL, "http://ex.org/at|1"])),
        st.sampled_from([Literal("2024-01-01T00:00:00Z"), Literal("1", language="en"), iri("t"), BlankNode("t")]),
    ))
    def test_a_stamp_token_compares_as_its_term(self, term):
        # A dataset index's stamp is read from the token the writer spells.
        assert staxkit.classify._comparable_token(serialize_term(term)) == comparable_timestamp(term)

    @pytest.mark.parametrize(
        "first, later, ordered",
        [
            ("2024-03-05+14:00", Literal("2024-03-05-12:00", datatype=XSD_DATE), True),
            ("2024-03-05-12:00", Literal("2024-03-05+14:00", datatype=XSD_DATE), False),
            ("2024-03-05-12:00", dt("2024-03-05T06:00:00Z"), False),  # dates and date-times share a domain
            ("2024-03-05Z", Literal("2024-03-05", datatype=XSD_DATE), True),  # zoned and unzoned never compare
        ],
    )
    def test_zoned_dates_are_ordered_by_their_first_instant(self, first, later, ordered):
        stream = [named_dataset("a", stamp=Literal(first, datatype=XSD_DATE)), named_dataset("b", stamp=later)]
        report = classify_stream(stream, Framing.FRAMED_DATASETS)
        assert ("timestampedNamedGraphStream" in report.conforming) is ordered

    @pytest.mark.parametrize(
        "later", [dt("2024-01-01 10:00"), dt("20240101T1000"), Literal("20240305", datatype=XSD_DATE)]
    )
    def test_a_value_outside_the_lexical_space_never_violates_the_order(self, later):
        stream = [named_dataset("a", stamp=dt("2025-01-01T00:00:00")), named_dataset("b", stamp=later)]
        report = classify_stream(stream, Framing.FRAMED_DATASETS)
        assert "timestampedNamedGraphStream" in report.conforming

    @pytest.mark.parametrize(
        "first",
        [Literal("NaN", datatype=XSD_DECIMAL), Literal("0001-01-01T00:00:00+01:00", datatype=XSD_DATE)],
    )
    def test_incomparable_first_stamp_does_not_break_the_order_check(self, first):
        stream = [named_dataset("a", stamp=first), named_dataset("b", stamp=Literal("1", datatype=XSD_INTEGER))]
        report = classify_stream(stream, Framing.FRAMED_DATASETS)
        assert "timestampedNamedGraphStream" in report.conforming


class TestClassifierFeed:
    def test_fresh_subject_passes(self):
        v = Classifier(Framing.FRAMED_GRAPHS).feed(chain("s", "a"))
        assert v.per_type["graphStream"].passed
        assert v.per_type["subjectGraphStream"].passed

    def test_reused_subject_fails_second_element(self):
        classifier = Classifier(Framing.FRAMED_GRAPHS)
        classifier.feed(chain("s", "a"))
        v = classifier.feed(chain("s", "b"))
        assert v.per_type["graphStream"].passed
        failed = v.per_type["subjectGraphStream"]
        assert not failed.passed
        assert failed.reason == "subject not unique in stream"
        assert "element 0" in failed.detail

    def test_empty_graph_fails_subject_type(self):
        v = Classifier(Framing.FRAMED_GRAPHS).feed(Graph())
        assert v.per_type["graphStream"].passed
        assert not v.per_type["subjectGraphStream"].passed

    def test_ambiguous_choice_prefers_smallest_unused(self):
        classifier = Classifier(Framing.FRAMED_GRAPHS)
        classifier.feed(chain("x", "y"))
        assert not classifier.ambiguous
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classifier.feed(g)
        assert v.per_type["subjectGraphStream"].passed
        assert v.notes == (f"element 1: 2 candidate subjects; chose {EX}a",)
        assert classifier.ambiguous
        assert classifier.subjects == {iri("x"): 0, iri("a"): 1}

    def test_ambiguous_skips_used_candidates(self):
        classifier = Classifier(Framing.FRAMED_GRAPHS)
        classifier.feed(chain("a", "x"))
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classifier.feed(g)
        assert v.per_type["subjectGraphStream"].passed
        assert iri("b") in classifier.subjects

    def test_all_candidates_used_fails(self):
        classifier = Classifier(Framing.FRAMED_GRAPHS)
        classifier.feed(chain("a", "x"))
        classifier.feed(chain("b", "y"))
        g = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        v = classifier.feed(g)
        assert not v.per_type["subjectGraphStream"].passed
        assert v.per_type["subjectGraphStream"].detail == "every candidate already used"

    def test_dataset_without_shape_fails_both_named_types(self):
        v = Classifier(Framing.FRAMED_DATASETS).feed(Dataset())
        assert v.per_type["datasetStream"].passed
        assert not v.per_type["namedGraphStream"].passed
        assert not v.per_type["timestampedNamedGraphStream"].passed

    def test_order_violation_points_at_earlier_element(self):
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")))
        v = classifier.feed(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")))
        bad = v.per_type["timestampedNamedGraphStream"]
        assert not bad.passed
        assert bad.reason == "timestamp order violation"
        assert "element 0" in bad.detail

    def test_equal_timestamps_are_fine(self):
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-01T00:00:00")))
        v = classifier.feed(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")))
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_incomparable_timestamps_never_violate_order(self):
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")))
        v = classifier.feed(named_dataset("g2", stamp=Literal("sometime later")))
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_aware_and_naive_do_not_cross_compare(self):
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-02T00:00:00Z")))
        v = classifier.feed(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")))
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_order_check_can_be_disabled(self):
        classifier = Classifier(Framing.FRAMED_DATASETS, ClassifierConfig(check_timestamp_order=False))
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")))
        v = classifier.feed(named_dataset("g2", stamp=dt("2024-01-01T00:00:00")))
        assert v.per_type["timestampedNamedGraphStream"].passed

    def test_wrong_element_type_raises(self):
        with pytest.raises(MixedPayload):
            Classifier(Framing.FRAMED_GRAPHS).feed(42)

    @pytest.mark.parametrize(
        "first,second,passes",
        [("2024-01-01T00:00:00", "2024-01-03T00:00:00", False),
         ("2024-01-03T00:00:00", "2024-01-01T00:00:00", True)],
    )
    def test_multiple_timestamp_triples_first_wins(self, first, second, passes):
        # the first timestamp in document order is the one order-checked
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-02T00:00:00")))
        d = Dataset(
            default_graph=Graph(
                [Triple(iri("g2"), AT, dt(first)), Triple(iri("g2"), AT, dt(second))]
            ),
            named_graphs=[(iri("g2"), Graph([Triple(iri("s"), P, iri("o"))]))],
        )
        v = classifier.feed(d)
        assert v.notes == ("element 1: multiple timestamp triples; first in document order wins",)
        assert v.per_type["timestampedNamedGraphStream"].passed is passes
        single = classifier.feed(named_dataset("g3", stamp=dt("2024-01-04T00:00:00")))
        assert single.notes == ()


class TestClassifyStream:
    def test_fresh_chains_conform_to_both_graph_types(self):
        report = classify_stream([chain("s1", "a"), chain("s2", "b")], Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream", "subjectGraphStream")
        assert report.most_specific == ("subjectGraphStream",)
        assert not report.vacuous and not report.ambiguous

    def test_empty_stream_is_vacuous(self):
        report = classify_stream([], Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream", "subjectGraphStream")
        assert report.vacuous

    def test_first_violation_records_earliest_index(self):
        elements = [chain("s", "a"), chain("s", "b"), chain("s", "c")]
        report = classify_stream(elements, Framing.FRAMED_GRAPHS)
        assert report.conforming == ("graphStream",)
        fv = report.first_violation["subjectGraphStream"]
        assert fv.element_index == 1
        assert fv.reason == "subject not unique in stream"

    def test_timestamped_stream(self):
        elements = [
            named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z")),
            named_dataset("g2", stamp=dt("2024-01-02T00:00:00Z")),
        ]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.conforming == (
            "datasetStream",
            "namedGraphStream",
            "timestampedNamedGraphStream",
        )
        assert report.most_specific == ("timestampedNamedGraphStream",)

    def test_missing_timestamp_downgrades(self):
        elements = [named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z")), named_dataset("g2")]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.most_specific == ("namedGraphStream",)
        assert report.first_violation["timestampedNamedGraphStream"].element_index == 1

    def test_statement_count_sums_quads_and_triples(self):
        elements = [
            named_dataset("g1", stamp=dt("2024-01-01T00:00:00Z"), graph_triples=2),
            named_dataset("g2", graph_triples=3),
        ]
        report = classify_stream(elements, Framing.FRAMED_DATASETS)
        assert report.element_count == 2
        assert report.statement_count == 2 + 1 + 3  # named triples plus one stamp

    def test_flat_triples_always_conform(self):
        statements = [Triple(iri("a"), P, iri("b"))]
        report = classify_stream(statements, Framing.FLAT_TRIPLES)
        assert report.applicable == ("flatTripleStream",)
        assert report.conforming == ("flatTripleStream",)
        assert report.most_specific == ("flatTripleStream",)
        assert report.statement_count == 1

    def test_flat_quads_projectable_note(self):
        statements = [Quad(iri("a"), P, iri("b")), Quad(iri("c"), P, iri("d"))]
        report = classify_stream(statements, Framing.FLAT_QUADS)
        assert any("projectable" in n for n in report.notes)

    def test_flat_quads_with_labels_no_note(self):
        statements = [Quad(iri("a"), P, iri("b"), iri("g"))]
        report = classify_stream(statements, Framing.FLAT_QUADS)
        assert not report.notes

    def test_empty_flat_stream_no_projectable_note(self):
        report = classify_stream([], Framing.FLAT_QUADS)
        assert report.vacuous and not report.notes

    def test_bytes_source_accepted(self):
        payload = b"<http://x:1/s> <http://x:1/p> <http://x:1/o> .\n"
        report = classify_stream(payload, Framing.FLAT_TRIPLES)
        assert report.statement_count == 1

    def test_evidence_capped(self):
        elements = [chain("s", "a")] + [chain("s", f"b{i}") for i in range(8)]
        cfg = ClassifierConfig(max_evidence=3)
        report = classify_stream(elements, Framing.FRAMED_GRAPHS, cfg)
        assert len(report.evidence) == 3
        assert report.first_violation["subjectGraphStream"].element_index == 1

    def test_report_dict_shape_and_key_order(self):
        report = classify_stream([chain("s", "a")], Framing.FRAMED_GRAPHS)
        d = report.to_dict()
        assert list(d) == [
            "framing",
            "elementCount",
            "statementCount",
            "applicable",
            "conforming",
            "mostSpecific",
            "vacuous",
            "ambiguous",
            "firstViolation",
            "notes",
            "evidence",
        ]
        assert d["framing"] == "framed-graphs"
        assert d["firstViolation"] == {}

    def test_report_dict_violation_entry(self):
        report = classify_stream([chain("s", "a"), chain("s", "b")], Framing.FRAMED_GRAPHS)
        d = report.to_dict()
        entry = d["firstViolation"]["subjectGraphStream"]
        assert entry == {"elementIndex": 1, "reason": "subject not unique in stream"}
        verdicts = d["evidence"][0]["verdicts"]
        assert verdicts["graphStream"] == {"pass": True}
        assert verdicts["subjectGraphStream"]["pass"] is False

    def test_determinism(self):
        r = random.Random(5150)
        for _ in range(20):
            kind, elements = gen_classification_case(r)
            framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
            a = classify_stream(elements, framing).to_dict()
            b = classify_stream(elements, framing).to_dict()
            assert a == b

    @pytest.mark.parametrize(
        "items, framing",
        [
            ([Dataset()], Framing.FRAMED_GRAPHS),
            ([chain("s", "a"), chain("t", "b")], Framing.FRAMED_DATASETS),
            ([chain("s", "a")], Framing.FLAT_TRIPLES),
            ([Quad(iri("a"), P, iri("b"), iri("g"))], Framing.FLAT_TRIPLES),
        ],
        ids=["dataset-as-graph", "graphs-as-datasets", "graph-as-triple", "labelled-quad-as-triple"],
    )
    def test_an_item_of_another_payload_is_mixed_payload(self, items, framing):
        # the writer refuses the same items
        with pytest.raises(MixedPayload):
            write_stream(items, framing, BytesIO())
        with pytest.raises(MixedPayload, match=f"^element 0: {framing.value} framing cannot classify a "):
            classify_stream(items, framing)


# Lines of a text-mode index (see io._read), a graph label's token, which
# keys its lines, and the label's terms, which must not.
INDEX_LINE = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
INDEX_LINE_2 = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o2> .\n"
INDEX_QUAD = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .\n"
INDEX_QUAD_2 = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o2> <http://ex.org/g> .\n"
G = "<http://ex.org/g>"
G_TERMS = [Iri("http://ex.org/g"), BlankNode("g")]


class TestClassifier:
    def test_each_prefix_reports_as_the_stream_of_that_prefix(self):
        r = random.Random(2718)
        for _ in range(20):
            kind, elements = gen_classification_case(r)
            framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
            classifier = Classifier(framing)
            for k, element in enumerate(elements):
                assert classifier.report() == classify_stream(elements[:k], framing)
                assert classifier.feed(element).element_index == k
            assert classifier.report() == classify_stream(elements, framing)

    @pytest.mark.parametrize("framing", [Framing.FLAT_TRIPLES, Framing.FLAT_QUADS])
    def test_a_flat_statement_has_no_verdict(self, framing):
        statement = Quad(iri("a"), P, iri("b")) if framing.quads_payload else Triple(iri("a"), P, iri("b"))
        classifier = Classifier(framing)
        assert classifier.feed(statement) is None
        assert classifier.report() == classify_stream([statement], framing)

    @pytest.mark.parametrize(
        "framing, index, fits",
        [
            (Framing.FLAT_TRIPLES, {None: {INDEX_LINE: None}}, True),
            (Framing.FLAT_TRIPLES, {G: {INDEX_QUAD: None}}, False),
            (Framing.FLAT_TRIPLES, {G: {INDEX_QUAD: None, INDEX_QUAD_2: None}}, False),
            (Framing.FLAT_TRIPLES, {None: {INDEX_LINE: None, INDEX_LINE_2: None}}, False),
            (Framing.FLAT_TRIPLES, {}, False),
            (Framing.FLAT_QUADS, {None: {INDEX_LINE: None}}, True),
            (Framing.FLAT_QUADS, {G: {INDEX_QUAD: None}}, True),
            (Framing.FLAT_QUADS, {G: {INDEX_QUAD: None, INDEX_QUAD_2: None}}, False),
            (Framing.FLAT_QUADS, {None: {INDEX_LINE: None}, G: {INDEX_QUAD: None}}, False),
            (Framing.FLAT_QUADS, {G: {}}, False),
            (Framing.FRAMED_GRAPHS, {}, True),
            (Framing.FRAMED_GRAPHS, {None: {INDEX_LINE: None, INDEX_LINE_2: None}}, True),
            (Framing.FRAMED_GRAPHS, {G: {INDEX_QUAD: None}}, False),
            (Framing.FRAMED_GRAPHS, {None: {INDEX_LINE: None}, G: {INDEX_QUAD: None}}, False),
            (Framing.FRAMED_DATASETS, {}, True),
            (Framing.FRAMED_DATASETS, {None: {INDEX_LINE: None}, G: {INDEX_QUAD: None, INDEX_QUAD_2: None}}, True),
            *((Framing.FRAMED_DATASETS, {None: {INDEX_LINE: None}, g: {INDEX_QUAD: None}}, False) for g in G_TERMS),
            *((Framing.DIR_DATASETS, {g: {INDEX_QUAD: None}}, False) for g in G_TERMS),
        ],
    )
    def test_an_index_that_does_not_fit_the_framing_is_mixed_payload(self, framing, index, fits):
        # A flat framing's index holds one line under one label, None for flat
        # triples; a graph framing's holds no label but None.  A dataset's
        # label is keyed by its token: a term key would never equal a line's
        # subject token, so the element would read as having no timestamp triple.
        classifier = Classifier(framing)
        classifier.feed({None: {INDEX_LINE: None}})
        if fits:
            classifier.feed(index)
            assert classifier.report().element_count == 2
        else:
            terms = {*map(type, index)} & {Iri, BlankNode}
            name = "dict keyed by a label term, not its token$" if terms else "dict of "
            with pytest.raises(MixedPayload, match=f"^element 1: {framing.value} framing cannot classify a {name}"):
                classifier.feed(index)
            assert classifier.report().element_count == 1

    def test_timestamp_patterns_are_compiled_once_at_their_first_stamp(self, monkeypatch):
        monkeypatch.setattr(staxkit.classify, "_timestamp_patterns", {})
        classify_stream([chain("s", "a"), chain("t", "b")], Framing.FRAMED_GRAPHS)
        assert staxkit.classify._timestamp_patterns == {}
        classifier = Classifier(Framing.FRAMED_DATASETS)
        classifier.feed(named_dataset("g1", stamp=dt("2024-01-01T00:00:00")))
        compiled = staxkit.classify._timestamp_patterns[XSD_DATETIME]
        classifier.feed(named_dataset("g2", stamp=dt("2024-01-02T00:00:00")))
        assert staxkit.classify._timestamp_patterns == {XSD_DATETIME: compiled}


class TestGreedyBlindSpot:
    def test_greedy_can_fail_where_backtracking_succeeds(self):
        # element 0 takes 'a' (the smaller candidate of its cycle), element 1
        # then needs exactly 'a'; exhaustive search would have given element 0
        # 'b' instead. The engine flags the ambiguity instead of solving it.
        cyc = Graph([Triple(iri("a"), P, iri("b")), Triple(iri("b"), P, iri("a"))])
        needs_a = chain("a", "z")
        report = classify_stream([cyc, needs_a], Framing.FRAMED_GRAPHS)
        assert "subjectGraphStream" not in report.conforming
        assert report.ambiguous
        verdicts, _ = oracle_classify([cyc, needs_a], "graphs")
        assert verdicts["subjectGraphStream"]  # a valid assignment exists

    def test_disagreements_on_random_streams_are_rare_and_flagged(self):
        r = random.Random(31337)
        disagreements = 0
        for _ in range(400):
            stream = gen_graph_stream(r)
            report = classify_stream(stream, Framing.FRAMED_GRAPHS)
            verdicts, _ = oracle_classify(stream, "graphs")
            got = "subjectGraphStream" in report.conforming
            want = verdicts["subjectGraphStream"]
            if got != want:
                disagreements += 1
                assert not got and want  # greedy is only ever too strict
                assert report.ambiguous
        assert disagreements <= 4  # < 1%


class TestUpwardClosure:
    def test_conforming_sets_are_upward_closed(self):
        # anything passing a narrow check passes every broader one
        r = random.Random(97)
        for _ in range(200):
            kind, elements = gen_classification_case(r)
            framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
            report = classify_stream(elements, framing)
            conforming = set(report.conforming)
            if "subjectGraphStream" in conforming:
                assert "graphStream" in conforming
            if "timestampedNamedGraphStream" in conforming:
                assert "namedGraphStream" in conforming
            if "namedGraphStream" in conforming:
                assert "datasetStream" in conforming

    def test_oracle_agrees_on_dataset_streams(self):
        r = random.Random(98)
        for _ in range(200):
            stream = gen_dataset_stream(r)
            report = classify_stream(stream, Framing.FRAMED_DATASETS)
            verdicts, _ = oracle_classify(stream, "datasets")
            for t in ("datasetStream", "namedGraphStream", "timestampedNamedGraphStream"):
                assert (t in report.conforming) == verdicts[t], (t, stream)


class TestConfig:
    def test_empty_predicates_rejected(self):
        with pytest.raises(ValueError):
            ClassifierConfig(timestamp_predicates=frozenset())

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            ClassifierConfig(max_evidence=-1)

    def test_is_an_immutable_value(self):
        cfg = ClassifierConfig(max_evidence=3)
        with pytest.raises(AttributeError):
            cfg.max_evidence = 4
        with pytest.raises(AttributeError):
            del cfg.check_timestamp_order
        assert cfg == ClassifierConfig(max_evidence=3) != ClassifierConfig()
        assert hash(cfg) == hash(ClassifierConfig(max_evidence=3))
        assert repr(ClassifierConfig()).startswith("ClassifierConfig(timestamp_predicates=frozenset(")


# One fixed input per framing, and the report the classifier gave for it
# before its flat and grouped loops became one; bytes (a directory for the
# dir framings) and the materialized elements must both give it.

def _line(*terms):
    return " ".join(terms) + " .\n"


def _x(name):
    return f"<{EX}{name}>"


def _stamp(graph, value):
    return _line(_x(graph), f"<{AT}>", f'"{value}"^^<{XSD_DATETIME}>')


FOLD_FLAT = {
    # (framing, input): a repeated statement is a statement again
    "flat-triples": (
        Framing.FLAT_TRIPLES,
        _line(_x("a"), _x("p"), _x("b")) + "# a comment\n" + _line(_x("a"), _x("p"), _x("b"))
        + _line("_:b", _x("p"), '"v"'),
    ),
    "flat-quads-default": (Framing.FLAT_QUADS, _line(_x("a"), _x("p"), _x("b")) + _line(_x("a"), _x("p"), '"v"')),
    "flat-quads-labelled": (
        Framing.FLAT_QUADS, _line(_x("a"), _x("p"), _x("b")) + _line(_x("a"), _x("p"), _x("b"), _x("g")),
    ),
    "flat-triples-empty": (Framing.FLAT_TRIPLES, ""),
    "flat-quads-empty": (Framing.FLAT_QUADS, "# only a comment\n"),
}
FOLD_ELEMENTS = {
    "graphs": [
        _line(_x("a"), _x("p"), _x("b")) + _line(_x("b"), _x("p"), '"leaf"@en'),
        _line(_x("c"), _x("p"), _x("d")) + _line(_x("d"), _x("p"), _x("c")),  # c and d: c is chosen
        _line(_x("a"), _x("p"), _x("e")),  # a is taken
        _line("_:r", _x("p"), _x("f")),  # no IRI reaches every node
        _line(_x("d"), _x("p"), _x("g")) + _line(_x("g"), _x("p"), _x("d")),  # d and g: d is chosen
    ],
    "datasets": [
        _line(_x("s"), _x("p"), _x("o"), _x("g1")) + _stamp("g1", "2024-01-02T00:00:00"),
        _stamp("g2", "2024-01-03T00:00:00") + _stamp("g2", "2024-01-01T00:00:00")
        + _line(_x("s"), _x("p"), _x("o"), _x("g2")),
        _line(_x("s"), _x("p"), _x("o"), _x("g3")) + _stamp("g3", "2024-01-01T00:00:00"),  # out of order
        _line(_x("s"), _x("p"), _x("o"), _x("g4")),  # no stamp
        _line(_x("s"), _x("p"), _x("o")),  # no named graph
        _line(_x("s"), _x("p"), _x("o"), _x("g5")) + _line(_x("s"), _x("p"), _x("o"), _x("g6")),
    ],
}


def _flat_report(framing, type_id, count, notes=()):
    return {
        "framing": framing, "elementCount": count, "statementCount": count, "applicable": [type_id],
        "conforming": [type_id], "mostSpecific": [type_id], "vacuous": count == 0, "ambiguous": False,
        "firstViolation": {}, "notes": list(notes), "evidence": [],
    }


_OK = {"pass": True}


def _failed(reason, detail):
    return {"pass": False, "reason": reason, "detail": detail}


_NOT_SINGLE_0 = _failed("not a single named graph", "expected exactly one named graph, found 0")
_NOT_SINGLE_2 = _failed("not a single named graph", "expected exactly one named graph, found 2")


def _dataset_evidence(index, named, timestamped):
    verdicts = {"datasetStream": _OK, "namedGraphStream": named, "timestampedNamedGraphStream": timestamped}
    return {"elementIndex": index, "verdicts": verdicts, "notes": []}


FOLD_REPORTS = {
    "flat-triples": _flat_report("flat-triples", "flatTripleStream", 3),
    "flat-quads-default": _flat_report(
        "flat-quads", "flatQuadStream", 2, ["projectable to flat triple stream: every quad is in the default graph"]
    ),
    "flat-quads-labelled": _flat_report("flat-quads", "flatQuadStream", 2),
    "flat-triples-empty": _flat_report("flat-triples", "flatTripleStream", 0),
    "flat-quads-empty": _flat_report("flat-quads", "flatQuadStream", 0),
    "graphs": {
        "elementCount": 5,
        "statementCount": 8,
        "applicable": ["graphStream", "subjectGraphStream"],
        "conforming": ["graphStream"],
        "mostSpecific": ["graphStream"],
        "vacuous": False,
        "ambiguous": True,
        "firstViolation": {"subjectGraphStream": {"elementIndex": 2, "reason": "subject not unique in stream"}},
        "notes": [
            f"element 1: 2 candidate subjects; chose {EX}c",
            f"element 4: 2 candidate subjects; chose {EX}d",
        ],
        "evidence": [
            {
                "elementIndex": 2,
                "verdicts": {
                    "graphStream": _OK,
                    "subjectGraphStream": _failed("subject not unique in stream", f"{EX}a first used by element 0"),
                },
                "notes": [],
            },
            {
                "elementIndex": 3,
                "verdicts": {
                    "graphStream": _OK,
                    "subjectGraphStream": _failed(
                        "no candidate subject node", "no IRI node reaches every node of the graph"
                    ),
                },
                "notes": [],
            },
        ],
    },
    "datasets": {
        "elementCount": 6,
        "statementCount": 11,
        "applicable": ["datasetStream", "namedGraphStream", "timestampedNamedGraphStream"],
        "conforming": ["datasetStream"],
        "mostSpecific": ["datasetStream"],
        "vacuous": False,
        "ambiguous": False,
        "firstViolation": {
            "namedGraphStream": {"elementIndex": 4, "reason": "not a single named graph"},
            "timestampedNamedGraphStream": {"elementIndex": 2, "reason": "timestamp order violation"},
        },
        "notes": ["element 1: multiple timestamp triples; first in document order wins"],
        "evidence": [
            _dataset_evidence(
                2, _OK, _failed("timestamp order violation", "timestamp precedes the one from element 1")
            ),
            _dataset_evidence(
                3, _OK, _failed("no timestamp triple", "default graph has no timestamp triple about the graph name")
            ),
            _dataset_evidence(4, _NOT_SINGLE_0, _NOT_SINGLE_0),
            _dataset_evidence(5, _NOT_SINGLE_2, _NOT_SINGLE_2),
        ],
    },
}


# classify_stream on bytes reads each graph as the reader's index of
# canonical lines and runs the candidate search over its IRI tokens.  Tokens
# sort otherwise than IRI values, and a token holding one of the writer's
# \u escapes is not its value between brackets: the report must still be
# the term path's, with every IRI printed by value.
_TOKEN_TRAPS = {
    # '<http://ex.org/x/>' sorts before '<http://ex.org/x>', but http://ex.org/x comes first.
    "prefix": (
        "<http://ex.org/x> <http://ex.org/p> <http://ex.org/x/> .\n"
        "<http://ex.org/x/> <http://ex.org/p> <http://ex.org/x> .\n",
        "element 0: 2 candidate subjects; chose http://ex.org/x",
        None,
    ),
    # The writer spells '|' as \u007C, and '\' sorts before ']' where '|' sorts after it.
    "escaped order": (
        "<http://ex.org/g\\u007c2> <http://ex.org/p> <http://ex.org/g]> .\n"
        "<http://ex.org/g]> <http://ex.org/p> <http://ex.org/g\\u007C2> .\n",
        "element 0: 2 candidate subjects; chose http://ex.org/g]",
        None,
    ),
    "escaped value": (
        "<http://ex.org/g\\u007C2> <http://ex.org/p> <http://ex.org/h> .\n"
        "<http://ex.org/h> <http://ex.org/p> <http://ex.org/g\\u007C2> .\n"
        "#---\n"
        '<http://ex.org/g\\u007C2> <http://ex.org/p> "v" .\n',
        "element 0: 2 candidate subjects; chose http://ex.org/g|2",
        "http://ex.org/g|2 first used by element 0",
    ),
}


@pytest.mark.parametrize("case", _TOKEN_TRAPS)
def test_candidate_tokens_are_ordered_and_printed_by_iri_value(case):
    text, note, detail = _TOKEN_TRAPS[case]
    data = text.encode()
    report = classify_stream(data, Framing.FRAMED_GRAPHS).to_dict()
    graphs = list(read_grouped_stream(data, Framing.FRAMED_GRAPHS))
    assert report == classify_stream(graphs, Framing.FRAMED_GRAPHS).to_dict()
    assert report["notes"] == [note]
    details = [e["verdicts"]["subjectGraphStream"].get("detail") for e in report["evidence"]]
    assert details == ([] if detail is None else [detail])


@pytest.mark.parametrize("stamp", [_x("t"), '"2024-01-01T00:00:00Z"@en'], ids=["IRI", "language-tagged literal"])
def test_a_stamp_that_is_no_typed_literal_is_read_from_its_token_as_from_its_term(stamp, monkeypatch):
    # A dataset index's first stamp is read from its object token, which for
    # this one never reaches the XSD rules; it is never ordered, so the later
    # element's stamp conforms too.
    calls, rules = [], staxkit.classify._comparable

    def recording(lexical, datatype):
        calls.append((lexical, datatype))
        return rules(lexical, datatype)

    monkeypatch.setattr(staxkit.classify, "_comparable", recording)
    data = "#---\n".join(_line(_x("s"), _x("p"), _x("o"), _x(g)) + _line(_x(g), f"<{AT}>", stamp)
                         for g in ("g2", "g1")).encode()
    report = classify_stream(data, Framing.FRAMED_DATASETS)
    assert calls == []
    assert report == classify_stream(list(read_grouped_stream(data, Framing.FRAMED_DATASETS)), Framing.FRAMED_DATASETS)
    assert report.conforming == ("datasetStream", "namedGraphStream", "timestampedNamedGraphStream")


class TestOneLoopForEveryFraming:
    @pytest.mark.parametrize("key", FOLD_FLAT)
    def test_flat(self, key):
        framing, text = FOLD_FLAT[key]
        data = text.encode("utf-8")
        assert classify_stream(data, framing).to_dict() == FOLD_REPORTS[key]
        assert classify_stream(list(read_flat_stream(data, framing)), framing).to_dict() == FOLD_REPORTS[key]

    @pytest.mark.parametrize("payload", ["graphs", "datasets"])
    def test_framed(self, payload):
        framing = Framing(f"framed-{payload}")
        data = "#---\n".join(FOLD_ELEMENTS[payload]).encode("utf-8")
        expected = {"framing": framing.value, **FOLD_REPORTS[payload]}
        assert classify_stream(data, framing).to_dict() == expected
        assert classify_stream(list(read_grouped_stream(data, framing)), framing).to_dict() == expected

    @pytest.mark.parametrize("payload", ["graphs", "datasets"])
    def test_dir(self, payload, tmp_path):
        framing = Framing(f"dir-{payload}")
        ext = ".nq" if framing.quads_payload else ".nt"
        for i, text in enumerate(FOLD_ELEMENTS[payload]):
            (tmp_path / f"{i:05d}{ext}").write_text(text, encoding="utf-8")
        expected = {"framing": framing.value, **FOLD_REPORTS[payload]}
        assert classify_stream(tmp_path, framing).to_dict() == expected
        assert classify_stream(list(read_grouped_stream(tmp_path, framing)), framing).to_dict() == expected
