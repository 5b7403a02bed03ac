"""Acceptance gate: eight scripted criteria, one printed line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion PASS/FAIL lines alongside pytest's own verdicts.
"""

import json
import random
import time

import pytest

from oracles import (
    oracle_broader_closure,
    oracle_classify,
    oracle_project,
    oracle_relation_closure,
    reference_parse_turtle,
    turtle_signature,
)
from streamgen import (
    framed_bytes,
    gen_classification_case,
    gen_dataset_elements,
    gen_graph_elements,
    gen_quad,
    gen_triple,
    gen_unique_statements,
)
from test_cli import CLASSIFY_SCHEMA, PATH_SCHEMA, VALIDATE_SCHEMA
from test_io import MALFORMED

from jsonschema import validate as schema_validate

from staxkit.annotate import (
    AnnotationManifest,
    StreamTypeUsage,
    emit_turtle,
    validate_usages,
)
from staxkit.classify import (
    PROV_GENERATED_AT_TIME,
    XSD_DATETIME,
    ClassifierConfig,
    classify_stream,
)
from staxkit.cli import main as cli_main
from staxkit.convert import extend, flatten_graphs, group_statements
from staxkit.errors import ParseError
from staxkit.io import (
    Framing,
    read_flat_stream,
    read_grouped_stream,
    write_dir_stream,
    write_flat_stream,
)
from staxkit.model import Dataset, Graph, Iri, Literal, Triple
from staxkit.taxonomy import default_taxonomy, infer_closure


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion} {status}: {label}{suffix}"
    print(line)
    assert ok, line


def test_criterion_1_taxonomy_fidelity():
    start = time.monotonic()
    tax = default_taxonomy()
    closed = infer_closure(tax)
    ids = tax.type_ids()

    ok = closed.broader_closure == oracle_broader_closure(ids, tax.edges("broader"))
    for name in ("flatten", "group", "extend"):
        ok = ok and closed.closure(name) == oracle_relation_closure(
            ids, tax.edges("broader"), tax.edges(name)
        )
    ok = ok and ("subjectGraphStream", "flatTripleStream") in closed.flatten_closure
    ok = ok and ("timestampedNamedGraphStream", "flatQuadStream") in closed.flatten_closure
    ok = ok and ("subjectGraphStream", "datasetStream") in closed.extend_closure
    ok = ok and ("graphStream", "flatQuadStream") not in closed.flatten_closure
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, "taxonomy closure matches the path-enumeration oracle", ok, f"{elapsed:.3f}s")


# Canonical two-usage annotation document for a dataset published both as
# datasets and as flat quads.
PUBLISHED_PATTERN = """\
@prefix dcat: <http://www.w3.org/ns/dcat#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix stax: <https://w3id.org/stax/ontology#> .

_:dataset a dcat:Dataset ;
    # ... other properties of the dataset ...
    stax:hasStreamTypeUsage [
        a stax:RdfStreamTypeUsage ;
        stax:hasStreamType stax:datasetStream ;
        rdfs:comment "The data is a sequence of RDF datasets."@en
    ] , [
        a stax:RdfStreamTypeUsage ;
        stax:hasStreamType stax:flatQuadStream ;
        rdfs:comment "The data can be viewed as a flat sequence of RDF quads."@en
    ] .
"""


def test_criterion_2_published_pattern_reproduction():
    manifest = AnnotationManifest(
        (
            StreamTypeUsage("datasetStream", "The data is a sequence of RDF datasets."),
            StreamTypeUsage(
                "flatQuadStream", "The data can be viewed as a flat sequence of RDF quads."
            ),
        )
    )
    inferred = infer_closure(default_taxonomy())
    consistent = validate_usages(manifest, inferred).consistent

    emitted = emit_turtle(manifest)
    want = turtle_signature(reference_parse_turtle(PUBLISHED_PATTERN))
    got = turtle_signature(reference_parse_turtle(emitted))
    same_triples = want == got
    same_count = len(reference_parse_turtle(PUBLISHED_PATTERN)) == len(
        reference_parse_turtle(emitted)
    )
    report(
        2,
        "two-usage annotation validates and re-emits the published triple multiset",
        consistent and same_triples and same_count,
    )


def test_criterion_3_definition_oracles():
    start = time.monotonic()
    r = random.Random(20240817)
    streams = 1500
    greedy_gaps = 0
    hard_failures = []
    for case in range(streams):
        kind, elements = gen_classification_case(r)
        framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
        engine = classify_stream(elements, framing)
        verdicts, _ = oracle_classify(elements, kind)
        for type_id, want in verdicts.items():
            got = type_id in engine.conforming
            if got == want:
                continue
            allowed = (
                type_id == "subjectGraphStream"
                and not got
                and want
                and engine.ambiguous
            )
            if allowed:
                greedy_gaps += 1
            else:
                hard_failures.append((case, type_id, got, want))
    elapsed = time.monotonic() - start
    ok = not hard_failures and greedy_gaps < streams * 0.01 and elapsed < 30.0
    report(
        3,
        "engine matches the brute-force definition oracle on 1500 seeded streams",
        ok,
        f"{greedy_gaps} flagged greedy gaps ({100 * greedy_gaps / streams:.2f}%), "
        f"{len(hard_failures)} hard failures, {elapsed:.2f}s",
    )


def test_criterion_4_hierarchy_coherence():
    inferred = infer_closure(default_taxonomy())
    r = random.Random(424242)
    violations = 0
    for _ in range(1000):
        kind, elements = gen_classification_case(r)
        framing = Framing.FRAMED_GRAPHS if kind == "graphs" else Framing.FRAMED_DATASETS
        engine = classify_stream(elements, framing)
        applicable = set(engine.applicable)
        conforming = set(engine.conforming)
        for t in conforming:
            for (a, b) in inferred.broader_closure:
                if a == t and b in applicable and b not in conforming:
                    violations += 1
    report(
        4,
        "conforming sets are upward-closed under the broader closure",
        violations == 0,
        f"{violations} violations over 1000 streams",
    )


def test_criterion_5_conversion_round_trips():
    start = time.monotonic()
    r = random.Random(555)
    ok = True
    for case in range(100):
        statements = gen_unique_statements(r, 1000, quads=False)
        for k in (1, 2, 3, 7, len(statements)):
            back = list(flatten_graphs(group_statements(iter(statements), k, "graphs")))
            ok = ok and back == statements
        ok = ok and oracle_project(extend(iter(statements), "triples"), "quads") == statements
        if case % 20 == 0:
            grouped = list(group_statements(iter(statements), 7, "graphs"))
            ok = ok and oracle_project(extend(iter(grouped), "graphs"), "datasets") == grouped
            g_report = classify_stream(grouped, Framing.FRAMED_GRAPHS)
            ok = ok and "graphStream" in g_report.conforming
            extended = list(extend(iter(grouped), "graphs"))
            d_report = classify_stream(extended, Framing.FRAMED_DATASETS)
            ok = ok and "datasetStream" in d_report.conforming
            flat_report = classify_stream(statements, Framing.FLAT_TRIPLES)
            ok = ok and flat_report.conforming == ("flatTripleStream",)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(
        5,
        "group/flatten and extend/project round-trip on 100x1000-statement streams",
        ok,
        f"{elapsed:.2f}s",
    )


CANONICAL = [
    (Framing.FLAT_TRIPLES, b"<http://ex.org/a> <http://ex.org/p> \"x\\ny\"@en .\n"),
    (Framing.FLAT_QUADS, b"_:s <http://ex.org/p> \"4\"^^<http://www.w3.org/2001/XMLSchema#integer> _:g .\n"),
    (
        Framing.FRAMED_GRAPHS,
        b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n#---\n#---\n_:x <http://ex.org/q> \"two\" .\n",
    ),
]


def test_criterion_6_io_exactness(tmp_path):
    r = random.Random(66)
    ok = True

    for _ in range(40):
        triples = [gen_triple(r) for _ in range(r.randint(0, 25))]
        ok = ok and list(
            read_flat_stream(write_flat_stream(triples, Framing.FLAT_TRIPLES), Framing.FLAT_TRIPLES)
        ) == triples
        quads = [gen_quad(r) for _ in range(r.randint(0, 25))]
        ok = ok and list(
            read_flat_stream(write_flat_stream(quads, Framing.FLAT_QUADS), Framing.FLAT_QUADS)
        ) == quads
        graphs = gen_graph_elements(r)
        ok = ok and list(
            read_grouped_stream(
                framed_bytes(graphs, Framing.FRAMED_GRAPHS), Framing.FRAMED_GRAPHS
            )
        ) == graphs
        datasets = gen_dataset_elements(r)
        ok = ok and list(
            read_grouped_stream(
                framed_bytes(datasets, Framing.FRAMED_DATASETS), Framing.FRAMED_DATASETS
            )
        ) == datasets

    for i in range(10):
        graphs = gen_graph_elements(r)
        d = tmp_path / f"g{i}"
        write_dir_stream(graphs, Framing.DIR_GRAPHS, d)
        ok = ok and list(read_grouped_stream(d, Framing.DIR_GRAPHS)) == graphs
        datasets = gen_dataset_elements(r)
        d = tmp_path / f"d{i}"
        write_dir_stream(datasets, Framing.DIR_DATASETS, d)
        ok = ok and list(read_grouped_stream(d, Framing.DIR_DATASETS)) == datasets

    for framing, fixture in CANONICAL:
        if framing.is_flat:
            back = write_flat_stream(read_flat_stream(fixture, framing), framing)
        else:
            back = framed_bytes(read_grouped_stream(fixture, framing), framing)
        ok = ok and back == fixture

    negative = 0
    for line, mode, _, column in MALFORMED:
        # embed each malformed line behind a comment and a good line so the
        # reported position is a real file coordinate, not just a default
        prefix = "# header\n<http://ok:1> <http://ok:2> <http://ok:3> .\n"
        if mode == "quads":
            framing = Framing.FLAT_QUADS
        else:
            framing = Framing.FLAT_TRIPLES
        payload = (prefix + line + "\n").encode("utf-8")
        try:
            list(read_flat_stream(payload, framing))
        except ParseError as exc:
            if exc.line == 3 and exc.column >= 1 and (column is None or exc.column == column):
                negative += 1
        else:
            pass
    ok = ok and negative >= 20
    report(
        6,
        "round-trips hold in all six framings and malformed lines carry positions",
        ok,
        f"{negative} negative fixtures verified",
    )


def _rsp_fixture():
    """Three timestamped named graphs in ascending order."""
    elements = []
    for i, stamp in enumerate(
        ["2024-01-01T08:00:00Z", "2024-01-01T09:00:00Z", "2024-01-01T10:00:00Z"]
    ):
        name = Iri(f"http://ex.org/obs/{i}")
        elements.append(
            Dataset(
                default_graph=Graph(
                    [Triple(name, PROV_GENERATED_AT_TIME, Literal(stamp, datatype=XSD_DATETIME))]
                ),
                named_graphs=[
                    (
                        name,
                        Graph(
                            [
                                Triple(
                                    Iri(f"http://ex.org/sensor/{i}"),
                                    Iri("http://ex.org/reading"),
                                    Literal(str(20 + i)),
                                )
                            ]
                        ),
                    )
                ],
            )
        )
    return elements


def test_criterion_7_timestamped_semantics():
    elements = _rsp_fixture()
    full = classify_stream(elements, Framing.FRAMED_DATASETS)
    ok = full.most_specific == ("timestampedNamedGraphStream",)

    # drop the timestamp triple of the middle element
    stripped = list(elements)
    stripped[1] = Dataset(default_graph=Graph(), named_graphs=stripped[1].named_items())
    demoted = classify_stream(stripped, Framing.FRAMED_DATASETS)
    ok = ok and demoted.most_specific == ("namedGraphStream",)
    ok = ok and demoted.first_violation["timestampedNamedGraphStream"].element_index == 1

    # swap the first two timestamps: the violation shows at element 1
    def with_stamp(element, stamp):
        name = element.named_items()[0][0]
        return Dataset(
            default_graph=Graph(
                [Triple(name, PROV_GENERATED_AT_TIME, Literal(stamp, datatype=XSD_DATETIME))]
            ),
            named_graphs=element.named_items(),
        )

    swapped = [
        with_stamp(elements[0], "2024-01-01T09:00:00Z"),
        with_stamp(elements[1], "2024-01-01T08:00:00Z"),
        elements[2],
    ]
    violated = classify_stream(swapped, Framing.FRAMED_DATASETS)
    fv = violated.first_violation.get("timestampedNamedGraphStream")
    ok = ok and fv is not None and fv.element_index == 1
    ok = ok and fv.reason == "timestamp order violation"
    ok = ok and violated.most_specific == ("namedGraphStream",)
    report(7, "timestamped named graph fixture classifies, demotes, and localizes", ok)


def test_criterion_8_cli_contract(tmp_path, capsys):
    graphs = tmp_path / "stream.bin"
    graphs.write_bytes(
        b"<http://ex.org/r0> <http://ex.org/p> <http://ex.org/l0> .\n#---\n"
        b"<http://ex.org/r1> <http://ex.org/p> <http://ex.org/l1> .\n"
    )
    bad = tmp_path / "bad.nt"
    bad.write_bytes(b"nonsense\n")
    manifest_ok = tmp_path / "ok.json"
    manifest_ok.write_text(
        json.dumps({"usages": [{"streamType": "datasetStream"}, {"streamType": "flatQuadStream"}]})
    )
    manifest_bad = tmp_path / "bad.json"
    manifest_bad.write_text(
        json.dumps({"usages": [{"streamType": "graphStream"}, {"streamType": "flatQuadStream"}]})
    )
    out_nt = tmp_path / "out.nt"

    scenarios = [
        (["classify", "--input", str(graphs), "--framing", "framed-graphs", "--json"], 0),
        (["taxonomy", "relate", "flatten", "graphStream", "flatQuadStream"], 0),
        (
            [
                "convert",
                "--input", str(graphs),
                "--output", str(out_nt),
                "--from", "graphStream",
                "--to", "flatTripleStream",
            ],
            0,
        ),
        (
            [
                "convert",
                "--input", str(graphs),
                "--output", "-",
                "--from", "graphStream",
                "--to", "flatQuadStream",
            ],
            1,
        ),
        (
            [
                "classify",
                "--input", str(graphs),
                "--framing", "framed-graphs",
                "--expect", "subjectGraphStream",
            ],
            0,
        ),
        (["validate", "--manifest", str(manifest_bad), "--json"], 1),
        (["taxonomy", "relate", "flatten", "mystery", "flatQuadStream"], 2),
        (
            [
                "convert",
                "--input", str(graphs),
                "--output", "-",
                "--from", "graphStream",
                "--to", "flatTripleStream",
                "--batch-size", "0",
            ],
            2,
        ),
        (["classify", "--input", str(bad), "--framing", "flat-triples"], 3),
        (["classify", "--input", str(tmp_path / "absent.nt"), "--framing", "flat-triples"], 3),
        (["validate", "--manifest", str(manifest_ok), "--json"], 0),
        (["taxonomy", "path", "graphStream", "flatQuadStream", "--policy", "transitive", "--json"], 0),
    ]

    ok = True
    details = []
    for argv, want in scenarios:
        got = cli_main(argv)
        capsys.readouterr()
        if got != want:
            ok = False
            details.append(f"{' '.join(argv)} -> {got}, wanted {want}")

    # schema validity
    cli_main(["classify", "--input", str(graphs), "--framing", "framed-graphs", "--json"])
    classify_doc = json.loads(capsys.readouterr().out)
    schema_validate(classify_doc, CLASSIFY_SCHEMA)
    cli_main(["validate", "--manifest", str(manifest_ok), "--json"])
    schema_validate(json.loads(capsys.readouterr().out), VALIDATE_SCHEMA)
    cli_main(["taxonomy", "path", "graphStream", "flatQuadStream", "--policy", "transitive", "--json"])
    schema_validate(json.loads(capsys.readouterr().out), PATH_SCHEMA)

    # determinism
    cli_main(["classify", "--input", str(graphs), "--framing", "framed-graphs", "--json"])
    first = capsys.readouterr().out
    cli_main(["classify", "--input", str(graphs), "--framing", "framed-graphs", "--json"])
    second = capsys.readouterr().out
    ok = ok and first == second

    report(
        8,
        "CLI exit codes, schema-valid JSON, and deterministic output",
        ok,
        "; ".join(details) if details else "11 scenarios",
    )
