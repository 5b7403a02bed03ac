"""Traced in-process run: every layer of stax-kit timed on its own.

The corpus goes through the package's public functions one stage at a
time, each stage working on the previous stage's output, already built in
memory.  A span (name, start, end, parent, run id) is recorded around every
call into a layer; spans are kept in memory and written out, with each
span's self time, when the run ends.  The same pipeline also runs with
tracing off, alternating with the traced one, and the median difference
within a pair is reported as trace.overhead_s.

Every workload goes through every stage, so each layer's number is there
for every workload; the stages a workload's CLI command does not run show
what that layer would cost on its data.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from staxkit.annotate import cross_check, load_manifest, validate_usages  # noqa: E402
from staxkit.classify import (  # noqa: E402
    PROV_GENERATED_AT_TIME,
    ClassifierConfig,
    candidate_subject_nodes,
    classify_stream,
    comparable_timestamp,
)
from staxkit.convert import convert  # noqa: E402
from staxkit.io import (  # noqa: E402
    Framing,
    LineKind,
    parse_statement_line,
    read_grouped_stream,
    write_flat_stream,
)
from staxkit.model import BlankNode, Dataset, Graph, Iri, Literal, Quad, Triple  # noqa: E402
from staxkit.taxonomy import conversion_path, default_taxonomy, infer_closure  # noqa: E402

MIN_PAIRS = 2
# Spans whose median duration is reported as the per-layer metric <name>_s.
TIMED_SPANS = (
    "io.read", "io.parse", "model.term_build", "model.element_build", "io.write",
    "convert.run", "classify.stream", "classify.candidates", "classify.timestamp",
    "annotate.validate", "annotate.cross_check", "taxonomy.infer", "taxonomy.path",
)

# name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "io.read_s": "s",
    "io.parse_s": "s",
    "io.frame_self_s": "s",
    "io.lines": "count",
    "io.statements": "count",
    "model.term_build_s": "s",
    "model.element_build_s": "s",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "io.write_peak_mb": "MB",
    "convert.run_s": "s",
    "convert.items_out": "count",
    "classify.stream_s": "s",
    "classify.candidates_s": "s",
    "classify.iri_nodes": "count",
    "classify.multi_candidate_share": "ratio",
    "classify.timestamp_s": "s",
    "annotate.validate_s": "s",
    "annotate.cross_check_s": "s",
    "taxonomy.infer_s": "s",
    "taxonomy.path_s": "s",
    "trace.overhead_s": "s",
    "io.escape_line_share": "ratio",
    "io.iri_repeat_share": "ratio",
    "src.lines": "count",
}


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.run_id = 0
        # [name, start, end, parent index, run id]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def records(self) -> list[dict]:
        """Every span with its parent and self time (duration minus its children's)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "run_id": run_id,
                "parent": parent,
                "parent_name": None if parent is None else self.spans[parent][0],
                "start_s": start - origin,
                "end_s": end - origin,
                "self_s": end - start - child_time[i],
            }
            for i, (name, start, end, parent, run_id) in enumerate(self.spans)
        ]

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def _term(term):
    if isinstance(term, Iri):
        return Iri(term.value)
    if isinstance(term, BlankNode):
        return BlankNode(term.label)
    return Literal(term.lexical, term.datatype, term.language)


def _rebuild(parsed, quads: bool) -> list[list]:
    """Rebuild each parsed statement through the public constructors, per element."""
    groups: list[list] = [[]]
    for line in parsed:
        if line.kind is LineKind.FRAME_DELIMITER:
            groups.append([])
        elif line.statement is not None:
            st = line.statement
            s, p, o = _term(st.subject), Iri(st.predicate.value), _term(st.object)
            if quads:
                g = st.graph_label
                groups[-1].append(Quad(s, p, o, None if g is None else _term(g)))
            else:
                groups[-1].append(Triple(s, p, o))
    return groups


def _graphs(elements) -> list[Graph]:
    """Graphs the subject check looks at: graph elements, or each named graph."""
    if elements and isinstance(elements[0], Dataset):
        return [g for d in elements for _, g in d.named_items()]
    return list(elements)


def _timestamp_terms(elements) -> list:
    triples = []
    for e in elements:
        triples.extend(e.default_graph if isinstance(e, Dataset) else e)
    return [t.object for t in triples if t.predicate == PROV_GENERATED_AT_TIME]


def _pipeline(corpus, lines: list[str], manifest, tracer: Tracer) -> dict:
    framing = Framing(corpus.framing)
    quads = framing.quads_payload
    source_type = "datasetStream" if quads else "graphStream"
    with tracer.span("pipeline"):
        with tracer.span("taxonomy.infer"):
            inferred = infer_closure(default_taxonomy())
        with tracer.span("taxonomy.path"):
            conversion_path(inferred, source_type, "flatQuadStream", "transitive")
        with tracer.span("io.read"):
            elements = list(read_grouped_stream(corpus.data, framing))
        with tracer.span("io.parse"):
            parsed = [parse_statement_line(line, "quads", no) for no, line in enumerate(lines, 1)]
        with tracer.span("model.term_build"):
            groups = _rebuild(parsed, quads)
        with tracer.span("model.element_build"):
            built = [Dataset.from_quads(g) if quads else Graph(g) for g in groups]
        with tracer.span("classify.stream"):
            report = classify_stream(built, framing, ClassifierConfig(), inferred)
        graphs = _graphs(built)
        with tracer.span("classify.candidates"):
            candidates = [candidate_subject_nodes(g) for g in graphs]
        stamps = _timestamp_terms(built)
        with tracer.span("classify.timestamp"):
            for term in stamps:
                comparable_timestamp(term)
        with tracer.span("convert.run"):
            out = list(convert(built, source_type, "flatQuadStream", inferred, "transitive"))
        with tracer.span("io.write"):
            payload = write_flat_stream(out, Framing.FLAT_QUADS)
        with tracer.span("annotate.validate"):
            validation = validate_usages(manifest, inferred)
        with tracer.span("annotate.cross_check"):
            checked = cross_check(manifest, report, inferred)
    if corpus.manifest is not None:
        doc = validation.to_dict()
        doc["crossCheck"] = checked.to_dict()["crossCheck"]
    else:
        doc = report.to_dict()
    return {
        "elements": elements,
        "built": built,
        "parsed": parsed,
        "graphs": graphs,
        "candidates": candidates,
        "out": out,
        "payload": payload,
        "doc": doc,
    }


def _check(corpus, result: dict) -> str | None:
    if result["built"] != result["elements"]:
        return "elements rebuilt from parsed lines differ from read_grouped_stream's"
    return corpus.check_flat(result["payload"]) or corpus.check_report(result["doc"])


def _manifest_text(corpus) -> str:
    if corpus.manifest is not None:
        return corpus.manifest.read_text()
    return json.dumps({"usages": [{"streamType": "graphStream"}, {"streamType": "flatTripleStream"}]})


def _input_properties(lines: list[str], parsed) -> dict:
    statements = [p.statement for p in parsed if p.statement is not None]
    iris = [
        term.value
        for st in statements
        for term in (st.subject, st.predicate, st.object, st.graph_label)
        if isinstance(term, Iri)
    ]
    return {
        "io.lines": len(lines),
        "io.statements": len(statements),
        "io.escape_line_share": sum("\\" in line for line in lines if not line.startswith("#"))
        / max(1, len(statements)),
        "io.iri_repeat_share": 1 - len(set(iris)) / len(iris) if iris else 0.0,
    }


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "staxkit").glob("*.py"))


def traced_run(corpus, seconds: float, out_path: Path) -> dict:
    """Alternate traced and untraced pipelines for `seconds`; write the spans."""
    lines = corpus.data.read_text("utf-8").splitlines()
    manifest = load_manifest(_manifest_text(corpus))
    tracer, plain = Tracer(), Tracer(enabled=False)
    traced_totals: list[float] = []
    plain_totals: list[float] = []
    errors: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    passes = [(tracer, traced_totals), (plain, plain_totals)]
    while len(traced_totals) < MIN_PAIRS or time.perf_counter() < deadline:
        passes.reverse()  # alternate which pass of a pair runs first
        for t, totals in passes:
            t.run_id += 1
            start = time.perf_counter()
            result = _pipeline(corpus, lines, manifest, t)
            totals.append(time.perf_counter() - start)
            attempted += 1
            why = _check(corpus, result)
            if why is not None:
                errors.append(why)

    tracemalloc.start()
    try:
        write_flat_stream(result["out"], Framing.FLAT_QUADS)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    frame_self = [
        read - parse - build
        for read, parse, build in zip(
            tracer.durations("io.read"),
            tracer.durations("io.parse"),
            tracer.durations("model.element_build"),
        )
    ]
    graphs, candidates = result["graphs"], result["candidates"]
    values = {
        **{f"{name}_s": statistics.median(tracer.durations(name)) for name in TIMED_SPANS},
        **_input_properties(lines, result["parsed"]),
        "io.frame_self_s": statistics.median(frame_self),
        "io.write_bytes": len(result["payload"]),
        "io.write_peak_mb": write_peak / 1e6,
        "convert.items_out": len(result["out"]),
        "classify.iri_nodes": sum(
            1 for g in graphs for n in g.nodes() if isinstance(n, Iri)
        ),
        "classify.multi_candidate_share": sum(len(c) > 1 for c in candidates) / max(1, len(graphs)),
        "trace.overhead_s": statistics.median(
            traced - plain for traced, plain in zip(traced_totals, plain_totals)
        ),
        "src.lines": src_line_count(),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    spans = tracer.records()
    out_path.write_text(json.dumps({
        "workload": corpus.workload,
        "metrics": metrics,
        "pipeline_traced_s": traced_totals,
        "pipeline_untraced_s": plain_totals,
        "spans": spans,
    }, indent=1))
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "spans": spans,
        "path": out_path,
    }


def print_layers(workload: str, result: dict) -> None:
    print(f"== {workload}: per layer (in-process, traced)")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:<14.6g} {m['unit']}")
    last_run = max(s["run_id"] for s in result["spans"])
    print(f"  spans of run {last_run} (name, parent, self time):")
    for s in result["spans"]:
        if s["run_id"] == last_run:
            print(f"    {s['name']:<24} {s['parent_name'] or '-':<10} {s['self_s']:.6f} s")
    print(f"  every span written to {result['path'].relative_to(ROOT)}")
    for err in result["errors"][:5]:
        print(f"  error: {err}")
