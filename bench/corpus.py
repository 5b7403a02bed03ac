"""Seeded benchmark corpora and the results the CLI must produce on them.

Every line is formatted here with plain string code, never with staxkit.io,
and every expected result follows from how the corpus was built, not from
running the package: the same standard as the oracles in tests/oracles.py.
The same (workload, seed, scale) always gives byte-identical files.

Each workload writes one framed stream.  Its statement lines are canonical
N-Triples/N-Quads (single spaces, minimal literal escapes, no xsd:string
suffix), no element repeats a statement, and in dataset elements the
default-graph line comes first.  So converting any of them to a flat quad
stream must print exactly the input minus its '#---' lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

EX = "http://example.org/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
PROV_AT = "http://www.w3.org/ns/prov#generatedAtTime"
DELIMITER = "#---"

CONVERT = "convert-graphs-to-quads"
CLASSIFY = "classify-linked-graphs"
VALIDATE = "validate-timestamped-datasets"
WORKLOADS = (CONVERT, CLASSIFY, VALIDATE)

# Elements per corpus at scale 1.0, sized so that one CLI run takes a
# fraction of a second to a second, well above interpreter start-up.
ELEMENTS = {CONVERT: 240, CLASSIFY: 14, VALIDATE: 1200}

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
          "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"]
_LANGS = ["en", "de", "pl", "en-GB"]
_ESCAPE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _iri(value: str) -> str:
    return f"<{value}>"


def _literal(lexical: str, language: str | None = None, datatype: str | None = None) -> str:
    body = '"' + lexical.translate(_ESCAPE) + '"'
    if language is not None:
        return f"{body}@{language}"
    if datatype is not None:
        return f"{body}^^<{datatype}>"
    return body


@dataclass(frozen=True)
class Corpus:
    """One workload's generated files and what its CLI run must print."""

    workload: str
    directory: Path
    data: Path
    framing: str
    statements: int
    elements: int
    expected_flat: bytes
    expected_report: dict
    manifest: Path | None = None

    @property
    def input_bytes(self) -> int:
        return self.data.stat().st_size

    def cli_args(self) -> list[str]:
        """Arguments of the timed CLI call, after `python -m staxkit.cli`."""
        if self.workload == CONVERT:
            return ["convert", "--input", str(self.data), "--from", "graphStream",
                    "--to", "flatQuadStream", "--policy", "transitive", "--output", "-"]
        if self.workload == CLASSIFY:
            return ["classify", "--input", str(self.data), "--framing", self.framing, "--json"]
        return ["validate", "--manifest", str(self.manifest), "--data", str(self.data),
                "--framing", self.framing, "--json"]

    def check(self, returncode: int, stdout: bytes) -> str | None:
        """None when the CLI run produced the expected result, else why not."""
        if returncode != 0:
            return f"exit code {returncode}"
        if self.workload == CONVERT:
            return self.check_flat(stdout)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        return self.check_report(doc)

    def check_flat(self, output: bytes) -> str | None:
        """None when output is the expected flat quad stream."""
        if output == self.expected_flat:
            return None
        expected = self.expected_flat
        at = next(
            (i for i, (a, b) in enumerate(zip(output, expected)) if a != b),
            min(len(output), len(expected)),
        )
        return f"flat output differs at byte {at} ({len(output)} vs {len(expected)} bytes)"

    def check_report(self, doc: dict) -> str | None:
        """None when a classify or validate JSON report has the expected verdicts."""
        got = {key: doc.get(key) for key in self.expected_report}
        if isinstance(got.get("crossCheck"), list):
            got["crossCheck"] = [[e.get("streamType"), e.get("pass")] for e in got["crossCheck"]]
        if got != self.expected_report:
            return f"report {got} != expected {self.expected_report}"
        return None


def _write(directory: Path, name: str, elements: list[list[str]]) -> tuple[Path, bytes]:
    """Write the framed file; return its path and the expected flat output."""
    body = f"\n{DELIMITER}\n".join("\n".join(lines) for lines in elements) + "\n"
    path = directory / name
    path.write_bytes(body.encode("utf-8"))
    flat = "".join(line + "\n" for lines in elements for line in lines)
    return path, flat.encode("utf-8")


def _plain_literal(r: random.Random) -> str:
    roll = r.random()
    if roll < 0.45:
        return _literal(f"{r.choice(_WORDS)} {r.randrange(1000)}")
    if roll < 0.55:
        return _literal(f"zażółć {r.choice(_WORDS)} ünïcödé {r.randrange(100)}")
    if roll < 0.8:
        return _literal(r.choice(_WORDS), language=r.choice(_LANGS))
    return _literal(str(r.randrange(100_000)), datatype=XSD + "integer")


def _escaped_literal(r: random.Random) -> str:
    word = r.choice(_WORDS)
    return _literal(
        r.choice([
            f'say "{word}" twice',
            f"{word}\nsecond line",
            f"{word}\tcolumn {r.randrange(10)}",
            f"C:\\{word}\\{r.randrange(100)}",
            f'mixed "{word}"\n\t\\ end',
        ])
    )


def _convert_elements(r: random.Random, count: int) -> list[list[str]]:
    """Random graphs of about 50 statements; about 7% of lines have escapes."""
    elements = []
    for _ in range(count):
        lines: dict[str, None] = {}
        size = r.randint(40, 60)
        while len(lines) < size:
            if r.random() < 0.85:
                subject = _iri(f"{EX}res/{r.randrange(3000)}")
            else:
                subject = f"_:b{r.randrange(40)}"
            predicate = _iri(f"{EX}p/{r.choice(_WORDS)}")
            roll = r.random()
            if roll < 0.07:
                obj = _escaped_literal(r)
            elif roll < 0.45:
                obj = _iri(f"{EX}res/{r.randrange(3000)}")
            elif roll < 0.53:
                obj = f"_:b{r.randrange(40)}"
            else:
                obj = _plain_literal(r)
            lines.setdefault(f"{subject} {predicate} {obj} .")
        elements.append(list(lines))
    return elements


def _classify_elements(r: random.Random, count: int) -> list[list[str]]:
    """Trees of about 150 IRIs linked both ways, so every IRI reaches every node."""
    has_part = _iri(EX + "p/hasPart")
    is_part_of = _iri(EX + "p/isPartOf")
    label = _iri(RDFS_LABEL)
    elements = []
    for e in range(count):
        nodes = [_iri(f"{EX}item/{e}")]
        lines = []
        for j in range(r.randint(140, 160) - 1):
            child = _iri(f"{EX}item/{e}/part/{j}")
            parent = r.choice(nodes)
            lines.append(f"{parent} {has_part} {child} .")
            lines.append(f"{child} {is_part_of} {parent} .")
            nodes.append(child)
        for j, node in enumerate(nodes):
            if r.random() < 0.3:
                lines.append(f"{node} {label} {_literal(f'part {j} of item {e}', r.choice(_LANGS))} .")
        r.shuffle(lines)
        elements.append(lines)
    return elements


def _validate_elements(r: random.Random, count: int) -> list[list[str]]:
    """One named graph of about 8 readings each; non-decreasing timestamps."""
    generated = _iri(PROV_AT)
    reading = _iri(EX + "p/reading")
    seconds = 0
    elements = []
    for e in range(count):
        graph = _iri(f"{EX}obs/{e}")
        seconds += r.choice([0, 1, 30, 60, 120])
        day, rest = divmod(seconds, 86_400)
        stamp = f"2024-01-{day + 1:02d}T{rest // 3600:02d}:{rest // 60 % 60:02d}:{rest % 60:02d}Z"
        lines = [f"{graph} {generated} {_literal(stamp, datatype=XSD + 'dateTime')} ."]
        sensors = r.sample(range(60), r.randint(6, 10))
        for k in sensors:
            value = _literal(f"{r.randrange(-200, 400) / 10:.1f}", datatype=XSD + "decimal")
            lines.append(f"{_iri(f'{EX}sensor/{k}')} {reading} {value} {graph} .")
        elements.append(lines)
    return elements


def generate(workload: str, seed: int, directory: Path, scale: float = 1.0) -> Corpus:
    """Write the corpus of one workload into directory and return it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    r = random.Random(f"{workload}:{seed}")
    count = max(2, round(ELEMENTS[workload] * scale))
    if workload == CONVERT:
        elements = _convert_elements(r, count)
    elif workload == CLASSIFY:
        elements = _classify_elements(r, count)
    else:
        elements = _validate_elements(r, count)
    statements = sum(len(lines) for lines in elements)
    data, flat = _write(directory, "data.nq" if workload == VALIDATE else "data.nt", elements)
    if workload == VALIDATE:
        manifest = directory / "manifest.json"
        manifest.write_text(json.dumps({"usages": [
            {"streamType": "timestampedNamedGraphStream"},
            {"streamType": "flatQuadStream"},
        ]}))
        report = {
            "consistent": True,
            "violations": [],
            "crossCheck": [["timestampedNamedGraphStream", True], ["flatQuadStream", True]],
        }
        return Corpus(workload, directory, data, "framed-datasets", statements, count,
                      flat, report, manifest)
    # The convert corpus holds random graphs, so only its counts are known.
    # In the linked corpus every IRI reaches every node of its element and no
    # IRI is shared between elements, so every element has several unused
    # candidate subjects.
    report = {"elementCount": count, "statementCount": statements}
    if workload == CLASSIFY:
        report.update(conforming=["graphStream", "subjectGraphStream"], ambiguous=True)
    return Corpus(workload, directory, data, "framed-graphs", statements, count, flat, report)
