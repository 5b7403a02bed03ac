import contextlib
import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate as schema_validate

import staxkit.cli
import staxkit.commands
import staxkit.io
import staxkit.writer
from staxkit.annotate import ValidationReport, cross_check, emit_turtle, load_manifest, validate_usages
from staxkit.cli import main
from staxkit.commands import _framing_for
from staxkit.errors import (
    AbstractType,
    InvalidBatchSize,
    NoConversionPath,
    Nonconforming,
    ParseError,
    StaxError,
    UnknownType,
    UsageError,
)
from staxkit.classify import ClassifierConfig, classify_stream
from staxkit.convert import convert
from staxkit.framing import Framing, Payload
from staxkit.io import read_flat_stream, read_grouped_stream
from staxkit.model import BlankNode, Iri, Literal, Quad, Triple
from staxkit.taxonomy import TypeKind, default_taxonomy, infer_closure, load_taxonomy, payload_kind, plan
from staxkit.writer import serialize_statement, write_stream
from test_classify import xsd_timestamps
from test_hygiene import readme_json_example

TRIPLE_LINE = b"<http://ex.org/s%d> <http://ex.org/p> <http://ex.org/o%d> .\n"
QUAD_LINE = b"<http://ex.org/s%d> <http://ex.org/p> <http://ex.org/o%d> <http://ex.org/g%d> .\n"


def flat_triples(n=3):
    return b"".join(TRIPLE_LINE % (i, i) for i in range(n))


def framed_graphs(*sizes):
    # element i is a star rooted at one fresh subject IRI
    def element(i, size):
        return b"".join(
            b"<http://ex.org/root%d> <http://ex.org/p> <http://ex.org/leaf%d-%d> .\n" % (i, i, j)
            for j in range(size)
        )

    return b"#---\n".join(element(i, s) for i, s in enumerate(sizes))


def timestamped_datasets(*stamps, datatypes=None):
    """Framed datasets; element i is named graph g<i>, stamped stamps[i] of
    type datatypes[i] (an XSD local name, dateTime by default)."""
    parts = []
    for i, stamp in enumerate(stamps):
        datatype = datatypes[i] if datatypes else "dateTime"
        block = (
            b'<http://ex.org/g%d> <http://www.w3.org/ns/prov#generatedAtTime> "%s"^^<http://www.w3.org/2001/XMLSchema#%s> .\n'
            % (i, stamp.encode(), datatype.encode())
        )
        block += b"<http://ex.org/s%d> <http://ex.org/p> <http://ex.org/o%d> <http://ex.org/g%d> .\n" % (i, i, i)
        parts.append(block)
    return b"#---\n".join(parts)


MANIFEST_OK = {"usages": [{"streamType": "datasetStream"}, {"streamType": "flatQuadStream"}]}
MANIFEST_BAD_PAIR = {"usages": [{"streamType": "graphStream"}, {"streamType": "flatQuadStream"}]}


CLASSIFY_SCHEMA = {
    "type": "object",
    "required": [
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
    ],
    "additionalProperties": False,
    "properties": {
        "framing": {"type": "string"},
        "elementCount": {"type": "integer", "minimum": 0},
        "statementCount": {"type": "integer", "minimum": 0},
        "applicable": {"type": "array", "items": {"type": "string"}},
        "conforming": {"type": "array", "items": {"type": "string"}},
        "mostSpecific": {"type": "array", "items": {"type": "string"}},
        "vacuous": {"type": "boolean"},
        "ambiguous": {"type": "boolean"},
        "firstViolation": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["elementIndex", "reason"],
                "properties": {
                    "elementIndex": {"type": "integer", "minimum": 0},
                    "reason": {"type": "string"},
                },
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
        "evidence": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["elementIndex", "verdicts", "notes"],
                "properties": {
                    "elementIndex": {"type": "integer"},
                    "verdicts": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["pass"],
                            "properties": {
                                "pass": {"type": "boolean"},
                                "reason": {"type": "string"},
                                "detail": {"type": "string"},
                            },
                        },
                    },
                    "notes": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}

VALIDATE_SCHEMA = {
    "type": "object",
    "required": ["consistent", "violations"],
    "properties": {
        "consistent": {"type": "boolean"},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "usages", "message"],
                "properties": {
                    "rule": {"enum": ["pair-relation", "same-side"]},
                    "usages": {"type": "array", "items": {"type": "string"}},
                    "message": {"type": "string"},
                },
            },
        },
        "crossCheck": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["streamType", "pass", "message"],
                "properties": {
                    "streamType": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "message": {"type": "string"},
                },
            },
        },
    },
}

PATH_SCHEMA = {
    "type": "object",
    "required": ["from", "to", "policy", "path"],
    "properties": {
        "from": {"type": "string"},
        "to": {"type": "string"},
        "policy": {"enum": ["strict", "transitive"]},
        "path": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["relation", "source", "target"],
                "properties": {
                    "relation": {"enum": ["flatten", "group", "extend"]},
                    "source": {"type": "string"},
                    "target": {"type": "string"},
                },
            },
        },
    },
}


def set_stdin(monkeypatch, payload: bytes):
    fake = io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", fake)


class LineOnlyStdin:
    """A stdin whose binary buffer yields lines but refuses a whole read.

    Its lines are those of iterating a binary file: each ends at LF only,
    as a real stdin's do, so a bare CR stays inside its line.
    """

    def __init__(self, payload: bytes):
        self.buffer = self
        self._lines = list(io.BytesIO(payload))

    def read(self, *args):
        raise AssertionError("standard input must be read incrementally")

    def __iter__(self):
        return iter(self._lines)


# The second input ends its second delimiter in a bare CR, which a real
# stdin keeps inside the line that follows, as a file read does.
@pytest.mark.parametrize(
    "data, code",
    [(framed_graphs(2, 1, 3), 0),
     (framed_graphs(2, 1, 3).replace(b"#---\n<http://ex.org/root2", b"#---\r<http://ex.org/root2"), 3)],
    ids=["lf", "bare-cr"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--framing", "framed-graphs", "--json"],
        ["convert", "--output", "-", "--from", "graphStream", "--to", "flatTripleStream"],
        ["convert", "--output", "-", "--from", "flatTripleStream", "--to", "graphStream", "--batch-size", "2"],
    ],
)
def test_stdin_is_read_incrementally(argv, data, code, tmp_path, monkeypatch, capsysbinary):
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    assert main(argv + ["--input", str(src)]) == code
    out, err = capsysbinary.readouterr()
    monkeypatch.setattr(sys, "stdin", LineOnlyStdin(data))
    assert main(argv + ["--input", "-"]) == code
    assert capsysbinary.readouterr() == (out, err.replace(str(src).encode(), b"-"))
    assert out if code == 0 else err


class _CountingStdin:
    """A stdin whose binary buffer yields lines and counts those handed out."""

    def __init__(self, payload: bytes):
        self.buffer = self
        self.handed = 0
        self._lines = list(io.BytesIO(payload))

    def __iter__(self):
        for line in self._lines:
            self.handed += 1
            yield line


class _RecordingStdout:
    """A stdout whose binary buffer records each write with the number of
    input lines read by then."""

    def __init__(self, stdin: _CountingStdin):
        self.buffer = self
        self.writes = []
        self._stdin = stdin

    def write(self, data):
        self.writes.append((self._stdin.handed, data))
        return len(data)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "to_type, delimiter",
    [("flatQuadStream", b""), ("datasetStream", b"#---\n")],
)
def test_each_element_is_written_before_the_next_is_read(to_type, delimiter, monkeypatch):
    # Lines 1-2, 4 and 7 hold elements 0, 1 and 3; lines 3, 5 and 6 end
    # elements 0, 1 and 2 (empty); element 3 ends at the end of input.
    data = framed_graphs(2, 1, 0, 1)
    stdin = _CountingStdin(data)
    stdout = _RecordingStdout(stdin)
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["convert", "--input", "-", "--output", "-", "--from", "graphStream", "--policy", "transitive"]
    assert main(argv + ["--to", to_type]) == 0
    elements = data.split(b"#---\n")
    expected = [(3, elements[0]), (5, delimiter + elements[1]), (6, delimiter), (7, delimiter + elements[3])]
    assert stdout.writes == [(n, text) for n, text in expected if text]


def test_default_framing_carries_the_payload_of_every_concrete_type(tmp_path):
    inferred = infer_closure(default_taxonomy())
    for type_id, t in inferred.taxonomy.types.items():
        if t.kind is not TypeKind.CONCRETE:
            continue
        payload = payload_kind(inferred, type_id)
        for path in ("-", str(tmp_path / "in.bin"), str(tmp_path)):
            framing = _framing_for(payload, path)
            assert framing.payload is payload
            assert framing.is_dir == (path == str(tmp_path) and not payload.is_flat)


class TestClassify:
    def test_flat_triples_human_output(self, tmp_path, capsys):
        f = tmp_path / "data.nt"
        f.write_bytes(flat_triples(3))
        code = main(["classify", "--input", str(f), "--framing", "flat-triples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "framing: flat-triples" in out
        assert "statements: 3" in out
        assert "conforming: flatTripleStream" in out

    @pytest.mark.parametrize("label, notes", [
        (b"", ("projectable to flat triple stream: every quad is in the default graph",)),
        (b" <http://ex.org/g>", ()),
    ], ids=["default graph", "one label"])
    def test_flat_quads_are_projectable_while_no_quad_has_a_label(self, label, notes, tmp_path, capsys):
        data = flat_triples(2) + b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o>" + label + b" .\n"
        f = tmp_path / "data.nq"
        f.write_bytes(data)
        assert main(["classify", "--input", str(f), "--framing", "flat-quads"]) == 0
        section = "".join(f"notes:\n  - {note}\n" for note in notes)
        assert capsys.readouterr().out.endswith("ambiguous: false\n" + section)
        for items in (data, list(read_flat_stream(data, Framing.FLAT_QUADS))):
            assert classify_stream(items, Framing.FLAT_QUADS).notes == notes

    def test_negative_max_evidence_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "data.nt"
        f.write_bytes(flat_triples(1))
        assert main(["classify", "--input", str(f), "--framing", "flat-triples", "--max-evidence", "-1"]) == 2
        assert capsys.readouterr() == ("", "stax-kit: --max-evidence must be non-negative\n")

    def test_zero_max_evidence_keeps_the_violations_and_no_evidence(self, tmp_path, capsys):
        f = tmp_path / "data.nt"
        f.write_bytes(b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n#---\n"
                      b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/t> .\n")
        assert main(["classify", "--input", str(f), "--framing", "framed-graphs", "--max-evidence", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evidence"] == []
        assert doc["firstViolation"]["subjectGraphStream"]["elementIndex"] == 1
        assert ClassifierConfig(max_evidence=0).max_evidence == 0

    def test_json_report_is_schema_valid(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(framed_graphs(2, 1))
        code = main(["classify", "--input", str(f), "--framing", "framed-graphs", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        schema_validate(doc, CLASSIFY_SCHEMA)
        assert doc["conforming"] == ["graphStream", "subjectGraphStream"]
        assert doc["mostSpecific"] == ["subjectGraphStream"]

    def test_stdin_input(self, monkeypatch, capsys):
        set_stdin(monkeypatch, flat_triples(2))
        code = main(["classify", "--input", "-", "--framing", "flat-triples", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["statementCount"] == 2

    def test_expect_met(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(framed_graphs(1, 1))
        code = main(
            [
                "classify",
                "--input",
                str(f),
                "--framing",
                "framed-graphs",
                "--expect",
                "subjectGraphStream",
            ]
        )
        assert code == 0

    def test_expect_unmet_is_semantic_failure(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        # same subject IRI twice: subjectGraphStream fails
        payload = (
            b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/a> .\n#---\n"
            b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/b> .\n"
        )
        f.write_bytes(payload)
        code = main(
            [
                "classify",
                "--input",
                str(f),
                "--framing",
                "framed-graphs",
                "--expect",
                "subjectGraphStream",
            ]
        )
        assert code == 1
        assert "does not conform" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, framing, expect",
        [
            (framed_graphs(1, 1), "framed-graphs", "flatTripleStream"),
            (flat_triples(1), "flat-triples", "graphStream"),
            (timestamped_datasets("2024-01-01T00:00:00Z"), "framed-datasets", "subjectGraphStream"),
        ],
        ids=["graphs", "triples", "datasets"],
    )
    def test_expect_of_a_type_the_framing_does_not_apply_to(self, data, framing, expect, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(data)
        assert main(["classify", "--input", str(f), "--framing", framing, "--expect", expect]) == 1
        assert capsys.readouterr().err == f"stax-kit: {expect} does not apply to {framing} streams\n"

    SAME_SUBJECT = (b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/a> .\n#---\n"
                    b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/b> .\n")

    @pytest.mark.parametrize(
        "framing, expect, err",
        [
            ("framed-graphs", "graphStream", None),
            ("framed-graphs", "groupedStream", None),
            ("framed-graphs", "rdfStream", None),
            ("framed-graphs", "flatStream", "flatStream does not apply to framed-graphs streams"),
            ("framed-graphs", "subjectGraphStream", "stream does not conform to subjectGraphStream"),
            ("framed-graphs", "datasetStream", "datasetStream does not apply to framed-graphs streams"),
            ("flat-triples", "flatStream", None),
            ("flat-triples", "groupedStream", "groupedStream does not apply to flat-triples streams"),
        ],
    )
    def test_expect_is_met_by_a_conforming_type_or_a_narrower_one(self, framing, expect, err, tmp_path, capsys):
        # Two graphs with the same only subject conform to graphStream, not
        # to subjectGraphStream; an abstract type is met through broader.
        f = tmp_path / "data.bin"
        f.write_bytes(self.SAME_SUBJECT.replace(b"#---\n", b"") if framing == "flat-triples" else self.SAME_SUBJECT)
        code = main(["classify", "--input", str(f), "--framing", framing, "--expect", expect])
        assert (code, capsys.readouterr().err) == ((0, "") if err is None else (1, f"stax-kit: {err}\n"))

    def test_expect_unknown_type_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "data.nt"
        f.write_bytes(flat_triples(1))
        code = main(
            ["classify", "--input", str(f), "--framing", "flat-triples", "--expect", "nope"]
        )
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.nt"
        f.write_bytes(b"this is not a triple\n")
        code = main(["classify", "--input", str(f), "--framing", "flat-triples"])
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_invalid_utf8_is_located_data_error(self, tmp_path, capsys):
        f = tmp_path / "bad.nt"
        f.write_bytes(flat_triples(1) + b"<http://ex.org/\xff> <http://ex.org/p> <http://ex.org/o> .\n")
        code = main(["classify", "--input", str(f), "--framing", "flat-triples"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"stax-kit: ParseError: {f}: line 2, column 16: invalid UTF-8 byte 0xFF")
        assert "Traceback" not in err

    def test_bad_timestamp_predicate(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(timestamped_datasets("2024-01-01T00:00:00Z"))
        code = main(
            [
                "classify",
                "--input",
                str(f),
                "--framing",
                "framed-datasets",
                "--timestamp-predicate",
                "not an iri",
            ]
        )
        assert code == 2

    def test_custom_timestamp_predicate(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        payload = (
            b'<http://ex.org/g0> <http://ex.org/seen> "2024-01-01T00:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .\n'
            b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g0> .\n"
        )
        f.write_bytes(payload)
        code = main(
            [
                "classify",
                "--input",
                str(f),
                "--framing",
                "framed-datasets",
                "--timestamp-predicate",
                "http://ex.org/seen",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestampedNamedGraphStream" in doc["conforming"]

    def test_order_violation_and_no_order_check(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(timestamped_datasets("2024-01-02T00:00:00Z", "2024-01-01T00:00:00Z"))
        code = main(["classify", "--input", str(f), "--framing", "framed-datasets", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["firstViolation"]["timestampedNamedGraphStream"]["elementIndex"] == 1

        code = main(
            [
                "classify",
                "--input",
                str(f),
                "--framing",
                "framed-datasets",
                "--no-order-check",
                "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "timestampedNamedGraphStream" in doc["conforming"]

    @pytest.mark.parametrize(
        "stamps, datatypes",
        [
            (("NaN", "1"), ("decimal", "integer")),
            (("0001-01-01T00:00:00+01:00",), ("date",)),
        ],
    )
    def test_incomparable_timestamps_classify(self, stamps, datatypes, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(timestamped_datasets(*stamps, datatypes=datatypes))
        code = main(["classify", "--input", str(f), "--framing", "framed-datasets", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestampedNamedGraphStream" in doc["conforming"]

    def test_unknown_framing_is_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--input", "x", "--framing", "zigzag"])
        assert info.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["classify", "--input", str(tmp_path / "absent.nt"), "--framing", "flat-triples"]
        )
        assert code == 3

    def test_deterministic_json(self, tmp_path, capsys):
        f = tmp_path / "data.bin"
        f.write_bytes(framed_graphs(2, 2, 1))
        main(["classify", "--input", str(f), "--framing", "framed-graphs", "--json"])
        first = capsys.readouterr().out
        main(["classify", "--input", str(f), "--framing", "framed-graphs", "--json"])
        second = capsys.readouterr().out
        assert first == second


# convert --output and annotate --out write a file through one routine.
FILE_WRITERS = ["convert", "annotate"]


def file_target_call(command, tmp_path, target):
    """The argv of a command that writes its output to target, and the bytes it writes."""
    if command == "convert":
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(1))
        argv = ["convert", "--input", str(src), "--output", str(target), "--from", "graphStream",
                "--to", "flatTripleStream"]
        return argv, framed_graphs(1)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(MANIFEST_OK))
    turtle = emit_turtle(load_manifest(json.dumps(MANIFEST_OK), default_taxonomy()), default_taxonomy())
    return ["annotate", "--manifest", str(manifest), "--out", str(target)], turtle.encode()


class TestConvert:
    def test_framed_graphs_to_flat_triples(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.nt"
        src.write_bytes(framed_graphs(2, 1))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                str(dst),
                "--from",
                "graphStream",
                "--to",
                "flatTripleStream",
            ]
        )
        assert code == 0
        assert dst.read_bytes().count(b" .\n") == 3

    def test_stdout_output(self, tmp_path, capsysbinary):
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(2, 1))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                "-",
                "--from",
                "graphStream",
                "--to",
                "flatTripleStream",
            ]
        )
        assert code == 0
        assert capsysbinary.readouterr().out == framed_graphs(2, 1).replace(b"#---\n", b"")

    # Framed graphs whose first elements hold many chunks of output, then a
    # parse error in the last element.
    GOOD = framed_graphs(400, 400)
    BROKEN = GOOD + b"#---\nbad\n"
    TO_FLAT = ["--from", "graphStream", "--to", "flatTripleStream"]

    def test_failed_file_output_leaves_no_file(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(self.BROKEN)
        dst = tmp_path / "out.nt"
        argv = ["convert", "--input", str(src), "--output", str(dst), *self.TO_FLAT]
        assert main(argv) == 3
        assert "line 803" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]
        # an existing target keeps its bytes
        dst.write_bytes(b"old\n")
        assert main(argv) == 3
        assert dst.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "out.nt"]

    def test_failed_stdout_output_ends_on_a_whole_line(self, tmp_path, capsysbinary):
        src = tmp_path / "in.bin"
        src.write_bytes(self.BROKEN)
        assert main(["convert", "--input", str(src), "--output", "-", *self.TO_FLAT]) == 3
        out = capsysbinary.readouterr().out
        good = self.GOOD.replace(b"#---\n", b"")
        assert out and out.endswith(b"\n") and good.startswith(out)

    @pytest.mark.parametrize("command", FILE_WRITERS)
    def test_missing_output_directory_names_the_target(self, command, tmp_path, capsys):
        dst = tmp_path / "missing" / "out.nt"
        argv, _ = file_target_call(command, tmp_path, dst)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"stax-kit: [Errno 2] No such file or directory: '{dst}'\n"

    @pytest.mark.parametrize("command", FILE_WRITERS)
    def test_an_empty_output_path_is_refused_as_an_empty_input_path_is(self, command, tmp_path, monkeypatch, capsys):
        # os.path.realpath('') is the working directory: a temp file beside
        # it would take the whole output before the rename failed.
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        argv, _ = file_target_call(command, tmp_path, "")
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "stax-kit: [Errno 2] No such file or directory: ''\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert main(["classify", "--input", "", "--framing", "flat-triples"]) == 3
        assert capsys.readouterr() == ("", "stax-kit: [Errno 2] No such file or directory: ''\n")

    def test_output_may_be_the_input(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(self.GOOD)
        assert main(["convert", "--input", str(src), "--output", str(src), *self.TO_FLAT]) == 0
        assert src.read_bytes() == self.GOOD.replace(b"#---\n", b"")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]

    @pytest.mark.parametrize("command", FILE_WRITERS)
    def test_file_output_keeps_the_mode_open_gives(self, command, tmp_path, capsys):
        dst = tmp_path / "out.nt"
        argv, _ = file_target_call(command, tmp_path, dst)
        probe = tmp_path / "probe"
        probe.write_bytes(b"")
        assert main(argv) == 0
        assert dst.stat().st_mode == probe.stat().st_mode
        dst.chmod(0o640)
        assert main(argv) == 0
        assert stat.S_IMODE(dst.stat().st_mode) == 0o640

    @pytest.mark.parametrize("command", FILE_WRITERS)
    def test_file_output_writes_through_a_symlink_and_to_a_device(self, command, tmp_path, capsys):
        dst, link = tmp_path / "out.nt", tmp_path / "link.nt"
        link.symlink_to(dst)
        for target in (link, os.devnull):
            argv, written = file_target_call(command, tmp_path, target)
            assert main(argv) == 0
        assert link.is_symlink() and dst.read_bytes() == written

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        # Far more output than a pipe buffers, so the writer meets the closed pipe.
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(*[100] * 100))
        env = {**os.environ, "PYTHONPATH": str(Path(staxkit.__file__).parents[1])}
        argv = [sys.executable, "-m", "staxkit.cli", "convert", "--input", str(src), "--output", "-"]
        proc = subprocess.Popen(
            argv + self.TO_FLAT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_strict_refuses_two_step(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(1))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                str(tmp_path / "out.nq"),
                "--from",
                "graphStream",
                "--to",
                "flatQuadStream",
            ]
        )
        assert code == 1
        assert "no strict conversion path" in capsys.readouterr().err

    def test_transitive_two_step(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.nq"
        src.write_bytes(framed_graphs(2))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                str(dst),
                "--from",
                "graphStream",
                "--to",
                "flatQuadStream",
                "--policy",
                "transitive",
            ]
        )
        assert code == 0
        # extension leaves everything in the default graph: three-term lines
        for line in dst.read_bytes().splitlines():
            assert line.count(b"<") == 3

    def test_group_with_batch_size(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        dst = tmp_path / "out.bin"
        src.write_bytes(flat_triples(5))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                str(dst),
                "--from",
                "flatTripleStream",
                "--to",
                "graphStream",
                "--batch-size",
                "2",
            ]
        )
        assert code == 0
        assert dst.read_bytes().count(b"#---") == 2  # three elements

    @pytest.mark.parametrize(
        "to_type, policy, steps",
        [("flatQuadStream", "transitive", "extend, flatten"), ("flatTripleStream", "strict", "flatten"),
         ("graphStream", "strict", "the identity")],
    )
    def test_batch_size_without_a_group_step_is_usage_error(self, to_type, policy, steps, tmp_path, capsys):
        f, out = tmp_path / "in.nt", tmp_path / "out"
        f.write_bytes(framed_graphs(2, 1))
        code = main(["convert", "--input", str(f), "--output", str(out), "--from", "graphStream", "--to", to_type,
                     "--policy", policy, "--batch-size", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"stax-kit: --batch-size needs a group step, but the {policy} plan from graphStream to {to_type} "
            f"is {steps}\n"
        )
        assert not out.exists()

    def test_zero_batch_size_usage_error(self, tmp_path, capsys):
        # The input does not exist: the usage error comes before it is opened.
        code = main(
            [
                "convert",
                "--input",
                str(tmp_path / "missing.nt"),
                "--output",
                "-",
                "--from",
                "flatTripleStream",
                "--to",
                "graphStream",
                "--batch-size",
                "0",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "stax-kit: batch size must be >= 1, got 0\n"

    def test_directory_output(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        out_dir = tmp_path / "elements"
        src.write_bytes(flat_triples(4))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                f"{out_dir}/",
                "--from",
                "flatTripleStream",
                "--to",
                "graphStream",
                "--batch-size",
                "2",
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["00000.nt", "00001.nt"]

    def test_failed_directory_output_leaves_no_members(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        out_dir = tmp_path / "elements"
        src.write_bytes(framed_graphs(1, 1).replace(b"#---\n", b"#---\nbad\n"))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                f"{out_dir}/",
                "--from",
                "graphStream",
                "--to",
                "graphStream",
            ]
        )
        assert code == 3
        assert "line 3" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_directory_output_refuses_a_directory_holding_members(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        out_dir = tmp_path / "elements"
        src.write_bytes(flat_triples(4))
        argv = [
            "convert",
            "--input",
            str(src),
            "--output",
            f"{out_dir}/",
            "--from",
            "flatTripleStream",
            "--to",
            "graphStream",
            "--batch-size",
            "2",
        ]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main(argv[:-1] + ["4"]) == 3
        err = capsys.readouterr().err
        assert "OutputExists" in err and str(out_dir) in err and "00000.nt" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_directory_input_inferred(self, tmp_path, capsys):
        src_dir = tmp_path / "graphs"
        src_dir.mkdir()
        (src_dir / "0.nt").write_bytes(b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n")
        (src_dir / "1.nt").write_bytes(b"<http://ex.org/c> <http://ex.org/p> <http://ex.org/d> .\n")
        code = main(
            [
                "convert",
                "--input",
                str(src_dir),
                "--output",
                "-",
                "--from",
                "graphStream",
                "--to",
                "flatTripleStream",
            ]
        )
        assert code == 0

    # A path that ends in '/' names a directory, made if it is missing: a
    # grouped payload takes its dir- framing there, and a flat payload is
    # refused before the input is opened.
    @pytest.mark.parametrize(
        "to_type, ext",
        [("datasetStream", ".nq"), ("graphStream", ".nt"), ("flatTripleStream", None)],
    )
    def test_an_output_path_ending_in_a_slash_names_a_directory(self, to_type, ext, tmp_path, capsys):
        src, out = tmp_path / "in.nt", tmp_path / "out2"
        src.write_bytes(framed_graphs(1, 2))
        argv = ["convert", "--input", str(src if ext else tmp_path / "missing.nt"), "--output", f"{out}/",
                "--from", "graphStream", "--to", to_type, "--policy", "transitive"]
        if ext is None:
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"stax-kit: MixedPayload: {out}/ names a directory, but flat-triples is not a directory framing\n"
            )
            assert not out.exists()
            return
        assert main(argv) == 0
        elements = framed_graphs(1, 2).split(b"#---\n")
        assert _members(out) == {f"{i:05d}{ext}": element for i, element in enumerate(elements)}

    # Only the last directory of such a path is made.  A missing parent is
    # refused with the error a file target under it gets, and an existing
    # file with the error annotate --out gives it; both come before the
    # input is read (its line 3 is bad), and nothing is created or changed.
    @pytest.mark.parametrize(
        "target, error",
        [("missing/sub", "[Errno 2] No such file or directory"), ("file", "[Errno 21] Is a directory")],
        ids=["missing-parent", "existing-file"],
    )
    def test_an_output_directory_that_cannot_be_made_is_refused(self, target, error, tmp_path, capsys):
        src, out = tmp_path / "in.nt", tmp_path / target
        src.write_bytes(framed_graphs(1, 1).replace(b"#---\n", b"#---\nbad\n"))
        (tmp_path / "file").write_bytes(b"old\n")
        argv = ["convert", "--input", str(src), "--output", f"{out}/", "--from", "graphStream",
                "--to", "datasetStream", "--policy", "transitive"]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"stax-kit: {error}: '{out}/'\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # The type and the path alone name the output's framing: there is no
    # option to choose it, and the call is refused before anything is read.
    def test_output_framing_is_an_unrecognized_argument(self, tmp_path, capsys):
        argv = ["convert", "--input", str(tmp_path / "missing.nt"), "--output", f"{tmp_path}/out/",
                "--from", "graphStream", "--to", "graphStream", "--output-framing", "dir-graphs"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --output-framing dir-graphs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # The rule holds for --input too: a grouped payload reads a path ending
    # in '/' as a directory, and a flat one is refused before it is opened.
    @pytest.mark.parametrize("from_type", ["graphStream", "flatTripleStream"])
    def test_an_input_path_ending_in_a_slash_names_a_directory(self, from_type, tmp_path, capsysbinary):
        src = tmp_path / "in"
        if from_type == "graphStream":
            src.mkdir()
            (src / "00000.nt").write_bytes(flat_triples(2))
        argv = ["convert", "--input", f"{src}/", "--output", "-", "--from", from_type, "--to", "flatTripleStream"]
        if from_type == "graphStream":
            assert main(argv) == 0
            assert capsysbinary.readouterr() == (flat_triples(2), b"")
            return
        assert main(argv) == 3
        assert capsysbinary.readouterr() == (b"", (
            f"stax-kit: MixedPayload: {src}/ names a directory, but flat-triples is not a directory framing\n"
        ).encode())

    def test_quads_in_triples_input(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_bytes(QUAD_LINE % (0, 0, 0))
        code = main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                "-",
                "--from",
                "flatTripleStream",
                "--to",
                "flatQuadStream",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("from_type", ["flatStream", "rdfStream"])
    def test_abstract_endpoint_is_usage_error(self, from_type, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_bytes(flat_triples(1))
        argv = ["convert", "--input", str(src), "--output", "-", "--from", from_type]
        assert main(argv + ["--to", "flatTripleStream"]) == 2
        assert capsys.readouterr().err == (
            f"stax-kit: {from_type} is abstract; only concrete types have a payload\n"
        )

    def test_anchorless_endpoint_is_schema_error(self, tmp_path, capsys, monkeypatch):
        # README's custom taxonomy: leafStream narrows no payload anchor
        tax_file = tmp_path / "taxonomy.json"
        tax_file.write_text(json.dumps({
            "types": [
                {"id": "rootStream", "iri": "http://example.org/root", "kind": "abstract"},
                {"id": "leafStream", "iri": "http://example.org/leaf", "kind": "concrete"},
            ],
            "relations": [["leafStream", "broader", "rootStream"]],
        }))
        monkeypatch.setenv("STAX_TAXONOMY", str(tax_file))
        src = tmp_path / "in.nt"
        src.write_bytes(flat_triples(1))
        argv = ["convert", "--input", str(src), "--output", "-"]
        assert main(argv + ["--from", "leafStream", "--to", "leafStream"]) == 3
        assert capsys.readouterr().err == (
            "stax-kit: SchemaError: concrete type leafStream must be or narrow exactly one of "
            "flatTripleStream, flatQuadStream, graphStream, datasetStream, found 0\n"
        )


# Every group plan, its input read from a file and from standard input, with
# one faulty line after good ones (one of them repeated): the CLI must exit
# and report as the library's term path does, after writing the same bytes.
GROUP_PLANS = [("flatTripleStream", "graphStream", "strict"), ("flatTripleStream", "graphStream", "transitive"),
               ("flatTripleStream", "datasetStream", "transitive"), ("flatQuadStream", "datasetStream", "strict"),
               ("flatQuadStream", "datasetStream", "transitive")]
_FAULTY_LINES = {
    "bad term": b"<http://ex.org/s> <http://ex.org/p> junk .\n",
    "fourth term": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .\n",
    "invalid UTF-8": b'<http://ex.org/s> <http://ex.org/p> "caf\xe9" .\n',
    "CR-only line end": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\r"
                        b"<http://ex.org/t> <http://ex.org/p> _:b .\n",
    "bad \\u escape": b'<http://ex.org/s> <http://ex.org/p> "\\uD800" .\n',
}


@pytest.mark.parametrize("batch_size", [None, 2])
@pytest.mark.parametrize("source", ["file", "-"])
@pytest.mark.parametrize("fault", _FAULTY_LINES)
@pytest.mark.parametrize("from_type, to_type, policy", GROUP_PLANS)
def test_a_group_plan_fails_as_the_library_term_path_fails(
    from_type, to_type, policy, fault, source, batch_size, tmp_path, monkeypatch, capsysbinary
):
    inferred = infer_closure(default_taxonomy())
    target = payload_kind(inferred, to_type)
    data = flat_triples(2) + TRIPLE_LINE % (0, 0) + _FAULTY_LINES[fault] + TRIPLE_LINE % (3, 3)
    path = tmp_path / "in"
    path.write_bytes(data)
    in_framing = Framing("flat-quads" if from_type == "flatQuadStream" else "flat-triples")
    sink = io.BytesIO()
    try:
        items = convert(read_flat_stream(path, in_framing), from_type, to_type, inferred, policy, batch_size)
        write_stream(items, Framing(f"framed-{target.value}"), sink)
        expected = (0, "")
    except ParseError as exc:
        member = "-" if source == "-" else exc.member
        expected = (3, f"stax-kit: ParseError: {ParseError(exc.line, exc.column, exc.reason, member)}\n")
    assert (expected[0] == 0) == (fault == "fourth term" and from_type == "flatQuadStream")
    set_stdin(monkeypatch, data)
    argv = ["convert", "--input", "-" if source == "-" else str(path), "--output", "-", "--from", from_type,
            "--to", to_type, "--policy", policy] + ([] if batch_size is None else ["--batch-size", str(batch_size)])
    code = main(argv)
    out, err = capsysbinary.readouterr()
    assert (code, err.decode()) == expected
    assert out == sink.getvalue()


# CLI convert against the library: main(['convert', ...]) must write what
# write_stream writes for convert(read(...)) of the same input, to a target
# of the same kind (standard output and a sink, a file, a directory), for
# every concrete (from, to) pair under both policies.  A small
# term pool makes repeated statements, shared blank nodes and several named
# graphs per element common; one literal needs every escape.  Each line is
# its canonical form or a spelling drawn by plain string code: TABs and
# extra spaces, comments, CRLF, \u and \U escapes in IRIs, literals and
# graph labels, an explicit xsd:string, so a repeat may be spelled apart.
CONCRETE = [t for t, v in default_taxonomy().types.items() if v.kind is TypeKind.CONCRETE]
_SUBJECTS = [Iri("http://ex.org/a"), Iri("http://ex.org/{b}"), BlankNode("b0")]
_OBJECTS = _SUBJECTS + [BlankNode("b1"), Literal('say "hi"\n\t\\'), Literal("v", language="en"),
                        Literal("1", "http://www.w3.org/2001/XMLSchema#integer"), Literal("x.y")]
_LABELS = [None, Iri("http://ex.org/g1"), Iri("http://ex.org/g|2"), BlankNode("b0")]
_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_LITERAL_ECHARS = {'"': ['\\"'], "\\": ["\\\\"], "\n": ["\\n"], "\r": ["\\r"], "\t": ["\t", "\\t"], "'": ["'", "\\'"]}


def _uchar(c, r):
    return r.choice([f"\\u{ord(c):04X}", f"\\u{ord(c):04x}", f"\\U{ord(c):08X}"])


def _spell(term, r, escapes):
    """One N-Triples spelling of term, drawn with r; with escapes false, a
    character is escaped only where it must be."""
    rate = 0.1 if escapes else 0
    if isinstance(term, BlankNode):
        return "_:" + term.label
    if isinstance(term, Iri):
        forbidden = set('<>"{}|^`\\')
        return "<" + "".join(
            _uchar(c, r) if c in forbidden or ord(c) <= 0x20 or r.random() < rate else c for c in term.value
        ) + ">"
    body = '"' + "".join(
        r.choice(_LITERAL_ECHARS[c] + [_uchar(c, r)]) if c in _LITERAL_ECHARS
        else _uchar(c, r) if r.random() < rate else c
        for c in term.lexical
    ) + '"'
    if term.language is not None:
        return body + "@" + term.language
    if term.datatype != _XSD_STRING or r.random() < 0.5:
        return body + "^^" + _spell(Iri(term.datatype), r, escapes)
    return body


def _spelled_line(statement, r):
    """statement's canonical line, or a non-canonical spelling of it."""
    if r.random() < 0.3:
        return serialize_statement(statement) + "\n"
    escapes, spaces = r.random() < 0.5, [" ", "  "] + (["\t", " \t "] if r.random() < 0.5 else [])
    terms = [t for t in statement if t is not None]
    body = r.choice(["", *spaces]) + "".join(_spell(t, r, escapes) + r.choice(spaces) for t in terms)
    tail = r.choice([".", ". ", *(f"{gap}." for gap in spaces)]) + r.choice(["", " # note", "#  a \\ comment"])
    return body.rstrip(" \t") + tail + r.choice(["\n", "\r\n"])


def _statement_lines(quads: bool, r):
    label = st.sampled_from(_LABELS) if quads else st.none()
    return st.builds(
        lambda s, p, o, g: _spelled_line(Quad(s, p, o, g) if quads else Triple(s, p, o), r),
        st.sampled_from(_SUBJECTS), st.sampled_from(_SUBJECTS[:2]), st.sampled_from(_OBJECTS), label,
    )


class _BinaryStdout:
    """A stdout whose binary buffer keeps what the writer puts there."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        self.buffer.write(text.encode())

    def flush(self):
        pass


def _members(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())} if directory.exists() else {}


def _written(path: Path) -> dict[str, bytes] | bytes:
    """The member files of a directory, or the bytes of a file."""
    return _members(path) if path.is_dir() else path.read_bytes()


@pytest.mark.parametrize("policy", ["strict", "transitive"])
@pytest.mark.parametrize("to_type", CONCRETE)
@pytest.mark.parametrize("from_type", CONCRETE)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_cli_convert_writes_what_the_library_writes(from_type, to_type, policy, data):
    inferred = infer_closure(default_taxonomy())
    source, target = payload_kind(inferred, from_type), payload_kind(inferred, to_type)
    lines = _statement_lines(source.quads, data.draw(st.randoms(use_true_random=False), label="spellings"))
    if source.is_flat:
        elements = [data.draw(st.lists(lines, max_size=12), label="statements")]
        in_layout = "flat"
    else:
        elements = data.draw(st.lists(st.lists(lines, max_size=5), max_size=4), label="elements")
        in_layout = data.draw(st.sampled_from(["framed", "dir"]), label="input layout")
    out_layout, output = data.draw(st.sampled_from(
        [("flat", "-"), ("flat", "out")] if target.is_flat else [("framed", "-"), ("framed", "out"), ("dir", "out/")]
    ), label="output")
    batch_size = data.draw(st.sampled_from([None, 1, 3]), label="batch size")
    in_framing, out_framing = Framing(f"{in_layout}-{source.value}"), Framing(f"{out_layout}-{target.value}")
    try:
        relations = plan(from_type, to_type, inferred, policy, batch_size)
        refused = None
    except NoConversionPath as exc:
        refused = exc
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch) / "in", Path(scratch) / "out"
        if in_framing.is_dir:
            path.mkdir()
            for i, element in enumerate(elements):
                (path / f"{i:05d}{'.nq' if source.quads else '.nt'}").write_bytes("".join(element).encode())
        else:
            path.write_bytes("#---\n".join("".join(e) for e in elements).encode())
        argv = ["convert", "--input", str(path), "--output", output if output == "-" else f"{scratch}/{output}",
                "--from", from_type, "--to", to_type, "--policy", policy]
        argv += [] if batch_size is None else ["--batch-size", str(batch_size)]
        stdout, stderr = _BinaryStdout(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if refused is not None:
            assert (code, stderr.getvalue()) == (1, f"stax-kit: {refused}\n")
            assert stdout.buffer.getvalue() == b"" and not out.exists()
            return
        if batch_size is not None and "group" not in relations:
            # A batch size is a usage error on a plan that groups nothing.
            assert code == 2
            assert stderr.getvalue().startswith("stax-kit: --batch-size needs a group step, but the ")
            assert stdout.buffer.getvalue() == b"" and not out.exists()
            return
        assert code == 0, stderr.getvalue()
        read = read_flat_stream if in_framing.is_flat else read_grouped_stream
        items = convert(read(path, in_framing), from_type, to_type, inferred, policy, batch_size)
        if output == "-":
            sink = io.BytesIO()
            write_stream(items, out_framing, sink)
            assert stdout.buffer.getvalue() == sink.getvalue()
            return
        expected = Path(scratch) / "expected"
        write_stream(items, out_framing, expected)
        assert _written(out) == _written(expected)


# A taxonomy where a group edge ends at a type narrower than a grouped one:
# the transitive plan from that grouped type is flatten, group (or extend,
# flatten, group).  The CLI groups the grouped input's statements as
# convert() does, across element boundaries, each element's kept once, from
# a framed file and from a directory, and fails where and as the library
# fails.
_PAIRED = default_taxonomy().to_dict()
_PAIRED["types"] += [{"id": "pairedGraphStream", "iri": "http://ex.org/pairedGraphs", "kind": "concrete"},
                     {"id": "pairedDatasetStream", "iri": "http://ex.org/pairedDatasets", "kind": "concrete"}]
_PAIRED["relations"] += [["pairedGraphStream", "broader", "graphStream"],
                         ["flatTripleStream", "group", "pairedGraphStream"],
                         ["pairedDatasetStream", "broader", "datasetStream"],
                         ["flatQuadStream", "group", "pairedDatasetStream"]]


@pytest.mark.parametrize("from_type, to_type, relations", [
    ("graphStream", "pairedGraphStream", ["flatten", "group"]),
    ("graphStream", "pairedDatasetStream", ["extend", "flatten", "group"]),
    ("datasetStream", "pairedDatasetStream", ["flatten", "group"]),
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_convert_groups_a_grouped_stream_as_the_library_does(from_type, to_type, relations, data):
    inferred = infer_closure(load_taxonomy(json.dumps(_PAIRED)))
    assert plan(from_type, to_type, inferred, "transitive") == relations
    source, target = payload_kind(inferred, from_type), payload_kind(inferred, to_type)
    lines = _statement_lines(source.quads, data.draw(st.randoms(use_true_random=False), label="spellings"))
    elements = data.draw(st.lists(st.lists(lines, max_size=5), max_size=4), label="elements")
    # Every drawn line is ASCII; latin-1 keeps a faulty line's bytes as they are.
    if elements and data.draw(st.booleans(), label="faulty"):
        elements[-1].insert(0, data.draw(st.sampled_from(list(_FAULTY_LINES.values())), label="fault").decode("latin-1"))
    in_framing = Framing(f"{data.draw(st.sampled_from(['framed', 'dir']), label='layout')}-{source.value}")
    batch_size = data.draw(st.sampled_from([1, 2, 3, 50]), label="batch size")
    with tempfile.TemporaryDirectory() as scratch:
        path, tax_file = Path(scratch) / "in", Path(scratch) / "taxonomy.json"
        tax_file.write_text(json.dumps(_PAIRED))
        if in_framing.is_dir:
            path.mkdir()
            for i, element in enumerate(elements):
                (path / f"{i:05d}{'.nq' if source.quads else '.nt'}").write_bytes("".join(element).encode("latin-1"))
        else:
            path.write_bytes("#---\n".join("".join(e) for e in elements).encode("latin-1"))
        sink = io.BytesIO()
        try:
            items = convert(read_grouped_stream(path, in_framing), from_type, to_type, inferred, "transitive",
                            batch_size)
            write_stream(items, Framing(f"framed-{target.value}"), sink)
            expected = (0, "")
        except StaxError as exc:
            expected = (3, f"stax-kit: {type(exc).__name__}: {exc}\n")
        argv = ["convert", "--input", str(path), "--output", "-", "--from", from_type, "--to", to_type,
                "--policy", "transitive", "--batch-size", str(batch_size)]
        stdout, stderr = _BinaryStdout(), io.StringIO()
        with mock.patch.dict(os.environ, {"STAX_TAXONOMY": str(tax_file)}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert (code, stderr.getvalue()) == expected
        assert stdout.buffer.getvalue() == sink.getvalue()


# CLI classify and validate --data on dataset framings, which read each
# element as its index of canonical lines, against the library's term path:
# classify_stream over the Datasets read_grouped_stream builds.  Each element
# holds named-graph statements, other default-graph statements and timestamp
# triples about its labels, under three predicates, each spelled as above; the
# IRI <http://ex.org/a> is also spelled <http://ex.org/\u0061>, the label
# <http://ex.org/h> only ever with an escape, and comment lines come between
# statements.  One predicate holds a '|', which the writer escapes; stamps
# are drawn from xsd_timestamps() too, and some hold a '"' or a '\'.  The
# CLI runs with an intern table that empties every two entries, so equal
# terms are often distinct objects.
_PROV_AT = "http://www.w3.org/ns/prov#generatedAtTime"
_STAMP_PREDICATES = [Iri(_PROV_AT), Iri("http://ex.org/at"), Iri("http://ex.org/at|1")]
_STAMP_LABELS = [Iri("http://ex.org/a"), Iri("http://ex.org/g|2"), BlankNode("b0"), Iri("http://ex.org/g1"),
                 Iri("http://ex.org/h")]
_XSD = "http://www.w3.org/2001/XMLSchema#"
_STAMPS = [Literal(f"2024-01-0{day}T00:00:00Z", _XSD + "dateTime") for day in (1, 2, 3)] + [
    Literal("\t2024-01-02T12:00:00Z\n", _XSD + "dateTime"),
]
_OTHER_STAMPS = [Literal("2", _XSD + "integer"), Literal("1.5", _XSD + "decimal"), Literal("2024-01-02", _XSD + "date"),
                 Literal("2024-01-02"), Literal("3", language="en"), Iri("http://ex.org/a"),
                 Literal('2024-01-02T00:00:00Z"', _XSD + "dateTime"), Literal("\\2024-01-02", _XSD + "date")]
TEXT_PATH_EXAMPLES = max(60, settings().max_examples // 10)


def _spelled(statement, r):
    """_spelled_line, with <http://ex.org/a> often escaped, <http://ex.org/h>
    always, and a comment line often before it."""
    line = _spelled_line(statement, r).replace("<http://ex.org/h>", "<http://ex.org/\\u0068>")
    if r.random() < 0.5:
        line = line.replace("<http://ex.org/a>", "<http://ex.org/\\u0061>")
    return r.choice(["", "", "# note\n", "\t# a comment\r\n"]) + line


def _dataset_elements(r):
    """Elements mostly of one named graph and timestamp triples about it."""
    nodes, predicates, objects = map(st.sampled_from, (_SUBJECTS, _SUBJECTS[:2], _OBJECTS))

    def element(label):
        named = st.builds(Quad, nodes, predicates, objects, st.just(label))
        stamp = st.builds(Quad, st.just(label), st.sampled_from(_STAMP_PREDICATES),
                          st.sampled_from(_STAMPS) | st.sampled_from(_STAMPS + _OTHER_STAMPS) | xsd_timestamps(),
                          st.none())
        other = st.builds(Quad, nodes, predicates, objects, st.sampled_from([None] * 6 + _STAMP_LABELS))
        return st.tuples(named, stamp, st.lists(st.one_of(named, stamp, other), max_size=4)).map(
            lambda drawn: [_spelled(q, r) for q in r.sample([*drawn[:2], *drawn[2]], 2 + len(drawn[2]))])

    return st.sampled_from(_STAMP_LABELS).flatmap(element)


@settings(max_examples=TEXT_PATH_EXAMPLES, deadline=None)
@given(data=st.data())
def test_cli_dataset_classify_and_validate_equal_the_term_path(data):
    r = data.draw(st.randoms(use_true_random=False), label="spellings")
    elements = data.draw(st.lists(_dataset_elements(r), max_size=5), label="elements")
    layout = data.draw(st.sampled_from(["framed", "dir", "-"]), label="input")
    predicates = data.draw(st.sampled_from([[], [_PROV_AT, "http://ex.org/at"], ["http://ex.org/at"],
                                            ["http://ex.org/at|1"], ["http://ex.org/at|1", _PROV_AT]]),
                           label="timestamp predicates")
    order_check = data.draw(st.booleans(), label="order check")
    framing = Framing("dir-datasets" if layout == "dir" else "framed-datasets")
    options = [f"--timestamp-predicate={p}" for p in predicates] + ([] if order_check else ["--no-order-check"])
    cfg = ClassifierConfig(frozenset(map(Iri, predicates or [_PROV_AT])), order_check)
    inferred = infer_closure(default_taxonomy())
    manifest_doc = {"usages": [{"streamType": t} for t in ("timestampedNamedGraphStream", "namedGraphStream")]}
    manifest = load_manifest(json.dumps(manifest_doc))
    with tempfile.TemporaryDirectory() as scratch:
        path, manifest_path = Path(scratch) / "in", Path(scratch) / "manifest.json"
        manifest_path.write_text(json.dumps(manifest_doc))
        if layout == "dir":
            path.mkdir()
            for i, element in enumerate(elements):
                (path / f"{i:05d}.nq").write_bytes("".join(element).encode())
        else:
            path.write_bytes("#---\n".join("".join(e) for e in elements).encode())
        expected = classify_stream(list(read_grouped_stream(path, framing)), framing, cfg, inferred)
        checked = cross_check(manifest, expected, inferred)
        validation = ValidationReport(validate_usages(manifest, inferred).violations, checked.cross_check)
        source = "-" if layout == "-" else str(path)
        runs = {
            "classify": (["classify", "--input", source, "--framing", framing.value, "--json", *options],
                         0, expected.to_dict()),
            "validate": (["validate", "--manifest", str(manifest_path), "--data", source, "--framing",
                          framing.value, "--json", *options],
                         0 if validation.consistent and validation.cross_check_passed else 1, validation.to_dict()),
        }
        for argv, code, doc in runs.values():
            out, stdin = io.StringIO(), io.TextIOWrapper(io.BytesIO(path.read_bytes() if layout == "-" else b""))
            with mock.patch.object(staxkit.io, "_INTERN_LIMIT", 2), mock.patch.object(sys, "stdin", stdin), \
                    contextlib.redirect_stdout(out):
                assert main(argv) == code, argv
            assert json.loads(out.getvalue()) == doc, argv


# CLI classify and validate --data on graph and flat framings, which read each
# element, or each statement, as its index of canonical lines and search a
# graph's candidate subjects over the lines' tokens, against the library's
# term path over the Graphs read_grouped_stream builds, or the statements of
# read_flat_stream.  The elements share one small pool of nodes, so
# their candidates overlap, and often hold a cycle, on which every IRI is a
# candidate.  The pool holds IRIs whose tokens sort otherwise than their
# values: http://ex.org/x before http://ex.org/x/, and http://ex.org/g]
# before http://ex.org/g|2, which the writer spells <http://ex.org/g\u007C2>.
# Statements are spelled as in the dataset test above, with the intern table
# emptied every two entries; in flat quads each is in a graph drawn from a
# few labels, often only the default graph, and a '#---' line is a comment.
_GRAPH_NODES = [Iri("http://ex.org/a"), Iri("http://ex.org/x"), Iri("http://ex.org/x/"), Iri("http://ex.org/g|2"),
                Iri("http://ex.org/g]"), Iri("http://ex.org/{b}"), BlankNode("b0")]
_GRAPH_USAGE = {"flat-triples": "flatTripleStream", "flat-quads": "flatQuadStream"}


def _graph_elements(r, labels=(None,)):
    """Graphs over _GRAPH_NODES: a cycle, or none, and a few other triples,
    each spelled as a quad in a graph of labels."""
    nodes, predicates = st.sampled_from(_GRAPH_NODES), st.sampled_from(_SUBJECTS[:2])
    cycle = st.lists(nodes, min_size=1, max_size=4, unique=True).flatmap(
        lambda ring: st.tuples(*(st.builds(Triple, st.just(s), predicates, st.just(o))
                                 for s, o in zip(ring, ring[1:] + ring[:1]))))
    other = st.builds(Triple, nodes, predicates, nodes | st.sampled_from(_OBJECTS))
    return st.tuples(cycle | st.just(()), st.lists(other, max_size=4)).map(
        lambda drawn: [_spelled(Quad(*t, r.choice(labels)), r)
                       for t in r.sample([*drawn[0], *drawn[1]], len(drawn[0]) + len(drawn[1]))])


@settings(max_examples=TEXT_PATH_EXAMPLES, deadline=None)
@given(data=st.data())
def test_cli_graph_classify_and_validate_equal_the_term_path(data):
    r = data.draw(st.randoms(use_true_random=False), label="spellings")
    framing = Framing(data.draw(st.sampled_from(["framed-graphs", "dir-graphs", "flat-triples", "flat-quads"]),
                                label="framing"))
    labels = [None]
    if framing is Framing.FLAT_QUADS:
        labels = data.draw(st.lists(st.sampled_from([None, *_STAMP_LABELS]), min_size=1, max_size=3), label="labels")
    elements = data.draw(st.lists(_graph_elements(r, labels), max_size=5), label="elements")
    stdin = not framing.is_dir and data.draw(st.booleans(), label="standard input")
    inferred = infer_closure(default_taxonomy())
    manifest_doc = {"usages": [{"streamType": _GRAPH_USAGE.get(framing.value, "subjectGraphStream")}]}
    manifest = load_manifest(json.dumps(manifest_doc))
    with tempfile.TemporaryDirectory() as scratch:
        path, manifest_path = Path(scratch) / "in", Path(scratch) / "manifest.json"
        manifest_path.write_text(json.dumps(manifest_doc))
        if framing.is_dir:
            path.mkdir()
            for i, element in enumerate(elements):
                (path / f"{i:05d}.nt").write_bytes("".join(element).encode())
        else:
            path.write_bytes("#---\n".join("".join(e) for e in elements).encode())
        read = read_flat_stream if framing.is_flat else read_grouped_stream
        expected = classify_stream(list(read(path, framing)), framing, None, inferred)
        checked = cross_check(manifest, expected, inferred)
        validation = ValidationReport(validate_usages(manifest, inferred).violations, checked.cross_check)
        source = "-" if stdin else str(path)
        runs = [
            (["classify", "--input", source, "--framing", framing.value, "--json"], 0, expected.to_dict()),
            (["validate", "--manifest", str(manifest_path), "--data", source, "--framing", framing.value, "--json"],
             0 if validation.consistent and validation.cross_check_passed else 1, validation.to_dict()),
        ]
        for argv, code, doc in runs:
            out, stdin_file = io.StringIO(), io.TextIOWrapper(io.BytesIO(path.read_bytes() if stdin else b""))
            with mock.patch.object(staxkit.io, "_INTERN_LIMIT", 2), mock.patch.object(sys, "stdin", stdin_file), \
                    contextlib.redirect_stdout(out):
                assert main(argv) == code, argv
            assert json.loads(out.getvalue()) == doc, argv


# A malformed line, met after canonical lines of the same element in a
# grouped framing or after canonical statements in a flat one, fails classify
# and validate --data as it fails the term path.  A line with a graph label
# is a MixedPayload in a graph framing and a ParseError in flat triples; a
# bad label there is the quads-mode error.
_GOOD_ELEMENT = {
    "datasets": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .\n"
                b'<http://ex.org/g> <http://www.w3.org/ns/prov#generatedAtTime> "1"^^<http://ex.org/n> .\n',
    "graphs": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
              b'<http://ex.org/o> <http://ex.org/p> "1"^^<http://ex.org/n> .\n',
}
_MALFORMED_LINES = {
    "datasets": {
        "bad UTF-8 byte": b'<http://ex.org/s> <http://ex.org/p> "caf\xe9" <http://ex.org/g> .\n',
        "unterminated literal": b'<http://ex.org/s> <http://ex.org/p> "open <http://ex.org/g> .\n',
        "IRI holding a space": b"<http://ex.org/s> <http://ex.org/p q> <http://ex.org/o> <http://ex.org/g> .\n",
        "bare CR": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\r<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n",
        "bad datatype IRI": b'<http://ex.org/g> <http://www.w3.org/ns/prov#generatedAtTime> "1"^^<n> .\n',
        "bad label": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> _:-g .\n",
    },
    "graphs": {
        "bad UTF-8 byte": b'<http://ex.org/s> <http://ex.org/p> "caf\xe9" .\n',
        "unterminated literal": b'<http://ex.org/s> <http://ex.org/p> "open .\n',
        "IRI holding a space": b"<http://ex.org/s> <http://ex.org/p q> <http://ex.org/o> .\n",
        "bare CR": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\r<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n",
        "bad datatype IRI": b'<http://ex.org/o> <http://ex.org/p> "1"^^<n> .\n',
        "bad blank label": b"_:-s <http://ex.org/p> <http://ex.org/o> .\n",
        "graph label": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .\n",
        "bad graph label": b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> _:-g .\n",
    },
}
_ELEMENT_MANIFEST = {"datasets": MANIFEST_OK, "graphs": {"usages": [{"streamType": "subjectGraphStream"}]}}
_FLAT_FRAMING = {"datasets": Framing.FLAT_QUADS, "graphs": Framing.FLAT_TRIPLES}


@pytest.mark.parametrize("layout", ["framed", "dir", "-", "flat", "flat -"])
@pytest.mark.parametrize("payload, kind", [(payload, kind) for payload in _MALFORMED_LINES
                                           for kind in _MALFORMED_LINES[payload]])
def test_a_malformed_element_line_fails_the_cli_as_it_fails_the_term_path(
        payload, kind, layout, tmp_path, monkeypatch, capsys):
    good = _GOOD_ELEMENT[payload]
    elements = [good, good + _MALFORMED_LINES[payload][kind] + good]
    stdin = layout.endswith("-")
    framing = _FLAT_FRAMING[payload] if layout.startswith("flat") else Framing(
        f"{'dir' if layout == 'dir' else 'framed'}-{payload}")
    path = tmp_path / "in"
    if layout == "dir":
        path.mkdir()
        for i, element in enumerate(elements):
            (path / f"{i:05d}.{'nq' if framing.quads_payload else 'nt'}").write_bytes(element)
    else:
        path.write_bytes(b"#---\n".join(elements))
    with pytest.raises(StaxError) as raised:
        list((read_flat_stream if framing.is_flat else read_grouped_stream)(path, framing))
    error = raised.value
    assert isinstance(error, ParseError) or framing.payload is Payload.GRAPHS
    if isinstance(error, ParseError):
        error = ParseError(error.line, error.column, error.reason, "-" if stdin else error.member)
    expected = f"stax-kit: {type(error).__name__}: {error}\n"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_ELEMENT_MANIFEST[payload]))
    source = "-" if stdin else str(path)
    for argv in (["classify", "--input", source, "--framing", framing.value, "--json"],
                 ["validate", "--manifest", str(manifest), "--data", source, "--framing", framing.value]):
        set_stdin(monkeypatch, path.read_bytes() if stdin else b"")
        assert main(argv) == 3, argv
        assert capsys.readouterr() == ("", expected), argv


_CANONICAL_QUADS = [QUAD_LINE % (i, i, i % 2) for i in range(3)] + [TRIPLE_LINE % (4, 4)]


@pytest.mark.parametrize(
    "data, from_type, to_type, batch_size, expected",
    [
        (framed_graphs(2, 0, 3), "graphStream", "flatQuadStream", None, None),
        (framed_graphs(2, 1), "graphStream", "datasetStream", None, None),
        (flat_triples(3), "flatTripleStream", "flatQuadStream", None, None),
        (b"".join(QUAD_LINE % (i, i, i) for i in range(3)) + b"#---\n" + TRIPLE_LINE % (4, 4),
         "datasetStream", "flatQuadStream", None, None),
        # Group plans, which frame the reader's batches: a batch's
        # default-graph lines come first, then each named graph's.
        (flat_triples(3), "flatTripleStream", "graphStream", None, flat_triples(3).replace(b".\n<", b".\n#---\n<")),
        (flat_triples(3), "flatTripleStream", "datasetStream", "2",
         flat_triples(2) + b"#---\n" + TRIPLE_LINE % (2, 2)),
        (b"".join(_CANONICAL_QUADS), "flatQuadStream", "datasetStream", "4",
         b"".join([_CANONICAL_QUADS[3], _CANONICAL_QUADS[0], _CANONICAL_QUADS[2], _CANONICAL_QUADS[1]])),
    ],
)
def test_a_re_framing_of_canonical_input_serializes_no_term(
    data, from_type, to_type, batch_size, expected, tmp_path, monkeypatch
):
    # Canonical lines go from the reader to the writer as text.
    def refuse(term):
        raise AssertionError(f"serialized {term!r}")

    monkeypatch.setattr(staxkit.writer, "serialize_term", refuse)
    src, out = tmp_path / "in", tmp_path / "out"
    src.write_bytes(data)
    argv = ["convert", "--input", str(src), "--output", str(out), "--from", from_type, "--to", to_type,
            "--policy", "transitive"] + ([] if batch_size is None else ["--batch-size", batch_size])
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    if expected is None:
        expected = data if to_type == "datasetStream" else data.replace(b"#---\n", b"")
    assert out.read_bytes() == expected


def cli_env():
    """The environment of a CLI child process: the package on its path and
    stdout block-buffered, as a shell gives it, whatever this process has."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(staxkit.__file__).parents[1])}


@pytest.mark.parametrize(
    "command", ["classify", "validate", "taxonomy", "convert-bad-line", "classify-expect", "taxonomy-path"]
)
def test_closed_stdout_exits_141_quietly_when_the_output_is_buffered(command, tmp_path):
    # The output fits stdout's buffer, so it meets the closed pipe only when
    # it is flushed; the pipe has no reader from the start.  A failure after
    # some output, a bad line after the first element, an --expect not met or
    # no plan, prints nothing either: stdout is flushed before its line.
    src = tmp_path / "in.bin"
    src.write_bytes(framed_graphs(1, 1))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(framed_graphs(1) + b"#---\n<http://ex.org/t> <http://ex.org/p> junk .\n")
    same = tmp_path / "same.bin"
    same.write_bytes(framed_graphs(1) + b"#---\n" + framed_graphs(1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"usages": [{"streamType": "graphStream"}]}))
    argv = {
        "classify": ["classify", "--input", str(src), "--framing", "framed-graphs", "--json"],
        "validate": ["validate", "--manifest", str(manifest), "--data", str(src), "--framing", "framed-graphs", "--json"],
        "taxonomy": ["taxonomy", "closure"],
        "convert-bad-line": ["convert", "--input", str(bad), "--from", "graphStream", "--to", "flatTripleStream",
                             "--output", "-"],
        "classify-expect": ["classify", "--input", str(same), "--framing", "framed-graphs",
                            "--expect", "subjectGraphStream"],
        "taxonomy-path": ["taxonomy", "path", "flatQuadStream", "graphStream", "--json"],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "staxkit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_the_module_entry_point_freezes_the_start_up_heap():
    # runpy runs the module as `python -m staxkit.cli` does; the exit hook
    # reports the freeze count that run() left.
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv[1:] = ['taxonomy', 'relate', 'flatten', 'subjectGraphStream', 'flatTripleStream']\n"
        "runpy.run_module('staxkit.cli', run_name='__main__', alter_sys=True)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "true\n")
    assert int(done.stderr) > 0


def test_main_leaves_the_garbage_collector_as_it_finds_it(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(framed_graphs(2, 3))
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["classify", "--input", str(src), "--framing", "framed-graphs", "--json"]) == 0
    assert main(["taxonomy", "relate", "flatten", "subjectGraphStream", "flatTripleStream"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def _stax_error_classes(cls=StaxError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _stax_error_classes(sub)


def _instance(cls):
    if cls is ParseError:
        return cls(4, 2, "broken")
    if cls is NoConversionPath:
        return cls("graphStream", "flatQuadStream", "strict")
    return cls("broken")


EXIT_CODES = {NoConversionPath: 1, Nonconforming: 1, InvalidBatchSize: 2, UnknownType: 2, AbstractType: 2, UsageError: 2}


@pytest.mark.parametrize("cls", list(_stax_error_classes()), ids=lambda c: c.__name__)
def test_every_stax_error_gives_its_exit_code_and_one_line(cls, capsys, monkeypatch):
    exc = _instance(cls)

    def command(args, taxonomy):
        raise exc

    monkeypatch.setattr(staxkit.cli, "_cmd_taxonomy", command)
    code = main(["taxonomy", "closure"])
    # UnknownStreamType is a manifest's data error although it is an UnknownType
    assert code == EXIT_CODES.get(cls, 3)
    name = f"{cls.__name__}: " if code == 3 else ""
    assert capsys.readouterr().err == f"stax-kit: {name}{exc}\n"


def readme_exit_codes() -> set[int]:
    """The codes of README's exit-code table."""
    section = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("### Exit codes\n")[1]
    table = section.strip().split("\n\n")[0].splitlines()
    return {int(row.split("|")[1]) for row in table[2:]}


FAILURES = {
    "bad-timestamp-predicate": (
        ["classify", "--input", "{same}", "--framing", "framed-graphs", "--timestamp-predicate", "bad<iri"],
        2, "bad --timestamp-predicate: IRI has no scheme separator ':': 'bad<iri'",
    ),
    "negative-max-evidence": (
        ["classify", "--input", "{same}", "--framing", "framed-graphs", "--max-evidence", "-1"],
        2, "--max-evidence must be non-negative",
    ),
    "data-without-framing": (
        ["validate", "--manifest", "{crossed}", "--data", "{same}"], 2, "--data requires --framing",
    ),
    "unknown-relation": (
        ["taxonomy", "relate", "sideways", "graphStream", "flatTripleStream"], 2, "unknown relation name: 'sideways'",
    ),
    "expect-not-met": (
        ["classify", "--input", "{same}", "--framing", "framed-graphs", "--expect", "subjectGraphStream"],
        1, "stream does not conform to subjectGraphStream",
    ),
    "expect-not-applicable": (
        ["classify", "--input", "{same}", "--framing", "framed-graphs", "--expect", "flatQuadStream"],
        1, "flatQuadStream does not apply to framed-graphs streams",
    ),
    "no-plan": (
        ["taxonomy", "path", "flatQuadStream", "graphStream"], 1, "no strict conversion path from flatQuadStream to graphStream",
    ),
    "inconsistent-manifest": (
        ["validate", "--manifest", "{inconsistent}"], 1, "manifest is inconsistent: 1 violation(s)",
    ),
    "failed-cross-check": (
        ["validate", "--manifest", "{crossed}", "--data", "{same}", "--framing", "framed-graphs"],
        1, "cross check failed: subjectGraphStream",
    ),
    "bad-data-line": (
        ["classify", "--input", "{bad}", "--framing", "framed-graphs"],
        3, "ParseError: {bad}: line 3, column 37: expected IRI, blank node, or literal",
    ),
    "missing-input": (
        ["classify", "--input", "{absent}", "--framing", "framed-graphs"],
        3, "[Errno 2] No such file or directory: '{absent}'",
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_every_failure_gives_a_documented_exit_code_and_one_line(case, tmp_path, capsys):
    # Each handler fails by raising, and main alone prints the one line.
    paths = {name: tmp_path / name for name in ("same", "bad", "absent", "crossed", "inconsistent")}
    paths["same"].write_bytes(framed_graphs(1) + b"#---\n" + framed_graphs(1))
    paths["bad"].write_bytes(framed_graphs(1) + b"#---\n<http://ex.org/t> <http://ex.org/p> junk .\n")
    for name, second in (("crossed", "subjectGraphStream"), ("inconsistent", "datasetStream")):
        paths[name].write_text(json.dumps({"usages": [{"streamType": "graphStream"}, {"streamType": second}]}))
    argv, code, line = FAILURES[case]
    assert main([arg.format_map(paths) for arg in argv]) == code
    assert code in readme_exit_codes()
    assert capsys.readouterr().err == f"stax-kit: {line.format_map(paths)}\n"


# Terms are str and tuple subclasses, which json.dumps writes without
# complaint (a BlankNode without its '_:'), so a term leaking into a report
# would go unnoticed in the printed JSON.
LEAKY_GRAPHS = (
    b"<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n"
    b"<http://ex.org/b> <http://ex.org/p> <http://ex.org/a> .\n"
    b"#---\n<http://ex.org/a> <http://ex.org/p> <http://ex.org/c> .\n"
    b'#---\n_:x <http://ex.org/p> "lit"@en .\n'
)
LEAKY_DATASETS = timestamped_datasets("2024-01-02T00:00:00Z", "2024-01-01T00:00:00Z") + (
    b"#---\n<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> _:g .\n"
    b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> _:h .\n"
)


def assert_plain_json(value, where="$"):
    """Every str in value, keys included, is exactly a str; no value is a term."""
    assert not isinstance(value, (Iri, BlankNode, Literal, Triple, Quad)), where
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, where
            assert_plain_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_plain_json(item, f"{where}[{i}]")
    elif isinstance(value, str):
        assert type(value) is str, where
    else:
        assert value is None or type(value) in (bool, int, float), where


@pytest.mark.parametrize(
    "data, framing",
    [(LEAKY_GRAPHS, "framed-graphs"), (LEAKY_DATASETS, "framed-datasets")],
    ids=["graphs", "datasets"],
)
def test_json_reports_hold_plain_values_only(data, framing, tmp_path, capsys, monkeypatch):
    report = classify_stream(data, Framing(framing)).to_dict()
    assert report["notes"] or report["evidence"]  # the strings built from terms
    assert_plain_json(report)
    printed = []
    monkeypatch.setattr(staxkit.commands, "_print_json", printed.append)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(MANIFEST_OK))
    main(["classify", "--input", str(src), "--framing", framing, "--json"])
    main(["validate", "--manifest", str(manifest), "--data", str(src), "--framing", framing, "--json"])
    assert [sorted(doc) for doc in printed] == [sorted(report), ["consistent", "crossCheck", "violations"]]
    for doc in printed:
        assert_plain_json(doc)


class TestParseErrorsNameTheInput:
    BAD = flat_triples(1) + b"<http://ex.org/s> <http://ex.org/p> junk .\n"

    def test_path_input(self, tmp_path, capsys):
        f = tmp_path / "bad.nt"
        f.write_bytes(self.BAD)
        assert main(["classify", "--input", str(f), "--framing", "flat-triples"]) == 3
        err = capsys.readouterr().err
        assert err == f"stax-kit: ParseError: {f}: line 2, column 37: expected IRI, blank node, or literal\n"

    @pytest.mark.parametrize("command", ["classify", "validate", "convert"])
    def test_stdin_is_named_dash(self, command, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(MANIFEST_OK))
        argv = {
            "classify": ["classify", "--input", "-", "--framing", "flat-triples"],
            "validate": ["validate", "--manifest", str(manifest), "--data", "-", "--framing", "flat-triples"],
            "convert": ["convert", "--input", "-", "--output", "-", "--from", "flatTripleStream", "--to", "flatQuadStream"],
        }[command]
        monkeypatch.setattr(sys, "stdin", LineOnlyStdin(self.BAD))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "stax-kit: ParseError: -: line 2, column 37: expected IRI, blank node, or literal\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--input", "-", "--framing", "dir-graphs"],
            ["validate", "--manifest", "{manifest}", "--data", "-", "--framing", "dir-datasets"],
        ],
        ids=["classify", "validate"],
    )
    def test_directory_framings_refuse_stdin(self, argv, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(MANIFEST_OK))
        monkeypatch.setattr(sys, "stdin", LineOnlyStdin(flat_triples(1)))
        assert main([a.format(manifest=manifest) for a in argv]) == 3
        assert capsys.readouterr().err == "stax-kit: MixedPayload: directory framings cannot read standard input\n"

    @pytest.mark.parametrize(
        "data, framing, message",
        [
            (BAD, "flat-triples", "ParseError: {}: line 2, column 37: expected IRI, blank node, or literal"),
            (
                b'<http://ex.org/s> <http://ex.org/p> "a\\q" .\n',
                "flat-triples",
                "ParseError: {}: line 1, column 39: bad escape '\\q'",
            ),
            (QUAD_LINE % (0, 0, 0), "framed-graphs", "MixedPayload: line 1: named graph label inside a graph framing"),
        ],
        ids=["bad-term", "bad-escape", "graph-label"],
    )
    def test_a_fresh_process_locates_the_error(self, data, framing, message, tmp_path):
        # The error locator is imported only when a line needs it: here by
        # the process's first malformed line.
        f = tmp_path / "bad.nt"
        f.write_bytes(data)
        done = subprocess.run(
            [sys.executable, "-m", "staxkit.cli", "classify", "--input", str(f), "--framing", framing],
            capture_output=True, env=cli_env(), timeout=60,
        )
        assert (done.returncode, done.stderr) == (3, f"stax-kit: {message.format(f)}\n".encode())

    def test_byte_order_mark_is_named(self, tmp_path, capsys):
        f = tmp_path / "bom.nt"
        f.write_bytes(b"\xef\xbb\xbf" + flat_triples(1))
        assert main(["classify", "--input", str(f), "--framing", "flat-triples"]) == 3
        err = capsys.readouterr().err
        assert err == f"stax-kit: ParseError: {f}: line 1, column 1: unexpected byte order mark (U+FEFF)\n"


class TestTaxonomy:
    def test_relate_true(self, capsys):
        code = main(["taxonomy", "relate", "flatten", "subjectGraphStream", "flatTripleStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_relate_false_still_exits_zero(self, capsys):
        code = main(["taxonomy", "relate", "flatten", "graphStream", "flatQuadStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_relate_unknown_type(self, capsys):
        code = main(["taxonomy", "relate", "flatten", "nope", "flatQuadStream"])
        assert code == 2

    def test_relate_unknown_relation(self, capsys):
        code = main(["taxonomy", "relate", "squash", "graphStream", "flatQuadStream"])
        assert code == 2

    def test_closure_json(self, capsys):
        code = main(["taxonomy", "closure", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == [
            "broader",
            "canBeFlattenedInto",
            "canBeGroupedInto",
            "canBeTriviallyExtendedInto",
        ]
        assert ["subjectGraphStream", "flatTripleStream"] in doc["canBeFlattenedInto"]

    def test_closure_human(self, capsys):
        code = main(["taxonomy", "closure"])
        assert code == 0
        out = capsys.readouterr().out
        assert "broader:" in out
        assert "  subjectGraphStream -> graphStream" in out

    def test_path_single_step(self, capsys):
        code = main(["taxonomy", "path", "subjectGraphStream", "flatTripleStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "flatten: subjectGraphStream -> flatTripleStream"
        )

    def test_path_identity(self, capsys):
        code = main(["taxonomy", "path", "subjectGraphStream", "graphStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(identity)"

    def test_path_none_exits_one(self, capsys):
        code = main(["taxonomy", "path", "graphStream", "flatQuadStream"])
        assert code == 1
        assert "no strict conversion path" in capsys.readouterr().err

    def test_path_json(self, capsys):
        code = main(
            ["taxonomy", "path", "graphStream", "flatQuadStream", "--policy", "transitive", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        schema_validate(doc, PATH_SCHEMA)
        assert doc["path"] == [
            {"relation": "extend", "source": "graphStream", "target": "datasetStream"},
            {"relation": "flatten", "source": "datasetStream", "target": "flatQuadStream"},
        ]

    def test_path_json_none(self, capsys):
        code = main(["taxonomy", "path", "flatQuadStream", "graphStream", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        schema_validate(doc, PATH_SCHEMA)
        assert doc["path"] is None


class TestAnnotate:
    def test_stdout_turtle(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps(MANIFEST_OK))
        code = main(["annotate", "--manifest", str(m)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stax:hasStreamTypeUsage [" in out
        assert "stax:hasStreamType stax:datasetStream" in out

    def test_out_file(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        out = tmp_path / "usage.ttl"
        m.write_text(json.dumps(MANIFEST_OK))
        code = main(["annotate", "--manifest", str(m), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("@prefix dcat:")
        assert capsys.readouterr().err == f"stax-kit: wrote {out.stat().st_size} byte(s) to {out}\n"

    def test_out_dash_is_stdout(self, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.chdir(tmp_path)
        argv, written = file_target_call("annotate", tmp_path, "-")
        assert main(argv) == 0
        assert capsysbinary.readouterr() == (written, b"")
        assert not (tmp_path / "-").exists()

    # A path that ends in '/' names a directory, as for convert: a missing
    # path, one under a missing directory or an existing file there gets the
    # error an existing directory gets, and nothing is created or changed.
    @pytest.mark.parametrize(
        "target, existing",
        [("usage.ttl", None), ("usage.ttl", b"old\n"), ("missing/usage.ttl", None)],
        ids=["missing", "existing-file", "missing-parent"],
    )
    def test_out_path_ending_in_a_slash_names_a_directory(self, target, existing, tmp_path, capsys):
        out = tmp_path / target
        argv, _ = file_target_call("annotate", tmp_path, f"{out}/")
        if existing is not None:
            out.write_bytes(existing)
            out.chmod(0o640)
        before = {p.name: (p.read_bytes(), p.stat().st_mode) for p in tmp_path.iterdir()}
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"stax-kit: [Errno 21] Is a directory: '{out}/'\n")
        assert {p.name: (p.read_bytes(), p.stat().st_mode) for p in tmp_path.iterdir()} == before

    def test_failed_out_write_leaves_the_target(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "usage.ttl"
        argv, _ = file_target_call("annotate", tmp_path, out)
        out.write_bytes(b"old\n")

        def fail_part_way(texts, sink):
            sink.write(b"@prefix")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(staxkit.writer, "_write_texts", fail_part_way)
        assert main(argv) == 3
        assert capsys.readouterr().err == "stax-kit: [Errno 28] No space left on device\n"
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "usage.ttl"]

    def test_unknown_stream_type_is_data_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps({"usages": [{"streamType": "zigzag"}]}))
        code = main(["annotate", "--manifest", str(m)])
        assert code == 3

    def test_empty_usages_is_data_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps({"usages": []}))
        code = main(["annotate", "--manifest", str(m)])
        assert code == 3

    def test_manifest_not_utf8_is_data_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_bytes(b'{"usages": [{"streamType": "datasetStream", "comment": "\xff"}]}')
        code = main(["annotate", "--manifest", str(m)])
        assert code == 3
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_missing_manifest_file(self, tmp_path, capsys):
        code = main(["annotate", "--manifest", str(tmp_path / "absent.json")])
        assert code == 3


class TestValidate:
    def test_consistent_manifest(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps(MANIFEST_OK))
        code = main(["validate", "--manifest", str(m)])
        assert code == 0
        assert "consistent: true" in capsys.readouterr().out

    def test_inconsistent_manifest(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps(MANIFEST_BAD_PAIR))
        code = main(["validate", "--manifest", str(m), "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        schema_validate(doc, VALIDATE_SCHEMA)
        assert doc["consistent"] is False
        assert doc["violations"][0]["rule"] == "pair-relation"

    def test_transitive_policy_rescues_the_pair(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps(MANIFEST_BAD_PAIR))
        code = main(["validate", "--manifest", str(m), "--policy", "transitive"])
        assert code == 0

    def test_cross_check_pass(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.bin"
        m.write_text(json.dumps(MANIFEST_OK))
        data.write_bytes(timestamped_datasets("2024-01-01T00:00:00Z", "2024-01-02T00:00:00Z"))
        code = main(
            [
                "validate",
                "--manifest",
                str(m),
                "--data",
                str(data),
                "--framing",
                "framed-datasets",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        schema_validate(doc, VALIDATE_SCHEMA)
        assert all(e["pass"] for e in doc["crossCheck"])

    def test_cross_check_failure(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.nt"
        m.write_text(json.dumps({"usages": [{"streamType": "timestampedNamedGraphStream"}]}))
        data.write_bytes(flat_triples(2))
        code = main(
            [
                "validate",
                "--manifest",
                str(m),
                "--data",
                str(data),
                "--framing",
                "flat-triples",
                "--json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"] is True
        assert not doc["crossCheck"][0]["pass"]

    @pytest.mark.parametrize("policy, code, verdict", [
        ("strict", 1, "fail (no conforming type converts into it)"),
        ("transitive", 0, "pass (conforming graphStream reaches it via extend, flatten)"),
    ])
    def test_cross_check_follows_the_policy(self, policy, code, verdict, tmp_path, capsys):
        # convert --policy transitive turns these graphs into a flatQuadStream
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.bin"
        m.write_text(json.dumps(MANIFEST_BAD_PAIR))
        data.write_bytes(framed_graphs(1, 2))
        argv = ["validate", "--manifest", str(m), "--data", str(data), "--framing", "framed-graphs"]
        assert main(argv + ["--policy", policy]) == code
        assert f"  flatQuadStream: {verdict}\n" in capsys.readouterr().out

    def test_timestamp_options_reach_the_classifier(self, tmp_path, capsys):
        m, data = tmp_path / "manifest.json", tmp_path / "data.nq"
        m.write_text(json.dumps({"usages": [{"streamType": "timestampedNamedGraphStream"}]}))
        argv = ["validate", "--manifest", str(m), "--data", str(data), "--framing", "framed-datasets"]
        # Stamped with another predicate: fails unless that predicate is named.
        data.write_bytes(timestamped_datasets("2024-01-01T00:00:00Z").replace(
            b"http://www.w3.org/ns/prov#generatedAtTime", b"http://ex.org/seen"))
        assert main(argv) == 1
        assert main(argv + ["--timestamp-predicate", "http://ex.org/seen"]) == 0
        # Out of order: fails unless the order check is off.
        data.write_bytes(timestamped_datasets("2024-01-02T00:00:00Z", "2024-01-01T00:00:00Z"))
        assert main(argv) == 1
        assert main(argv + ["--no-order-check"]) == 0
        capsys.readouterr()
        assert main(argv + ["--timestamp-predicate", "not an iri"]) == 2
        assert capsys.readouterr().err.startswith("stax-kit: bad --timestamp-predicate: ")

    def test_data_without_framing_is_usage_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.nt"
        m.write_text(json.dumps(MANIFEST_OK))
        data.write_bytes(flat_triples(1))
        code = main(["validate", "--manifest", str(m), "--data", str(data)])
        assert code == 2

    @pytest.mark.parametrize("manifest", ['{"usages": []}', None], ids=["empty-usages", "absent"])
    def test_data_without_framing_is_reported_before_the_manifest_is_read(self, manifest, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        if manifest is not None:
            m.write_text(manifest)
        data = tmp_path / "data.nt"
        data.write_bytes(flat_triples(1))
        assert main(["validate", "--manifest", str(m), "--data", str(data)]) == 2
        assert capsys.readouterr().err == "stax-kit: --data requires --framing\n"

    def test_human_output_mentions_cross_check(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.bin"
        m.write_text(json.dumps({"usages": [{"streamType": "datasetStream"}]}))
        data.write_bytes(timestamped_datasets("2024-01-01T00:00:00Z"))
        code = main(
            [
                "validate",
                "--manifest",
                str(m),
                "--data",
                str(data),
                "--framing",
                "framed-datasets",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cross check:" in out
        assert "datasetStream: pass" in out


CUSTOM_TAXONOMY = {
    "types": [
        {"id": "anyStream", "iri": "http://x:1/any", "kind": "abstract"},
        {"id": "leftStream", "iri": "http://x:1/left", "kind": "concrete"},
        {"id": "rightStream", "iri": "http://x:1/right", "kind": "concrete"},
    ],
    "relations": [
        ["leftStream", "broader", "anyStream"],
        ["rightStream", "broader", "anyStream"],
        ["leftStream", "flatten", "rightStream"],
    ],
}


class TestTaxonomyOverride:
    def test_env_var_replaces_builtin(self, tmp_path, capsys, monkeypatch):
        tax_file = tmp_path / "taxonomy.json"
        tax_file.write_text(json.dumps(CUSTOM_TAXONOMY))
        monkeypatch.setenv("STAX_TAXONOMY", str(tax_file))
        code = main(["taxonomy", "relate", "flatten", "leftStream", "rightStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"
        # the builtin types are gone
        code = main(["taxonomy", "relate", "flatten", "graphStream", "flatTripleStream"])
        assert code == 2

    def test_bad_override_file_is_data_error(self, tmp_path, capsys, monkeypatch):
        tax_file = tmp_path / "taxonomy.json"
        tax_file.write_text("{broken")
        monkeypatch.setenv("STAX_TAXONOMY", str(tax_file))
        assert main(["taxonomy", "closure"]) == 3

    def test_missing_override_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STAX_TAXONOMY", str(tmp_path / "absent.json"))
        assert main(["taxonomy", "closure"]) == 3

    @pytest.mark.parametrize(
        "command, framing, missing",
        [
            ("classify", "framed-graphs", "graphStream, subjectGraphStream"),
            ("classify", "flat-triples", "flatTripleStream"),
            ("validate", "framed-datasets", "datasetStream, namedGraphStream, timestampedNamedGraphStream"),
        ],
    )
    def test_readme_taxonomy_cannot_classify_and_says_why(
        self, command, framing, missing, tmp_path, capsys, monkeypatch
    ):
        # README's "Custom taxonomies" example holds none of the built-in types
        tax_file = tmp_path / "taxonomy.json"
        tax_file.write_text(readme_json_example("types"))
        monkeypatch.setenv("STAX_TAXONOMY", str(tax_file))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"usages": [{"streamType": "leafStream"}]}))
        data = str(tmp_path / "absent.bin")  # the check comes before any input is read
        if command == "classify":
            argv = ["classify", "--input", data]
        else:
            argv = ["validate", "--manifest", str(manifest), "--data", data]
        assert main(argv + ["--framing", framing]) == 3
        assert capsys.readouterr() == (
            "",
            f"stax-kit: SchemaError: the taxonomy lacks {missing}, which {framing} streams are classified against\n",
        )

    @pytest.mark.parametrize("command", ["taxonomy", "validate", "convert"])
    def test_an_edge_no_converter_runs_is_refused_at_load(self, command, tmp_path, capsys, monkeypatch):
        # datasets do not extend into graphs: every subcommand refuses the taxonomy alike
        doc = default_taxonomy().to_dict()
        doc["relations"].append(["datasetStream", "extend", "graphStream"])
        tax_file = tmp_path / "taxonomy.json"
        tax_file.write_text(json.dumps(doc))
        monkeypatch.setenv("STAX_TAXONOMY", str(tax_file))
        data = tmp_path / "one-quad.nq"
        data.write_text("<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g> .\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"usages": [{"streamType": "graphStream"}]}))
        argv = {
            "taxonomy": ["taxonomy", "path", "datasetStream", "graphStream"],
            "validate": ["validate", "--manifest", str(manifest), "--data", str(data), "--framing", "framed-datasets"],
            "convert": ["convert", "--input", str(data), "--from", "datasetStream", "--to", "graphStream",
                        "--output", "-"],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "",
            "stax-kit: SchemaError: canBeTriviallyExtendedInto edge (datasetStream, graphStream) "
            "cannot take datasetStream (datasets) to graphStream (graphs)\n",
        )

    def test_unset_env_uses_builtin(self, capsys, monkeypatch):
        monkeypatch.delenv("STAX_TAXONOMY", raising=False)
        code = main(["taxonomy", "relate", "flatten", "graphStream", "flatTripleStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"
