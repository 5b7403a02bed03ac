import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate as schema_validate

import staxkit
from staxkit.cli import _COMMANDS, _framing_for, main
from staxkit.errors import (
    AbstractType,
    InvalidBatchSize,
    NoConversionPath,
    ParseError,
    StaxError,
    UnknownType,
)
from staxkit.classify import classify_stream
from staxkit.convert import payload_kind
from staxkit.framing import Framing
from staxkit.model import BlankNode, Iri, Literal, Quad, Triple
from staxkit.taxonomy import TypeKind, default_taxonomy, infer_closure
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
    """A stdin whose binary buffer yields lines but refuses a whole read."""

    def __init__(self, payload: bytes):
        self.buffer = self
        self._lines = payload.splitlines(keepends=True)

    def read(self, *args):
        raise AssertionError("standard input must be read incrementally")

    def __iter__(self):
        return iter(self._lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--framing", "framed-graphs", "--json"],
        ["convert", "--output", "-", "--from", "graphStream", "--to", "flatTripleStream"],
    ],
)
def test_stdin_is_read_incrementally(argv, tmp_path, monkeypatch, capsysbinary):
    data = framed_graphs(2, 1, 3)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    assert main(argv + ["--input", str(src)]) == 0
    from_path = capsysbinary.readouterr().out
    monkeypatch.setattr(sys, "stdin", LineOnlyStdin(data))
    assert main(argv + ["--input", "-"]) == 0
    assert capsysbinary.readouterr().out == from_path != b""


def test_default_framing_carries_the_payload_of_every_concrete_type(tmp_path):
    inferred = infer_closure(default_taxonomy())
    for type_id, t in inferred.taxonomy.types.items():
        if t.kind is not TypeKind.CONCRETE:
            continue
        payload = payload_kind(inferred, type_id)
        for path in ("-", str(tmp_path / "in.bin"), str(tmp_path)):
            framing = _framing_for(payload, path, None, "--input-framing")
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

    def test_missing_output_directory_names_the_target(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(1))
        dst = tmp_path / "missing" / "out.nt"
        assert main(["convert", "--input", str(src), "--output", str(dst), *self.TO_FLAT]) == 3
        assert capsys.readouterr().err == f"stax-kit: [Errno 2] No such file or directory: '{dst}'\n"

    def test_output_may_be_the_input(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(self.GOOD)
        assert main(["convert", "--input", str(src), "--output", str(src), *self.TO_FLAT]) == 0
        assert src.read_bytes() == self.GOOD.replace(b"#---\n", b"")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]

    def test_file_output_keeps_the_mode_open_gives(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(1))
        dst = tmp_path / "out.nt"
        argv = ["convert", "--input", str(src), "--output", str(dst), *self.TO_FLAT]
        probe = tmp_path / "probe"
        probe.write_bytes(b"")
        assert main(argv) == 0
        assert dst.stat().st_mode == probe.stat().st_mode
        dst.chmod(0o640)
        assert main(argv) == 0
        assert stat.S_IMODE(dst.stat().st_mode) == 0o640

    def test_file_output_writes_through_a_symlink_and_to_a_device(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(framed_graphs(1))
        dst, link = tmp_path / "out.nt", tmp_path / "link.nt"
        link.symlink_to(dst)
        for target in (link, os.devnull):
            assert main(["convert", "--input", str(src), "--output", str(target), *self.TO_FLAT]) == 0
        assert link.is_symlink() and dst.read_bytes() == framed_graphs(1)

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

    def test_zero_batch_size_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_bytes(flat_triples(2))
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
                "graphStream",
                "--batch-size",
                "0",
            ]
        )
        assert code == 2

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
                str(out_dir),
                "--from",
                "flatTripleStream",
                "--to",
                "graphStream",
                "--batch-size",
                "2",
                "--output-framing",
                "dir-graphs",
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
                str(out_dir),
                "--from",
                "graphStream",
                "--to",
                "graphStream",
                "--output-framing",
                "dir-graphs",
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
            str(out_dir),
            "--from",
            "flatTripleStream",
            "--to",
            "graphStream",
            "--batch-size",
            "2",
            "--output-framing",
            "dir-graphs",
        ]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main(argv[:-4] + ["--batch-size", "4", "--output-framing", "dir-graphs"]) == 3
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

    def test_framing_override_kind_mismatch(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_bytes(flat_triples(1))
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
                "--input-framing",
                "flat-triples",
            ]
        )
        assert code == 3  # flat-triples framing cannot carry graph elements

    def test_framing_override_mismatch_message(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_bytes(flat_triples(1))
        argv = ["convert", "--input", str(src), "--output", "-", "--from", "graphStream"]
        code = main(argv + ["--to", "flatTripleStream", "--input-framing", "flat-triples"])
        assert code == 3
        assert capsys.readouterr().err == (
            "stax-kit: MixedPayload: --input-framing flat-triples cannot carry a stream of graphs\n"
        )

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


EXIT_CODES = {NoConversionPath: 1, InvalidBatchSize: 2, UnknownType: 2, AbstractType: 2}


@pytest.mark.parametrize("cls", list(_stax_error_classes()), ids=lambda c: c.__name__)
def test_every_stax_error_gives_its_exit_code_and_one_line(cls, capsys, monkeypatch):
    exc = _instance(cls)

    def command(args):
        raise exc

    monkeypatch.setitem(_COMMANDS, "taxonomy", command)
    code = main(["taxonomy", "closure"])
    # UnknownStreamType is a manifest's data error although it is an UnknownType
    assert code == EXIT_CODES.get(cls, 3)
    name = f"{cls.__name__}: " if code == 3 else ""
    assert capsys.readouterr().err == f"stax-kit: {name}{exc}\n"


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
    monkeypatch.setattr(staxkit.cli, "_print_json", printed.append)
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

    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_stdin_is_named_dash(self, command, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(MANIFEST_OK))
        argv = {
            "classify": ["classify", "--input", "-", "--framing", "flat-triples"],
            "validate": ["validate", "--manifest", str(manifest), "--data", "-", "--framing", "flat-triples"],
        }[command]
        monkeypatch.setattr(sys, "stdin", LineOnlyStdin(self.BAD))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "stax-kit: ParseError: -: line 2, column 37: expected IRI, blank node, or literal\n"

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

    def test_data_without_framing_is_usage_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        data = tmp_path / "data.nt"
        m.write_text(json.dumps(MANIFEST_OK))
        data.write_bytes(flat_triples(1))
        code = main(["validate", "--manifest", str(m), "--data", str(data)])
        assert code == 2

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

    def test_unset_env_uses_builtin(self, capsys, monkeypatch):
        monkeypatch.delenv("STAX_TAXONOMY", raising=False)
        code = main(["taxonomy", "relate", "flatten", "graphStream", "flatTripleStream"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"
