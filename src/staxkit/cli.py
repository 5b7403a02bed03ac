"""Command-line front end.

Subcommands: classify, convert, taxonomy (relate/closure/path), annotate,
validate.  Exit codes: 0 success (or an answered query); 1 semantic
nonconformance (failed --expect, inconsistent manifest, failed cross
check, no conversion path); 2 usage errors; 3 parse/data errors; 141
stdout closed by its reader.

The STAX_TAXONOMY environment variable may point to a taxonomy manifest
that replaces the built-in taxonomy for every subcommand.

Each subcommand imports the modules only it uses, so a call loads no more
of the package than it needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    AbstractType,
    InvalidBatchSize,
    MalformedIri,
    MixedPayload,
    NoConversionPath,
    ParseError,
    SchemaError,
    StaxError,
    UnknownStreamType,
    UnknownType,
)
from .framing import Framing, Payload
from .taxonomy import (
    RELATION_NAMES,
    Taxonomy,
    conversion_path,
    default_taxonomy,
    infer_closure,
    load_taxonomy,
    normalize_relation,
    relates,
)

if TYPE_CHECKING:
    from .classify import ClassificationReport

_FRAMING_NAMES = [f.value for f in Framing]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stax-kit",
        description="Classify, convert, annotate, and validate RDF streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a stream against the taxonomy")
    p.add_argument("--input", required=True, help="input path, or - for stdin")
    p.add_argument("--framing", required=True, choices=_FRAMING_NAMES)
    p.add_argument(
        "--timestamp-predicate",
        action="append",
        default=[],
        metavar="IRI",
        help="timestamp predicate IRI (repeatable; default prov:generatedAtTime)",
    )
    p.add_argument("--no-order-check", action="store_true", help="skip timestamp order checking")
    p.add_argument("--max-evidence", type=int, default=10, metavar="N")
    p.add_argument("--expect", metavar="TYPE", help="exit 1 unless TYPE conforms")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("convert", help="convert a stream between stream types")
    p.add_argument("--input", required=True, help="input path, or - for stdin")
    p.add_argument("--output", required=True, help="output path, or - for stdout")
    p.add_argument("--from", dest="from_type", required=True, metavar="TYPE")
    p.add_argument("--to", dest="to_type", required=True, metavar="TYPE")
    p.add_argument("--policy", choices=["strict", "transitive"], default="strict")
    p.add_argument("--batch-size", type=int, default=None, metavar="N")
    p.add_argument("--input-framing", choices=_FRAMING_NAMES, default=None)
    p.add_argument("--output-framing", choices=_FRAMING_NAMES, default=None)

    p = sub.add_parser("taxonomy", help="query the stream type taxonomy")
    tsub = p.add_subparsers(dest="taxonomy_command", required=True)
    pr = tsub.add_parser("relate", help="test an inferred relation between two types")
    pr.add_argument("relation", help="broader|flatten|group|extend or an ontology name")
    pr.add_argument("from_type", metavar="FROM")
    pr.add_argument("to_type", metavar="TO")
    pc = tsub.add_parser("closure", help="print all inferred relation pairs")
    pc.add_argument("--json", action="store_true")
    pp = tsub.add_parser("path", help="plan a conversion between two types")
    pp.add_argument("from_type", metavar="FROM")
    pp.add_argument("to_type", metavar="TO")
    pp.add_argument("--policy", choices=["strict", "transitive"], default="strict")
    pp.add_argument("--json", action="store_true")

    p = sub.add_parser("annotate", help="emit Turtle for an annotation manifest")
    p.add_argument("--manifest", required=True, help="manifest path")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="validate an annotation manifest")
    p.add_argument("--manifest", required=True, help="manifest path")
    p.add_argument("--data", default=None, help="stream to cross-check against")
    p.add_argument("--framing", choices=_FRAMING_NAMES, default=None)
    p.add_argument("--policy", choices=["strict", "transitive"], default="strict")
    p.add_argument("--json", action="store_true")
    return parser


def _active_taxonomy() -> Taxonomy:
    override = os.environ.get("STAX_TAXONOMY")
    if not override:
        return default_taxonomy()
    return load_taxonomy(_read_text(override))


def _read_text(path: str) -> str:
    """A UTF-8 document (manifest or taxonomy); bad encoding is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not valid UTF-8: {exc}") from None


def _read_source(path: str, framing: Framing):
    """Path or the binary stdin stream, ready for the io readers."""
    if path == "-":
        if framing.is_dir:
            raise MixedPayload("directory framings cannot read standard input")
        return sys.stdin.buffer
    return path


def _print_json(doc: dict) -> None:
    import json

    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import ClassifierConfig, classify_stream
    from .model import Iri

    taxonomy = _active_taxonomy()
    inferred = infer_closure(taxonomy)
    framing = Framing(args.framing)
    predicates = []
    for value in args.timestamp_predicate:
        try:
            predicates.append(Iri(value))
        except MalformedIri as exc:
            print(f"stax-kit: bad --timestamp-predicate: {exc}", file=sys.stderr)
            return 2
    if args.max_evidence < 0:
        print("stax-kit: --max-evidence must be non-negative", file=sys.stderr)
        return 2
    kwargs = {"check_timestamp_order": not args.no_order_check, "max_evidence": args.max_evidence}
    if predicates:
        kwargs["timestamp_predicates"] = frozenset(predicates)
    cfg = ClassifierConfig(**kwargs)
    if args.expect is not None:
        taxonomy.type(args.expect)  # unknown names are usage errors
    report = classify_stream(_read_source(args.input, framing), framing, cfg, inferred)
    if args.json:
        _print_json(report.to_dict())
    else:
        _print_report(report)
    if args.expect is not None and args.expect not in report.conforming:
        print(f"stax-kit: stream does not conform to {args.expect}", file=sys.stderr)
        return 1
    return 0


def _print_report(report: ClassificationReport) -> None:
    w = sys.stdout.write
    w(f"framing: {report.framing.value}\n")
    w(f"elements: {report.element_count}\n")
    w(f"statements: {report.statement_count}\n")
    w(f"conforming: {', '.join(report.conforming) or '(none)'}\n")
    w(f"most specific: {', '.join(report.most_specific) or '(none)'}\n")
    w(f"vacuous: {'true' if report.vacuous else 'false'}\n")
    w(f"ambiguous: {'true' if report.ambiguous else 'false'}\n")
    if report.first_violation:
        w("first violations:\n")
        for type_id in sorted(report.first_violation):
            v = report.first_violation[type_id]
            w(f"  {type_id} @ element {v.element_index}: {v.reason}\n")
    if report.notes:
        w("notes:\n")
        for note in report.notes:
            w(f"  - {note}\n")


def _framing_for(payload: Payload, path: str, override: str | None, flag: str) -> Framing:
    if override is not None:
        framing = Framing(override)
        if framing.payload is not payload:
            raise MixedPayload(
                f"{flag} {framing.value} cannot carry a stream of {payload.value}"
            )
        return framing
    if payload.is_flat:
        layout = "flat"
    else:
        layout = "dir" if path != "-" and os.path.isdir(path) else "framed"
    return Framing(f"{layout}-{payload.value}")


def _cmd_convert(args: argparse.Namespace) -> int:
    from .convert import convert, payload_kind
    from .io import read_flat_stream, read_grouped_stream, write_dir_stream, write_stream

    taxonomy = _active_taxonomy()
    inferred = infer_closure(taxonomy)
    from_payload = payload_kind(inferred, args.from_type)
    to_payload = payload_kind(inferred, args.to_type)
    in_framing = _framing_for(from_payload, args.input, args.input_framing, "--input-framing")
    out_framing = _framing_for(to_payload, args.output, args.output_framing, "--output-framing")

    source = _read_source(args.input, in_framing)
    if in_framing.is_flat:
        items = read_flat_stream(source, in_framing)
    else:
        items = read_grouped_stream(source, in_framing)
    out = convert(items, args.from_type, args.to_type, inferred, args.policy, args.batch_size)

    if out_framing.is_dir:
        names = write_dir_stream(out, out_framing, args.output)
        print(f"stax-kit: wrote {len(names)} element file(s) to {args.output}", file=sys.stderr)
        return 0
    if args.output == "-":
        write_stream(out, out_framing, sys.stdout.buffer)
        return 0
    size = _write_file(out, out_framing, args.output)
    print(f"stax-kit: wrote {size} byte(s) to {args.output}", file=sys.stderr)
    return 0


def _write_file(items: Iterable, framing: Framing, path: str) -> int:
    """Write a stream to path, which appears only once it is whole; the byte count.

    The stream goes to a temp file beside path.  On success os.replace moves
    it over path; any failure removes it, so path is left as it was.  The
    new file takes the mode of the file it replaces, or the mode open()
    gives a new file.  A symlink's target is replaced, not the link; a
    device or pipe, which cannot be replaced, is written in place.
    """
    import contextlib
    import stat
    import tempfile

    from .io import write_stream

    if not os.path.exists(path):
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    elif os.path.isfile(path):
        mode = stat.S_IMODE(os.stat(path).st_mode)
    else:
        with open(path, "wb") as f:
            return write_stream(items, framing, f)
    target = os.path.realpath(path)
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target))
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as f:
            os.chmod(temp, mode)
            size = write_stream(items, framing, f)
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
    return size


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    taxonomy = _active_taxonomy()
    inferred = infer_closure(taxonomy)
    if args.taxonomy_command == "relate":
        try:
            relation = normalize_relation(args.relation)
        except ValueError as exc:
            print(f"stax-kit: {exc}", file=sys.stderr)
            return 2
        answer = relates(inferred, relation, args.from_type, args.to_type)
        print("true" if answer else "false")
        return 0
    if args.taxonomy_command == "closure":
        if args.json:
            _print_json(
                {
                    name: [[a, b] for a, b in sorted(inferred.closure(name))]
                    for name in RELATION_NAMES
                }
            )
        else:
            for name in RELATION_NAMES:
                print(f"{name}:")
                for a, b in sorted(inferred.closure(name)):
                    print(f"  {a} -> {b}")
        return 0
    # path
    steps = conversion_path(inferred, args.from_type, args.to_type, args.policy)
    if args.json:
        _print_json(
            {
                "from": args.from_type,
                "to": args.to_type,
                "policy": args.policy,
                "path": None
                if steps is None
                else [
                    {"relation": s.relation, "source": s.source, "target": s.target}
                    for s in steps
                ],
            }
        )
    elif steps is None:
        pass
    elif not steps:
        print("(identity)")
    else:
        for s in steps:
            print(f"{s.relation}: {s.source} -> {s.target}")
    if steps is None:
        print(
            f"stax-kit: no {args.policy} conversion path from {args.from_type} "
            f"to {args.to_type}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    from .annotate import emit_turtle, load_manifest

    taxonomy = _active_taxonomy()
    manifest = load_manifest(_read_text(args.manifest), taxonomy)
    turtle = emit_turtle(manifest, taxonomy)
    if args.out is None:
        sys.stdout.write(turtle)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(turtle)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .annotate import ValidationReport, cross_check, load_manifest, validate_usages
    from .classify import ClassifierConfig, classify_stream

    taxonomy = _active_taxonomy()
    inferred = infer_closure(taxonomy)
    manifest = load_manifest(_read_text(args.manifest), taxonomy)
    report = validate_usages(manifest, inferred, args.policy)
    if args.data is not None:
        if args.framing is None:
            print("stax-kit: --data requires --framing", file=sys.stderr)
            return 2
        framing = Framing(args.framing)
        classification = classify_stream(
            _read_source(args.data, framing), framing, ClassifierConfig(), inferred
        )
        checked = cross_check(manifest, classification, inferred)
        report = ValidationReport(report.violations, checked.cross_check)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"consistent: {'true' if report.consistent else 'false'}")
        for v in report.violations:
            print(f"  [{v.rule}] {', '.join(v.usages)}: {v.message}")
        if report.cross_check is not None:
            print("cross check:")
            for e in report.cross_check:
                status = "pass" if e.passed else "fail"
                print(f"  {e.stream_type}: {status} ({e.message})")
    return 0 if report.consistent and report.cross_check_passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Exit code of each StaxError class, looked up along the class's MRO; any
# other StaxError is a data error (3).
_EXIT_CODES = {
    NoConversionPath: 1,
    InvalidBatchSize: 2,
    UnknownType: 2,
    AbstractType: 2,
    UnknownStreamType: 3,
}

_COMMANDS = {
    "classify": _cmd_classify,
    "convert": _cmd_convert,
    "taxonomy": _cmd_taxonomy,
    "annotate": _cmd_annotate,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StaxError as exc:
        if isinstance(exc, ParseError) and exc.member is None and "-" in (
            getattr(args, "input", None),
            getattr(args, "data", None),
        ):
            # The readers name a path; standard input is '-'.
            exc = ParseError(exc.line, exc.column, exc.reason, member="-")
        code = next((_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES), 3)
        name = f"{type(exc).__name__}: " if code == 3 else ""
        print(f"stax-kit: {name}{exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: stop quietly with the
        # shell's code for SIGPIPE.  Pointing stdout at devnull keeps the
        # flush at exit from failing again and printing a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"stax-kit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
