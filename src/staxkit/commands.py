"""The data subcommands of the command-line front end: classify, convert,
annotate and validate.

cli imports this module only when it dispatches one of them, so a
taxonomy query compiles none of it.  Each handler takes the parsed
arguments and the active taxonomy, which main has inferred, and returns
the exit code; each imports the modules only it uses.  This module never
imports cli, which runs as __main__ under `python -m staxkit.cli`:
importing it would run it again.
convert asks the taxonomy for the payloads and the plan, and runs every
plan from the reader's text mode, where a group step's batch size ends
each element; it imports no convert module.  The type and the path alone
name each convert side's framing; a path ending in '/' names a directory,
for annotate too.  classify and validate read a grouped framing's elements
as the text mode's indexes.  One writer step frames convert's text, and
write_stream's target writer writes it, or annotate's Turtle, to standard
output, a file or a directory; this module opens no file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvalidBatchSize, MalformedIri, MixedPayload
from .framing import Framing, Payload
from .taxonomy import InferredTaxonomy, _read_text, payload_kind, plan

if TYPE_CHECKING:
    from .classify import ClassificationReport, ClassifierConfig


def _items(path: str, framing: Framing, text: bool | str = False, size: int = 0) -> Iterator:
    """The statements or elements of path, or of standard input for '-', read
    lazily, in batches of size if set; with text, as canonical text (see io._read_stream).

    A directory framing on standard input is refused at once, before any
    later check of the caller; a ParseError read from standard input names
    it '-', as the reader names a path.
    """
    from .io import _read_stream

    if path != "-":
        return _read_stream(path, framing, text, size)
    if framing.is_dir:
        raise MixedPayload("directory framings cannot read standard input")
    return _read_stream(sys.stdin.buffer, framing, text, size, "-")


def _print_json(doc: dict) -> None:
    import json

    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _classifier_config(args: argparse.Namespace, max_evidence: int = 10) -> ClassifierConfig | None:
    """The ClassifierConfig of the timestamp options classify and validate
    share, or None once a usage error is printed."""
    from .classify import ClassifierConfig
    from .model import Iri

    predicates = []
    for value in args.timestamp_predicate:
        try:
            predicates.append(Iri(value))
        except MalformedIri as exc:
            print(f"stax-kit: bad --timestamp-predicate: {exc}", file=sys.stderr)
            return None
    if max_evidence < 0:
        print("stax-kit: --max-evidence must be non-negative", file=sys.stderr)
        return None
    kwargs = {"check_timestamp_order": not args.no_order_check, "max_evidence": max_evidence}
    if predicates:
        kwargs["timestamp_predicates"] = frozenset(predicates)
    return ClassifierConfig(**kwargs)


def _cmd_classify(args: argparse.Namespace, inferred: InferredTaxonomy) -> int:
    from .classify import classify_stream

    framing = Framing(args.framing)
    cfg = _classifier_config(args, args.max_evidence)
    if cfg is None:
        return 2
    if args.expect is not None:
        inferred.taxonomy.type(args.expect)  # unknown names are usage errors
    report = classify_stream(_items(args.input, framing, "index"), framing, cfg, inferred)
    if args.json:
        _print_json(report.to_dict())
    else:
        _print_report(report)
    if args.expect is None:
        return 0

    # A type is met by itself or by any narrower type, abstract types included.
    def meets(type_id: str) -> bool:
        return type_id == args.expect or (type_id, args.expect) in inferred.broader_closure

    if any(map(meets, report.conforming)):
        return 0
    if not any(map(meets, report.applicable)):
        print(f"stax-kit: {args.expect} does not apply to {framing.value} streams", file=sys.stderr)
    else:
        print(f"stax-kit: stream does not conform to {args.expect}", file=sys.stderr)
    return 1


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


def _framing_for(payload: Payload, path: str) -> Framing:
    """The framing of --input or --output: the payload's flat one for a flat
    type, else its dir one for a directory, else its framed one.  A path that
    ends in '/' names a directory, existing or not, and refuses a flat type."""
    is_dir = path.endswith("/") or path != "-" and os.path.isdir(path)
    framing = Framing(f"{'flat' if payload.is_flat else 'dir' if is_dir else 'framed'}-{payload.value}")
    if path.endswith("/") and not framing.is_dir:
        raise MixedPayload(f"{path} names a directory, but {framing.value} is not a directory framing")
    return framing


def _cmd_convert(args: argparse.Namespace, inferred: InferredTaxonomy) -> int:
    from .writer import _reframed

    from_payload = payload_kind(inferred, args.from_type)
    to_payload = payload_kind(inferred, args.to_type)
    in_framing = _framing_for(from_payload, args.input)
    out_framing = _framing_for(to_payload, args.output)
    relations = plan(args.from_type, args.to_type, inferred, args.policy, args.batch_size)
    if args.batch_size is not None and "group" not in relations:
        raise InvalidBatchSize(
            f"--batch-size needs a group step, but the {args.policy} plan from {args.from_type} "
            f"to {args.to_type} is {', '.join(relations) or 'the identity'}"
        )
    # Extend and flatten change no line; the reader ends each group's batch.
    size = (args.batch_size or 1) if "group" in relations else 0
    texts = _reframed(_items(args.input, in_framing, True, size), to_payload if size else from_payload, out_framing)
    _write_output(texts, out_framing, args.output)
    return 0


def _write_output(texts: Iterable[str], framing: Framing | None, path: str) -> None:
    """Write a stream's texts through writer._write_to: to standard output
    for '-', else to path, naming on standard error the element files or
    bytes written.  framing is None for annotate's Turtle."""
    from .writer import _write_to

    written = _write_to(texts, framing, sys.stdout.buffer if path == "-" else path)
    if path != "-":
        what = f"{len(written)} element file(s)" if isinstance(written, list) else f"{written} byte(s)"
        print(f"stax-kit: wrote {what} to {path}", file=sys.stderr)


def _cmd_annotate(args: argparse.Namespace, inferred: InferredTaxonomy) -> int:
    from .annotate import emit_turtle, load_manifest

    manifest = load_manifest(_read_text(args.manifest), inferred.taxonomy)
    _write_output((emit_turtle(manifest, inferred.taxonomy),), None, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace, inferred: InferredTaxonomy) -> int:
    # A usage error, reported before the manifest is read or checked.
    if args.data is not None and args.framing is None:
        print("stax-kit: --data requires --framing", file=sys.stderr)
        return 2
    cfg = _classifier_config(args)
    if cfg is None:
        return 2
    from .annotate import ValidationReport, cross_check, load_manifest, validate_usages
    from .classify import classify_stream

    manifest = load_manifest(_read_text(args.manifest), inferred.taxonomy)
    report = validate_usages(manifest, inferred, args.policy)
    if args.data is not None:
        framing = Framing(args.framing)
        classification = classify_stream(_items(args.data, framing, "index"), framing, cfg, inferred)
        checked = cross_check(manifest, classification, inferred, args.policy)
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


COMMANDS = {
    "classify": _cmd_classify,
    "convert": _cmd_convert,
    "annotate": _cmd_annotate,
    "validate": _cmd_validate,
}
