"""Command-line front end.

Subcommands: classify, convert, taxonomy (relate/closure/path), annotate,
validate.  Exit codes: 0 success (or an answered query); 1 semantic
nonconformance (failed --expect, inconsistent manifest, failed cross
check, no conversion path); 2 usage errors; 3 parse/data errors; 141
stdout closed by its reader.

The STAX_TAXONOMY environment variable may point to a taxonomy manifest
that replaces the built-in taxonomy for every subcommand; main infers it
once and gives every handler the InferredTaxonomy.

This module holds the parser, main, run, the exit codes and the taxonomy
subcommand.  classify, convert, annotate and validate are in commands,
which main imports only when it dispatches one of them; each subcommand
imports the modules only it uses, so a call loads and compiles no more of
the package than it runs.  run() is the process entry point; it
freezes the start-up heap for the garbage collector and exits with the
code of main(), which tests and library callers call in-process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from .errors import (
    AbstractType,
    InvalidBatchSize,
    NoConversionPath,
    StaxError,
    UnknownStreamType,
    UnknownType,
)
from .framing import Framing
from .taxonomy import (
    RELATION_NAMES,
    InferredTaxonomy,
    _read_text,
    conversion_path,
    default_taxonomy,
    infer_closure,
    load_taxonomy,
    normalize_relation,
    relates,
)

_FRAMING_NAMES = [f.value for f in Framing]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stax-kit",
        description="Classify, convert, annotate, and validate RDF streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def classifier_options(p: argparse.ArgumentParser) -> None:
        """The classifier options classify and validate share."""
        p.add_argument(
            "--timestamp-predicate",
            action="append",
            default=[],
            metavar="IRI",
            help="timestamp predicate IRI (repeatable; default prov:generatedAtTime)",
        )
        p.add_argument("--no-order-check", action="store_true", help="skip timestamp order checking")

    p = sub.add_parser("classify", help="classify a stream against the taxonomy")
    p.add_argument("--input", required=True, help="input path, or - for stdin")
    p.add_argument("--framing", required=True, choices=_FRAMING_NAMES)
    classifier_options(p)
    p.add_argument("--max-evidence", type=int, default=10, metavar="N")
    p.add_argument("--expect", metavar="TYPE", help="exit 1 unless TYPE or a narrower type conforms")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("convert", help="convert a stream between stream types")
    p.add_argument("--input", required=True, help="input path, or - for stdin")
    p.add_argument("--output", required=True, help="output path, or - for stdout")
    p.add_argument("--from", dest="from_type", required=True, metavar="TYPE")
    p.add_argument("--to", dest="to_type", required=True, metavar="TYPE")
    p.add_argument("--policy", choices=["strict", "transitive"], default="strict")
    p.add_argument("--batch-size", type=int, default=None, metavar="N")

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
    p.add_argument("--out", default="-", help="output path, or - for stdout (the default)")

    p = sub.add_parser("validate", help="validate an annotation manifest")
    p.add_argument("--manifest", required=True, help="manifest path")
    p.add_argument("--data", default=None, help="stream to cross-check against")
    p.add_argument("--framing", choices=_FRAMING_NAMES, default=None)
    classifier_options(p)
    p.add_argument("--policy", choices=["strict", "transitive"], default="strict")
    p.add_argument("--json", action="store_true")
    return parser


def _active_taxonomy() -> InferredTaxonomy:
    """The taxonomy STAX_TAXONOMY names, else the built-in one, inferred."""
    override = os.environ.get("STAX_TAXONOMY")
    return infer_closure(load_taxonomy(_read_text(override)) if override else default_taxonomy())


def _print_json(doc: dict) -> None:
    import json

    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_taxonomy(args: argparse.Namespace, inferred: InferredTaxonomy) -> int:
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Each handler takes the parsed arguments and the inferred active taxonomy
        # and returns the exit code; commands is imported only to dispatch its own.
        if args.command == "taxonomy":
            command = _cmd_taxonomy
        else:
            from .commands import COMMANDS

            command = COMMANDS[args.command]
        code = command(args, _active_taxonomy())
        # Flushed here, a closed stdout meets the handler below and not the
        # flush at exit, which would print its error and exit 120.
        sys.stdout.flush()
        return code
    except StaxError as exc:
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


def run() -> None:
    """The process entry point of `stax-kit` and `python -m staxkit.cli`.

    It freezes every object start-up has made (the interpreter's, argparse's
    and the package's modules) before main runs, so the full collections at
    exit skip them; objects made later, the subcommand's imports and the
    stream's data, are collected as before.  main itself leaves the garbage
    collector as it finds it, for tests and library callers.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
