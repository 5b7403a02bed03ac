"""Stream type annotations: manifests, consistency checking, Turtle output.

A manifest declares which stream types a dataset is published as.  The
consistency check enforces two rules over the declared set:

1. every grouped-side/flat-side pair of usages must be convertible into
   one another (flatten one way or group the other; under the transitive
   policy any conversion path will do);
2. usages on the same side must be redundant, i.e. related by the broader
   hierarchy.

The cross check compares declarations against a classification report of
the actual data.  Turtle emission reproduces the usage pattern: a subject
typed dcat:Dataset carrying one bracketed RdfStreamTypeUsage node per
declared type.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import EmptyUsages, SchemaError, UnknownStreamType
from .io import serialize_term
from .model import Iri, Literal, _TupleValue
from .taxonomy import (
    STAX_NS,
    InferredTaxonomy,
    Taxonomy,
    TypeKind,
    conversion_path,
    default_taxonomy,
    relates,
)

if TYPE_CHECKING:
    from .classify import ClassificationReport

DCAT_NS = "http://www.w3.org/ns/dcat#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
DCAT_DATASET = DCAT_NS + "Dataset"


class StreamTypeUsage(NamedTuple):
    stream_type: str
    comment: str | None = None


class AnnotationManifest(_TupleValue):
    __slots__ = ()
    __match_args__ = ("usages", "subject_iri", "subject_class_iri")
    usages = property(itemgetter(0))
    subject_iri = property(itemgetter(1))
    subject_class_iri = property(itemgetter(2))

    def __new__(
        cls,
        usages: tuple[StreamTypeUsage, ...],
        subject_iri: Iri | None = None,
        subject_class_iri: Iri = Iri(DCAT_DATASET),
    ) -> AnnotationManifest:
        if not usages:
            raise EmptyUsages("manifest declares no stream type usages")
        seen: set[str] = set()
        for u in usages:
            if u.stream_type in seen:
                raise SchemaError(f"duplicate stream type usage: {u.stream_type}")
            seen.add(u.stream_type)
        return tuple.__new__(cls, (usages, subject_iri, subject_class_iri))


def load_manifest(text: str, taxonomy: Taxonomy | None = None) -> AnnotationManifest:
    """Parse and invariant-check a JSON manifest.

    Shape: {"subjectIri"?: str, "subjectClass"?: str,
            "usages": [{"streamType": str, "comment"?: str}, ...]}
    Every streamType must name a concrete type of the taxonomy.
    """
    taxonomy = taxonomy or default_taxonomy()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("manifest must be a JSON object")
    extra = set(doc) - {"subjectIri", "subjectClass", "usages"}
    if extra:
        raise SchemaError(f"unknown manifest keys: {', '.join(sorted(extra))}")
    if "usages" not in doc or not isinstance(doc["usages"], list):
        raise SchemaError("manifest needs a 'usages' array")
    if not doc["usages"]:
        raise EmptyUsages("manifest declares no stream type usages")

    usages: list[StreamTypeUsage] = []
    for entry in doc["usages"]:
        if not isinstance(entry, dict):
            raise SchemaError("every usage must be an object")
        extra = set(entry) - {"streamType", "comment"}
        if extra:
            raise SchemaError(f"unknown usage keys: {', '.join(sorted(extra))}")
        type_id = entry.get("streamType")
        if not isinstance(type_id, str):
            raise SchemaError("usage needs a string 'streamType'")
        if not taxonomy.has_type(type_id):
            raise UnknownStreamType(f"unknown stream type: {type_id}")
        if taxonomy.type(type_id).kind is not TypeKind.CONCRETE:
            raise SchemaError(f"stream type usage must be concrete, got abstract {type_id}")
        comment = entry.get("comment")
        if comment is not None and not isinstance(comment, str):
            raise SchemaError(f"usage {type_id}: comment must be a string")
        usages.append(StreamTypeUsage(type_id, comment))

    subject_iri: Iri | None = None
    if "subjectIri" in doc:
        if not isinstance(doc["subjectIri"], str):
            raise SchemaError("subjectIri must be a string")
        try:
            subject_iri = Iri(doc["subjectIri"])
        except Exception as exc:
            raise SchemaError(f"bad subjectIri: {exc}") from exc
    subject_class = Iri(DCAT_DATASET)
    if "subjectClass" in doc:
        if not isinstance(doc["subjectClass"], str):
            raise SchemaError("subjectClass must be a string")
        try:
            subject_class = Iri(doc["subjectClass"])
        except Exception as exc:
            raise SchemaError(f"bad subjectClass: {exc}") from exc
    return AnnotationManifest(tuple(usages), subject_iri, subject_class)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    rule: str  # 'pair-relation' | 'same-side'
    usages: tuple[str, ...]
    message: str


class CrossCheckEntry(NamedTuple):
    stream_type: str
    passed: bool
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]
    cross_check: tuple[CrossCheckEntry, ...] | None = None

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def cross_check_passed(self) -> bool:
        return self.cross_check is None or all(e.passed for e in self.cross_check)

    def to_dict(self) -> dict:
        out: dict = {
            "consistent": self.consistent,
            "violations": [
                {"rule": v.rule, "usages": list(v.usages), "message": v.message}
                for v in self.violations
            ],
        }
        if self.cross_check is not None:
            out["crossCheck"] = [
                {"streamType": e.stream_type, "pass": e.passed, "message": e.message}
                for e in self.cross_check
            ]
        return out


def validate_usages(
    manifest: AnnotationManifest,
    inferred: InferredTaxonomy,
    policy: str = "strict",
) -> ValidationReport:
    """Check the mutual consistency of the declared usages."""
    if policy not in ("strict", "transitive"):
        raise ValueError(f"policy must be 'strict' or 'transitive', got {policy!r}")
    ids = [u.stream_type for u in manifest.usages]
    violations: list[Violation] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            side_a, side_b = inferred.taxonomy.side(a), inferred.taxonomy.side(b)
            if side_a is None or side_b is None:
                continue
            if side_a == side_b:
                if not (
                    (a, b) in inferred.broader_closure or (b, a) in inferred.broader_closure
                ):
                    violations.append(
                        Violation(
                            "same-side",
                            (a, b),
                            f"{a} and {b} are both {side_a} but not related by broader",
                        )
                    )
                continue
            grouped, flat = (a, b) if side_a == "grouped" else (b, a)
            if policy == "strict":
                ok = relates(inferred, "flatten", grouped, flat) or relates(
                    inferred, "group", flat, grouped
                )
            else:
                ok = (
                    conversion_path(inferred, grouped, flat, "transitive") is not None
                    or conversion_path(inferred, flat, grouped, "transitive") is not None
                )
            if not ok:
                violations.append(
                    Violation(
                        "pair-relation",
                        (grouped, flat),
                        f"{grouped} does not flatten into {flat} and {flat} does not "
                        f"group into {grouped}",
                    )
                )
    return ValidationReport(tuple(violations))


def cross_check(
    manifest: AnnotationManifest,
    report: ClassificationReport,
    inferred: InferredTaxonomy,
) -> ValidationReport:
    """Compare declared usages against a classification of the actual data.

    A usage passes when its type conforms directly, or when some conforming
    type converts into it along an inferred flatten/group/extend edge.
    """
    entries: list[CrossCheckEntry] = []
    conforming = set(report.conforming)
    for usage in manifest.usages:
        declared = usage.stream_type
        if declared in conforming:
            entries.append(CrossCheckEntry(declared, True, "declared type conforms directly"))
            continue
        via = None
        for rel in ("flatten", "group", "extend"):
            for c in report.conforming:
                if relates(inferred, rel, c, declared):
                    via = (c, rel)
                    break
            if via:
                break
        if via:
            entries.append(
                CrossCheckEntry(
                    declared, True, f"conforming {via[0]} reaches it via {via[1]}"
                )
            )
            continue
        fv = report.first_violation.get(declared)
        if fv is not None:
            msg = f"data violates {declared} at element {fv.element_index}: {fv.reason}"
        else:
            msg = "no conforming type converts into it"
        entries.append(CrossCheckEntry(declared, False, msg))
    return ValidationReport((), tuple(entries))


# ---------------------------------------------------------------------------
# Turtle emission
# ---------------------------------------------------------------------------


# Local names written as stax:<local>: a subset of Turtle's PN_LOCAL that
# needs no escapes.  Any other IRI is written in full.  Only Turtle output
# needs it, so it is compiled on first use through re's cache.
_SAFE_LOCAL = r"[A-Za-z_][A-Za-z0-9_-]*"


def _turtle_ref(iri: str) -> str:
    if iri.startswith(STAX_NS) and re.fullmatch(_SAFE_LOCAL, iri[len(STAX_NS):]):
        return "stax:" + iri[len(STAX_NS):]
    if iri == DCAT_DATASET:
        return "dcat:Dataset"
    return serialize_term(Iri(iri))


def emit_turtle(manifest: AnnotationManifest, taxonomy: Taxonomy | None = None) -> str:
    """Serialize the manifest as Turtle in the usage pattern.

    One bracketed RdfStreamTypeUsage node per usage, in manifest order;
    the stream type is written as stax:<id> unless the taxonomy maps the
    id to an IRI outside the stax namespace or the id is not a plain local
    name.  Every other IRI is written in full with N-Triples escapes, and
    every comment carries the language tag en.
    """
    prefixes = (("dcat", DCAT_NS), ("rdfs", RDFS_NS), ("stax", STAX_NS))
    lines = [f"@prefix {name}: {serialize_term(Iri(ns))} ." for name, ns in prefixes] + [""]
    subject = serialize_term(manifest.subject_iri) if manifest.subject_iri else "_:dataset"
    cls = _turtle_ref(manifest.subject_class_iri.value)
    lines.append(f"{subject} a {cls} ;")

    blocks: list[list[str]] = []
    for usage in manifest.usages:
        type_iri = STAX_NS + usage.stream_type
        if taxonomy is not None and taxonomy.has_type(usage.stream_type):
            type_iri = taxonomy.type(usage.stream_type).iri
        body = ["    a stax:RdfStreamTypeUsage ;"]
        type_line = f"    stax:hasStreamType {_turtle_ref(type_iri)}"
        if usage.comment is not None:
            body.append(type_line + " ;")
            body.append(f"    rdfs:comment {serialize_term(Literal(usage.comment, language='en'))}")
        else:
            body.append(type_line)
        blocks.append(body)

    for i, body in enumerate(blocks):
        opener = "  stax:hasStreamTypeUsage [" if i == 0 else "  ] , ["
        lines.append(opener)
        lines.extend(body)
    lines.append("  ] .")
    return "\n".join(lines) + "\n"
