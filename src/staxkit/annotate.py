"""Stream type annotations: manifests, consistency checking, Turtle output.

A manifest declares which stream types a dataset is published as.  The
consistency check enforces two rules over the declared set:

1. every grouped-side/flat-side pair of usages must be convertible into
   one another, one way or the other;
2. usages on the same side must be redundant, i.e. related by the broader
   hierarchy.

A usage's side is that of its payload (Taxonomy.payload); a usage whose
type carries no payload is in no pair.

The cross check compares declarations against a classification report of
the actual data.  Both checks ask taxonomy.conversion_path, the planner
convert runs, whether one type is usable as another under the policy.
Turtle emission reproduces the usage pattern: a subject typed dcat:Dataset
carrying one bracketed RdfStreamTypeUsage node per declared type.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import EmptyUsages, SchemaError, UnknownStreamType
from .model import Iri, Literal, _TupleValue
from .taxonomy import (
    _check_object,
    STAX_NS,
    InferredTaxonomy,
    Taxonomy,
    TypeKind,
    conversion_path,
    default_taxonomy,
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
    _check_object(doc, {"subjectIri", "subjectClass", "usages"}, "manifest must be a JSON object", "manifest")
    if "usages" not in doc or not isinstance(doc["usages"], list):
        raise SchemaError("manifest needs a 'usages' array")
    if not doc["usages"]:
        raise EmptyUsages("manifest declares no stream type usages")

    usages: list[StreamTypeUsage] = []
    for entry in doc["usages"]:
        _check_object(entry, {"streamType", "comment"}, "every usage must be an object", "usage")
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

    iris: dict[str, Iri | None] = {"subjectIri": None, "subjectClass": Iri(DCAT_DATASET)}
    for key in iris:
        if key in doc:
            if not isinstance(doc[key], str):
                raise SchemaError(f"{key} must be a string")
            try:
                iris[key] = Iri(doc[key])
            except Exception as exc:
                raise SchemaError(f"bad {key}: {exc}") from exc
    return AnnotationManifest(tuple(usages), iris["subjectIri"], iris["subjectClass"])


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
            held_a, held_b = inferred.taxonomy.payload(a), inferred.taxonomy.payload(b)
            if held_a is None or held_b is None:
                continue
            if held_a.is_flat == held_b.is_flat:
                if not (
                    (a, b) in inferred.broader_closure or (b, a) in inferred.broader_closure
                ):
                    side = "flat" if held_a.is_flat else "grouped"
                    violations.append(
                        Violation("same-side", (a, b), f"{a} and {b} are both {side} but not related by broader")
                    )
                continue
            grouped, flat = (b, a) if held_a.is_flat else (a, b)
            if (
                conversion_path(inferred, grouped, flat, policy) is None
                and conversion_path(inferred, flat, grouped, policy) is None
            ):
                if policy == "strict":
                    message = f"{grouped} does not flatten into {flat} and {flat} does not group into {grouped}"
                else:
                    message = f"no chain of conversions reaches {flat} from {grouped} or {grouped} from {flat}"
                violations.append(Violation("pair-relation", (grouped, flat), message))
    return ValidationReport(tuple(violations))


def cross_check(
    manifest: AnnotationManifest,
    report: ClassificationReport,
    inferred: InferredTaxonomy,
    policy: str = "strict",
) -> ValidationReport:
    """Compare declared usages against a classification of the actual data.

    A usage passes when its type conforms directly, or when conversion_path
    plans a conversion into it under the policy from a conforming type; the
    first such type in report order is named with the plan's steps.
    """
    entries: list[CrossCheckEntry] = []
    for usage in manifest.usages:
        declared = usage.stream_type
        if declared in report.conforming:
            entries.append(CrossCheckEntry(declared, True, "declared type conforms directly"))
            continue
        for c in report.conforming:
            steps = conversion_path(inferred, c, declared, policy)
            if steps is not None:
                via = ", ".join(s.relation for s in steps) or "broader"
                entries.append(CrossCheckEntry(declared, True, f"conforming {c} reaches it via {via}"))
                break
        else:
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
    from .writer import serialize_term

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
    from .writer import serialize_term

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
