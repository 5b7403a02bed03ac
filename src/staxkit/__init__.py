"""stax-kit: streaming RDF toolkit.

Parse and serialize flat (N-Triples/N-Quads) and grouped (framed or
directory-backed) RDF streams, classify them against a stream type
taxonomy, convert between stream types, and validate stream type
annotation manifests.

Public names load lazily (PEP 562): each is imported from its submodule
on first access, so importing the package loads no submodule.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

__all__ = [
    "AbstractType",
    "AnnotationManifest",
    "BlankNode",
    "ClassificationReport",
    "ClassifierConfig",
    "ClassifierState",
    "ConversionStep",
    "CrossCheckEntry",
    "CycleError",
    "DanglingReference",
    "Dataset",
    "ElementVerdict",
    "EmptyUsages",
    "Framing",
    "Graph",
    "InferredTaxonomy",
    "InvalidBatchSize",
    "Iri",
    "LineKind",
    "Literal",
    "MalformedIri",
    "MixedPayload",
    "NamedGraphPresent",
    "NoConversionPath",
    "OutputExists",
    "ParseError",
    "ParsedLine",
    "Payload",
    "Quad",
    "RDF_LANGSTRING",
    "STAX_NS",
    "SchemaError",
    "StaxError",
    "StreamType",
    "StreamTypeUsage",
    "Taxonomy",
    "Triple",
    "TypeKind",
    "TypeVerdict",
    "UnknownStreamType",
    "UnknownType",
    "ValidationReport",
    "Violation",
    "XSD_STRING",
    "candidate_subject_nodes",
    "check_named_graph_shape",
    "check_timestamped_named_graph",
    "classify_element",
    "classify_stream",
    "conversion_path",
    "convert",
    "cross_check",
    "default_taxonomy",
    "emit_turtle",
    "extend",
    "flatten_datasets",
    "flatten_graphs",
    "group_statements",
    "infer_closure",
    "load_manifest",
    "load_taxonomy",
    "most_specific",
    "parse_statement_line",
    "payload_kind",
    "project",
    "read_flat_stream",
    "read_grouped_stream",
    "relates",
    "serialize_statement",
    "serialize_term",
    "validate_usages",
    "write_dir_stream",
    "write_flat_stream",
    "write_grouped_stream",
    "write_stream",
]

# The submodule that defines each name of __all__.
_SOURCES = {
    name: module
    for module, names in {
        "annotate": "AnnotationManifest CrossCheckEntry StreamTypeUsage ValidationReport "
        "Violation cross_check emit_turtle load_manifest validate_usages",
        "classify": "ClassificationReport ClassifierConfig ClassifierState ElementVerdict "
        "TypeVerdict candidate_subject_nodes check_named_graph_shape "
        "check_timestamped_named_graph classify_element classify_stream",
        "convert": "convert extend flatten_datasets flatten_graphs group_statements "
        "payload_kind project",
        "errors": "AbstractType CycleError DanglingReference EmptyUsages InvalidBatchSize "
        "MalformedIri MixedPayload NamedGraphPresent NoConversionPath OutputExists "
        "ParseError SchemaError StaxError UnknownStreamType UnknownType",
        "framing": "Framing Payload",
        "io": "LineKind ParsedLine parse_statement_line read_flat_stream read_grouped_stream "
        "serialize_statement serialize_term write_dir_stream write_flat_stream "
        "write_grouped_stream write_stream",
        "model": "RDF_LANGSTRING XSD_STRING BlankNode Dataset Graph Iri Literal Quad Triple",
        "taxonomy": "ConversionStep InferredTaxonomy STAX_NS StreamType Taxonomy TypeKind "
        "conversion_path default_taxonomy infer_closure load_taxonomy most_specific relates",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})


class _Package(types.ModuleType):
    """Keeps an imported submodule from hiding the public name it shares:
    importing staxkit.convert must not rebind staxkit.convert, a function."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _SOURCES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
