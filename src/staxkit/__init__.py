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

# The submodule that defines each public name; __all__ lists them sorted.
_SOURCES = {
    name: module
    for module, names in {
        "annotate": "AnnotationManifest CrossCheckEntry StreamTypeUsage ValidationReport "
        "Violation cross_check emit_turtle load_manifest validate_usages",
        "classify": "ClassificationReport Classifier ClassifierConfig ElementVerdict TypeVerdict "
        "candidate_subject_nodes classify_stream",
        "convert": "convert extend flatten_datasets flatten_graphs group_statements payload_kind",
        "errors": "AbstractType CycleError DanglingReference EmptyUsages InvalidBatchSize "
        "MalformedIri MixedPayload NoConversionPath OutputExists ParseError SchemaError "
        "StaxError UnknownStreamType UnknownType",
        "framing": "Framing Payload",
        "io": "LineKind ParsedLine parse_statement_line read_flat_stream read_grouped_stream "
        "serialize_statement serialize_term write_dir_stream write_flat_stream write_stream",
        "model": "RDF_LANGSTRING XSD_STRING BlankNode Dataset Graph Iri Literal Quad Triple",
        "taxonomy": "ConversionStep InferredTaxonomy STAX_NS StreamType Taxonomy TypeKind "
        "conversion_path default_taxonomy infer_closure load_taxonomy most_specific relates",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCES)


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
