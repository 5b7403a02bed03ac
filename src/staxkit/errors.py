"""Exception types shared across the toolkit.

Everything raised on purpose derives from StaxError, so callers (notably the
CLI) can tell our failures apart from genuine bugs.
"""

from __future__ import annotations


class StaxError(Exception):
    """Base class for all errors raised by stax-kit."""


class MalformedIri(StaxError):
    """IRI value violates the conservative syntactic subset we accept."""


class ParseError(StaxError):
    """A line of N-Triples/N-Quads input could not be parsed.

    Line and column are 1-based; column points at the offending character.
    member names the file the line belongs to: the path of a file source, or
    the member file of a directory framing.  Bytes and streams leave it None.
    """

    def __init__(self, line: int, column: int, reason: str, member: str | None = None):
        prefix = f"{member}: " if member else ""
        super().__init__(f"{prefix}line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason
        self.member = member


class MixedPayload(StaxError):
    """Statement or element kind does not match the framing's payload."""


class OutputExists(StaxError):
    """An output directory already holds members of the framing being written."""


class SchemaError(StaxError):
    """A manifest document does not match its schema."""


class CycleError(StaxError):
    """The broader hierarchy of a taxonomy contains a cycle."""


class DanglingReference(StaxError):
    """A taxonomy relation edge points at an unknown type id."""


class UnknownType(StaxError):
    """A stream type id is not present in the taxonomy."""


class AbstractType(StaxError, ValueError):
    """An abstract stream type was given where a concrete one is needed."""


class UnknownStreamType(UnknownType):
    """An annotation manifest names a stream type the taxonomy does not define."""


class EmptyUsages(StaxError):
    """An annotation manifest declares no stream type usages."""


class InvalidBatchSize(StaxError):
    """Grouping was requested with a batch size below 1."""


class NoConversionPath(StaxError):
    """No conversion path exists between the requested stream types."""

    def __init__(self, from_type: str, to_type: str, policy: str):
        super().__init__(
            f"no {policy} conversion path from {from_type} to {to_type}"
        )
        self.from_type = from_type
        self.to_type = to_type
        self.policy = policy
