"""What a stream carries, and how its elements are laid out on disk (see io)."""

import enum

# Shared by the reader and the writer, so annotate's Turtle output loads no
# reader: the line between framed elements, and the size at which each one's
# term table empties (each module reads its own copy of the name).
FRAME_DELIMITER = "#---"
_INTERN_LIMIT = 4096


class Payload(str, enum.Enum):
    """What a stream carries; members equal their values, so "graphs" works too."""

    TRIPLES = "triples"
    QUADS = "quads"
    GRAPHS = "graphs"
    DATASETS = "datasets"

    @property
    def is_flat(self) -> bool:
        return self in (Payload.TRIPLES, Payload.QUADS)

    @property
    def quads(self) -> bool:
        """True when the payload's statements are N-Quads."""
        return self in (Payload.QUADS, Payload.DATASETS)


class Framing(enum.Enum):
    """On-disk convention fixing element boundaries; values are '<layout>-<payload>'."""

    FLAT_TRIPLES = "flat-triples"
    FLAT_QUADS = "flat-quads"
    FRAMED_GRAPHS = "framed-graphs"
    FRAMED_DATASETS = "framed-datasets"
    DIR_GRAPHS = "dir-graphs"
    DIR_DATASETS = "dir-datasets"

    @property
    def payload(self) -> Payload:
        return Payload(self.value.partition("-")[2])

    @property
    def is_flat(self) -> bool:
        return self.payload.is_flat

    @property
    def is_dir(self) -> bool:
        return self in (Framing.DIR_GRAPHS, Framing.DIR_DATASETS)

    @property
    def quads_payload(self) -> bool:
        """True when the framing's payload lines are N-Quads."""
        return self.payload.quads
