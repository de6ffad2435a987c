"""On-disk formats: the binary vertex-set container and text exports.

Vertex-set container (".dat"), a flat sequence of records:

    record  :=  size  entry[size]
    size    :=  1 unsigned byte, must lie in [2, 85]
    entry   :=  3 bytes, one unsigned integer below 2^24

    offset:  0     1       4       7
             +-----+-------+-------+----
             |size | entry | entry | ...
             +-----+-------+-------+----

Each entry is the *encoding of a coset representative* (not a vertex
index); the reader maps encodings to vertex indices and rejects values
that are not canonical representatives.  Entry byte order is little-endian
unless told otherwise; the writer emits entries in ascending order, and a
stream in that canonical order round-trips byte-exactly.

The GAP export is a text file defining `A` (the n adjacency lists,
1-based) and `MIS` (the vertex-number lists of the given sets), followed by
a trailer that loads the grape package and rebuilds the graph on 1..n.
"""

from __future__ import annotations

import numpy as np

from .coclique import COCLIQUE_SIZE_CAP, VertexSet
from .coset_graph import Graph
from .errors import DatFormatError, DomainError

DAT_MIN_SIZE = 2
DAT_MAX_SIZE = COCLIQUE_SIZE_CAP
ENTRY_BYTES = 3
EXPORT_BAND = 32  # rows per unpack in the exports: 64 KiB of bool rows; the joins set the time
# bit position of each entry byte, in stream order
_ENTRY_SHIFTS = {
    "little": np.array([0, 8, 16], dtype=np.uint32),
    "big": np.array([16, 8, 0], dtype=np.uint32),
}


def gap_trailer(n: int) -> str:
    """The GAP lines that load grape and rebuild the graph on 1..n from A."""
    return (
        'LoadPackage("grape");;\n'
        f"Gra:=Graph(Group(), [1..{n}], OnPoints,\n"
        "function(x,y) return (x in A[y]); end, true);\n"
    )


def read_dat(data: bytes, reps: np.ndarray, byteorder: str = "little") -> list[VertexSet]:
    """Parse a stream of vertex-set records into VertexSets (vertex indices).

    `reps` is the ascending representative array of `build_reps`, and an
    entry's vertex is its rank there, found by binary search.  Rejects
    sizes outside [2, 85], entries that are not representative encodings,
    duplicate entries, and streams that do not end exactly on a record
    boundary.  Each record's entries are decoded and looked up in one
    vectorized pass; the error names the first bad entry.
    """
    if byteorder not in _ENTRY_SHIFTS:
        raise ValueError(f"byteorder must be 'little' or 'big', got {byteorder!r}")
    shifts = _ENTRY_SHIFTS[byteorder]
    sets: list[VertexSet] = []
    pos = 0
    total = len(data)
    while pos < total:
        size = data[pos]
        if not DAT_MIN_SIZE <= size <= DAT_MAX_SIZE:
            raise DatFormatError(
                f"set size {size} is not in the range from {DAT_MIN_SIZE} to {DAT_MAX_SIZE}",
                offset=pos,
            )
        end = pos + 1 + size * ENTRY_BYTES
        if end > total:
            raise DatFormatError(
                f"truncated record: need {end - pos} bytes, stream has {total - pos}",
                offset=pos,
            )
        entries = np.frombuffer(data, dtype=np.uint8, count=end - pos - 1, offset=pos + 1)
        values = (entries.reshape(size, ENTRY_BYTES) << shifts).sum(axis=1, dtype=np.uint32)
        indices = np.searchsorted(reps, values).clip(max=len(reps) - 1)
        bad = np.flatnonzero(reps[indices] != values)
        if bad.size:
            i = int(bad[0])
            raise DatFormatError(
                f"entry {int(values[i]):#08x} is not a proper coset representation",
                offset=pos + 1 + i * ENTRY_BYTES,
            )
        indices.sort()
        same = np.flatnonzero(indices[1:] == indices[:-1])
        if same.size:
            raise DatFormatError(
                f"duplicate entry for vertex {int(indices[same[0]])} in one record",
                offset=pos,
            )
        sets.append(VertexSet(tuple(indices.tolist())))
        pos = end
    return sets


def write_dat(sets, reps: np.ndarray, byteorder: str = "little") -> bytes:
    """Serialize vertex sets, vertex v as the encoding reps[v] from the
    ascending representative array; inverse of read_dat for canonical streams."""
    out = bytearray()
    for i, s in enumerate(sets):
        if not DAT_MIN_SIZE <= s.size <= DAT_MAX_SIZE:
            raise DatFormatError(
                f"set {i + 1} has size {s.size}, writable sizes are "
                f"{DAT_MIN_SIZE} to {DAT_MAX_SIZE}"
            )
        if s.members[-1] >= len(reps):
            raise DomainError(
                f"set {i + 1} contains vertex {s.members[-1]}, graph has {len(reps)}"
            )
        out.append(s.size)
        for v in s.members:
            out += int(reps[v]).to_bytes(ENTRY_BYTES, byteorder)
    return bytes(out)


def _vertex_labels(n: int) -> np.ndarray:
    """The 1-based text label of every vertex as an object array, made once
    per export and indexed by arrays of vertices."""
    return np.array([str(v) for v in range(1, n + 1)], dtype=object)


def export_gap(g: Graph, sets=()) -> str:
    """GAP/grape text: adjacency lists, the sets, and the trailer for g.n.

    Every list is joined from the label table, so no vertex number is
    formatted more than once.
    """
    labels = _vertex_labels(g.n)
    parts: list[str] = ["A:=[\n"]
    for lo, rows in g.bands(EXPORT_BAND):
        for u, bits in enumerate(rows, start=lo):
            row = ",".join(labels[np.flatnonzero(bits)].tolist())
            parts.append(f"[{row}]{',' if u < g.n - 1 else ''}\n")
    parts.append("];\n")
    parts.append("MIS:=[\n")
    for i, s in enumerate(sets):
        if s.members and s.members[-1] >= g.n:
            raise DomainError(
                f"set {i + 1} contains vertex {s.members[-1]}, graph has {g.n}"
            )
        row = ",".join(labels[list(s.members)].tolist())
        parts.append(f"[{row}]{',' if i < len(sets) - 1 else ''}\n")
    parts.append("];\n")
    parts.append(gap_trailer(g.n))
    return "".join(parts)


def export_edge_list(g: Graph) -> str:
    """Plain text debug export: one '1-based u v' line per edge, u < v.

    Band by band, with no edge array or list of pairs at once: the lines of
    row u are its larger neighbours' labels joined by a newline and u's
    label, so no line is formatted on its own.
    """
    labels = _vertex_labels(g.n)
    parts: list[str] = []
    for lo, rows in g.bands(EXPORT_BAND):
        for u, bits in enumerate(rows, start=lo):
            upper = labels[u + 1 :][np.flatnonzero(bits[u + 1 :])].tolist()
            if upper:
                head = labels[u] + " "
                parts.append(head + ("\n" + head).join(upper) + "\n")
    return "".join(parts)
