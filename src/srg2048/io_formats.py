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

The reader walks the size bytes alone in Python, then decodes, looks up,
sorts and duplicate-checks every entry of the stream in one numpy pass.
Its error names the byte offset of the first fault in stream order.
`read_dat_stream` reads a container file a chunk at a time through
`read_dat`, which the CLI uses, so an endless file is refused at its first
faulty record.  Both take their record boundaries from one walk, `_records`.

The GAP export is a text file defining `A` (the n adjacency lists,
1-based) and `MIS` (the vertex-number lists of the given sets), followed by
a trailer that loads the grape package and rebuilds the graph on 1..n.

Each text export has one formatting route, `gap_pieces` and
`edge_list_pieces`, which yields the text one band of EXPORT_BAND rows at a
time.  The CLI writes each piece to the open output file as it comes, so no
more than one band of text exists at once; `export_gap` and
`export_edge_list` join the same pieces into one string.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .coclique import COCLIQUE_SIZE_CAP, VertexSet
from .coset_graph import Graph
from .errors import DatFormatError, DomainError

DAT_MIN_SIZE = 2
DAT_MAX_SIZE = COCLIQUE_SIZE_CAP
ENTRY_BYTES = 3
_CHUNK = 1 << 16  # bytes of a container file read at a time
EXPORT_BAND = 32  # rows per unpack and per piece in the exports: 64 KiB of bool rows, ~45 KB of text
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


def _check_byteorder(byteorder: str) -> None:
    if byteorder not in _ENTRY_SHIFTS:
        raise DomainError(f"byteorder must be 'little' or 'big', got {byteorder!r}")


def _check_vertices(i: int, s: VertexSet, n: int) -> None:
    """Refuse set number i (from 0) when it names a vertex >= n."""
    if s.members and s.members[-1] >= n:
        raise DomainError(f"set {i + 1} contains vertex {s.members[-1]}, graph has {n}")


def _records(data: bytes) -> tuple[list[int], int, bool]:
    """The one walk over a stream's size bytes: the start of each whole
    record, the end of the last, and whether the byte there is a bad size;
    if not, any bytes after the end are a truncated record."""
    starts: list[int] = []
    pos = 0
    while pos < len(data):
        if not DAT_MIN_SIZE <= data[pos] <= DAT_MAX_SIZE:
            return starts, pos, True
        end = pos + 1 + data[pos] * ENTRY_BYTES
        if end > len(data):
            break
        starts.append(pos)
        pos = end
    return starts, pos, False


def read_dat(data: bytes, reps: np.ndarray, byteorder: str = "little") -> list[VertexSet]:
    """Parse a stream of vertex-set records into VertexSets (vertex indices).

    `reps` is the ascending representative array of `build_reps`, and an
    entry's vertex is its rank there, found by binary search.  Rejects
    sizes outside [2, 85], entries that are not representative encodings,
    duplicate entries in one record, and streams that do not end exactly
    on a record boundary.  The error is that of the first faulty record;
    in a record, its first bad entry comes before a duplicate.
    """
    _check_byteorder(byteorder)
    starts, pos, bad_size = _records(data)
    # the whole records before pos, in one pass
    n = len(reps)
    stream = np.frombuffer(data, dtype=np.uint8, count=pos)
    sizes = stream[starts]
    entry_bytes = np.ones(pos, dtype=bool)
    entry_bytes[starts] = False
    entries = stream[entry_bytes].reshape(-1, ENTRY_BYTES)
    values = (entries << _ENTRY_SHIFTS[byteorder]).sum(axis=1, dtype=np.uint32)
    record = np.repeat(np.arange(len(starts)), sizes)
    indices = np.searchsorted(reps, values).clip(max=n - 1)
    bad = np.flatnonzero(reps[indices] != values)
    # a bad entry's clipped index may repeat, but its record reports it first
    keys = np.sort(record * n + indices)
    same = np.flatnonzero(keys[1:] == keys[:-1])
    if bad.size and not (same.size and keys[same[0]] // n < record[bad[0]]):
        i = int(bad[0])
        raise DatFormatError(
            f"entry {int(values[i]):#08x} is not a proper coset representation",
            offset=int(record[i]) + 1 + i * ENTRY_BYTES,
        )
    if same.size:
        r, v = divmod(int(keys[same[0]]), n)
        raise DatFormatError(f"duplicate entry for vertex {v} in one record", offset=starts[r])
    if pos < len(data):
        size = data[pos]
        raise DatFormatError(
            f"set size {size} is not in the range from {DAT_MIN_SIZE} to {DAT_MAX_SIZE}"
            if bad_size
            else f"truncated record: need {1 + size * ENTRY_BYTES} bytes, stream has {len(data) - pos}",
            offset=pos,
        )
    members = (keys % n).tolist()
    ends = np.cumsum(sizes).tolist()
    return [VertexSet(tuple(members[e - k : e])) for k, e in zip(sizes.tolist(), ends)]


def read_dat_stream(fh, reps: np.ndarray, byteorder: str = "little") -> list[VertexSet]:
    """`read_dat` of the binary file `fh`, read _CHUNK bytes at a time.  The
    whole records of each chunk, and a bad size byte after them, go through
    read_dat, so an endless stream is refused at its first faulty record; a
    partial record is carried over, and is a truncated one at the end.  The
    offset in an error counts from the start of the stream."""
    sets, start, data = [], 0, b""
    try:
        while chunk := fh.read(_CHUNK):
            data += chunk
            _, end, bad_size = _records(data)
            sets += read_dat(data[: end + bad_size], reps, byteorder=byteorder)
            start, data = start + end, data[end:]
        return sets + read_dat(data, reps, byteorder=byteorder)
    except DatFormatError as exc:
        raise DatFormatError(exc.reason, offset=start + exc.offset) from None


def write_dat(sets, reps: np.ndarray, byteorder: str = "little") -> bytes:
    """Serialize vertex sets, vertex v as the encoding reps[v] from the
    ascending representative array, its bytes laid out by the same
    `_ENTRY_SHIFTS` table that read_dat decodes; inverse of read_dat for
    canonical streams."""
    _check_byteorder(byteorder)
    shifts = _ENTRY_SHIFTS[byteorder]
    out = bytearray()
    for i, s in enumerate(sets):
        if not DAT_MIN_SIZE <= s.size <= DAT_MAX_SIZE:
            raise DatFormatError(
                f"set {i + 1} has size {s.size}, writable sizes are "
                f"{DAT_MIN_SIZE} to {DAT_MAX_SIZE}"
            )
        _check_vertices(i, s, len(reps))
        out.append(s.size)
        out += ((reps[list(s.members), None] >> shifts) & 0xFF).astype(np.uint8).tobytes()
    return bytes(out)


def _vertex_labels(n: int) -> np.ndarray:
    """The 1-based text label of every vertex as an object array, made once
    per export and indexed by arrays of vertices."""
    return np.array([str(v) for v in range(1, n + 1)], dtype=object)


def gap_pieces(g: Graph, sets=()) -> Iterator[str]:
    """The GAP/grape text of g and the sets, in pieces: the opening of `A`,
    then the adjacency lists of each band of EXPORT_BAND rows, then the end
    of `A` with the MIS block and the trailer for g.n.

    Every list is joined from the label table, so no vertex number is
    formatted more than once.  The sets are checked when this is called, so
    a set naming a vertex >= g.n raises DomainError before any piece exists.
    """
    for i, s in enumerate(sets):
        _check_vertices(i, s, g.n)
    return _gap_text(g, sets)


def _gap_text(g: Graph, sets) -> Iterator[str]:
    """The pieces of `gap_pieces`, once its sets are checked."""
    labels = _vertex_labels(g.n)
    yield "A:=[\n"
    for lo, rows in g.bands(EXPORT_BAND):
        lines = []
        for u, bits in enumerate(rows, start=lo):
            row = ",".join(labels[np.flatnonzero(bits)].tolist())
            lines.append(f"[{row}]{',' if u < g.n - 1 else ''}\n")
        yield "".join(lines)
    lines = ["];\nMIS:=[\n"]
    for i, s in enumerate(sets):
        row = ",".join(labels[list(s.members)].tolist())
        lines.append(f"[{row}]{',' if i < len(sets) - 1 else ''}\n")
    lines.append("];\n" + gap_trailer(g.n))
    yield "".join(lines)


def edge_list_pieces(g: Graph) -> Iterator[str]:
    """The plain text debug export, one '1-based u v' line per edge, u < v,
    in one piece per band of EXPORT_BAND rows.

    No edge array or list of pairs exists at once: the lines of row u are
    its larger neighbours' labels joined by a newline and u's label, so no
    line is formatted on its own.
    """
    labels = _vertex_labels(g.n)
    for lo, rows in g.bands(EXPORT_BAND):
        lines = []
        for u, bits in enumerate(rows, start=lo):
            upper = labels[u + 1 :][np.flatnonzero(bits[u + 1 :])].tolist()
            if upper:
                head = labels[u] + " "
                lines.append(head + ("\n" + head).join(upper) + "\n")
        yield "".join(lines)


def export_gap(g: Graph, sets=()) -> str:
    """The whole GAP text as one string: `gap_pieces` joined."""
    return "".join(gap_pieces(g, sets))


def export_edge_list(g: Graph) -> str:
    """The whole edge list as one string: `edge_list_pieces` joined."""
    return "".join(edge_list_pieces(g))
