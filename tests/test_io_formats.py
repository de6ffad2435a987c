import io
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srg2048.coclique import VertexSet
from srg2048.coset_graph import DEGREE, N_VERTICES
from srg2048.errors import DatFormatError, DomainError
from srg2048.io_formats import (
    EXPORT_BAND,
    edge_list_pieces,
    export_edge_list,
    export_gap,
    gap_pieces,
    gap_trailer,
    read_dat,
    write_dat,
)

from oracles import export_edge_list_ref, export_gap_ref, graph_from_edges, read_dat_ref


# ------------------------------------------------------------------ DAT


def test_read_two_entry_record(reps):
    data = bytes([0x02, 0x03, 0x00, 0x00, 0x05, 0x00, 0x00])
    sets = read_dat(data, reps)
    assert len(sets) == 1
    assert sets[0].members == (reps.tolist().index(3), reps.tolist().index(5))


def test_read_rejects_size_below_two(reps):
    data = bytes([0x01, 0x00, 0x00, 0x00])
    with pytest.raises(DatFormatError, match="range from 2 to 85"):
        read_dat(data, reps)


def test_read_rejects_size_above_85(reps):
    data = bytes([86] + [0x03, 0x00, 0x00] * 86)
    with pytest.raises(DatFormatError, match="range from 2 to 85"):
        read_dat(data, reps)


def test_read_rejects_non_representative_entry(reps):
    # 0x07 has weight 3: odd weight, not a representative
    data = bytes([0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00])
    with pytest.raises(DatFormatError, match="not a proper coset representation"):
        read_dat(data, reps)


def test_read_rejects_truncated_record(reps):
    data = bytes([0x02, 0x03, 0x00, 0x00])
    with pytest.raises(DatFormatError, match="truncated"):
        read_dat(data, reps)


def test_read_rejects_trailing_garbage(reps):
    data = bytes([0x02, 0x03, 0x00, 0x00, 0x05, 0x00, 0x00, 0x02])
    with pytest.raises(DatFormatError, match="truncated"):
        read_dat(data, reps)


def test_read_rejects_duplicate_entries(reps):
    data = bytes([0x02, 0x03, 0x00, 0x00, 0x03, 0x00, 0x00])
    with pytest.raises(DatFormatError, match="duplicate"):
        read_dat(data, reps)


def test_read_accepts_unordered_entries(reps):
    data = bytes([0x02, 0x05, 0x00, 0x00, 0x03, 0x00, 0x00])
    sets = read_dat(data, reps)
    assert sets[0].members == (reps.tolist().index(3), reps.tolist().index(5))


@pytest.mark.parametrize(
    "data, message",
    [
        # second record, third entry: 0x07 has odd weight
        (bytes([2, 3, 0, 0, 5, 0, 0, 3, 3, 0, 0, 5, 0, 0, 7, 0, 0]),
         "entry 0x000007 is not a proper coset representation (at byte offset 14)"),
        # a bad entry is reported before a duplicate in the same record
        (bytes([3, 3, 0, 0, 3, 0, 0, 7, 0, 0]),
         "entry 0x000007 is not a proper coset representation (at byte offset 7)"),
        (bytes([2, 3, 0, 0, 5, 0, 0, 3, 5, 0, 0, 6, 0, 0, 5, 0, 0]),
         "duplicate entry for vertex 2 in one record (at byte offset 7)"),
        (bytes([2, 3, 0, 0, 5, 0, 0, 2, 3, 0, 0]),
         "truncated record: need 7 bytes, stream has 4 (at byte offset 7)"),
        (bytes([2, 3, 0, 0, 5, 0, 0, 86]),
         "set size 86 is not in the range from 2 to 85 (at byte offset 7)"),
        # a fault in an earlier record comes before a bad size or a truncation
        (bytes([2, 3, 0, 0, 3, 0, 0, 86]),
         "duplicate entry for vertex 1 in one record (at byte offset 0)"),
        (bytes([2, 3, 0, 0, 7, 0, 0, 2, 3, 0, 0]),
         "entry 0x000007 is not a proper coset representation (at byte offset 4)"),
    ],
    ids=[
        "entry", "entry-before-duplicate", "duplicate", "truncated", "size",
        "duplicate-before-size", "entry-before-truncated",
    ],
)
def test_read_errors_name_the_first_bad_byte(reps, data, message):
    with pytest.raises(DatFormatError) as info:
        read_dat(data, reps)
    assert str(info.value) == message


def test_read_big_endian_entries(reps):
    little = read_dat(bytes([2, 0x80, 0x01, 0x00, 0x05, 0x00, 0x00]), reps)
    big = read_dat(bytes([2, 0x00, 0x01, 0x80, 0x00, 0x00, 0x05]), reps, byteorder="big")
    expected = (reps.tolist().index(5), reps.tolist().index(0x180))
    assert big[0].members == little[0].members == expected


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=64), st.sampled_from(["little", "big"]))
def test_arbitrary_bytes_parse_or_raise_format_error(reps, data, byteorder):
    try:
        sets = read_dat(data, reps, byteorder=byteorder)
    except DatFormatError:
        return
    again = read_dat(write_dat(sets, reps, byteorder=byteorder), reps, byteorder=byteorder)
    assert [s.members for s in again] == [s.members for s in sets]


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=2, max_value=6),
            st.lists(st.integers(min_value=0, max_value=2047), min_size=6, max_size=6),
            st.integers(min_value=0, max_value=(1 << 24) - 1),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=4,
    )
)
def test_near_valid_streams_parse_or_raise_format_error(reps, records):
    """Records of representative entries, some with one entry replaced by an
    arbitrary 24-bit value, so that valid, duplicate and bad entries all occur."""
    data = bytearray()
    expected = []
    for size, vertices, value, slot in records:
        entries = [int(reps[v]) for v in vertices[:size]]
        if slot < size and value & 1:
            entries[slot] = value
        data.append(size)
        for e in entries:
            data += e.to_bytes(3, "little")
        expected.append(entries)
    try:
        sets = read_dat(bytes(data), reps)
    except DatFormatError:
        return
    assert [s.members for s in sets] == [
        tuple(sorted(reps.tolist().index(e) for e in entries)) for entries in expected
    ]


def _read_outcome(reader, data, reps, byteorder):
    """The sets a reader returns, or the message and offset of its error."""
    try:
        return [s.members for s in reader(data, reps, byteorder=byteorder)]
    except DatFormatError as e:
        return str(e), e.offset


_FAULTS = ("repeat", "byte", "cut", "append")  # in the order they are made


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.lists(st.integers(0, N_VERTICES - 1), min_size=2, max_size=8), max_size=5),
    st.sampled_from(["little", "big"]),
    st.lists(
        st.tuples(
            st.sampled_from(_FAULTS), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)
        ),
        max_size=3,
    ),
)
def test_read_dat_matches_the_record_by_record_reader(reps, records, byteorder, faults):
    """Valid streams, and streams with up to three faults: an entry copied
    over the next in its record, a byte changed, a record cut short, bytes
    appended.  Both readers give the same sets, or the same error at the
    same offset."""
    data = bytearray()
    spans = []
    for vertices in records:
        spans.append((len(data), len(data) + 1 + 3 * len(vertices)))
        data.append(len(vertices))
        for v in vertices:
            data += int(reps[v]).to_bytes(3, byteorder)
    for kind, at, new in sorted(faults, key=lambda f: _FAULTS.index(f[0])):
        start, end = spans[at % len(spans)] if spans else (0, 0)
        size = (end - start - 1) // 3
        if kind == "repeat" and spans:
            i = start + 1 + 3 * (at % size)
            j = start + 1 + 3 * ((at + 1) % size)
            data[j : j + 3] = data[i : i + 3]
        elif kind == "byte" and data:
            data[at % len(data)] = new[0]
        elif kind == "cut" and spans:
            del data[end - 1 - at % (end - start - 1) : end]
        elif kind == "append":
            data += new
    data = bytes(data)
    assert _read_outcome(read_dat, data, reps, byteorder) == _read_outcome(
        read_dat_ref, data, reps, byteorder
    )


def test_write_size_two_is_seven_bytes(reps):
    payload = write_dat([VertexSet((1, 2))], reps)
    assert len(payload) == 7


def test_write_empty_list_is_empty_stream(reps):
    assert write_dat([], reps) == b""


def test_write_rejects_bad_sizes(reps):
    with pytest.raises(DatFormatError, match="size"):
        write_dat([VertexSet((1,))], reps)
    with pytest.raises(DatFormatError, match="size"):
        write_dat([VertexSet(tuple(range(86)))], reps)


def test_bytes_roundtrip_canonical(reps):
    data = bytes([0x02, 0x03, 0x00, 0x00, 0x05, 0x00, 0x00])
    assert write_dat(read_dat(data, reps), reps) == data


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=2047), min_size=2, max_size=85),
        max_size=6,
    ),
    st.sampled_from(["little", "big"]),
)
def test_sets_roundtrip(reps, families, byteorder):
    sets = [VertexSet(tuple(sorted(f))) for f in families]
    payload = write_dat(sets, reps, byteorder=byteorder)
    back = read_dat(payload, reps, byteorder=byteorder)
    assert [s.members for s in back] == [s.members for s in sets]
    assert write_dat(back, reps, byteorder=byteorder) == payload


def test_roundtrip_many_random_set_lists(reps):
    rng = random.Random(31)
    for _ in range(100):
        sets = [
            VertexSet(tuple(sorted(rng.sample(range(2048), rng.randint(2, 85)))))
            for _ in range(rng.randint(0, 4))
        ]
        payload = write_dat(sets, reps)
        assert [s.members for s in read_dat(payload, reps)] == [
            s.members for s in sets
        ]


def test_byteorder_changes_bytes(reps):
    sets = [VertexSet((100, 200))]
    assert write_dat(sets, reps, "little") != write_dat(sets, reps, "big")


@pytest.mark.parametrize("sets", [[], [VertexSet((1, 2))]], ids=["no sets", "one set"])
@pytest.mark.parametrize("direction", ["read", "write"])
def test_a_bad_byteorder_is_refused_before_any_work(reps, sets, direction):
    with pytest.raises(DomainError, match=r"^byteorder must be 'little' or 'big', got 'middle'$"):
        if direction == "read":
            read_dat(write_dat(sets, reps), reps, byteorder="middle")
        else:
            write_dat(sets, reps, byteorder="middle")


# ------------------------------------------------------------------ GAP


@pytest.fixture(scope="module")
def gap_text(graph):
    return export_gap(graph, [VertexSet((0, 1, 5)), VertexSet((2, 3))])


def test_gap_contains_trailer_verbatim(gap_text):
    assert gap_trailer(2048) in gap_text
    assert 'LoadPackage("grape");;\n' in gap_text


def test_gap_trailer_is_the_tail(gap_text):
    assert gap_text.endswith(gap_trailer(2048))


def _parse_gap_lists(text, name):
    block = re.search(rf"{name}:=\[\n(.*?)\n\];", text, re.S).group(1)
    rows = []
    for line in block.split("\n"):
        line = line.strip().rstrip(",")
        assert line.startswith("[") and line.endswith("]")
        inner = line[1:-1]
        rows.append([int(tok) for tok in inner.split(",")] if inner else [])
    return rows

def test_gap_adjacency_lists_shape(gap_text):
    rows = _parse_gap_lists(gap_text, "A")
    assert len(rows) == 2048
    assert all(len(r) == 276 for r in rows)
    assert all(r == sorted(r) for r in rows)
    assert all(1 <= v <= 2048 for r in rows for v in r)


def test_gap_adjacency_lists_symmetric(gap_text):
    rows = _parse_gap_lists(gap_text, "A")
    neighbor_sets = [set(r) for r in rows]
    for u, row in enumerate(rows, start=1):
        for v in row:
            assert u in neighbor_sets[v - 1]


def test_gap_mis_lists(gap_text):
    rows = _parse_gap_lists(gap_text, "MIS")
    assert rows == [[1, 2, 6], [3, 4]]


def test_gap_statements_well_formed(gap_text):
    assert gap_text.count("[") == gap_text.count("]")
    for statement in ("A:=", "MIS:=", "Gra:=Graph("):
        assert statement in gap_text


# ------------------------------------------------------------ edge list


def test_edge_list_format(graph):
    text = export_edge_list(graph)
    lines = text.strip().split("\n")
    assert len(lines) == N_VERTICES * DEGREE // 2
    first = lines[0].split()
    assert len(first) == 2
    u, v = int(first[0]), int(first[1])
    assert 1 <= u < v <= 2048
    assert (graph.packed[u - 1, (v - 1) >> 3] >> ((v - 1) & 7)) & 1


# ------------------------------------------------ exports against the oracle


@pytest.fixture(scope="module")
def sparse_graph():
    """A triangle, an edge (two degree-1 vertices) and an isolated vertex."""
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])


# sets of every length the label lookup treats apart: none, one, several
EXPORT_SETS = [VertexSet(()), VertexSet((5,)), VertexSet((0, 3)), VertexSet((1, 3, 5))]


@pytest.mark.parametrize("name", ["petersen", "cycle5", "sparse_graph", "random300"])
def test_exports_match_the_str_oracle(request, name):
    g = request.getfixturevalue(name)
    sets = [s for s in EXPORT_SETS if not s.members or s.members[-1] < g.n]
    assert export_gap(g, sets) == export_gap_ref(g, sets, gap_trailer(g.n))
    assert export_gap(g) == export_gap_ref(g, [], gap_trailer(g.n))
    assert export_edge_list(g) == export_edge_list_ref(g)


def test_sparse_graph_exports(sparse_graph):
    text = export_gap(sparse_graph, [VertexSet((5,))])
    assert text.startswith("A:=[\n[2,3],\n[1,3],\n[1,2],\n[5],\n[4],\n[]\n];\nMIS:=[\n[6]\n];\n")
    assert export_edge_list(sparse_graph) == "1 2\n1 3\n2 3\n4 5\n"


def test_gap_trailer_rebuilds_the_graph_it_follows(petersen):
    text = export_gap(petersen)
    assert text.endswith(gap_trailer(10))
    assert "Gra:=Graph(Group(), [1..10], OnPoints,\n" in text
    assert "2048" not in text


def test_gap_rejects_a_set_beyond_the_graph(petersen):
    sink = io.StringIO()
    with pytest.raises(DomainError, match="vertex 10"):
        sink.writelines(gap_pieces(petersen, [VertexSet((2, 10))]))
    assert sink.getvalue() == ""  # refused before the first piece
    with pytest.raises(DomainError, match="vertex 10"):
        export_gap(petersen, [VertexSet((2, 10))])


def test_exports_come_one_band_at_a_time(graph):
    """One piece per EXPORT_BAND rows, and the GAP text's head and tail."""
    bands = N_VERTICES // EXPORT_BAND
    gap = list(gap_pieces(graph, [VertexSet((0, 1, 5))]))
    assert len(gap) == bands + 2
    assert gap[0] == "A:=[\n"
    assert all(piece.count("\n") == EXPORT_BAND for piece in gap[1:-1])
    assert gap[-1] == "];\nMIS:=[\n[1,2,6]\n];\n" + gap_trailer(N_VERTICES)
    edges = list(edge_list_pieces(graph))
    assert len(edges) == bands
    for i, piece in enumerate(edges):
        heads = {int(line.split()[0]) for line in piece.splitlines()}
        assert heads <= set(range(i * EXPORT_BAND + 1, (i + 1) * EXPORT_BAND + 1))
    assert "".join(edges) == export_edge_list(graph)
