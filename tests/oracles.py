"""Reference implementations and helpers that only the tests use.

Each oracle decides its question by a route independent of the package's
fast path: definition-level scans for the coset machinery, with membership
decided by binary search in the enumerated codewords (the package uses
syndromes), and arbitrary-precision integer rows for the coclique checks
(the package uses popcounts over packed 64-bit words and column sums of
the members' rows), and `str()` of every vertex number for the text
exports (the package joins a table of labels), and a plain step-by-step
greedy run on a bool matrix for the search (the package memoises, skips
steps whose outcome is fixed and works on packed masks), and `Fraction`
arithmetic for the ratio bound (the package floors one integer quotient),
and popcounts of Python-int rows for every pair of the srg check (the
package takes a float32 matrix product in tiles), and a record-by-record
walk for the vertex-set container (the package decodes, looks up and
checks every entry of the stream in one pass).
The graph helpers pack small bool matrices and edge lists into `Graph`
rows, whose constructor checks them; the package itself never holds an
n x n bool matrix.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from srg2048.coclique import VertexSet
from srg2048.coset_graph import Graph, row_bytes
from srg2048.errors import DatFormatError, DomainError, InternalConsistencyError
from srg2048.io_formats import DAT_MAX_SIZE, DAT_MIN_SIZE, ENTRY_BYTES

# sha256 of each pinned output by name: the one table, which tests/console_contract.sh reads too
PINS = dict(
    line.split() for line in (Path(__file__).parent / "data" / "pins.txt").read_text().splitlines()
)

# enumerated here rather than taken from the package, which builds from them
_WEIGHT2 = np.array(
    [(1 << a) | (1 << b) for a, b in itertools.combinations(range(24), 2)], dtype=np.uint32
)

# ---------------------------------------------------------- graph helpers


def graph_from_bool_matrix(adj):
    """A Graph holding the rows of an n x n 0/1 matrix, packed and padded."""
    adj = np.asarray(adj, dtype=bool)
    n = len(adj)
    packed = np.zeros((n, row_bytes(n)), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
    return Graph(packed)


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return graph_from_bool_matrix(adj)


def bool_matrix(g):
    """The whole adjacency matrix of g, unpacked to bool."""
    return g.row_bits(slice(None))


def neighbors(g, u):
    """The neighbours of vertex u, ascending, from its unpacked row."""
    return np.flatnonzero(g.row_bits(u))


def feasibility_identity(params):
    """Both sides of k(k - lambda - 1) = (v - k - 1) mu."""
    return (
        params.k * (params.k - params.lam - 1),
        (params.v - params.k - 1) * params.mu,
    )


def verify_srg_ref(g):
    """The parameters (v, k, lambda, mu) of g, or the (message, witness) of
    its first fault, from exact popcounts of every pair of Python-int rows.

    The faults, in the order they are looked for: a degree other than
    vertex 0's, at the least such vertex; no adjacent or no non-adjacent
    pair; then the first row u with a pair u < v whose common-neighbour
    count is not that of vertex 0's first adjacent (lambda) or first
    non-adjacent (mu) pair, and in it the first lambda mismatch, else the
    first mu mismatch.
    """
    rows = int_rows(g)
    n = len(rows)
    k = rows[0].bit_count() if n else 0
    for v, row in enumerate(rows):
        if row.bit_count() != k:
            return f"degree not constant: vertex {v} has {row.bit_count()}, vertex 0 has {k}", (v,)
    if not 0 < k < n - 1:
        return "degenerate graph: needs both adjacent and non-adjacent pairs", None
    first = {rows[0] >> v & 1: v for v in range(n - 1, 0, -1)}  # the least v of each kind
    expected = {bit: (rows[0] & rows[v]).bit_count() for bit, v in first.items()}
    for u in range(n):
        faults = {}
        for v in range(u + 1, n):
            bit, common = rows[u] >> v & 1, (rows[u] & rows[v]).bit_count()
            if common != expected[bit]:
                faults.setdefault(bit, (v, common))
        for bit, name in ((1, "lambda"), (0, "mu")):
            if bit in faults:
                v, common = faults[bit]
                return (
                    f"{name} not constant: pair ({u}, {v}) has {common} common neighbours, "
                    f"expected {expected[bit]}",
                    (u, v),
                )
    return n, k, expected[1], expected[0]


def delsarte_bound_ref(v, k, s):
    """floor(v / (1 + k / (-s))) in exact rationals; floats convert exactly."""
    return math.floor(Fraction(v) / (1 + Fraction(k) / (-Fraction(s))))


def vectors_of_weight_ref(w):
    """The C(24, w) vectors of weight w, ascending, from itertools.combinations."""
    values = [sum(1 << b for b in bits) for bits in itertools.combinations(range(24), w)]
    assert len(values) == math.comb(24, w)
    return np.array(sorted(values), dtype=np.uint32)


# ------------------------------------------------------------ coset level


def in_code(code, xs):
    """Membership of each of xs, by binary search in code.codewords."""
    xs = np.asarray(xs, dtype=np.uint32)
    pos = np.searchsorted(code.codewords, xs).clip(max=len(code.codewords) - 1)
    return code.codewords[pos] == xs


def translation_perm(code, reps, t):
    """u -> the vertex of rep(u) + t, by syndromes; vertex 0 goes to t's vertex."""
    syn = code.syndromes(reps)
    vertex = np.zeros(1 << 12, dtype=np.intp)
    vertex[syn] = np.arange(len(syn))
    return vertex[syn ^ code.syndromes(t)]


def rep_of_scan(code, reps, x):
    """The representative of x's coset, by a scan of all representatives."""
    if x.bit_count() & 1:
        raise DomainError(f"vector has odd weight, no coset vertex: {x:024b}")
    found = reps[in_code(code, reps ^ np.uint32(x))]
    if found.size == 0:
        raise InternalConsistencyError(f"no representative found for {x:024b}")
    return int(found[0])


def min_coset_distance_bulk(code, zs):
    """Full-scan minima (no early exit) for an array of weight-6 vectors."""
    zs = np.asarray(zs, dtype=np.uint32)
    if not np.all(np.bitwise_count(zs) == 6):
        raise DomainError("weight-8 scan requires weight-6 vectors")
    out = np.empty(len(zs), dtype=np.uint8)
    w8 = code.weight8
    for lo in range(0, len(zs), 16384):
        chunk = zs[lo : lo + 16384]
        out[lo : lo + len(chunk)] = np.bitwise_count(chunk[:, None] ^ w8[None, :]).min(axis=1)
    return out


def adjacent_by_translates(code, x, y):
    """Definition-level oracle: the cosets join iff (x + y) + e lands in the
    code for some weight-2 vector e.  Independent of the case analysis."""
    return bool(in_code(code, _WEIGHT2 ^ np.uint32(x ^ y)).any())


def adjacent_many_oracle(code, xs, ys):
    """Vectorized definition-level oracle (scan of all 276 weight-2 translates)."""
    z = np.asarray(xs, dtype=np.uint32) ^ np.asarray(ys, dtype=np.uint32)
    out = np.zeros(len(z), dtype=bool)
    for e in _WEIGHT2:
        out |= in_code(code, z ^ e)
    return out


def min_nonzero_weight(code):
    """Smallest weight among nonzero codewords (8 for a valid build)."""
    nonzero = code.codewords[code.codewords != 0]
    return int(np.bitwise_count(nonzero).min())


# ------------------------------------------------------- coclique checks


def int_rows(g):
    """The adjacency rows as Python integers, bit v of row u = edge uv."""
    return [int.from_bytes(g.packed[u].tobytes(), "little") for u in range(g.n)]


def bitmask(s):
    """The members of a VertexSet as one Python integer, bit v = member v."""
    mask = 0
    for v in s.members:
        mask |= 1 << v
    return mask


def is_coclique_ref(rows, s):
    mask = bitmask(s)
    return all(rows[v] & mask == 0 for v in s.members)


def is_maximal_ref(rows, s):
    if not is_coclique_ref(rows, s):
        raise DomainError("maximality is only defined for cocliques")
    cover = bitmask(s)
    for v in s.members:
        cover |= rows[v]
    return cover == (1 << len(rows)) - 1


def external_profile_ref(rows, s):
    mask = bitmask(s)
    counts = Counter()
    for w, row in enumerate(rows):
        if not (mask >> w) & 1:
            counts[(row & mask).bit_count()] += 1
    return dict(counts)


def pair_invariant_ref(rows, s):
    mask = bitmask(s)
    w8_mask = 0
    for w, row in enumerate(rows):
        if not (mask >> w) & 1 and (row & mask).bit_count() == 8:
            w8_mask |= 1 << w
    total = 0
    members = s.members
    for i, u in enumerate(members):
        row_u = rows[u] & w8_mask
        for v in members[i + 1 :]:
            if row_u & rows[v] == 0:
                total += 1
    return total


def complete_ref(adj, start, rng, mode, depth=1, q=0.5):
    """A greedy run of the search from `start`, one plain step at a time.

    `adj` is the n x n bool adjacency.  Each step takes the eligible
    vertices (outside the members and their neighbourhoods) as the
    candidates, recounts every candidate's neighbours among them, sorts
    stably and draws, with no memo and no shortcut: the draws the search
    must make, in its order.
    """
    adj = np.asarray(adj, dtype=bool)
    members = list(start)
    eligible = ~adj[members].any(axis=0)
    eligible[members] = False
    while (m := np.count_nonzero(eligible)) > 0:
        cands = np.flatnonzero(eligible)
        if mode in ("max", "min") or (mode == "blend" and rng.random() < q):
            degs = adj[np.ix_(cands, cands)].sum(axis=1)
            order = np.argsort(degs if mode == "min" else -degs, kind="stable")
            take = min(m, 1 + rng.randrange(max(depth, 1)))
            v = int(cands[order[rng.randrange(take)]])
        else:
            v = int(cands[rng.randrange(m)])
        members.append(v)
        eligible &= ~adj[v]
        eligible[v] = False
    return sorted(members)


# --------------------------------------------------------------- container


def read_dat_ref(data, reps, byteorder="little"):
    """The container read one record at a time, each checked in full before
    the next is looked at: its size, its length, then its entries in order,
    then duplicates, whose error names the least repeated vertex."""
    rank = dict(zip(reps.tolist(), range(len(reps))))
    sets = []
    pos = 0
    while pos < len(data):
        size = data[pos]
        if not DAT_MIN_SIZE <= size <= DAT_MAX_SIZE:
            raise DatFormatError(
                f"set size {size} is not in the range from {DAT_MIN_SIZE} to {DAT_MAX_SIZE}",
                offset=pos,
            )
        end = pos + 1 + size * ENTRY_BYTES
        if end > len(data):
            raise DatFormatError(
                f"truncated record: need {end - pos} bytes, stream has {len(data) - pos}",
                offset=pos,
            )
        members = []
        for at in range(pos + 1, end, ENTRY_BYTES):
            value = int.from_bytes(data[at : at + ENTRY_BYTES], byteorder)
            if value not in rank:
                raise DatFormatError(
                    f"entry {value:#08x} is not a proper coset representation", offset=at
                )
            members.append(rank[value])
        repeated = [v for v, c in Counter(members).items() if c > 1]
        if repeated:
            raise DatFormatError(
                f"duplicate entry for vertex {min(repeated)} in one record", offset=pos
            )
        sets.append(VertexSet(tuple(sorted(members))))
        pos = end
    return sets


# ----------------------------------------------------------- text exports


def _gap_lists(lists):
    """One '[a,b,...]' line per list, each but the last ending in a comma."""
    last = len(lists) - 1
    return "".join(
        "[" + ",".join(str(x) for x in row) + "]" + ("," if i != last else "") + "\n"
        for i, row in enumerate(lists)
    )


def export_gap_ref(g, sets, trailer):
    """The GAP text from the integer rows, every vertex number through str()."""
    rows = int_rows(g)
    adjacency = [[v + 1 for v in range(g.n) if (rows[u] >> v) & 1] for u in range(g.n)]
    mis = [[v + 1 for v in s.members] for s in sets]
    return "A:=[\n" + _gap_lists(adjacency) + "];\nMIS:=[\n" + _gap_lists(mis) + "];\n" + trailer


def export_edge_list_ref(g):
    """One 'u v' line per edge u < v, 1-based, from the integer rows."""
    rows = int_rows(g)
    return "".join(
        f"{u + 1} {v + 1}\n" for u in range(g.n) for v in range(u + 1, g.n) if (rows[u] >> v) & 1
    )
