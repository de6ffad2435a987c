"""Coset representatives, the adjacency decision, and graph verification.

Vertices are the 2048 even-weight cosets of the Golay code, labelled by
canonical representatives: the zero vector, the 276 weight-2 vectors, and
the 1771 weight-4 vectors with the low bit set.  Distinct representatives
never share a coset (their sum has weight at most 6, below the minimum
codeword weight), so the labelling is a bijection.

Two cosets join when they have representations differing by a weight-2
vector.  Cosets are told apart by their syndromes (see `golay`), so
`build_graph` builds a Cayley graph on the 2048 even-weight syndromes: u and
v join when syn(u) + syn(v) is the syndrome of a weight-2 vector.  The
paper's case analysis on z = x + y, for representatives x, y, is the
cross-check:

    w(z) = 0 -> same vertex, no edge;
    w(z) = 2 -> edge (z itself is the weight-2 difference);
    w(z) = 4 -> no edge (no codeword can bring the difference to weight 2);
    w(z) = 6 -> edge iff some weight-8 codeword c has w(z + c) = 2.

A distance outside {2, 4} from a weight-6 z to the 759 weight-8 words is
treated as a hard error rather than assumed impossible.  The representative
differences are exactly the 145,499 even vectors of weight at most 6.
`build_graph` checks the case rule against the syndromes on all of them,
reading the weight-6 case straight from `weight6_distance_table`.  That
table decides every (z, c) pair with its guard: w(z + c) = 14 - 2 |z & c|
for a weight-8 c, so the minimum is a threshold count of the points z
shares with the words, kept as bitsets over the words for every subset of
at most 6 points.

`verify_srg` checks the srg parameters independently of how the graph was
built: exact common-neighbour counts for all 2,096,128 pairs, from a
float32 product of the 0/1 adjacency matrix with itself, block by block.
Each float32 row of the left factor holds two adjacency rows, the second
scaled by the power of two above the degree k, so one product counts for
both; the sums stay integers below 2^24, exact in float32, for k < 4096.
Every block is compared in one step with the expected counts, packed the
same way: lambda or mu by adjacency, and k on the diagonal.

`build_reps` returns the representatives as one ascending uint32 array,
the one labelling every caller takes: vertex v is the representative at
rank v in it, 0-based internally and 1-based in text exports.  An even
vector x lies in the coset of the vertex whose representative has syn(x).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GraphConstructionError,
    InternalConsistencyError,
    InvalidDistanceError,
    VerificationError,
)
from .gf2 import VEC_BITS
from .golay import SYNDROME_LIMIT, GolayCode, census

N_VERTICES = 2048
DEGREE = 276


@functools.cache
def vectors_of_weight(w: int) -> np.ndarray:
    """All C(24, w) vectors of weight w, ascending (cached, read-only).

    Built in w rounds from [0]: a round sets a new top bit b on every
    vector of the previous round that lies below 2^b.  Taking b upwards
    keeps each round sorted, and no round holds more than its result.
    """
    values = np.zeros(1, dtype=np.uint32)
    for _ in range(w):
        values = np.concatenate(
            [values[: np.searchsorted(values, 1 << b)] | np.uint32(1 << b) for b in range(VEC_BITS)]
        )
    values.setflags(write=False)
    return values


#: The 276 weight-2 vectors, ascending; their syndromes are the connection set.
WEIGHT2_VECTORS: np.ndarray = vectors_of_weight(2)


def build_reps() -> np.ndarray:
    """The canonical representatives as one ascending uint32 array.

    The vertex index of a representative is its rank in this array.
    """
    weight4 = vectors_of_weight(4)
    values = [vectors_of_weight(0), WEIGHT2_VECTORS, weight4[(weight4 & 1) == 1]]
    return np.sort(np.concatenate(values))


@functools.cache
def weight6_distance_table(code: GolayCode) -> np.ndarray:
    """Minimum distance from each weight-6 vector to the weight-8 codewords.

    Returns one byte per weight-6 vector z, in the ascending order of
    `vectors_of_weight(6)`: the minimum of w(z + c) over the weight-8 words
    c, decided for every (z, c) pair by a threshold count.  A word c of
    weight 8 has w(z + c) = 14 - 2 |z & c|, so the minimum is 2 iff some c
    contains z, 4 iff none does but some c holds 5 of z's points, and at
    least 6 otherwise.

    Both questions are asked of every k-subset S of the 24 points, k <= 6,
    as bitsets over the words c: A[S], the words containing S, and B[S],
    the words holding at least k - 1 points of S.  For S = P + {b}, with b
    above every point of P, A[S] = A[P] & M[b] and B[S] = A[P] | (B[P] & M[b]),
    where M[b] is the set of words through point b.  In the order of
    `vectors_of_weight(k)` the sets with top point b form one block, read
    from the first C(b, k - 1) sets of level k - 1, so each level is 24
    block operations.  Level 6 is reduced block by block to A != 0 and
    B != 0 and never stored, and the count runs one 64-word bitset column
    at a time in level buffers allocated once.

    Raises InternalConsistencyError if `code.weight8` holds a word of
    another weight, before any count, and InvalidDistanceError for the
    ascending-first z with B = 0, with its distance from a direct scan.
    Cached per code, so the build and `weight6_distance_census` share one
    count.
    """
    w8 = code.weight8
    odd = np.flatnonzero(np.bitwise_count(w8) != 8)
    if odd.size:
        c = int(w8[odd[0]])
        raise InternalConsistencyError(
            f"weight-8 list holds a word of weight {c.bit_count()}: {c:024b}"
        )
    # M[b]: bit j of column w set iff word 64 w + j holds point b (any bit order
    # within a column serves, as only A != 0 and B != 0 are read)
    columns = -(-len(w8) // 64)
    through = np.zeros((VEC_BITS, 64 * columns), dtype=bool)
    through[:, : len(w8)] = (w8[None, :] >> np.arange(VEC_BITS, dtype=np.uint32)[:, None]) & 1
    masks = np.packbits(through, axis=1, bitorder="little").view(np.uint64)
    # block b of level k: the sets with top point b, one per set among the
    # first C(b, k - 1) of level k - 1, as (b, offset, length)
    blocks = {k: [] for k in range(2, 7)}
    for k, block in blocks.items():
        lo = 0
        for b in range(k - 1, VEC_BITS):
            block.append((b, lo, math.comb(b, k - 1)))
            lo += math.comb(b, k - 1)
    a_level, b_level = (
        {k: np.empty(math.comb(VEC_BITS, k), dtype=np.uint64) for k in range(1, 6)} for _ in range(2)
    )
    term = np.empty(math.comb(VEC_BITS - 1, 5), dtype=np.uint64)
    hit = np.empty(len(term), dtype=bool)
    inside, near = (np.zeros(math.comb(VEC_BITS, 6), dtype=bool) for _ in range(2))
    for w in range(columns):
        m = masks[:, w]
        a_level[1][:] = m
        b_level[1][:] = ~np.uint64(0)  # every word holds at least 0 points of {b}
        for k in range(2, 6):
            a_prev, b_prev = a_level[k - 1], b_level[k - 1]
            for b, lo, n in blocks[k]:
                a, at_least = a_level[k][lo : lo + n], b_level[k][lo : lo + n]
                np.bitwise_and(a_prev[:n], m[b], out=a)
                np.bitwise_and(b_prev[:n], m[b], out=at_least)
                np.bitwise_or(at_least, a_prev[:n], out=at_least)
        # level 6, one block at a time: only whether A and B are empty
        for b, lo, n in blocks[6]:
            t, h = term[:n], hit[:n]
            np.bitwise_and(b_level[5][:n], m[b], out=t)
            np.bitwise_or(t, a_level[5][:n], out=t)
            np.not_equal(t, 0, out=h)
            near[lo : lo + n] |= h
            np.bitwise_and(a_level[5][:n], m[b], out=t)
            np.not_equal(t, 0, out=h)
            inside[lo : lo + n] |= h
    far = np.flatnonzero(~near)
    if far.size:
        z = int(vectors_of_weight(6)[far[0]])
        raise InvalidDistanceError(z, int(np.bitwise_count(w8 ^ np.uint32(z)).min()))
    return np.where(inside, np.uint8(2), np.uint8(4))


def weight6_distance_census(code: GolayCode) -> dict[int, int]:
    """How many weight-6 vectors sit at each distance from the weight-8 words."""
    return census(weight6_distance_table(code))


def row_bytes(n: int) -> int:
    """Bytes per packed adjacency row: n bits rounded up to whole 64-bit words."""
    return 8 * -(-n // 64)


#: Rows per band: the build packs BAND rows at a time, and `Graph.bands` unpacks
#: as many for the structure check and `verify_srg` (the exports take shorter bands).
BAND = 256


class Graph:
    """Adjacency stored once, as per-vertex packed bitset rows.

    The vertex count n is the number of rows.  Bit v of row u is
    (packed[u, v >> 3] >> (v & 7)) & 1.  Rows are row_bytes(n) long,
    zero-padded past bit n - 1, so `words` can view them as 64-bit words
    for popcount kernels; for n = 2048 nothing is padded.
    `bands` unpacks them a band at a time, for the checks and the exports.

    The constructor is the one place the structure is checked, for built
    and loaded rows alike: the shape and dtype, then no loop, then
    symmetry, each band against the same columns of the rows from that
    band on, so no n x n bool matrix is ever formed.  Any failure raises
    GraphConstructionError.
    """

    def __init__(self, packed: np.ndarray):
        n = len(packed)
        if packed.dtype != np.uint8 or packed.shape != (n, row_bytes(n)):
            raise GraphConstructionError(
                f"packed rows must be uint8 of shape {(n, row_bytes(n))}, "
                f"got {packed.dtype} {packed.shape}"
            )
        self.n = n
        self.packed = packed
        self.words = packed.view(np.uint64)
        v = np.arange(n)
        if ((packed[v, v >> 3] >> (v & 7)) & 1).any():
            raise GraphConstructionError("adjacency matrix has a loop")
        for lo, rows in self.bands():
            # entries (u, v) with u in this band and v >= lo, against (v, u)
            h = len(rows)
            cols = np.unpackbits(packed[lo:, lo >> 3 : (lo + h + 7) >> 3], axis=1, bitorder="little")
            if not np.array_equal(rows[:, lo:], cols[:, :h].T.view(bool)):
                raise GraphConstructionError("adjacency matrix not symmetric")

    def bands(self, height: int = BAND):
        """Yield (lo, row_bits(slice(lo, lo + height))) for lo = 0, height, ..."""
        for lo in range(0, self.n, height):
            yield lo, self.row_bits(slice(lo, lo + height))

    def row_bits(self, u: int | slice) -> np.ndarray:
        """Row u, or the rows of a slice, unpacked to bool, one entry per vertex."""
        bits = np.unpackbits(self.packed[u], axis=-1, bitorder="little")
        return bits[..., : self.n].view(bool)

    def degrees(self) -> np.ndarray:
        """All row degrees as an int32 array."""
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.int32)


def build_graph(code: GolayCode, reps: np.ndarray) -> Graph:
    """Assemble the graph as a Cayley graph on the representative syndromes.

    First the connection set D, the syndromes of the weight-2 vectors, is
    checked against the case rule on every difference z of weight 0, 2, 4
    or 6: an edge iff w(z) = 2, or w(z) = 6 and z's weight-6 table entry is
    2.  Then a syndrome -> vertex index gives the neighbours of u as the
    vertices of syn(u) + d for the 276 d in D; they are scattered into a
    band of BAND bool rows at a time and packed, so the graph never exists
    as a bool matrix.  Raises GraphConstructionError if a neighbour
    syndrome names no vertex, if `Graph` refuses the rows, or if any vertex
    degree differs from 276; InvalidDistanceError if a weight-6 vector lies
    at a distance outside {2, 4} from the weight-8 words; and
    InternalConsistencyError if the case analysis disagrees with the
    syndromes on any even vector of weight at most 6, or if two
    representatives lie in the same coset, as in `check_rep_uniqueness`.
    """
    connection = np.zeros(SYNDROME_LIMIT, dtype=bool)
    connection[code.syndromes(WEIGHT2_VECTORS)] = True
    # the case analysis first: its differences are freed before the rows exist
    _check_case_rule(code, connection)
    syn = _distinct_syndromes(code, reps)
    n = len(syn)
    vertex = np.full(SYNDROME_LIMIT, -1, dtype=np.int16)
    vertex[syn] = np.arange(n)
    step = np.flatnonzero(connection).astype(np.uint16)
    packed = np.zeros((n, row_bytes(n)), dtype=np.uint8)
    band = np.empty((min(BAND, n), n), dtype=bool)
    for lo in range(0, n, BAND):
        # the neighbours of u are the vertices of syn(u) + d, for d in the connection set
        ends = vertex[syn[lo : lo + BAND, None] ^ step[None, :]]
        unmapped = np.flatnonzero(ends < 0)
        if unmapped.size:
            r, j = divmod(int(unmapped[0]), len(step))
            raise GraphConstructionError(
                f"vertex {lo + r} has neighbour syndrome {int(syn[lo + r] ^ step[j])}, "
                "which names no vertex"
            )
        rows = band[: len(ends)]
        rows[:] = False
        rows[np.arange(len(ends))[:, None], ends] = True
        packed[lo : lo + BAND, : -(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    g = Graph(packed)
    degrees = g.degrees()
    bad = np.flatnonzero(degrees != DEGREE)
    if bad.size:
        v = int(bad[0])
        raise GraphConstructionError(
            f"vertex {v} has degree {int(degrees[v])}, expected {DEGREE}"
        )
    return g


def _check_case_rule(code: GolayCode, connection: np.ndarray) -> None:
    """The connection set against the case rule on every even z of weight <= 6."""
    z = np.concatenate([vectors_of_weight(w) for w in (0, 2, 4, 6)])
    rule = [np.full(math.comb(VEC_BITS, w), w == 2) for w in (0, 2, 4)]
    rule.append(weight6_distance_table(code) == 2)
    off = np.flatnonzero(connection[code.syndromes(z)] != np.concatenate(rule))
    if off.size:
        raise InternalConsistencyError(
            f"case analysis and syndromes disagree on {off.size} of {len(z)} "
            f"differences, first {int(z[off[0]]):024b}"
        )


class SrgParams(NamedTuple):
    """Parameter set (v, k, lambda, mu) of a strongly regular graph."""

    v: int
    k: int
    lam: int
    mu: int


TARGET_PARAMS = SrgParams(N_VERTICES, DEGREE, 44, 36)


def verify_srg(g: Graph) -> SrgParams:
    """Exhaustive strongly-regular check over all vertex pairs.

    The common-neighbour count of a pair u < v is entry (u, v) of A @ A for
    the 0/1 adjacency matrix A, a route independent of how the graph was
    constructed.  A k-regular graph with 0 < k < n - 1 has both kinds of
    pair in row 0, so lambda and mu are read there, from the first adjacent
    and the first non-adjacent pair in row-major order, and every pair
    u < v is compared with them.

    The product is taken in float32, block by block, with two adjacency
    rows in each float32 row: a band of BAND rows u becomes BAND // 2 rows
    A[u1] + base * A[u2], where base = 2^bit_length(k) is the power of two
    above k, so one product with a block of BAND // 2 plain rows v gives
    c(u1, v) + base * c(u2, v) for both rows at once.  Every block, the
    band's own included, is compared in one `not_equal` with the expected
    counts packed the same way: lambda or mu by adjacency, and k at (u, u).
    Every entry and expected value is an integer <= k * (base + 1) < 2^24
    for k < 4096, so the counts are exact in any order of summation.  The
    band's own blocks also compare pairs (u, v) with v < u; A @ A is
    symmetric, so such a pair is bad only if (v, u) is, in the same band.

    Raises DomainError for k >= 4096, before any product, and
    VerificationError for any k outside 0 < k < n - 1, and with a witness
    vertex or pair on any non-constancy: the row-major first bad pair, a
    lambda mismatch before a mu mismatch in the same row, found by redoing
    the failing band row by row with exact popcounts.
    """
    n = g.n
    degrees = g.degrees()
    k = int(degrees[0]) if n else 0
    bad = np.flatnonzero(degrees != k)
    if bad.size:
        v = int(bad[0])
        raise VerificationError(
            f"degree not constant: vertex {v} has {int(degrees[v])}, vertex 0 has {k}",
            witness=(v,),
        )
    if not 0 < k < n - 1:
        raise VerificationError(
            "degenerate graph: needs both adjacent and non-adjacent pairs"
        )
    if k >= 4096:
        raise DomainError(
            f"degree {k} is too large for exact paired float32 rows, "
            "which need a degree below 4096"
        )
    base = 1 << k.bit_length()
    row = g.row_bits(0)  # no loop, so the argmax is vertex 0's first neighbour
    first_pairs = (int(np.argmax(row)), 1 + int(np.argmin(row[1:])))
    lam, mu = (int(np.bitwise_count(g.words[0] & g.words[v]).sum()) for v in first_pairs)
    height, width = min(BAND, n), min(BAND // 2, n)  # 128-row blocks gave the lowest peak
    paired = (height + 1) // 2
    band, block = (np.empty((m, n), dtype=np.float32) for m in (paired, width))
    product, expected = (np.empty((paired, width), dtype=np.float32) for _ in range(2))
    offset = np.empty((paired, 1), dtype=np.float32)
    wrong = np.empty((paired, width), dtype=bool)
    for lo, rows in g.bands(height):
        h = len(rows)
        # rows r and half + r share float32 row r; an odd band's middle row is alone
        half = (h + 1) // 2
        a, pairs = band[:half], band[: h - half]
        np.copyto(pairs, rows[half:])
        pairs *= base
        np.add(pairs, rows[: h - half], out=pairs)
        np.copyto(a[h - half :], rows[h - half : half])
        offset[: h - half] = mu * (1 + base)
        offset[h - half : half] = mu
        for blo in range(lo, n, width):
            own = blo < lo + h  # the block's columns are the band's own vertices
            bits = rows[blo - lo : blo - lo + width] if own else g.row_bits(slice(blo, blo + width))
            w = len(bits)
            b, common = block[:w], product[:half, :w]
            e, x = expected[:half, :w], wrong[:half, :w]
            np.copyto(b, bits)
            np.matmul(a, b.T, out=common)
            np.multiply(a[:, blo : blo + w], lam - mu, out=e)
            e += offset[:half]
            if own:  # entry (u, u) is the degree k, not mu
                for first, count, scale in ((0, half, 1), (half, h - half, base)):
                    u = np.arange(max(blo, lo + first), min(blo + w, lo + first + count))
                    e[u - lo - first, u - blo] += (k - mu) * scale
            if np.not_equal(common, e, out=x).any():
                raise _first_bad_pair(g, rows, lo, lam, mu)
    return SrgParams(n, k, lam, mu)


def _first_bad_pair(g: Graph, rows: np.ndarray, lo: int, lam: int, mu: int) -> VerificationError:
    """The row-major first bad pair among the rows of a band that has one,
    from exact popcounts: a lambda mismatch before a mu mismatch in a row."""
    for r in range(len(rows)):
        u = lo + r
        common = np.bitwise_count(g.words[u] & g.words[u + 1 :]).sum(axis=1)
        adjacent = rows[r, u + 1 :]
        for name, current, flag in (("lambda", lam, adjacent), ("mu", mu, ~adjacent)):
            off = np.flatnonzero(flag & (common != current))
            if off.size:
                j = int(off[0])
                return VerificationError(
                    f"{name} not constant: pair ({u}, {u + 1 + j}) has {int(common[j])} "
                    f"common neighbours, expected {current}",
                    witness=(u, u + 1 + j),
                )
    raise InternalConsistencyError(f"float32 product and popcounts disagree in rows from {lo}")


def delsarte_bound(v: int, k: int, s) -> int:
    """Ratio bound on coclique size: floor(v / (1 + k / (-s))).

    `s` is the smallest adjacency eigenvalue: an integer of any kind (numpy's
    too), a float or a Fraction.  With s = p/q exactly (q > 0), the bound is
    v(-p) / (kq - p), floored in exact integer arithmetic.
    """
    if k <= 0:
        raise DomainError(f"degree must be positive, got {k}")
    try:
        p, q = operator.index(s), 1
    except TypeError:
        p, q = s.as_integer_ratio()
    if p >= 0:
        raise DomainError(f"smallest eigenvalue must be negative, got {s}")
    return v * -p // (k * q - p)


def srg_eigenvalues(params: SrgParams) -> tuple:
    """The two non-principal eigenvalues, roots of x^2 - (lam-mu)x - (k-mu).

    Returns exact integers when the discriminant is a perfect square,
    floats otherwise; larger root first.
    """
    b = params.lam - params.mu
    disc = b * b + 4 * (params.k - params.mu)
    if disc < 0:
        raise DomainError(f"negative discriminant {disc}: not an srg parameter set")
    root = math.isqrt(disc)
    if root * root == disc and (b + root) % 2 == 0:
        return ((b + root) // 2, (b - root) // 2)
    froot = math.sqrt(disc)
    return ((b + froot) / 2, (b - froot) / 2)


def check_rep_uniqueness(code: GolayCode, reps: np.ndarray) -> int:
    """Exhaustively confirm no two distinct representatives share a coset.

    x + y lies in the code exactly when syn(x) = syn(y), so comparing the
    2048 syndromes decides every pair.  Returns the number of pairs;
    raises InternalConsistencyError with a witness pair on a shared coset.
    """
    _distinct_syndromes(code, reps)
    n = len(reps)
    return n * (n - 1) // 2


def _distinct_syndromes(code: GolayCode, reps: np.ndarray) -> np.ndarray:
    """The representatives' syndromes, after checking that no two are equal;
    a clash names the least vertex v whose syndrome an earlier vertex has,
    and the first such earlier vertex."""
    syn = code.syndromes(reps)
    # stable: each run of equal syndromes lists its vertices in order
    order = np.argsort(syn, kind="stable")
    ranked = syn[order]
    clash = order[1:][ranked[1:] == ranked[:-1]]
    if clash.size:
        v = int(clash.min())
        first = int(order[np.searchsorted(ranked, syn[v])])
        raise InternalConsistencyError(f"representatives {first} and {v} lie in the same coset")
    return syn
