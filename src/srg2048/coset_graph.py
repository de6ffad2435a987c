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
table is read off the words with its guard: w(z + c) = 14 - 2 |z & c| for
a weight-8 c, so z is at distance 2 iff it is a word less two points, and
no z is at 6 or more once the words less three points are all C(24, 5)
five-sets, a count the octads of S(5, 8, 24) pass.

`verify_srg` checks the srg parameters independently of how the graph was
built: exact common-neighbour counts for all 2,096,128 pairs, from a
float32 product of the 0/1 adjacency matrix with itself, block by block.
Each float32 row of the left factor holds two adjacency rows, the second
scaled by the power of two above the degree k, so one product counts for
both; the sums stay integers below 2^24, exact in float32, for k < 4096.
Every block is compared in one step with the expected counts, packed the
same way: lambda or mu by adjacency, and k on the diagonal.  Both factors
are gathered from the packed rows through a table of the bits of each
byte, into two float32 tiles of 1 MiB each; no bool band is unpacked.  The
right factor is a block of 128 adjacency columns (2048 x 128): `Graph`
guarantees symmetry, so column v is row v, and reading the block as
columns makes each product a plain (NN) matrix multiply.

`build_reps` returns the representatives as one ascending uint32 array,
the one labelling every caller takes: vertex v is the representative at
rank v in it, 0-based internally and 1-based in text exports.  An even
vector x lies in the coset of the vertex whose representative has syn(x).
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GraphConstructionError,
    InternalConsistencyError,
    InvalidDistanceError,
    VerificationError,
    integer,
)
from .gf2 import VEC_BITS
from .golay import SYNDROME_LIMIT, GolayCode, census

N_VERTICES = 2048
DEGREE = 276


_held: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def vectors_of_weight(w: int) -> np.ndarray:
    """All C(24, w) vectors of weight w, ascending (read-only).

    Built in w rounds from [0]: a round sets a new top bit b on every
    vector of the previous round that lies below 2^b.  Taking b upwards
    keeps each round sorted, and no round holds more than its result.  A
    call returns the array an earlier caller still holds; none is kept.
    """
    if (values := _held.get(w)) is None:
        values = np.zeros(1, dtype=np.uint32)
        for _ in range(w):
            values = np.concatenate(
                [values[: np.searchsorted(values, 1 << b)] | np.uint32(1 << b) for b in range(VEC_BITS)]
            )
        values.setflags(write=False)
        _held[w] = values
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
    c.  A word c of weight 8 has w(z + c) = 14 - 2 |z & c|, so the minimum
    is 2 iff some c contains z, 4 iff none does but some c holds 5 of z's
    points, and at least 6 otherwise.

    The table is read off the words, not scanned: each word less two of its
    points is a z at distance 2, marked at its rank.  Every other z is at
    distance 4 once every five-set lies in a word, and that guard is a
    count: the words less three of their points, sorted, must take all
    C(24, 5) = 42,504 values, as the 759 octads of S(5, 8, 24) do.  Only if
    the count falls short are each z's six five-subsets looked up in them.

    Raises InternalConsistencyError if `code.weight8` is empty or holds a
    word of another weight, before any count, and InvalidDistanceError for
    the ascending-first z with no five-subset in a word, with its distance
    from a direct scan.  Cached per code, so the build and
    `weight6_distance_census` share one table.
    """
    w8 = code.weight8
    if not w8.size:
        raise InternalConsistencyError("weight-8 list is empty")
    odd = np.flatnonzero(np.bitwise_count(w8) != 8)
    if odd.size:
        c = int(w8[odd[0]])
        raise InternalConsistencyError(
            f"weight-8 list holds a word of weight {c.bit_count()}: {c:024b}"
        )
    z6 = vectors_of_weight(6)
    # the 8 points of each word, as one-point vectors, and the word less k of them
    _, at = np.nonzero((w8[:, None] >> np.arange(VEC_BITS, dtype=np.uint32)) & 1)
    points = np.uint32(1) << at.astype(np.uint32).reshape(-1, 8)

    subsets = np.arange(256, dtype=np.uint32)  # of 8 positions, as byte masks

    def less(k: int) -> np.ndarray:
        # column j of `take` marks the points of the j-th k-subset of 8 positions
        take = (subsets[np.bitwise_count(subsets) == k] >> np.arange(8, dtype=np.uint32)[:, None]) & 1
        return w8[:, None] ^ points @ take

    inside = np.zeros(len(z6), dtype=bool)
    inside[np.searchsorted(z6, less(2))] = True
    # sorted five-sets above a sentinel 2^24: each distinct value is followed by a larger one
    fives = np.sort(np.append(less(3), np.uint32(1 << VEC_BITS)))
    if np.count_nonzero(fives[1:] != fives[:-1]) != math.comb(VEC_BITS, 5):
        near, rest = np.zeros(len(z6), dtype=bool), z6.copy()
        for _ in range(6):  # z less each of its points in turn
            five = z6 ^ (rest & -rest)
            near |= fives[np.searchsorted(fives, five)] == five
            rest &= rest - np.uint32(1)
        if not near.all():
            z = int(z6[np.argmin(near)])  # the first z with no five-subset in a word
            raise InvalidDistanceError(z, int(np.bitwise_count(w8 ^ np.uint32(z)).min()))
    return np.where(inside, np.uint8(2), np.uint8(4))


def weight6_distance_census(code: GolayCode) -> dict[int, int]:
    """How many weight-6 vectors sit at each distance from the weight-8 words."""
    return census(weight6_distance_table(code))


def row_bytes(n: int) -> int:
    """Bytes per packed adjacency row: n bits rounded up to whole 64-bit words."""
    return 8 * -(-n // 64)


#: Rows per band: the build packs BAND rows at a time, and `verify_srg` pairs
#: as many in one float32 tile (the exports take shorter bands).
BAND = 256


class Graph:
    """Adjacency stored once, as per-vertex packed bitset rows.

    The vertex count n is the number of rows.  Bit v of row u is
    (packed[u, v >> 3] >> (v & 7)) & 1.  Rows are row_bytes(n) long,
    zero-padded past bit n - 1, so `words` can view them as 64-bit words
    for popcount kernels; for n = 2048 nothing is padded.
    `bands` unpacks them a band at a time, for the exports.

    The constructor is the one place the structure is checked, for built
    and loaded rows alike: the shape and dtype, then no loop, then symmetry
    of the square of side 8 row_bytes(n) whose rows past n are zero, so a
    set bit in a row's padding is refused too.  The square is checked as
    8 x 8 bit blocks, each gathered from 8 row bytes into one uint64, and
    never unpacked: every block, transposed by three delta swaps (Warren,
    *Hacker's Delight*, sec. 7-3), must equal the block at the mirrored
    position.  The swaps run in place with one scratch array, so the check
    holds three arrays of n^2 / 8 bytes.  Any failure raises
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
        side = 8 * row_bytes(n)
        square = packed if side == n else np.pad(packed, ((0, side - n), (0, 0)))
        blocks, t = _blocks(square), np.empty((side // 8, side // 8), dtype=np.uint64)
        # bit 8 r + c of a block is its entry (r, c)
        for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0)):
            np.right_shift(blocks, shift, out=t)
            t ^= blocks
            t &= mask
            blocks ^= t
            t <<= shift
            blocks ^= t
        if not np.array_equal(blocks, _blocks(square).T):
            if np.unpackbits(packed, axis=1, bitorder="little")[:, n:].any():
                raise GraphConstructionError("adjacency matrix has a bit set in the row padding")
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


def _blocks(rows: np.ndarray) -> np.ndarray:
    """Rows 8 i to 8 i + 7 of byte j as the uint64 at [i, j], row r in byte r."""
    h, w = rows.shape
    gathered = np.ascontiguousarray(rows.reshape(h // 8, 8, w).transpose(0, 2, 1))
    return gathered.view(np.uint64).reshape(h // 8, w)


def build_graph(code: GolayCode, reps: np.ndarray) -> Graph:
    """Assemble the graph as a Cayley graph on the representative syndromes.

    First the connection set D, the syndromes of the weight-2 vectors, is
    checked against the case rule on every difference z of weight 0, 2, 4
    or 6: an edge iff w(z) = 2, or w(z) = 6 and z's weight-6 table entry is
    2.  Then the syndrome -> vertex index gives the neighbours of u as the
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
    syn, vertex = _syndrome_index(code, reps)
    n = len(syn)
    step = np.flatnonzero(connection).astype(np.uint16)
    packed = np.zeros((n, row_bytes(n)), dtype=np.uint8)
    band = np.empty((min(BAND, n), n), dtype=bool)
    for lo in range(0, n, BAND):
        # the neighbours of u are the vertices of syn(u) + d, for d in the connection set
        ends = vertex[syn[lo : lo + BAND, None] ^ step[None, :]]
        unmapped = np.flatnonzero(ends == n)
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
    z6 = vectors_of_weight(6)  # held, so a cold table reads these same vectors
    rule = [np.full(math.comb(VEC_BITS, w), w == 2) for w in (0, 2, 4)]
    rule.append(weight6_distance_table(code) == 2)
    z = np.concatenate([vectors_of_weight(w) for w in (0, 2, 4)] + [z6])
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
    above k, so one product with a block of BAND // 2 adjacency columns v
    gives c(u1, v) + base * c(u2, v) for both rows at once.  Every block, the
    band's own included, is compared in one `not_equal` with the expected
    counts packed the same way: lambda or mu by adjacency, and k at (u, u).
    Every entry and expected value is an integer <= k * (base + 1) < 2^24
    for k < 4096, so the counts are exact in any order of summation.  The
    band's own blocks also compare pairs (u, v) with v < u; A @ A is
    symmetric, so such a pair is bad only if (v, u) is, in the same band.
    Each tile is one gather from `g.packed` through a table of the bits of
    each byte: the band's BAND // 2 paired rows, and the block's BAND // 2
    adjacency columns as an n x BAND // 2 tile, from those columns' bytes in
    every packed row.  `Graph` refuses an asymmetric matrix, so column v is
    row v, and each product is a plain (NN) matrix multiply.  The block's
    tile holds the band's lower half while it is paired: two float32 tiles
    of 1 MiB each for n = 2048.

    Raises DomainError for k >= 4096, before any product, and
    VerificationError for any k outside 0 < k < n - 1, and with a witness
    vertex or pair on any non-constancy: the row-major first bad pair, a
    lambda mismatch before a mu mismatch in the same row, found by unpacking
    the failing band and redoing it row by row with exact popcounts.
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
    byte = np.arange(256, dtype=np.uint8)[:, None]
    table = np.unpackbits(byte, 1, bitorder="little").astype(np.float32)  # bit j of byte b at [b, j]
    height, width = min(BAND, n), min(BAND // 2, n)  # 128-column blocks keep each tile at 1 MiB
    # a band's (height + 1) // 2 paired rows fit in width rows, as do its lower half
    # and a block's n x 8 ceil(width / 8) columns
    band, block = (np.empty((width, 8 * row_bytes(n)), dtype=np.float32) for _ in range(2))
    product, expected = (np.empty((width, width), dtype=np.float32) for _ in range(2))

    def gather(tile: np.ndarray, bits: np.ndarray) -> np.ndarray:
        # the bits of packed bytes (r, m) as float32 (r, 8 m) at the head of tile;
        # "clip" writes straight into out, the default buffers
        r, m = bits.shape
        out = tile.reshape(-1)[: r * m * 8].reshape(r, m, 8)
        np.take(table, bits, axis=0, out=out, mode="clip")
        return out.reshape(r, m * 8)

    for lo in range(0, n, height):
        h = min(height, n - lo)
        half = (h + 1) // 2  # rows r and half + r share float32 row r; an odd middle row is alone
        a, pairs = band[:half], gather(band, g.packed[lo + half : lo + h])
        pairs *= base
        lower = gather(block, g.packed[lo : lo + half])
        np.add(pairs, lower[: h - half], out=pairs)
        a[h - half :] = lower[h - half :]
        for blo in range(lo, n, width):  # a multiple of 8
            w = min(width, n - blo)
            # columns blo to blo + w - 1: Graph() refuses an asymmetric matrix, so they are those rows
            b = gather(block, g.packed[:, blo // 8 : -(-(blo + w) // 8)])[:, :w]
            common, e = product[:half, :w], expected[:half, :w]
            np.matmul(a[:, :n], b, out=common)
            np.multiply(a[:, blo : blo + w], lam - mu, out=e)
            e += mu * (1 + base)
            e[h - half :] -= mu * base  # an odd band's middle row is alone
            if blo < lo + h:  # the band's own vertices: entry (u, u) is the degree k, not mu
                for first, count, scale in ((0, half, 1), (half, h - half, base)):
                    u = np.arange(max(blo, lo + first), min(blo + w, lo + first + count))
                    e[u - lo - first, u - blo] += (k - mu) * scale
            if (common != e).any():
                raise _first_bad_pair(g, lo, lo + h, lam, mu)
    return SrgParams(n, k, lam, mu)


def _first_bad_pair(g: Graph, lo: int, hi: int, lam: int, mu: int) -> VerificationError:
    """The row-major first bad pair among rows lo to hi - 1, which hold one,
    from exact popcounts: a lambda mismatch before a mu mismatch in a row."""
    rows = g.row_bits(slice(lo, hi))
    for u in range(lo, hi):
        common = np.bitwise_count(g.words[u] & g.words[u + 1 :]).sum(axis=1)
        adjacent = rows[u - lo, u + 1 :]
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

    `v` and `k` are integers (not bools); `s`, the least eigenvalue, is an
    integer of any kind, a finite float or a Fraction, else a DomainError.
    With s = p/q exactly (q > 0), the bound is v(-p) / (kq - p), floored.
    """
    v, k = integer(v, "vertex count"), integer(k, "degree")
    if k <= 0:
        raise DomainError(f"degree must be positive, got {k}")
    try:
        p, q = (operator.index(s), 1) if hasattr(s, "__index__") else s.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        raise DomainError(f"smallest eigenvalue must be a finite number, got {s!r}") from None
    if p >= 0:
        raise DomainError(f"smallest eigenvalue must be negative, got {s}")
    return v * -p // (k * q - p)


def srg_eigenvalues(params: SrgParams) -> tuple:
    """The two non-principal eigenvalues, roots of x^2 - (lam-mu)x - (k-mu).

    The four parameters are integers (not bools), else a DomainError.
    Returns exact Python ints when the discriminant is a perfect square,
    floats otherwise; larger root first.
    """
    integer(params.v, "v")
    k, lam, mu = integer(params.k, "k"), integer(params.lam, "lambda"), integer(params.mu, "mu")
    b = lam - mu
    disc = b * b + 4 * (k - mu)
    if disc < 0:
        raise DomainError(f"negative discriminant {disc}: not an srg parameter set")
    root = math.isqrt(disc)
    if root * root == disc and (b + root) % 2 == 0:
        return ((b + root) // 2, (b - root) // 2)
    froot = math.sqrt(disc)
    return ((b + froot) / 2, (b - froot) / 2)


def check_rep_uniqueness(code: GolayCode, reps: np.ndarray) -> int:
    """Exhaustively confirm no two distinct representatives share a coset.

    x + y lies in the code exactly when syn(x) = syn(y), so a one-to-one
    syndrome -> vertex index decides every pair.  Returns the number of
    pairs, or raises InternalConsistencyError naming two that share a coset.
    """
    _syndrome_index(code, reps)
    return math.comb(len(reps), 2)


def _syndrome_index(code: GolayCode, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representatives' syndromes, and the syndrome -> vertex index: the
    least vertex with each syndrome, or n where none has it.  A vertex that
    is not its own syndrome's entry shares a coset with that entry; the least
    such vertex is named, with the entry."""
    syn = code.syndromes(reps)
    n = len(syn)
    ranks = np.arange(n, dtype=np.min_scalar_type(-n))  # int16 for 2048 vertices
    vertex = np.full(SYNDROME_LIMIT, n, dtype=ranks.dtype)
    np.minimum.at(vertex, syn, ranks)
    clash = np.flatnonzero(vertex[syn] != ranks)
    if clash.size:
        v = int(clash[0])
        first = int(vertex[syn[v]])
        raise InternalConsistencyError(f"representatives {first} and {v} lie in the same coset")
    return syn, vertex
