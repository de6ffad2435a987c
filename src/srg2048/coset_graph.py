"""Coset representatives, the adjacency decision, and graph verification.

Vertices are the 2048 even-weight cosets of the Golay code, labelled by
canonical representatives: the zero vector, the 276 weight-2 vectors, and
the 1771 weight-4 vectors with the low bit set.  Distinct representatives
never share a coset (their sum has weight at most 6, below the minimum
codeword weight), so the labelling is a bijection.

Two cosets join when they have representations differing by a weight-2
vector.  For representatives x, y this reduces to a case analysis on
z = x + y:

    w(z) = 0 -> same vertex, no edge;
    w(z) = 2 -> edge (z itself is the weight-2 difference);
    w(z) = 4 -> no edge (no codeword can bring the difference to weight 2);
    w(z) = 6 -> edge iff some weight-8 codeword c has w(z + c) = 2.

In the last case a scan over the 759 weight-8 words may stop at the first
value <= 4: a word at distance 4 from z would share 5 coordinates with any
word at distance 2, forcing the two words equal, so distances 2 and 4
exclude each other.  Any scan result outside {2, 4} is treated as a hard
error rather than assumed impossible; `build_graph` evaluates the scan for
every weight-6 difference, so a full build doubles as an exhaustive check
that the error branch is unreachable.

Vertex numbering is the ascending order of representative encodings,
0-based internally and 1-based in text exports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    GraphConstructionError,
    InternalConsistencyError,
    InvalidDistanceError,
    VerificationError,
)
from .gf2 import VEC_LIMIT, Vec24, check_vec
from .golay import GolayCode

N_VERTICES = 2048
DEGREE = 276
INVALID_VERTEX = np.uint16(0xFFFF)

#: The 276 weight-2 vectors, ascending; the connection set of the graph.
WEIGHT2_VECTORS: np.ndarray = np.sort(
    np.array(
        [(1 << a) | (1 << b) for a, b in itertools.combinations(range(24), 2)],
        dtype=np.uint32,
    )
)
_WEIGHT2_LIST: list[int] = WEIGHT2_VECTORS.tolist()

_ALL_WEIGHT6: np.ndarray | None = None


def _all_weight6() -> np.ndarray:
    """All C(24,6) = 134596 weight-6 encodings (module-level cache)."""
    global _ALL_WEIGHT6
    if _ALL_WEIGHT6 is None:
        values = np.zeros(134596, dtype=np.uint32)
        for i, bits in enumerate(itertools.combinations(range(24), 6)):
            v = 0
            for b in bits:
                v |= 1 << b
            values[i] = v
        _ALL_WEIGHT6 = values
    return _ALL_WEIGHT6


def is_representative(x: Vec24) -> bool:
    """Structural test for membership in the canonical representative set."""
    if not 0 <= x < VEC_LIMIT:
        return False
    w = x.bit_count()
    return w == 0 or w == 2 or (w == 4 and bool(x & 1))


class CosetReps:
    """The 2048 canonical representatives in ascending encoding order.

    The vertex index of a representative is its rank in this order.
    """

    def __init__(self, encodings: np.ndarray):
        self.encodings = encodings
        self._vertex_table: tuple[GolayCode, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.encodings)

    def encoding_of(self, vertex: int) -> Vec24:
        return int(self.encodings[vertex])

    def try_index(self, x: Vec24) -> int | None:
        """Vertex index of a representative encoding, or None."""
        pos = int(np.searchsorted(self.encodings, x))
        if pos < len(self.encodings) and int(self.encodings[pos]) == x:
            return pos
        return None

    def index_of(self, x: Vec24) -> int:
        pos = self.try_index(x)
        if pos is None:
            raise DomainError(f"not a coset representative: {x:024b}")
        return pos

    def class_counts(self) -> dict[int, int]:
        """Census of representatives by weight (0, 2 and 4 for a valid set)."""
        values, counts = np.unique(np.bitwise_count(self.encodings), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def build_reps() -> CosetReps:
    """Enumerate the canonical representative set."""
    values = [0]
    values.extend(_WEIGHT2_LIST)
    for bits in itertools.combinations(range(1, 24), 3):
        v = 1
        for b in bits:
            v |= 1 << b
        values.append(v)
    return CosetReps(np.sort(np.array(values, dtype=np.uint32)))


def vertex_index_table(code: GolayCode, reps: CosetReps) -> np.ndarray:
    """Full lookup table: encoding -> vertex index (0xFFFF off the even space).

    The 2048 x 4096 translates of the representatives tile the even-weight
    half of GF(2)^24 exactly once; the build verifies that tiling, which is
    an independent confirmation of representative uniqueness.
    """
    cached = reps._vertex_table
    if cached is not None and cached[0] is code:
        return cached[1]
    table = np.full(VEC_LIMIT, INVALID_VERTEX, dtype=np.uint16)
    translates = reps.encodings[:, None] ^ code.codewords[None, :]
    table[translates.ravel()] = np.repeat(
        np.arange(len(reps), dtype=np.uint16), len(code.codewords)
    )
    filled = int(np.count_nonzero(table != INVALID_VERTEX))
    if filled != 1 << 23:
        raise InternalConsistencyError(
            f"coset table covers {filled} points, expected {1 << 23}: "
            "representatives do not tile the even-weight space"
        )
    reps._vertex_table = (code, table)
    return table


def coset_vertex(code: GolayCode, reps: CosetReps, x: Vec24) -> int:
    """Vertex index of the coset containing x (x must have even weight)."""
    check_vec(x)
    if x.bit_count() & 1:
        raise DomainError(f"vector has odd weight, no coset vertex: {x:024b}")
    idx = int(vertex_index_table(code, reps)[x])
    if idx == int(INVALID_VERTEX):
        raise InternalConsistencyError(f"even-weight vector unmapped: {x:024b}")
    return idx


def rep_of(code: GolayCode, reps: CosetReps, x: Vec24) -> Vec24:
    """The unique representative of the coset containing x."""
    return int(reps.encodings[coset_vertex(code, reps, x)])


def rep_of_scan(code: GolayCode, reps: CosetReps, x: Vec24) -> Vec24:
    """Reference implementation of rep_of: linear scan with membership tests."""
    check_vec(x)
    if x.bit_count() & 1:
        raise DomainError(f"vector has odd weight, no coset vertex: {x:024b}")
    for r in reps.encodings.tolist():
        if code.contains(x ^ r):
            return r
    raise InternalConsistencyError(f"no representative found for {x:024b}")


def weight6_distance_table(code: GolayCode) -> np.ndarray:
    """Minimum distance from each weight-6 vector to the weight-8 codewords.

    Returns a byte table over all of [0, 2^24) holding the minimum of
    w(z + c) over the 759 weight-8 words c, for every weight-6 z (other
    entries are 0).  Raises InvalidDistanceError the moment any minimum
    falls outside {2, 4}.  Cached on the code instance.
    """
    if code._weight6_table is not None:
        return code._weight6_table
    table = np.zeros(VEC_LIMIT, dtype=np.uint8)
    z6 = _all_weight6()
    w8 = code.weight8
    for lo in range(0, len(z6), 16384):
        chunk = z6[lo : lo + 16384]
        dist = np.bitwise_count(chunk[:, None] ^ w8[None, :]).min(axis=1)
        bad = np.flatnonzero((dist != 2) & (dist != 4))
        if bad.size:
            raise InvalidDistanceError(int(chunk[bad[0]]), int(dist[bad[0]]))
        table[chunk] = dist
    code._weight6_table = table
    return table


def weight6_distance_census(code: GolayCode) -> dict[int, int]:
    """How many weight-6 vectors sit at each distance from the weight-8 words."""
    table = weight6_distance_table(code)
    values, counts = np.unique(table[_all_weight6()], return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def min_coset_distance(code: GolayCode, z: Vec24) -> int:
    """Scan the weight-8 codewords for the smallest w(z + c), z of weight 6.

    Stops at the first value <= 4 (distances 2 and 4 exclude each other, so
    such a value is already the minimum).  A result outside {2, 4} raises
    InvalidDistanceError.
    """
    check_vec(z)
    if z.bit_count() != 6:
        raise DomainError(f"weight-8 scan requires a weight-6 vector, got weight {z.bit_count()}")
    best = 24
    for c in code._weight8_list:
        d = (z ^ c).bit_count()
        if d < best:
            best = d
            if best <= 4:
                break
    if best not in (2, 4):
        raise InvalidDistanceError(z, best)
    return best


def min_coset_distance_bulk(code: GolayCode, zs: np.ndarray) -> np.ndarray:
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


def adjacent(code: GolayCode, x: Vec24, y: Vec24) -> bool:
    """Case analysis on the weight of the representative difference."""
    if not is_representative(x):
        raise DomainError(f"not a coset representative: {x!r}")
    if not is_representative(y):
        raise DomainError(f"not a coset representative: {y!r}")
    z = x ^ y
    w = z.bit_count()
    if w == 0:
        return False
    if w == 2:
        return True
    if w == 4:
        return False
    return min_coset_distance(code, z) == 2


def adjacent_by_translates(code: GolayCode, x: Vec24, y: Vec24) -> bool:
    """Definition-level oracle: the cosets join iff (x + y) + e lands in the
    code for some weight-2 vector e.  Independent of the case analysis."""
    z = x ^ y
    return any(code.contains(z ^ e) for e in _WEIGHT2_LIST)


def adjacent_many(code: GolayCode, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized case-analysis adjacency for arrays of representatives."""
    z = np.asarray(xs, dtype=np.uint32) ^ np.asarray(ys, dtype=np.uint32)
    w = np.bitwise_count(z)
    if not np.all((w == 0) | (w == 2) | (w == 4) | (w == 6)):
        raise DomainError("inputs are not coset representatives")
    out = w == 2
    six = w == 6
    if six.any():
        out[six] = weight6_distance_table(code)[z[six]] == 2
    return out


def adjacent_many_oracle(code: GolayCode, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized definition-level oracle (scan of all 276 weight-2 translates)."""
    z = np.asarray(xs, dtype=np.uint32) ^ np.asarray(ys, dtype=np.uint32)
    out = np.zeros(len(z), dtype=bool)
    for e in _WEIGHT2_LIST:
        out |= code.contains_many(z ^ np.uint32(e))
    return out


def row_bytes(n: int) -> int:
    """Bytes per packed adjacency row: n bits rounded up to whole 64-bit words."""
    return 8 * -(-n // 64)


class Graph:
    """Adjacency as per-vertex packed bitset rows plus derived views.

    Bit v of row u is (packed[u, v >> 3] >> (v & 7)) & 1.  Rows are
    row_bytes(n) long, zero-padded past bit n - 1, so `words` can view them
    as 64-bit words for popcount kernels; for n = 2048 nothing is padded.
    Rows double as arbitrary-precision integers (row_int) for set-algebra
    callers.
    """

    def __init__(self, packed: np.ndarray, n: int, vertex_reps: CosetReps | None = None):
        if packed.dtype != np.uint8 or packed.shape != (n, row_bytes(n)):
            raise GraphConstructionError(
                f"packed rows must be uint8 of shape {(n, row_bytes(n))}, "
                f"got {packed.dtype} {packed.shape}"
            )
        self.n = n
        self.packed = packed
        self.words = packed.view(np.uint64)
        self.vertex_reps = vertex_reps
        self._row_ints: list[int] | None = None
        self._bool: np.ndarray | None = None
        self._neighbors: list[np.ndarray] | None = None

    @classmethod
    def from_bool_matrix(cls, adj: np.ndarray, vertex_reps: CosetReps | None = None) -> "Graph":
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise GraphConstructionError(f"adjacency matrix not square: {adj.shape}")
        if adj.dtype != bool:
            adj = adj.astype(bool)
        if np.any(np.diagonal(adj)):
            raise GraphConstructionError("adjacency matrix has a loop")
        if not np.array_equal(adj, adj.T):
            raise GraphConstructionError("adjacency matrix not symmetric")
        packed = np.zeros((n, row_bytes(n)), dtype=np.uint8)
        packed[:, : -(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
        g = cls(packed, n, vertex_reps)
        g._bool = adj
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise GraphConstructionError(f"loop at vertex {u}")
            adj[u, v] = adj[v, u] = True
        return cls.from_bool_matrix(adj)

    def adjacency_bool(self) -> np.ndarray:
        if self._bool is None:
            self._bool = np.unpackbits(self.packed, axis=1, bitorder="little")[:, : self.n].astype(bool)
        return self._bool

    def row_int(self, u: int) -> int:
        if self._row_ints is None:
            self._row_ints = [
                int.from_bytes(self.packed[v].tobytes(), "little") for v in range(self.n)
            ]
        return self._row_ints[u]

    def degree(self, u: int) -> int:
        return int(np.bitwise_count(self.words[u]).sum())

    def degrees(self) -> np.ndarray:
        """All row degrees as an int32 array."""
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.int32)

    def neighbors(self, u: int) -> np.ndarray:
        if self._neighbors is None:
            adj = self.adjacency_bool()
            self._neighbors = [np.flatnonzero(adj[v]).astype(np.int32) for v in range(self.n)]
        return self._neighbors[u]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.packed[u, v >> 3] >> (v & 7)) & 1)

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.packed).sum()) // 2

    def edges(self) -> np.ndarray:
        """All edges as an array of (u, v) with u < v, lexicographic."""
        adj = self.adjacency_bool()
        uu, vv = np.nonzero(np.triu(adj, k=1))
        return np.column_stack([uu, vv]).astype(np.int32)


def build_graph(code: GolayCode, reps: CosetReps) -> Graph:
    """Decide all vertex pairs by the case analysis and assemble the graph.

    The weight-6 branch is evaluated through the full distance table, so
    every weight-6 difference passes through the invalid-distance guard.
    Raises GraphConstructionError if any vertex degree differs from 276.
    """
    table6 = weight6_distance_table(code)
    enc = reps.encodings
    z = enc[:, None] ^ enc[None, :]
    w = np.bitwise_count(z)
    adj = (w == 2) | ((w == 6) & (table6[z] == 2))
    degrees = adj.sum(axis=1)
    bad = np.flatnonzero(degrees != DEGREE)
    if bad.size:
        v = int(bad[0])
        raise GraphConstructionError(
            f"vertex {v} has degree {int(degrees[v])}, expected {DEGREE}"
        )
    g = Graph.from_bool_matrix(adj, vertex_reps=reps)
    return g


@dataclass(frozen=True)
class SrgParams:
    """Parameter set (v, k, lambda, mu) of a strongly regular graph."""

    v: int
    k: int
    lam: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def feasibility_identity(self) -> tuple[int, int]:
        """Both sides of k(k - lambda - 1) = (v - k - 1) mu."""
        return (
            self.k * (self.k - self.lam - 1),
            (self.v - self.k - 1) * self.mu,
        )

    def is_feasible(self) -> bool:
        lhs, rhs = self.feasibility_identity()
        return lhs == rhs


TARGET_PARAMS = SrgParams(N_VERTICES, DEGREE, 44, 36)


def verify_srg(g: Graph) -> SrgParams:
    """Exhaustive strongly-regular check over all vertex pairs.

    Common-neighbor counts come from popcounts of ANDed bitset rows, taken
    as 64-bit words, a route independent of how the graph was constructed.
    Raises VerificationError with a witness vertex or pair on any
    non-constancy.
    """
    n = g.n
    words = g.words
    degrees = g.degrees()
    k = int(degrees[0])
    bad = np.flatnonzero(degrees != k)
    if bad.size:
        v = int(bad[0])
        raise VerificationError(
            f"degree not constant: vertex {v} has {int(degrees[v])}, vertex 0 has {k}",
            witness=(v,),
        )
    adj = g.adjacency_bool()
    lam: int | None = None
    mu: int | None = None
    for u in range(n - 1):
        common = np.bitwise_count(words[u] & words[u + 1 :]).sum(axis=1, dtype=np.int32)
        arow = adj[u, u + 1 :]
        for flag, name, current in ((arow, "lambda", lam), (~arow, "mu", mu)):
            vals = common[flag]
            if vals.size == 0:
                continue
            if current is None:
                current = int(vals[0])
                if name == "lambda":
                    lam = current
                else:
                    mu = current
            off = np.flatnonzero(vals != current)
            if off.size:
                v = u + 1 + int(np.flatnonzero(flag)[off[0]])
                raise VerificationError(
                    f"{name} not constant: pair ({u}, {v}) has {int(common[v - u - 1])} "
                    f"common neighbours, expected {current}",
                    witness=(u, v),
                )
    if lam is None or mu is None:
        raise VerificationError(
            "degenerate graph: needs both adjacent and non-adjacent pairs"
        )
    return SrgParams(n, k, lam, mu)


def delsarte_bound(v: int, k: int, s) -> int:
    """Ratio bound on coclique size: floor(v / (1 + k / (-s))).

    `s` is the smallest adjacency eigenvalue; exact rational arithmetic
    throughout (floats are converted exactly).
    """
    if k <= 0:
        raise DomainError(f"degree must be positive, got {k}")
    s = Fraction(s)
    if s >= 0:
        raise DomainError(f"smallest eigenvalue must be negative, got {s}")
    return math.floor(Fraction(v) / (1 + Fraction(k) / (-s)))


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


def translation_map(code: GolayCode, reps: CosetReps, t: Vec24) -> np.ndarray:
    """The permutation u -> vertex of (rep(u) + t), an automorphism for even t."""
    check_vec(t)
    if t.bit_count() & 1:
        raise DomainError(f"translation must have even weight: {t:024b}")
    return vertex_index_table(code, reps)[reps.encodings ^ np.uint32(t)].astype(np.int64)


def check_rep_uniqueness(code: GolayCode, reps: CosetReps) -> int:
    """Exhaustively confirm no two distinct representatives share a coset.

    Returns the number of pairs checked; raises InternalConsistencyError
    with a witness pair if any off-diagonal difference lands in the code.
    """
    enc = reps.encodings
    z = enc[:, None] ^ enc[None, :]
    in_code = code.contains_many(z.ravel()).reshape(z.shape)
    np.fill_diagonal(in_code, False)
    if in_code.any():
        u, v = (int(i) for i in np.argwhere(in_code)[0])
        raise InternalConsistencyError(
            f"representatives {u} and {v} lie in the same coset"
        )
    n = len(enc)
    return n * (n - 1) // 2
