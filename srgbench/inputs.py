"""Seeded benchmark inputs and the benchmark's own correctness oracle.

Nothing here imports srg2048: the oracle rebuilds the graph by a route
the program does not use, so its checks stay independent of the code
under test.

The extended Golay code is self-dual, so its 12 generator rows are also
parity checks: the syndrome of a 24-bit vector x is the 12-bit vector of
parities <g_i, x>.  Two even-weight cosets are adjacent exactly when their
syndromes differ by the syndrome of a weight-2 vector.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

N = 2048
DEGREE = 276
EDGES = N * DEGREE // 2
PAIRS = N * (N - 1) // 2
ENTRY_BYTES = 3

# The program's default systematic [I | B] matrix, copied so that the
# derived inputs stay fixed when the program's default changes.
DEFAULT_ROWS = (
    "100000000000110111000101",
    "010000000000101110001011",
    "001000000000011100010111",
    "000100000000111000101101",
    "000010000000110001011011",
    "000001000000100010110111",
    "000000100000000101101111",
    "000000010000001011011101",
    "000000001000010110111001",
    "000000000100101101110001",
    "000000000010011011100011",
    "000000000001111111111110",
)
GOLAY_CENSUS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def default_generators() -> list[int]:
    return [int(row, 2) for row in DEFAULT_ROWS]


def representatives() -> np.ndarray:
    """The 2048 canonical coset representatives, ascending (vertex order)."""
    values = [0]
    values += [(1 << a) | (1 << b) for a, b in itertools.combinations(range(24), 2)]
    values += [1 | (1 << a) | (1 << b) | (1 << c) for a, b, c in itertools.combinations(range(1, 24), 3)]
    return np.sort(np.array(values, dtype=np.uint32))


def syndromes(generators: list[int], xs: np.ndarray) -> np.ndarray:
    out = np.zeros(len(xs), dtype=np.int64)
    for i, g in enumerate(generators):
        out |= (np.bitwise_count(xs & np.uint32(g)).astype(np.int64) & 1) << i
    return out


def code_census(generators: list[int]) -> dict[int, int]:
    span = np.zeros(1, dtype=np.uint32)
    for g in generators:
        span = np.concatenate([span, span ^ np.uint32(g)])
    values, counts = np.unique(np.bitwise_count(np.unique(span)), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


class Oracle:
    """The coset graph built from syndromes, with packed-row set checks.

    Bit v of packed row u is (packed[u, v >> 3] >> (v & 7)) & 1.
    """

    def __init__(self, generators: list[int] | None = None):
        self.generators = generators or default_generators()
        self.reps = representatives()
        self.syn = syndromes(self.generators, self.reps)
        if len(np.unique(self.syn)) != N:
            raise ValueError("representatives do not lie in distinct cosets")
        weight2 = np.array([(1 << a) | (1 << b) for a, b in itertools.combinations(range(24), 2)], dtype=np.uint32)
        connection = np.zeros(1 << 12, dtype=bool)
        connection[syndromes(self.generators, weight2)] = True
        adj = connection[self.syn[:, None] ^ self.syn[None, :]]
        if not (adj.sum(axis=1) == DEGREE).all():
            raise ValueError("syndrome graph is not 276-regular")
        self.adj = adj
        self.packed = np.packbits(adj, axis=1, bitorder="little")
        self.vertex_of_syndrome = np.full(1 << 12, -1, dtype=np.int64)
        self.vertex_of_syndrome[self.syn] = np.arange(N)

    def mask(self, members) -> np.ndarray:
        flags = np.zeros(N, dtype=bool)
        flags[list(members)] = True
        return np.packbits(flags, bitorder="little")

    def is_maximal_coclique(self, members) -> bool:
        members = list(members)
        mask = self.mask(members)
        rows = self.packed[members]
        if (rows & mask).any():
            return False
        cover = np.bitwise_or.reduce(rows, axis=0) | mask
        return bool((cover == 0xFF).all())

    def outside_counts(self, members) -> np.ndarray:
        """|N(w) & S| for every vertex w (members included)."""
        return np.bitwise_count(self.packed & self.mask(members)).sum(axis=1)

    def profile(self, members) -> dict[int, int]:
        counts = np.delete(self.outside_counts(members), list(members))
        values, freq = np.unique(counts, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, freq)}

    def pair_invariant(self, members) -> int:
        members = list(members)
        counts = self.outside_counts(members)
        w8 = counts == 8
        w8[members] = False
        rows = self.packed[members] & np.packbits(w8, bitorder="little")
        meets = (rows[:, None, :] & rows[None, :, :]).any(axis=2)
        return int((~meets[np.triu_indices(len(members), k=1)]).sum())

    def translate(self, members, by_vertex: int) -> tuple[int, ...]:
        """Image of a vertex set under the translation by rep(by_vertex)."""
        images = self.vertex_of_syndrome[self.syn[list(members)] ^ self.syn[by_vertex]]
        return tuple(sorted(int(v) for v in images))

    def translation_class(self, members) -> tuple[int, ...]:
        """Canonical key of a set's orbit under the 2048 translations."""
        syn = self.syn[list(members)]
        return min(tuple(sorted((syn ^ a).tolist())) for a in syn.tolist())


def encode_dat(oracle: Oracle, sets) -> bytes:
    """The .dat container: per set a size byte, then ascending 3-byte LE encodings."""
    out = bytearray()
    for members in sets:
        out.append(len(members))
        for enc in sorted(int(oracle.reps[v]) for v in members):
            out += enc.to_bytes(ENTRY_BYTES, "little")
    return bytes(out)


def decode_dat(oracle: Oracle, data: bytes) -> list[tuple[int, ...]]:
    sets, pos = [], 0
    while pos < len(data):
        size = data[pos]
        raw = np.frombuffer(data[pos + 1 : pos + 1 + size * ENTRY_BYTES], dtype=np.uint8)
        if len(raw) != size * ENTRY_BYTES:
            raise ValueError(f"truncated record at offset {pos}")
        enc = raw.reshape(size, ENTRY_BYTES).astype(np.uint32) @ np.array([1, 1 << 8, 1 << 16], dtype=np.uint32)
        idx = np.searchsorted(oracle.reps, enc)
        if (idx >= N).any() or (oracle.reps[np.minimum(idx, N - 1)] != enc).any():
            raise ValueError(f"record at offset {pos} holds a non-representative")
        sets.append(tuple(sorted(int(i) for i in idx)))
        pos += 1 + size * ENTRY_BYTES
    return sets


def verify_generators(seed: int) -> list[int]:
    """A non-systematic generator matrix of an equivalent Golay code.

    A seeded coordinate permutation followed by seeded row additions of
    the default matrix: the census is unchanged, but the leading 12
    columns are no longer the identity, which is the case a syndrome fast
    path written for [I | B] could get wrong.
    """
    rng = random.Random(f"verify-{seed}")
    perm = list(range(24))
    rng.shuffle(perm)
    rows = [sum(1 << perm[b] for b in range(24) if (g >> b) & 1) for g in default_generators()]
    identity = [1 << (23 - i) for i in range(12)]
    while True:
        for _ in range(48):
            i, j = rng.sample(range(12), 2)
            rows[i] ^= rows[j]
        if [r & ~0xFFF for r in rows] != identity:
            break
    if code_census(rows) != GOLAY_CENSUS:
        raise ValueError("derived generator matrix lost the Golay census")
    return rows


def format_generators(rows: list[int]) -> str:
    return "".join(f"{r:024b}\n" for r in rows)


def check_container(oracle: Oracle, pool: list[tuple[int, ...]], seed: int):
    """Seeded container of maximal cocliques of sizes 20..72 from the pool.

    Per size: every distinct translation class the pool holds (at most
    three), each moved by a seeded translation, plus one more translated
    copy of one of them.  The size profile is the same for every seed, so
    the work per set check does not drift with the seed, while about a
    quarter of the sets repeat a class -- the share a cache keyed on set
    classes could exploit.  Returns (sets, share of repeated classes).
    """
    rng = random.Random(f"check-{seed}")
    by_size: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for members in pool:
        by_size.setdefault(len(members), {}).setdefault(oracle.translation_class(members), members)
    sets = []
    for size in sorted(by_size):
        classes = list(by_size[size].values())[:3]
        chosen = classes + [rng.choice(classes)]
        sets += [oracle.translate(m, rng.randrange(1, N)) for m in chosen]
    rng.shuffle(sets)
    distinct = len({oracle.translation_class(m) for m in sets})
    return sets, 1 - distinct / len(sets)
