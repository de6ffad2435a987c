"""Coclique checking, outside-neighbour profiles, and maximal-coclique search.

A coclique (independent set) is checked purely through bitset algebra on
the graph's adjacency rows.  For a coclique S the *external profile* is
the histogram, over vertices w outside S, of how many neighbours w has
inside S; S is maximal exactly when no outside vertex has count 0.  Two
bookkeeping identities hold for every coclique of a k-regular graph and
are asserted liberally in the tests:

    sum of counts            = n - |S|
    sum of d * count(d)      = k * |S|

The *pair invariant* separates structurally different cocliques: writing
W8 for the outside vertices with exactly 8 neighbours in S, it counts the
2-subsets {u, v} of S having no common neighbour inside W8.

The search is a seeded randomized-greedy engine with restarts and
perturbation ("plateau") moves: fresh runs grow a coclique by repeatedly
picking an eligible vertex (uniformly, or randomly among the highest- or
lowest-residual-degree candidates) until no eligible vertex remains, which
makes the result maximal by construction; perturbation runs remove up to
four members of a previously found set and re-extend.  Small target sizes
(20, 21) are only reachable through the deeper perturbations, which is why
the removal cap exceeds two.  Every emitted set is re-verified through the
checking path, deduplicated, and the first set of each size is kept.  For
a fixed seed the output is a pure function of the inputs.

Residual degrees (neighbours among the still-eligible vertices) are
recomputed at each degree-guided step as popcounts of the candidates'
adjacency rows ANDed with the packed eligibility mask, both taken as 64-bit
words.  While every vertex is eligible the residual degree is the row
degree, so that step reuses the degrees computed once per search.  Both
shortcuts give the same degrees, hence the same RNG draws and the same
output, as a plain recount.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coset_graph import Graph
from .errors import DomainError, InternalConsistencyError

#: Ratio bound on coclique size in the Golay coset graph; exceeding it
#: means the construction is broken, not that the search got lucky.
COCLIQUE_SIZE_CAP = 85

DEFAULT_SEED = 2048
DEFAULT_BUDGET = 120_000


@dataclass(frozen=True)
class VertexSet:
    """A strictly increasing tuple of vertex indices."""

    members: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for v in self.members:
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"vertex index must be a non-negative int: {v!r}")
            if v <= prev:
                raise DomainError(
                    f"members must be strictly increasing, got {v} after {prev}"
                )
            prev = v

    @classmethod
    def from_iterable(cls, it) -> "VertexSet":
        members = tuple(sorted(int(v) for v in it))
        for a, b in zip(members, members[1:]):
            if a == b:
                raise DomainError(f"duplicate vertex index: {a}")
        return cls(members)

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def bitmask(self) -> int:
        mask = 0
        for v in self.members:
            mask |= 1 << v
        return mask


@dataclass(frozen=True)
class ExternalProfile:
    """Histogram d -> number of outside vertices with d neighbours in the set."""

    counts: dict[int, int]

    def outside_total(self) -> int:
        return sum(self.counts.values())

    def weighted_total(self) -> int:
        return sum(d * c for d, c in self.counts.items())

    def format(self) -> str:
        return " ".join(f"{d}:{self.counts[d]}" for d in sorted(self.counts))


def _set_mask(g: Graph, s: VertexSet) -> int:
    if s.members and s.members[-1] >= g.n:
        raise DomainError(
            f"vertex index {s.members[-1]} out of range for a {g.n}-vertex graph"
        )
    return s.bitmask()


def is_coclique(g: Graph, s: VertexSet) -> bool:
    """True iff no two members are adjacent."""
    mask = _set_mask(g, s)
    return all(g.row_int(v) & mask == 0 for v in s.members)


def is_maximal(g: Graph, s: VertexSet) -> bool:
    """True iff every outside vertex has a neighbour in the coclique."""
    if not is_coclique(g, s):
        raise DomainError("maximality is only defined for cocliques")
    cover = _set_mask(g, s)
    for v in s.members:
        cover |= g.row_int(v)
    return cover == (1 << g.n) - 1


def external_profile(g: Graph, s: VertexSet) -> ExternalProfile:
    """Histogram of |N(w) & S| over all vertices w outside S."""
    mask = _set_mask(g, s)
    counts: Counter[int] = Counter()
    for w in range(g.n):
        if not (mask >> w) & 1:
            counts[(g.row_int(w) & mask).bit_count()] += 1
    return ExternalProfile(dict(counts))


def pair_invariant(g: Graph, s: VertexSet) -> int:
    """2-subsets of S with no common neighbour among the count-8 outsiders."""
    mask = _set_mask(g, s)
    w8_mask = 0
    for w in range(g.n):
        if not (mask >> w) & 1 and (g.row_int(w) & mask).bit_count() == 8:
            w8_mask |= 1 << w
    total = 0
    members = s.members
    for i, u in enumerate(members):
        row_u = g.row_int(u) & w8_mask
        for v in members[i + 1 :]:
            if row_u & g.row_int(v) == 0:
                total += 1
    return total


@dataclass
class SearchConfig:
    """Knobs of the randomized search; defaults are the documented baseline."""

    fresh_fraction: float = 0.45
    pool_per_size: int = 4
    max_remove: int = 4
    focus_window: int = 3
    stop_when_complete: bool = True


def _complete(
    adj: np.ndarray,
    words: np.ndarray,
    row_degrees: np.ndarray,
    eligible: np.ndarray,
    members: list[int],
    rng: random.Random,
    mode: str,
    depth: int = 1,
    q: float = 0.5,
) -> list[int]:
    """Extend `members` until no eligible vertex remains (hence maximal).

    mode "uniform": pick uniformly among eligible vertices.
    mode "max"/"min": pick randomly among the `depth` highest/lowest
    residual-degree candidates.
    mode "blend": per step, a max-pick with probability q, else uniform.

    `words` are the adjacency rows as 64-bit words and `row_degrees` their
    popcounts.  A residual degree is popcount(row & eligible) over the
    words; when every vertex is eligible it equals the row degree, which
    is used as is.
    """
    n = eligible.size
    # eligible becomes a view into a buffer padded with False to whole
    # words, so packing the buffer gives the mask in the rows' layout
    ebits = np.zeros(words.shape[1] * 64, dtype=bool)
    ebits[:n] = eligible
    eligible = ebits[:n]
    while True:
        cands = eligible.nonzero()[0]
        if cands.size == 0:
            break
        degree_pick = mode in ("max", "min") or (mode == "blend" and rng.random() < q)
        if not degree_pick:
            v = int(cands[rng.randrange(cands.size)])
        else:
            if cands.size == n:
                degs = row_degrees
            else:
                emask = np.packbits(ebits, bitorder="little").view(np.uint64)
                degs = np.bitwise_count(words[cands] & emask).sum(
                    axis=1, dtype=row_degrees.dtype
                )
            order = (-degs if mode != "min" else degs).argsort(kind="stable")
            take = min(cands.size, 1 + rng.randrange(max(depth, 1)))
            v = int(cands[order[rng.randrange(take)]])
        members.append(v)
        eligible &= ~adj[v]
        eligible[v] = False
    return sorted(members)


def _fresh_run(adj, words, row_degrees, rng) -> list[int]:
    roll = rng.random()
    if roll < 0.30:
        mode, depth, q = "uniform", 1, 0.0
    elif roll < 0.65:
        mode, depth, q = "max", rng.choice([2, 3, 4]), 0.0
    elif roll < 0.85:
        mode, depth, q = "blend", 1, 0.3 + 0.6 * rng.random()
    else:
        mode, depth, q = "min", rng.choice([1, 2]), 0.0
    eligible = np.ones(len(adj), dtype=bool)
    return _complete(adj, words, row_degrees, eligible, [], rng, mode, depth, q)


def _perturb_run(
    adj, words, row_degrees, rng, source: list[int], max_remove: int
) -> list[int]:
    j = min(rng.choice([1, 2, 2, 3, 3, 4]), max_remove, len(source) - 1)
    keep = list(source)
    for _ in range(j):
        keep.pop(rng.randrange(len(keep)))
    eligible = ~adj[keep].any(axis=0)
    eligible[keep] = False
    if rng.random() < 0.6:
        mode, depth = "max", rng.choice([1, 2])
    else:
        mode, depth = "uniform", 1
    return _complete(adj, words, row_degrees, eligible, keep, rng, mode, depth)


def search_maximal(
    g: Graph,
    size_targets,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    config: SearchConfig | None = None,
) -> list[VertexSet]:
    """Seeded search for maximal cocliques of the requested sizes.

    Returns the first-found set of each achieved target size, ordered by
    size.  Every returned set has been re-verified with is_coclique and
    is_maximal.  An exhausted budget with missing sizes is not an error;
    the result simply lacks those sizes.
    """
    cfg = config or SearchConfig()
    targets = {int(t) for t in size_targets}
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget}")
    if any(t < 0 or t > g.n for t in targets):
        raise DomainError("size targets out of range")
    hard_cap = COCLIQUE_SIZE_CAP if g.vertex_reps is not None else g.n
    rng = random.Random(seed)
    adj = g.adjacency_bool()
    words = g.words
    # degrees below 2^15 fit int16, for which the stable argsort is a radix sort
    row_degrees = g.degrees().astype(np.int16 if g.n < 1 << 15 else np.int32)

    found: dict[int, VertexSet] = {}
    pool: dict[int, list[list[int]]] = {}
    seen: set[tuple[int, ...]] = set()

    def near_missing() -> set[int]:
        """Sizes within focus_window of a target not found yet."""
        w = cfg.focus_window
        return {m + d for m in targets - found.keys() for d in range(-w, w + 1)}

    focus = near_missing()

    def pool_pick() -> list[int]:
        sizes = sorted(pool)
        near = [s for s in sizes if s in focus]
        if near and rng.random() < 0.8:
            sizes = near
        bucket = pool[sizes[rng.randrange(len(sizes))]]
        return bucket[rng.randrange(len(bucket))]

    for _attempt in range(budget):
        if cfg.stop_when_complete and targets <= found.keys():
            break
        if not pool or rng.random() < cfg.fresh_fraction:
            members = _fresh_run(adj, words, row_degrees, rng)
        else:
            members = _perturb_run(
                adj, words, row_degrees, rng, pool_pick(), cfg.max_remove
            )
        size = len(members)
        if size > hard_cap:
            raise InternalConsistencyError(
                f"search produced a coclique of size {size} above the bound "
                f"{hard_cap}; the graph construction must be wrong"
            )
        key = tuple(members)
        if key in seen:
            continue
        seen.add(key)
        candidate = VertexSet(key)
        if not is_coclique(g, candidate) or not is_maximal(g, candidate):
            raise InternalConsistencyError(
                "search emitted a set that fails the independent checker"
            )
        if size not in found:
            found[size] = candidate
            focus = near_missing()
        bucket = pool.setdefault(size, [])
        if len(bucket) < cfg.pool_per_size:
            bucket.append(members)
        else:
            bucket[rng.randrange(cfg.pool_per_size)] = members
    return [found[s] for s in sorted(found) if s in targets]
