"""Coclique checking, outside-neighbour profiles, and maximal-coclique search.

A coclique (independent set) is checked from the adjacency rows of its own
members only.  The neighbour count |N(w) & S| of every vertex w is a
column sum of the members' rows unpacked to bytes, which holds because the
adjacency is symmetric, and `check_set` takes a set's whole report from
that one unpack: S is a coclique when its members' counts are all 0.  For
a coclique S the *external profile* is the census dict d -> number of
vertices w outside S with exactly d neighbours inside S, one bincount of
all n counts less one of the members' own; S is maximal exactly when it
has no key 0.  `is_coclique` and `is_maximal`, the search's re-check
included, read their verdicts from that same pass.  Two bookkeeping
identities hold for every coclique of a k-regular graph and are asserted
liberally in the tests:

    sum of the values            = n - |S|
    sum of d * profile[d]        = k * |S|

The *pair invariant* separates structurally different cocliques: writing
W8 for the outside vertices with exactly 8 neighbours in S, it counts the
2-subsets {u, v} of S having no common neighbour inside W8.  W8 is read
from the counts once the members' own are cleared, and all pairs come
from one Gram matrix of the members' rows restricted to W8.

The search is a seeded randomized-greedy engine with restarts and
perturbation ("plateau") moves: fresh runs grow a coclique by repeatedly
picking an eligible vertex (uniformly, or randomly among the highest- or
lowest-residual-degree candidates) until no eligible vertex remains, which
makes the result maximal by construction; perturbation runs remove up to
four members of a previously found set and re-extend.  Small target sizes
(20, 21) are only reachable through the deeper perturbations, which is why
the removal cap exceeds two.  Every emitted set is re-verified through the
checking path, deduplicated, and the first set of each size is kept.  The
pool of found sets keeps its sizes in an ascending list, each inserted
when it first appears, so picking a perturbation's source sorts nothing
and no draw follows a hash order.  For a fixed seed the output is a pure
function of the inputs.

Every draw from range(n) is `_below(rng, n)`: getrandbits(k), for k the
bit length of n, repeated until the value is below n.  Those are the calls
randrange(n) and choice make on CPython 3.10 to 3.13, so the draws and the
Mersenne Twister's state after them are the ones the search made through
`random.py`, and the output no longer depends on that module's Python
code, which a later version may change; a test holds `_below` to randrange
and choice and pins one stream.  random() is the generator's own C method.

The search's steps never unpack the adjacency (its re-check unpacks only
a candidate's own rows): eligibility is one packed mask in the rows'
64-bit word layout.  Each search builds once the *closed* rows,
~(N(v) | {v}) in that layout (as large as the rows: 512 KiB for n = 2048), so
picking v is the one AND `emask &= closed[v]`, and a perturbation starts
from the AND of its kept members' closed rows: the vertices outside the
kept set with no neighbour in it.  Candidates are the mask's set bits,
unpacked once per step.  Residual degrees (neighbours among the
still-eligible vertices) are recomputed at each degree-guided step as popcounts of the
candidates' rows ANDed with the mask.  The rows are gathered into a scratch
buffer shaped like the rows; once their popcounts are taken the rows are
spent, the counts go as float32 into the front of that buffer, and one
mat-vec with a vector of ones sums each row's (of minus ones for a max
pick, so that the ascending order is the pick order either way).  A sum
is at most 64 times the words a row has, below 2^24 for any n whose rows
fit in memory, so float32 holds it exactly, and the integer degrees and
their stable order are those of an integer sum.  A run decides once
whether its steps are degree-guided (a blend run still draws per step)
and keeps its members ascending, inserting each pick in place, so the
list is a memo key and the result as it stands and no step sorts.

A degree-guided pick draws from at most the first four vertices of a
stable sort, so the early states of the max-, min- and blend-runs and of
perturbations recur across a search.  Each search keeps a memo from the
pick direction and the ascending member tuple to those first vertices of
the degree order.  It is exact: the eligibility mask is always the valid
vertices minus the members and their cover, so equal member sets give
equal degrees, an equal order and equal draws.  Only states with at least
MEMO_MIN_CANDIDATES candidates enter it, at most MEMO_CAP of them; once
full it still answers but stops growing.

Two kinds of step have an outcome fixed in advance, and the search skips
their work but still makes their random draws, the same calls in the
same order, so the RNG state and every output stay those of a plain
step-by-step run:

- When a degree-guided step finds every residual degree 0, the eligible
  set E is independent: each pick removes only itself, so all of E joins
  whatever the picks.  The step makes its own draws, then those of an
  m-candidate step for m = |E| - 1 down to 1, and adds E at once.
- A max or min run of depth 1 draws from range(1) for its pick count and
  again for its pick, so no draw changes its course: it is a function of
  its start members.  The memo also maps the direction and the ascending
  start members to such a run's result, under the same MEMO_CAP, and a
  repeat makes its 2 * (|result| - |start|) draws from range(1) and
  returns the result.  Blend and uniform runs, and deeper picks, depend
  on their draws and are never kept.  As for degree orders, only a start
  with at least MEMO_MIN_CANDIDATES candidates is kept: fresh runs start
  from every vertex and recur, while perturbation starts have a few dozen
  candidates and almost never do (1 repeat in 1,009 depth-1 perturbation
  runs at seeds 1-3, budget 2000, against 185 in 188 fresh ones).

What a search holds, for n = 2048: the closed rows and the gather
scratch, which also takes the float32 counts, 512 KiB each; the memo,
about 2.1 MiB once it holds MEMO_CAP entries; one packed key per unique
set it has seen, two bytes a member; and one int object per vertex, from
`_vertex_ints`, built once per n and shared by every members list,
result, memo entry and pooled set.  Only
the keys grow with the budget once the memo is full.  After the graph is
loaded, the peak RSS of a search over sizes 20..72 at seed 5 grows by
0.4 MiB at budget 2000, 3.5 MiB at 20,000 and 4.8 MiB at 60,000.
"""

from __future__ import annotations

import functools
import random
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .coset_graph import N_VERTICES, Graph
from .errors import DomainError, InternalConsistencyError, integer

#: Ratio bound on coclique size in the Golay coset graph; exceeding it
#: means the construction is broken, not that the search got lucky.
COCLIQUE_SIZE_CAP = 85

#: Least size of a maximal coclique S: each of the 2048 - |S| vertices outside
#: S has a neighbour in S, and S has 276 * |S| edges out, so
#: 2048 - |S| <= 276 * |S|, which gives |S| >= 8.
COCLIQUE_SIZE_FLOOR = 8

DEFAULT_SEED = 2048
DEFAULT_BUDGET = 120_000

# The search's fixed tuning: share of fresh runs, pooled sets kept per
# size, most members a perturbation removes, and how close to a missing
# target a pooled size must be for perturbation to prefer it.
FRESH_FRACTION = 0.45
POOL_PER_SIZE = 4
MAX_REMOVE = 4
FOCUS_WINDOW = 3
# Fresh "max" runs pick among the top 2, 3 or 4 by residual degree; no run
# picks deeper, so a memoised degree order keeps its first PICK_DEPTH.
FRESH_MAX_DEPTHS = (2, 3, 4)
PICK_DEPTH = max(FRESH_MAX_DEPTHS)
# Only states with this many candidates enter a search's memo of degree
# orders, and it holds at most MEMO_CAP of them and of depth-1 run results.
MEMO_MIN_CANDIDATES = 256
MEMO_CAP = 1 << 13


@dataclass(frozen=True)
class VertexSet:
    """A strictly increasing tuple of vertex indices, each a Python int (not a bool)."""

    members: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for v in self.members:
            if type(v) is not int or v < 0:  # a bool is no vertex
                raise DomainError(f"vertex index must be a non-negative int: {v!r}")
            if v <= prev:
                raise DomainError(
                    f"members must be strictly increasing, got {v} after {prev}"
                )
            prev = v

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _pack(n_words: int, vertices) -> np.ndarray:
    """The given vertices as a mask in the rows' layout of n_words 64-bit words."""
    bits = np.zeros(n_words * 64, dtype=bool)
    bits[vertices] = True
    return np.packbits(bits, bitorder="little").view(np.uint64)


def is_coclique(g: Graph, s: VertexSet) -> bool:
    """True iff no two members are adjacent, as `check_set` reads it."""
    return check_set(g, s, pair=False)[0]


def is_maximal(g: Graph, s: VertexSet) -> bool:
    """True iff every outside vertex has a neighbour in the coclique, as
    `check_set` reads it; a set that is no coclique raises DomainError."""
    independent, maximal, *_ = check_set(g, s, pair=False)
    if not independent:
        raise DomainError("maximality is only defined for cocliques")
    return maximal


def external_profile(g: Graph, s: VertexSet) -> dict[int, int]:
    """The census d -> number of vertices w outside S with |N(w) & S| = d."""
    return check_set(g, s, pair=False)[2]


def pair_invariant(g: Graph, s: VertexSet) -> int:
    """2-subsets of S with no common neighbour among the count-8 outsiders."""
    return check_set(g, s, pair=True)[3]


def check_set(g: Graph, s: VertexSet, pair: bool) -> tuple[bool, bool, dict[int, int], int | None]:
    """(coclique, maximal, external profile, pair invariant or None) of S,
    all from one unpack of the members' rows to one 0/1 byte per vertex.

    The adjacency is symmetric (`Graph` checks it), so |N(w) & S| is the
    number of members whose row has bit w: a column sum over the |S|
    member rows, never a pass over all n rows.  A count is at most |S|, so
    below 256 members the sum is taken in uint8, exact and several times
    faster than a widening sum.  S is a coclique when its members' own
    counts are all 0, and the profile is the tally of all n counts less
    the tally of the members' own.

    The pair invariant is taken only when `pair` is true.  W8 is read from
    the counts with the members' entries cleared.  With R the members'
    rows restricted to the W8 columns, entry (u, v) of R R^T counts the
    common W8-neighbours of u and v.  The product is taken in float32,
    exact because every entry is an integer at most n < 2^24.  Zero
    entries off the diagonal count each such pair twice.
    """
    if s.members and s.members[-1] >= g.n:
        raise DomainError(
            f"vertex index {s.members[-1]} out of range for a {g.n}-vertex graph"
        )
    members = np.array(s.members, dtype=np.intp)
    bits = np.unpackbits(g.packed[members], axis=1, count=g.n, bitorder="little")
    counts = bits.sum(axis=0, dtype=np.uint8 if members.size < 256 else np.int32)
    own = counts[members]
    tally = np.bincount(counts)
    tally -= np.bincount(own, minlength=tally.size)
    degrees = np.flatnonzero(tally)
    profile = dict(zip(degrees.tolist(), tally[degrees].tolist()))
    independent = not own.any()
    invariant = None
    if pair:
        counts[members] = 0
        r = bits.take(np.flatnonzero(counts == 8), axis=1).astype(np.float32)
        zero = (r @ r.T) == 0
        invariant = int(np.count_nonzero(zero) - np.count_nonzero(zero.diagonal())) // 2
    return independent, independent and 0 not in profile, profile, invariant


@dataclass
class SearchConfig:
    """Whether the search stops once every target size has been found."""

    stop_when_complete: bool = True


def _closed_rows(words: np.ndarray) -> np.ndarray:
    """The rows of ~(N(v) | {v}) in the rows' word layout: picking v leaves
    `emask & closed[v]` eligible, and a kept set leaves the AND of its rows."""
    closed = ~words
    v = np.arange(words.shape[0])
    closed.view(np.uint8)[v, v >> 3] &= (255 ^ (1 << (v & 7))).astype(np.uint8)
    return closed


@functools.cache
def _vertex_ints(n: int) -> tuple[int, ...]:
    """The vertices 0..n-1 as Python ints, one object each, kept per n: every
    vertex the search adds is taken from here, so its members lists, result
    tuples, memo entries and pool share one int per vertex."""
    return tuple(range(n))


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n), n >= 1: getrandbits(k) for k the bit
    length of n until the value is below n, the calls randrange(n) and
    choice make, so both the draw and the generator's state are theirs."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _pick_index(rng: random.Random, m: int, depth: int) -> int:
    """Position in the degree order of an m-candidate step's pick: one of
    the first 1..depth, the count drawn first."""
    return _below(rng, min(m, 1 + _below(rng, max(depth, 1))))


def _complete(
    words: np.ndarray,
    scratch: np.ndarray,
    memo: dict,
    emask: np.ndarray,
    members: list[int],
    rng: random.Random,
    mode: str,
    depth: int,
    q: float,
    closed: np.ndarray,
) -> tuple[int, ...]:
    """Extend `members`, an ascending list, until no eligible vertex remains
    (hence maximal); return the result, ascending.

    mode "uniform": pick uniformly among eligible vertices.
    mode "max"/"min": pick randomly among the `depth` highest/lowest
    residual-degree candidates.
    mode "blend": per step, a max-pick with probability q, else uniform.

    `emask` is the eligibility mask in the rows' word layout; it is
    updated in place.  `words` are the adjacency rows as 64-bit words and
    `closed` their `_closed_rows`.  A residual degree is popcount(row &
    emask) summed over the words.  The candidates' rows are gathered into
    `scratch`, a buffer shaped like `words` that lives for the whole
    search: a fresh array of up to n rows at every step costs a page fault
    per 4 KiB whenever the allocator hands the memory back to the system.
    Once their popcounts are taken the gathered rows are spent, and the
    counts go, as float32, into the front of the same buffer, where one
    mat-vec sums each row's.

    Every vertex it adds is the `_vertex_ints(n)` object of that index,
    inserted in order, so the members are a memo key and the result as
    they stand.  `memo` maps (min-pick, members) to a tuple of the first
    PICK_DEPTH vertices of the stable degree order, and ("run", min-pick,
    start members) to the result of a depth-1 max/min run (see the module
    notes); a `depth` beyond PICK_DEPTH bypasses it.  Both kinds hold only
    states with at least MEMO_MIN_CANDIDATES candidates.
    """
    low = mode == "min"
    guided, blend = low or mode == "max", mode == "blend"
    run = None
    if depth == 1 and guided and np.bitwise_count(emask).sum() >= MEMO_MIN_CANDIDATES:
        run = ("run", low, tuple(members))
        result = memo.get(run)
        if result is not None:
            # each skipped step drew from range(1) twice: the count, the pick
            for _ in range(2 * (len(result) - len(members))):
                _below(rng, 1)
            return result
    n, n_words = words.shape
    ints = _vertex_ints(n)
    # degrees below 2^15 fit int16, for which the stable argsort is a radix sort
    dtype = np.int16 if n < 1 << 15 else np.int32
    counts = scratch.view(np.float32).reshape(-1)
    # summing with weight -1 negates a max pick's degrees, so for either
    # direction the ascending stable order is the pick order
    weights = np.full(n_words, 1 if low else -1, dtype=np.float32)
    ebytes = emask.view(np.uint8)
    # a pick leaves eligibility for good, so n picks empty any mask
    for _ in range(n + 1):
        # nonzero is markedly faster on bool than on the unpacked uint8
        cands = np.unpackbits(ebytes, bitorder="little").view(bool).nonzero()[0]
        m = cands.size
        if m == 0:
            break
        if guided or (blend and rng.random() < q):
            key = None
            if depth <= PICK_DEPTH and m >= MEMO_MIN_CANDIDATES:
                key = (low, tuple(members))
            top = memo.get(key) if key else None
            if top is None:
                # "clip" writes straight into out; the default mode buffers
                rows = words.take(cands, axis=0, out=scratch[:m], mode="clip")
                rows &= emask
                row_counts = counts[: m * n_words].reshape(m, n_words)
                row_counts[...] = np.bitwise_count(rows)
                # a sum is at most 64 * n_words < 2^24, so float32 holds it exactly
                degs = (row_counts @ weights).astype(dtype)
                if not np.count_nonzero(degs):
                    # the candidates are independent, so all of them join
                    # whatever the order: make the draws of their m steps
                    _pick_index(rng, m, depth)
                    for k in range(m - 1, 0, -1):
                        if guided or (blend and rng.random() < q):
                            _pick_index(rng, k, depth)
                        else:
                            _below(rng, k)
                    members += map(ints.__getitem__, cands.tolist())
                    members.sort()
                    break
                top = cands[degs.argsort(kind="stable")]
                if key and len(memo) < MEMO_CAP:
                    memo[key] = top = tuple(map(ints.__getitem__, top[:PICK_DEPTH].tolist()))
            v = ints[top[_pick_index(rng, m, depth)]]
        else:
            v = ints[cands[_below(rng, m)]]
        insort(members, v)
        emask &= closed[v]
    else:
        raise InternalConsistencyError("a picked vertex stayed eligible")
    # a tuple, so the memo can hand the same result to every repeat
    result = tuple(members)
    if run is not None and len(memo) < MEMO_CAP:
        memo[run] = result
    return result


def _fresh_run(words, scratch, memo, closed, valid, rng) -> tuple[int, ...]:
    roll = rng.random()
    if roll < 0.30:
        mode, depth, q = "uniform", 1, 0.0
    elif roll < 0.65:
        mode, depth, q = "max", FRESH_MAX_DEPTHS[_below(rng, len(FRESH_MAX_DEPTHS))], 0.0
    elif roll < 0.85:
        mode, depth, q = "blend", 1, 0.3 + 0.6 * rng.random()
    else:
        mode, depth, q = "min", 1 + _below(rng, 2), 0.0
    return _complete(words, scratch, memo, valid.copy(), [], rng, mode, depth, q, closed)


def _perturb_run(
    words, scratch, memo, closed, valid, rng, source: tuple[int, ...]
) -> tuple[int, ...]:
    j = min((1, 2, 2, 3, 3, 4)[_below(rng, 6)], MAX_REMOVE, len(source) - 1)
    keep = list(source)
    for _ in range(j):
        keep.pop(_below(rng, len(keep)))
    emask = valid & np.bitwise_and.reduce(closed[keep], axis=0)
    if rng.random() < 0.6:
        mode, depth = "max", 1 + _below(rng, 2)
    else:
        mode, depth = "uniform", 1
    return _complete(words, scratch, memo, emask, keep, rng, mode, depth, 0.5, closed)


def search_maximal(
    g: Graph,
    size_targets,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    config: SearchConfig | None = None,
) -> list[VertexSet]:
    """Seeded search for maximal cocliques of the requested sizes.

    Returns the first-found set of each achieved target size, ordered by
    size.  Every returned set has been re-verified with is_maximal, which
    reads both the coclique and the maximality verdict from one `check_set`
    pass.  An exhausted budget with missing sizes is not an error; the
    result simply lacks those sizes.  On a
    2048-vertex graph a target outside [COCLIQUE_SIZE_FLOOR,
    COCLIQUE_SIZE_CAP], which no maximal coclique has, raises DomainError
    before any attempt, and a coclique above the ratio bound raises
    InternalConsistencyError; any other graph allows sizes 0 to n.
    The seed, budget and targets must be integers, not bools, the budget
    positive and the seed non-negative (DomainError).
    """
    cfg = config or SearchConfig()
    targets = {integer(t, "size target") for t in size_targets}
    budget, seed = integer(budget, "budget"), integer(seed, "seed")
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget}")
    if seed < 0:  # random.Random(seed) would seed from abs(seed)
        raise DomainError(f"seed must be non-negative, got {seed}")
    floor, hard_cap = (COCLIQUE_SIZE_FLOOR, COCLIQUE_SIZE_CAP) if g.n == N_VERTICES else (0, g.n)
    if any(t < floor or t > hard_cap for t in targets):
        raise DomainError(
            f"size targets out of range: a maximal coclique has {floor} to {hard_cap} vertices"
        )
    rng = random.Random(seed)
    words = g.words
    scratch = np.empty_like(words)
    closed = _closed_rows(words)
    memo: dict = {}
    valid = _pack(words.shape[1], np.arange(g.n))

    found: dict[int, VertexSet] = {}
    pool: dict[int, list[tuple[int, ...]]] = {}
    pooled: list[int] = []  # the pool's sizes, ascending
    # each set seen, as its members packed two bytes apiece while they fit
    seen: set[bytes] = set()
    key_dtype = np.uint16 if g.n <= 1 << 16 else np.uint32

    def near_missing() -> set[int]:
        """Sizes within FOCUS_WINDOW of a target not found yet."""
        w = FOCUS_WINDOW
        return {m + d for m in targets - found.keys() for d in range(-w, w + 1)}

    focus = near_missing()

    def pool_pick() -> tuple[int, ...]:
        sizes = pooled
        near = [s for s in sizes if s in focus]
        if near and rng.random() < 0.8:
            sizes = near
        bucket = pool[sizes[_below(rng, len(sizes))]]
        return bucket[_below(rng, len(bucket))]

    for _attempt in range(budget):
        if cfg.stop_when_complete and targets <= found.keys():
            break
        if not pool or rng.random() < FRESH_FRACTION:
            members = _fresh_run(words, scratch, memo, closed, valid, rng)
        else:
            members = _perturb_run(words, scratch, memo, closed, valid, rng, pool_pick())
        size = len(members)
        if size > hard_cap:
            raise InternalConsistencyError(
                f"search produced a coclique of size {size} above the bound "
                f"{hard_cap}; the graph construction must be wrong"
            )
        key = np.array(members, dtype=key_dtype).tobytes()
        if key in seen:
            continue
        seen.add(key)
        candidate = VertexSet(members)
        try:
            checked = is_maximal(g, candidate)
        except DomainError:  # not a coclique
            checked = False
        if not checked:
            raise InternalConsistencyError(
                "search emitted a set that fails the independent checker"
            )
        if size not in found:
            found[size] = candidate
            focus = near_missing()
        bucket = pool.get(size)
        if bucket is None:
            pool[size] = bucket = []
            insort(pooled, size)
        if len(bucket) < POOL_PER_SIZE:
            bucket.append(members)
        else:
            bucket[_below(rng, POOL_PER_SIZE)] = members
    return [found[s] for s in sorted(found) if s in targets]
