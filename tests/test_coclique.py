import hashlib
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srg2048 import coclique
from srg2048.cli import _format_census
from srg2048.coclique import (
    DEFAULT_SEED,
    SearchConfig,
    VertexSet,
    check_set,
    external_profile,
    is_coclique,
    is_maximal,
    pair_invariant,
    search_maximal,
)
from srg2048.coset_graph import (
    DEGREE,
    N_VERTICES,
    SrgParams,
    check_rep_uniqueness,
    delsarte_bound,
    srg_eigenvalues,
    verify_srg,
    weight6_distance_census,
)
from srg2048.errors import DomainError, InternalConsistencyError
from srg2048.golay import build_code
from srg2048.io_formats import read_dat, write_dat

from oracles import (
    PINS,
    bitmask,
    bool_matrix,
    complete_ref,
    external_profile_ref,
    graph_from_bool_matrix,
    int_rows,
    is_coclique_ref,
    is_maximal_ref,
    neighbors,
    pair_invariant_ref,
    subgroup_coclique,
    translation_perm,
)

# 142 maximal cocliques of sizes 20..66 and 72, shipped with the benchmark
POOL_DAT = Path(__file__).resolve().parents[1] / "srgbench" / "pool.dat"


# ------------------------------------------------------------- VertexSet


def test_vertex_set_accepts_sorted():
    s = VertexSet((1, 5, 9))
    assert s.size == 3
    assert list(s) == [1, 5, 9]


def test_vertex_set_rejects_unsorted_and_duplicates():
    with pytest.raises(DomainError):
        VertexSet((5, 1))
    with pytest.raises(DomainError):
        VertexSet((1, 1))
    with pytest.raises(DomainError):
        VertexSet((-1, 2))
    with pytest.raises(DomainError, match="non-negative int: False"):
        VertexSet((False, True))


def test_from_iterable_sorts():
    assert VertexSet(tuple(sorted([9, 1, 5]))).members == (1, 5, 9)
    with pytest.raises(DomainError, match="strictly increasing"):
        VertexSet(tuple(sorted([1, 1])))


@given(st.sets(st.integers(min_value=0, max_value=2047), max_size=40))
def test_from_iterable_matches_sorted(values):
    s = VertexSet(tuple(sorted(values)))
    assert s.members == tuple(sorted(values))
    assert bitmask(s) == sum(1 << v for v in values)


def test_out_of_range_member_rejected_at_graph(graph):
    with pytest.raises(DomainError, match="out of range"):
        is_coclique(graph, VertexSet((2048,)))


# ------------------------------------------------------------- checking


def test_empty_set_is_coclique_not_maximal(graph):
    empty = VertexSet(())
    assert is_coclique(graph, empty)
    assert not is_maximal(graph, empty)


def test_singleton_is_coclique_not_maximal(graph):
    s = VertexSet((0,))
    assert is_coclique(graph, s)
    assert not is_maximal(graph, s)


def test_adjacent_pair_is_not_coclique(graph):
    v = int(neighbors(graph, 0)[0])
    assert not is_coclique(graph, VertexSet((0, v)))


def test_non_neighbor_pair_is_coclique(graph):
    nbrs = set(neighbors(graph, 0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    assert is_coclique(graph, VertexSet((0, w)))


def test_is_maximal_rejects_non_coclique(graph):
    v = int(neighbors(graph, 0)[0])
    with pytest.raises(DomainError, match="coclique"):
        is_maximal(graph, VertexSet((0, v)))


def _reference_cases(request, reps, case):
    if case in ("petersen", "cycle5"):  # every subset
        g = request.getfixturevalue(case)
        return g, [
            VertexSet(c) for k in range(g.n + 1) for c in itertools.combinations(range(g.n), k)
        ]
    g = request.getfixturevalue("graph")
    if case in ("pool", "perturbed"):
        sets = read_dat(POOL_DAT.read_bytes(), reps)
        assert len(sets) == 142
        if case == "pool":
            return g, sets
        # each set less its first member (a coclique, not maximal), and
        # each set plus a neighbour of its first member (no coclique)
        return g, [
            VertexSet(t)
            for s in sets
            for t in (s.members[1:], tuple(sorted((*s, int(neighbors(g, s.members[0])[0])))))
        ]
    if case == "empty":
        return g, [VertexSet(())]
    if case == "neighbourhood":  # 276 members: vertex 0 counts 276, past uint8
        return g, [VertexSet(tuple(neighbors(g, 0).tolist()))]
    return g, [VertexSet((0,)), VertexSet((g.n - 1,))]


@pytest.mark.parametrize(
    "case", ["pool", "perturbed", "petersen", "cycle5", "empty", "singleton", "neighbourhood"]
)
def test_packed_checks_match_int_row_references(request, reps, case):
    g, sets = _reference_cases(request, reps, case)
    rows = int_rows(g)
    for s in sets:
        independent = is_coclique(g, s)
        assert independent == is_coclique_ref(rows, s)
        if independent:
            assert is_maximal(g, s) == is_maximal_ref(rows, s)
        else:
            with pytest.raises(DomainError):
                is_maximal(g, s)
        profile = external_profile_ref(rows, s)
        invariant = pair_invariant_ref(rows, s)
        assert external_profile(g, s) == profile
        assert pair_invariant(g, s) == invariant
        maximal = independent and is_maximal_ref(rows, s)
        assert check_set(g, s, pair=True) == (independent, maximal, profile, invariant)
        assert check_set(g, s, pair=False) == (independent, maximal, profile, None)
    if case == "neighbourhood":
        assert profile[DEGREE] == 1
    if case == "pool":
        assert all(is_maximal(g, s) for s in sets)
    if case == "perturbed":
        verdicts = [check_set(g, s, pair=False)[:2] for s in sets]
        assert verdicts == [(True, False), (False, False)] * 142


# ------------------------------------------------------------- profiles


def test_singleton_profile(graph):
    profile = external_profile(graph, VertexSet((0,)))
    assert profile == {0: N_VERTICES - 1 - DEGREE, 1: DEGREE}
    assert profile == {0: 1771, 1: 276}


def test_profile_identities_on_pair(graph):
    nbrs = set(neighbors(graph, 0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    s = VertexSet((0, w))
    profile = external_profile(graph, s)
    assert sum(profile.values()) == N_VERTICES - 2
    assert sum(d * c for d, c in profile.items()) == DEGREE * 2


def test_profile_format():
    assert _format_census({10: 960, 8: 480, 12: 536}) == "8:480 10:960 12:536"


def test_maximality_iff_no_zero_count(graph, search_sets):
    for s in search_sets:
        profile = external_profile(graph, s)
        assert 0 not in profile
        assert is_maximal(graph, s)


# ---------------------------------------------------------- pair invariant


def test_pair_invariant_trivial_sizes(graph):
    assert pair_invariant(graph, VertexSet(())) == 0
    assert pair_invariant(graph, VertexSet((5,))) == 0


def test_pair_invariant_two_element_direct(graph):
    nbrs = set(neighbors(graph, 0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    s = VertexSet((0, w))
    value = pair_invariant(graph, s)
    assert value in (0, 1)
    # direct evaluation of the definition
    w8 = [
        u
        for u in range(graph.n)
        if u not in s.members
        and sum((graph.packed[u, m >> 3] >> (m & 7)) & 1 for m in s.members) == 8
    ]
    common = [
        u
        for u in w8
        if (graph.packed[0, u >> 3] >> (u & 7)) & 1 and (graph.packed[w, u >> 3] >> (u & 7)) & 1
    ]
    assert value == (1 if not common else 0)


def test_pair_invariant_leaves_members_out_of_w8(graph):
    # not a coclique: vertex 0 has 8 neighbours inside the set, yet as a
    # member it is no common W8-neighbour of the other eight
    s = VertexSet(tuple(sorted([0, *neighbors(graph, 0)[:8].tolist()])))
    assert pair_invariant(graph, s) == pair_invariant_ref(int_rows(graph), s)


def test_pair_invariant_translation_invariant(code, reps, graph, search_sets):
    rng = random.Random(23)
    s = search_sets[len(search_sets) // 2]
    base = pair_invariant(graph, s)
    for _ in range(2):
        t = rng.randrange(1 << 24)
        if bin(t).count("1") % 2 == 1:
            t ^= 1
        perm = translation_perm(code, reps, t)
        mapped = VertexSet(tuple(sorted(int(perm[v]) for v in s.members)))
        assert pair_invariant(graph, mapped) == base


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_subgroup_cocliques_match_their_coset_profiles(code, reps, graph, seed):
    # a subgroup of the syndromes avoiding D: its profile is read off its
    # cosets with no adjacency row, a route independent of check_set's sums
    s, profile = subgroup_coclique(code, reps, seed)
    assert s.size in (32, 64)
    assert check_set(graph, s, pair=False) == (True, True, profile, None)
    assert is_maximal(graph, s)
    assert sum(d * c for d, c in profile.items()) == DEGREE * s.size


# --------------------------------------------------------------- search


# the search's draws, exactly as random.Random makes them, on n up to 2048
BELOW_NS = (1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 255, 256, 257, 2047, 2048)
# sha256 of the uint16 stream of 64 rounds of _below over BELOW_NS from Random(2048)
BELOW_STREAM_SHA256 = "69d34b003c7fa67cdb55b66b0cab32ca69eb16fa64e4748831b5a4d06d74cc0c"


@pytest.mark.parametrize("n", BELOW_NS)
def test_below_is_randrange(n):
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        assert [coclique._below(a, n) for _ in range(200)] == [b.randrange(n) for _ in range(200)]
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("seq", [coclique.FRESH_MAX_DEPTHS, (1, 2), (1, 2, 2, 3, 3, 4)])
def test_below_indexes_as_choice(seq):
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        got = [seq[coclique._below(a, len(seq))] for _ in range(200)]
        assert got == [b.choice(seq) for _ in range(200)]
        assert a.getstate() == b.getstate()


def test_below_stream_is_pinned():
    rng = random.Random(2048)
    draws = [coclique._below(rng, n) for _ in range(64) for n in BELOW_NS]
    assert hashlib.sha256(np.array(draws, dtype="<u2").tobytes()).hexdigest() == BELOW_STREAM_SHA256


@pytest.fixture(scope="module")
def search_sets(graph):
    results = search_maximal(graph, range(24, 33), budget=4000, seed=101)
    assert results, "search produced nothing"
    return results


def test_search_results_verify(graph, search_sets):
    for s in search_sets:
        assert is_coclique(graph, s)
        assert is_maximal(graph, s)
        assert s.size <= 85


def test_search_first_found_per_size(search_sets):
    sizes = [s.size for s in search_sets]
    assert sizes == sorted(sizes)
    assert len(sizes) == len(set(sizes))


def test_search_deterministic(graph):
    a = search_maximal(graph, range(30, 34), budget=1500, seed=7)
    b = search_maximal(graph, range(30, 34), budget=1500, seed=7)
    assert [s.members for s in a] == [s.members for s in b]


def test_search_different_seeds_differ(graph):
    a = search_maximal(graph, range(30, 34), budget=1500, seed=7)
    b = search_maximal(graph, range(30, 34), budget=1500, seed=8)
    assert [s.members for s in a] != [s.members for s in b]


# sha256 of write_dat over sizes 20..72, budget 500, stop_when_complete
# off, as written by the search before its 64-bit-word kernel: a faster
# search must consume the RNG identically and emit the same bytes
GOLDEN_SEARCH_SHA256 = {
    7: "d7c8d5e4f4d6f560d3788e9d3ffd07b94a9c09a3df462564b05ca384e876e95b",
    77: "a20b7aabc5edb4ead85deadbda56b7d633b5699d2de36b63e1f744fe8e3f4242",
    2048: "c862a616eb7208be9a2d9b65daabf5ace747a0fb57916cb62326125809c8b131",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEARCH_SHA256))
def test_search_output_is_pinned(graph, reps, seed):
    results = search_maximal(
        graph,
        range(20, 73),
        budget=500,
        seed=seed,
        config=SearchConfig(stop_when_complete=False),
    )
    digest = hashlib.sha256(write_dat(results, reps)).hexdigest()
    assert digest == GOLDEN_SEARCH_SHA256[seed]


@pytest.mark.parametrize(
    "name, seed, expected",
    [
        ("petersen", 1, [(2, 3, 9), (0, 1, 2, 3)]),
        ("petersen", 2048, [(2, 3, 9), (3, 6, 8, 9)]),
        ("cycle5", 7, [(0, 2)]),
        ("cycle5", 2048, [(2, 4)]),
    ],
)
def test_search_small_graphs_pinned(request, name, seed, expected):
    # rows of 5 and 10 vertices are padded to a whole 64-bit word
    g = request.getfixturevalue(name)
    results = search_maximal(
        g,
        range(1, g.n + 1),
        budget=300,
        seed=seed,
        config=SearchConfig(stop_when_complete=False),
    )
    assert [s.members for s in results] == expected
    for s in results:
        assert is_coclique(g, s) and is_maximal(g, s)


# sha256 of write_dat over sizes 20..72, budget 2000, stop_when_complete
# off: the benchmark's own search, as written before the search memoised
# its degree orders
GOLDEN_WIDE_SEARCH_SHA256 = {
    1: PINS["search-bench"],
    2048: "552e98f7c23ec3f48a98cdbceac9adace90e7c0150a6100200802f836228d5bb",
}


def _wide_search(g, seed, budget=2000):
    return search_maximal(
        g, range(20, 73), budget=budget, seed=seed,
        config=SearchConfig(stop_when_complete=False),
    )


@pytest.fixture(scope="module")
def wide_searches(graph):
    """Budget-2000 searches over 20..72 by seed, each run once."""
    return {seed: _wide_search(graph, seed) for seed in (1, 7, 2048)}


@pytest.mark.parametrize("seed", sorted(GOLDEN_WIDE_SEARCH_SHA256))
def test_wide_search_output_is_pinned(reps, wide_searches, seed):
    digest = hashlib.sha256(write_dat(wide_searches[seed], reps)).hexdigest()
    assert digest == GOLDEN_WIDE_SEARCH_SHA256[seed]


@pytest.mark.parametrize("seed", [1, 7, 2048])
def test_degree_memo_changes_nothing(graph, wide_searches, monkeypatch, seed):
    # no state of n vertices has more than n candidates: the memo stays empty
    monkeypatch.setattr(coclique, "MEMO_MIN_CANDIDATES", graph.n + 1)
    plain = _wide_search(graph, seed)
    assert [s.members for s in plain] == [s.members for s in wide_searches[seed]]


@pytest.mark.parametrize("name", ["petersen", "cycle5"])
@pytest.mark.parametrize("seed", [1, 7, 2048])
def test_degree_memo_changes_nothing_on_small_graphs(request, monkeypatch, name, seed):
    g = request.getfixturevalue(name)

    def members(threshold):
        monkeypatch.setattr(coclique, "MEMO_MIN_CANDIDATES", threshold)
        results = search_maximal(
            g, range(1, g.n + 1), budget=300, seed=seed,
            config=SearchConfig(stop_when_complete=False),
        )
        return [s.members for s in results]

    # threshold 0 memoises every degree-guided state of these tiny graphs
    assert members(0) == members(g.n + 1)


def test_degree_memo_is_capped(graph, reps, monkeypatch):
    monkeypatch.setattr(coclique, "MEMO_CAP", 8)
    memos = []
    complete = coclique._complete

    def recorded(*args):
        members = complete(*args)
        memos.append(len(args[2]))
        return members

    monkeypatch.setattr(coclique, "_complete", recorded)
    results = _wide_search(graph, 7, budget=500)
    assert max(memos) == 8
    # a full memo stops growing but still answers, with the same output
    digest = hashlib.sha256(write_dat(results, reps)).hexdigest()
    assert digest == GOLDEN_SEARCH_SHA256[7]


def test_deep_picks_bypass_the_degree_memo(graph):
    # a pick deeper than the memoised prefix reads the whole degree order
    words = graph.words
    valid = coclique._pack(words.shape[1], np.arange(graph.n))
    memo = {}
    members = coclique._complete(
        words, np.empty_like(words), memo, valid, [], random.Random(3), "max",
        4 * coclique.PICK_DEPTH, 0.5, coclique._closed_rows(words),
    )
    assert memo == {}
    assert is_maximal(graph, VertexSet(tuple(members)))


# ------------------------------------------------- exactness of a run


def _start_mask(adj, start, n_words):
    """The vertices outside `start` and its neighbourhoods, as a mask of
    n_words 64-bit words."""
    bits = np.zeros(n_words * 64, dtype=bool)
    bits[: len(adj)] = ~adj[list(start)].any(axis=0)
    bits[list(start)] = False
    return np.packbits(bits, bitorder="little").view(np.uint64)


def _complete_runs(g, adj, runs, seed):
    """Each (mode, depth, q, start) of `runs` through `_complete`, one memo
    and one RNG for them all, and through `complete_ref`, its own RNG:
    the members of every run and both RNG states at the end."""
    words = g.words
    scratch, closed, memo = np.empty_like(words), coclique._closed_rows(words), {}
    fast, ref = random.Random(seed), random.Random(seed)
    got, want = [], []
    for mode, depth, q, start in runs:
        emask = _start_mask(adj, start, words.shape[1])
        got.append(list(coclique._complete(
            words, scratch, memo, emask, list(start), fast, mode, depth, q, closed
        )))
        want.append(complete_ref(adj, start, ref, mode, depth, q))
    return got, want, fast.getstate(), ref.getstate(), memo


@pytest.fixture(scope="module")
def graph_bits(graph):
    return bool_matrix(graph)


@pytest.mark.parametrize("name", ["graph", "petersen", "random300"])
def test_closed_rows_clear_each_closed_neighbourhood(request, name):
    g = request.getfixturevalue(name)
    closed = coclique._closed_rows(g.words)
    bits = np.unpackbits(closed.view(np.uint8), axis=1, bitorder="little")
    assert (bits[:, : g.n] == ~(bool_matrix(g) | np.eye(g.n, dtype=bool))).all()


RUN_MODES = [
    ("uniform", 1, 0.0),
    *[("max", d, 0.0) for d in (1, 2, 3, 4)],
    *[("min", d, 0.0) for d in (1, 2)],
    ("blend", 1, 0.3),
    ("blend", 1, 0.9),
]


@pytest.mark.parametrize("start", ["fresh", "perturbed"])
@pytest.mark.parametrize("mode, depth, q", RUN_MODES)
@pytest.mark.parametrize("seed", [3, 11])
def test_complete_matches_the_stepwise_reference(
    graph, graph_bits, reps, start, mode, depth, q, seed
):
    members = ()
    if start == "perturbed":  # a pooled set with a seeded few members removed
        pool = read_dat(POOL_DAT.read_bytes(), reps)
        kept, rng = list(pool[seed].members), random.Random(seed)
        for _ in range(3):
            kept.pop(rng.randrange(len(kept)))
        members = tuple(kept)
    got, want, got_state, want_state, _ = _complete_runs(
        graph, graph_bits, [(mode, depth, q, members)], seed
    )
    assert got == want
    assert got_state == want_state


def _star_with_isolated_vertices():
    # vertex 0 joins 1..5; 6..69 are isolated, so after a max pick of 0 the
    # eligible set is independent; 70 vertices take two words per row
    adj = np.zeros((70, 70), dtype=bool)
    adj[0, 1:6] = adj[1:6, 0] = True
    return adj


@pytest.mark.parametrize("mode, depth, q", RUN_MODES)
@pytest.mark.parametrize("case", ["star", "edgeless"])
def test_complete_matches_the_reference_on_an_independent_tail(case, mode, depth, q):
    adj = _star_with_isolated_vertices() if case == "star" else np.zeros((70, 70), dtype=bool)
    g = graph_from_bool_matrix(adj)
    runs = [(mode, depth, q, ())] * 3 + [(mode, depth, q, (7, 9))] * 2
    got, want, got_state, want_state, _ = _complete_runs(g, adj, runs, seed=5)
    assert got == want
    assert got_state == want_state


@pytest.mark.parametrize("threshold", [coclique.MEMO_MIN_CANDIDATES, 0])
def test_repeated_depth_one_runs_match_the_reference(graph, graph_bits, monkeypatch, threshold):
    # min and max runs of depth 1 come back through the shared memo, with
    # blend and uniform runs from the same starts in between; the perturbed
    # start has too few candidates to be kept unless the threshold is 0
    monkeypatch.setattr(coclique, "MEMO_MIN_CANDIDATES", threshold)
    perturbed = tuple(complete_ref(graph_bits, (), random.Random(9), "max", 2)[3:])
    runs = [
        (mode, 1, 0.6, start)
        for start in ((), perturbed)
        for mode in ("min", "blend", "max", "uniform", "min", "blend", "max")
    ]
    got, want, got_state, want_state, memo = _complete_runs(graph, graph_bits, runs, seed=17)
    assert got == want
    assert got_state == want_state
    assert ("run", True, ()) in memo
    assert (("run", False, perturbed) in memo) == (threshold == 0)


def test_search_checks_each_candidate_once(graph, monkeypatch):
    calls = {"check_set": 0, "is_coclique": 0, "is_maximal": 0}
    for name in calls:
        def counted(*args, _fn=getattr(coclique, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(coclique, name, counted)
    candidates = set()
    complete = coclique._complete

    def recorded(*args, **kwargs):
        members = complete(*args, **kwargs)
        candidates.add(tuple(members))
        return members

    monkeypatch.setattr(coclique, "_complete", recorded)
    search_maximal(
        graph, range(20, 73), budget=300, seed=7,
        config=SearchConfig(stop_when_complete=False),
    )
    # is_maximal reads both verdicts from one check_set pass; nothing checks twice
    assert calls == {"check_set": len(candidates), "is_coclique": 0, "is_maximal": len(candidates)}


@pytest.mark.parametrize("kind", ["adjacent pair", "not maximal"])
def test_search_rejects_a_bad_candidate(graph, monkeypatch, kind):
    members = [0, int(neighbors(graph, 0)[0])] if kind == "adjacent pair" else [0]
    monkeypatch.setattr(coclique, "_fresh_run", lambda *args: list(members))
    with pytest.raises(InternalConsistencyError, match="independent checker"):
        search_maximal(graph, [20], budget=1, seed=DEFAULT_SEED)


def test_search_holds_no_bool_matrix(graph):
    # the adjacency unpacked to bool would alone take 4 MiB for n = 2048
    tracemalloc.start()
    try:
        search_maximal(
            graph, range(20, 73), budget=200, seed=7,
            config=SearchConfig(stop_when_complete=False),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_wide_search_keeps_a_small_tracemalloc_peak(graph):
    # each set seen is one packed key, and every member is one shared int
    tracemalloc.start()
    try:
        _wide_search(graph, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * (1 << 20)


def test_search_members_are_the_shared_vertex_ints(graph, monkeypatch):
    complete, results = coclique._complete, []

    def recorded(*args):
        results.append(complete(*args))
        return results[-1]

    monkeypatch.setattr(coclique, "_complete", recorded)
    _wide_search(graph, 7, budget=500)
    ints = coclique._vertex_ints(graph.n)
    assert len(results) == 500
    assert all(v is ints[v] for members in results for v in members)


def test_search_rejects_bad_budget(graph):
    with pytest.raises(DomainError):
        search_maximal(graph, range(20, 41), budget=0, seed=DEFAULT_SEED)


# each numeric argument, as a call (on the Petersen graph where it takes one), and a valid value of it
_ROWS = build_code().generators
_NUMERIC_ARGUMENTS = {
    "seed": (lambda g, x: search_maximal(g, [3, 4], budget=30, seed=x), 7),
    "budget": (lambda g, x: search_maximal(g, [3, 4], budget=x, seed=7), 30),
    "size target": (lambda g, x: search_maximal(g, [x], budget=30, seed=7), 4),
    "vertex count": (lambda g, x: delsarte_bound(x, 3, -2), 10),
    "degree": (lambda g, x: delsarte_bound(10, x, -2), 3),
    "v": (lambda g, x: srg_eigenvalues(SrgParams(x, 3, 0, 1)), 10),
    "k": (lambda g, x: srg_eigenvalues(SrgParams(10, x, 0, 1)), 3),
    "lambda": (lambda g, x: srg_eigenvalues(SrgParams(10, 3, x, 1)), 0),
    "mu": (lambda g, x: srg_eigenvalues(SrgParams(10, 3, 0, x)), 1),
    "generator row": (lambda g, x: build_code((x, *_ROWS[1:])).generators, _ROWS[0]),
}


@pytest.mark.parametrize("kind", [np.int64, np.int32, float, bool, str])
@pytest.mark.parametrize("name", list(_NUMERIC_ARGUMENTS))
def test_numeric_arguments_take_any_integer_but_a_bool(petersen, name, kind):
    call, value = _NUMERIC_ARGUMENTS[name]
    if kind in (float, bool, str):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
            call(petersen, kind(value))
    else:
        assert call(petersen, kind(value)) == call(petersen, value)


def test_search_rejects_bad_targets(graph):
    with pytest.raises(DomainError):
        search_maximal(graph, [-3], budget=10, seed=DEFAULT_SEED)


@pytest.mark.parametrize("targets", [[5], [7, 20], [86], [0], [N_VERTICES]])
def test_search_refuses_sizes_no_maximal_coclique_has(graph, monkeypatch, targets):
    # on the 2048-vertex graph a maximal coclique has 8 to 85 vertices
    def no_attempt(*args):
        raise AssertionError("an attempt was made")

    monkeypatch.setattr(coclique, "_fresh_run", no_attempt)
    with pytest.raises(DomainError, match="8 to 85 vertices"):
        search_maximal(graph, targets, budget=10, seed=DEFAULT_SEED)


@pytest.mark.parametrize("n", [N_VERTICES, 10])
def test_search_caps_sizes_at_the_ratio_bound(n):
    # every vertex of an edgeless graph joins the first set; only the
    # 2048-vertex graph has the ratio bound 85 as its cap
    g = graph_from_bool_matrix(np.zeros((n, n), dtype=bool))
    if n == N_VERTICES:
        with pytest.raises(InternalConsistencyError, match="size 2048 above the bound 85"):
            search_maximal(g, [20], budget=1)
    else:
        assert search_maximal(g, [n], budget=1) == [VertexSet(tuple(range(n)))]


def test_search_profile_identities(graph, search_sets):
    for s in search_sets:
        profile = external_profile(graph, s)
        assert sum(profile.values()) == N_VERTICES - s.size
        assert sum(d * c for d, c in profile.items()) == DEGREE * s.size


# ------------------------------------------------ types of public results


def _python_type(value):
    """The type of a result, with a dict's key and value types spelled out."""
    if isinstance(value, dict):
        return dict, {type(k) for k in value}, {type(v) for v in value.values()}
    return type(value)


def test_public_results_are_python_scalars(code, reps, graph):
    sets = read_dat(POOL_DAT.read_bytes(), reps)
    s = next(x for x in sets if x.size == 72)
    params = verify_srg(graph)
    found = search_maximal(graph, range(20, 73), budget=5, seed=1)
    counts = (dict, {int}, {int})
    results = [
        (is_coclique(graph, s), bool),
        (is_maximal(graph, s), bool),
        (external_profile(graph, s), counts),
        (pair_invariant(graph, s), int),
        *zip(check_set(graph, s, pair=True), (bool, bool, counts, int)),
        (check_rep_uniqueness(code, reps), int),
        (weight6_distance_census(code), counts),
        *((field, int) for field in params),
        *((root, int) for root in srg_eigenvalues(params)),
        (delsarte_bound(params.v, params.k, srg_eigenvalues(params)[1]), int),
        (code.weight_distribution(), counts),
        *((v, int) for x in (sets[0], s, *found) for v in x.members),
    ]
    assert [_python_type(value) for value, _ in results] == [want for _, want in results]
    assert pair_invariant(graph, s) == 336 and [x.size for x in found] == [39, 40]
