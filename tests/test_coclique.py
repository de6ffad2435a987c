import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srg2048.coclique import (
    DEFAULT_SEED,
    ExternalProfile,
    SearchConfig,
    VertexSet,
    external_profile,
    is_coclique,
    is_maximal,
    pair_invariant,
    search_maximal,
)
from srg2048.coset_graph import DEGREE, N_VERTICES, translation_map
from srg2048.errors import DomainError
from srg2048.io_formats import write_dat


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


def test_from_iterable_sorts():
    assert VertexSet.from_iterable([9, 1, 5]).members == (1, 5, 9)
    with pytest.raises(DomainError, match="duplicate"):
        VertexSet.from_iterable([1, 1])


@given(st.sets(st.integers(min_value=0, max_value=2047), max_size=40))
def test_from_iterable_matches_sorted(values):
    s = VertexSet.from_iterable(values)
    assert s.members == tuple(sorted(values))
    assert s.bitmask() == sum(1 << v for v in values)


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
    v = int(graph.neighbors(0)[0])
    assert not is_coclique(graph, VertexSet((0, v)))


def test_non_neighbor_pair_is_coclique(graph):
    nbrs = set(graph.neighbors(0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    assert is_coclique(graph, VertexSet((0, w)))


def test_is_maximal_rejects_non_coclique(graph):
    v = int(graph.neighbors(0)[0])
    with pytest.raises(DomainError, match="coclique"):
        is_maximal(graph, VertexSet((0, v)))


# ------------------------------------------------------------- profiles


def test_singleton_profile(graph):
    profile = external_profile(graph, VertexSet((0,)))
    assert profile.counts == {0: N_VERTICES - 1 - DEGREE, 1: DEGREE}
    assert profile.counts == {0: 1771, 1: 276}


def test_profile_identities_on_pair(graph):
    nbrs = set(graph.neighbors(0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    s = VertexSet((0, w))
    profile = external_profile(graph, s)
    assert profile.outside_total() == N_VERTICES - 2
    assert profile.weighted_total() == DEGREE * 2


def test_profile_format():
    p = ExternalProfile({10: 960, 8: 480, 12: 536})
    assert p.format() == "8:480 10:960 12:536"


def test_maximality_iff_no_zero_count(graph, search_sets):
    for s in search_sets:
        profile = external_profile(graph, s)
        assert profile.counts.get(0, 0) == 0
        assert is_maximal(graph, s)


# ---------------------------------------------------------- pair invariant


def test_pair_invariant_trivial_sizes(graph):
    assert pair_invariant(graph, VertexSet(())) == 0
    assert pair_invariant(graph, VertexSet((5,))) == 0


def test_pair_invariant_two_element_direct(graph):
    nbrs = set(graph.neighbors(0).tolist())
    w = next(v for v in range(1, graph.n) if v not in nbrs)
    s = VertexSet((0, w))
    value = pair_invariant(graph, s)
    assert value in (0, 1)
    # direct evaluation of the definition
    mask = s.bitmask()
    w8 = [
        u
        for u in range(graph.n)
        if not (mask >> u) & 1 and (graph.row_int(u) & mask).bit_count() == 8
    ]
    common = [
        u for u in w8 if graph.has_edge(0, u) and graph.has_edge(w, u)
    ]
    assert value == (1 if not common else 0)


def test_pair_invariant_translation_invariant(code, reps, graph, search_sets):
    rng = random.Random(23)
    s = search_sets[len(search_sets) // 2]
    base = pair_invariant(graph, s)
    for _ in range(2):
        t = rng.randrange(1 << 24)
        if bin(t).count("1") % 2 == 1:
            t ^= 1
        perm = translation_map(code, reps, t)
        mapped = VertexSet.from_iterable(int(perm[v]) for v in s.members)
        assert pair_invariant(graph, mapped) == base


# --------------------------------------------------------------- search


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


def test_search_rejects_bad_budget(graph):
    with pytest.raises(DomainError):
        search_maximal(graph, range(20, 41), budget=0, seed=DEFAULT_SEED)


def test_search_rejects_bad_targets(graph):
    with pytest.raises(DomainError):
        search_maximal(graph, [-3], budget=10, seed=DEFAULT_SEED)


def test_search_profile_identities(graph, search_sets):
    for s in search_sets:
        profile = external_profile(graph, s)
        assert profile.outside_total() == N_VERTICES - s.size
        assert profile.weighted_total() == DEGREE * s.size
