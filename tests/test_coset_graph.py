import gc
import hashlib
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srg2048 import coset_graph
from srg2048.coset_graph import (
    BAND,
    DEGREE,
    N_VERTICES,
    TARGET_PARAMS,
    WEIGHT2_VECTORS,
    Graph,
    SrgParams,
    build_graph,
    check_rep_uniqueness,
    delsarte_bound,
    row_bytes,
    srg_eigenvalues,
    verify_srg,
    weight6_distance_census,
    weight6_distance_table,
)
from srg2048.errors import (
    DomainError,
    GraphConstructionError,
    InternalConsistencyError,
    InvalidDistanceError,
    VerificationError,
)
from srg2048.gf2 import parse_vec
from srg2048.golay import DEFAULT_GENERATOR_ROWS, build_code, census

from oracles import (
    adjacent_by_translates,
    adjacent_many_oracle,
    bool_matrix,
    delsarte_bound_ref,
    feasibility_identity,
    graph_from_bool_matrix,
    graph_from_edges,
    min_coset_distance_bulk,
    neighbors,
    rep_of_scan,
    translation_perm,
    vectors_of_weight_ref,
    verify_srg_ref,
)


# ---------------------------------------------------------------- reps


def test_rep_count(reps):
    assert len(reps) == N_VERTICES


def test_rep_class_counts(reps):
    assert census(np.bitwise_count(reps)) == {0: 1, 2: 276, 4: 1771}


def test_rep_class_sizes_are_binomials():
    from math import comb

    assert comb(24, 2) == 276
    assert comb(23, 3) == 1771
    assert 1 + 276 + 1771 == 2048


def test_zero_is_a_representative(reps):
    assert reps[0] == 0


def test_weight4_needs_low_bit(reps):
    without_low = (1 << 1) | (1 << 2) | (1 << 3) | (1 << 4)
    with_low = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
    assert without_low not in reps
    assert with_low in reps


def test_rep_uniqueness_exhaustive(code, reps):
    assert check_rep_uniqueness(code, reps) == N_VERTICES * (N_VERTICES - 1) // 2


def test_shared_coset_message_names_the_first_clash(code, reps):
    bad = reps.copy()
    bad[1000] = reps[7] ^ code.weight8[0]
    bad[1500] = reps[3] ^ code.weight8[1]
    with pytest.raises(InternalConsistencyError) as info:
        check_rep_uniqueness(code, bad)
    assert str(info.value) == "representatives 7 and 1000 lie in the same coset"


def test_rep_differences_even_and_at_most_six(reps):
    z = reps[:, None] ^ reps[None, :]
    w = np.bitwise_count(z)
    assert int(w.max()) == 6
    assert not np.any(w & 1)


# ------------------------------------------------- the syndrome labelling
# The vertex of an even vector x is the one whose representative has syn(x):
# translation_perm(code, reps, x)[0], since vertex 0 is the zero vector.


def test_rep_of_zero(code, reps):
    assert reps[translation_perm(code, reps, 0)[0]] == 0


def test_rep_of_codewords_is_zero(code, reps):
    rng = random.Random(5)
    words = code.codewords.tolist()
    for _ in range(200):
        assert reps[translation_perm(code, reps, rng.choice(words))[0]] == 0


def test_rep_of_coset_invariance(code, reps):
    rng = random.Random(6)
    words = code.codewords.tolist()
    for _ in range(300):
        x = rng.randrange(1 << 24)
        if bin(x).count("1") % 2 == 1:
            x ^= 1  # force even weight
        c = rng.choice(words)
        assert reps[translation_perm(code, reps, x ^ c)[0]] == reps[translation_perm(code, reps, x)[0]]


def test_rep_of_every_weight2_vector_is_itself(code, reps):
    for e in WEIGHT2_VECTORS.tolist():
        assert reps[translation_perm(code, reps, e)[0]] == e


def test_rep_of_matches_scan_oracle(code, reps):
    rng = random.Random(9)
    for _ in range(40):
        x = rng.randrange(1 << 24)
        if bin(x).count("1") % 2 == 1:
            x ^= 1
        assert reps[translation_perm(code, reps, x)[0]] == rep_of_scan(code, reps, x)


# ---------------------------------------------------------- min distance


def test_min_distance_inside_octad_is_two(code):
    rng = random.Random(10)
    octads = code.weight8.tolist()
    z6, table = coset_graph.vectors_of_weight(6), weight6_distance_table(code)
    for _ in range(100):
        c = rng.choice(octads)
        bits = [b for b in range(24) if (c >> b) & 1]
        drop = rng.sample(bits, 2)
        z = c ^ (1 << drop[0]) ^ (1 << drop[1])
        assert table[np.searchsorted(z6, z)] == 2


def test_weight6_distance_census(code):
    # how many weight-6 vectors sit inside an octad: count them directly
    inside = set()
    for c in code.weight8.tolist():
        bits = [b for b in range(24) if (c >> b) & 1]
        for drop in itertools.combinations(bits, 2):
            inside.add(c ^ (1 << drop[0]) ^ (1 << drop[1]))
    census = weight6_distance_census(code)
    assert census[2] == len(inside) == 21252
    assert census == {2: 21252, 4: 113344}
    assert sum(census.values()) == 134596


def _non_systematic_rows(rng):
    # a coordinate permutation, then row additions: the leading 12 columns
    # are no longer the identity, and the syndromes use the rows as given
    perm = list(range(24))
    rng.shuffle(perm)
    rows = [
        sum(1 << perm[b] for b in range(24) if (g >> b) & 1)
        for g in map(parse_vec, DEFAULT_GENERATOR_ROWS)
    ]
    for _ in range(48):
        i, j = rng.sample(range(12), 2)
        rows[i] ^= rows[j]
    identity = [1 << (23 - i) for i in range(12)]
    assert [r & ~0xFFF for r in rows] != identity
    return tuple(rows)


@pytest.mark.parametrize("systematic", [True, False], ids=["systematic", "non_systematic"])
def test_weight6_table_matches_full_scan(systematic):
    # a fresh code object, so the per-code cache is cold and the table is built
    code = build_code() if systematic else build_code(_non_systematic_rows(random.Random(23)))
    z6 = coset_graph.vectors_of_weight(6)
    table = weight6_distance_table(code)
    assert table.dtype == np.uint8
    assert np.array_equal(table, min_coset_distance_bulk(code, z6))


def test_weight6_scan_holds_no_pair_matrix():
    code = build_code()  # fresh, so the table is cold
    z6 = coset_graph.vectors_of_weight(6)  # held, so the table reads it: only the table is traced
    tracemalloc.start()
    try:
        weight6_distance_table(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 134,596 x 759 pairs at one byte each would be 102 MB; the table read
    # off the words, its marks and the sorted five-sets take about 0.6 MB
    assert peak < 2 << 20
    assert len(z6) == 134596


def _random_weight8(seed, count):
    """`count` seeded random words of weight 8, in no particular order."""
    points = np.argsort(np.random.default_rng(seed).random((count, 24)), axis=1)[:, :8]
    return (np.uint32(1) << points.astype(np.uint32)).sum(axis=1, dtype=np.uint32)


def _table_agrees_with_the_oracle(weight8):
    """The table on a fresh code holding `weight8` equals the full scan, or
    raises the guard of the scan's ascending-first entry outside {2, 4}.
    Returns whether the guard fired."""
    code = build_code()  # fresh, so the per-code cache is cold
    code.weight8 = weight8
    z6 = coset_graph.vectors_of_weight(6)
    brute = min_coset_distance_bulk(code, z6)
    bad = np.flatnonzero((brute != 2) & (brute != 4))
    if not bad.size:
        assert np.array_equal(weight6_distance_table(code), brute)
        return False
    with pytest.raises(InvalidDistanceError) as info:
        weight6_distance_table(code)
    assert (info.value.vector, info.value.distance) == (int(z6[bad[0]]), int(brute[bad[0]]))
    return True


# these lists are not Steiner systems: a weight-6 z may lie in two words, and a
# 5-subset in none, so the count is checked where the octads' structure fails


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 200))
def test_weight6_table_with_extra_weight8_words(code, seed, extra):
    weight8 = np.concatenate([code.weight8, _random_weight8(seed, extra)])
    assert not _table_agrees_with_the_oracle(weight8)


@settings(max_examples=4, deadline=None)
@given(drop=st.integers(0, 758))
def test_weight6_guard_without_one_octad(code, drop):
    assert _table_agrees_with_the_oracle(np.delete(code.weight8, drop))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weight6_table_on_random_weight8_lists(seed):
    _table_agrees_with_the_oracle(_random_weight8(seed, 759))


def test_weight6_table_when_the_five_set_count_falls_short(code):
    # swap one point of the first octad c0 for one outside it: the 35 five-sets
    # of c0 through p lie in no word now, so the count fails, yet every weight-6
    # z keeps a five-subset in some word and the table must come out quietly
    c0 = int(code.weight8[0])
    p, q = c0 & -c0, ~c0 & (c0 + 1)  # the lowest point of c0 and the lowest outside it
    weight8 = np.append(code.weight8[1:], np.uint32(c0 ^ p ^ q))
    fives = set()
    for c in weight8.tolist():
        points = [1 << b for b in range(24) if (c >> b) & 1]
        fives.update(c ^ sum(drop) for drop in itertools.combinations(points, 3))
    assert len(fives) == 42469
    assert not _table_agrees_with_the_oracle(weight8)
    fresh = build_code()
    fresh.weight8 = weight8
    assert weight6_distance_census(fresh) == {2: 21252, 4: 113344}


@pytest.mark.parametrize(
    "points",
    [range(8), range(1, 9), (0, 2, 3, 4, 5, 6, 7, 8), range(16, 24)],
    ids=["holds_63", "all_of_63_but_its_lowest_point", "all_of_63_but_point_1", "far_from_63"],
)
def test_weight6_table_on_one_word(points):
    # z = 63 (points 0-5) is the first weight-6 vector; one word decides its
    # distance, so the guard names 63 itself unless the word holds 5 of its points
    assert _table_agrees_with_the_oracle(np.array([sum(1 << p for p in points)], dtype=np.uint32))


def test_empty_weight8_list_is_refused_before_any_count():
    fresh = build_code()
    fresh.weight8 = np.zeros(0, dtype=np.uint32)
    with pytest.raises(InternalConsistencyError, match="^weight-8 list is empty$"):
        weight6_distance_table(fresh)


@pytest.mark.parametrize("weight", [0, 6, 7, 10, 24])
def test_weight8_word_of_another_weight_is_refused_before_any_count(code, weight):
    # without the octad that holds vector 63 the count would fire the distance
    # guard; a word of another weight must be refused first, as the count's
    # w(z + c) = 14 - 2 |z & c| holds only for w(c) = 8
    stray = (1 << weight) - 1
    fresh = build_code()
    fresh.weight8 = np.append(code.weight8[code.weight8 & 63 != 63], np.uint32(stray))
    with pytest.raises(InternalConsistencyError, match=f"word of weight {weight}: {stray:024b}"):
        weight6_distance_table(fresh)


# ------------------------------------------------------------- adjacency


def _graph_bit(graph, reps, x, y):
    """The edge bit of the vertices whose representatives are x and y."""
    u, v = np.searchsorted(reps, [x, y])
    assert (reps[u], reps[v]) == (x, y)
    return graph.row_bits(int(u))[v]


def test_self_not_adjacent(graph):
    rng = random.Random(12)
    for _ in range(20):
        v = rng.randrange(N_VERTICES)
        assert not graph.row_bits(v)[v]


def test_weight2_reps_sharing_a_bit_are_adjacent(graph, reps):
    assert _graph_bit(graph, reps, 0b11, 0b101)  # {0,1} vs {0,2}: difference {1,2}


def test_disjoint_weight2_reps_not_adjacent(graph, reps):
    assert not _graph_bit(graph, reps, 0b11, 0b1100)


def test_adjacent_matches_definition_oracle_scalar(code, reps, graph):
    rng = random.Random(13)
    for _ in range(400):
        u, v = rng.randrange(N_VERTICES), rng.randrange(N_VERTICES)
        assert graph.row_bits(u)[v] == adjacent_by_translates(code, int(reps[u]), int(reps[v]))


def test_graph_pairs_match_oracle(code, reps, graph):
    rng = np.random.default_rng(14)
    u, v = rng.integers(0, N_VERTICES, size=(2, 10_000))
    bits = (graph.packed[u, v >> 3] >> (v & 7)) & 1
    assert np.array_equal(bits.astype(bool), adjacent_many_oracle(code, reps[u], reps[v]))


# ------------------------------------------------------------- the graph


def test_degrees_all_276(graph):
    assert all(len(neighbors(graph, u)) == DEGREE for u in range(graph.n))


def test_edge_count(graph):
    edges = int(graph.degrees().sum()) // 2
    assert edges == int(bool_matrix(graph).sum()) // 2 == N_VERTICES * DEGREE // 2


def test_neighbors_of_vertex_zero_are_weight2_reps(graph, reps):
    expected = np.flatnonzero(np.bitwise_count(reps) == 2)
    assert np.array_equal(neighbors(graph, 0), expected)
    assert len(expected) == 276


def test_rows_symmetric_sample(graph):
    rng = random.Random(15)
    for _ in range(500):
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        assert (graph.packed[u, v >> 3] >> (v & 7)) & 1 == (graph.packed[v, u >> 3] >> (u & 7)) & 1


def test_neighbors_match_has_edge(graph):
    rng = random.Random(16)
    for _ in range(50):
        u = rng.randrange(graph.n)
        row = set(neighbors(graph, u).tolist())
        bits = graph.row_bits(u)
        for _ in range(20):
            v = rng.randrange(graph.n)
            assert (v in row) == bool(bits[v]) == bool((graph.packed[u, v >> 3] >> (v & 7)) & 1)


def test_vertex_translation_is_automorphism(code, reps, graph):
    rng = random.Random(17)
    adj = bool_matrix(graph)
    for _ in range(3):
        t = rng.randrange(1 << 24)
        if bin(t).count("1") % 2 == 1:
            t ^= 1
        perm = translation_perm(code, reps, t)
        assert sorted(perm.tolist()) == list(range(N_VERTICES))
        assert np.array_equal(adj[np.ix_(perm, perm)], adj)


def test_coset_vertex_consistency(code, reps, graph):
    rng = random.Random(18)
    for _ in range(100):
        u = rng.randrange(N_VERTICES)
        x = int(reps[u])
        assert translation_perm(code, reps, x)[0] == u


# ----------------------------------------------------------- verify_srg


def test_verify_target_graph(graph):
    assert verify_srg(graph) == TARGET_PARAMS


def test_verify_five_cycle(cycle5):
    assert tuple(verify_srg(cycle5)) == (5, 2, 0, 1)


def test_verify_petersen(petersen):
    assert tuple(verify_srg(petersen)) == (10, 3, 0, 1)


def test_verify_rejects_irregular():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(VerificationError, match="degree not constant"):
        verify_srg(g)


def test_verify_rejects_six_cycle():
    g = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(VerificationError, match="mu not constant") as info:
        verify_srg(g)
    assert info.value.witness is not None


@pytest.mark.parametrize(
    "n, edges",
    [(3, [(0, 1), (1, 2), (0, 2)]), (4, []), (1, []), (0, [])],
    ids=["complete3", "edgeless4", "single1", "empty0"],
)
def test_verify_rejects_degenerate(n, edges):
    g = graph_from_edges(n, edges)
    with pytest.raises(VerificationError, match="degenerate"):
        verify_srg(g)


_CUBE = [(a, a ^ (1 << i)) for a in range(8) for i in range(3) if a < a ^ (1 << i)]


def _edited(graph, *edits):
    """graph with adjacency (x, y) and (y, x) set to value for each edit."""
    adj = bool_matrix(graph).copy()
    for x, y, value in edits:
        adj[x, y] = adj[y, x] = value
    return graph_from_bool_matrix(adj)


def _switched(graph, a, b, c, d):
    """graph with edges ab, cd replaced by ac, bd: every degree is kept."""
    return _edited(graph, (a, b, False), (c, d, False), (a, c, True), (b, d, True))


def _cliques_and(n, size, edges, labels):
    """Disjoint copies of K_size on the vertices outside `labels`, in order,
    and the graph of `edges` on `labels`: edge (a, b) joins labels[a], labels[b]."""
    rest = [v for v in range(n) if v not in labels]
    cliques = [rest[i : i + size] for i in range(0, len(rest), size)]
    pairs = [pair for c in cliques for pair in itertools.combinations(c, 2)]
    return graph_from_edges(n, pairs + [(labels[a], labels[b]) for a, b in edges])


# messages and witnesses as the row-by-row popcount check reported them
@pytest.mark.parametrize(
    "make, message, witness",
    [
        (  # triangular prism: the rungs lie in no triangle
            lambda g: graph_from_edges(
                6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
            ),
            "lambda not constant: pair (0, 3) has 0 common neighbours, expected 1",
            (0, 3),
        ),
        (
            lambda g: graph_from_edges(8, _CUBE),
            "mu not constant: pair (0, 7) has 0 common neighbours, expected 2",
            (0, 7),
        ),
        (  # row 0 has a mu mismatch at (0, 3) before the lambda one at (0, 5)
            lambda g: graph_from_edges(10, [
                (0, 1), (0, 4), (0, 5), (0, 9), (1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6),
                (3, 5), (3, 6), (3, 8), (4, 7), (4, 9), (6, 7), (6, 8), (7, 8), (7, 9), (8, 9),
            ]),
            "lambda not constant: pair (0, 5) has 1 common neighbours, expected 2",
            (0, 5),
        ),
        (  # 150 copies of K4, then a cube: the first bad row lies in a later band
            lambda g: graph_from_edges(
                608,
                [(4 * c + i, 4 * c + j) for c in range(150)
                 for i, j in itertools.combinations(range(4), 2)]
                + [(600 + a, 600 + b) for a, b in _CUBE],
            ),
            "lambda not constant: pair (600, 601) has 0 common neighbours, expected 2",
            (600, 601),
        ),
        (  # one symmetric edge toggled
            lambda g: _edited(g, (5, 2000, not (g.packed[5, 2000 >> 3] >> (2000 & 7)) & 1)),
            "degree not constant: vertex 5 has 277, vertex 0 has 276",
            (5,),
        ),
        (
            lambda g: _switched(g, 1504, 383, 1385, 146),
            "mu not constant: pair (0, 383) has 37 common neighbours, expected 36",
            (0, 383),
        ),
        (
            lambda g: _switched(g, 104, 37, 1561, 887),
            "lambda not constant: pair (0, 37) has 43 common neighbours, expected 44",
            (0, 37),
        ),
        (  # K4s and a cube on 128..135: the bad rows are the second rows of their
            # float32 rows (128 + r shares row r), and the first bad pair lies in
            # the band's own columns
            lambda g: _cliques_and(264, 4, _CUBE, range(128, 136)),
            "lambda not constant: pair (128, 129) has 0 common neighbours, expected 2",
            (128, 129),
        ),
        (  # the same, but row 128's cube neighbours lie in a block past the band
            lambda g: _cliques_and(520, 4, _CUBE, [128, *range(300, 307)]),
            "lambda not constant: pair (128, 300) has 0 common neighbours, expected 2",
            (128, 300),
        ),
        (  # triangles and a pentagon on 262..266: the last band, 256..268, has 13
            # rows, and row 262 is its middle row, the one with no second row
            lambda g: _cliques_and(269, 3, [(i, (i + 1) % 5) for i in range(5)], range(262, 267)),
            "lambda not constant: pair (262, 263) has 0 common neighbours, expected 1",
            (262, 263),
        ),
    ],
    ids=[
        "prism", "cube", "lambda-first", "late-band", "toggle", "switch-mu", "switch-lambda",
        "second-row-diagonal", "second-row-off-diagonal", "odd-middle-row",
    ],
)
def test_verify_failures_are_pinned(graph, make, message, witness):
    with pytest.raises(VerificationError) as info:
        verify_srg(make(graph))
    assert str(info.value) == message
    assert info.value.witness == witness


_PALEY_PRIMES = [p for p in range(5, 301, 4) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _paley(p):
    return np.isin((np.arange(p)[None, :] - np.arange(p)[:, None]) % p, [x * x % p for x in range(1, p)])


def _same_part(size, count):
    """Whether two of the size * count vertices lie in the same of `count` parts."""
    part = np.arange(size * count) // size
    return part[:, None] == part[None, :]


@st.composite
def _regular_graphs(draw):
    """A regular graph on 5 to 300 vertices, relabelled at random: a circulant
    (seldom strongly regular) or one of five strongly regular families, left
    as it is, with one edge moved to another end, or with two edges switched,
    which keeps every degree.  The sizes end rows inside a byte and a word."""
    family = draw(st.sampled_from(["circulant", "cliques", "multipartite", "paley", "triangular", "rook"]))
    if family == "circulant":
        n = draw(st.integers(5, 300))
        steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=n // 2))
        adj = np.isin((np.arange(n)[None, :] - np.arange(n)[:, None]) % n, [*steps, *(n - s for s in steps)])
    elif family in ("cliques", "multipartite"):  # disjoint cliques and their complement
        size = draw(st.integers(2, 60))
        adj = _same_part(size, draw(st.integers(max(2, -(-5 // size)), 300 // size))) == (family == "cliques")
    elif family == "paley":
        adj = _paley(draw(st.sampled_from(_PALEY_PRIMES)))
    elif family == "triangular":  # the 2-subsets of an m-set, joined when they share a point
        pairs = np.array(list(itertools.combinations(range(draw(st.integers(4, 25))), 2)))
        adj = (pairs[:, None, :, None] == pairs[None, :, None, :]).sum(axis=(2, 3)) == 1
    else:  # the m x m rook's graph: joined when they share a row or a column
        m = draw(st.integers(3, 17))
        row, col = np.divmod(np.arange(m * m), m)
        adj = (row[:, None] == row[None, :]) != (col[:, None] == col[None, :])
    np.fill_diagonal(adj, False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(len(adj))
    adj = adj[perm][:, perm]
    edit = draw(st.sampled_from(["none", "move", "switch"]))
    edges = np.argwhere(np.triu(adj))
    if edit == "move":  # edge ab becomes ac: b loses a neighbour and c gains one
        a, b = edges[rng.integers(len(edges))]
        free = np.flatnonzero(~adj[a])
        free = free[free != a]
        if free.size:
            c = rng.choice(free)
            adj[a, b] = adj[b, a] = False
            adj[a, c] = adj[c, a] = True
    elif edit == "switch":  # edges ab, cd become ac, bd
        for _ in range(50):
            (a, b), (c, d) = edges[rng.choice(len(edges), 2, replace=False)]
            if len({a, b, c, d}) == 4 and not adj[a, c] and not adj[b, d]:
                adj[a, b] = adj[b, a] = adj[c, d] = adj[d, c] = False
                adj[a, c] = adj[c, a] = adj[b, d] = adj[d, b] = True
                break
    return graph_from_bool_matrix(adj)


@settings(max_examples=60, deadline=None)
@given(g=_regular_graphs())
# n = 1 (mod 256): the last band is one row, so its upper half is empty
@example(g=graph_from_bool_matrix(_paley(257)))
@example(g=graph_from_bool_matrix(_same_part(27, 19) ^ np.eye(513, dtype=bool)))
@example(g=graph_from_bool_matrix(~_same_part(19, 27)))
# the last column block is 9 columns, ending inside a byte, and then 1 column
@example(g=graph_from_bool_matrix(_paley(137)))
@example(g=graph_from_bool_matrix(~_same_part(43, 3)))
def test_verify_srg_matches_the_popcount_oracle(g):
    expected = verify_srg_ref(g)
    try:
        got = tuple(verify_srg(g))
    except VerificationError as exc:
        got = (str(exc), exc.witness)
    assert got == expected


def test_verify_witness_is_the_first_row_across_blocks(graph):
    """Row 1's bad pairs lie only in later column blocks of band 0, while
    row 2 has one in block 0, which the product meets first: the witness
    is still row 1's first bad pair."""
    g = _switched(graph, 859, 1848, 384, 101)
    assert not (g.packed[2, 101 >> 3] >> (101 & 7)) & 1
    assert int(np.bitwise_count(g.words[2] & g.words[101]).sum()) != 36
    with pytest.raises(VerificationError) as info:
        verify_srg(g)
    assert str(info.value) == "mu not constant: pair (1, 384) has 35 common neighbours, expected 36"
    assert info.value.witness == (1, 384)


def test_verify_srg_holds_no_band_wide_buffers(graph):
    verify_srg(graph)
    tracemalloc.start()
    try:
        verify_srg(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 256 x 2048 float32 product and its bool temporaries per band took 9 MiB,
    # a band of 256 float32 rows, one adjacency row each, 4.5 MiB, and the two
    # 128 x 2048 float32 tiles with each band and block unpacked to bool 3.4 MiB;
    # the tiles alone are 2 MiB
    assert peak < 3 * 2**20


def test_verify_refuses_a_degree_too_large_for_paired_rows():
    """K_{4096,4096}: at degree 4096 two rows' packed counts could pass 2^24,
    so verify_srg refuses before it gathers a tile for the product."""
    n = 8192
    packed = np.zeros((n, row_bytes(n)), dtype=np.uint8)
    packed[: n // 2, n // 16 :] = packed[n // 2 :, : n // 16] = 0xFF
    g = Graph(packed)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^degree 4096 is too large"):
            verify_srg(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the degree count takes 1 MiB; one 128 x 8192 float32 tile would take 4 MiB
    assert peak < 2 * 2**20


def test_graph_constructors_reject_bad_input():
    with pytest.raises(GraphConstructionError, match="loop"):
        graph_from_edges(3, [(0, 0)])
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # not symmetric
    with pytest.raises(GraphConstructionError, match="symmetric"):
        graph_from_bool_matrix(bad)


def _set_bit(packed, u, v, value):
    if value:
        packed[u, v >> 3] |= np.uint8(1 << (v & 7))
    else:
        packed[u, v >> 3] &= ~np.uint8(1 << (v & 7))


_ROW_FAULTS = [
    (kind, message, which)
    for kind, message in [
        ("loop", "adjacency matrix has a loop"),
        ("asymmetric", "adjacency matrix not symmetric"),
    ]
    for which in ["graph", "petersen", "random300"]
] + [
    # n = 2048 fills its rows: only the smaller graphs have padding
    ("padding", "adjacency matrix has a bit set in the row padding", which)
    for which in ["petersen", "random300"]
]


@pytest.mark.parametrize("kind, message, which", _ROW_FAULTS)
def test_graph_rejects_a_loop_or_an_asymmetric_row(request, which, kind, message):
    g = request.getfixturevalue(which)
    packed = g.packed.copy()
    u = g.n - 3  # in the last band: the partial second band of the 300-vertex graph
    lo = u - u % BAND
    if kind == "loop":
        _set_bit(packed, u, u, True)
    elif kind == "padding":  # the row's last bit, past vertex n - 1; its degree grows
        _set_bit(packed, u, 8 * packed.shape[1] - 1, True)
    else:  # move one bit of row u inside its band's own columns: its degree is kept
        row = g.row_bits(u)
        _set_bit(packed, u, lo + int(np.flatnonzero(row[lo:])[0]), False)
        row[u] = True  # the new bit must not be a loop
        _set_bit(packed, u, lo + int(np.flatnonzero(~row[lo:])[0]), True)
    with pytest.raises(GraphConstructionError) as info:
        Graph(packed)
    assert str(info.value) == message



@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), flip=st.booleans())
def test_graph_accepts_exactly_the_symmetric_matrices(n, seed, flip):
    # random sizes and entries put the flipped one in any block, full or partial
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    adj = upper | upper.T
    if flip and n > 1:
        u, v = rng.choice(n, 2, replace=False)
        adj[u, v] = not adj[u, v]
    if np.array_equal(adj, adj.T):
        assert np.array_equal(bool_matrix(graph_from_bool_matrix(adj)), adj)
    else:
        with pytest.raises(GraphConstructionError, match="^adjacency matrix not symmetric$"):
            graph_from_bool_matrix(adj)


@pytest.mark.parametrize("which", ["cycle5", "random300", "graph"])
def test_bands_cover_the_rows_in_order(request, which):
    g = request.getfixturevalue(which)
    bands = list(g.bands())
    assert [lo for lo, _ in bands] == list(range(0, g.n, BAND))
    assert all(len(rows) == min(BAND, g.n - lo) for lo, rows in bands)
    assert np.array_equal(np.concatenate([rows for _, rows in bands]), g.row_bits(slice(None)))
    assert [lo for lo, _ in g.bands(128)] == list(range(0, g.n, 128))


def test_rows_are_padded_to_whole_words(cycle5, petersen, graph):
    for g in (cycle5, petersen):
        assert g.packed.shape == (g.n, 8)
        assert g.words.shape == (g.n, 1)
        expected = [[(g.packed[u, v >> 3] >> (v & 7)) & 1 for v in range(g.n)] for u in range(g.n)]
        assert np.array_equal(
            np.unpackbits(g.packed, axis=1, bitorder="little")[:, : g.n], expected
        )
        assert np.array_equal(bool_matrix(g), expected)
        assert not np.unpackbits(g.packed, axis=1, bitorder="little")[:, g.n :].any()
        assert g.degrees().tolist() == bool_matrix(g).sum(axis=1).tolist()
    # 2048 bits are 32 whole words: no padding, so cache files stay valid
    assert graph.packed.shape == (N_VERTICES, 256)
    assert np.array_equal(graph.words.view(np.uint8), graph.packed)
    assert (graph.degrees() == DEGREE).all()


def test_graph_rejects_misshapen_rows():
    with pytest.raises(GraphConstructionError, match="shape"):
        Graph(np.zeros((5, 1), dtype=np.uint8))
    with pytest.raises(GraphConstructionError, match="uint8"):
        Graph(np.zeros((5, 8), dtype=np.int64))


def test_feasibility_identity():
    lhs, rhs = feasibility_identity(TARGET_PARAMS)
    assert lhs == rhs == 63756
    lhs, rhs = feasibility_identity(SrgParams(10, 3, 1, 1))
    assert lhs != rhs


# -------------------------------------------------- bound and eigenvalues


def test_delsarte_bound_target():
    assert delsarte_bound(2048, 276, -12) == 85


def test_delsarte_bound_exact_fraction():
    # 2048 / (1 + 276/12) = 85 + 1/3, floored
    assert Fraction(2048) / (1 + Fraction(276, 12)) == Fraction(256, 3)


def test_delsarte_bound_five_cycle():
    _, s = srg_eigenvalues(SrgParams(5, 2, 0, 1))
    assert delsarte_bound(5, 2, s) == 2


_FIVE_CYCLE_S = srg_eigenvalues(SrgParams(5, 2, 0, 1))[1]


@settings(max_examples=300)
@given(
    v=st.integers(1, 10**6),
    k=st.integers(1, 10**5),
    s=st.one_of(
        st.integers(max_value=-1),
        st.fractions(max_value=0, max_denominator=10**6).filter(lambda s: s < 0),
        st.floats(max_value=0, exclude_max=True, allow_infinity=False, allow_nan=False),
        st.just(_FIVE_CYCLE_S),
    ),
)
def test_delsarte_bound_matches_the_rational_formula(v, k, s):
    """The package floors one integer quotient; the oracle divides Fractions."""
    assert delsarte_bound(v, k, s) == delsarte_bound_ref(v, k, s)


_NOT_AN_EIGENVALUE = [float("nan"), float("-inf"), "x", None]


@pytest.mark.parametrize("s", [-12, np.int64(-12), np.int32(-12), np.float64(-12.0), *_NOT_AN_EIGENVALUE])
def test_delsarte_bound_takes_numpy_scalars(s):
    if any(s is bad for bad in _NOT_AN_EIGENVALUE):
        with pytest.raises(DomainError, match="^smallest eigenvalue must be a finite number, got "):
            delsarte_bound(2048, 276, s)
        return
    assert delsarte_bound(2048, 276, s) == 85
    with pytest.raises(DomainError):
        delsarte_bound(2048, 276, -s)


def test_delsarte_bound_domain_errors():
    with pytest.raises(DomainError):
        delsarte_bound(2048, 276, 12)
    with pytest.raises(DomainError):
        delsarte_bound(2048, 276, 0)
    with pytest.raises(DomainError):
        delsarte_bound(2048, 0, -12)


def test_eigenvalues_target():
    assert srg_eigenvalues(TARGET_PARAMS) == (20, -12)


def test_eigenvalues_of_numpy_parameters_are_python_ints():
    roots = srg_eigenvalues(SrgParams(*map(np.int64, TARGET_PARAMS)))
    assert roots == (20, -12)
    assert [type(x) for x in roots] == [int, int]


def test_eigenvalues_solve_quadratic():
    # roots of x^2 - 8x - 240
    r, s = srg_eigenvalues(TARGET_PARAMS)
    for x in (r, s):
        assert x * x - 8 * x - 240 == 0


def test_eigenvalues_five_cycle_irrational():
    r, s = srg_eigenvalues(SrgParams(5, 2, 0, 1))
    assert abs(r - 0.6180339887) < 1e-9
    assert abs(s + 1.6180339887) < 1e-9


# ------------------------------------------------------------ build path


def test_build_graph_matches_oracle_rows(code, reps, graph):
    # row of a random vertex recomputed through the definition oracle
    rng = random.Random(19)
    enc = reps
    for _ in range(3):
        u = rng.randrange(N_VERTICES)
        xs = np.full(N_VERTICES, enc[u], dtype=np.uint32)
        oracle_row = adjacent_many_oracle(code, xs, enc)
        oracle_row[u] = False
        assert np.array_equal(graph.row_bits(u), oracle_row)


def test_build_graph_holds_no_bool_matrix(code, reps, graph):
    weight6_distance_table(code)  # the table is cached per code: warm it
    tracemalloc.start()
    try:
        build_graph(code, reps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n bool matrix is 4 MiB
    assert peak < N_VERTICES * N_VERTICES


def test_cold_build_keeps_only_its_rows_and_table(reps):
    code = build_code()  # fresh, so the weight-6 table is cold
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(code, reps)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the rows are 0.5 MiB and the table 0.13 MiB; the 134,596 weight-6
    # vectors, 0.51 MiB more, are freed with the case rule's differences
    assert kept < 0.75 * 2**20
    assert g.n == N_VERTICES


def test_cold_build_makes_the_weight6_vectors_once(reps, monkeypatch):
    made, make = [], coset_graph.vectors_of_weight

    def spy(w):
        values = make(w)
        if w == 6:
            assert not made or made[-1]() is values  # the case rule's, still held
            made.append(weakref.ref(values))
        return values

    gc.collect()  # a frame kept by an earlier test's traceback may hold weight-6 vectors
    monkeypatch.setattr(coset_graph, "vectors_of_weight", spy)
    build_graph(build_code(), reps)  # a fresh code: its table is made here too
    assert len(made) == 2
    gc.collect()
    assert all(ref() is None for ref in made)


def test_vectors_of_weight_are_shared_while_held():
    gc.collect()  # as above: only this test's array may be alive
    z6 = coset_graph.vectors_of_weight(6)
    assert coset_graph.vectors_of_weight(6) is z6
    assert not z6.flags.writeable
    held = weakref.ref(z6)
    del z6
    gc.collect()
    assert held() is None


def test_build_graph_is_deterministic(code, reps, graph):
    again = build_graph(code, reps)
    assert np.array_equal(again.packed, graph.packed)


# sha256 of Graph.packed for the default generators: the cache-file contract
PACKED_SHA256 = "2d84770e55ec6da007c8af5efa50353ad0d93424114eb8d40761d5e14d8abfba"


def test_packed_rows_are_pinned(graph):
    assert hashlib.sha256(graph.packed.tobytes()).hexdigest() == PACKED_SHA256


def test_build_from_non_systematic_generators(reps):
    rng = random.Random(23)
    code = build_code(_non_systematic_rows(rng))
    g = build_graph(code, reps)
    enc = reps
    for u in rng.sample(range(N_VERTICES), 3):
        oracle_row = adjacent_many_oracle(code, np.full(N_VERTICES, enc[u], dtype=np.uint32), enc)
        oracle_row[u] = False
        assert np.array_equal(g.row_bits(u), oracle_row)
    assert verify_srg(g) == TARGET_PARAMS


def test_missing_octad_fires_the_distance_guard(code, reps, code_missing_an_octad):
    # a weight-6 subset of the dropped octad meets every other octad in at
    # most 4 points, so its distance to the remaining ones is at least 6;
    # the guard names the ascending-first vector the full scan puts outside {2, 4}
    octad = int(code.weight8[0])
    z6 = coset_graph.vectors_of_weight(6)
    brute = min_coset_distance_bulk(code_missing_an_octad, z6)
    first = int(np.flatnonzero((brute != 2) & (brute != 4))[0])
    with pytest.raises(InvalidDistanceError) as info:
        build_graph(code_missing_an_octad, reps)
    assert info.value.vector == int(z6[first])
    assert info.value.distance == int(brute[first])
    assert info.value.distance >= 6
    assert info.value.vector & ~octad == 0


@pytest.mark.parametrize("w", range(7))
def test_vectors_of_weight_match_combinations(w):
    values = coset_graph.vectors_of_weight(w)
    assert values.dtype == np.uint32
    assert np.array_equal(values, vectors_of_weight_ref(w))


def _code_with_rep_syndromes(rewrite, count=N_VERTICES):
    """A fresh code whose `syndromes` passes those of any `count` vectors,
    by default the representatives', through `rewrite`."""
    fresh = build_code()
    plain = fresh.syndromes

    def syndromes(xs):
        out = plain(xs)
        if len(out) == count:
            out = rewrite(out.copy())
        return out

    fresh.syndromes = syndromes
    return fresh


def test_build_graph_refuses_two_representatives_with_one_syndrome(reps):
    def collide(syn):
        syn[7] = syn[3]
        return syn

    with pytest.raises(InternalConsistencyError, match=r"^representatives 3 and 7 lie in the same coset$"):
        build_graph(_code_with_rep_syndromes(collide), reps)


def test_build_graph_refuses_a_vertex_of_the_wrong_degree(reps, monkeypatch):
    # a connection set one syndrome short, past the case-rule check: the rows
    # stay symmetric and loop-free, so only the degree check sees it
    def merge(syn):
        syn[0] = syn[1]
        return syn

    monkeypatch.setattr(coset_graph, "_check_case_rule", lambda code, connection: None)
    with pytest.raises(GraphConstructionError, match=r"^vertex 0 has degree 275, expected 276$"):
        build_graph(_code_with_rep_syndromes(merge, count=DEGREE), reps)


def test_build_graph_refuses_a_neighbour_syndrome_that_names_no_vertex(code, reps):
    # an odd syndrome for vertex 1 leaves its own even syndrome unnamed; vertex 0
    # (the zero vector) is adjacent to vertex 1 (a weight-2 vector), so it is
    # the first vertex to reach it
    odd = int(code.syndromes(np.uint32(1)))

    def move(syn):
        syn[1] = odd
        return syn

    unnamed = int(code.syndromes(reps[1]))
    with pytest.raises(GraphConstructionError, match=f"vertex 0 has neighbour syndrome {unnamed}, which names no vertex"):
        build_graph(_code_with_rep_syndromes(move), reps)


def test_case_rule_is_checked_against_syndromes(code, reps, monkeypatch):
    z6 = coset_graph.vectors_of_weight(6)
    monkeypatch.setattr(
        coset_graph, "weight6_distance_table", lambda code: np.full(len(z6), 4, dtype=np.uint8)
    )
    with pytest.raises(InternalConsistencyError, match="21252 of 145499"):
        build_graph(code, reps)
