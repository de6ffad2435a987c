import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from srg2048.coset_graph import (
    DEGREE,
    N_VERTICES,
    TARGET_PARAMS,
    WEIGHT2_VECTORS,
    Graph,
    SrgParams,
    adjacent,
    adjacent_by_translates,
    adjacent_many,
    adjacent_many_oracle,
    build_graph,
    check_rep_uniqueness,
    coset_vertex,
    delsarte_bound,
    is_representative,
    min_coset_distance,
    min_coset_distance_bulk,
    rep_of,
    rep_of_scan,
    srg_eigenvalues,
    translation_map,
    verify_srg,
    weight6_distance_census,
)
from srg2048.errors import (
    DomainError,
    GraphConstructionError,
    VerificationError,
)


# ---------------------------------------------------------------- reps


def test_rep_count(reps):
    assert len(reps) == N_VERTICES


def test_rep_class_counts(reps):
    assert reps.class_counts() == {0: 1, 2: 276, 4: 1771}


def test_rep_class_sizes_are_binomials():
    from math import comb

    assert comb(24, 2) == 276
    assert comb(23, 3) == 1771
    assert 1 + 276 + 1771 == 2048


def test_zero_is_a_representative(reps):
    assert reps.try_index(0) == 0


def test_weight4_needs_low_bit(reps):
    without_low = (1 << 1) | (1 << 2) | (1 << 3) | (1 << 4)
    with_low = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
    assert reps.try_index(without_low) is None
    assert reps.try_index(with_low) is not None
    assert not is_representative(without_low)
    assert is_representative(with_low)


def test_rep_uniqueness_exhaustive(code, reps):
    assert check_rep_uniqueness(code, reps) == N_VERTICES * (N_VERTICES - 1) // 2


def test_rep_differences_even_and_at_most_six(reps):
    z = reps.encodings[:, None] ^ reps.encodings[None, :]
    w = np.bitwise_count(z)
    assert int(w.max()) == 6
    assert not np.any(w & 1)


# ---------------------------------------------------------------- rep_of


def test_rep_of_zero(code, reps):
    assert rep_of(code, reps, 0) == 0


def test_rep_of_codewords_is_zero(code, reps):
    rng = random.Random(5)
    words = code.codewords.tolist()
    for _ in range(200):
        assert rep_of(code, reps, rng.choice(words)) == 0


def test_rep_of_coset_invariance(code, reps):
    rng = random.Random(6)
    words = code.codewords.tolist()
    for _ in range(300):
        x = rng.randrange(1 << 24)
        if bin(x).count("1") % 2 == 1:
            x ^= 1  # force even weight
        c = rng.choice(words)
        assert rep_of(code, reps, x ^ c) == rep_of(code, reps, x)


def test_rep_of_every_weight2_vector_is_itself(code, reps):
    for e in WEIGHT2_VECTORS.tolist():
        assert rep_of(code, reps, e) == e


def test_rep_of_rejects_odd_weight(code, reps):
    with pytest.raises(DomainError, match="odd weight"):
        rep_of(code, reps, 0b111)


def test_rep_of_matches_scan_oracle(code, reps):
    rng = random.Random(9)
    for _ in range(40):
        x = rng.randrange(1 << 24)
        if bin(x).count("1") % 2 == 1:
            x ^= 1
        assert rep_of(code, reps, x) == rep_of_scan(code, reps, x)


# ---------------------------------------------------------- min distance


def test_min_distance_inside_octad_is_two(code):
    rng = random.Random(10)
    octads = code.weight8.tolist()
    for _ in range(100):
        c = rng.choice(octads)
        bits = [b for b in range(24) if (c >> b) & 1]
        drop = rng.sample(bits, 2)
        z = c ^ (1 << drop[0]) ^ (1 << drop[1])
        assert min_coset_distance(code, z) == 2


def test_min_distance_requires_weight_six(code):
    with pytest.raises(DomainError, match="weight-6"):
        min_coset_distance(code, 0b11)


def test_min_distance_matches_full_scan(code):
    # early-exit result equals the brute-force minimum over all 759 words
    rng = random.Random(11)
    zs = []
    for _ in range(10_000):
        bits = rng.sample(range(24), 6)
        z = 0
        for b in bits:
            z |= 1 << b
        zs.append(z)
    brute = min_coset_distance_bulk(code, np.array(zs, dtype=np.uint32))
    for z, expected in zip(zs, brute.tolist()):
        assert min_coset_distance(code, z) == expected


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


# ------------------------------------------------------------- adjacency


def test_self_not_adjacent(code, reps):
    rng = random.Random(12)
    for _ in range(20):
        r = int(reps.encodings[rng.randrange(N_VERTICES)])
        assert not adjacent(code, r, r)


def test_weight2_reps_sharing_a_bit_are_adjacent(code):
    assert adjacent(code, 0b11, 0b101)  # {0,1} vs {0,2}: difference {1,2}


def test_disjoint_weight2_reps_not_adjacent(code):
    assert not adjacent(code, 0b11, 0b1100)


def test_adjacent_rejects_non_representative(code):
    with pytest.raises(DomainError, match="not a coset representative"):
        adjacent(code, 0b111, 0)


def test_adjacent_matches_definition_oracle_scalar(code, reps):
    rng = random.Random(13)
    enc = reps.encodings.tolist()
    for _ in range(400):
        x, y = rng.choice(enc), rng.choice(enc)
        assert adjacent(code, x, y) == adjacent_by_translates(code, x, y)


def test_adjacent_many_matches_oracle(code, reps):
    rng = np.random.default_rng(14)
    idx = rng.integers(0, N_VERTICES, size=(2, 10_000))
    xs = reps.encodings[idx[0]]
    ys = reps.encodings[idx[1]]
    assert np.array_equal(
        adjacent_many(code, xs, ys), adjacent_many_oracle(code, xs, ys)
    )


def test_adjacent_many_rejects_non_representatives(code):
    xs = np.array([0b111], dtype=np.uint32)
    ys = np.array([0], dtype=np.uint32)
    with pytest.raises(DomainError):
        adjacent_many(code, xs, ys)


# ------------------------------------------------------------- the graph


def test_degrees_all_276(graph):
    assert all(graph.degree(u) == DEGREE for u in range(graph.n))


def test_edge_count(graph):
    assert graph.edge_count() == N_VERTICES * DEGREE // 2


def test_neighbors_of_vertex_zero_are_weight2_reps(graph, reps):
    expected = np.flatnonzero(np.bitwise_count(reps.encodings) == 2)
    assert np.array_equal(graph.neighbors(0), expected.astype(np.int32))
    assert len(expected) == 276


def test_rows_symmetric_sample(graph):
    rng = random.Random(15)
    for _ in range(500):
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        assert graph.has_edge(u, v) == graph.has_edge(v, u)


def test_row_int_matches_has_edge(graph):
    rng = random.Random(16)
    for _ in range(50):
        u = rng.randrange(graph.n)
        row = graph.row_int(u)
        for _ in range(20):
            v = rng.randrange(graph.n)
            assert bool((row >> v) & 1) == graph.has_edge(u, v)


def test_vertex_translation_is_automorphism(code, reps, graph):
    rng = random.Random(17)
    adj = graph.adjacency_bool()
    for _ in range(3):
        t = rng.randrange(1 << 24)
        if bin(t).count("1") % 2 == 1:
            t ^= 1
        perm = translation_map(code, reps, t)
        assert sorted(perm.tolist()) == list(range(N_VERTICES))
        assert np.array_equal(adj[np.ix_(perm, perm)], adj)


def test_coset_vertex_consistency(code, reps, graph):
    rng = random.Random(18)
    for _ in range(100):
        u = rng.randrange(N_VERTICES)
        x = int(reps.encodings[u])
        assert coset_vertex(code, reps, x) == u


# ----------------------------------------------------------- verify_srg


def test_verify_target_graph(graph):
    assert verify_srg(graph) == TARGET_PARAMS


def test_verify_five_cycle(cycle5):
    assert verify_srg(cycle5).as_tuple() == (5, 2, 0, 1)


def test_verify_petersen(petersen):
    assert verify_srg(petersen).as_tuple() == (10, 3, 0, 1)


def test_verify_rejects_irregular():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(VerificationError, match="degree not constant"):
        verify_srg(g)


def test_verify_rejects_six_cycle():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(VerificationError, match="mu not constant") as info:
        verify_srg(g)
    assert info.value.witness is not None


def test_verify_rejects_degenerate_complete():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(VerificationError, match="degenerate"):
        verify_srg(g)


def test_graph_constructors_reject_bad_input():
    with pytest.raises(GraphConstructionError, match="loop"):
        Graph.from_edges(3, [(0, 0)])
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # not symmetric
    with pytest.raises(GraphConstructionError, match="symmetric"):
        Graph.from_bool_matrix(bad)


def test_rows_are_padded_to_whole_words(cycle5, petersen, graph):
    for g in (cycle5, petersen):
        assert g.packed.shape == (g.n, 8)
        assert g.words.shape == (g.n, 1)
        assert np.array_equal(
            np.unpackbits(g.packed, axis=1, bitorder="little")[:, : g.n],
            g.adjacency_bool(),
        )
        assert not np.unpackbits(g.packed, axis=1, bitorder="little")[:, g.n :].any()
        assert g.degrees().tolist() == [g.degree(u) for u in range(g.n)]
    # 2048 bits are 32 whole words: no padding, so cache files stay valid
    assert graph.packed.shape == (N_VERTICES, 256)
    assert np.array_equal(graph.words.view(np.uint8), graph.packed)
    assert (graph.degrees() == DEGREE).all()


def test_graph_rejects_misshapen_rows():
    with pytest.raises(GraphConstructionError, match="shape"):
        Graph(np.zeros((5, 1), dtype=np.uint8), 5)
    with pytest.raises(GraphConstructionError, match="uint8"):
        Graph(np.zeros((5, 8), dtype=np.int64), 5)


def test_feasibility_identity():
    lhs, rhs = TARGET_PARAMS.feasibility_identity()
    assert lhs == rhs == 63756
    assert TARGET_PARAMS.is_feasible()
    assert not SrgParams(10, 3, 1, 1).is_feasible()


# -------------------------------------------------- bound and eigenvalues


def test_delsarte_bound_target():
    assert delsarte_bound(2048, 276, -12) == 85


def test_delsarte_bound_exact_fraction():
    # 2048 / (1 + 276/12) = 85 + 1/3, floored
    assert Fraction(2048) / (1 + Fraction(276, 12)) == Fraction(256, 3)


def test_delsarte_bound_five_cycle():
    _, s = srg_eigenvalues(SrgParams(5, 2, 0, 1))
    assert delsarte_bound(5, 2, s) == 2


def test_delsarte_bound_domain_errors():
    with pytest.raises(DomainError):
        delsarte_bound(2048, 276, 12)
    with pytest.raises(DomainError):
        delsarte_bound(2048, 276, 0)
    with pytest.raises(DomainError):
        delsarte_bound(2048, 0, -12)


def test_eigenvalues_target():
    assert srg_eigenvalues(TARGET_PARAMS) == (20, -12)


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
    enc = reps.encodings
    for _ in range(3):
        u = rng.randrange(N_VERTICES)
        xs = np.full(N_VERTICES, enc[u], dtype=np.uint32)
        oracle_row = adjacent_many_oracle(code, xs, enc)
        oracle_row[u] = False
        assert np.array_equal(graph.adjacency_bool()[u], oracle_row)


def test_build_graph_is_deterministic(code, reps, graph):
    again = build_graph(code, reps)
    assert np.array_equal(again.packed, graph.packed)
