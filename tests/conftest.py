import itertools

import numpy as np
import pytest

from srg2048 import build_code, build_graph, build_reps

from oracles import graph_from_bool_matrix, graph_from_edges


@pytest.fixture(scope="session")
def code():
    return build_code()


@pytest.fixture(scope="session")
def reps():
    return build_reps()


@pytest.fixture(scope="session")
def graph(code, reps):
    return build_graph(code, reps)


@pytest.fixture
def code_missing_an_octad():
    """A fresh code whose weight-8 list lacks its first octad."""
    code = build_code()
    code.weight8 = code.weight8[1:]
    return code


@pytest.fixture(scope="session")
def cycle5():
    return graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture(scope="session")
def petersen():
    # Kneser graph on 2-subsets of a 5-set, disjointness adjacency
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return graph_from_edges(10, edges)


@pytest.fixture(scope="session")
def random300():
    """A seeded symmetric graph on 300 vertices: a band of 256 rows and a
    partial band of 44."""
    upper = np.triu(np.random.default_rng(300).random((300, 300)) < 0.5, k=1)
    return graph_from_bool_matrix(upper | upper.T)
