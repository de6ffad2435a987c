import itertools

import pytest

from srg2048 import build_code, build_graph, build_reps
from srg2048.coset_graph import Graph


@pytest.fixture(scope="session")
def code():
    return build_code()


@pytest.fixture(scope="session")
def reps():
    return build_reps()


@pytest.fixture(scope="session")
def graph(code, reps):
    return build_graph(code, reps)


@pytest.fixture(scope="session")
def cycle5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture(scope="session")
def petersen():
    # Kneser graph on 2-subsets of a 5-set, disjointness adjacency
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph.from_edges(10, edges)
