"""Golay-coset strongly regular graph srg(2048, 276, 44, 36).

Construction from the even-weight cosets of the extended binary Golay
code, exhaustive parameter verification, maximal-coclique checking and
search, and readers/writers for the binary vertex-set container and the
GAP export.
"""

from .coclique import (
    COCLIQUE_SIZE_CAP,
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    SearchConfig,
    VertexSet,
    external_profile,
    is_coclique,
    is_maximal,
    pair_invariant,
    search_maximal,
)
from .coset_graph import (
    DEGREE,
    N_VERTICES,
    TARGET_PARAMS,
    Graph,
    SrgParams,
    build_graph,
    build_reps,
    delsarte_bound,
    srg_eigenvalues,
    verify_srg,
)
from .gf2 import Vec24, parse_vec
from .golay import DEFAULT_GENERATOR_ROWS, GolayCode, build_code
from .io_formats import export_edge_list, export_gap, read_dat, write_dat

__version__ = "0.1.0"
