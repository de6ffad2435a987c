"""The extended binary Golay code.

The code is the 12-dimensional linear subspace of GF(2)^24 whose 4096 words
have weights 0, 8, 12, 16, 24 with multiplicities 1, 759, 2576, 759, 1.
That weight census characterizes the code up to coordinate permutation, so
`build_code` accepts any 12 generator rows and validates the census instead
of trusting the caller; every matrix that passes yields an isomorphic
coset graph.

Such a code is doubly even, hence self-orthogonal, and its dimension is
half its length, so it is self-dual: its generator rows in any form are
parity checks.  The 12-bit syndrome of x (bit i: the parity of x against
row i) is 0 exactly on the code; x, y share a coset iff syndromes agree.

The built-in default generator matrix is the systematic form [I | B] with
the classical 12x12 bordered circulant B.
"""

from __future__ import annotations

import numpy as np

from .errors import CodeConstructionError, DomainError, FormatError, VecParseError, integer
from .gf2 import VEC_LIMIT, parse_vec

# Systematic [I | B] generator rows, written in the package's string form.
DEFAULT_GENERATOR_ROWS: tuple[str, ...] = (
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

EXPECTED_WEIGHT_DISTRIBUTION: dict[int, int] = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

CODE_DIMENSION = 12
CODE_SIZE = 1 << CODE_DIMENSION
SYNDROME_LIMIT = 1 << CODE_DIMENSION  # one syndrome bit per generator row
# the most characters a generator file may hold: a valid one has about 300, and
# reading LIMIT + 1 takes one 8 KiB chunk, as iterating over the lines does
GENERATOR_FILE_LIMIT = 1 << 12


def census(values: np.ndarray) -> dict[int, int]:
    """How often each distinct value occurs, keyed in ascending order.

    The values are small non-negative integers (weights, distances,
    neighbour counts), so one bincount tallies them without a sort.
    """
    tally = np.bincount(values)
    distinct = np.flatnonzero(tally)
    return dict(zip(distinct.tolist(), tally[distinct].tolist()))


class GolayCode:
    """Immutable container for the enumerated code, holding only its own data.

    Attributes:
        generators: the 12 generator rows as integer encodings.
        codewords:  all 4096 words, ascending, dtype uint32.
        weight8:    the 759 words of weight 8, ascending, dtype uint32.
    Membership is syndromes(x) == 0; coset questions compare syndromes.
    Tables derived from the code are cached per code in `coset_graph`.
    """

    def __init__(self, generators: tuple[int, ...], codewords: np.ndarray):
        self.generators = generators
        self.codewords = codewords
        self.weight8 = codewords[np.bitwise_count(codewords) == 8]

    def syndromes(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized syndromes, dtype uint16."""
        xs = np.asarray(xs, dtype=np.uint32)
        if (xs >= VEC_LIMIT).any():
            raise DomainError("vector encoding out of range [0, 2^24)")
        out = np.zeros(xs.shape, dtype=np.uint16)
        for i, g in enumerate(self.generators):
            out |= (np.bitwise_count(xs & np.uint32(g)) & 1).astype(np.uint16) << i
        return out

    def weight_distribution(self) -> dict[int, int]:
        """Exact weight census over all 4096 words."""
        return census(np.bitwise_count(self.codewords))


def build_code(generators: tuple[int, ...] | None = None) -> GolayCode:
    """Enumerate the span of 12 generator rows and validate the census.

    Raises DomainError for a row that is not an integer (a float, str or
    bool), and CodeConstructionError if the rows are dependent (span smaller
    than 4096) or if the weight census differs from the extended Golay
    distribution, naming the first offending weight class.
    """
    if generators is None:
        generators = tuple(parse_vec(row) for row in DEFAULT_GENERATOR_ROWS)
    generators = tuple(integer(g, "generator row") for g in generators)
    if len(generators) != CODE_DIMENSION:
        raise CodeConstructionError(
            f"expected {CODE_DIMENSION} generator rows, got {len(generators)}"
        )
    for i, g in enumerate(generators):
        if not 0 <= g < VEC_LIMIT:
            raise CodeConstructionError(f"generator row {i + 1} out of range: {g}")

    span = np.zeros(1, dtype=np.uint32)
    for g in generators:
        span = np.concatenate([span, span ^ np.uint32(g)])
    codewords = np.sort(span)
    distinct = 1 + np.count_nonzero(codewords[1:] != codewords[:-1])
    if distinct != CODE_SIZE:
        raise CodeConstructionError(
            f"generator rows are not linearly independent: span has "
            f"{distinct} distinct words, expected {CODE_SIZE}"
        )

    weights = census(np.bitwise_count(codewords))
    for w in sorted(set(weights) | set(EXPECTED_WEIGHT_DISTRIBUTION)):
        got = weights.get(w, 0)
        expected = EXPECTED_WEIGHT_DISTRIBUTION.get(w, 0)
        if got != expected:
            raise CodeConstructionError(
                f"weight distribution mismatch at weight {w}: "
                f"got {got} words, expected {expected}"
            )
    return GolayCode(generators, codewords)


def read_generator_file(path: str) -> tuple[int, ...]:
    """Read 12 generator rows (one 24-character '0'/'1' line each, blank
    lines skipped) from an ASCII text file; FormatError for any other content,
    naming the file and, for a bad row, its line (blank lines counted).  No
    more than GENERATOR_FILE_LIMIT + 1 characters are read, so an endless
    input is refused too."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read(GENERATOR_FILE_LIMIT + 1)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not an ASCII text file") from None
    if len(text) > GENERATOR_FILE_LIMIT:
        raise FormatError(f"{path}: longer than {GENERATOR_FILE_LIMIT} characters")
    rows = []
    # split on "\n" alone, as file iteration does; splitlines also splits on form feeds
    for i, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if line:
            try:
                rows.append(parse_vec(line))
            except VecParseError as exc:
                raise VecParseError(f"{path}: line {i}: {exc}") from None
    if len(rows) != CODE_DIMENSION:
        raise FormatError(f"{path}: expected {CODE_DIMENSION} generator rows, got {len(rows)}")
    return tuple(rows)
