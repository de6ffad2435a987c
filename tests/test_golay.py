import random
import re

import numpy as np
import pytest

from srg2048.errors import CodeConstructionError, DomainError, FormatError
from srg2048.gf2 import VEC_LIMIT, parse_vec
from srg2048.golay import (
    DEFAULT_GENERATOR_ROWS,
    EXPECTED_WEIGHT_DISTRIBUTION,
    GENERATOR_FILE_LIMIT,
    build_code,
    read_generator_file,
)

from oracles import min_nonzero_weight


def test_codeword_count(code):
    assert len(code.codewords) == 4096


def test_weight_distribution(code):
    assert code.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_weight_distribution_sums_to_code_size(code):
    assert sum(code.weight_distribution().values()) == 4096


def test_no_odd_weight_words(code):
    assert all(w % 2 == 0 for w in code.weight_distribution())


def test_weight8_count(code):
    assert len(code.weight8) == 759


def test_contains_zero_and_all_ones(code):
    assert code.syndromes(0) == 0
    assert code.syndromes(VEC_LIMIT - 1) == 0


def test_weight_two_vectors_not_in_code(code):
    for a in range(24):
        for b in range(a + 1, 24):
            assert code.syndromes((1 << a) | (1 << b)) != 0


def test_closed_under_add(code):
    rng = random.Random(3)
    words = code.codewords.tolist()
    for _ in range(500):
        c1, c2 = rng.choice(words), rng.choice(words)
        assert code.syndromes(c1 ^ c2) == 0


def test_min_nonzero_weight_is_eight(code):
    assert min_nonzero_weight(code) == 8


def test_contains_rejects_out_of_range(code):
    with pytest.raises(DomainError):
        code.syndromes(1 << 24)
    with pytest.raises(DomainError):
        code.syndromes(np.array([0, 1 << 24]))


def test_contains_many_matches_scalar(code):
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 1 << 24, size=4000, dtype=np.uint32)
    bulk = code.syndromes(xs) == 0
    for x, flag in zip(xs.tolist(), bulk.tolist()):
        assert (code.syndromes(x) == 0) == flag


class _XorBasis:
    """Independent membership oracle: reduction against a leading-bit basis."""

    def __init__(self, rows):
        self.by_lead = {}
        for r in rows:
            self.insert(r)

    def insert(self, v):
        while v:
            lead = v.bit_length() - 1
            if lead not in self.by_lead:
                self.by_lead[lead] = v
                return
            v ^= self.by_lead[lead]

    def member(self, v):
        while v:
            lead = v.bit_length() - 1
            if lead not in self.by_lead:
                return False
            v ^= self.by_lead[lead]
        return True


def test_membership_agrees_with_linear_algebra_oracle(code):
    basis = _XorBasis(code.generators)
    rng = random.Random(7)
    for _ in range(10_000):
        x = rng.randrange(1 << 24)
        assert (code.syndromes(x) == 0) == basis.member(x)


def test_repeated_row_rejected():
    rows = [parse_vec(r) for r in DEFAULT_GENERATOR_ROWS]
    rows[5] = rows[4]
    with pytest.raises(CodeConstructionError, match="not linearly independent"):
        build_code(tuple(rows))


def test_dependent_rows_message_is_pinned():
    rows = [parse_vec(r) for r in DEFAULT_GENERATOR_ROWS]
    rows[11] = rows[10]
    with pytest.raises(CodeConstructionError) as info:
        build_code(tuple(rows))
    assert str(info.value) == (
        "generator rows are not linearly independent: span has 2048 distinct words, "
        "expected 4096"
    )


def test_wrong_span_rejected_by_census():
    # full-rank, but one row corrupted: no longer a Golay generator
    rows = [parse_vec(r) for r in DEFAULT_GENERATOR_ROWS]
    rows[0] ^= 1 << 5
    with pytest.raises(CodeConstructionError, match="weight distribution mismatch"):
        build_code(tuple(rows))


def test_wrong_row_count_rejected():
    rows = tuple(parse_vec(r) for r in DEFAULT_GENERATOR_ROWS[:11])
    with pytest.raises(CodeConstructionError, match="12 generator rows"):
        build_code(rows)


def test_generator_file_roundtrip(tmp_path, code):
    path = tmp_path / "gens.txt"
    path.write_text("\n".join(DEFAULT_GENERATOR_ROWS) + "\n")
    rows = read_generator_file(str(path))
    assert rows == code.generators
    rebuilt = build_code(rows)
    assert np.array_equal(rebuilt.codewords, code.codewords)


def test_generator_file_wrong_count(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("\n".join(DEFAULT_GENERATOR_ROWS[:3]) + "\n")
    with pytest.raises(FormatError, match="expected 12"):
        read_generator_file(str(path))


def test_generator_file_error_counts_blank_lines(tmp_path):
    path = tmp_path / "gens.txt"
    rows = list(DEFAULT_GENERATOR_ROWS)
    rows[1] = "2" * 24
    path.write_text("\n\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 4: invalid character"):
        read_generator_file(str(path))


def test_generator_file_over_the_limit_is_refused(tmp_path, code):
    path = tmp_path / "gens.txt"
    text = "\n".join(DEFAULT_GENERATOR_ROWS) + "\n"
    path.write_text(text + "\n" * (GENERATOR_FILE_LIMIT - len(text)))
    assert read_generator_file(str(path)) == code.generators
    with open(path, "a") as fh:
        fh.write("\n")
    message = f"{path}: longer than {GENERATOR_FILE_LIMIT} characters"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_generator_file(str(path))


def test_generator_file_lines_end_only_at_newlines(tmp_path):
    """A form feed is whitespace inside a line, not a line break, as when
    iterating over the file: the bad row is still on line 2."""
    path = tmp_path / "gens.txt"
    rows = list(DEFAULT_GENERATOR_ROWS)
    rows[1] = "2" * 24
    path.write_text("\f" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: invalid character"):
        read_generator_file(str(path))


def test_expected_distribution_constant():
    assert EXPECTED_WEIGHT_DISTRIBUTION == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
