import pytest
from hypothesis import given
from hypothesis import strategies as st

from srg2048.errors import DomainError, VecParseError
from srg2048.gf2 import ALL_ONES, add, format_vec, parse_vec, weight

vectors = st.integers(min_value=0, max_value=ALL_ONES)


def test_parse_zero():
    assert parse_vec("0" * 24) == 0


def test_parse_last_position_is_low_bit():
    assert parse_vec("0" * 23 + "1") == 1


def test_parse_first_position_is_high_bit():
    assert parse_vec("1" + "0" * 23) == 1 << 23


def test_parse_rejects_bad_length():
    with pytest.raises(VecParseError, match="24 characters"):
        parse_vec("0101")


def test_parse_rejects_bad_character():
    with pytest.raises(VecParseError, match="position 3"):
        parse_vec("01x101010101010101010101")


def test_format_rejects_out_of_range():
    with pytest.raises(DomainError):
        format_vec(1 << 24)
    with pytest.raises(DomainError):
        format_vec(-1)


@given(vectors)
def test_format_parse_roundtrip(x):
    assert parse_vec(format_vec(x)) == x


@given(vectors)
def test_add_self_is_zero(x):
    assert add(x, x) == 0


@given(vectors)
def test_add_zero_identity(x):
    assert add(x, 0) == x


@given(vectors, vectors)
def test_add_serves_as_subtraction(x, y):
    assert add(add(x, y), y) == x


@given(vectors, vectors, vectors)
def test_add_commutative_associative(x, y, z):
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))


@given(vectors, vectors)
def test_weight_of_sum_identity(x, y):
    assert weight(add(x, y)) == weight(x) + weight(y) - 2 * weight(x & y)


def test_weight_of_sum_identity_thousand_pairs():
    import random

    rng = random.Random(1)
    for _ in range(1000):
        x, y = rng.randrange(1 << 24), rng.randrange(1 << 24)
        assert weight(add(x, y)) == weight(x) + weight(y) - 2 * weight(x & y)


@given(vectors, vectors)
def test_even_weights_closed_under_add(x, y):
    if weight(x) % 2 == 0 and weight(y) % 2 == 0:
        assert weight(add(x, y)) % 2 == 0


def test_weight_extremes():
    assert weight(0) == 0
    assert weight(ALL_ONES) == 24
