import pytest
from hypothesis import given
from hypothesis import strategies as st

from srg2048.errors import VecParseError
from srg2048.gf2 import VEC_LIMIT, parse_vec

vectors = st.integers(min_value=0, max_value=VEC_LIMIT - 1)


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


@given(vectors)
def test_format_parse_roundtrip(x):
    assert parse_vec(format(x, "024b")) == x
