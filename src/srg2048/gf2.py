"""Arithmetic on length-24 binary vectors.

A vector is a plain unsigned integer below 2**24; no wrapper class.  The
written form is a 24-character '0'/'1' string whose leftmost character is
bit 23 and whose rightmost character ("the last position") is bit 0.  With
that convention the canonical weight-4 coset representatives are exactly
the weight-4 values with the low bit set.

Weight is int.bit_count and the sum, also the difference, is x ^ y.
All functions here are pure and safe to call from anywhere.
"""

from __future__ import annotations

from .errors import VecParseError

Vec24 = int

VEC_BITS = 24
VEC_LIMIT = 1 << VEC_BITS


def parse_vec(s: str) -> Vec24:
    """Parse a 24-character '0'/'1' string into its integer encoding."""
    if len(s) != VEC_BITS:
        raise VecParseError(
            f"expected {VEC_BITS} characters, got {len(s)}: {s!r}"
        )
    value = 0
    for pos, ch in enumerate(s, start=1):
        if ch == "1":
            value |= 1 << (VEC_BITS - pos)
        elif ch != "0":
            raise VecParseError(
                f"invalid character {ch!r} at position {pos} (must be '0' or '1')"
            )
    return value
