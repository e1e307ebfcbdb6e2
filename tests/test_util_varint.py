"""Unit + property tests for the LEB128 varint codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.varint import decode_uvarint, encode_uvarint


class TestUnsigned:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),
            (16383, b"\xff\x7f"),
            (16384, b"\x80\x80\x01"),
            (2**32, b"\x80\x80\x80\x80\x10"),
            (2**64 - 1, b"\xff" * 9 + b"\x01"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert encode_uvarint(value) == encoded
        assert decode_uvarint(encoded) == (value, len(encoded))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80")

    def test_decode_with_offset(self):
        data = b"\xff" + encode_uvarint(300)
        value, pos = decode_uvarint(data, 1)
        assert value == 300 and pos == len(data)

    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        assert decode_uvarint(encoded) == (value, len(encoded))
