import random

import pytest

from helpers import xor_all
from privcache.bitvec import Bits


def test_roundtrip_01():
    b = Bits.from01("10110")
    assert b.to01() == "10110"
    assert len(b) == 5
    assert [b.bit(j) for j in range(5)] == [1, 0, 1, 1, 0]


def test_xor_and_equality():
    a = Bits.from01("1100")
    b = Bits.from01("1010")
    assert (a ^ b).to01() == "0110"
    assert a ^ b == b ^ a
    assert a ^ a == Bits.zeros(4)


def test_xor_length_mismatch():
    with pytest.raises(ValueError):
        Bits.from01("11") ^ Bits.from01("111")


def test_value_range_checked():
    with pytest.raises(ValueError):
        Bits(4, 2)
    with pytest.raises(ValueError):
        Bits(-1, 2)
    with pytest.raises(ValueError):
        Bits(0, -1)


def test_concat_and_blocks():
    parts = [Bits.from01("10"), Bits.from01("01"), Bits.from01("11")]
    whole = Bits.concat(parts)
    assert whole.to01() == "100111"
    assert [whole.block(i, 2) for i in range(3)] == parts
    with pytest.raises(IndexError):
        whole.block(3, 2)


def test_bytes_roundtrip():
    rng = random.Random(7)
    for length in (0, 1, 7, 8, 9, 64, 65, 131):
        b = Bits.random(length, rng)
        assert Bits.from_bytes(b.to_bytes(), length) == b


def test_bytes_layout_msb_first():
    # bit 0 of the string lands in the MSB of byte 0
    assert Bits.from01("10000000").to_bytes() == b"\x80"
    assert Bits.from01("00000001").to_bytes() == b"\x01"
    assert Bits.from01("1").to_bytes() == b"\x80"


def test_from_bytes_length_checked():
    with pytest.raises(ValueError):
        Bits.from_bytes(b"\x00\x00", 3)


def test_xor_all_empty_is_zero():
    assert xor_all([], 6) == Bits.zeros(6)


def test_concat_equals_shift_or_fold():
    rng = random.Random(11)
    for _ in range(500):
        widths = [rng.choice((0, 0, 1, 3, 7, 8, 9, 13, 64, rng.randrange(200))) for _ in range(rng.randrange(8))]
        parts = [Bits.random(w, rng) for w in widths]
        value = length = 0
        for part in parts:
            value |= part.value << length
            length += part.length
        assert Bits.concat(parts) == Bits(value, length)


def test_block_values_equal_blocks():
    rng = random.Random(12)
    for width in (1, 3, 8, 13):
        b = Bits.random(7 * width, rng)
        assert b.block_values(width) == tuple(b.block(i, width).value for i in range(7))
    assert Bits.zeros(0).block_values(5) == ()
    with pytest.raises(ValueError):
        Bits.zeros(12).block_values(5)


def test_from_bytes_rejects_nonzero_pad_bits():
    assert Bits.from_bytes(b"\xe0", 3) == Bits.from01("111")
    for data, length in ((b"\xff", 3), (b"\x01", 7), (b"\x00\x40", 9)):
        with pytest.raises(ValueError):
            Bits.from_bytes(data, length)
