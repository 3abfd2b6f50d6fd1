import random

import pytest

from pdzip.bits import Bits, concat
from naive import bits


def test_empty():
    b = Bits()
    assert len(b) == 0
    assert b.to01() == ""
    assert b.as_int() == 0
    assert b.packed_bytes() == b""


def test_indexing():
    b = bits("10110")
    assert len(b) == 5
    assert [b[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert list(b) == [1, 0, 1, 1, 0]
    assert b.to01() == "10110"
    with pytest.raises(IndexError):
        b[5]
    with pytest.raises(IndexError):
        b[-1]


def test_from_int():
    assert Bits.from_int(0b101, 3).to01() == "101"
    assert Bits.from_int(1, 5).to01() == "00001"
    assert Bits.from_int(0, 4).to01() == "0000"
    with pytest.raises(ValueError):
        Bits.from_int(8, 3)
    with pytest.raises(ValueError):
        Bits.from_int(-1, 3)


def test_packing_is_msb_first_zero_padded():
    b = bits("10110")
    # 10110 -> byte 1011_0000
    assert b.packed_bytes() == bytes([0b10110000])
    b2 = bits("1" * 9)
    assert b2.packed_bytes() == bytes([0xFF, 0x80])


def test_ctor_validates_padding_and_length():
    Bits(bytes([0b10110000]), 5)
    with pytest.raises(ValueError):
        Bits(bytes([0b10110100]), 5)  # nonzero pad bit
    with pytest.raises(ValueError):
        Bits(bytes([0xFF]), 9)  # too few bytes
    with pytest.raises(ValueError):
        Bits(bytes([0xFF, 0x00]), 7)  # too many bytes
    with pytest.raises(ValueError):
        Bits(b"", -1)


def test_as_int():
    assert bits("101").as_int() == 5
    assert bits("00101").as_int() == 5
    assert Bits().as_int() == 0


def test_equality_and_hash():
    a = bits("0110")
    b = Bits.from_int(6, 4)
    assert a == b
    assert hash(a) == hash(b)
    assert a != bits("110")
    assert a != "0110"


def test_concat():
    a = bits("101")
    b = bits("01")
    assert concat([a, b]).to01() == "10101"
    assert concat([a, b, a]).to01() == "10101101"
    assert concat([Bits(), a, Bits()]) == a
    assert concat([]) == Bits()


def test_slice_and_uint():
    b = bits("11010010")
    assert b.slice(2, 6).to01() == "0100"
    assert b.slice(0, 0) == Bits()
    assert b.uint(2, 4) == 0b0100
    assert b.uint(0, 8) == 0b11010010
    with pytest.raises(ValueError):
        b.slice(3, 2)
    with pytest.raises(ValueError):
        b.uint(5, 4)


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        nbits = rng.randint(0, 200)
        s = "".join(rng.choice("01") for _ in range(nbits))
        b = bits(s)
        assert b.to01() == s
        assert Bits(b.packed_bytes(), nbits) == b
        if nbits:
            assert Bits.from_int(b.as_int(), nbits) == b
        lo = rng.randint(0, nbits)
        hi = rng.randint(lo, nbits)
        assert b.slice(lo, hi).to01() == s[lo:hi]
        assert b.uint(lo, hi - lo) == int(s[lo:hi] or "0", 2)
