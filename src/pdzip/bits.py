"""Immutable bit sequences, packed MSB-first.

Every payload in this package is a sequence of bits whose length is not a
whole number of bytes, so the packing rule lives in one place: bit 0 is the
most significant bit of byte 0, and any unused low bits of the final byte
are zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class Bits:
    """An immutable sequence of 0/1 values."""

    __slots__ = ("_data", "_nbits")

    def __init__(self, data: bytes = b"", nbits: int = 0):
        if nbits < 0:
            raise ValueError("negative bit length")
        if len(data) != (nbits + 7) // 8:
            raise ValueError("byte buffer does not match bit length")
        pad = 8 * len(data) - nbits
        if pad and (data[-1] & ((1 << pad) - 1)):
            raise ValueError("padding bits must be zero")
        self._data = bytes(data)
        self._nbits = nbits

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "Bits":
        """The low `nbits` bits of `value`, most significant first."""
        if nbits < 0:
            raise ValueError("negative bit length")
        if value < 0 or value >> nbits:
            raise ValueError("value does not fit in the requested width")
        pad = (8 - nbits % 8) % 8
        data = (value << pad).to_bytes((nbits + 7) // 8, "big")
        return cls(data, nbits)

    # ------------------------------------------------------------------
    # sequence protocol

    def __len__(self) -> int:
        return self._nbits

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._nbits:
            raise IndexError("bit index out of range")
        return (self._data[i >> 3] >> (7 - (i & 7))) & 1

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to01())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return self._nbits == other._nbits and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._data, self._nbits))

    def __repr__(self) -> str:
        shown = self.to01()
        if len(shown) > 40:
            shown = shown[:37] + "..."
        return f"Bits({shown!r}, nbits={self._nbits})"

    # ------------------------------------------------------------------
    # conversions

    def to01(self) -> str:
        if self._nbits == 0:
            return ""
        return format(self.as_int(), f"0{self._nbits}b")

    def as_int(self) -> int:
        """The bits read as a big-endian integer (0 for the empty sequence)."""
        if self._nbits == 0:
            return 0
        pad = 8 * len(self._data) - self._nbits
        return int.from_bytes(self._data, "big") >> pad

    def packed_bytes(self) -> bytes:
        """MSB-first packing, final byte zero-padded."""
        return self._data

    def slice(self, start: int, stop: int) -> "Bits":
        if not 0 <= start <= stop <= self._nbits:
            raise ValueError("bad slice bounds")
        return Bits.from_int(self.uint(start, stop - start), stop - start)

    def uint(self, start: int, width: int) -> int:
        """The unsigned integer held in bits [start, start+width).

        Only the bytes that cover the field are read, so cutting a long
        sequence into fields costs its length once, not once per field.
        """
        if width == 0:
            return 0
        stop = start + width
        if not 0 <= start <= stop <= self._nbits:
            raise ValueError("bad field bounds")
        end = (stop + 7) >> 3
        chunk = int.from_bytes(self._data[start >> 3:end], "big")
        return (chunk >> (8 * end - stop)) & ((1 << width) - 1)


def concat(parts: Iterable[Bits]) -> Bits:
    """Concatenate many Bits without quadratic rebuilding."""
    total = 0
    nbits = 0
    for p in parts:
        total = (total << len(p)) | p.as_int()
        nbits += len(p)
    return Bits.from_int(total, nbits)
