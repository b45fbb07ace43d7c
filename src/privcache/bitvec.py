"""Fixed-length bit strings over GF(2), backed by Python integers."""

from __future__ import annotations

import random
from typing import Iterable

# byte b with its bit order reversed: turns little-endian int bytes into
# the MSB-first wire layout and back
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# characters other than "0" and "1" survive translate() with this table
_NOT_BITS = str.maketrans("", "", "01")


class Bits:
    """An immutable bit string of a fixed length.

    Bit ``j`` of the string (``j`` starting at 0) is stored at integer bit
    position ``j``, so ``value >> j & 1`` reads it.  XOR is only defined
    between strings of equal length.  The byte and text codecs are linear
    time: one int conversion plus one table pass, byte-identical to
    packing bit by bit (bit 0 at the MSB of the first byte).
    """

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError(f"negative bit length {length}")
        if value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} bits")
        self.value = value
        self.length = length

    @classmethod
    def zeros(cls, length: int) -> Bits:
        return cls(0, length)

    @classmethod
    def random(cls, length: int, rng: random.Random) -> Bits:
        return cls(rng.getrandbits(length) if length else 0, length)

    @classmethod
    def from01(cls, text: str) -> Bits:
        stray = text.translate(_NOT_BITS)
        if stray:
            raise ValueError(f"invalid bit character {stray[0]!r}")
        return cls(int(text[::-1], 2) if text else 0, len(text))

    @classmethod
    def concat(cls, parts: Iterable[Bits]) -> Bits:
        """Join strings in order, the first part at bit 0, in linear time."""
        return cls._join((part.value, part.length) for part in parts)

    @classmethod
    def from_blocks(cls, values: Iterable[int], width: int) -> Bits:
        """Inverse of `block_values`: `width`-bit ints joined in order, the
        first at bit 0; a value wider than `width` raises ValueError."""
        return cls._join((value, width) for value in values)

    @classmethod
    def _join(cls, pieces: Iterable[tuple[int, int]]) -> Bits:
        """Join (value, bit length) pieces, the first at bit 0.

        Whole bytes go to a little-endian buffer as soon as they are
        complete, so each piece is shifted past the fewer than 8 bits still
        pending from its predecessors, never past the whole prefix.
        """
        out = bytearray()
        pending = 0  # bits [8 * len(out), length), fewer than 8 between pieces
        length = 0
        for value, size in pieces:
            if value >> size:
                raise ValueError(f"value does not fit in {size} bits")
            pending |= value << (length & 7)
            length += size
            whole = (length >> 3) - len(out)
            if whole:
                out += pending.to_bytes(whole + 1, "little")
                pending = out.pop()
        if length & 7:
            out.append(pending)
        return cls(int.from_bytes(out, "little"), length)

    def bit(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(f"bit {j} out of range for length {self.length}")
        return self.value >> j & 1

    def block(self, i: int, width: int) -> Bits:
        """The i-th consecutive block of `width` bits."""
        if width <= 0 or (i + 1) * width > self.length:
            raise IndexError(f"block {i} of width {width} out of range")
        return Bits(self.value >> (i * width) & ((1 << width) - 1), width)

    def block_values(self, width: int) -> tuple[int, ...]:
        """Every consecutive block of `width` bits, as ints, in one pass.

        Equal to ``block(i, width).value`` for each i, but the string is
        converted to bytes once and each block is cut from a short slice.
        """
        if width <= 0 or self.length % width:
            raise ValueError(f"length {self.length} does not split into blocks of {width}")
        raw = self.value.to_bytes((self.length + 7) >> 3, "little")
        mask = (1 << width) - 1
        return tuple(
            int.from_bytes(raw[start >> 3 : (start + width + 7) >> 3], "little") >> (start & 7) & mask
            for start in range(0, self.length, width)
        )

    def to01(self) -> str:
        # zero-padded binary is MSB first; the slice drops format's "0" for length 0
        return f"{self.value:0{self.length}b}"[::-1][: self.length]

    def to_bytes(self) -> bytes:
        """Byte-pack the string, bit 0 at the MSB of the first byte."""
        return self.value.to_bytes((self.length + 7) >> 3, "little").translate(_REVERSED)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> Bits:
        if len(data) != (length + 7) // 8:
            raise ValueError(f"expected {(length + 7) // 8} bytes for {length} bits")
        if length & 7 and data[-1] & (0xFF >> (length & 7)):
            raise ValueError("nonzero pad bits after the last bit")
        # bytes() takes any bytes-like input and returns a bytes object as is
        return cls(int.from_bytes(bytes(data).translate(_REVERSED), "little"), length)

    def __xor__(self, other: Bits) -> Bits:
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return Bits(self.value ^ other.value, self.length)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bits)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        if self.length <= 64:
            return f"Bits({self.to01()!r})"
        return f"Bits(<{self.length} bits>)"
