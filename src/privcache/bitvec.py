"""Fixed-length bit strings over GF(2), backed by Python integers.

`pack_blocks` / `split_blocks` are the wire form of a run of equal-width
ints (the payload of a cache or broadcast): the same bytes and errors as
`Bits.from_blocks(values, width).to_bytes()` and
`Bits.from_bytes(data, length).block_values(width)`.  When the width is a
whole number of bytes, each block is its own little-endian slice of the
string's bytes, so both directions work on whole-byte fields and never
build the joined int: packing joins the fields, and splitting cuts them
in one struct pass, chunking and int conversion both in C.  Other widths
take the joined-int path.
"""

from __future__ import annotations

import random
import struct
from itertools import chain, repeat
from typing import Iterable

from .combinat import _count

# byte b with its bit order reversed: turns little-endian int bytes into
# the MSB-first wire layout and back
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# characters other than "0" and "1" survive translate() with this table
_NOT_BITS = str.maketrans("", "", "01")
# byte values 0 and 1 as the digits of a base-2 literal, and back
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
# blocks per struct.iter_unpack record in `_split`: one field per record
# gets about half the gain, and 32 to 128 time the same
_GROUP = 64


class Bits:
    """An immutable bit string of a fixed length.

    Bit ``j`` of the string (``j`` starting at 0) is stored at integer bit
    position ``j``, so ``value >> j & 1`` reads it.  XOR is only defined
    between strings of equal length.  The byte and text codecs are linear
    time: one int conversion plus one table pass, byte-identical to
    packing bit by bit (bit 0 at the MSB of the first byte).  Blocks of
    a width divisible by 8 are joined as whole-byte slices and split in
    one struct pass (`from_blocks`, `block_values`), with no shift and no
    mask; 1-bit blocks are joined as one byte each, read back as a base-2
    literal, and split from the base-2 text by one byte translation.
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
        admit_draw(length)
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
        if _aligned(width):
            raw = _little_endian(values, width)
            return cls(int.from_bytes(raw, "little"), len(raw) << 3)
        if width == 1:
            return cls._join_bits(values)
        return cls._join((value, width) for value in values)

    @classmethod
    def _join_bits(cls, values: Iterable[int]) -> Bits:
        """`from_blocks` at width 1: the bits as one byte each, read back
        as a base-2 literal, last bit first, with no per-bit shift."""
        try:
            raw = bytes(values)
        except ValueError:  # negative, or 256 and above
            raw = None
        if raw is None or raw.translate(None, b"\x00\x01"):
            raise ValueError("value does not fit in 1 bits")
        return cls(int(raw[::-1].translate(_BIT_DIGITS), 2) if raw else 0, len(raw))

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
        if width <= 0 or i < 0 or (i + 1) * width > self.length:
            raise IndexError(f"block {i} of width {width} out of range")
        return Bits(self.value >> (i * width) & ((1 << width) - 1), width)

    def block_values(self, width: int) -> tuple[int, ...]:
        """Every consecutive block of `width` bits, as ints, in one pass.

        Equal to ``block(i, width).value`` for each i, but the string is
        converted once: whole-byte blocks are cut in one struct pass
        (`_split`), 1-bit blocks are the base-2 text's digits mapped to
        bytes 0 and 1, and other widths are each cut from a short slice.
        """
        _check_split(self.length, width)
        if width == 1:
            return tuple(self.to01().encode().translate(_DIGIT_BITS))
        raw = self.value.to_bytes((self.length + 7) >> 3, "little")
        if _aligned(width):
            return _split(raw, width)
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
        _check_packed(data, length)
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


def admit_draw(length: int) -> None:
    """Refuse a length `Bits.random` cannot draw, without drawing."""
    if length >= 1 << 31:  # getrandbits takes a C int
        raise ValueError(f"cannot draw {_count(length)} random bits, the limit is 2^31 - 1")


def pack_blocks(values: Iterable[int], width: int) -> bytes:
    """`Bits.from_blocks(values, width).to_bytes()`, with the same errors."""
    if _aligned(width):
        return _little_endian(values, width).translate(_REVERSED)
    return Bits.from_blocks(values, width).to_bytes()


def split_blocks(data: bytes, length: int, width: int) -> tuple[int, ...]:
    """`Bits.from_bytes(data, length).block_values(width)`, with the same errors."""
    if _aligned(width):
        _check_packed(data, length)
        _check_split(length, width)
        return _split(bytes(data).translate(_REVERSED), width)
    return Bits.from_bytes(data, length).block_values(width)


def _aligned(width: int) -> bool:
    return width > 0 and not width & 7


def _little_endian(values: Iterable[int], width: int) -> bytes:
    """Byte-aligned `width`-bit ints joined little-endian, the first in byte 0."""
    try:
        return b"".join([value.to_bytes(width >> 3, "little") for value in values])
    except OverflowError:  # negative, or wider than width
        raise ValueError(f"value does not fit in {width} bits") from None


def _split(raw: bytes, width: int) -> tuple[int, ...]:
    """Inverse of `_little_endian`, in one pass that runs in C: struct cuts
    the `width // 8`-byte fields, `_GROUP` per record and then the rest, and
    `map` turns each into its int.  The formats depend on the width and the
    remainder alone, so struct's format cache keeps them compiled."""
    size = width >> 3
    count = len(raw) // size
    whole = (count - count % _GROUP) * size  # bytes in full records
    view = memoryview(raw)
    fields = struct.unpack_from(f"{size}s" * (count % _GROUP), view, whole)
    if whole:  # only then: an empty payload admits any width, too wide for a struct record
        fields = chain(chain.from_iterable(struct.iter_unpack(f"{size}s" * _GROUP, view[:whole])), fields)
    return tuple(map(int.from_bytes, fields, repeat("little")))


def _check_packed(data: bytes, length: int) -> None:
    if length < 0:
        raise ValueError(f"negative bit length {length}")
    if len(data) != (length + 7) // 8:
        raise ValueError(f"expected {(length + 7) // 8} bytes for {length} bits")
    if length & 7 and data[-1] & (0xFF >> (length & 7)):
        raise ValueError("nonzero pad bits after the last bit")


def _check_split(length: int, width: int) -> None:
    if width <= 0 or length % width:
        raise ValueError(f"length {length} does not split into blocks of {width}")
