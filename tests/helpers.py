"""Shared test utilities: seeded libraries, symbolic one-hot libraries,
and the slow reference implementations the library code is checked against.

A "basis" library gives every subfile a distinct one-hot bit pattern, so
an XOR of subfiles equals the characteristic vector of the XORed symbol
set.  That turns the worked-example tables into exact symbolic equality
checks on real code paths.
"""

from __future__ import annotations

import random
from typing import Sequence

from privcache.bitvec import Bits
from privcache.combinat import SubsetIndex, binomial, subset_rank
from privcache.scheme import FileLibrary, SchemeParams
from privcache.yma import UVector


def xor_all(parts: Sequence[Bits], length: int) -> Bits:
    """XOR a sequence of equal-length strings; empty input gives zeros."""
    acc = Bits.zeros(length)
    for part in parts:
        acc = acc ^ part
    return acc


def reference_to_bytes(b: Bits) -> bytes:
    """Bit-by-bit MSB-first packing: bit j sets bit 7 - j%8 of byte j//8."""
    out = bytearray((b.length + 7) // 8)
    v = b.value
    j = 0
    while v:
        if v & 1:
            out[j >> 3] |= 0x80 >> (j & 7)
        v >>= 1
        j += 1
    return bytes(out)


def reference_from_bytes(data: bytes, length: int) -> Bits:
    """Bit-by-bit inverse of reference_to_bytes; pad bits are ignored."""
    value = 0
    for j in range(length):
        if data[j >> 3] & (0x80 >> (j & 7)):
            value |= 1 << j
    return Bits(value, length)


def leader_set(num_files: int) -> range:
    """Leader positions are always the first `num_files` ones."""
    return range(num_files)


def build_u_vector_blockwise(num_files: int, num_users: int, user: int, key: int) -> UVector:
    """Two-step construction of yma.build_u_vector's vector, a cross-check.

    First lay out an intermediate length-K vector (key repeated K-user
    times, then key+1 repeated user times); then expand block 0 to all N
    values and every later block to its first N-1 successive values.
    """
    n = num_files
    if not 0 <= user < num_users or not 0 <= key < n:
        raise ValueError("parameter out of range")
    intermediate = [key] * (num_users - user) + [(key + 1) % n] * user
    entries = [(intermediate[0] + j) % n for j in range(n)]
    for i in range(1, num_users):
        entries.extend((intermediate[i] + j) % n for j in range(n - 1))
    return UVector(tuple(entries), n)


def seeded_library(n, k, r, seed=0, bits_per_subfile=8):
    params = SchemeParams.minimal(n, k, r, bits_per_subfile)
    return params, FileLibrary.random(params, random.Random(seed))


def basis_library(n, k, r):
    positions = n * k - k + 1
    count = binomial(positions, r)
    width = n * count
    params = SchemeParams(n, k, r, count * width)
    files = tuple(
        Bits.concat(Bits(1 << (fi * count + j), width) for j in range(count))
        for fi in range(n)
    )
    return params, FileLibrary(params, files)


def symbol(params: SchemeParams, file_index: int, members) -> Bits:
    """Expected one-hot pattern of subfile (file_index, set(members))."""
    count = binomial(params.positions, params.r)
    rank = subset_rank(SubsetIndex.of(members, params.positions))
    return Bits(1 << (file_index * count + rank), n_basis_width(params))


def n_basis_width(params: SchemeParams) -> int:
    return params.num_files * binomial(params.positions, params.r)


def xor_symbols(params: SchemeParams, terms) -> Bits:
    """XOR of expected one-hots for [(file_index, members), ...]."""
    return xor_all([symbol(params, fi, mem) for fi, mem in terms], n_basis_width(params))
