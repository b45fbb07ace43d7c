"""Property tests of the wire codec against the bit-by-bit reference.

`Bits.to_bytes`/`from_bytes` must equal the MSB-first reference codec in
`helpers` for every length and value, reject every nonzero pad pattern,
and the cache and broadcast blobs must re-encode byte-identically.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_from_bytes, reference_to_bytes
from privcache.bitvec import Bits
from privcache.scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    build_v,
    place,
)

bit_strings = st.integers(0, 4097).flatmap(
    lambda n: st.builds(Bits, st.integers(0, (1 << n) - 1), st.just(n))
)


@settings(max_examples=300, deadline=None)
@given(bit_strings)
def test_bytes_codec_equals_reference(b):
    blob = b.to_bytes()
    assert blob == reference_to_bytes(b)
    assert Bits.from_bytes(blob, b.length) == b == reference_from_bytes(blob, b.length)
    assert Bits.from_bytes(memoryview(blob), b.length) == b == Bits.from_bytes(bytearray(blob), b.length)


@settings(max_examples=200, deadline=None)
@given(bit_strings.filter(lambda b: b.length % 8))
def test_every_nonzero_pad_pattern_is_rejected(b):
    blob = b.to_bytes()
    pad = 8 - b.length % 8
    for pattern in range(1, 1 << pad):
        with pytest.raises(ValueError, match="nonzero pad bits"):
            Bits.from_bytes(blob[:-1] + bytes([blob[-1] | pattern]), b.length)


@settings(max_examples=300, deadline=None)
@given(bit_strings)
def test_text_codec_roundtrips(b):
    text = b.to01()
    assert text == "".join(str(b.value >> j & 1) for j in range(b.length))
    assert Bits.from01(text) == b


@given(st.text(alphabet="01", max_size=200), st.sampled_from("2 xb_+-"), st.data())
def test_from01_rejects_stray_characters(text, stray, data):
    at = data.draw(st.integers(0, len(text)))
    with pytest.raises(ValueError, match="invalid bit character"):
        Bits.from01(text[:at] + stray + text[at:])


@st.composite
def sessions(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    r = draw(st.integers(0, n * k - k + 1))
    params = SchemeParams.minimal(n, k, r, draw(st.integers(1, 13)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    files = FileLibrary.random(params, rng)
    rand = SessionRandomness(n, [rng.randrange(n) for _ in range(k)])
    d = AuxDemand(tuple(rng.randrange(n) for _ in range(k)), n)
    return params, files, rand, d, rng.choice(build_v(d).members)


@settings(max_examples=60, deadline=None)
@given(sessions())
def test_cache_and_broadcast_blobs_reencode_identically(session):
    params, files, rand, d, t_d = session
    for cache in place(files, params, rand):
        blob = cache.to_bytes()
        back = CacheContent.from_bytes(params, cache.user, blob)
        assert back.signals == cache.signals
        assert back.to_bytes() == blob
    x = build_delivery(files, d, t_d)
    blob = x.to_bytes()
    back = DeliverySignal.from_bytes(params, blob)
    assert (back.aux, back.t_d, back.segments) == (x.aux, x.t_d, x.segments)
    assert back.to_bytes() == blob
    assert FileLibrary.from_bytes(params, files.to_bytes()) == files


def test_mib_library_roundtrips():
    # N=4 K=4 r=3 with 8 Kibit subfiles: 286 KiB files, 1.1 MiB in all
    params = SchemeParams.minimal(4, 4, 3, 8192)
    files = FileLibrary.random(params, random.Random(5))
    blob = files.to_bytes()
    assert len(blob) == 4 * params.file_bits // 8 == 1_171_456
    assert blob[:64] == reference_to_bytes(Bits(files.files[0].value & ((1 << 512) - 1), 512))
    assert FileLibrary.from_bytes(params, blob) == files
