"""Property tests of the wire codec against the bit-by-bit reference.

`Bits.to_bytes`/`from_bytes` and the payload pair `pack_blocks`/
`split_blocks` must equal the MSB-first reference codec in `helpers` for
every length and value, reject every nonzero pad pattern, and the cache
and broadcast blobs must re-encode byte-identically.  Each fast path of
`Bits.from_blocks` (whole bytes, single bits) must join and fail exactly
as the shift-and-or chain `Bits._join` does, and each split must hold
past its 64-block struct records and at MiB payloads.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_from_bytes, reference_to_bytes
from privcache.bitvec import Bits, pack_blocks, split_blocks
from privcache.scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    assemble_delivery,
    aux_demand,
    build_delivery,
    build_v,
    decode,
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


def blocks_of(width):
    return st.lists(st.integers(0, (1 << width) - 1), max_size=40)


byte_inputs = st.sampled_from([bytes, bytearray, memoryview])


@pytest.mark.parametrize("width", range(1, 131))
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_pack_and_split_blocks_equal_the_reference(width, data):
    values = data.draw(blocks_of(width))
    length = len(values) * width
    joined = Bits(sum(v << (i * width) for i, v in enumerate(values)), length)
    blob = pack_blocks(values, width)
    assert blob == reference_to_bytes(joined)
    whole = reference_from_bytes(blob, length).value
    expected = tuple(whole >> start & ((1 << width) - 1) for start in range(0, length, width))
    assert split_blocks(data.draw(byte_inputs)(blob), length, width) == expected == tuple(values)


@pytest.mark.parametrize("width", [1, 8, 16, 24, 128, 1024])
@settings(max_examples=12, deadline=None)
@given(count=st.integers(0, 200), seed=st.integers(0, 2**32), kind=byte_inputs)
@example(count=63, seed=1, kind=bytes)
@example(count=64, seed=2, kind=bytearray)
@example(count=65, seed=3, kind=memoryview)
@example(count=128, seed=4, kind=memoryview)
@example(count=129, seed=5, kind=bytes)
def test_splits_past_the_struct_group_equal_the_reference(width, count, seed, kind):
    # aligned splits cut 64 blocks per struct record, then the rest; 1-bit
    # splits translate the base-2 text: both must cut where the reference does
    length = count * width
    blob = Bits(random.Random(seed).getrandbits(length), length).to_bytes()
    read = reference_from_bytes(blob, length)
    expected = tuple(read.value >> start & ((1 << width) - 1) for start in range(0, length, width))
    assert split_blocks(kind(blob), length, width) == expected
    assert read.block_values(width) == expected


def outcome(call):
    """("ok", result) or ("ValueError", message)."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "ValueError", str(exc)


def joined_int_split(data, length, width):
    """The joined-int chain: Bits.from_bytes, then a shift-and-mask cut
    of the whole int at every width."""
    whole = Bits.from_bytes(data, length)
    if width <= 0 or length % width:
        raise ValueError(f"length {length} does not split into blocks of {width}")
    return tuple(whole.value >> start & ((1 << width) - 1) for start in range(0, length, width))


widths = st.one_of(st.integers(1, 130), st.sampled_from(range(8, 131, 8)))


@settings(max_examples=400, deadline=None)
@given(widths, st.data())
def test_pack_blocks_raises_where_the_joined_int_chain_does(width, data):
    outside = st.sampled_from([-1, -(1 << width), 1 << width, (1 << width) + 5])
    values = data.draw(st.lists(st.one_of(st.integers(0, (1 << width) - 1), outside), max_size=40))
    got = outcome(lambda: pack_blocks(values, width))
    assert got == outcome(lambda: Bits._join((v, width) for v in values).to_bytes())
    assert (got[0] == "ValueError") == any(not 0 <= v >> width < 1 for v in values)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=600), st.data())
def test_one_bit_blocks_join_as_the_shift_chain_does(values, data):
    # width 1 joins through bytes(values); values and errors must be _join's
    if data.draw(st.booleans()):
        stray = data.draw(st.sampled_from([-1, -2, 2, 3, 255, 256, 1 << 70, -(1 << 70)]))
        values.insert(data.draw(st.integers(0, len(values))), stray)
    container = data.draw(st.sampled_from([list, tuple, iter]))
    got = outcome(lambda: Bits.from_blocks(container(values), 1))
    assert got == outcome(lambda: Bits._join((v, 1) for v in values))
    assert (got[0] == "ValueError") == any(v not in (0, 1) for v in values)


@settings(max_examples=400, deadline=None)
@given(widths, st.data())
def test_split_blocks_raises_where_the_joined_int_chain_does(width, data):
    values = data.draw(blocks_of(width))
    blob, length = pack_blocks(values, width), len(values) * width
    fault = data.draw(st.sampled_from(["none", "extra byte", "missing byte", "pad bits", "length", "width"]))
    if fault == "extra byte":
        blob += bytes([data.draw(st.integers(0, 255))])
    elif fault == "missing byte" and blob:
        blob = blob[:-1]
    elif fault == "pad bits" and length % 8:
        blob = blob[:-1] + bytes([blob[-1] | data.draw(st.integers(1, (1 << (8 - length % 8)) - 1))])
    elif fault == "length":
        length += data.draw(st.integers(-9, 9))
    elif fault == "width":
        width = data.draw(widths)
    data_in = data.draw(byte_inputs)(blob)
    got = outcome(lambda: split_blocks(data_in, length, width))
    assert got == outcome(lambda: joined_int_split(blob, length, width))
    invalid = (
        length < 0
        or len(blob) != (length + 7) // 8
        or length % 8 and blob[-1] & (0xFF >> length % 8)
        or length % width
    )
    assert (got[0] == "ValueError") == bool(invalid)


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


def test_mib_payloads_roundtrip_and_decode():
    # N=4 K=4 r=3 with 16 Kibit subfiles: 1.2 MiB cache blobs of 589 blocks
    # of 2 KiB, and a 0.5 MiB broadcast; users decode from the parsed blobs
    params = SchemeParams.minimal(4, 4, 3, 16384)
    files = FileLibrary.random(params, random.Random(6))
    rand = SessionRandomness.from_seed(params, 30)
    parsed = []
    for cache in place(files, params, rand):
        blob = cache.to_bytes()
        assert len(blob) > 1 << 20
        parsed.append(CacheContent.from_bytes(params, cache.user, blob))
        assert parsed[-1] == cache
    demands = (0, 1, 2, 3)
    x = assemble_delivery(files, aux_demand(demands, rand.keys, 4), rand)
    received = DeliverySignal.from_bytes(params, x.to_bytes())
    assert received == x
    for k, demand in enumerate(demands):
        assert decode(parsed[k], received, k, demand) == files.files[demand]
