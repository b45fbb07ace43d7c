"""Caches and broadcasts check their own shape, and blobs parse strictly.

A CacheContent or DeliverySignal that exists is a message of the scheme:
the constructors reject any other user, key digit, t_d or payload count,
and both are frozen.  Every malformed blob makes
`from_bytes` raise ValueError, never IndexError or TypeError.
"""

import dataclasses

import pytest

from helpers import seeded_library
from privcache.scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    SessionRandomness,
    build_delivery,
    build_v,
    cache_header,
    delivery_header,
    place,
)

# (N, K, r, subfile bits): byte-aligned and odd widths, r = 0 and r = K'
INSTANCES = [(2, 3, 2, 8), (3, 2, 1, 3), (2, 2, 0, 5), (2, 2, 3, 2), (3, 2, 2, 1)]


def payloads(n, k, r, width):
    params, files = seeded_library(n, k, r, seed=n + k + r, bits_per_subfile=width)
    cache = place(files, params, SessionRandomness(n, tuple(u % n for u in range(k))))[-1]
    d = AuxDemand(tuple(1 if u == 0 else 0 for u in range(k)), n)
    x = build_delivery(files, d, build_v(d).members[-1])
    return params, files, cache, x


@pytest.fixture(params=INSTANCES, ids=lambda i: "-".join(map(str, i)))
def instance(request):
    return payloads(*request.param)


def test_payloads_of_the_wrong_length_cannot_be_built(instance):
    params, _, cache, x = instance
    count = len(cache.signals)
    for signals in (cache.signals[:-1], cache.signals + (0,)):
        if len(signals) != count:
            with pytest.raises(ValueError, match=f"holds {len(signals)} signals, expected {count}"):
                CacheContent(cache.user, cache.key, signals, params)
    count = len(x.segments)
    for segments in (x.segments[:-1], x.segments + (0,)):
        if len(segments) != count:
            with pytest.raises(ValueError, match=f"holds {len(segments)} segments, expected {count}"):
                DeliverySignal(x.aux, x.t_d, segments, params)


def test_cache_rejects_users_and_keys_outside_range(instance):
    params, _, cache, _ = instance
    k, n = params.num_users, params.num_files
    for user in (-1, k, 99):
        with pytest.raises(ValueError, match=f"user {user} out of range for {k} users"):
            CacheContent(user, cache.key, cache.signals, params)
    for key in (-1, n, 255):
        with pytest.raises(ValueError, match=f"key digit {key} out of range for {n} files"):
            CacheContent(cache.user, key, cache.signals, params)


def test_broadcast_rejects_t_outside_its_selector_set(instance):
    params, files, _, x = instance
    outside = [t for t in range(params.positions) if t not in build_v(x.aux).members]
    for t in (-1, params.positions, 0xFFFF, *outside):
        with pytest.raises(ValueError, match=f"t={t} not in the selector set"):
            DeliverySignal(x.aux, t, x.segments, params)
        with pytest.raises(ValueError, match=f"t={t} not in the selector set"):
            build_delivery(files, x.aux, t)


def test_broadcast_rejects_an_aux_demand_of_other_parameters(instance):
    params, _, _, x = instance
    n = params.num_files
    for aux in (AuxDemand(x.aux.digits + (0,), n), AuxDemand(x.aux.digits, n + 1)):
        with pytest.raises(ValueError, match="auxiliary demand does not match parameters"):
            DeliverySignal(aux, x.t_d, x.segments, params)


def test_payloads_are_frozen(instance):
    _, _, cache, x = instance
    for payload, name in [(cache, "user"), (cache, "key"), (cache, "signals"), (x, "t_d"), (x, "segments")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(payload, name, getattr(payload, name))


def _zeros(nbits):
    """An all-zero payload of `nbits` bits, padded to whole bytes."""
    return bytes((nbits + 7) // 8)


def malformed_caches(params, cache):
    """(label, blob) for every way a cache blob can be wrong."""
    blob = cache.to_bytes()
    key, payload = cache.key, blob[5:]
    nbits, width = cache.payload_bits, params.subfile_bits
    yield from ((f"cut at {cut}", blob[:cut]) for cut in range(5))
    yield "key = N", cache_header(params.num_files, nbits) + payload
    yield "key = 255", cache_header(255, nbits) + payload
    if nbits:
        yield "one signal short", cache_header(key, nbits - width) + _zeros(nbits - width)
    yield "one signal long", cache_header(key, nbits + width) + _zeros(nbits + width)
    yield "nbits = 2^32 - 1", cache_header(key, 2**32 - 1) + payload
    if width > 1:
        yield "nbits not a multiple of the width", cache_header(key, nbits + 1) + _zeros(nbits + 1)
    yield "trailing byte", blob + b"\x00"


def malformed_broadcasts(params, x):
    """(label, blob) for every way a broadcast blob can be wrong."""
    blob = x.to_bytes()
    digits, t_d, payload = x.aux.digits, x.t_d, blob[params.num_users + 6 :]
    nbits, width = x.payload_bits, params.subfile_bits
    outside = [t for t in range(params.positions) if t not in build_v(x.aux).members]
    yield from ((f"cut at {cut}", blob[:cut]) for cut in range(params.num_users + 6))
    yield "digit = N", delivery_header((params.num_files,) + digits[1:], t_d, nbits) + payload
    for t in (0xFFFF, params.positions, *outside):
        yield f"t_d = {t} outside V", delivery_header(digits, t, nbits) + payload
    if nbits:
        yield "one segment short", delivery_header(digits, t_d, nbits - width) + _zeros(nbits - width)
    yield "one segment long", delivery_header(digits, t_d, nbits + width) + _zeros(nbits + width)
    yield "nbits = 2^32 - 1", delivery_header(digits, t_d, 2**32 - 1) + payload
    if width > 1:
        yield "nbits not a multiple of the width", delivery_header(digits, t_d, nbits + 1) + _zeros(nbits + 1)
    yield "trailing byte", blob + b"\x00"


def test_malformed_cache_blobs_raise_value_error(instance):
    params, _, cache, _ = instance
    assert CacheContent.from_bytes(params, cache.user, cache.to_bytes()) == cache
    for label, blob in malformed_caches(params, cache):
        with pytest.raises(ValueError):
            CacheContent.from_bytes(params, cache.user, blob)
            pytest.fail(f"accepted: {label}")


def test_malformed_broadcast_blobs_raise_value_error(instance):
    params, _, _, x = instance
    assert DeliverySignal.from_bytes(params, x.to_bytes()) == x
    for label, blob in malformed_broadcasts(params, x):
        with pytest.raises(ValueError):
            DeliverySignal.from_bytes(params, blob)
            pytest.fail(f"accepted: {label}")
