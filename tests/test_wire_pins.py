"""Golden sha256 digests of the cache and broadcast wire blobs.

One seeded (N, K, r) = (4, 4, 3) session at subfile widths 1, 3, 8 and
128: the library is parsed from seeded bytes, every cache is placed, and
three demand rounds are broadcast.  The digests were recorded before the
byte-aligned pack/split path existed, so they show byte-identity with
the older codec rather than with the code that now writes the blobs.
Widths 1 and 3 take the unaligned path, 8 and 128 the aligned one.
"""

import hashlib
import random

import pytest

from privcache.scheme import (
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    assemble_delivery,
    aux_demand,
    place,
)

DEMANDS = ((0, 1, 2, 3), (1, 1, 1, 1), (2, 0, 2, 0))

# width: the four caches (users 0..3), then the three broadcasts of DEMANDS
PINS = {
    1: [
        "4e1a0c55ef68957fa6810e5f3c3751dcbeaeb91721ccb78732e3e49f4b0c2d08",
        "5d4c60fd84871f9488414baaba36c85514dcbd709599efdefa966b7d6a4fa9a3",
        "8e7ad8480ee373d64dbc093a1831e3e8beb7697d1e6fa1d8d696f02203698187",
        "80dae14544c39b435286c4ecdf225f6b29136b9c65c9fe8f1473ca1c291529f3",
        "298f75eef23dd41b8e39bb4b94ad1da39672a3c3285e674b5a837078e1a20369",
        "2cac0fa70f60d32da301e54569d08b977f59c64dd0f712baebe187ab758c7066",
        "d71b7b7afa9058f52f88ae6d81895aad5fe5dc2b614f9d4ef04688fdb77ddb68",
    ],
    3: [
        "08acd750f45727fcb60163933f0ca02cda6a9b54ad2d74e8de49433a6b678b2c",
        "c5cdaa98fa7db73e08e7e1dde5c1661a96b8148c8ca9119c26b5eec0b186e2e9",
        "4cecf5a25d442aef05cff952aba329599cc5a09a08195bbdf75eb51893ce3a54",
        "766c578d26038e025024015ad542f36c1c0698ef9484c41627c5cde43072b348",
        "2d42d83c4b40472e266cfd5d5e3e6f68c6c9af861478fc5d8352a848dfd37d12",
        "b8806a5f780a2165c5a150166b5432ec6420e398bbcf8e6996a93c722f6f8ca9",
        "8502de66707d62073bab670ebadc178552c01c218f0a012e46dfcbb03ec3954e",
    ],
    8: [
        "5bff7a3b55b60be92ddb91757a5f434446dc4b5e338f9342897affd0d21e3ce0",
        "ce4ecffdf6e617fb6e076d4fc4545e71638385b97b256766c600ef0ffb170b90",
        "795617f5dcc77eb0e84ee2e00d4182a6b3ad6f035a9848708260817a66fd9658",
        "a4a79a9bf45ee796e94a57b27aefcab29c470424be7ad6176a6f4bffecd42dd0",
        "36c64a4cb0c50e697ac37b3fefa72967f05f2c6dd739ef7651844b324da92abc",
        "408cd372d52de18f38ed84f7920c0305daf50b2c1e9d63d314276da40f49801f",
        "1fabe1d9a6bcda5c22f90db5d185d0631bb5212d438426caa00d17ae40ffeb59",
    ],
    128: [
        "1ffb3d20a8a95022c4e2a695d71c9123e86e3e0e4c728ae442a777ad074ea038",
        "b8cf2009c55b2de636d767d12f516e1dd43d757e67f9f93605fd8d7959bf2fc0",
        "8f05352b2fb35faabf73dc10d10d92fb678a7100412a84f3b8e080964b208d14",
        "fb04c53208f7a97a406b28e3838f6e76c1f25e5cda95a0b304cf55e972205deb",
        "83bc4a79162263023fa91973854187b01634585c0a0e96f2eb21431d5c88ec05",
        "cce86b6632e8697dd0b0d0ecb1619ba7448ca797462fe49a50f8944535a40728",
        "0017b0779cb073fd51ce39c97654c2d96136abddfb6bb66851f209f27025df8c",
    ],
}


def session_blobs(width):
    params = SchemeParams.minimal(4, 4, 3, width)
    library = random.Random(f"wire-pins:{width}").randbytes(4 * params.file_bits // 8)
    files = FileLibrary.from_bytes(params, library)
    assert files.to_bytes() == library
    rand = SessionRandomness.from_seed(params, "wire-pins")
    caches = [cache.to_bytes() for cache in place(files, params, rand)]
    broadcasts = [assemble_delivery(files, aux_demand(d, rand.keys, 4), rand).to_bytes() for d in DEMANDS]
    return params, caches, broadcasts


@pytest.mark.parametrize("width", [1, 3, 8, 128])
def test_cache_and_broadcast_blobs_match_the_golden_digests(width):
    params, caches, broadcasts = session_blobs(width)
    digests = [hashlib.sha256(blob).hexdigest() for blob in caches + broadcasts]
    assert digests == PINS[width]
    for user, blob in enumerate(caches):
        assert CacheContent.from_bytes(params, user, blob).to_bytes() == blob
    for blob in broadcasts:
        assert DeliverySignal.from_bytes(params, blob).to_bytes() == blob
