"""The one XOR kernel, `bitvec.xor_columns`, and the pools it reads.

Placement, delivery, the segment expansion and decoding each gather their
terms out of a pool that the caller builds around cached payload lists
(`FileLibrary.subfiles`, `CacheContent.signal_values`,
`DeliverySignal.segment_values`), with a zero sentinel added.  An in-place
`append` or `+=` on one of those lists would corrupt every later read, so
the payloads are checked here to keep their objects and values through
every kernel, the correctness engine included.
"""

import copy
import itertools
import random
import subprocess
import sys
from functools import reduce
from operator import xor

import pytest

from privcache import scheme, verify
from privcache.bitvec import _NEST, xor_columns
from privcache.plan import column
from privcache.scheme import (
    AuxDemand,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    decode,
    place,
)
from test_plan import GRID


def oracle(columns, pool):
    return [reduce(xor, (pool[c.indices[i]] for c in columns)) for i in range(len(columns[0].indices))]


@pytest.mark.parametrize("count", [1, 2, 3, _NEST, _NEST + 1, 2 * _NEST, 3 * _NEST + 5])
def test_kernel_xors_every_column_at_each_slot(count):
    rng = random.Random(count)
    pool = [rng.getrandbits(70) for _ in range(40)] + [0]
    columns = [column([rng.randrange(41) for _ in range(9)]) for _ in range(count)]
    assert [*xor_columns(columns, pool)] == oracle(columns, pool)


@pytest.mark.parametrize("slots", [0, 1, 2])
def test_a_column_always_gathers_a_sequence(slots):
    # itemgetter of one index returns the bare item, and of none raises
    pool = [5, 6, 7]
    col = column(range(1, 1 + slots))
    assert list(col.pick(pool)) == pool[1 : 1 + slots]
    assert [*xor_columns([col, col, col], pool)] == pool[1 : 1 + slots]


def test_many_columns_do_not_overflow_the_c_stack():
    # 10^5 nested lazy maps overflow the C stack and kill the process, so
    # the kernel is run in a child
    code = (
        "from privcache.bitvec import xor_columns\n"
        "from privcache.plan import column\n"
        "pool = [1, 2, 4]\n"
        "columns = [column([i % 3, (i + 1) % 3]) for i in range(200_000)]\n"
        "want = [0, 0]\n"
        "for i in range(200_000):\n"
        "    want[0] ^= pool[i % 3]\n"
        "    want[1] ^= pool[(i + 1) % 3]\n"
        "assert [*xor_columns(columns, pool)] == want == [3, 6]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def snapshot(values):
    """The list objects of a payload expansion (the list, and each row of a
    broadcast's), with a deep copy of its values."""
    return [id(values), *(id(row) for row in values if isinstance(row, list))], copy.deepcopy(values)


def run_every_kernel(params, files):
    """Place every cache, build and expand broadcasts of up to 12 aux
    vectors, and decode every user of each; return each cache and broadcast
    with its expansion and that expansion's snapshot, taken when first built."""
    n, k = params.num_files, params.num_users
    caches = place(files, params, SessionRandomness(n, [(3 * u + 1) % n for u in range(k)]))
    payloads = [(cache, cache.signal_values, snapshot(cache.signal_values)) for cache in caches]
    for digits in itertools.islice(itertools.product(range(n), repeat=k), 12):
        d = AuxDemand(digits, n)
        for t in d.selector:
            x = build_delivery(files, d, t)
            payloads.append((x, x.segment_values, snapshot(x.segment_values)))
            for cache in caches:
                demand = (digits[cache.user] + cache.key) % n
                assert decode(cache, x, cache.user, demand) == files.files[demand]
    return payloads


@pytest.mark.parametrize("n,k,r,width", [*GRID, (4, 4, 3, 8192)])
def test_no_kernel_mutates_its_inputs(monkeypatch, n, k, r, width):
    params = SchemeParams.minimal(n, k, r, width)
    files = FileLibrary.random(params, random.Random(33))
    rows = files.subfiles
    before = [id(row) for row in rows], [tuple(row) for row in rows]
    payloads = run_every_kernel(params, files)
    if width <= 13:  # the engine decodes every broadcast of every aux vector

        def recording(build, expand):
            def wrapped(*args):
                table = build(*args)
                payloads.extend((item, expand(item), snapshot(expand(item))) for item in table.values())
                return table

            return wrapped

        expansions = (lambda c: c.signal_values), (lambda x: x.segment_values)
        for name, expand in zip(("_caches_by_key", "_deliveries"), expansions):
            monkeypatch.setattr(verify, name, recording(getattr(verify, name), expand))
        assert verify.verify_correctness_exhaustive(params, files).passed
    assert files.subfiles is rows
    assert ([id(row) for row in rows], [tuple(row) for row in rows]) == before
    for item, values, taken in payloads:
        now = item.signal_values if isinstance(item, scheme.CacheContent) else item.segment_values
        assert now is values and snapshot(values) == taken
