"""Golden digest of the selector sets and a library-free demand identity.

The sweep covers every auxiliary demand with N = 2..6 and K = 1..5
(15,024 vectors, each with N^K <= 20,000).  The digest was recorded when
the selector was still assembled from per-user exchange cases, so it shows
that the label-layout construction selects the same positions in the same
order.
"""

import hashlib
import itertools
from collections import Counter

from privcache.scheme import AuxDemand, g_map

SELECTOR_PIN = "f9e0598749d4c72bbacee317592021866fb6123aa96a0b880caeb7e3eff64744"


def sweep():
    for n in range(2, 7):
        for k in range(1, 6):
            if n**k > 20_000:
                continue
            for digits in itertools.product(range(n), repeat=k):
                yield n, k, digits


def test_selector_sets_match_the_golden_digest():
    h = hashlib.sha256()
    count = 0
    for n, k, digits in sweep():
        h.update(repr((n, k, digits, AuxDemand(digits, n).selector)).encode())
        count += 1
    assert count == 15_024
    assert h.hexdigest() == SELECTOR_PIN


def test_selected_labels_compose_every_demand():
    # For every d and user k, the digits g(t)_k over t in V(d) occur an odd
    # number of times exactly at d_k, so XORing the files they name gives
    # file d_k for every library (and every key shift).
    labels = {}
    for n, k, digits in sweep():
        if (n, k) not in labels:
            labels[n, k] = [g_map(t, n, k).digits for t in range(n * k - k + 1)]
        chosen = [labels[n, k][t] for t in AuxDemand(digits, n).selector]
        for user in range(k):
            counts = Counter(label[user] for label in chosen)
            odd = {v for v, c in counts.items() if c % 2}
            assert odd == {digits[user]}, (n, k, digits, user)
