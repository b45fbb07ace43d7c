"""Pinned privacy reports: scope, case count and the ordered failure list.

Every privacy verdict (conditional, Lemma 1 and full-marginal, each
masked and unmasked) is checked here against the exact report it must
produce, so a change to the verification engine cannot silently alter
what it reports.  The scope strings are also what the benchmark matches
on.
"""

import itertools

import pytest

from helpers import seeded_library
from privcache.scheme import SchemeParams
from privcache.verify import (
    CONDITIONAL,
    FULL_MARGINAL,
    verify_distribution_lemma,
    verify_privacy,
)

# per failing histogram, in report order, how many outcomes have a weight
# other than the reference's (over both supports); the unmasked control
# fails on every completion except the first, the reference
COUNTS_232 = [4, 8, 4, 12, 12, 8, 4, 8, 8, 8, 12, 8, 8, 8, 8, 4, 8, 4]
COUNTS_321 = [6, 12, 12, 12, 24, 18, 12, 18, 6, 12, 12, 12]
COUNTS_221 = [128, 256, 256, 128]


def conditional(params, files, masked):
    return verify_privacy(params, CONDITIONAL, masked=masked)


def conditional_alias(params, files, masked):
    return verify_privacy(params, "conditional", masked=masked)


def lemma1(params, files, masked):
    return verify_distribution_lemma(params, masked=masked)


def full_marginal(params, files, masked):
    return verify_privacy(params, FULL_MARGINAL, masked=masked)


CASES = [
    # (engine, (N, K, r, subfile bits, seed), scope, cases, unmasked counts)
    (conditional, (2, 3, 2, 2, 10), "privacy[conditional-on-files] N=2 K=3 r=2", 24, COUNTS_232),
    (conditional_alias, (3, 2, 1, 1, 16), "privacy[conditional-on-files] N=3 K=2 r=1", 18, COUNTS_321),
    (lemma1, (2, 3, 2, 2, 10), "privacy[joint with demanded file] N=2 K=3 r=2", 24, COUNTS_232),
    (lemma1, (3, 2, 1, 1, 16), "privacy[joint with demanded file] N=3 K=2 r=1", 18, COUNTS_321),
    (full_marginal, (2, 2, 1, 1, 0),
     "privacy[full-marginal over 64 libraries] N=2 K=2 r=1", 8, COUNTS_221),
]


def expected_failures(n, k, counts):
    completions = list(itertools.product(range(n), repeat=k - 1))
    reference = completions[0]
    configs = [(user, dk, c) for user in range(k) for dk in range(n) for c in completions[1:]]
    assert len(configs) == len(counts)
    return [
        (config, f"distribution identical to completion {reference}", f"{count} outcomes differ")
        for config, count in zip(configs, counts)
    ]


@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize(
    "engine, instance, scope, cases, counts",
    CASES,
    ids=["conditional-232", "conditional-alias-321", "lemma1-232", "lemma1-321", "full-marginal-221"],
)
def test_privacy_report_is_pinned(engine, instance, scope, cases, counts, masked):
    n, k, r, width, seed = instance
    if engine is full_marginal:
        params, files = SchemeParams.minimal(n, k, r, width), None
    else:
        params, files = seeded_library(n, k, r, seed=seed, bits_per_subfile=width)
    report = engine(params, files, masked)
    if masked:
        assert report.scope == scope
        assert report.failures == []
    else:
        assert report.scope == scope + " (unmasked negative control)"
        assert report.failures == expected_failures(n, k, counts)
    assert report.cases_run == cases
    assert report.elapsed >= 0
