import itertools
import math
import time

import pytest

from privcache.combinat import (
    COUNT_BITS_CAP,
    ScaleLimitError,
    _binomial_bits_exceed,
    binomial,
    colex_rank,
    colex_subsets,
    scheme_counts,
)
from privcache.reference import SubsetIndex, enumerate_r_subsets, subset_rank, subset_unrank


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return tri


def colex_oracle(universe, r):
    """Colex order by brute force: sort all r-subsets largest-element-first."""
    return sorted(itertools.combinations(range(universe), r), key=lambda t: t[::-1])


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(1, 3) == 0  # k > n must give 0, not an error
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_against_pascal_triangle():
    tri = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]
    assert binomial(23, 11) == tri[23][11] == 1352078


def test_binomial_pascal_rule():
    for n in range(1, 31):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_subset_rank_examples():
    assert subset_rank(SubsetIndex((0, 1), 4)) == 0
    assert subset_rank(SubsetIndex((2, 3), 4)) == 5
    assert subset_rank(SubsetIndex((0, 2), 4)) == 1


def test_subset_rank_matches_enumeration_oracle():
    for universe in range(1, 9):
        for r in range(universe + 1):
            oracle = colex_oracle(universe, r)
            for pos, members in enumerate(oracle):
                assert subset_rank(SubsetIndex(members, universe)) == pos


def test_subset_unrank_examples():
    assert subset_unrank(0, 2, 4).members == (0, 1)
    assert subset_unrank(5, 2, 4).members == (2, 3)
    assert subset_unrank(0, 0, 4).members == ()


def test_subset_unrank_out_of_range():
    with pytest.raises(ValueError):
        subset_unrank(6, 2, 4)
    with pytest.raises(ValueError):
        subset_unrank(-1, 2, 4)


def test_rank_unrank_roundtrip():
    for universe in range(1, 13):
        for r in range(universe + 1):
            for rank in range(binomial(universe, r)):
                s = subset_unrank(rank, r, universe)
                assert len(s) == r
                assert subset_rank(s) == rank


def test_enumerate_examples():
    got = [s.members for s in enumerate_r_subsets(4, 2)]
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert [s.members for s in enumerate_r_subsets(4, 4)] == [(0, 1, 2, 3)]
    assert [s.members for s in enumerate_r_subsets(3, 0)] == [()]


def test_enumerate_matches_unrank_everywhere():
    for universe in range(1, 11):
        for r in range(universe + 1):
            subsets = enumerate_r_subsets(universe, r)
            assert len(subsets) == binomial(universe, r)
            for pos, s in enumerate(subsets):
                assert s == subset_unrank(pos, r, universe)


def test_colex_subsets_match_the_oracle_and_the_subset_objects():
    for universe in range(0, 11):
        for r in range(-1, universe + 2):
            tuples = colex_subsets(universe, r)
            assert tuples == (colex_oracle(universe, r) if 0 <= r <= universe else [])
            assert [colex_rank(t) for t in tuples] == list(range(len(tuples)))
            if universe:
                assert [s.members for s in enumerate_r_subsets(universe, r)] == tuples


def test_enumerate_out_of_range_r_is_empty():
    assert enumerate_r_subsets(4, 5) == []
    assert enumerate_r_subsets(4, -1) == []


def test_subset_index_validation():
    with pytest.raises(ValueError):
        SubsetIndex((1, 1), 4)
    with pytest.raises(ValueError):
        SubsetIndex((2, 1), 4)
    with pytest.raises(ValueError):
        SubsetIndex((0, 4), 4)
    with pytest.raises(ValueError):
        SubsetIndex((), 0)


def test_subset_index_operations():
    s = SubsetIndex((0, 2), 4)
    assert s.adding(1).members == (0, 1, 2)
    assert s.without(2).members == (0,)
    assert 2 in s and 1 not in s
    with pytest.raises(ValueError):
        s.adding(0)
    with pytest.raises(ValueError):
        s.without(3)


@pytest.mark.parametrize(
    "n, k, fits",
    [
        (65544, 32772, True),  # exactly 65,536 bits
        (65545, 32772, False),  # one more
        (70000, 24680, True),
        (70000, 24681, False),
        (10**6, 7760, False),
        (2**40 - 1, 2159, False),  # the last n priced by three lgamma terms
        (2**40, 2159, False),  # the first priced as n^k / k!
        (10**15, 1614, False),
        (2**5000, 14, False),
    ],
)
def test_the_count_bit_cap_is_exact_at_its_edge(n, k, fits):
    # each k that does not fit is the first such, found by exact bisection
    for size in (k, n - k):
        assert (math.comb(n, size).bit_length() <= COUNT_BITS_CAP) == fits
        assert _binomial_bits_exceed(n, size, COUNT_BITS_CAP) == (not fits)
    if not fits and n != 65545:
        assert math.comb(n, k - 1).bit_length() <= COUNT_BITS_CAP
        assert not _binomial_bits_exceed(n, k - 1, COUNT_BITS_CAP)


def test_counts_past_the_bit_cap_are_refused_before_any_binomial(monkeypatch):
    # C(10^9 + 1, 5 * 10^8) would keep math.comb busy for hours
    def refuse(*_):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(math, "comb", refuse)
    start = time.perf_counter()
    for n, k, r in [(2, 10**9, 5 * 10**8), (2, 10**9, 10**9 - 5 * 10**8 + 1), (3, 10**6, 10**5), (10**20000, 2, 1)]:
        with pytest.raises(ScaleLimitError, match=r"^C\(K', r\) = C\(.*\) has more than 65536 bits, which exceeds the cap$"):
            scheme_counts(n, k, r)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "n, k, r", [(2, 14291, 7146), (2, 20000, 10000), (2, 20000, 1), (2, 10**9, 10**9), (2, 10**9, 2), (2, 30, 29)]
)
def test_counts_under_the_bit_cap_are_computed(n, k, r):
    positions = n * k - k + 1
    start = time.perf_counter()
    assert scheme_counts(n, k, r)[0] == math.comb(positions, r)
    assert time.perf_counter() - start < 0.5
