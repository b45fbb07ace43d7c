import itertools

import pytest

from helpers import seeded_library
from privcache.bitvec import Bits
from privcache.scheme import (
    AuxDemand,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    build_v,
)
from privcache.verify import (
    CONDITIONAL,
    FULL_MARGINAL,
    ScaleLimitError,
    VerificationReport,
    oracle_demand_identity,
    oracle_y_reconstruction,
    verify_correctness_exhaustive,
    verify_distribution_lemma,
    verify_privacy,
)


def expected_correctness_cases(n, k):
    total = 0
    for digits in itertools.product(range(n), repeat=k):
        total += len(build_v(AuxDemand(digits, n)).members)
    return n**k * total * k


def test_correctness_232_passes_with_expected_case_count():
    params, files = seeded_library(2, 3, 2, seed=6)
    report = verify_correctness_exhaustive(params, files)
    assert report.passed
    assert report.cases_run == expected_correctness_cases(2, 3) == 384


def test_correctness_331_passes():
    params, files = seeded_library(3, 3, 1, seed=6, bits_per_subfile=1)
    report = verify_correctness_exhaustive(params, files)
    assert report.passed
    assert report.cases_run == expected_correctness_cases(3, 3)


def test_correctness_four_files():
    # N=4 drives the selector composition through multi-step exchanges
    params, files = seeded_library(4, 2, 1, seed=6, bits_per_subfile=1)
    report = verify_correctness_exhaustive(params, files)
    assert report.passed
    assert report.cases_run == expected_correctness_cases(4, 2)


def test_correctness_single_user():
    params, files = seeded_library(2, 1, 1, seed=6)
    report = verify_correctness_exhaustive(params, files)
    assert report.passed
    assert report.cases_run == expected_correctness_cases(2, 1)


def test_privacy_and_lemma_three_files():
    params, files = seeded_library(3, 2, 1, seed=16)
    assert verify_privacy(params, CONDITIONAL, files).passed
    assert verify_distribution_lemma(params, files).passed
    assert not verify_privacy(params, CONDITIONAL, files, masked=False).passed


def test_correctness_detects_corrupted_segment():
    params, files = seeded_library(2, 3, 2, seed=8)
    target = (1, 1, 0)

    def corrupt(x: DeliverySignal) -> DeliverySignal:
        if x.aux.digits != target:
            return x
        segments = list(x.segments)
        segments[0] ^= 1
        return DeliverySignal(x.aux, x.t_d, tuple(segments), x.params)

    report = verify_correctness_exhaustive(params, files, mutate_delivery=corrupt)
    assert not report.passed
    assert report.failures
    for (demands, keys, t, user), _, _ in report.failures:
        aux = tuple((d - s) % 2 for d, s in zip(demands, keys))
        assert aux == target  # only the corrupted broadcast may fail


def test_correctness_scale_guard():
    params = SchemeParams.minimal(2, 13, 2)
    files = FileLibrary(params, tuple(Bits.zeros(params.file_bits) for _ in range(2)))
    with pytest.raises(ScaleLimitError):
        verify_correctness_exhaustive(params, files)


def test_privacy_conditional_passes():
    params, files = seeded_library(2, 3, 2, seed=10)
    report = verify_privacy(params, CONDITIONAL, files)
    assert report.passed
    assert report.cases_run == 3 * 2 * 4  # users x own demands x completions


def test_privacy_conditional_needs_files():
    params = SchemeParams.minimal(2, 3, 2)
    with pytest.raises(ValueError):
        verify_privacy(params, CONDITIONAL, None)


def test_privacy_unknown_mode():
    params, files = seeded_library(2, 3, 2)
    with pytest.raises(ValueError):
        verify_privacy(params, "sampled", files)


def test_privacy_negative_control_fails():
    params, files = seeded_library(2, 3, 2, seed=10)
    report = verify_privacy(params, CONDITIONAL, files, masked=False)
    assert not report.passed


def test_privacy_single_user_trivially_passes():
    params, files = seeded_library(2, 1, 1, seed=3)
    report = verify_privacy(params, CONDITIONAL, files)
    assert report.passed
    assert not report.failures


def test_privacy_full_marginal_small_instance():
    params = SchemeParams.minimal(2, 2, 1)  # 6 library bits -> 64 libraries
    report = verify_privacy(params, FULL_MARGINAL)
    assert report.passed
    negative = verify_privacy(params, FULL_MARGINAL, masked=False)
    assert not negative.passed


def test_privacy_full_marginal_guards():
    with pytest.raises(ScaleLimitError):
        verify_privacy(SchemeParams.minimal(2, 2, 1, bits_per_subfile=2), FULL_MARGINAL)
    with pytest.raises(ScaleLimitError):
        verify_privacy(SchemeParams.minimal(2, 4, 2), FULL_MARGINAL)  # 20 bits


def test_distribution_lemma_passes():
    for n, k, r in [(2, 2, 1), (2, 3, 2)]:
        params, files = seeded_library(n, k, r, seed=12)
        report = verify_distribution_lemma(params, files)
        assert report.passed


def test_distribution_lemma_negative_control_fails():
    params, files = seeded_library(2, 3, 2, seed=12)
    assert not verify_distribution_lemma(params, files, masked=False).passed


def test_demand_identity_oracle():
    # (4,3,1) covers the multi-step selector compositions with digits >= 2
    for n, k, r in [(2, 3, 2), (3, 2, 1), (4, 3, 1)]:
        params, files = seeded_library(n, k, r, seed=14)
        report = oracle_demand_identity(params, files)
        assert report.passed
        assert report.cases_run == n**k * k * n


def test_y_reconstruction_oracle_counts():
    params, files = seeded_library(2, 4, 2, seed=15)
    report = oracle_y_reconstruction(params, files)
    assert report.passed
    assert report.cases_run == 8  # one non-leader index x 8 (user, key) pairs

    params, files = seeded_library(2, 3, 2, seed=15)
    report = oracle_y_reconstruction(params, files)
    assert report.passed
    assert report.cases_run == 0  # vacuous: every 3-subset meets the leaders

    params, files = seeded_library(3, 3, 2, seed=15)
    report = oracle_y_reconstruction(params, files)
    assert report.passed
    assert report.cases_run == 4 * 9  # C(4,3) non-leader indices x 9 pairs


def test_y_reconstruction_oracle_guards_the_plan(monkeypatch):
    import privcache.plan as plan_module

    params, files = seeded_library(2, 4, 2, seed=15)
    real = plan_module.scheme_plan

    def corrupted(n, k, r):
        # drop one stored source from user 0's only non-stored signal
        plan = real(n, k, r)
        (rank, sources), = plan.reconstruction[0]
        return plan._replace(reconstruction=(((rank, sources[1:]),),) + plan.reconstruction[1:])

    monkeypatch.setattr(plan_module, "scheme_plan", corrupted)
    report = oracle_y_reconstruction(params, files)
    assert report.cases_run == 8
    assert [config for config, _, _ in report.failures] == [(0, 0, (2, 3, 4)), (0, 1, (2, 3, 4))]


def test_marginal_serializations_match_real_serializer():
    # the mask/parity fast path must reproduce to_bytes exactly, for every
    # library, every broadcast, and every cache
    from privcache.scheme import build_delivery, place, SessionRandomness
    from helpers import library_from_bit_index
    from privcache.verify import _marginal_serializations

    params = SchemeParams.minimal(2, 2, 1)
    xd_ser, zk_ser, libraries = _marginal_serializations(params)
    for lib in libraries:
        files = library_from_bit_index(params, lib)
        for (digits, t), serialized in xd_ser.items():
            want = build_delivery(files, AuxDemand(digits, 2), t).to_bytes()
            assert serialized[lib] == want
        for s in range(2):
            caches = place(files, params, SessionRandomness(2, (s, s)))
            for cache in caches:
                assert zk_ser[(cache.user, s)][lib] == cache.to_bytes()


def test_library_from_bit_index_layout():
    from helpers import library_from_bit_index

    params = SchemeParams.minimal(2, 2, 1)  # 3 subfiles per file, 6 bits
    files = library_from_bit_index(params, 0b000101)
    assert files.files[0].to01() == "101"  # bits 0 and 2 of the low file
    assert files.files[1].to01() == "000"
    with pytest.raises(ValueError):
        library_from_bit_index(SchemeParams.minimal(2, 2, 1, 2), 0)


def test_report_shape():
    report = VerificationReport("demo", 10, [], 0.5)
    assert report.passed
    assert "PASS" in report.describe()
    d = report.to_dict()
    assert d["passed"] and d["cases_run"] == 10
    bad = VerificationReport("demo", 10, [(("cfg",), "want", "got")], 0.5)
    assert not bad.passed
    assert "FAIL" in bad.describe()
    assert bad.to_dict()["failures"][0]["expected"] == "'want'"
