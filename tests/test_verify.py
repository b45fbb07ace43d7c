import itertools
import random

import pytest

from helpers import enumerated_marginal_privacy, seeded_library
from privcache import reference, verify
from privcache.combinat import binomial, position_count
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
    params = SchemeParams.minimal(3, 2, 1, 8)
    assert verify_privacy(params, CONDITIONAL).passed
    assert verify_distribution_lemma(params).passed
    assert not verify_privacy(params, CONDITIONAL, masked=False).passed


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
    params = SchemeParams.minimal(2, 3, 2, 8)
    report = verify_privacy(params, CONDITIONAL)
    assert report.passed
    assert report.cases_run == 3 * 2 * 4  # users x own demands x completions


def test_conditional_engines_take_no_library():
    # they weigh wire headers alone; `masked` is keyword-only, so a library
    # passed where one used to go is a TypeError, not a truthy `masked`
    params, files = seeded_library(2, 3, 2)
    for stale in (lambda: verify_privacy(params, CONDITIONAL, files),
                  lambda: verify_privacy(params, CONDITIONAL, files, False),
                  lambda: verify_distribution_lemma(params, files),
                  lambda: verify_distribution_lemma(params, files, False)):
        with pytest.raises(TypeError):
            stale()


@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("n, k, r", [(2, 3, 2), (3, 2, 1)])
def test_conditional_reports_are_library_independent(monkeypatch, n, k, r, masked):
    # the engines weigh wire headers alone: they take no library, none is
    # placed or delivered, and every subfile width gets the same report
    def unbuilt(*args):
        raise AssertionError("a library payload was built")

    monkeypatch.setattr(verify, "place", unbuilt)
    monkeypatch.setattr(verify, "_segment_rows", unbuilt)
    monkeypatch.setattr(verify, "_broadcast", unbuilt)
    for engine in (lambda p, m: verify_privacy(p, CONDITIONAL, masked=m),
                   lambda p, m: verify_distribution_lemma(p, masked=m)):
        reports = set()
        for width in (1, 8, 64):
            fields = engine(SchemeParams.minimal(n, k, r, width), masked).to_dict()
            del fields["elapsed_seconds"]
            reports.add(repr(fields))
        assert len(reports) == 1


@pytest.mark.parametrize("n, k, r, width", [(2, 3, 2, 8), (3, 2, 1, 3), (4, 2, 1, 2)])
def test_privacy_headers_are_the_wire_prefixes(n, k, r, width):
    # the privacy engines never serialize a payload; the headers they weigh
    # must still be the first bytes of the real wire blobs, the rest of
    # which is the packed payload
    params, files = seeded_library(n, k, r, seed=5, bits_per_subfile=width)
    broadcasts, caches = verify._headers(params)
    deliveries = verify._deliveries(params, files)
    assert {(digits, t) for digits, ts in broadcasts.items() for t in ts} == deliveries.keys()
    for (digits, t), x in deliveries.items():
        header = broadcasts[digits][t]
        assert x.to_bytes() == header + Bits.from_blocks(x.segments, width).to_bytes()
    for (_, s), cache in verify._caches_by_key(params, files).items():
        assert cache.to_bytes() == caches[s] + Bits.from_blocks(cache.signals, width).to_bytes()


def test_privacy_unknown_mode():
    params, files = seeded_library(2, 3, 2)
    with pytest.raises(ValueError):
        verify_privacy(params, "sampled")


def test_privacy_negative_control_fails():
    params = SchemeParams.minimal(2, 3, 2, 8)
    report = verify_privacy(params, CONDITIONAL, masked=False)
    assert not report.passed


def test_privacy_single_user_trivially_passes():
    params = SchemeParams.minimal(2, 1, 1, 8)
    report = verify_privacy(params, CONDITIONAL)
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


def test_full_marginal_library_bits_are_capped_at_512(monkeypatch):
    # (22,1,1) has 484 library bits, (23,1,1) 529; (16,2,8) has 126,219,600,
    # whose basis library alone would be bits^2 wide, and is refused before
    # any is built
    assert verify_privacy(SchemeParams.minimal(22, 1, 1), FULL_MARGINAL).passed

    def unbuilt(params):
        raise AssertionError("basis library built past the cap")

    monkeypatch.setattr(verify, "_basis_library", unbuilt)
    for n, k, r, bits in [(23, 1, 1, 529), (16, 2, 8, 126_219_600)]:
        with pytest.raises(ScaleLimitError, match=f"over {bits} library bits exceeds the 512-bit cap"):
            verify_privacy(SchemeParams.minimal(n, k, r), FULL_MARGINAL)


# every minimal-F instance with N <= 3, K <= 4 and at most 14 library bits,
# the most the enumerating oracle visits in reasonable time
ORACLE_INSTANCES = [
    (n, k, r)
    for n in (2, 3)
    for k in range(1, 5)
    for r in range(position_count(n, k) + 1)
    if n * binomial(position_count(n, k), r) <= 14
]


@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("n, k, r", ORACLE_INSTANCES)
def test_full_marginal_matches_enumerating_oracle(n, k, r, masked):
    params = SchemeParams.minimal(n, k, r)
    exact = verify_privacy(params, FULL_MARGINAL, masked=masked)
    oracle = enumerated_marginal_privacy(params, masked)
    assert exact.scope == oracle.scope
    assert exact.cases_run == oracle.cases_run
    assert exact.failures == oracle.failures


def unmasked_configurations(n, k):
    """Every (user, own demand, completion) but the reference completion."""
    completions = list(itertools.product(range(n), repeat=k - 1))
    return [(user, dk, c) for user in range(k) for dk in range(n) for c in completions[1:]]


@pytest.mark.parametrize(
    "n, k, r, libraries",
    [(2, 4, 2, 1 << 20), (3, 2, 1, 1 << 15)],
    ids=["242-20-bits", "321-15-bits"],
)
def test_full_marginal_certifies_past_fourteen_bits(n, k, r, libraries):
    params = SchemeParams.minimal(n, k, r)
    report = verify_privacy(params, FULL_MARGINAL)
    assert report.passed
    assert report.scope == f"privacy[full-marginal over {libraries} libraries] N={n} K={k} r={r}"
    assert report.cases_run == k * n**k
    negative = verify_privacy(params, FULL_MARGINAL, masked=False)
    assert [config for config, _, _ in negative.failures] == unmasked_configurations(n, k)
    assert negative.cases_run == k * n**k


def test_full_marginal_321_counts_equal_the_oracle():
    # the enumerating oracle over all 2^15 libraries (about 5 s) reports these
    # counts, 4096 times the conditional ones of COUNTS_321
    counts = [6, 12, 12, 12, 24, 18, 12, 18, 6, 12, 12, 12]
    negative = verify_privacy(SchemeParams.minimal(3, 2, 1), FULL_MARGINAL, masked=False)
    assert [actual for _, _, actual in negative.failures] == [f"{4096 * c} outcomes differ" for c in counts]


def test_full_marginal_ranks_each_header_once(monkeypatch):
    calls = []
    real = verify._gf2_rank

    def counted(vectors):
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(verify, "_gf2_rank", counted)
    params = SchemeParams.minimal(2, 3, 2)
    assert verify_privacy(params, FULL_MARGINAL).passed
    assert calls == []  # ranks are for failure counts only
    negative = verify_privacy(params, FULL_MARGINAL, masked=False)
    assert len(negative.failures) == 18
    headers = sum(len(build_v(AuxDemand(d, 2)).members) for d in itertools.product(range(2), repeat=3))
    assert 0 < len(calls) <= headers * 3 * 2  # at most once per (d, t, user, key digit)


def test_gf2_rank_equals_span_size():
    rng = random.Random(3)
    assert verify._gf2_rank([]) == 0
    assert verify._gf2_rank([0, 0]) == 0
    assert verify._gf2_rank([0b011, 0b101, 0b110]) == 2
    for _ in range(200):
        rows = [rng.randrange(64) for _ in range(rng.randrange(7))]
        span = {0}
        for row in rows:
            span |= {v ^ row for v in span}
        assert len(span) == 1 << verify._gf2_rank(rows)


def test_distribution_lemma_passes():
    for n, k, r in [(2, 2, 1), (2, 3, 2)]:
        report = verify_distribution_lemma(SchemeParams.minimal(n, k, r, 8))
        assert report.passed


def test_distribution_lemma_negative_control_fails():
    params = SchemeParams.minimal(2, 3, 2, 8)
    assert not verify_distribution_lemma(params, masked=False).passed


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


def test_oracles_refuse_oversized_instances_before_building_tables(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("table built before the case cap was checked")

    monkeypatch.setattr(reference, "enumerate_r_subsets", unbuilt)
    monkeypatch.setattr(verify, "_caches_by_key", unbuilt)
    monkeypatch.setattr(verify, "_all_digit_vectors", unbuilt)
    # 2^30 * 30 * 2 identity cases; 30 * 2 * C(31, 6) = 44,176,860 reconstruction cases
    for oracle, (n, k, r) in [(oracle_demand_identity, (2, 30, 0)), (oracle_y_reconstruction, (2, 30, 5))]:
        params = SchemeParams.minimal(n, k, r)
        files = FileLibrary(params, tuple(Bits.zeros(params.file_bits) for _ in range(n)))
        with pytest.raises(ScaleLimitError, match="exceeds the cap"):
            oracle(params, files)


def test_each_oracle_has_its_own_case_cap(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("table built before the case cap was checked")

    monkeypatch.setattr(reference, "enumerate_r_subsets", unbuilt)
    monkeypatch.setattr(verify, "_caches_by_key", unbuilt)
    monkeypatch.setattr(verify, "_all_digit_vectors", unbuilt)
    # both under the shared correctness/privacy cap of 20,000,000 cases:
    # 2^18 * 18 * 2 = 9,437,184 identity cases; 30 * 2 * C(29, 5) = 7,125,300
    # reconstruction cases, counted exactly (the upper bound 30 * 2 * C(31, 5) is 10,194,660)
    for oracle, (n, k, r) in [(oracle_demand_identity, (2, 18, 0)), (oracle_y_reconstruction, (2, 30, 4))]:
        params = SchemeParams.minimal(n, k, r)
        files = FileLibrary(params, tuple(Bits.zeros(params.file_bits) for _ in range(n)))
        with pytest.raises(ScaleLimitError, match="exceeds the cap"):
            oracle(params, files)


def test_y_reconstruction_cases_are_counted_exactly(monkeypatch):
    # (3,3,2): 3 users * 3 keys * C(4, 3) non-leader indices = 36 cases; C(7, 3) would give 315
    params, files = seeded_library(3, 3, 2, seed=15)
    monkeypatch.setattr(verify, "_RECONSTRUCTION_CASE_CAP", 36)
    assert oracle_y_reconstruction(params, files).cases_run == 36
    monkeypatch.setattr(verify, "_RECONSTRUCTION_CASE_CAP", 35)
    with pytest.raises(ScaleLimitError, match="exceeds the cap"):
        oracle_y_reconstruction(params, files)


def test_privacy_and_wire_parsing_never_build_the_plan(monkeypatch):
    import privcache.plan as plan_module

    params, files = seeded_library(2, 3, 2, seed=8, bits_per_subfile=1)
    cache_blob = place(files, params, SessionRandomness(2, (1, 0, 1)))[2].to_bytes()
    broadcast_blob = build_delivery(files, AuxDemand((1, 0, 1), 2), 1).to_bytes()

    def unbuilt(*args):
        raise AssertionError("plan built")

    monkeypatch.setattr(plan_module, "scheme_plan", unbuilt)
    fresh = SchemeParams(2, 3, 2, params.file_bits)  # no plan cached on it
    for masked in (True, False):
        assert verify_privacy(fresh, CONDITIONAL, masked=masked).passed is masked
        assert verify_distribution_lemma(fresh, masked=masked).passed is masked
    assert verify_privacy(fresh, FULL_MARGINAL).passed
    assert CacheContent.from_bytes(fresh, 2, cache_blob).to_bytes() == cache_blob
    assert DeliverySignal.from_bytes(fresh, broadcast_blob).to_bytes() == broadcast_blob


def test_conditional_and_lemma1_pass_where_the_plan_is_refused():
    # (16,2,6): 736,281 subfiles per file; its plan would need more than 3 GB
    params = SchemeParams.minimal(16, 2, 6)
    with pytest.raises(ScaleLimitError, match="exceeds the cap"):
        params.plan
    for report in (verify_privacy(params, CONDITIONAL), verify_distribution_lemma(params)):
        assert report.passed
        assert report.cases_run == 512


def _privacy_engines(params, masked=True):
    yield lambda: verify_privacy(params, CONDITIONAL, masked=masked)
    yield lambda: verify_distribution_lemma(params, masked=masked)
    yield lambda: verify_privacy(params, FULL_MARGINAL, masked=masked)


def _unbuilt_headers(params):
    raise AssertionError("wire headers built before the cap was checked")


def test_masked_privacy_passes_past_the_case_cap():
    # enumerating (2,12,1) would visit 2^24 * 13 * 12 = 2,617,245,696 cases;
    # the factor check passes it after serializing one widest header pair
    params = SchemeParams.minimal(2, 12, 1)
    for run in _privacy_engines(params):
        report = run()
        assert report.passed
        assert report.cases_run == 12 * 2**12 == 49_152


def test_a_failing_factor_check_is_enumerated_under_the_case_cap(monkeypatch):
    params = SchemeParams.minimal(2, 12, 1)
    monkeypatch.setattr(verify, "_headers", _unbuilt_headers)
    for run in _privacy_engines(params, masked=False):
        with pytest.raises(ScaleLimitError, match="privacy enumeration of ~2617245696 cases exceeds the cap"):
            run()


def test_a_passing_factor_check_builds_no_headers(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("table built on the passing path")

    monkeypatch.setattr(verify, "_headers", unbuilt)
    monkeypatch.setattr(verify, "_basis_library", unbuilt)
    # masked (2,19,1): 19 * 2^19 cases, under the case cap
    params = SchemeParams.minimal(2, 19, 1)
    for run in _privacy_engines(params):
        report = run()
        assert report.passed
        assert report.cases_run == 19 * 2**19 == 9_961_472
    # masked (2,20,1): 20 * 2^20 cases, over it
    params = SchemeParams.minimal(2, 20, 1)
    for run in _privacy_engines(params):
        with pytest.raises(ScaleLimitError, match="privacy verdict of ~20971520 cases exceeds the cap"):
            run()


def test_refusal_counts_past_2000_bits_print_as_powers_of_two():
    # 2^2000 has 603 digits, under the smallest int-to-str limit Python allows (640)
    assert verify._count(7_990_599_680) == "7990599680"
    assert verify._count(2**2000 - 1) == str(2**2000 - 1)
    assert verify._count(2**2000) == "2^2000"
    assert verify._count(3 * 2**40000) == "2^40001"


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
    from helpers import marginal_serializations as _marginal_serializations

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


def test_correctness_decode_work_guard_fires_before_anything_is_built(monkeypatch):
    # (16,2,4) passes the case cap (16^4 * 31 * 2 = 4,063,232 cases) and the
    # plan cap, but its sweep would rebuild up to 16^3 * 31 * 2 * 16 * C(31, 4)
    # subfiles: most of an hour of decoding
    def unbuilt(*args):
        raise AssertionError("built before the decode-work guard")

    import privcache.plan as plan_module

    monkeypatch.setattr(verify, "_caches_by_key", unbuilt)
    monkeypatch.setattr(verify, "_deliveries", unbuilt)
    monkeypatch.setattr(verify, "_segment_rows", unbuilt)
    monkeypatch.setattr(verify, "_broadcast", unbuilt)
    monkeypatch.setattr(verify, "place", unbuilt)
    monkeypatch.setattr(plan_module, "scheme_plan", unbuilt)
    params = SchemeParams.minimal(16, 2, 4)
    files = FileLibrary(params, tuple(Bits.zeros(params.file_bits) for _ in range(16)))
    with pytest.raises(ScaleLimitError, match=r"decoding of ~7990599680 subfiles exceeds the cap"):
        verify_correctness_exhaustive(params, files)


def test_correctness_decode_work_is_bounded_in_closed_form(monkeypatch):
    # (2,3,2): N^K aux vectors * K' t-choices * K users * N keys * C(K', r)
    # subfiles = 8 * 4 * 3 * 2 * 6 = 1152 (the sweep makes 384 of those 1152/6 decodes)
    params, files = seeded_library(2, 3, 2, seed=6)
    monkeypatch.setattr(verify, "_DECODE_WORK_CAP", 1152)
    assert verify_correctness_exhaustive(params, files).passed
    monkeypatch.setattr(verify, "_DECODE_WORK_CAP", 1151)
    with pytest.raises(ScaleLimitError, match="exceeds the cap"):
        verify_correctness_exhaustive(params, files)


def _decode_work(params):
    """Subfiles the correctness sweep rebuilds: |V(d)| decodes per
    auxiliary vector d, user and key, each of C(K', r) subfiles."""
    n, k = params.num_files, params.num_users
    t_choices = sum(len(AuxDemand(d, n).selector) for d in itertools.product(range(n), repeat=k))
    return t_choices * k * n * params.subfile_count


@pytest.mark.parametrize("n, k, r", [(2, 1, 1), (3, 1, 2), (5, 1, 3), (2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1)])
def test_correctness_work_bounds_the_sweep_and_is_exact_for_one_user(n, k, r):
    params = SchemeParams.minimal(n, k, r)
    priced = verify._correctness_work(params)
    assert priced >= _decode_work(params)
    assert (priced == _decode_work(params)) == (k == 1)


def test_one_user_sweeps_are_priced_one_t_choice_per_demand():
    # every K = 1 selector holds one position, so (18,1,6) rebuilds
    # 18 * 1 * 1 * 18 * C(18, 6) subfiles, not K' = 18 times as many
    params = SchemeParams.minimal(18, 1, 6)
    assert verify._correctness_work(params) == 18 * 18 * 18_564 == 6_014_736
    assert verify._correctness_work(params) <= verify._DECODE_WORK_CAP
    assert verify._correctness_work(SchemeParams.minimal(16, 2, 4)) == 7_990_599_680


def test_one_user_decode_work_cap_edge(monkeypatch):
    # (3,1,2): 3 aux vectors * 1 t-choice * 1 user * 3 keys * C(3, 2) subfiles = 27
    params, files = seeded_library(3, 1, 2, seed=5)
    monkeypatch.setattr(verify, "_DECODE_WORK_CAP", 27)
    assert verify_correctness_exhaustive(params, files).passed
    monkeypatch.setattr(verify, "_DECODE_WORK_CAP", 26)
    with pytest.raises(ScaleLimitError, match=r"decoding of ~27 subfiles exceeds the cap"):
        verify_correctness_exhaustive(params, files)
