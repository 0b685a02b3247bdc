import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primesim import checker
from primesim.checker import (
    COUNT_BUDGET,
    SPOT_CHECKS,
    a_set,
    b_set,
    check_range,
    disjoint,
    find_representation,
    minimal_representations,
    pair_count,
    progression_counts,
)
from primesim.errors import DomainError
from primesim.numset import NumberSet, primes_up_to
from primesim.simsets import perturb_primes

from conftest import sparse_random_set


def brute_force_representation(members: set[int], even2n: int) -> tuple[int, int] | None:
    """Oracle: smallest-q1 pair by scanning all candidates."""
    for q1 in sorted(members):
        if 2 * q1 > even2n:
            return None
        if (even2n - q1) in members:
            return q1, even2n - q1
    return None


def brute_force_count(members: set[int], even2n: int) -> int:
    return sum(1 for q in members if 2 * q <= even2n and (even2n - q) in members)


def layouts(ns: NumberSet, e0: int, step: int, n: int) -> list:
    """Both classes' count layouts for the evens e0 + step * k, k < n, as progression_counts derives them."""
    return [checker._layout(ns.parity_class(c), e0 - 2 * c, step, n) for c in (0, 1)]


class InlineThread(threading.Thread):
    """A thread whose start() runs its target in the caller: put over threading.Thread, the counts run serially."""

    def start(self) -> None:
        self.run()

    def join(self, timeout: float | None = None) -> None:
        pass


def floats_inline_and_threaded(ns: NumberSet, e0: int, step: int, n: int, block_bytes: int) -> list[np.ndarray]:
    """The counts' floats before rounding with InlineThread, the serial reference, and with threads, at the given block size."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_BLOCK_BYTES", block_bytes)
        for thread in (InlineThread, threading.Thread):
            mp.setattr(checker.threading, "Thread", thread)
            out.append(checker._ordered_counts(ns, layouts(ns, e0, step, n), step, n))
    return out


@st.composite
def random_sets(draw) -> NumberSet:
    """Random sets in three shapes; limits include 64k - 1 and 64k.

    Both parity classes dense; mostly even (odd members kept at 5% of the
    density, like a perturbed set); or prime-like, with a drawn handful of
    0-6 even members. The minority class is often empty or one member, so
    its first and last members cut the counted index range short.
    """
    limit = draw(
        st.one_of(
            st.integers(min_value=2, max_value=700),
            st.integers(min_value=1, max_value=10).map(lambda k: 64 * k - 1),
            st.integers(min_value=1, max_value=10).map(lambda k: 64 * k),
        )
    )
    density = draw(st.floats(min_value=0.01, max_value=1.0))
    shape = draw(st.sampled_from(["dense", "mostly-even", "prime-like"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = np.arange(1, limit + 1)
    odd_share = 0.05 if shape == "mostly-even" else 1.0
    keep = rng.random(limit) < np.where(x % 2 == 1, density * odd_share, density)
    if shape == "prime-like":
        evens = x[x % 2 == 0]
        keep[x % 2 == 0] = False
        few = draw(st.integers(min_value=0, max_value=min(6, evens.size)))
        keep[rng.choice(evens, size=few, replace=False) - 1] = True
    elems = x[keep] if keep.any() else np.array([limit])
    return NumberSet.from_elements(elems, limit)


class TestFindRepresentation:
    def test_smallest_even(self, primes_10k):
        assert find_representation(primes_10k, 4) == (2, 2)

    def test_canonical_pair_20(self, primes_10k):
        oracle = brute_force_representation(set(primes_10k.elements.tolist()), 20)
        assert find_representation(primes_10k, 20) == oracle == (3, 17)

    def test_perturbed_example(self):
        ns = NumberSet.from_elements([3, 4, 6, 8], 11)  # the primes to 10, each moved up
        assert find_representation(ns, 12) == (4, 8)

    def test_odd_rejected(self, primes_10k):
        with pytest.raises(DomainError):
            find_representation(primes_10k, 21)

    def test_out_of_range_rejected(self, primes_10k):
        with pytest.raises(DomainError):
            find_representation(primes_10k, 2 * primes_10k.limit + 2)

    def test_deterministic(self, primes_10k):
        assert all(
            find_representation(primes_10k, 1234) == find_representation(primes_10k, 1234)
            for _ in range(3)
        )

    def test_matches_oracle_on_sparse_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ns = sparse_random_set(rng, 400, 0.08)
            members = set(ns.elements.tolist())
            for even in range(4, 801, 2):
                assert find_representation(ns, even) == brute_force_representation(
                    members, even
                ), even


class TestDistanceSets:
    def test_a_set_primes_10(self, primes_10k):
        assert a_set(primes_10k, 10).members.tolist() == [3, 5, 7, 8]

    def test_a_set_contains_zero_when_member(self, primes_10k):
        assert 0 in a_set(primes_10k, 7).members.tolist()

    def test_a_set_empty_prefix(self):
        ns = NumberSet.from_elements([50], 100)
        assert a_set(ns, 10).members.size == 0

    def test_b_set_primes_10(self, primes_10k):
        assert b_set(primes_10k, 10).members.tolist() == [1, 3, 7, 9]

    def test_b_set_primes_3(self, primes_10k):
        assert b_set(primes_10k, 3).members.tolist() == [0, 2]

    def test_b_set_empty(self):
        ns = NumberSet.from_elements([2, 50], 100)
        assert b_set(ns, 10).members.size == 0

    def test_members_below_n(self, primes_10k):
        for n in (2, 17, 100, 999):
            assert (a_set(primes_10k, n).members < n).all()
            assert (b_set(primes_10k, n).members < n).all()

    def test_domain_errors(self, primes_10k):
        with pytest.raises(DomainError):
            a_set(primes_10k, primes_10k.limit + 1)
        with pytest.raises(DomainError):
            b_set(primes_10k, (primes_10k.limit + 3) // 2)


class TestDisjoint:
    def test_shared_distances(self, primes_10k):
        # 20 = 17 + 3 = 13 + 7, so distances 3 and 7 appear on both sides
        assert disjoint(a_set(primes_10k, 10), b_set(primes_10k, 10)) is False

    def test_empty_a_side(self):
        ns = NumberSet.from_elements([15, 19], 100)
        assert disjoint(a_set(ns, 10), b_set(ns, 10)) is True

    def test_mismatched_midpoints(self, primes_10k):
        with pytest.raises(DomainError):
            disjoint(a_set(primes_10k, 10), b_set(primes_10k, 12))

    def test_sides_enforced(self, primes_10k):
        with pytest.raises(DomainError):
            disjoint(b_set(primes_10k, 10), b_set(primes_10k, 10))

    def test_equivalence_with_representation(self, primes_10k):
        ns_list = [
            primes_10k,
            perturb_primes(10_000, 1),
            perturb_primes(10_000, 2),
        ]
        rng = np.random.default_rng(11)
        ns_list += [sparse_random_set(rng, 5000, 0.05) for _ in range(20)]
        for ns in ns_list:
            for n in range(2, 2001):
                if 2 * n - 1 > ns.limit:
                    break
                absent = find_representation(ns, 2 * n) is None
                assert disjoint(a_set(ns, n), b_set(ns, n)) == absent
                assert (pair_count(ns, 2 * n) == 0) == absent


class TestPairCount:
    def test_matches_brute_force(self, primes_10k):
        members = set(primes_10k.elements.tolist())
        for even in list(range(4, 600, 2)) + [9998, 10_000, 15_000, 19_998, 20_000]:
            assert pair_count(primes_10k, even) == brute_force_count(members, even), even

    def test_sparse_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ns = sparse_random_set(rng, 300, 0.15)
            members = set(ns.elements.tolist())
            for even in range(2, 601, 2):
                assert pair_count(ns, even) == brute_force_count(members, even)

    @given(ns=random_sets())
    @settings(max_examples=80, deadline=None)
    # limit 340, even 384: the q2 side of the first word reaches 384, past
    # the bitset's last bit 383
    @example(ns=NumberSet.from_elements(range(1, 341)))
    @example(ns=primes_up_to(340))
    # an empty even class, and 255 at the odd class's last bit
    @example(ns=NumberSet.from_elements(range(1, 256, 2)))
    # an empty odd class, and 256 at bit 0 of the even class's last word
    @example(ns=NumberSet.from_elements(range(2, 257, 2), 300))
    # a one-member class on either side, and 127 at the odd class's last bit
    @example(ns=NumberSet.from_elements(sorted([5, *range(2, 251, 2)])))
    @example(ns=NumberSet.from_elements([2, 127]))
    def test_matches_brute_force_on_random_sets(self, ns):
        # every even up to 2 * limit: above limit, u_lo = even - limit is
        # rarely word-aligned and the q2 side reads past the last word
        members = set(ns.elements.tolist())
        for even in range(2, 2 * ns.limit + 1, 2):
            assert pair_count(ns, even) == brute_force_count(members, even), even

    def test_first_count_holds_one_slot(self):
        # a count near the limit reads two windows of at most half a parity
        # class each, so together they hold no more than one class's words
        ns = primes_up_to(20_000_000)
        tracemalloc.start()
        try:
            pair_count(ns, 20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slot_bytes = (ns.parity_class(1).words.size + 1) * 8
        assert peak <= slot_bytes + 2**20, (peak, slot_bytes)

    def test_count_reads_only_its_windows(self):
        # 20,000 pairs odd-class indices below 10,000: two windows of 79
        # words, not a class-sized array (1.25 MB at 2e7)
        ns = primes_up_to(20_000_000)
        tracemalloc.start()
        try:
            pair_count(ns, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    @given(data=st.data(), ns=random_sets())
    @settings(max_examples=80, deadline=None)
    def test_interleaved_residues_replace_the_slot(self, data, ns):
        # one even per residue of even/2 mod 64 in a drawn order, twice
        # over, so consecutive calls read windows at every bit offset of
        # each dense parity class, with no state carried between calls
        members = set(ns.elements.tolist())
        evens = np.arange(2, 2 * ns.limit + 1, 2)
        for r in data.draw(st.permutations(range(64))) * 2:
            group = evens[(evens >> 1) % 64 == r].tolist()
            if group:
                even = data.draw(st.sampled_from(group))
                assert pair_count(ns, even) == brute_force_count(members, even), even

    @given(ns=random_sets())
    @settings(max_examples=80, deadline=None)
    def test_evens_near_twice_the_limit(self, ns):
        # the partners' window of an even near 2 * limit ends in the
        # class's last word, and its whole words start up to 63 bits below
        # the first partner; 65 evens cover every residue of even/2 mod 64
        members = set(ns.elements.tolist())
        for even in range(2 * ns.limit, max(2 * ns.limit - 130, 0), -2):
            assert pair_count(ns, even) == brute_force_count(members, even), even


def forbid_elements(monkeypatch) -> None:
    """Make every read of NumberSet.elements fail the test."""
    monkeypatch.setattr(NumberSet, "elements", property(lambda self: pytest.fail("NumberSet.elements read")))


class TestCheckRange:
    def test_no_hot_path_reads_the_element_array(self, monkeypatch):
        ns = primes_up_to(20_000_000)
        forbid_elements(monkeypatch)
        report = check_range(ns, 4, 20_000_000)
        assert report.failures == [] and report.threshold_n0 == 2
        # the downward scan, above limit + 1
        assert find_representation(ns, 39_999_998) is not None
        assert minimal_representations(ns, 39_999_000, 40_000_000).size == 501

    def test_primes_clean_to_1e4(self, primes_10k):
        report = check_range(primes_10k, 4, 10_000)
        assert report.failures == []
        assert report.threshold_n0 == 2
        assert report.buckets[0].sampled == 5
        assert report.wall_ms > 0

    def test_tiny_set_failures(self):
        ns = NumberSet.from_elements([2], 10)
        report = check_range(ns, 4, 8)
        assert report.failures == [6, 8]
        assert report.threshold_n0 == 8

    def test_failures_match_brute_force_incl_high_range(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            ns = sparse_random_set(rng, 500, 0.12)
            members = set(ns.elements.tolist())
            report = check_range(ns, 4, 1000, bucket_width=256)
            oracle = [
                e
                for e in range(4, 1001, 2)
                if brute_force_representation(members, e) is None
            ]
            assert report.failures == oracle

    @given(data=st.data(), ns=random_sets())
    @settings(max_examples=80, deadline=None)
    def test_failures_match_brute_force_on_random_sets(self, data, ns):
        # ranges reach past limit + 1, small lo makes the first chunk's
        # windows start below bit 0, and bucket and chunk widths are random,
        # so sweeps and scans start and stop at chunk edges inside the range
        lo = 2 * data.draw(st.integers(min_value=2, max_value=ns.limit))
        hi = 2 * data.draw(st.integers(min_value=lo // 2, max_value=ns.limit))
        width = 2 * data.draw(st.integers(min_value=1, max_value=hi // 2))
        members = set(ns.elements.tolist())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checker, "CHUNK", 2 * data.draw(st.integers(min_value=1, max_value=hi // 2)))
            report = check_range(ns, lo, hi, bucket_width=width)
        oracle = [
            e for e in range(lo, hi + 1, 2) if brute_force_representation(members, e) is None
        ]
        assert report.failures == oracle

    def test_worker_count_invariance(self, primes_100k):
        base = check_range(primes_100k, 4, 100_000, bucket_width=10_000)
        for workers in (2, 3, 7):
            other = check_range(
                primes_100k, 4, 100_000, workers=workers, bucket_width=10_000
            )
            assert other.failures == base.failures
            assert other.buckets == base.buckets

    def test_counts_start_at_most_one_thread(self, monkeypatch, primes_100k):
        # the buckets run in the calling thread, whatever `workers` says;
        # the counts' transforms take one worker at a time. Small blocks
        # give every pass here more than one block, so it splits.
        monkeypatch.setattr(checker, "_BLOCK_BYTES", 1 << 12)
        alive_at_start = []
        start = threading.Thread.start

        def counted(self):
            alive_at_start.append(threading.active_count())
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        base = check_range(primes_100k, 4, 100_000, bucket_width=10_000)
        for workers in (1, 2, 7):
            report = check_range(primes_100k, 4, 100_000, workers=workers, bucket_width=10_000)
            assert (report.failures, report.buckets) == (base.failures, base.buckets)
        # each worker started with no other worker alive, and none outlives the check
        assert alive_at_start and set(alive_at_start) == {before}
        assert threading.active_count() == before
        with pytest.raises(DomainError):
            check_range(primes_100k, 4, 100_000, workers=0)

    def test_failures_invariant_under_bucket_split(self):
        rng = np.random.default_rng(23)
        ns = sparse_random_set(rng, 2000, 0.05)
        reference = check_range(ns, 4, 2000, bucket_width=2000).failures
        for width in (64, 500, 1024):
            assert check_range(ns, 4, 2000, bucket_width=width).failures == reference

    @pytest.mark.parametrize("width", [2_000, 1_000_000])
    def test_sweeps_once_per_chunk_whatever_the_buckets(self, monkeypatch, width):
        # the range crosses limit + 1, so its last chunk is scanned alone
        ns = primes_up_to(2_100_000)
        lo, hi = 4, 2_200_000
        sweeps = []
        sweep = checker._sweep_open

        def spy(setQ, s_lo, s_hi):
            sweeps.append((s_lo, s_hi))
            return sweep(setQ, s_lo, s_hi)

        monkeypatch.setattr(checker, "_sweep_open", spy)
        report = check_range(ns, lo, hi, bucket_width=width)
        assert len(report.buckets) == (hi - lo) // width + 1
        assert [s_lo for s_lo, _ in sweeps] == list(range(lo, ns.limit + 2, checker.CHUNK)) == [4, 1_000_004, 2_000_004]
        assert sweeps[-1][1] == ns.limit + 1 - (ns.limit + 1) % 2

    @given(data=st.data(), ns=random_sets())
    @settings(max_examples=80, deadline=None)
    def test_bucket_stats_match_brute_force(self, data, ns):
        # strides of two or more, and bucket widths that are often not a
        # multiple of 2 * sample_stride, so the count step is their gcd
        lo = 2 * data.draw(st.integers(min_value=2, max_value=ns.limit))
        hi = 2 * data.draw(st.integers(min_value=lo // 2, max_value=ns.limit))
        width = 2 * data.draw(st.integers(min_value=1, max_value=hi // 2))
        stride = data.draw(st.integers(min_value=2, max_value=max(2, hi // 4)))
        report = check_range(ns, lo, hi, bucket_width=width, sample_stride=stride)
        assert [(b.lo, b.hi) for b in report.buckets] == [
            (b, min(hi, b + width - 2)) for b in range(lo, hi + 1, width)
        ]
        members = set(ns.elements.tolist())
        for bucket in report.buckets:
            counts = [brute_force_count(members, e) for e in range(bucket.lo, bucket.hi + 1, 2 * stride)]
            assert bucket.sampled == len(counts)
            assert bucket.min_reps == min(counts)
            assert bucket.mean_reps == float(np.mean(np.array(counts, dtype=np.int64)))

    def test_bucket_count_capped_before_any_work(self, monkeypatch, primes_100k):
        def refused(*args):
            raise AssertionError("counted or swept past the bucket cap")

        lo = 4
        hi = lo + 2 * checker.MAX_BUCKETS
        fine = check_range(primes_100k, lo, hi - 2, bucket_width=2, sample_stride=1)
        assert len(fine.buckets) == checker.MAX_BUCKETS
        assert all(b.sampled == 1 and b.min_reps == b.mean_reps for b in fine.buckets)
        monkeypatch.setattr(checker, "progression_counts", refused)
        monkeypatch.setattr(checker, "_sweep_open", refused)
        with pytest.raises(DomainError, match=f"{checker.MAX_BUCKETS + 1} buckets; the cap is {checker.MAX_BUCKETS}"):
            check_range(primes_100k, lo, hi, bucket_width=2, sample_stride=1)
        with pytest.raises(DomainError, match="the cap is"):
            check_range(primes_100k, 4, 100_000, bucket_width=2)

    def test_one_bucket_wider_than_the_range(self, primes_10k):
        # the bucket's sampled positions stop at hi, whatever its width
        wide = check_range(primes_10k, 4, 10_000, bucket_width=10**15, sample_stride=3)
        assert wide.buckets == check_range(primes_10k, 4, 10_000, bucket_width=12_000, sample_stride=3).buckets
        assert (wide.buckets[0].lo, wide.buckets[0].hi, wide.buckets[0].sampled) == (4, 10_000, 1_667)

    @pytest.mark.parametrize(
        "layout",
        [{"bucket_width": 10**30}, {"sample_stride": 10**30}, {"bucket_width": 2**64, "sample_stride": 2**63},
         {"bucket_width": 2 * 10**30, "sample_stride": 10**30}],
        ids=["width", "stride", "both-2^64", "both-10^30"],
    )
    def test_layout_past_int64_is_a_layout_past_the_range(self, primes_10k, layout):
        # positions past the count array are cut, so neither factor needs to fit int64
        report = check_range(primes_10k, 4, 1000, **layout)
        assert report.buckets == check_range(primes_10k, 4, 1000, bucket_width=2000).buckets
        assert [(b.lo, b.hi, b.sampled) for b in report.buckets] == [(4, 1000, 1)]

    def test_stride_past_int64_over_many_buckets(self, primes_10k):
        # each bucket samples its first even alone, as at any stride past the bucket width
        huge = check_range(primes_10k, 4, 1000, bucket_width=100, sample_stride=10**30)
        assert huge.buckets == check_range(primes_10k, 4, 1000, bucket_width=100, sample_stride=50).buckets
        assert [b.sampled for b in huge.buckets] == [1] * 10

    def test_stride_one_counts_every_even(self, primes_10k):
        report = check_range(primes_10k, 4, 1000, sample_stride=1, bucket_width=500)
        members = set(primes_10k.elements.tolist())
        for bucket in report.buckets:
            evens = range(bucket.lo, bucket.hi + 1, 2)
            counts = [brute_force_count(members, e) for e in evens]
            assert bucket.sampled == len(counts)
            assert bucket.min_reps == min(counts)
            assert bucket.mean_reps == pytest.approx(np.mean(counts))
        threaded = check_range(primes_10k, 4, 1000, sample_stride=1, bucket_width=500, workers=2)
        assert threaded.buckets == report.buckets

    @given(data=st.data(), ns=random_sets())
    @settings(max_examples=60, deadline=None)
    def test_stride_one_all_residues_any_workers(self, data, ns):
        # a stride of 1 counts every even, so each residue in the range gets its slot
        lo = 2 * data.draw(st.integers(min_value=2, max_value=ns.limit))
        hi = 2 * data.draw(st.integers(min_value=lo // 2, max_value=ns.limit))
        width = 2 * data.draw(st.integers(min_value=1, max_value=hi // 2))
        one = check_range(ns, lo, hi, sample_stride=1, bucket_width=width)
        two = check_range(ns, lo, hi, sample_stride=1, bucket_width=width, workers=2)
        assert (one.failures, one.buckets) == (two.failures, two.buckets)
        members = set(ns.elements.tolist())
        for bucket in one.buckets:
            counts = [brute_force_count(members, e) for e in range(bucket.lo, bucket.hi + 1, 2)]
            assert bucket.sampled == len(counts)
            assert bucket.min_reps == min(counts)
            assert bucket.mean_reps == float(np.mean(np.array(counts, dtype=np.int64)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_count_only_for_spot_checks(self, monkeypatch, primes_100k, workers):
        # sample_stride 7 with bucket_width 10_000 counts at step 2 in one
        # FFT pass; pair_count recounts SPOT_CHECKS fixed sampled evens,
        # the largest among them
        calls = []

        def spy(setQ, even):
            calls.append(even)
            return pair_count(setQ, even)

        monkeypatch.setattr(checker, "pair_count", spy)
        check_range(primes_100k, 4, 100_000, workers=workers, bucket_width=10_000, sample_stride=7)
        sampled = {e for lo in range(4, 100_001, 10_000) for e in range(lo, min(lo + 9_999, 100_001), 14)}
        assert len(calls) == SPOT_CHECKS and set(calls) <= sampled
        assert max(sampled) in calls and 4 in calls

    def test_spot_check_mismatch_raises(self, monkeypatch, primes_10k):
        fast = checker.progression_counts
        monkeypatch.setattr(checker, "progression_counts", lambda *args: fast(*args) + 1)
        with pytest.raises(ArithmeticError, match="pair_count gives"):
            check_range(primes_10k, 4, 10_000)

    def test_over_budget_fails_fast(self):
        # at step 2 the dense span of this set needs far more than
        # COUNT_BUDGET: refused before the sweep, with nothing large held
        limit = 200_000_000
        ns = NumberSet.from_elements([1, 3, limit - 1], limit)
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"step 2 .* 1024 MiB budget.* such as 1000600, counts at step 10006"):
                check_range(ns, 4, limit, sample_stride=5003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 2**20, peak
        with pytest.raises(DomainError, match="larger sample_stride"):
            check_range(ns, 4, limit, sample_stride=1)
        with pytest.raises(DomainError, match="budget"):
            progression_counts(ns, 4, 2, limit // 2)

    def test_bucket_stats_sampling(self, primes_10k):
        report = check_range(primes_10k, 4, 10_000, sample_stride=100)
        assert report.buckets[0].sampled == 50
        members = set(primes_10k.elements.tolist())
        assert report.buckets[0].min_reps == min(
            brute_force_count(members, e) for e in range(4, 10_001, 200)
        )

    def test_validation(self, primes_10k):
        with pytest.raises(DomainError):
            check_range(primes_10k, 3, 10)
        with pytest.raises(DomainError):
            check_range(primes_10k, 4, 2 * primes_10k.limit + 2)
        with pytest.raises(DomainError):
            check_range(primes_10k, 10, 4)
        with pytest.raises(DomainError):
            check_range(primes_10k, 4, 100, workers=0)

    def test_spot_representations_above_threshold(self):
        ns = perturb_primes(50_000, 3)
        report = check_range(ns, 4, 50_000)
        for even in range(max(report.threshold_n0 + 2, 4), 50_001, 4998):
            assert find_representation(ns, even) is not None


class TestProgressionCounts:
    @given(
        ns=random_sets(),
        pick=st.integers(min_value=0, max_value=6),
        start=st.floats(min_value=0, max_value=1),
        length=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=150, deadline=None)
    # a one-member class on either side, an empty class, the whole range
    @example(ns=NumberSet.from_elements([2, 127]), pick=0, start=0, length=1)
    @example(ns=NumberSet.from_elements(sorted([5, *range(2, 251, 2)]), 333), pick=1, start=0, length=1)
    @example(ns=NumberSet.from_elements(range(1, 256, 2), 700), pick=3, start=0, length=1)
    @example(ns=primes_up_to(641), pick=4, start=0.5, length=1)
    def test_matches_pair_count_and_brute_force(self, ns, pick, start, length):
        # any even start and ranges up to 2 * limit, past limit + 1, at
        # the steps check_range uses and steps past the limit
        step = [2, 4, 6, 14, 2000, 2 * ns.limit + 2, 2 * ns.limit + 64][pick]
        e0 = 2 + 2 * int(start * (ns.limit - 1))
        n = 1 + int(length * ((2 * ns.limit - e0) // step))
        counts = progression_counts(ns, e0, step, n).tolist()
        evens = range(e0, e0 + step * n, step)
        members = set(ns.elements.tolist())
        assert counts == [pair_count(ns, e) for e in evens]
        assert counts == [brute_force_count(members, e) for e in evens]

    @pytest.mark.parametrize("limit", [1_000, 1_037, 4_159, 10_000])
    @pytest.mark.parametrize("step", [2, 4, 6, 14, 2000])
    def test_primes_every_step(self, limit, step):
        # limits that are not multiples of 64 or 128
        ns = primes_up_to(limit)
        for e0 in (2, 4, 6, 2 * limit - step):
            if e0 >= 2:
                n = (2 * limit - e0) // step + 1
                expected = [pair_count(ns, e) for e in range(e0, e0 + step * n, step)]
                assert progression_counts(ns, e0, step, n).tolist() == expected

    @given(
        ns=random_sets(),
        pick=st.integers(min_value=0, max_value=4),
        start=st.floats(min_value=0, max_value=1),
        block_bytes=st.sampled_from([1 << 8, checker._BLOCK_BYTES]),
    )
    @settings(max_examples=80, deadline=None)
    def test_two_threads_give_the_floats_of_one(self, ns, pick, start, block_bytes):
        # the floats before rounding are equal bit for bit, so the counts
        # and the rounding residual are too; 256-byte blocks split most passes
        step = [2, 4, 6, 14, 2000][pick]
        e0 = 2 + 2 * int(start * (ns.limit - 1))
        n = (2 * ns.limit - e0) // step + 1
        one, two = floats_inline_and_threaded(ns, e0, step, n, block_bytes)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("step", [2, 14, 2000])
    def test_two_threads_give_the_counts_of_one_on_the_primes(self, monkeypatch, step):
        ns = primes_up_to(200_000)
        n = (400_000 - 4) // step + 1
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
        one, two = floats_inline_and_threaded(ns, 4, step, n, 1 << 12)
        assert np.array_equal(one, two)
        # step 2 is one column, a single block; the others split
        assert bool(starts) == (step > 2)
        counts = []
        for thread in (InlineThread, threading.Thread):
            monkeypatch.setattr(checker.threading, "Thread", thread)
            counts.append(progression_counts(ns, 4, step, n))
        assert np.array_equal(*counts)
        assert counts[0][-1] == pair_count(ns, 4 + step * (n - 1))

    def test_one_cpu_still_starts_one_worker_per_split_pass(self, monkeypatch, primes_10k):
        # the budget estimate counts two threads for a pass of two or more
        # blocks, so such a pass starts its worker whatever the CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(checker, "_BLOCK_BYTES", 1 << 10)
        passes, starts = [], []
        sum_halves, start = checker._sum_halves, threading.Thread.start
        monkeypatch.setattr(checker, "_sum_halves", lambda args, blocks: passes.append(len(blocks)) or sum_halves(args, blocks))
        monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self.name) or start(self))
        counts = progression_counts(primes_10k, 4, 14, 1000)
        assert counts.tolist() == [pair_count(primes_10k, 4 + 14 * k) for k in range(1000)]
        split = [blocks for blocks in passes if blocks >= 2]
        assert split and starts == ["progression-counts"] * len(split)

    def test_worker_error_reaches_the_caller(self, monkeypatch, primes_10k):
        monkeypatch.setattr(checker, "_BLOCK_BYTES", 1 << 10)
        rfft = np.fft.rfft
        workers = []

        def failing(*args, **kwargs):
            if threading.current_thread().name == "progression-counts":
                workers.append(threading.current_thread())
                raise MemoryError("rfft in the worker")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="rfft in the worker"):
            progression_counts(primes_10k, 4, 14, 1000)
        assert workers and not any(worker.is_alive() for worker in workers)
        assert threading.active_count() == before

    def test_concurrent_callers_under_fast_switching(self, monkeypatch, primes_10k):
        # four callers on one set, each with its own worker: more threads
        # than cores, switching every microsecond
        monkeypatch.setattr(checker, "_BLOCK_BYTES", 1 << 10)
        expected = progression_counts(primes_10k, 4, 14, 1000)
        results = [None] * 4

        def run(i):
            results[i] = progression_counts(primes_10k, 4, 14, 1000)

        callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(result, expected) for result in results)

    def test_step_far_past_the_limit_reads_only_the_members_columns(self, monkeypatch, primes_10k):
        # each class is one row, so the columns read are bounded by its
        # members' span, not by step / 2 = 10^12
        widths = []
        columns = checker._columns
        monkeypatch.setattr(checker, "_columns", lambda *args: widths.append(args[-1]) or columns(*args))
        assert progression_counts(primes_10k, 6, 2 * 10**12, 1).tolist() == [pair_count(primes_10k, 6)]
        assert sum(widths) <= 2 * 10_000

    def test_reads_only_the_bitset(self, monkeypatch, primes_10k):
        expected = progression_counts(primes_10k, 4, 14, 1000)
        ns = NumberSet.from_elements(primes_10k.elements, primes_10k.limit)
        # elements is read off the bitset on demand, so the class's reader is what fails
        monkeypatch.setattr(NumberSet, "elements", property(lambda self: pytest.fail("elements read")))
        assert np.array_equal(progression_counts(ns, 4, 14, 1000), expected)

    def test_precision_guard(self, monkeypatch, primes_10k):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.25)
        with pytest.raises(ArithmeticError, match="off an integer"):
            progression_counts(primes_10k, 4, 2000, 10)

    def test_validation(self, primes_10k):
        for e0, step, n in ((3, 2, 1), (4, 3, 1), (4, 0, 1), (4, 2, 0), (4, 2, 10_000)):
            with pytest.raises(DomainError):
                progression_counts(primes_10k, e0, step, n)

    def test_count_heap_at_2e7(self):
        # the check-primes-2e7 layout: step 2000 over [4, 2e7]; blocks of
        # columns keep the heap near one megabyte, within the estimate
        ns = primes_up_to(20_000_000)
        n = (20_000_000 - 4) // 2000 + 1
        tracemalloc.start()
        try:
            counts = progression_counts(ns, 4, 2000, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(checker._count_bytes(layouts(ns, 4, 2000, n), n), 2 * 2**20), peak
        assert counts[-1] == pair_count(ns, 4 + 2000 * (n - 1))
        assert COUNT_BUDGET == 2**30

    def test_one_block_passes_count_one_thread(self):
        # step 2 (check --sample-stride 1) is one column, a single block that
        # no worker shares: its estimate holds one thread's buffers, about 625
        # MiB at 10^7, within the budget (two threads' would be about 1170 MiB)
        ns = primes_up_to(10_000_000)
        n = (10_000_000 - 4) // 2 + 1
        assert checker._count_bytes(layouts(ns, 4, 2, n), n) < 700 * 2**20 < COUNT_BUDGET


class TestMinimalRepresentations:
    def test_matches_single_queries(self, primes_10k):
        reps = minimal_representations(primes_10k, 4, 2000)
        for i, even in enumerate(range(4, 2002, 2)):
            single = find_representation(primes_10k, even)
            if single is None:
                assert reps[i] == 0
            else:
                assert reps[i] == single[0]

    def test_high_range(self):
        ns = primes_up_to(1000)
        reps = minimal_representations(ns, 1002, 2000)
        members = set(ns.elements.tolist())
        for i, even in enumerate(range(1002, 2002, 2)):
            oracle = brute_force_representation(members, even)
            assert (reps[i] == 0) == (oracle is None)
            if oracle:
                assert reps[i] == oracle[0]

    @given(ns=random_sets())
    @settings(max_examples=60, deadline=None)
    # 4 and 6 alone: the candidate chunk reaches past the even's half (2, 3)
    @example(ns=primes_up_to(100))
    # the even 2, split as 1 + 1 only when 1 is a member
    @example(ns=NumberSet.from_elements([1, 4, 9], 9))
    def test_one_scan_matches_brute_force(self, ns):
        # every even to 2 * limit, so both sides of limit + 1 and the split
        members = set(ns.elements.tolist())
        reps = minimal_representations(ns, 4, 2 * ns.limit)
        for even in range(2, 2 * ns.limit + 1, 2):
            oracle = brute_force_representation(members, even)
            assert find_representation(ns, even) == oracle, even
            if even >= 4:
                assert reps[even // 2 - 2] == (oracle[0] if oracle else 0), even


class TestShiftProperty:
    def test_constructive_witness_small_scale(self):
        from primesim.simsets import shift_set

        primes = primes_up_to(10_000)
        for t in (1, 2, 10):
            shifted = shift_set(primes, t)
            for even in range(2 * t + 4, 10_001, 2):
                rep = find_representation(primes, even - 2 * t)
                assert rep is not None
                p, q = rep
                assert shifted.contains(p + t) and shifted.contains(q + t)
                assert (p + t) + (q + t) == even
                assert find_representation(shifted, even) is not None
