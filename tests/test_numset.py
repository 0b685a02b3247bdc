import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesim.errors import DomainError, SetFormatError
from primesim.numset import (
    NumberSet,
    extract_window,
    extract_window_reversed,
    load_set,
    primes_up_to,
    save_set,
    bits_at,
    window_bools,
)

from conftest import trial_division_primes


class TestPrimesUpTo:
    def test_first_primes(self):
        assert primes_up_to(10).elements.tolist() == [2, 3, 5, 7]

    def test_rank_100_against_trial_division(self):
        oracle = trial_division_primes(100)
        ns = primes_up_to(100)
        assert ns.rank(100) == len(oracle) == 25
        assert ns.elements.tolist() == oracle

    def test_exhaustive_rank_agreement_to_1e4(self, primes_10k, oracle_primes_10k):
        # every prefix count must match the trial-division oracle
        counts = np.zeros(10_001, dtype=np.int64)
        for p in oracle_primes_10k:
            counts[p] = 1
        counts = np.cumsum(counts)
        for n in range(0, 10_001):
            assert primes_10k.rank(n) == counts[n]

    def test_limit_below_two_rejected(self):
        with pytest.raises(DomainError):
            primes_up_to(1)

    @pytest.mark.parametrize("segment_size", [64, 128, 4096, 1 << 20])
    def test_segmentation_is_invisible(self, segment_size):
        big = primes_up_to(10_000, segment_size)
        for m in (2, 17, 100, 9973, 10_000):
            small = primes_up_to(m)
            cut = np.searchsorted(big.elements, m, side="right")
            assert big.elements[:cut].tolist() == small.elements.tolist()

    def test_bad_segment_size(self):
        with pytest.raises(DomainError):
            primes_up_to(100, segment_size=100)

    def test_prime_count_at_2e8(self):
        # pinned once against an independent prime-counting implementation
        ns = primes_up_to(200_000_000)
        assert ns.rank(200_000_000) == 11_078_937


class TestNumberSet:
    def test_contains_examples(self):
        p = primes_up_to(10)
        assert p.contains(7)
        assert not p.contains(9)
        assert p.contains(2)

    def test_contains_out_of_universe(self):
        p = primes_up_to(10)
        with pytest.raises(DomainError):
            p.contains(0)
        with pytest.raises(DomainError):
            p.contains(11)

    def test_rank_bounds(self, primes_10k):
        assert primes_10k.rank(0) == 0
        assert primes_10k.rank(primes_10k.limit) == len(primes_10k)
        with pytest.raises(DomainError):
            primes_10k.rank(primes_10k.limit + 1)
        with pytest.raises(DomainError):
            primes_10k.rank(-1)

    def test_rank_step_matches_contains(self, primes_10k):
        # rank increments by exactly one at members, zero elsewhere
        for n in range(1, 2000):
            step = primes_10k.rank(n) - primes_10k.rank(n - 1)
            assert step == (1 if primes_10k.contains(n) else 0)

    def test_from_elements_validation(self):
        with pytest.raises(DomainError):
            NumberSet.from_elements([3, 2])
        with pytest.raises(DomainError):
            NumberSet.from_elements([0, 2])
        with pytest.raises(DomainError):
            NumberSet.from_elements([2, 2])
        with pytest.raises(DomainError):
            NumberSet.from_elements([5], limit=4)
        with pytest.raises(DomainError):
            NumberSet.from_elements([])

    def test_from_elements_roundtrip(self):
        ns = NumberSet.from_elements([1, 4, 9, 100], limit=120)
        assert ns.limit == 120
        assert ns.rank(9) == 3
        assert 4 in ns and 5 not in ns
        assert len(ns) == 4

    def test_immutable(self, primes_10k):
        with pytest.raises(ValueError):
            primes_10k.elements[0] = 1

    @given(
        elems=st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=60)
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_contains_coherence(self, elems):
        sorted_elems = sorted(elems)
        ns = NumberSet.from_elements(sorted_elems, limit=500)
        reference = set(sorted_elems)
        for n in (0, 1, 250, 499, 500):
            assert ns.rank(n) == sum(1 for e in reference if e <= n)
        for x in (1, 2, 250, 500):
            assert ns.contains(x) == (x in reference)


class TestBitWindows:
    @given(
        data=st.data(),
        n_words=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_match_unpacked_bits(self, data, n_words):
        raw = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=n_words,
                max_size=n_words,
            )
        )
        words = np.array(raw, dtype=np.uint64)
        total = 64 * n_words
        # windows may start below bit 0 or end past the last word: those read 0
        a = data.draw(st.integers(min_value=-2 * total, max_value=total - 1))
        b = data.draw(st.integers(min_value=a, max_value=total + 64))
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        zeros = np.zeros(2 * total, dtype=np.uint8)
        padded = np.concatenate([zeros, bits, zeros])[a + 2 * total : b + 2 * total + 1]
        fwd = extract_window(words, a, b)
        assert fwd.size == (b - a + 64) // 64
        got = np.unpackbits(fwd.view(np.uint8), bitorder="little")
        assert np.array_equal(got[: b - a + 1], padded)
        assert not got[b - a + 1 :].any()
        rev = extract_window_reversed(words, a, b)
        got_rev = np.unpackbits(rev.view(np.uint8), count=b - a + 1, bitorder="little")
        assert np.array_equal(got_rev, padded[::-1])

    def test_window_beyond_source_reads_zero(self):
        words = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        w = extract_window(words, 32, 160)
        got = np.unpackbits(w.view(np.uint8), count=129, bitorder="little")
        assert got[:32].all() and not got[32:].any()

    def test_window_bools(self, primes_10k):
        bools = window_bools(primes_10k._words, 1, 100)
        members = np.flatnonzero(bools) + 1
        assert members.tolist() == trial_division_primes(100)

    def test_reversed_words_route_matches_oneshot(self, primes_10k):
        rev = primes_10k.reversed_words()
        total = primes_10k._words.size << 6
        for a, b in [(1, 100), (17, 1000), (5000, 9999)]:
            via_cache = extract_window(rev, total - 1 - b, total - 1 - a)
            direct = extract_window_reversed(primes_10k._words, a, b)
            assert np.array_equal(via_cache, direct)

    def test_bits_at(self, primes_10k):
        xs = np.array([2, 3, 4, 9973, 9974], dtype=np.int64)
        assert bits_at(primes_10k._words, xs).tolist() == [True, True, False, True, False]


class TestSetFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ns = NumberSet.from_elements([1, 2, 17, 9999], limit=12_345)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["written by test"])
        loaded = load_set(str(path))
        assert loaded == ns
        assert loaded.limit == 12_345
        # a second save of the loaded set is byte-identical
        path2 = tmp_path / "set2.txt"
        save_set(loaded, str(path2), header_comments=["written by test"])
        assert path.read_bytes() == path2.read_bytes()

    def test_comments_and_header_optional(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("# a comment\n3\n5\n11\n")
        ns = load_set(str(path))
        assert ns.elements.tolist() == [3, 5, 11]
        assert ns.limit == 11

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("limit=10\n2\nthree\n")
        with pytest.raises(SetFormatError, match="bad.txt:3"):
            load_set(str(path))

    def test_descending_reports_line(self, tmp_path):
        path = tmp_path / "desc.txt"
        path.write_text("5\n3\n")
        with pytest.raises(SetFormatError, match="desc.txt:2"):
            load_set(str(path))

    def test_element_above_header_limit(self, tmp_path):
        path = tmp_path / "over.txt"
        path.write_text("limit=4\n2\n5\n")
        with pytest.raises(SetFormatError, match="over.txt:3"):
            load_set(str(path))

    def test_element_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"5\n{2**63}\n")
        with pytest.raises(SetFormatError, match="big.txt:2: element 9223372036854775808"):
            load_set(str(path))

    def test_empty_needs_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(SetFormatError):
            load_set(str(path))
        path.write_text("limit=9\n")
        ns = load_set(str(path))
        assert len(ns) == 0 and ns.limit == 9
