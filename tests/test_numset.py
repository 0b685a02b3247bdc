import functools
import math
import re
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primesim import _setfile, numset, simsets
from primesim.errors import DomainError, SetFormatError
from primesim.numset import (
    NumberSet,
    extract_window,
    load_set,
    primes_up_to,
    save_set,
    bits_at,
    reverse_bits,
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

    @pytest.mark.parametrize("segment_size", [2, 6, 64, 100, 128, 1000, 4096, 1 << 20])
    def test_segmentation_is_invisible(self, monkeypatch, segment_size):
        small = {m: primes_up_to(m).elements.tolist() for m in (2, 17, 100, 9973, 10_000)}
        monkeypatch.setattr(numset, "SEGMENT_SIZE", segment_size)
        big = primes_up_to(10_000)
        for m, elements in small.items():
            cut = np.searchsorted(big.elements, m, side="right")
            assert big.elements[:cut].tolist() == elements

    # each limit ends its last segment at a different odd flag; size 2 stops
    # at 1000, since every limit to 3000 takes about 40 s there, and its one
    # flag is a segment's first and last at any limit
    @pytest.mark.parametrize("segment_size, top", [(2, 1000), (64, 3000)])
    def test_every_limit_against_trial_division(self, monkeypatch, oracle_primes_10k, segment_size, top):
        monkeypatch.setattr(numset, "SEGMENT_SIZE", segment_size)
        for limit in range(2, top + 1):
            cut = np.searchsorted(oracle_primes_10k, limit, side="right")
            assert primes_up_to(limit).elements.tolist() == oracle_primes_10k[:cut], limit

    def test_holds_no_full_size_temporaries(self):
        # the elements and the bitset, plus one segment; the element array
        # is allocated at the Rosser-Schoenfeld bound, so its unused tail
        # counts here until it is shrunk (+1.5 MiB measured)
        tracemalloc.start()
        try:
            ns = primes_up_to(20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ns.elements.nbytes + ns._words.nbytes + 2**21, peak

    def test_heap_is_the_bitset_and_one_segment(self):
        # no element array: the bitset, one segment of flags and 256 KiB
        # (604 KiB above the bitset measured, 512 KiB of it the segment)
        tracemalloc.start()
        try:
            ns = primes_up_to(20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ns._words.nbytes + numset.SEGMENT_SIZE // 2 + 2**18, peak

    def test_len_is_the_popcount(self):
        ns = primes_up_to(10_000_000)
        assert len(ns) == int(np.bitwise_count(ns._words).sum()) == 664_579

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
        assert primes_10k.rank(primes_10k.limit) == len(primes_10k) == 1229
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

    @pytest.mark.parametrize("block_words", [1, 7, numset.BLOCK_WORDS])
    def test_from_elements_bitset_matches_sieve(self, monkeypatch, block_words):
        # the oracle is a plain numpy sieve's flags, each class flags[c::2]
        monkeypatch.setattr(numset, "BLOCK_WORDS", block_words)
        for limit in (10_007, 2**16 - 1, 2**16 + 1):
            flags = np.ones(limit + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, math.isqrt(limit) + 1):
                if flags[p]:
                    flags[p * p :: p] = False
            for ns in (primes_up_to(limit), NumberSet.from_elements(np.flatnonzero(flags), limit)):
                assert_classes_match(ns, flags)

    def test_from_elements_holds_no_full_size_temporaries(self):
        # the copy of the elements and the bitset, plus blocks of temporaries
        elements = primes_up_to(20_000_000).elements
        tracemalloc.start()
        try:
            ns = NumberSet.from_elements(elements, 20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ns.elements.nbytes + ns._words.nbytes + 2**20, peak

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


@st.composite
def windows(draw) -> tuple[list[int], int, int]:
    """Words of 1 to 12 uint64s and a window [a, b] that may start below bit 0 or end past the last word."""
    n_words = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=n_words, max_size=n_words))
    total = 64 * n_words
    a = draw(st.integers(min_value=-2 * total, max_value=total - 1))
    return raw, a, draw(st.integers(min_value=a, max_value=total + 64))


class TestBitWindows:
    @given(case=windows())
    @settings(max_examples=150, deadline=None)
    # windows at a word boundary, where a is a multiple of 64
    @example(case=([2**64 - 1, 0x123456789ABCDEF0], 0, 127))
    @example(case=([0xF0F0F0F0F0F0F0F0, 2**64 - 1, 1], 64, 250))
    @example(case=([2**63 + 1, 7], -128, 70))
    def test_windows_match_unpacked_bits(self, case):
        raw, a, b = case
        words = np.array(raw, dtype=np.uint64)
        total = 64 * words.size
        # positions below 0 or past the last word read 0
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        zeros = np.zeros(2 * total, dtype=np.uint8)
        padded = np.concatenate([zeros, bits, zeros])[a + 2 * total : b + 2 * total + 1]
        fwd = extract_window(words, a, b)
        assert fwd.size == (b - a + 64) // 64
        got = np.unpackbits(fwd.view(np.uint8), bitorder="little")
        assert np.array_equal(got[: b - a + 1], padded)
        assert not got[b - a + 1 :].any()

    def test_window_beyond_source_reads_zero(self):
        words = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        w = extract_window(words, 32, 160)
        got = np.unpackbits(w.view(np.uint8), count=129, bitorder="little")
        assert got[:32].all() and not got[32:].any()

    def test_reversed_words_route_matches_oneshot(self, primes_10k):
        rev = primes_10k.reversed_words()
        total = ((primes_10k.limit >> 6) + 1) << 6
        assert rev.size << 6 == total and not rev.flags.writeable
        bits = np.zeros(total, dtype=np.uint8)
        bits[primes_10k.elements] = 1
        for a, b in [(1, 100), (17, 1000), (5000, 9999)]:
            via_cache = extract_window(rev, total - 1 - b, total - 1 - a)
            got = np.unpackbits(via_cache.view(np.uint8), count=b - a + 1, bitorder="little")
            assert np.array_equal(got, bits[a : b + 1][::-1])

    def test_bits_at(self, primes_10k):
        # bit i of the odd class is 2i + 1
        xs = np.array([0, 1, 2, 4986, 4987], dtype=np.int64)
        got = bits_at(primes_10k.parity_class(1).words, xs)
        assert got.tolist() == np.isin(2 * xs + 1, primes_10k.elements).tolist() == [
            False, True, True, True, False
        ]

    @pytest.mark.parametrize("n_words", [1, 2, 7])
    def test_reverse_bits_matches_unpacked_bits(self, n_words):
        rng = np.random.default_rng(n_words)
        words = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        out = words.copy()
        reverse_bits(out)
        # word k's bit b moves to bit 63 - b of word k
        want = unpacked(words).reshape(n_words, 64)[:, ::-1].ravel()
        assert np.array_equal(unpacked(out), want)
        # on a reversed view: read through the view, the whole window
        # reversed bit by bit
        view = words.copy()[::-1]
        reverse_bits(view)
        assert np.array_equal(unpacked(np.ascontiguousarray(view)), unpacked(words)[::-1])


def unpacked(words: np.ndarray) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def assert_classes_match(ns: NumberSet, flags: np.ndarray) -> None:
    """Class c of ns holds exactly flags[c::2] (flags[x] for x = 0..limit), read-only."""
    for c in (0, 1):
        words = ns.parity_class(c).words
        assert words.size == (ns.limit >> 7) + 1
        got = unpacked(words)
        want = flags[c::2]
        assert np.array_equal(got[: want.size], want), c
        assert not got[want.size :].any()
        assert not words.flags.writeable


class TestParityClasses:
    @pytest.mark.parametrize("block_words", [2, 6, numset.BLOCK_WORDS])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 64])
    def test_unzip_matches_unpacked_bits(self, monkeypatch, block_words, k, offset):
        # limits 128k - 1, 128k and 128k + 64 end the classes at, past and
        # inside a class word; small blocks put block edges inside the bitset
        monkeypatch.setattr(numset, "BLOCK_WORDS", block_words)
        limit = 128 * k + offset
        rng = np.random.default_rng(limit)
        flags = np.zeros(limit + 1, dtype=bool)
        flags[1:] = rng.random(limit) < 0.4
        assert_classes_match(NumberSet.from_elements(np.flatnonzero(flags), limit), flags)

    @given(
        elems=st.sets(st.integers(min_value=1, max_value=3000), max_size=12),
        limit=st.integers(min_value=3000, max_value=3200),
    )
    @settings(max_examples=100, deadline=None)
    @example(elems=set(), limit=3000)  # both classes empty
    @example(elems={2, 41, 99}, limit=3000)  # a one-member even class
    @example(elems={3198, 3199}, limit=3199)  # each at its class's last bit
    def test_first_and_last_match_elements(self, elems, limit):
        ns = NumberSet.from_elements(sorted(elems), limit)
        for c in (0, 1):
            idx = [x >> 1 for x in sorted(elems) if x & 1 == c]
            cls = ns.parity_class(c)
            assert (cls.first, cls.last) == ((idx[0], idx[-1]) if idx else (0, -1)), c

    def test_primes_and_perturbed_sets_have_a_one_member_class(self, primes_10k):
        from primesim.simsets import perturb_primes

        assert (primes_10k.parity_class(0).first, primes_10k.parity_class(0).last) == (1, 1)
        perturbed = perturb_primes(10_000, 1)
        (odd,) = perturbed.elements[perturbed.elements % 2 == 1]
        assert (perturbed.parity_class(1).first, perturbed.parity_class(1).last) == (odd >> 1, odd >> 1)


@st.composite
def bitset_cases(draw) -> tuple[int, np.ndarray]:
    """(limit, sorted elements): random sets of a drawn density, at limits that end classes anywhere in a word."""
    limit = draw(st.integers(min_value=1, max_value=3000))
    density = draw(st.sampled_from([0.0, 0.005, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = rng.random(limit) < density
    parity = draw(st.sampled_from(["both", "even", "odd"]))
    if parity != "both":  # one class empty
        flags[(1 if parity == "even" else 0) :: 2] = False  # flags[x - 1] is x
    return limit, np.flatnonzero(flags).astype(np.int64) + 1


# limits 1 and 2, empty classes, and class ends at, before and past a word and a block
BITSET_EXAMPLES = [
    (1, np.array([], dtype=np.int64)),
    (1, np.array([1])),
    (2, np.array([2])),
    (2, np.array([1, 2])),
    (127, np.arange(1, 128)),
    (128, np.arange(2, 129, 2)),
    (129, np.arange(1, 130, 2)),
    (2 * 2048 + 1, np.arange(1, 2 * 2048 + 2)),
]


class TestBitsetReads:
    """Each read of the bitset against its oracle, an element array of the set."""

    @given(case=bitset_cases())
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_searchsorted(self, case):
        limit, elems = case
        for block_words in (8, 16, numset.BLOCK_WORDS):  # rank passes of many blocks, and of one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numset, "BLOCK_WORDS", block_words)
                ns = NumberSet.from_elements(elems, limit)
                copy = ns.elements
                assert copy.tolist() == elems.tolist()
                queries = np.arange(-3, limit + 4)
                want = np.searchsorted(copy, np.clip(queries, 0, limit), side="right")
                assert ns.rank_many(queries).tolist() == want.tolist()
                sample = range(0, limit + 1, max(1, limit // 40))
                assert [ns.rank(n) for n in sample] == want[3:-3][sample].tolist()
                assert len(ns) == copy.size

    def test_rank_examples(self):
        for limit, elems in BITSET_EXAMPLES:
            ns = NumberSet.from_elements(elems, limit)
            queries = np.arange(0, limit + 1)
            assert ns.rank_many(queries).tolist() == np.searchsorted(elems, queries, side="right").tolist()

    @pytest.mark.parametrize("block_words", [1, 7, numset.BLOCK_WORDS])
    @pytest.mark.parametrize("limit", [1, 2, 127, 128, 129, 2**20 - 1])
    def test_one_pass_rank_edges(self, monkeypatch, limit, block_words):
        # at 2^20 - 1 the bitset is exactly one block of 2^14 words, and
        # rank(limit) reads position 64 * words, one past the last word
        rng = np.random.default_rng(limit)
        ns = NumberSet.from_elements(np.flatnonzero(rng.random(limit) < 0.5) + 1, limit)
        elems = ns.elements
        monkeypatch.setattr(numset, "BLOCK_WORDS", block_words)
        queries = rng.integers(-5, limit + 6, 300)  # unsorted and, at the small limits, repeated
        queries = np.concatenate([queries, [limit, -(2**40), 2**40, limit, 0], queries[::-1]])
        want = np.searchsorted(elems, np.clip(queries, 0, limit), side="right")
        assert ns.rank_many(queries).tolist() == want.tolist()
        assert ns.rank_many(np.array([], dtype=np.int64)).tolist() == []
        inside = queries[(queries >= 0) & (queries <= limit)][:8]
        assert [ns.rank(int(n)) for n in inside] == np.searchsorted(elems, inside, side="right").tolist()
        assert ns.rank(limit) == elems.size

    @given(case=bitset_cases(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_the_element_array(self, case, data):
        limit, elems = case
        lo = data.draw(st.integers(-2, limit + 2), label="lo")
        hi = data.draw(st.integers(lo - 1, limit + 300), label="hi")
        want = elems[(elems >= lo) & (elems <= hi)]
        for block_words in (1, 16, 64, numset.BLOCK_WORDS):  # blocks of 1, 1, 4 and 1024 words
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numset, "BLOCK_WORDS", block_words)
                ns = NumberSet.from_elements(elems, limit)
                for grow in (False, True):
                    up = list(ns.blocks(lo, hi, grow=grow))
                    down = list(ns.blocks(lo, hi, reverse=True, grow=grow))
                    assert all(b.size and np.all(np.diff(b) > 0) for b in up)
                    assert all(b.size and np.all(np.diff(b) < 0) for b in down)
                    assert np.concatenate([np.empty(0, np.int64), *up]).tolist() == want.tolist()
                    assert np.concatenate([np.empty(0, np.int64), *down]).tolist() == want[::-1].tolist()
                assert ns.elements_in(lo, hi).tolist() == want.tolist()

    def test_growing_blocks_read_few_words_first(self, primes_100k):
        sizes = [b[-1] - b[0] for b in primes_100k.blocks(grow=True)][:4]
        assert sizes == sorted(sizes) and sizes[0] < 128

    def test_elements_is_a_fresh_read_only_copy(self, primes_10k):
        first, second = primes_10k.elements, primes_10k.elements
        assert first is not second and np.array_equal(first, second)
        assert not first.flags.writeable and first.flags.owndata

    @given(case=bitset_cases())
    @settings(max_examples=100, deadline=None)
    @example(case=BITSET_EXAMPLES[0])
    def test_save_load_round_trip_is_byte_identical(self, case):
        limit, elems = case
        ns = NumberSet.from_elements(elems, limit)
        want = f"# c\nlimit={limit}\n" + "".join(f"{x}\n" for x in elems.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "set.txt"
            for block_words in (16, numset.BLOCK_WORDS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(numset, "BLOCK_WORDS", block_words)
                    save_set(ns, str(path), header_comments=["c"])
                    assert path.read_text() == want
                    loaded = load_set(str(path))
                    assert loaded == ns and loaded.elements.tolist() == elems.tolist()
                    save_set(loaded, str(path), header_comments=["c"])
                    assert path.read_text() == want

    def test_constructor_refuses_a_bitset_that_does_not_fit(self):
        words = numset.new_words(100)
        with pytest.raises(DomainError, match="uint64 words"):
            NumberSet(words[:-1].copy(), 100)
        words[0] = 1  # the integer 0
        with pytest.raises(DomainError, match="outside"):
            NumberSet(words, 100)
        words = numset.new_words(100)
        words[words.size >> 1] = 1 << 50  # 101
        with pytest.raises(DomainError, match="outside"):
            NumberSet(words, 100)


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

    def test_unallocatable_limit_header_reports_line(self, tmp_path):
        # numpy refuses the 512 PiB bitset at once, so this allocates nothing
        path = tmp_path / "huge.txt"
        path.write_text(f"# comment\nlimit={2**62}\n5\n")
        with pytest.raises(SetFormatError, match=r"huge.txt:2: .*576460752303423504-byte bitset"):
            load_set(str(path))

    def test_limit_header_past_numpy_dimensions_reports_line(self, tmp_path):
        # 2^69 needs 2^63 + 2 words: numpy raises ValueError, not MemoryError
        path = tmp_path / "huge.txt"
        path.write_text(f"limit={2**69}\n5\n")
        with pytest.raises(SetFormatError, match=r"huge.txt:1: .*73786976294838206480-byte bitset"):
            load_set(str(path))

    def test_bad_limit_header_stays_domain_error(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("limit=0\n")
        with pytest.raises(DomainError, match="limit must be >= 1"):
            load_set(str(path))

    def test_empty_needs_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(SetFormatError):
            load_set(str(path))
        path.write_text("limit=9\n")
        ns = load_set(str(path))
        assert len(ns) == 0 and ns.limit == 9


def reference_load_set(path: str) -> NumberSet:
    """The line-by-line loader that load_set replaced, kept as its oracle."""
    limit: int | None = None
    limit_line = 1
    values = array("q")
    prev = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if limit is None and not values and line.startswith("limit="):
                try:
                    limit = int(line[len("limit=") :])
                except ValueError:
                    raise SetFormatError(path, line_no, f"bad limit header {line!r}")
                limit_line = line_no
                continue
            try:
                value = int(line)
            except ValueError:
                raise SetFormatError(path, line_no, f"not an integer: {line!r}")
            if value <= prev:
                message = "elements must be strictly ascending" if values else "elements must be >= 1"
                raise SetFormatError(path, line_no, message)
            try:
                values.append(value)
            except OverflowError:
                raise SetFormatError(path, line_no, f"element {value} does not fit in int64")
            if limit is None:
                limit_line = line_no
            elif value > limit:
                raise SetFormatError(path, line_no, f"element {value} exceeds limit {limit}")
            prev = value
    if not values and limit is None:
        raise SetFormatError(path, 1, "no elements and no limit header")
    try:
        return NumberSet.from_elements(np.frombuffer(values, dtype=np.int64), limit)
    except DomainError as exc:
        if not str(exc).startswith("cannot allocate"):
            raise
        # the bitset is sized by the limit header, or else by the last element
        size = limit if limit is not None else prev
        raise SetFormatError(
            path, limit_line, f"cannot allocate the {((size >> 7) + 1) * 16}-byte bitset for limit {size}"
        ) from None


def _outcome(load, path: str):
    """(limit, elements) of a load, or the type and text of what it raised."""
    try:
        ns = load(path)
    except (SetFormatError, DomainError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return ns.limit, ns.elements.tolist()


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")

# how an element may be written: forms that int() accepts for v >= 0
_FORMS = {
    "plain": str,
    "zeros": lambda v: "00" + str(v),
    "plus": lambda v: "+" + str(v),
    "padded": lambda v: f" \t{v}  ",
    "nbsp": lambda v: f"\u00a0{v}",
    "underscore": lambda v: str(v)[:1] + "_" + str(v)[1:] if v >= 10 else str(v),
    "arabic": lambda v: str(v).translate(_ARABIC_INDIC),
}

# values stay at most 10^6 or at least 10^17, so a bitset sized by a drawn
# limit or last element is at most 125 KB, or so large that numpy's
# allocation fails at once
_SMALL_VALUES = st.integers(1, 10**6)
_VALUES = st.one_of(
    st.integers(1, 1000),
    _SMALL_VALUES,
    st.integers(10**17 - 3, 10**17 + 3),
    st.integers(10**18 - 3, 10**18 + 3),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(10**19 - 3, 10**19 + 3),
)

# lines that hold no element, and lines the loader must refuse
_BLANK_LINES = ["", "   ", "\t", "# comment", "#limit=5", "  # indented comment"]
_BAD_LINES = [
    "limit=abc", "limit=", "limit=7", "limit=-1", "0", "-3", "00", "x12", "1 2", "12a",
    "1__0", "\u00bd", "\ufeff5", "5\x00", "\uff15",  # the last is a fullwidth 5
]
_FAULTS = ["repeat", "down", "zero", "negative", "stray", "bad line", "bad byte"]


@st.composite
def set_files(draw) -> bytes:
    """Bytes of a set file with odd lines mixed in and at most one fault."""
    big = draw(st.booleans())  # else every element loads into a small bitset
    values = sorted(draw(st.lists(_VALUES if big else _SMALL_VALUES, max_size=25, unique=True)))
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    at = draw(st.integers(0, max(len(values) - 1, 0)))
    if values and fault in ("repeat", "down", "zero", "negative", "stray"):
        v = values[at]
        values[at] = {"repeat": values[at - 1] if at else v, "down": v - 2, "zero": 0,
                      "negative": -v, "stray": draw(_VALUES)}[fault]
    lines = [_FORMS[draw(st.sampled_from(sorted(_FORMS)))](v) for v in values]
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    if fault == "bad line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    if draw(st.booleans()):
        top = max(values, default=10)
        header = draw(st.sampled_from([top, top - 1, top + 5, 10**6, 2**63, -2]))
        lines.insert(draw(st.sampled_from([0, 0, 1, len(lines)])), f"limit={header}")
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final newline
    data = text.encode("utf-8")
    if fault == "bad byte":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


# blank and comment lines written before a file's content: none, a few,
# and enough that the content starts far into the file
_LEADING = [0, 1, 7, 64, 65536]


@functools.cache
def _leading_lines(n: int) -> bytes:
    return "".join(_BLANK_LINES[i % len(_BLANK_LINES)] + "\n" for i in range(n)).encode()


class TestBlockParsedLoad:
    """load_set against reference_load_set, with the content after leading lines."""

    @pytest.mark.parametrize("leading", _LEADING)
    @settings(max_examples=150, deadline=None)
    @given(data=set_files())
    def test_matches_reference_loader(self, leading, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "set.txt"
            path.write_bytes(_leading_lines(leading) + data)
            assert _outcome(load_set, str(path)) == _outcome(reference_load_set, str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "limit=20\n# c\n\n3\r\n5\r7\n+11\n 13 \n1_7\n0019",
            f"{10**17 + 1}\n{2**63 - 1}\n",  # 18 and 19 digits, both fit
            f"{10**17 + 1}\n{2**63}\n",
            f"{10**18}\n{10**19}\n",  # 19 and 20 digits
            "3\nlimit=9\n5\n",  # a header after an element
            "limit=9\nlimit=10\n5\n",  # a second header
            "limit=9\n3\n10\n2\n",  # over the limit before a descent
            "limit=9\n3\n2\n10\n",  # a descent before going over
            "5\n5\n",
            "0\n",
            "\u0663\n\u0665\n",
            "limit=0x10\n5\n",
            "x12\n0\n",  # a bad line before a bad element
            "limit=-1\n0\n",  # 0 fails both checks
            "limit=5\n 3 \n\u00bd\n9\n",
            "3 5\n",  # one line of two fields, not two elements
            "3\n5\x1c6\n8\n",  # numpy separates fields at \x1c; int() refuses the line
            "5 6\n",
            "5,6\n",
            "5 # c\n",  # no comment after an element
            "limit=9\n3\n# c\n5\n",  # a comment after elements
            "limit=9\n3\n# c\n5 # d\n",  # and a # after an element
            "\n  \n# c\nlimit=9\n3\n",  # a header after blank lines
            "limit=9\n  \n\t\n",  # a header and only whitespace lines
            "# a\x0bb\x0cc\x1cd\x85e\u2028f\nlimit=9\n3\n5\n",  # none of these ends a line
            "5\n\n100000000000000000\n\n",  # no header, and no room for the bitset
        ],
    )
    @pytest.mark.parametrize("leading", _LEADING)
    def test_examples_match_reference_loader(self, tmp_path, text, leading):
        path = tmp_path / "set.txt"
        path.write_bytes(_leading_lines(leading) + text.encode("utf-8"))
        assert _outcome(load_set, str(path)) == _outcome(reference_load_set, str(path))

    def test_unallocatable_set_names_its_last_element(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("5\n\n100000000000000000\n\n")
        with pytest.raises(SetFormatError, match=r"set\.txt:3: cannot allocate"):
            load_set(str(path))

    def test_many_blocks_match_reference_loader(self, tmp_path):
        # a perturbed set with odd lines and a fault far into the file
        ns = simsets.perturb_primes(200_000, 3)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["a", "b"])
        assert _outcome(load_set, str(path)) == (ns.limit, ns.elements.tolist())
        lines = path.read_text().split("\n")
        lines[9000] = f" {lines[9000]} "
        lines[12_000] = lines[11_999]
        path.write_text("\n".join(lines))
        assert _outcome(load_set, str(path)) == _outcome(reference_load_set, str(path))
        assert "set.txt:12001: elements must be strictly ascending" in _outcome(load_set, str(path))[1]

    def test_padded_lines_skip_the_per_line_rules(self, tmp_path, monkeypatch):
        ns = simsets.perturb_primes(100_000, 2)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["c"])
        forms = (" {} ", "+{}", "00{}", "\t{}")
        lines = path.read_text().split("\n")  # comment, header, elements, ""
        lines[2:-1] = [forms[i % len(forms)].format(x) for i, x in enumerate(lines[2:-1])]
        path.write_text("\n".join(lines))

        def refuse(path):
            raise AssertionError("the per-line rules ran")

        monkeypatch.setattr(_setfile, "by_line", refuse)
        assert load_set(str(path)) == ns

    def test_comment_lines_mid_file_skip_the_per_line_rules(self, tmp_path, monkeypatch):
        # numpy stops at the first comment line and reads the file again, skipping # lines
        ns = simsets.perturb_primes(100_000, 2)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["c"])
        lines = path.read_text().split("\n")
        for at, odd in ((9000, "# halfway"), (6000, ""), (5000, "#"), (3001, "  # two"), (3000, "# in a row")):
            lines.insert(at, odd)
        path.write_text("\n".join(lines) + "# a last comment\n")

        def refuse(path):
            raise AssertionError("the per-line rules ran")

        monkeypatch.setattr(_setfile, "by_line", refuse)
        assert load_set(str(path)) == ns

    @pytest.mark.parametrize("bad, message", [
        ("3x", "not an integer: '3x'"),
        ("limit=5", "not an integer: 'limit=5'"),
        ("1", "elements must be strictly ascending"),
    ])
    def test_bad_line_after_a_comment_line_names_its_line(self, tmp_path, bad, message):
        ns = simsets.perturb_primes(100_000, 2)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["c"])
        lines = path.read_text().split("\n")  # comment, header, elements, ""
        lines.insert(4000, "# odd")
        lines.insert(7000, "")
        lines.insert(8000, bad)  # line 8001
        path.write_text("\n".join(lines))
        with pytest.raises(SetFormatError, match=f"set.txt:8001: {re.escape(message)}"):
            load_set(str(path))
        assert _outcome(load_set, str(path)) == _outcome(reference_load_set, str(path))

    def test_loaded_elements_are_not_copied(self, tmp_path):
        ns = NumberSet.from_elements([2, 3, 5, 7], limit=10)
        path = tmp_path / "set.txt"
        save_set(ns, str(path), header_comments=["c"])
        loaded = load_set(str(path))
        # the set keeps only its bitset; elements is a fresh read-only copy of it
        assert loaded.elements.flags.owndata and loaded.elements.size == 4
        assert not loaded.elements.flags.writeable

    def test_from_elements_copies_and_leaves_the_array_writeable(self):
        elems = np.array([2, 3, 5], dtype=np.int64)
        ns = NumberSet.from_elements(elems, limit=10)
        assert elems.flags.writeable
        elems[0] = 1
        assert ns.elements.tolist() == [2, 3, 5]

    def test_heap_peak_is_the_result_plus_two_mb(self, tmp_path):
        # no second full-size copy of the elements; blocks are bounded
        path = tmp_path / "set.txt"
        save_set(simsets.perturb_primes(1_000_000, 1), str(path))
        tracemalloc.start()
        try:
            ns = load_set(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ns) > 70_000
        assert peak <= ns.elements.nbytes + ns._words.nbytes + 2 * 2**20, peak
