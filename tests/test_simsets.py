import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primesim import numset, simsets
from primesim._rng import mix64
from primesim.cli import main
from primesim.errors import DomainError
from primesim.numset import NumberSet, primes_up_to, save_set
from primesim.simsets import (
    KINDS,
    SetSpec,
    SimilarityReport,
    build,
    perturb_primes,
    shift_set,
    similarity,
)

from conftest import trial_division_primes

# each SetSpec field's inline CLI flag
_FLAGS = {"limit": "--limit", "seed": "--seed", "shift_t": "--shift", "path": "--path"}


def sequential_perturb(limit: int, seed: int) -> list[int]:
    """Reference implementation of the perturbation: one prime at a time.

    Ascending scan; the keyed sign choice collides with the previously
    emitted element -> flip; still colliding -> drop. The production code
    vectorizes this; results must be identical.
    """
    primes = primes_up_to(limit).elements.tolist()
    signs = mix64(seed, np.array(primes, dtype=np.uint64)) & np.uint64(1)
    emitted: list[int] = []
    for p, bit in zip(primes, signs):
        sign = 1 if bit else -1
        candidate = p + sign
        if emitted and candidate == emitted[-1]:
            candidate = p - sign
        if emitted and candidate == emitted[-1]:
            continue
        emitted.append(candidate)
    return sorted(emitted)


def brute_similarity(setQ: NumberSet, setP: NumberSet) -> SimilarityReport:
    """Reference similarity: cumulative membership counts over every n, read at the grid for the series."""
    common = min(setQ.limit, setP.limit)
    q, p = set(setQ.elements.tolist()), set(setP.elements.tolist())
    devs = []
    rank_q = rank_p = 0
    for n in range(1, common + 1):
        rank_q += n in q
        rank_p += n in p
        devs.append(abs(rank_q - rank_p))
    best = max(devs)
    grid = sorted(set(np.linspace(1, common, num=min(simsets.SERIES_POINTS, common), dtype=np.int64).tolist()))
    return SimilarityReport(
        max_deviation=best,
        bound_c=best + 1,
        samples=common,
        witness_n=devs.index(best) + 1,
        series=tuple((n, devs[n - 1]) for n in grid),
    )


def small_pair(q: list[int], p: list[int]) -> tuple[NumberSet, NumberSet]:
    return NumberSet.from_elements(q, 20), NumberSet.from_elements(p, 20)


@st.composite
def set_pairs(draw) -> tuple[NumberSet, NumberSet]:
    """Two sets with their own limits; either may be empty, and they share
    a drawn (possibly empty) part of [1, min(limits)]."""
    limits = [draw(st.integers(min_value=1, max_value=300)) for _ in range(2)]
    shared = draw(st.sets(st.integers(min_value=1, max_value=min(limits)), max_size=40))
    return tuple(
        NumberSet.from_elements(
            sorted(shared | draw(st.sets(st.integers(min_value=1, max_value=lim), max_size=40))),
            lim,
        )
        for lim in limits
    )


def temporaries_mix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Reference splitmix64 finalizer: one temporary per xor-shift."""
    z = counters.astype(np.uint64, copy=True)
    z += np.uint64(((seed + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class TestMix64:
    def test_matches_the_temporaries_expression(self):
        rng = np.random.default_rng(23)
        counters = np.concatenate([
            rng.integers(0, 2**64, size=5000, dtype=np.uint64, endpoint=False),
            np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
        ])
        for seed in (0, 1, 42, 2**40, -1):
            assert np.array_equal(mix64(seed, counters), temporaries_mix64(seed, counters))

    def test_leaves_the_counters_alone(self):
        counters = np.arange(10, dtype=np.uint64) << np.uint64(60)
        before = counters.copy()
        mix64(5, counters)
        assert np.array_equal(counters, before)


class TestPerturbPrimes:
    def test_forced_plus_one(self, monkeypatch):
        # hash bit 0 set: every prime moves up
        monkeypatch.setattr(simsets, "mix64", lambda seed, xs: np.ones(xs.shape, np.uint64))
        ns = perturb_primes(10, 0)
        assert ns.elements.tolist() == [3, 4, 6, 8]

    def test_forced_minus_one(self, monkeypatch):
        monkeypatch.setattr(simsets, "mix64", lambda seed, xs: np.zeros(xs.shape, np.uint64))
        ns = perturb_primes(10, 0)
        assert ns.elements.tolist() == [1, 2, 4, 6]

    def test_deterministic(self):
        a = perturb_primes(100, 1)
        b = perturb_primes(100, 1)
        assert a == b

    def test_limit_too_small(self):
        with pytest.raises(DomainError):
            perturb_primes(2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 11])
    def test_matches_sequential_reference(self, seed):
        got = perturb_primes(100_000, seed).elements.tolist()
        assert got == sequential_perturb(100_000, seed)

    def test_no_element_is_dropped(self):
        # a +-1 move collides only for q = p + 2, and the flip sends q to
        # q + 1, above every earlier candidate; 3, 5, 7 is the one chain
        for limits, seeds in ((range(3, 130), range(400)), ((1000, 10_007), range(2000))):
            for limit in limits:
                count = len(primes_up_to(limit))
                for seed in seeds:
                    assert len(perturb_primes(limit, seed)) == count, (limit, seed)

    @given(limit=st.integers(min_value=3, max_value=3000), seed=st.integers(0, 2**64 - 1))
    @example(limit=10, seed=4)  # [2, 3, 6, 8]: 2 -> 3 with 3 -> 2, put in order
    @example(limit=10, seed=1)  # [1, 4, 6, 8]: 3, 5, 7, two collisions in a chain
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_reference_anywhere(self, limit, seed):
        assert perturb_primes(limit, seed).elements.tolist() == sequential_perturb(limit, seed)

    @given(limit=st.integers(min_value=3, max_value=5000), seed=st.integers(0, 2**64 - 1))
    @example(limit=389, seed=1)  # 127 and 131 in two blocks of 128 integers
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_reference_across_blocks(self, limit, seed):
        # one-word blocks of 128 integers: a collision can span a block edge
        want = sequential_perturb(limit, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numset, "BLOCK_WORDS", 16)
            assert perturb_primes(limit, seed).elements.tolist() == want

    @pytest.mark.parametrize(
        "limit, seed, digest",
        [
            (10**6, 1, "aa33800ebf2f44a611dc321c7d3e7527d117bbf8b09f06f9fe0d546b2f135030"),
            (10**6, 7, "f8d64191214a87d3dbfdadb72075bb5fc62c542d6cabce04e591002122ed3c84"),
            (999_983, 2**63 + 5, "07b4ddd920e000a3e16f15357a19034d6ff7555ad38713bafb30a3df5c6a6650"),
            (3_000_001, 11, "badde5b99712ce0833c39f4cae4dee00225206f8f843ecf459cbef57bc831d83"),
        ],
    )
    def test_pinned_to_the_element_array_build(self, limit, seed, digest):
        # sha256 of the int64 elements, as the in-place element-array version built them
        got = hashlib.sha256(perturb_primes(limit, seed).elements.tobytes()).hexdigest()
        assert got == digest

    def test_given_primes_spare_the_sieve(self, monkeypatch):
        primes = primes_up_to(10_000)
        want = perturb_primes(10_000, 3)
        monkeypatch.setattr(simsets, "primes_up_to", lambda limit: pytest.fail("sieved again"))
        assert perturb_primes(10_000, 3, primes) == want

    def test_holds_no_full_size_temporaries(self):
        # the elements and the bitset, plus one sieve segment (+1.9 MiB measured)
        tracemalloc.start()
        try:
            ns = perturb_primes(10_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ns.elements.nbytes + ns._words.nbytes + 2**21, peak

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_every_element_moved_by_one(self, seed):
        ns = perturb_primes(50_000, seed)
        primes = set(primes_up_to(50_001).elements.tolist())
        for q in ns.elements.tolist():
            assert (q - 1) in primes or (q + 1) in primes
        assert np.all(np.diff(ns.elements) > 0)

    def test_deviation_bound_exhaustive_1e6_seed42(self):
        # keyed perturbation keeps every rank within 2 of the prime count
        ns = perturb_primes(1_000_000, 42)
        primes = primes_up_to(1_000_000)
        report = similarity(ns, primes)
        assert report.max_deviation <= 2
        assert report.bound_c == report.max_deviation + 1


class TestShiftSet:
    def test_shift_up(self):
        base = NumberSet.from_elements([2, 3, 5, 7], 10)
        assert shift_set(base, 1).elements.tolist() == [3, 4, 6, 8]

    def test_shift_down(self):
        base = NumberSet.from_elements([2, 3, 5, 7], 10)
        assert shift_set(base, -1).elements.tolist() == [1, 2, 4, 6]

    def test_shift_below_one_rejected(self):
        base = NumberSet.from_elements([2, 3], 5)
        with pytest.raises(DomainError):
            shift_set(base, -2)

    def test_shift_holds_no_copy_of_the_elements(self):
        # the shifted elements and their bitset, plus blocks of temporaries
        primes = primes_up_to(10**7)
        tracemalloc.start()
        try:
            ns = shift_set(primes, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ns.elements.tolist()[:3] == [5, 6, 8]
        assert peak <= ns.elements.nbytes + ns._words.nbytes + 2**20, peak

    @given(
        limit=st.integers(min_value=1, max_value=3000),
        density=st.sampled_from([0.005, 0.3, 1.0]),
        rng_seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_translated_elements(self, limit, density, rng_seed, data):
        # the oracle is the element array plus t, on sets of either parity mix
        flags = np.random.default_rng(rng_seed).random(limit) < density
        elems = np.flatnonzero(flags).astype(np.int64) + 1
        if not elems.size:
            elems = np.array([limit])
        t = data.draw(st.integers(1 - int(elems[0]), 400), label="t")
        base = NumberSet.from_elements(elems, limit)
        for block_words in (1, numset.BLOCK_WORDS):  # one-word blocks put block edges everywhere
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numset, "BLOCK_WORDS", block_words)
                out = shift_set(base, t)
            assert out.limit == limit + t
            assert out.elements.tolist() == (elems + t).tolist()

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            shift_set(NumberSet.from_elements([], 10), 1)

    def test_rank_identity_against_sieve(self):
        primes = primes_up_to(1000)
        shifted = shift_set(primes, 10)
        oracle = len([p for p in trial_division_primes(490)])
        assert shifted.rank(500) == oracle == 93

    @given(t=st.integers(min_value=-1, max_value=50), n=st.integers(min_value=0, max_value=900))
    @settings(max_examples=80, deadline=None)
    def test_rank_identity_property(self, t, n):
        primes = primes_up_to(1000)
        shifted = shift_set(primes, t)
        if 0 <= n - t <= primes.limit and n <= shifted.limit:
            assert shifted.rank(n) == primes.rank(n - t)


class TestSimilarity:
    def test_identity_is_zero(self, primes_10k):
        report = similarity(primes_10k, primes_10k)
        assert report.max_deviation == 0
        assert report.bound_c == 1
        assert report.samples == primes_10k.limit

    def test_shifted_set_bounded_by_t_plus_one(self, primes_10k):
        for t in (1, 2, 3):
            shifted = shift_set(primes_10k, t)
            report = similarity(shifted, primes_10k)
            assert report.max_deviation <= t
            assert report.bound_c <= t + 1

    def test_perturbed_bound_c(self):
        ns = perturb_primes(100_000, 7)
        report = similarity(ns, primes_up_to(100_000))
        assert report.bound_c <= 2

    def test_witness_attains_max(self, primes_10k):
        shifted = shift_set(primes_10k, 2)
        report = similarity(shifted, primes_10k)
        got = abs(shifted.rank(report.witness_n) - primes_10k.rank(report.witness_n))
        assert got == report.max_deviation

    @pytest.mark.parametrize("block_words", [1, 3, 2**14])
    @given(pair=set_pairs())
    # both empty; the second set reaches the maximum first; both reach it,
    # each at its own element; one set reaches it twice
    @example(pair=small_pair([], []))
    @example(pair=small_pair([5], [3]))
    @example(pair=small_pair([3, 4], [1]))
    @example(pair=small_pair([2, 10], [5]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, block_words, pair):
        # a grid of every n, and one thinner than the range
        for points in (simsets.SERIES_POINTS, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numset, "BLOCK_WORDS", block_words)
                mp.setattr(simsets, "SERIES_POINTS", points)
                for setQ, setP in (pair, pair[::-1]):
                    assert similarity(setQ, setP) == brute_similarity(setQ, setP)

    def test_series_matches_rank_many(self):
        # many windows, and grid points that fall between elements
        setQ, setP = perturb_primes(10**6, 1), perturb_primes(10**6, 4)
        series = np.array(similarity(setQ, setP).series)
        grid = np.unique(np.linspace(1, 10**6 + 1, num=simsets.SERIES_POINTS, dtype=np.int64))
        assert series[:, 0].tolist() == grid.tolist()
        assert series[:, 1].tolist() == np.abs(setQ.rank_many(grid) - setP.rank_many(grid)).tolist()
        assert series[:, 1].any()

    def test_heap_peak_stays_small(self):
        # blocks of elements only: nothing sized by the limit or the sets
        ns = perturb_primes(10**6, 1)
        primes = primes_up_to(10**6)
        tracemalloc.start()
        try:
            similarity(ns, primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_deviation_series_thinning(self, monkeypatch, primes_10k):
        monkeypatch.setattr(simsets, "SERIES_POINTS", 50)
        ns, devs = np.array(similarity(primes_10k, primes_10k).series).T
        assert ns.size <= 50
        assert not devs.any()


class TestBitsetOnly:
    def test_builders_and_writers_read_no_element_array(self, monkeypatch, tmp_path):
        from primesim.checker import a_set, b_set
        from primesim.numset import load_set

        forbid = property(lambda self: pytest.fail("NumberSet.elements read"))
        monkeypatch.setattr(NumberSet, "elements", forbid)
        primes = primes_up_to(1_000_000)
        ns = perturb_primes(1_000_000, 1, primes)
        shifted = shift_set(primes, 3)
        save_set(ns, str(tmp_path / "q.txt"))
        assert load_set(str(tmp_path / "q.txt")) == ns
        assert similarity(ns, primes).max_deviation <= 2
        assert similarity(shifted, primes).max_deviation >= 1
        assert len(similarity(ns, primes).series) == simsets.SERIES_POINTS
        assert len(a_set(ns, 500_000)) == ns.rank(500_000)
        assert len(b_set(ns, 500_000)) == ns.rank(999_999) - ns.rank(499_999)


class TestSetSpec:
    def test_build_primes(self):
        assert build(SetSpec(kind="primes", limit=10)).elements.tolist() == [2, 3, 5, 7]

    def test_build_perturbed_deterministic(self):
        spec = SetSpec(kind="perturbed", limit=100, seed=1)
        assert build(spec) == build(spec)

    def test_build_file_roundtrip(self, tmp_path, primes_10k):
        path = tmp_path / "p.txt"
        save_set(primes_10k, str(path))
        spec = SetSpec(kind="file", path=str(path))
        assert build(spec) == primes_10k

    def test_build_shifted(self):
        ns = build(SetSpec(kind="shifted", limit=10, shift_t=1))
        assert ns.elements.tolist() == [3, 4, 6, 8]

    def test_text_roundtrip(self):
        specs = [
            SetSpec(kind="primes", limit=1000),
            SetSpec(kind="perturbed", limit=1000, seed=99),
            SetSpec(kind="shifted", limit=1000, shift_t=-1),
            SetSpec(kind="file", path="sets/q.txt"),
        ]
        assert sorted(spec.kind for spec in specs) == sorted(KINDS)
        for spec in specs:
            text = "".join(f"{key}={value}\n" for key, value in spec.to_dict().items())
            assert SetSpec.from_text(text) == spec

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            SetSpec.from_text("kind=primes\nlimit=ten\n")
        with pytest.raises(ValueError, match="kind"):
            SetSpec.from_text("limit=10\n")

    @pytest.mark.parametrize("kind, field", [(k, f) for k, need in KINDS.items() for f in need])
    def test_each_needed_field_is_checked(self, kind, field):
        full = {"limit": 100, "seed": 1, "shift_t": 1, "path": "q.txt"}
        with pytest.raises(DomainError, match=f"^{kind} spec needs {field}$"):
            SetSpec(kind, **{**full, field: None}).validate()

    @pytest.mark.parametrize("kind, field", [(k, f) for k, need in KINDS.items() for f in _FLAGS if f not in need])
    def test_each_unused_field_is_refused(self, capsys, kind, field):
        full = {"limit": 100, "seed": 1, "shift_t": 1, "path": "q.txt"}
        with pytest.raises(DomainError, match=f"^{kind} spec takes no {field}$"):
            SetSpec(kind, **{f: full[f] for f in (*KINDS[kind], field)}).validate()
        argv = [arg for f in (*KINDS[kind], field) for arg in (_FLAGS[f], str(full[f]))]
        assert main(["anb", "--set", kind, *argv, "--n", "5"]) == 2
        assert capsys.readouterr().err.strip().endswith(f"{kind} spec takes no {_FLAGS[field]}")

    def test_validation(self):
        with pytest.raises(DomainError):
            SetSpec(kind="perturbed", limit=100).validate()
        with pytest.raises(DomainError):
            SetSpec(kind="nonsense", limit=5).validate()
        with pytest.raises(DomainError):
            SetSpec(kind="file").validate()
        with pytest.raises(DomainError, match="^file spec needs path$"):
            SetSpec(kind="file", path="").validate()
        with pytest.raises(DomainError):
            SetSpec(kind="shifted", limit=100, shift_t=-2).validate()
