"""Goldbach-style verification over a NumberSet.

Both parts of a pair summing to an even have one parity c, and the set
stores its members by parity: class c holds 2i + c at bit i. Everything
here reads those classes at half resolution.

The hot path answers, for every even number in a range, whether it splits
as q1 + q2 with both parts in the set. It is a word-parallel sweep: a
bitset with one bit per even of a bucket collects, for each element q1 in
turn, a window of class q1 & 1 starting at q1's offset, so one bitset OR
settles every even of the bucket for that q1. Once the open evens are few,
they go to the one candidate scan, which also gives every canonical
smallest-q1 pair (find_representation is that scan on a single even). It
tries q1 upward, or q2 downward above limit + 1, a chunk of candidates at
a time on every open even; evens it cannot split are failures.

Representation counts r(2n) = |A_n ∩ B_n| (the paper's identity) sum each
class's pairs of indices i1 <= i2 with i1 + i2 = n - c, counted by one
AND + popcount of the class's words against a bit-reversed window, an
aligned slice of its reversal pre-shifted for the sum mod 64, over the
indices between the class's first and last members. check_range counts
its sampled evens one residue of n mod 64 at a time, so each shifted copy
is built once.
Distance sets A_n/B_n and their disjointness are materialized only for
diagnostics and small-scale equivalence tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numset import NumberSet, ParityClass, extract_window, bits_at

BUCKET_WIDTH = 1_000_000
SAMPLE_STRIDE = 1_000
_SCAN_TESTS = 256  # candidate tests per scan step, shared by the open evens

_U64 = np.uint64


@dataclass(frozen=True)
class DistanceSet:
    """Distances from a midpoint n to set elements, as a subset of {0..n-1}.

    Side 'A' holds n - q for elements q <= n; side 'B' holds q - n for
    elements n <= q < 2n. `members` is sorted ascending.
    """

    n: int
    side: str
    members: np.ndarray

    def __len__(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class BucketStats:
    lo: int
    hi: int
    sampled: int
    min_reps: int
    mean_reps: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verification run over [lo, hi].

    threshold_n0 is the largest failing even number, or lo - 2 when the
    range is failure-free ("no failure >= lo").
    """

    lo: int
    hi: int
    failures: list[int]
    threshold_n0: int
    buckets: list[BucketStats]
    wall_ms: float


def a_set(setQ: NumberSet, n: int) -> DistanceSet:
    """Distances of n to elements at or below it: {n - q : q in Q, q <= n}."""
    if not 1 <= n <= setQ.limit:
        raise DomainError(f"midpoint {n} outside universe [1, {setQ.limit}]")
    members = (n - setQ.elements[: setQ.rank(n)])[::-1].copy()
    return DistanceSet(n=n, side="A", members=members)


def b_set(setQ: NumberSet, n: int) -> DistanceSet:
    """Distances of n to elements in [n, 2n): {q - n : q in Q, n <= q < 2n}."""
    if 2 * n - 1 > setQ.limit:
        raise DomainError(f"universe too small for b_set midpoint {n}")
    if n < 1:
        raise DomainError("midpoint must be >= 1")
    members = setQ.elements[setQ.rank(n - 1) : setQ.rank(2 * n - 1)] - n
    return DistanceSet(n=n, side="B", members=members)


def disjoint(a: DistanceSet, b: DistanceSet) -> bool:
    """True iff the two distance sets share no member.

    A shared distance d is the pair 2n = (n - d) + (n + d); d = 0 is
    2n = n + n.
    """
    if a.side != "A" or b.side != "B":
        raise DomainError("disjoint expects an A-side and a B-side distance set")
    if a.n != b.n:
        raise DomainError(f"mismatched midpoints {a.n} != {b.n}")
    return not np.intersect1d(a.members, b.members, assume_unique=True).size


def pair_count(setQ: NumberSet, even2n: int) -> int:
    """Number of representations even2n = q1 + q2, q1 <= q2, both in the set.

    Equals |A_n ∩ B_n| for n = even2n/2. Both parts share a parity c, and
    with class c holding 2i + c at bit i, q1 + q2 = 2n means i1 + i2 = n - c.
    """
    _validate_even(setQ, even2n)
    n = even2n >> 1
    return sum(_class_count(setQ.parity_class(c), n - c) for c in (0, 1))


def _class_count(parity: ParityClass, s: int) -> int:
    """Pairs i1 <= i2 of class members with i1 + i2 = s.

    Only i1 in [i_lo, s >> 1], i_lo = max(first, s - last), can pair:
    below first i1 is no member, and below s - last its partner s - i1 is
    none. Those words are ANDed with the matching aligned slice of the
    class's reversal slot for s, i1 > s >> 1 is masked in the top word,
    and the result popcounted; the bits below i_lo in the first word read
    0 on one side or the other. A one-member class has a range only for
    s = 2 * first, where its one pair is the member with itself, so it
    builds no slot.
    """
    h = s >> 1
    i_lo = max(parity.first, s - parity.last)
    if i_lo > h:
        return 0
    if parity.first == parity.last:
        return 1
    words = parity.words
    w_lo, w_hi = i_lo >> 6, h >> 6
    # bit j of B is member s - (64 * w_lo + j), read from bit start of the
    # reversal; start >= -63, and start & 63 == ~s & 63, the slot's key
    start = (words.size << 6) - 1 - s + (w_lo << 6)
    k = (start >> 6) + 1
    B = parity.reversal_slot(s)[k : k + w_hi - w_lo + 1] & words[w_lo : w_hi + 1]
    B[-1] &= _U64((2 << (h & 63)) - 1)
    return int(np.bitwise_count(B, out=B).sum())


def _validate_even(setQ: NumberSet, even2n: int) -> None:
    if even2n % 2:
        raise DomainError(f"{even2n} is odd")
    if not 2 <= even2n <= 2 * setQ.limit:
        raise DomainError(f"{even2n} outside addressable range [2, {2 * setQ.limit}]")


def find_representation(setQ: NumberSet, even2n: int) -> tuple[int, int] | None:
    """Canonical representation (q1, q2) with q1 minimal, or None."""
    _validate_even(setQ, even2n)
    q1 = int(_minimal_q1(setQ, np.array([even2n]))[0])
    return (q1, even2n - q1) if q1 else None


def minimal_representations(setQ: NumberSet, lo: int, hi: int) -> np.ndarray:
    """Smallest q1 for every even in [lo, hi] (0 where no representation).

    The same scan as find_representation, run on the whole range at once,
    so results are identical to per-even queries.
    """
    _validate_range(setQ, lo, hi)
    return _minimal_q1(setQ, np.arange(lo, hi + 2, 2, dtype=np.int64))


def _validate_range(setQ: NumberSet, lo: int, hi: int) -> None:
    if lo % 2 or hi % 2:
        raise DomainError("range endpoints must be even")
    if not 4 <= lo <= hi:
        raise DomainError(f"bad even range [{lo}, {hi}]")
    if hi > 2 * setQ.limit:
        raise DomainError(f"range end {hi} exceeds addressable 2*limit = {2 * setQ.limit}")


def _minimal_q1(setQ: NumberSet, E: np.ndarray) -> np.ndarray:
    """Smallest q1 for each even of the ascending array E (0 where none).

    Evens up to limit + 1 try q1 upward through the elements. Above it small
    q1 are useless (the complement would exceed the universe), so those try
    q2 downward, and the first hit still gives the smallest q1 = even - q2.
    Both run one scan on the halves even / 2; the downward one is
    mirrored, on keys -even / 2 and candidates -q2, so that both ascend
    again.
    """
    out = np.zeros(E.size, dtype=np.int64)
    split = int(E.searchsorted(setQ.limit + 1, side="right"))
    _scan(setQ._words, E[:split] >> 1, setQ.elements, 1, out[:split])
    if split < E.size:
        _scan(setQ._words, -(E[split:][::-1] >> 1), setQ.elements[::-1], -1, out[split:][::-1])
    return out


def _scan(words: np.ndarray, keys: np.ndarray, cands: np.ndarray, sign: int, out: np.ndarray) -> None:
    """Smallest q1 of each even e = 2 * sign * keys[i] into out[i], trying cands in order.

    keys and sign * cands ascend, and a candidate c pairs with e as its
    smaller part (q1 <= q2, up) or its larger part (down) while
    sign * c <= key. Each step tries the next
    max(1, _SCAN_TESTS // open evens) candidates on every open even, so a
    lone even tests a vector at once and thousands test one candidate each.
    A step stops at the half of the first even to run out, so every tested
    partner e - c lies in [1, limit]; evens whose half the scan has passed
    fail and leave. The partner e - q of an element q has q's parity, so
    in the class-split bitset `words`, T bits a class, it is bit
    (q & 1) * T - ((q + 1) >> 1) + e / 2: one offset per candidate, plus
    or minus a key per even.
    """
    class_bits = words.size << 5  # T
    pos = np.arange(keys.size)
    k = 0
    while keys.size and k < cands.size:
        chunk = sign * cands[k : k + max(1, _SCAN_TESTS // keys.size)]
        cut = int(keys.searchsorted(chunk[0]))
        keys, pos = keys[cut:], pos[cut:]
        if not keys.size:
            return
        chunk = chunk[: chunk.searchsorted(keys[0], side="right"), None]
        q = cands[k : k + chunk.size, None]
        k += chunk.size
        # partners e - q, one row per candidate
        offset = (q & 1) * class_bits - ((q + 1) >> 1)
        hits = bits_at(words, offset + keys if sign > 0 else offset - keys)
        found = hits.any(axis=0)
        hit = found.nonzero()[0]
        if hit.size:
            # an even's first hit is its smallest q1 (up) or largest q2 (down)
            c = q[hits[:, hit].argmax(axis=0), 0]
            out[pos[hit]] = c if sign > 0 else -2 * keys[hit] - c
            if hit.size == keys.size:
                return
            keys, pos = keys[~found], pos[~found]


def _sweep_open(setQ: NumberSet, lo: int, hi: int) -> np.ndarray:
    """Evens in [lo, hi] left unsplit by a word-parallel sweep over q1.

    Bit j of R stands for the even lo + 2j. Its partner lo + 2j - q1 has
    q1's parity and is bit ((lo - q1) >> 1) + j of class q1 & 1, so OR-ing
    in that class's window from (lo - q1) >> 1 marks every even e with
    e - q1 in the set. Elements go in ascending order until at most one
    even per 64 integers of [lo, hi] is open (or 2 * q1 > hi, past which a
    new pair would repeat one already found); the rest are left to the
    scan. Meant for hi <= limit + 1, where small q1 split most evens.
    """
    nbits = ((hi - lo) >> 1) + 1
    R = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    if nbits & 63:
        R[-1] = ~_U64((1 << (nbits & 63)) - 1)  # padding past hi counts as settled
    classes = [setQ.parity_class(c).words for c in (0, 1)]
    few = ((hi - lo) >> 6) + 1
    for q1 in map(int, setQ.elements):
        open_evens = (R.size << 6) - int(np.bitwise_count(R).sum())
        if open_evens <= few or 2 * q1 > hi:
            break
        a = (lo - q1) >> 1
        R |= extract_window(classes[q1 & 1], a, a + nbits - 1)
    bits = np.unpackbits(R.view(np.uint8), count=nbits, bitorder="little")
    return lo + 2 * np.flatnonzero(bits == 0)


def _bucket_failures(setQ: NumberSet, b_lo: int, b_hi: int) -> list[int]:
    sweep_hi = min(b_hi, (setQ.limit + 1) & ~1)
    swept = _sweep_open(setQ, b_lo, sweep_hi) if b_lo <= sweep_hi else np.empty(0, np.int64)
    E = np.concatenate([swept, np.arange(max(b_lo, sweep_hi + 2), b_hi + 2, 2, dtype=np.int64)])
    return E[_minimal_q1(setQ, E) == 0].tolist()


def _count_by_residue(setQ: NumberSet, evens: np.ndarray) -> np.ndarray:
    """pair_count of every even, one residue of n = even/2 mod 64 at a time.

    pair_count reads each parity class c through its one-slot reversal,
    keyed by the class's index sum n - c mod 64, so n mod 64 fixes both
    keys, and counting the evens grouped by it builds each slot once. The
    pass runs in the calling thread: on a 2-vCPU host two threads sharing
    it counted slower than one (sampled primes to 2e7, 1.48 s against
    0.99 s).
    """
    counts = np.empty(evens.size, dtype=np.int64)
    order = np.argsort((evens >> 1) & 63, kind="stable")
    counts[order] = [pair_count(setQ, e) for e in evens[order].tolist()]
    return counts


def check_range(
    setQ: NumberSet,
    lo: int,
    hi: int,
    *,
    workers: int = 1,
    bucket_width: int = BUCKET_WIDTH,
    sample_stride: int = SAMPLE_STRIDE,
) -> CheckReport:
    """Verify every even number in [lo, hi] and collect failure/stat buckets.

    Buckets are fixed by (lo, hi, bucket_width) and swept one after another
    in the calling thread. `workers` must be >= 1 and changes nothing: on
    a 2-vCPU host a pool of two threads lost to one on the primes (to 2e7,
    0.242 s against 0.194 s) and gained 6% on perturbed seed 1 at 1e7.
    Within a bucket the word-parallel sweep settles most evens up to
    limit + 1; the open remainder and any evens above limit + 1 go through
    the candidate scan, and the evens it cannot split are the failures.
    Only failures are reported, so the order in which the sweep finds
    pairs does not matter. Representation counts are sampled
    1-in-`sample_stride` evens per bucket (a stride of 1 counts every
    even) and made in one pass over all buckets, grouped by the residue of
    even/2 mod 64; each bucket's min and mean are then read off its own
    counts.
    """
    _validate_range(setQ, lo, hi)
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if bucket_width < 2 or bucket_width % 2:
        raise DomainError("bucket_width must be a positive even number")
    if sample_stride < 1:
        raise DomainError("sample_stride must be >= 1")
    t0 = time.perf_counter()
    bounds = [(b, min(hi, b + bucket_width - 2)) for b in range(lo, hi + 1, bucket_width)]
    sampled = [np.arange(b_lo, b_hi + 1, 2 * sample_stride, dtype=np.int64) for b_lo, b_hi in bounds]
    failures = [e for b in bounds for e in _bucket_failures(setQ, *b)]
    counts = _count_by_residue(setQ, np.concatenate(sampled))
    cuts = np.cumsum([s.size for s in sampled])[:-1]
    buckets = [
        BucketStats(
            lo=b_lo,
            hi=b_hi,
            sampled=int(c.size),
            min_reps=int(c.min()),
            mean_reps=float(c.mean()),
        )
        for (b_lo, b_hi), c in zip(bounds, np.split(counts, cuts))
    ]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return CheckReport(
        lo=lo,
        hi=hi,
        failures=failures,
        threshold_n0=failures[-1] if failures else lo - 2,
        buckets=buckets,
        wall_ms=wall_ms,
    )
