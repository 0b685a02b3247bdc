"""Goldbach-style verification over a NumberSet.

Both parts of a pair summing to an even have one parity c, and the set
stores its members by parity: class c holds 2i + c at bit i. Everything
here reads those classes at half resolution.

The hot path answers, for every even number in a range, whether it splits
as q1 + q2 with both parts in the set. It is a word-parallel sweep: a
bitset with one bit per even of a chunk collects, for each element q1 in
turn, a window of class q1 & 1 starting at q1's offset, so one bitset OR
settles every even of the chunk for that q1. Once the open evens are few,
they go to the one candidate scan, which also gives every canonical
smallest-q1 pair (find_representation is that scan on a single even). It
tries q1 upward, or q2 downward above limit + 1, a chunk of candidates at
a time on every open even; evens it cannot split are failures.

Representation counts r(2n) = |A_n ∩ B_n| (the paper's identity) sum each
class's pairs of indices i1 <= i2 with i1 + i2 = n - c. pair_count gets
one such count by one AND + popcount of a window of the class's words
against a bit-reversed window of their partners, over the indices between
the class's first and last members.
progression_counts gets the counts of every even of an arithmetic
progression at once: they are a decimated autoconvolution of the class,
which the polyphase split of multirate filtering (Vaidyanathan 1990) turns
into one short FFT per column of the class laid out in rows of step / 2
bits. Its transforms, which numpy runs without holding the interpreter
lock, are split over the calling thread and one worker thread; the
sweep and the scan stay in the calling thread, where a pool of two threads
over the chunks lost to one. check_range counts its sampled evens that
way, recounts a few with pair_count, its oracle, and reduces them by bucket.
Distance sets A_n/B_n and their disjointness are materialized only for
diagnostics and small-scale equivalence tests.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .numset import BLOCK_WORDS, NumberSet, ParityClass, bits_at, extract_window, reverse_bits

BUCKET_WIDTH = 1_000_000
CHUNK = 1_000_000  # width of the pieces check_range sweeps and scans, whatever the buckets
MAX_BUCKETS = 10_000  # report buckets a check may have, as prob caps its rows
SAMPLE_STRIDE = 1_000
_SCAN_TESTS = 256  # candidate tests per scan step, shared by the open evens
# bytes that progression_counts may hold at once; a larger count is refused
COUNT_BUDGET = 1 << 30
# bytes of column bits, float copies and spectra per block of FFT columns, in each
# of the two threads
_BLOCK_BYTES = 1 << 18
# sampled evens that check_range recounts with pair_count
SPOT_CHECKS = 16

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
    members = n - setQ.elements_in(1, n)[::-1]
    return DistanceSet(n=n, side="A", members=members)


def b_set(setQ: NumberSet, n: int) -> DistanceSet:
    """Distances of n to elements in [n, 2n): {q - n : q in Q, n <= q < 2n}."""
    if 2 * n - 1 > setQ.limit:
        raise DomainError(f"universe too small for b_set midpoint {n}")
    if n < 1:
        raise DomainError("midpoint must be >= 1")
    members = setQ.elements_in(n, 2 * n - 1) - n
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
    none. The window of those i1 is ANDed with the whole words of partners
    that end at s - i_lo, reversed so that bit j is s - i_lo - j, the
    partner of i_lo + j, and popcounted.
    """
    h = s >> 1
    i_lo = max(parity.first, s - parity.last)
    if i_lo > h:
        return 0
    B = extract_window(parity.words, i_lo, h)
    top = s - i_lo
    partners = extract_window(parity.words, top - 64 * B.size + 1, top)
    reverse_bits(partners)
    B &= partners[::-1]
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
    _scan(setQ._words, E[:split] >> 1, setQ.blocks(grow=True), 1, out[:split])
    _scan(setQ._words, -(E[split:][::-1] >> 1), setQ.blocks(reverse=True, grow=True), -1, out[split:][::-1])
    return out


def _scan(words: np.ndarray, keys: np.ndarray, blocks: Iterator[np.ndarray], sign: int, out: np.ndarray) -> None:
    """Smallest q1 of each even e = 2 * sign * keys[i] into out[i], trying candidates in order.

    The candidates come in blocks, read only as far as the scan gets.
    keys and sign * candidates ascend, and a candidate c pairs with e as its
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
    if not keys.size:
        return
    class_bits = words.size << 5  # T
    pos = np.arange(keys.size)
    for cands in blocks:
        k = 0
        while k < cands.size:
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
    even per 1,024 integers of [lo, hi] is open (or 2 * q1 > hi, past which
    a new pair would repeat one already found); the rest are left to the
    scan, which costs far more per even than one more OR of the sweep.
    Meant for hi <= limit + 1, where small q1 split most evens.
    """
    nbits = ((hi - lo) >> 1) + 1
    R = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    if nbits & 63:
        R[-1] = ~_U64((1 << (nbits & 63)) - 1)  # padding past hi counts as settled
    classes = [setQ.parity_class(c).words for c in (0, 1)]
    few = ((hi - lo) >> 10) + 1
    for q1 in map(int, itertools.chain.from_iterable(setQ.blocks(grow=True))):
        open_evens = (R.size << 6) - int(np.bitwise_count(R).sum())
        if open_evens <= few or 2 * q1 > hi:
            break
        a = (lo - q1) >> 1
        R |= extract_window(classes[q1 & 1], a, a + nbits - 1)
    # open evens are the zero bits; only the words that hold one are unpacked
    R = ~R
    w = np.flatnonzero(R)
    word, bit = np.nonzero(np.unpackbits(R[w].view(np.uint8), bitorder="little").reshape(-1, 64))
    return lo + 2 * (64 * w[word] + bit)


def _chunk_failures(setQ: NumberSet, c_lo: int, c_hi: int) -> list[int]:
    sweep_hi = min(c_hi, (setQ.limit + 1) & ~1)
    swept = _sweep_open(setQ, c_lo, sweep_hi) if c_lo <= sweep_hi else np.empty(0, np.int64)
    E = np.concatenate([swept, np.arange(max(c_lo, sweep_hi + 2), c_hi + 2, 2, dtype=np.int64)])
    return E[_minimal_q1(setQ, E) == 0].tolist()


def progression_counts(setQ: NumberSet, e0: int, step: int, n: int) -> np.ndarray:
    """pair_count of every even e0 + step * k, k < n, in one pass of FFTs.

    Per parity class c, with h = step / 2, class index i = h * a + j is row
    a of column j, and the evens' index sums s = e0 / 2 - c + h * k share
    s mod h = t. Column j pairs with (t - j) mod h, their row sums a1 + a2
    at floor(s / h) when j <= t and floor(s / h) - 1 (a carry) when j > t,
    so one convolution of the two columns serves every even. Each
    unordered pair of nonzero columns adds rfft * rfft, twice off the
    diagonal, to the spectrum of its carry, and each spectrum takes one
    irfft: the ordered pair counts. r(e) is (ordered + [e/2 in the set]) / 2.
    Only the set's bitset is read. Transforms have 5-smooth lengths that
    no row sum outside the class wraps onto, and columns go through in
    blocks of about _BLOCK_BYTES. Nothing is allocated before the buffers,
    estimated from step, limit and range, are found to fit COUNT_BUDGET.
    """
    _validate_even(setQ, e0)
    if step < 2 or step % 2:
        raise DomainError("step must be a positive even number")
    if n < 1:
        raise DomainError("n must be >= 1")
    _validate_even(setQ, e0 + step * (n - 1))
    layouts = [_layout(setQ.parity_class(c), e0 - 2 * c, step, n) for c in (0, 1)]
    need = _count_bytes(layouts, n)
    if need > COUNT_BUDGET:
        raise DomainError(
            f"counting at step {step} needs about {need >> 20} MiB for {n} evens, "
            f"over the {COUNT_BUDGET >> 20} MiB budget"
        )
    ordered = _ordered_counts(setQ, layouts, step, n)
    counts = np.empty(n, dtype=np.int64)
    np.rint(ordered, out=counts, casting="unsafe")
    ordered -= counts
    residual = max(float(ordered.max()), -float(ordered.min()))
    if residual >= 0.25:
        raise ArithmeticError(f"FFT counts are {residual} off an integer")
    # the evens whose half is at most the limit, a block at a time
    for k in range(0, min(n, (setQ.limit - (e0 >> 1)) // (step >> 1) + 1), BLOCK_WORDS):
        half = (e0 >> 1) + (step >> 1) * np.arange(k, min(k + BLOCK_WORDS, n))
        half = half[half <= setQ.limit]
        counts[k : k + half.size] += bits_at(setQ._words, (half & 1) * (setQ._words.size << 5) + (half >> 1))
    counts >>= 1
    return counts


def _ordered_counts(setQ: NumberSet, layouts: list[tuple[int, ...] | None], step: int, n: int) -> np.ndarray:
    """Ordered pair counts of e0 + step * k, k < n, as the floats the inverse FFTs give.

    layouts[c] is class c's _layout for those evens, which carries e0.
    """
    ordered = np.zeros(n)
    h = step >> 1
    for c, layout in enumerate(layouts):
        if layout is None:
            continue
        a_lo, rows, t, base, size, width, span, j_lo, j_hi = layout[:-1]
        words = setQ.parity_class(c).words
        # column j <= total - j pairs with total - j: carry 0 up to t, 1 above
        for carry, total in enumerate((t, t + h)):
            lo, hi = max(j_lo, total - j_hi), min(total >> 1, j_hi, total - j_lo)
            if lo > hi:
                continue
            args = (words, h, a_lo, rows, total, hi, size, width, span)
            conv = np.fft.irfft(_sum_halves(args, range(lo, hi + 1, span)), size)
            start = base - carry
            k0, k1 = max(0, -start), min(n, 2 * rows - 1 - start)
            ordered[k0:k1] += conv[start + k0 : start + k1]
    return ordered


def _spectrum_sum(
    words: np.ndarray, h: int, a_lo: int, rows: int, total: int, hi: int, size: int, width: int, span: int,
    blocks: range,
) -> np.ndarray:
    """Sum of rfft(column j) * rfft(column total - j) over the blocks' columns j <= hi.

    A block is the span columns from its start. Only pairs of nonzero
    columns are transformed, width at a time; a pair off the diagonal
    (j != total - j) stands for both orders and counts twice.
    """
    fft = np.fft
    acc = np.zeros(size // 2 + 1, dtype=complex)
    for j in blocks:
        b = min(span, hi + 1 - j)
        left = _columns(words, h, a_lo, rows, j, b)
        right = _columns(words, h, a_lo, rows, total - j - b + 1, b)[::-1]
        cols = np.flatnonzero(left.any(axis=1) & right.any(axis=1))
        for q in range(0, cols.size, width):
            part = cols[q : q + width]
            spec = fft.rfft(left[part], size)
            spec *= fft.rfft(right[part], size)
            np.multiply(spec, 2.0, out=spec, where=(2 * (j + part) != total)[:, None])
            acc += spec.sum(axis=0)
    return acc


def _sum_halves(args: tuple, blocks: range) -> np.ndarray:
    """_spectrum_sum(*args, the even-numbered blocks) + the same of the odd-numbered ones, in that order.

    With two or more blocks, the odd-numbered ones are summed by one
    worker thread while the caller sums the others; the worker is
    joined before this returns or raises, and an exception it raised is
    raised again here. The split and the order of the addition do not
    depend on the threads, so neither does the result. One block is
    summed alone: adding the empty sum, +0.0, changes no bit, since a
    spectrum sum starts at +0.0 and so never holds -0.0.
    """
    if len(blocks) < 2:
        return _spectrum_sum(*args, blocks)
    second: list[np.ndarray] = []
    errors: list[BaseException] = []

    def work() -> None:
        try:
            second.append(_spectrum_sum(*args, blocks[1::2]))
        except BaseException as err:  # raised again in the caller
            errors.append(err)

    worker = threading.Thread(target=work, name="progression-counts")
    worker.start()
    try:
        first = _spectrum_sum(*args, blocks[0::2])
    finally:
        worker.join()
    if errors:
        raise errors[0]
    first += second[0]
    return first


def _layout(parity: ParityClass, e0: int, step: int, n: int) -> tuple[int, ...] | None:
    """How class indices pair up for sums e0 / 2 + (step / 2) * k, k < n (None: no pairs).

    (a_lo, rows, t, base, size, width, span, j_lo, j_hi, need): rows from
    a_lo hold the members up to the largest sum, t is the sums' residue
    mod step / 2, row sum a_lo * 2 + base is the first even's at carry 0,
    size is the transform length, width the columns per transform and
    span per read, columns j_lo to j_hi hold the members, and need is the
    bytes this class's pass holds at once.
    """
    h = step >> 1
    s0 = e0 >> 1
    last = min(parity.last, s0 + h * (n - 1))
    if parity.first > last:
        return None
    a_lo = parity.first // h
    rows = last // h - a_lo + 1
    a0, t = divmod(s0, h)
    base = a0 - 2 * a_lo
    # the wanted row sums [lo, hi] of the 2 * rows - 1 a convolution has
    lo, hi = max(base - 1, 0), min(base + n - 1, 2 * rows - 2)
    if lo > hi:
        return None
    size = _smooth(max(hi + 1, 2 * rows - 1 - lo))
    # bytes per transformed column: both sides' bits, float copies and
    # spectra, and its weight; per read column: both sides' bits, the
    # unpacking of one, its flags and its index
    fft_column, read_column = 18 * rows + 16 * size + 40, 3 * rows + 12
    width = max(1, _BLOCK_BYTES // fft_column)
    span = max(width, _BLOCK_BYTES // read_column)
    # one row holds its members in a run of columns; a step past the limit
    # makes every class one row
    j_lo, j_hi = (parity.first - h * a_lo, last - h * a_lo) if rows == 1 else (0, h - 1)
    # a pass reads at most j_hi - j_lo + 1 columns, so it splits over two
    # threads only if they are more than one span
    threads = 2 if j_hi - j_lo + 1 > span else 1
    # per thread, with its summed spectrum, one more and the FFT's scratch,
    # and the unpacking's bytes past a column's bits
    need = threads * (24 * size + width * fft_column + span * read_column + 14 * rows)
    return a_lo, rows, t, base, size, width, span, j_lo, j_hi, need


def _count_bytes(layouts: list[tuple[int, ...] | None], n: int) -> int:
    """Upper estimate of the bytes progression_counts holds at once for n evens, from both classes' _layout."""
    # one class at a time, the float and the integer counts, 64 KiB for small arrays
    return max((layout[-1] for layout in layouts if layout), default=0) + 16 * n + (1 << 16)


def _smooth(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; a power of two below 2n is one."""
    sizes = {1}
    for p in (2, 3, 5):
        sizes = {s * p**e for s in sizes for e in range(n.bit_length() + 1) if s * p**e < 2 * n}
    return min(s for s in sizes if s >= n)


def _columns(words: np.ndarray, h: int, a_lo: int, rows: int, j: int, b: int) -> np.ndarray:
    """Columns j .. j + b - 1 of the class's rows a_lo .. a_lo + rows - 1, as a (b, rows) uint8 array.

    Bit h * (a_lo + a) + j + i of `words` goes to [i, a]; bits past the
    class read 0. Rows a, a + p, ... with p = 8 / gcd(h, 8) start at one
    bit offset, evenly many bytes apart, so each such group is one
    strided view of the class's bytes, one nb-byte item per row, copied
    and unpacked; rows whose bytes would run past the class's end are
    read bit by bit.
    """
    data = words.view(np.uint8)
    out = np.zeros((b, rows), dtype=np.uint8)
    nb = (b + 14) >> 3  # bytes that hold b bits from any bit offset
    p = 8 // math.gcd(h, 8)
    stride = h * p >> 3
    missed = []
    for r in range(min(p, rows)):
        bit0 = h * (a_lo + r) + j
        # rows of the group whose nb bytes lie inside the class
        count = max(0, min((rows - r + p - 1) // p, (data.size - nb - (bit0 >> 3)) // stride + 1))
        if count:
            # one void item per row: numpy copies a row at a time, not a byte
            group = np.ndarray((count,), dtype=(np.void, nb), buffer=data, offset=bit0 >> 3, strides=(stride,))
            bits = np.unpackbits(group.copy().view(np.uint8), bitorder="little").reshape(count, 8 * nb)
            out[:, r : r + p * count : p] = bits[:, (bit0 & 7) : (bit0 & 7) + b].T
        missed.append(np.arange(r + p * count, rows, p))
    missed = np.concatenate(missed)
    if missed.size:
        pos = (h * (a_lo + missed))[:, None] + np.arange(j, j + b)
        inside = pos < data.size << 3
        out[:, missed] = (bits_at(words, np.where(inside, pos, 0)) & inside).T
    return out


def validate_layout(lo: int, hi: int, *, workers: int, bucket_width: int, sample_stride: int) -> None:
    """Refuse the check_range arguments that are wrong for any set, so a caller may do so before building one."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if bucket_width < 2 or bucket_width % 2:
        raise DomainError("bucket_width must be a positive even number")
    if sample_stride < 1:
        raise DomainError("sample_stride must be >= 1")
    n_buckets = (hi - lo) // bucket_width + 1
    if n_buckets > MAX_BUCKETS:
        raise DomainError(
            f"[{lo}, {hi}] in buckets of {bucket_width} gives {n_buckets} buckets; the cap is {MAX_BUCKETS}"
        )


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

    The range is swept in chunks of CHUNK, one after another in the calling
    thread, whatever the buckets. Within a chunk the word-parallel sweep
    settles most evens up to limit + 1; the open remainder and any evens
    above limit + 1 go through the candidate scan, and the evens it cannot
    split are the failures. `workers` must be >= 1 and changes nothing: on
    a 2-vCPU host a pool of two threads over the chunks lost to one on the
    primes to 2e7. Only the counts' transforms use a worker thread, inside
    progression_counts.
    The buckets of bucket_width, at most MAX_BUCKETS, only summarise
    representation counts sampled 1-in-`sample_stride` evens per bucket (a
    stride of 1 counts every even). Every sampled even lies in lo + step * Z,
    step = gcd(2 * sample_stride, bucket_width), so one progression_counts
    pass counts them all, and each bucket's min and mean are reductions of
    that array. The count runs before the sweep, so a step whose count would
    not fit COUNT_BUDGET is refused before it, with a hint at a layout that
    fits. SPOT_CHECKS of the sampled evens, spread evenly from the first to
    the last, are then recounted by pair_count, and a mismatch raises.
    """
    validate_layout(lo, hi, workers=workers, bucket_width=bucket_width, sample_stride=sample_stride)
    _validate_range(setQ, lo, hi)
    t0 = time.perf_counter()
    # every sampled even is lo + a multiple of step; a step past hi - lo samples
    # lo alone, which any step past lo counts the same way, so hi + 2 caps it in int64
    step = min(math.gcd(2 * sample_stride, bucket_width), hi + 2)
    try:
        counts = progression_counts(setQ, lo, step, (hi - lo) // step + 1)
    except DomainError as err:  # over COUNT_BUDGET: the arguments are valid
        pair = 2 * sample_stride
        raise DomainError(
            f"{err}; the step is gcd(2 * sample_stride, bucket_width), and "
            + (f"a bucket_width that is a multiple of 2 * sample_stride, such as "
               f"{pair * max(1, round(bucket_width / pair))}, counts at step {pair}" if step < pair
               else "a larger sample_stride counts at a larger step")
        ) from None
    failures = [e for c in range(lo, hi + 1, CHUNK) for e in _chunk_failures(setQ, c, min(hi, c + CHUNK - 2))]
    # bucket i samples the positions i * width + stride * m, m < per, of counts, cut at
    # hi; a lone bucket may outsize the range, and clamping to counts.size keeps int64
    width, stride = min(bucket_width // step, counts.size), min(2 * sample_stride // step, counts.size)
    per = min(-(-bucket_width // (2 * sample_stride)), counts.size)
    bucket_lo = range(lo, hi + 1, bucket_width)
    at = (width * np.arange(len(bucket_lo))[:, None] + stride * np.arange(per)).ravel()
    at = at[at < counts.size]
    _spot_check(setQ, lo, step, counts, at)
    starts = np.arange(0, at.size, per)
    sampled, sizes = counts[at], np.diff(starts, append=at.size)
    mins, means = np.minimum.reduceat(sampled, starts), np.add.reduceat(sampled, starts) / sizes
    stats = zip(bucket_lo, sizes.tolist(), mins.tolist(), means.tolist())
    buckets = [BucketStats(b, min(hi, b + bucket_width - 2), *s) for b, *s in stats]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return CheckReport(
        lo=lo,
        hi=hi,
        failures=failures,
        threshold_n0=failures[-1] if failures else lo - 2,
        buckets=buckets,
        wall_ms=wall_ms,
    )


def _spot_check(setQ: NumberSet, lo: int, step: int, counts: np.ndarray, at: np.ndarray) -> None:
    """Recount SPOT_CHECKS sampled evens with pair_count, spread evenly from first to last over their positions."""
    for k in sorted(set(at[np.arange(SPOT_CHECKS) * (at.size - 1) // (SPOT_CHECKS - 1)].tolist())):
        even, fast = lo + step * k, int(counts[k])
        if pair_count(setQ, even) != fast:
            raise ArithmeticError(f"the FFT count of {even} is {fast}, pair_count gives {pair_count(setQ, even)}")
