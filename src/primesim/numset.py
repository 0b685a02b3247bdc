"""Core integer-set structure: a parity-split bitset, read on demand, and prime sieving.

A NumberSet is an immutable set of naturals >= 1 in the universe
[1, limit], held as its limit and one packed uint64 bitset, nothing else.
The bitset holds the set's two parity classes, the even members and then
the odd ones: class c is one half of it, (limit >> 7) + 1 words, with the
member 2i + c at bit i (bit i of word w is 64*w + i), since a sum of two
elements is even only when both share a parity.

Elements are read off the bitset when asked for. blocks() yields them in
sorted blocks from either end: a block is one unpackbits per class of
up to BLOCK_WORDS / 16 words, interleaved so that the flags fall in
integer order; for a reader that stops after a few elements, blocks
start at one word per class and double. rank_many() answers a batch of
rank queries in one pass of block popcounts over the words below its
largest query, and len() is the rank of limit; the set keeps no rank
index. `elements` is an explicit sorted copy, for tests and small sets.

primes_up_to sieves segment by segment straight into the odd class's
words. The module also owns the shared on-disk set format (its reader,
numpy's text parser backed by the per-line rules, is in _setfile), a full
bit-reversal, and the packed-window bit helpers and class views
(ParityClass) that the Goldbach checker builds its sweep, scan and
representation counts on.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, SetFormatError

if sys.byteorder != "little":
    raise ImportError("packed bitset layout assumes a little-endian platform")

# integers per sieve segment: beyond its output, the sieve holds one segment;
# even, since segments start at its multiples and flag only their odd numbers
SEGMENT_SIZE = 1 << 20

_ONE = np.uint64(1)
_U64 = np.uint64

# words (or elements) per block in the passes that would otherwise hold
# full-size temporaries: the largest element block, packing a bitset from
# elements, shifting a set, a rank pass
BLOCK_WORDS = 1 << 14

# masks and shifts that swap a word's adjacent bits, bit pairs and nibbles:
# with a byte swap, its bit-reversal
_SWAPS = tuple(
    (_U64(mask), _U64(shift))
    for mask, shift in ((0x5555555555555555, 1), (0x3333333333333333, 2), (0x0F0F0F0F0F0F0F0F, 4))
)


class NumberSet:
    """Immutable set of naturals in [1, limit]: its parity-split bitset, read for membership, rank and elements.

    The constructor adopts `words`, the bitset of (limit >> 7) + 1 words
    per parity class, even class first, uncopied, and freezes it; a bit
    outside [1, limit] is refused. :meth:`from_elements` packs it from
    sorted elements.
    """

    __slots__ = ("limit", "_words", "_classes")

    def __init__(self, words: np.ndarray, limit: int):
        half = (limit >> 7) + 1
        if limit < 1 or words.dtype != np.uint64 or words.shape != (2 * half,):
            raise DomainError(f"a bitset for limit {limit} is {2 * half} uint64 words")
        words.flags.writeable = False
        classes = (ParityClass(words[:half]), ParityClass(words[half:]))
        if (classes[0].first == 0 and classes[0].last >= 0) or any(
            2 * p.last + c > limit for c, p in enumerate(classes)
        ):
            raise DomainError(f"bitset holds members outside [1, {limit}]")
        self.limit = int(limit)
        self._words = words
        self._classes = classes

    @classmethod
    def from_elements(
        cls, elements: Iterable[int] | np.ndarray, limit: int | None = None
    ) -> "NumberSet":
        """The set of strictly increasing elements >= 1; limit None takes the last one. A caller's array is only read."""
        elements = np.asarray(
            list(elements) if not isinstance(elements, np.ndarray) else elements, dtype=np.int64
        )
        if elements.ndim != 1:
            raise DomainError("elements must be one-dimensional")
        if elements.size and elements[0] < 1:
            raise DomainError("elements must be >= 1")
        if np.any(elements[1:] <= elements[:-1]):
            raise DomainError("elements must be strictly increasing")
        if limit is None:
            if elements.size == 0:
                raise DomainError("an empty set needs an explicit limit")
            limit = int(elements[-1])
        elif elements.size and int(elements[-1]) > limit:
            raise DomainError(f"element {int(elements[-1])} exceeds limit {limit}")
        words = new_words(limit)
        set_members(words, elements)
        return cls(words, limit)

    def reversed_words(self) -> np.ndarray:
        """Full-resolution bit-reversal of the set, read-only, built on each call.

        Bit j of the result is the integer T - 1 - j, T = 64 * ((limit >> 6)
        + 1), so a reversed window becomes an aligned forward read.
        """
        rev = np.zeros((self.limit >> 6) + 1, dtype=np.uint64)
        for block in self.blocks():
            _set_bits(rev, (rev.size << 6) - 1 - block)
        rev.flags.writeable = False
        return rev

    def parity_class(self, c: int) -> "ParityClass":
        """The elements 2i + c (c = 0 even, 1 odd), packed at bit i."""
        return self._classes[c]

    @property
    def elements(self) -> np.ndarray:
        """Every element, ascending, in a new read-only int64 array on each read: for tests and small sets."""
        out = self.elements_in(1, self.limit)
        out.flags.writeable = False
        return out

    def elements_in(self, lo: int, hi: int) -> np.ndarray:
        """The elements in [lo, hi], ascending, in one new int64 array."""
        return np.concatenate([np.empty(0, dtype=np.int64), *self.blocks(lo, hi)])

    def blocks(
        self, lo: int = 1, hi: int | None = None, *, reverse: bool = False, grow: bool = False
    ) -> Iterator[np.ndarray]:
        """The elements in [lo, hi] (hi None: limit) in sorted, non-empty int64 blocks, descending with reverse.

        A block covers up to BLOCK_WORDS / 16 words of each class (8 *
        BLOCK_WORDS integers, at most as many elements). With grow, blocks
        cover 1, 2, 4, ... words from the starting end up to that, so a
        reader that stops after the first elements reads few words.
        """
        hi = self.limit if hi is None else min(hi, self.limit)
        lo = max(lo, 1)
        if lo > hi:
            return
        w_lo, w_hi = lo >> 7, (hi >> 7) + 1  # class words over [lo, hi], not yet read
        most = max(1, BLOCK_WORDS >> 4)
        size = 1 if grow else most
        while w_lo < w_hi:
            if reverse:
                w0, w1 = max(w_lo, w_hi - size), w_hi
                w_hi = w0
            else:
                w0, w1 = w_lo, min(w_hi, w_lo + size)
                w_lo = w1
            block = self._members(w0, w1)
            block = block[block.searchsorted(lo) : block.searchsorted(hi, side="right")]
            if block.size:
                yield block[::-1] if reverse else block
            size = min(2 * size, most)

    def _members(self, w0: int, w1: int) -> np.ndarray:
        """The elements in [128 * w0, 128 * w1), ascending, from words w0 to w1 - 1 of each class.

        A class with no member there is not read; with both read, their
        flags are interleaved, so that they fall in integer order.
        """
        live = [
            (c, np.unpackbits(p.words[w0:w1].view(np.uint8), bitorder="little").view(bool))
            for c, p in enumerate(self._classes)
            if p.first >> 6 < w1 and p.last >> 6 >= w0
        ]
        if len(live) == 2:
            return (w0 << 7) + np.flatnonzero(np.stack([flags for _, flags in live], axis=1))
        if live:
            c, flags = live[0]
            return (w0 << 7) + c + 2 * np.flatnonzero(flags)
        return np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.rank(self.limit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberSet):
            return NotImplemented
        return self.limit == other.limit and np.array_equal(self._words, other._words)

    def __repr__(self) -> str:
        return f"NumberSet(n={len(self)}, limit={self.limit})"

    def contains(self, x: int) -> bool:
        """True iff x is an element; x must lie in [1, limit]."""
        if not 1 <= x <= self.limit:
            raise DomainError(f"{x} outside universe [1, {self.limit}]")
        bit = (x & 1) * (self._words.size << 5) + (x >> 1)
        return bool((self._words[bit >> 6] >> _U64(bit & 63)) & _ONE)

    __contains__ = contains

    def rank(self, n: int) -> int:
        """Number of elements <= n, for 0 <= n <= limit."""
        if not 0 <= n <= self.limit:
            raise DomainError(f"rank argument {n} outside [0, {self.limit}]")
        return int(self.rank_many(np.array([n]))[0])

    def rank_many(self, ns: np.ndarray) -> np.ndarray:
        """Number of elements <= n for each n of an int array; n is clamped to [0, limit].

        Each call is one pass over the bitset up to its largest query, so a
        caller batches its queries into one call. Even members 2i <= n are
        class-0 bits below n // 2 + 1, odd ones 2i + 1 <= n class-1 bits
        below (n + 1) // 2, and class 1 starts at bit T = 64 * (words in a
        class), so rank(n) = below(n // 2 + 1) + below(T + (n + 1) // 2) -
        below(T), below(p) counting the bitset's ones under position p.
        """
        ns = np.clip(np.asarray(ns, dtype=np.int64), 0, self.limit)
        class_bits = self._words.size << 5
        pos = np.concatenate([(ns >> 1) + 1, class_bits + ((ns + 1) >> 1), [class_bits]])
        below = self._ones_below(pos)
        return below[: ns.size] + below[ns.size : -1] - below[-1]

    def _ones_below(self, pos: np.ndarray) -> np.ndarray:
        """Ones of the bitset at bit positions below each p of pos, 0 <= p <= 64 * words; pos is not empty.

        p counts the ones before its word w = p >> 6 and its word's own bits
        below p. One pass reads the words up to the largest w, BLOCK_WORDS
        at a time: a block's cumulative popcount gives the ones before each
        of its words and before the word past it, so the last block read
        also answers w = words, the position at the bitset's end.
        """
        words = self._words
        w = pos >> 6
        own = words[np.minimum(w, words.size - 1)] & ((_ONE << (pos & 63).astype(np.uint64)) - _ONE)
        out = np.bitwise_count(own).astype(np.int64)
        order = np.argsort(w)
        w = w[order]
        last = min(int(w[-1]), words.size - 1)
        done, carry = 0, 0
        for k in range(0, last + 1, BLOCK_WORDS):
            block = words[k : k + BLOCK_WORDS]
            before = np.zeros(block.size + 1, dtype=np.int64)  # ones before word k + j
            np.cumsum(np.bitwise_count(block), dtype=np.int64, out=before[1:])
            stop = w.size if k + BLOCK_WORDS > last else int(w.searchsorted(k + BLOCK_WORDS))
            out[order[done:stop]] += carry + before[w[done:stop] - k]
            done, carry = stop, carry + int(before[-1])
        return out


def new_words(limit: int) -> np.ndarray:
    """A zeroed bitset for the universe [1, limit]: (limit >> 7) + 1 words per parity class."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    half = (limit >> 7) + 1  # words a class needs for its bit limit >> 1
    try:
        return np.zeros(2 * half, dtype=np.uint64)
    except (MemoryError, ValueError):  # ValueError past numpy's largest dimension
        raise DomainError(f"cannot allocate the {16 * half}-byte bitset for limit {limit}") from None


def set_members(words: np.ndarray, elements: np.ndarray) -> None:
    """Sets the bit of each element (in any order) in the parity-split bitset words, a block at a time."""
    class_bits = words.size << 5
    for lo in range(0, elements.size, BLOCK_WORDS):
        x = elements[lo : lo + BLOCK_WORDS]
        _set_bits(words, (x & 1) * class_bits + (x >> 1))


def _set_bits(words: np.ndarray, pos: np.ndarray) -> None:
    """Sets bit p of words for every p of pos."""
    np.bitwise_or.at(words, pos >> 6, _ONE << (pos & 63).astype(np.uint64))


class ParityClass:
    """One parity class c of a NumberSet: bit i of `words` is the integer 2i + c.

    `words` is a read-only view of one half of the set's bitset. `first`
    and `last` are its smallest and largest member indices (0 and -1 when
    the class is empty), read off its first and last nonzero words, so a
    count skips every index that has no partner.
    """

    __slots__ = ("words", "first", "last")

    def __init__(self, words: np.ndarray):
        self.words = words
        nonzero = words != 0
        w0, w1 = int(nonzero.argmax()), words.size - 1 - int(nonzero[::-1].argmax())
        low, high = int(words[w0]), int(words[w1])
        # an empty class gets first > last, so no count reaches its words
        self.first = (w0 << 6) + (low & -low).bit_length() - 1 if low else 0
        self.last = (w1 << 6) + high.bit_length() - 1 if low else -1


def reverse_bits(words: np.ndarray) -> None:
    """Reverses the bits of each uint64 word of words, in place."""
    words.byteswap(inplace=True)
    swapped = np.empty_like(words)
    for mask, shift in _SWAPS:
        np.right_shift(words, shift, out=swapped)
        swapped &= mask
        words &= mask
        words <<= shift
        words |= swapped


def bits_at(words: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bit test of each int64 x in a packed uint64 bitset; returns bool array."""
    w = words[xs >> 6]
    return ((w >> (xs & 63).view(np.uint64)) & _ONE).astype(bool)


def extract_window(words: np.ndarray, a: int, b: int) -> np.ndarray:
    """Packed bits of positions [a, b] inclusive, re-aligned to bit 0.

    Bit j of the result is bit (a + j) of `words`; positions below 0 or
    beyond the source array read as 0, so a may be negative. Trailing bits
    of the last word are zeroed.
    """
    if b < a:
        raise ValueError("bad window")
    length = b - a + 1
    nw_out = (length + 63) >> 6
    w0 = a >> 6  # floor division: a == 64 * w0 + s even for negative a
    s = a & 63
    need = nw_out + 1
    src = words[max(w0, 0) : max(w0 + need, 0)]
    if src.size < need:
        pad_lo = min(max(-w0, 0), need)
        src = np.concatenate(
            [
                np.zeros(pad_lo, dtype=np.uint64),
                src,
                np.zeros(need - pad_lo - src.size, dtype=np.uint64),
            ]
        )
    # at s = 0 the second shift is by 64, which numpy defines as 0 on uint64
    out = src[:nw_out] >> _U64(s)
    out |= src[1 : nw_out + 1] << _U64(64 - s)
    r = length & 63
    if r:
        out[-1] &= _U64((1 << r) - 1)
    return out


def _sieve_segment(lo: int, hi: int, odd_base: list[int]) -> np.ndarray:
    """Primality flags of the odd numbers in [lo, hi), lo even: flag j is lo + 2j + 1."""
    seg = np.ones((hi - lo) >> 1, dtype=bool)
    if lo == 0:
        seg[0] = False  # 1
    for p in odd_base:
        p2 = p * p
        if p2 >= hi:
            break
        start = max(p2, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        seg[(start - lo) >> 1 :: p] = False
    return seg


def primes_up_to(limit: int) -> NumberSet:
    """All primes in [2, limit]; beyond the bitset, memory is one segment of SEGMENT_SIZE numbers."""
    if limit < 2:
        raise DomainError("primes_up_to needs limit >= 2")
    return NumberSet(_prime_words(limit), limit)


def _prime_words(limit: int) -> np.ndarray:
    """The parity-split bitset of the primes in [2, limit], limit >= 2.

    The bitset is allocated first, so a limit too large to hold fails
    before any sieving. 2 is bit 1 of the even class. Flag j of the
    segment at lo is lo + 2j + 1, bit lo / 2 + j of the odd class, so a
    segment's flags are packed and ORed into that class's bytes from bit
    lo / 2, after lo / 2 mod 8 zero flags when that bit is inside a byte,
    and one segment is alive at a time. The odd primes up to sqrt(limit)
    that sieve the segments are the odd class of the same function's
    bitset for sqrt(limit).
    """
    words = new_words(limit)
    words[0] = 1 << 1  # 2
    odd = words[words.size >> 1 :].view(np.uint8)
    root = math.isqrt(limit)
    odd_base = []
    if root >= 3:
        base = _prime_words(root)
        odd_base = (2 * np.flatnonzero(np.unpackbits(base[base.size >> 1 :].view(np.uint8), bitorder="little")) + 1).tolist()
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        _or_flags(odd, lo >> 1, _sieve_segment(lo, min(lo + SEGMENT_SIZE, limit + 1), odd_base))
    return words


def _or_flags(dst: np.ndarray, bit: int, flags: np.ndarray) -> None:
    """ORs bool flags into the bytes dst, flag j at bit + j; the flags die with the call."""
    if bit & 7:
        flags = np.concatenate([np.zeros(bit & 7, dtype=bool), flags])
    packed = np.packbits(flags, bitorder="little")
    dst[bit >> 3 : (bit >> 3) + packed.size] |= packed


def save_set(ns: NumberSet, path: str, header_comments: Iterable[str] = ()) -> None:
    """Write the shared ASCII set format: comments, limit header, one element per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"limit={ns.limit}\n")
        for block in ns.blocks():
            fh.write("\n".join(map(str, block.tolist())))
            fh.write("\n")


def load_set(path: str) -> NumberSet:
    """Read the shared ASCII set format; errors carry the offending line number.

    _setfile.read parses the file into one int64 array, with numpy when
    it can; from_elements checks its elements and packs the bitset, and
    the array is dropped. _setfile.by_line only parses what numpy cannot,
    or locates an error. The reader is imported on first use, so a
    process that reads no set file never compiles it.
    """
    from . import _setfile

    elems, limit, limit_line = _setfile.read(path)
    try:
        return NumberSet.from_elements(elems, limit)
    except DomainError as exc:
        if not str(exc).startswith("cannot allocate"):
            _setfile.by_line(path)  # raises the broken rule with its line
            raise
        # the bitset is sized by the limit header, or else by the last
        # element, whose line only the per-line rules count
        if limit is None:
            limit_line = _setfile.by_line(path)[2]
        raise SetFormatError(path, limit_line, str(exc)) from None
