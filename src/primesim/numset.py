"""Core integer-set structure: sorted elements plus a parity-split bitset, and prime sieving.

A NumberSet is an immutable sorted set of naturals >= 1 living in the
universe [1, limit]: a sorted int64 element array, for rank queries and
ordered scans, and one packed uint64 array for membership, which the
constructor alone builds from it. The array holds the set's two parity
classes, the even members and then the odd ones: class c is one half of
it, with the member 2i + c at bit i (bit i of word w is 64*w + i), since
a sum of two elements is even only when both share a parity.

The module also owns the shared on-disk set format (its reader, numpy's
text parser backed by the per-line rules, is in _setfile), a full
bit-reversal, and the packed-window bit helpers and class views
(ParityClass) that the Goldbach checker builds its sweep, scan and
representation counts on.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable

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
# full-size temporaries: packing a bitset from elements, moving perturbed
# primes, the similarity scan
BLOCK_WORDS = 1 << 14

# masks and shifts that swap a word's adjacent bits, bit pairs and nibbles:
# with a byte swap, its bit-reversal
_SWAPS = tuple(
    (_U64(mask), _U64(shift))
    for mask, shift in ((0x5555555555555555, 1), (0x3333333333333333, 2), (0x0F0F0F0F0F0F0F0F, 4))
)


class NumberSet:
    """Immutable sorted set of naturals with bitset membership and rank.

    The constructor keeps a strictly increasing 1-D int64 array of
    elements >= 1, that nothing else holds, uncopied and read-only, and
    packs the bitset from it: (limit >> 7) + 1 words per parity class,
    even class first. limit None takes the last element.
    :meth:`from_elements` copies a caller's elements first.
    """

    __slots__ = ("limit", "elements", "_words", "_classes")

    def __init__(self, elements: np.ndarray, limit: int | None):
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
        if limit < 1:
            raise DomainError("limit must be >= 1")
        half = (limit >> 7) + 1  # words a class needs for its bit limit >> 1
        try:
            words = np.zeros(2 * half, dtype=np.uint64)
        except (MemoryError, ValueError):  # ValueError past numpy's largest dimension
            raise DomainError(f"cannot allocate the {16 * half}-byte bitset for limit {limit}") from None
        _set_bits(words, elements, lambda x: (x & 1) * (half << 6) + (x >> 1))
        elements.flags.writeable = False
        self.limit = int(limit)
        self.elements = elements
        self._words = words
        self._classes = (ParityClass(words[:half]), ParityClass(words[half:]))

    def reversed_words(self) -> np.ndarray:
        """Full-resolution bit-reversal of the set, read-only, built on each call.

        Bit j of the result is the integer T - 1 - j, T = 64 * ((limit >> 6)
        + 1), so a reversed window becomes an aligned forward read.
        """
        rev = np.zeros((self.limit >> 6) + 1, dtype=np.uint64)
        return _set_bits(rev, self.elements, lambda x: (rev.size << 6) - 1 - x)

    def parity_class(self, c: int) -> "ParityClass":
        """The elements 2i + c (c = 0 even, 1 odd), packed at bit i."""
        return self._classes[c]

    @classmethod
    def from_elements(
        cls, elements: Iterable[int] | np.ndarray, limit: int | None = None
    ) -> "NumberSet":
        """A set of the given elements; a caller's array is copied, not frozen."""
        return cls(
            np.array(
                list(elements) if not isinstance(elements, np.ndarray) else elements,
                dtype=np.int64,
            ),
            limit,
        )

    def __len__(self) -> int:
        return int(self.elements.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberSet):
            return NotImplemented
        return self.limit == other.limit and np.array_equal(self.elements, other.elements)

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
        return int(np.searchsorted(self.elements, n, side="right"))

    def rank_many(self, ns: np.ndarray) -> np.ndarray:
        """Vector rank via binary search on the element array."""
        return np.searchsorted(self.elements, ns, side="right")


def _set_bits(words: np.ndarray, elements: np.ndarray, bit: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sets bit(x) of words for every element x, a block at a time; returns words, frozen."""
    for lo in range(0, elements.size, BLOCK_WORDS):
        pos = bit(elements[lo : lo + BLOCK_WORDS])
        np.bitwise_or.at(words, pos >> 6, _ONE << (pos & 63).astype(np.uint64))
    words.flags.writeable = False
    return words


class ParityClass:
    """One parity class c of a NumberSet: bit i of `words` is the integer 2i + c.

    `words` is a read-only view of one half of the set's bitset. `first`
    and `last` are its smallest and largest member indices (0 and -1 when
    the class is empty), read off its first and last nonzero words, so a
    count skips every index that has no partner, and a one-member class
    (the primes' even class {2}, a perturbed set's lone odd element) is
    counted without reading its words.
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


def reverse_bits(out: np.ndarray, words: np.ndarray) -> None:
    """Each uint64 word's bits in reverse order, into out; out may be words itself."""
    out[:] = words
    out.byteswap(inplace=True)
    swapped = np.empty_like(out)
    for mask, shift in _SWAPS:
        np.right_shift(out, shift, out=swapped)
        swapped &= mask
        out &= mask
        out <<= shift
        out |= swapped


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
    if s == 0:
        out = src[:nw_out].copy()
    else:
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


def _prime_elements(limit: int) -> np.ndarray:
    """Every prime in [2, limit], in one int64 array that nothing else holds.

    The array is allocated first, at the Rosser-Schoenfeld bound
    pi(x) < 1.25506 x / ln x, so a limit too large to hold fails before
    any sieving. 2 is written first, then each segment's odd primes (flag
    j of the segment at lo is lo + 2j + 1), and the array is then shrunk
    in place, so its unused tail is never touched. The odd primes up to
    sqrt(limit) that sieve the segments come from the same function.
    """
    if limit < 2:
        raise DomainError("primes_up_to needs limit >= 2")
    bound = int(1.25506 * limit / math.log(limit)) + 1
    try:
        out = np.empty(bound, dtype=np.int64)
    except (MemoryError, ValueError):
        raise DomainError(f"cannot allocate the {bound * 8}-byte element array for limit {limit}") from None
    root = math.isqrt(limit)
    odd_base = _prime_elements(root)[1:].tolist() if root >= 2 else []
    out[0], n = 2, 1
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        seg = np.flatnonzero(_sieve_segment(lo, min(lo + SEGMENT_SIZE, limit + 1), odd_base))
        dst = np.multiply(seg, 2, out=out[n : n + seg.size])
        dst += lo + 1
        n += seg.size
    out.resize(n, refcheck=False)
    return out


def primes_up_to(limit: int) -> NumberSet:
    """All primes in [2, limit]; beyond the set, memory is one segment of SEGMENT_SIZE numbers."""
    return NumberSet(_prime_elements(limit), limit)


def save_set(ns: NumberSet, path: str, header_comments: Iterable[str] = ()) -> None:
    """Write the shared ASCII set format: comments, limit header, one element per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"limit={ns.limit}\n")
        elems = ns.elements
        for i in range(0, elems.size, 1 << 16):
            chunk = elems[i : i + (1 << 16)].tolist()
            fh.write("\n".join(map(str, chunk)))
            fh.write("\n")


def load_set(path: str) -> NumberSet:
    """Read the shared ASCII set format; errors carry the offending line number.

    _setfile.read parses the file into one int64 array, with numpy when
    it can; the NumberSet checks its elements and keeps it uncopied.
    _setfile.by_line only parses what numpy cannot, or locates an error.
    The reader is imported on first use, so a process that reads no set
    file never compiles it.
    """
    from . import _setfile

    elems, limit, limit_line = _setfile.read(path)
    try:
        return NumberSet(elems, limit)
    except DomainError as exc:
        if not str(exc).startswith("cannot allocate"):
            _setfile.by_line(path)  # raises the broken rule with its line
            raise
        # the bitset is sized by the limit header, or else by the last
        # element, whose line only the per-line rules count
        if limit is None:
            limit_line = _setfile.by_line(path)[2]
        raise SetFormatError(path, limit_line, str(exc)) from None
