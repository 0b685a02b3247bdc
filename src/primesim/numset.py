"""Core integer-set structure: packed bitset plus sorted elements, and prime sieving.

A NumberSet is an immutable sorted set of naturals >= 1 living in the
universe [1, limit]: a sorted int64 element array, for rank queries and
ordered scans, and a packed uint64 bitset (bit i of word w is the integer
64*w + i) for membership, which the constructor alone builds from it.

The module also owns the shared on-disk set format (its reader, numpy's
text parser backed by the per-line rules, is in _setfile), a cached full
bit-reversal, and the packed-window bit helpers and two parity classes
(the even and the odd members, each packed at half resolution) that the
Goldbach checker builds its sweep and representation counts on.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

from .errors import DomainError, SetFormatError

if sys.byteorder != "little":
    raise ImportError("packed bitset layout assumes a little-endian platform")

DEFAULT_SEGMENT_SIZE = 1 << 20

_ONE = np.uint64(1)
_U64 = np.uint64

# words (or elements) per block in the passes that would otherwise hold
# full-size temporaries: building a bitset from elements, unzipping parity
# classes, building their slots; even, so a block of source words fills
# whole class words
BLOCK_WORDS = 1 << 14

# bit-reversal of a byte, for reversed-window extraction
_REV8 = np.array(
    [int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8
)

# bits 0, 2, ..., 62, and the steps that pack them into a word's low half
_EVEN_BITS = _U64(0x5555_5555_5555_5555)
_UNZIP_STEPS = tuple(
    (_U64(shift), _U64(mask))
    for shift, mask in (
        (1, 0x3333_3333_3333_3333),
        (2, 0x0F0F_0F0F_0F0F_0F0F),
        (4, 0x00FF_00FF_00FF_00FF),
        (8, 0x0000_FFFF_0000_FFFF),
        (16, 0x0000_0000_FFFF_FFFF),
    )
)


class NumberSet:
    """Immutable sorted set of naturals with bitset membership and rank.

    The constructor keeps a strictly increasing 1-D int64 array of
    elements >= 1, that nothing else holds, uncopied and read-only, and
    packs the bitset from it; limit None takes the last element.
    :meth:`from_elements` copies a caller's elements first.
    """

    __slots__ = ("limit", "elements", "_words", "_rev", "_classes")

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
        words = np.zeros((limit >> 6) + 1, dtype=np.uint64)
        for lo in range(0, elements.size, BLOCK_WORDS):
            block = elements[lo : lo + BLOCK_WORDS]
            np.bitwise_or.at(words, block >> 6, _ONE << (block & 63).astype(np.uint64))
        for arr in (words, elements):
            arr.flags.writeable = False
        self.limit = int(limit)
        self.elements = elements
        self._words = words
        self._rev: np.ndarray | None = None
        self._classes: tuple[ParityClass, ParityClass] | None = None

    def reversed_words(self) -> np.ndarray:
        """Full bit-reversal of the membership bitset, cached on first use.

        Bit j of the result is bit (T - 1 - j) of the bitset, T = 64 * word
        count, so a reversed window becomes an aligned forward read. A
        benign race under threads: both sides compute the same array.
        """
        if self._rev is None:
            rev_bytes = _REV8[self._words.view(np.uint8)[::-1]]
            rev = rev_bytes.view(np.uint64)
            rev.flags.writeable = False
            self._rev = rev
        return self._rev

    def parity_class(self, c: int) -> "ParityClass":
        """The elements 2i + c (c = 0 even, 1 odd), packed at bit i.

        Both classes are unzipped from the bitset on first use and cached;
        like reversed_words, a race under threads only builds them twice.
        """
        if self._classes is None:
            self._classes = tuple(ParityClass(w) for w in _unzip(self._words))
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
        return bool((self._words[x >> 6] >> _U64(x & 63)) & _ONE)

    __contains__ = contains

    def rank(self, n: int) -> int:
        """Number of elements <= n, for 0 <= n <= limit."""
        if not 0 <= n <= self.limit:
            raise DomainError(f"rank argument {n} outside [0, {self.limit}]")
        return int(np.searchsorted(self.elements, n, side="right"))

    def rank_many(self, ns: np.ndarray) -> np.ndarray:
        """Vector rank via binary search on the element array."""
        return np.searchsorted(self.elements, ns, side="right")

    def min(self) -> int:
        if not len(self):
            raise DomainError("empty set has no minimum")
        return int(self.elements[0])


class ParityClass:
    """One parity class c of a NumberSet: bit i of `words` is the integer 2i + c.

    A class of k members with k(k + 1)/2 <= its word count is sparse (the
    primes' even class is {2}, a perturbed set's odd class one element):
    `pair_sums` maps each index sum i1 + i2, i1 <= i2, of two members to
    how many such pairs there are, so its counts are dict lookups, and its
    table holds no more entries than the class has words. A dense class
    has `pair_sums` None and is counted through reversal_slot.
    """

    __slots__ = ("words", "pair_sums", "_shifted")

    def __init__(self, words: np.ndarray):
        words.flags.writeable = False
        self.words = words
        k = int(np.bitwise_count(words).sum())
        self.pair_sums: dict[int, int] | None = (
            _pair_sums(words) if k * (k + 1) // 2 <= words.size else None
        )
        self._shifted: tuple[int, np.ndarray] | None = None

    def reversal_slot(self, s: int) -> np.ndarray:
        """The class's bit-reversal read from bit key - 64, key = ~s & 63.

        Bit j of the reversal is bit T - 1 - j of `words`, T = 64 *
        words.size. Word k of the result is bits [64k + key - 64,
        64k + key - 1] of the reversal, bits outside it reading 0, so the
        reversed window that pairs index i1 with s - i1 from a word-aligned
        i1 is an aligned slice; every sum congruent to s mod 64 shares it.
        The slot holds one key at a time. A new key frees the old array,
        then builds its own block by block, so the build holds no second
        full-size array. Threads that share the class still read correct
        slots, but rebuild one whenever their keys alternate.
        """
        key = ~s & 63
        slot = self._shifted
        if slot is not None and slot[0] == key:
            return slot[1]
        self._shifted = slot = None
        words = self.words
        n = words.size
        out = np.empty(n + 1, dtype=np.uint64)
        down, up = _U64(key), _U64(64 - key)  # numpy shifts by 64 give 0
        for k0 in range(0, n + 1, BLOCK_WORDS):
            k1 = min(k0 + BLOCK_WORDS, n + 1)
            # reversal words k0 - 1 .. k1 - 1; those outside [0, n) read 0
            rev = np.zeros(k1 - k0 + 1, dtype=np.uint64)
            a, b = max(k0 - 1, 0), min(k1, n)
            rev_bytes = _REV8[words[n - b : n - a].view(np.uint8)[::-1]]
            rev[a - k0 + 1 : b - k0 + 1] = rev_bytes.view(np.uint64)
            np.left_shift(rev[1:], up, out=out[k0:k1])
            out[k0:k1] |= rev[:-1] >> down
        out.flags.writeable = False
        self._shifted = (key, out)
        return out


def _pair_sums(words: np.ndarray) -> dict[int, int]:
    """{i1 + i2: number of member pairs i1 <= i2} of a packed bitset."""
    nz = np.flatnonzero(words)
    bits = np.unpackbits(words[nz].view(np.uint8), bitorder="little").reshape(-1, 64)
    rows, cols = np.nonzero(bits)
    idx = (nz[rows] << 6) + cols
    i1, i2 = np.triu_indices(idx.size)
    sums, counts = np.unique(idx[i1] + idx[i2], return_counts=True)
    return dict(zip(sums.tolist(), counts.tolist()))


def _unzip(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both parity classes of a bitset: bit i of class c is bit 2i + c of words.

    Block by block, bits c, c + 2, ..., c + 62 of each word are masked and
    packed into its low half by five shift-or-mask steps; class word j is
    then the low halves of words 2j and 2j + 1.
    """
    classes = tuple(np.zeros((words.size + 1) >> 1, dtype=np.uint64) for _ in range(2))
    for lo in range(0, words.size, BLOCK_WORDS):
        src = words[lo : lo + BLOCK_WORDS]
        for c, out in enumerate(classes):
            x = (src >> _U64(c)) & _EVEN_BITS
            for shift, mask in _UNZIP_STEPS:
                x |= x >> shift
                x &= mask
            out.view(np.uint32)[lo : lo + src.size] = x.view(np.uint32)[::2]
    return classes


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
    """Primality flags for integers in [lo, hi); odd_base are odd primes <= sqrt."""
    seg = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        seg[: min(2, hi)] = False
    # even composites (4, 6, ...); 2 itself survives
    first_even = max(4, lo + (lo & 1))
    if first_even < hi:
        seg[first_even - lo :: 2] = False
    for p in odd_base:
        p2 = p * p
        if p2 >= hi:
            break
        start = max(p2, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            seg[start - lo :: 2 * p] = False
    return seg


def _prime_elements(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Every prime in [2, limit], in one int64 array that nothing else holds.

    The array is allocated first, at the Rosser-Schoenfeld bound
    pi(x) < 1.25506 x / ln x, so a limit too large to hold fails before
    any sieving. Each segment's primes are written into it, and it is
    then shrunk in place, so its unused tail is never touched. The odd
    primes up to sqrt(limit) that sieve the segments come from the same
    function.
    """
    if limit < 2:
        raise DomainError("primes_up_to needs limit >= 2")
    if segment_size < 1:
        raise DomainError("segment_size must be positive")
    bound = int(1.25506 * limit / math.log(limit)) + 1
    try:
        out = np.empty(bound, dtype=np.int64)
    except (MemoryError, ValueError):
        raise DomainError(f"cannot allocate the {bound * 8}-byte element array for limit {limit}") from None
    root = math.isqrt(limit)
    odd_base = _prime_elements(root)[1:].tolist() if root >= 2 else []
    n = 0
    for lo in range(0, limit + 1, segment_size):
        seg = np.flatnonzero(_sieve_segment(lo, min(lo + segment_size, limit + 1), odd_base))
        np.add(seg, lo, out=out[n : n + seg.size])
        n += seg.size
    out.resize(n, refcheck=False)
    return out


def primes_up_to(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> NumberSet:
    """All primes in [2, limit]; beyond the set, memory is one segment of segment_size numbers."""
    return NumberSet(_prime_elements(limit, segment_size), limit)


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

    _setfile.read parses the file into one int64 array with numpy when it
    can, and by the per-line rules otherwise, checking each element (>= 1,
    above the previous one, within the limit header); the NumberSet then
    keeps that array without a copy. The reader is imported on first use,
    so a process that reads no set file never compiles it.
    """
    from . import _setfile

    elems, limit, limit_line = _setfile.read(path)
    try:
        return NumberSet(elems, limit)
    except DomainError:
        raise
    except (MemoryError, ValueError):
        # the bitset is sized by the limit header, or else by the last
        # element, whose line only the per-line rules count; numpy raises
        # ValueError past its largest array dimension
        if limit is None:
            size, limit_line = int(elems[-1]), _setfile.by_line(path)[2]
        else:
            size = limit
        raise SetFormatError(
            path, limit_line, f"cannot allocate the {((size >> 6) + 1) * 8}-byte bitset for limit {size}"
        ) from None
