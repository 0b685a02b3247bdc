"""Core integer-set structure: packed bitset with O(1) rank, plus prime sieving.

A NumberSet is an immutable sorted set of naturals >= 1 living in the
universe [1, limit]. Membership is a packed uint64 bitset (bit i of word w
is the integer 64*w + i), rank queries use per-word prefix popcounts, and
the sorted element array is kept for ordered scans.

The module also owns the shared on-disk set format and the packed-window
bit helpers (aligned and reversed extraction) that the Goldbach checker
builds its sweep and intersection counts on.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Iterable

import numpy as np

from .errors import DomainError, SetFormatError

if sys.byteorder != "little":
    raise ImportError("packed bitset layout assumes a little-endian platform")

DEFAULT_SEGMENT_SIZE = 1 << 20

_ONE = np.uint64(1)
_U64 = np.uint64

# bit-reversal of a byte, for reversed-window extraction
_REV8 = np.array(
    [int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8
)


class NumberSet:
    """Immutable sorted set of naturals with bitset membership and rank.

    Do not call the constructor directly; use :func:`primes_up_to`,
    :meth:`NumberSet.from_elements`, or :func:`load_set`.
    """

    __slots__ = ("limit", "elements", "_words", "_cum", "_rev")

    def __init__(self, words: np.ndarray, elements: np.ndarray, limit: int):
        counts = np.bitwise_count(words).astype(np.int64)
        cum = np.zeros(words.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        for arr in (words, elements, cum):
            arr.flags.writeable = False
        self.limit = int(limit)
        self.elements = elements
        self._words = words
        self._cum = cum
        self._rev: np.ndarray | None = None

    def reversed_words(self) -> np.ndarray:
        """Full bit-reversal of the membership bitset, cached on first use.

        Bit j of the result is bit (T - 1 - j) of the bitset, T = 64 * word
        count. Lets reversed-window reads become aligned forward reads in
        the pair-counting hot path. A benign race under threads: both
        sides compute the same array.
        """
        if self._rev is None:
            rev_bytes = _REV8[self._words.view(np.uint8)[::-1]]
            rev = rev_bytes.view(np.uint64)
            rev.flags.writeable = False
            self._rev = rev
        return self._rev

    @classmethod
    def from_elements(
        cls, elements: Iterable[int] | np.ndarray, limit: int | None = None
    ) -> "NumberSet":
        elems = np.array(
            list(elements) if not isinstance(elements, np.ndarray) else elements,
            dtype=np.int64,
        )
        if elems.ndim != 1:
            raise DomainError("elements must be one-dimensional")
        if elems.size and elems[0] < 1:
            raise DomainError("elements must be >= 1")
        if elems.size and np.any(np.diff(elems) <= 0):
            raise DomainError("elements must be strictly increasing")
        if limit is None:
            if elems.size == 0:
                raise DomainError("an empty set needs an explicit limit")
            limit = int(elems[-1])
        elif elems.size and int(elems[-1]) > limit:
            raise DomainError(f"element {int(elems[-1])} exceeds limit {limit}")
        if limit < 1:
            raise DomainError("limit must be >= 1")
        words = np.zeros((limit >> 6) + 1, dtype=np.uint64)
        np.bitwise_or.at(words, elems >> 6, _ONE << (elems & 63).astype(np.uint64))
        return cls(words, elems, limit)

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
        w = n >> 6
        mask = _U64((2 << (n & 63)) - 1)
        return int(self._cum[w]) + int((self._words[w] & mask).bit_count())

    def rank_many(self, ns: np.ndarray) -> np.ndarray:
        """Vector rank via binary search on the element array."""
        return np.searchsorted(self.elements, ns, side="right")

    def min(self) -> int:
        if not len(self):
            raise DomainError("empty set has no minimum")
        return int(self.elements[0])

    def max(self) -> int:
        if not len(self):
            raise DomainError("empty set has no maximum")
        return int(self.elements[-1])


def bits_at(words: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bit test of each x in a packed uint64 bitset; returns bool array."""
    w = words[xs >> 6]
    return ((w >> (xs & 63).astype(np.uint64)) & _ONE).astype(bool)


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


def extract_window_reversed(words: np.ndarray, a: int, b: int) -> np.ndarray:
    """Packed bits of [a, b] in reversed order: bit j of the result is bit (b - j)."""
    fwd = extract_window(words, a, b)
    length = b - a + 1
    total = fwd.size << 6
    # full bit-reversal: reverse the byte order, then the bits within each byte
    rev_bytes = _REV8[fwd.view(np.uint8)[::-1]]
    rev = rev_bytes.view(np.uint64)
    # bit j of the target is bit (total - length + j) of the reversed buffer
    return extract_window(rev, total - length, total - 1)


def window_bools(words: np.ndarray, a: int, b: int) -> np.ndarray:
    """Membership of positions a..b as a bool array (for dense scans)."""
    packed = extract_window(words, a, b)
    return np.unpackbits(
        packed.view(np.uint8), count=b - a + 1, bitorder="little"
    ).astype(bool)


def _dense_sieve(limit: int) -> np.ndarray:
    """Plain sieve for base primes (limit is at most sqrt of the real job)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


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


def primes_up_to(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> NumberSet:
    """All primes in [2, limit], sieved segment by segment.

    Memory beyond the output bitset/element array is one boolean segment
    (default 2^20 numbers). segment_size must be a positive multiple of 64
    so segments pack cleanly into the shared word buffer.
    """
    if limit < 2:
        raise DomainError("primes_up_to needs limit >= 2")
    if segment_size < 64 or segment_size % 64:
        raise DomainError("segment_size must be a positive multiple of 64")
    n_words = (limit >> 6) + 1
    byte_buf = np.zeros(n_words * 8, dtype=np.uint8)
    odd_base = _dense_sieve(math.isqrt(limit))[1:].tolist()
    chunks = []
    for lo in range(0, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        seg = _sieve_segment(lo, hi, odd_base)
        packed = np.packbits(seg, bitorder="little")
        byte_buf[lo >> 3 : (lo >> 3) + packed.size] = packed
        chunks.append(np.flatnonzero(seg).astype(np.int64) + lo)
    words = byte_buf.view(np.uint64)
    return NumberSet(words, np.concatenate(chunks), limit)


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

    Each element is checked as its line is read (>= 1, above the previous
    one, fits in int64, within the limit header) and goes straight into a
    compact int64 array.
    """
    limit: int | None = None
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
            if limit is not None and value > limit:
                raise SetFormatError(path, line_no, f"element {value} exceeds limit {limit}")
            prev = value
    if not values and limit is None:
        raise SetFormatError(path, 1, "no elements and no limit header")
    return NumberSet.from_elements(np.frombuffer(values, dtype=np.int64), limit)
