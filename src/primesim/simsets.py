"""Construction of prime-similar sets and the similarity metric.

Three constructions: the primes themselves, the primes with every element
nudged by +1 or -1 (keyed, reproducible randomness), and translated copies
of a base set. Similarity between two sets is the largest gap between
their rank functions over every n up to the smaller limit, found at the
sets' own elements, the only places where the gap changes. The same walk
over both sets gives the gap at SERIES_POINTS grid points, the plot data
of a deviation report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ._rng import mix64
from .errors import DomainError
from . import numset
from .numset import NumberSet, load_set, primes_up_to


# Points of the evenly spaced grid a SimilarityReport gives the gap at.
SERIES_POINTS = 1000

# The SetSpec fields each kind needs and the only ones it takes; builders check the least limits.
KINDS = {"primes": ("limit",), "perturbed": ("limit", "seed"), "shifted": ("limit", "shift_t"), "file": ("path",)}


@dataclass(frozen=True)
class SetSpec:
    """Declarative recipe for constructing a NumberSet.

    kind 'primes'    — primes up to `limit`
    kind 'perturbed' — primes up to `limit`, each moved by +-1 keyed on `seed`
    kind 'shifted'   — primes up to `limit` translated by `shift_t`
    kind 'file'      — loaded from `path` in the shared set format
    """

    kind: str
    limit: int | None = None
    seed: int | None = None
    shift_t: int | None = None
    path: str | None = None

    def validate(self, names: dict[str, str] | None = None) -> None:
        """Refuse a spec its kind cannot build; a missing or extra field is named by names[field], by default the field."""
        names = names or {}
        if self.kind not in KINDS:
            raise DomainError(f"unknown set kind {self.kind!r}")
        for name in KINDS[self.kind]:
            if getattr(self, name) in (None, ""):
                raise DomainError(f"{self.kind} spec needs {names.get(name, name)}")
        for f in fields(self)[1:]:  # every field but kind
            if f.name not in KINDS[self.kind] and getattr(self, f.name) is not None:
                raise DomainError(f"{self.kind} spec takes no {names.get(f.name, f.name)}")
        # shift_set would reject it only after the sieve
        if self.kind == "shifted" and self.shift_t < -1:
            raise DomainError("shift below 1 is out of domain (2 is the smallest prime)")

    @classmethod
    def from_text(cls, text: str) -> "SetSpec":
        names = {f.name for f in fields(cls)}
        spec: dict[str, object] = {}
        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"spec line {line_no}: expected key=value, got {line!r}")
            key = key.strip()
            value = value.strip()
            if key not in names:
                raise ValueError(f"spec line {line_no}: unknown key {key!r}")
            try:
                spec[key] = value if key in ("kind", "path") else int(value)
            except ValueError:
                raise ValueError(f"spec line {line_no}: {key} must be an integer")
        if "kind" not in spec:
            raise ValueError("spec block has no kind=")
        out = cls(**spec)  # type: ignore[arg-type]
        out.validate()
        return out

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass(frozen=True)
class SimilarityReport:
    """Largest rank gap between two sets, its witness, the similarity bound, and the gap along a grid.

    The fields are in a deviation report's key order; series holds the
    (n, gap) pairs at up to SERIES_POINTS evenly spaced n.
    """

    max_deviation: int
    bound_c: int
    samples: int
    witness_n: int
    series: tuple[tuple[int, int], ...]


def perturb_primes(limit: int, seed: int, primes: NumberSet | None = None) -> NumberSet:
    """Replace every prime p <= limit with p+1 or p-1, keyed on (seed, p).

    The sign is bit 0 of a counter-based hash, so generation is order- and
    segmentation-independent. Twin primes can collide (p+1 == (p+2)-1);
    collisions are resolved in ascending order by flipping the later
    element's sign, which keeps every element within 1 of its source prime.
    The primes, sieved here unless a caller passes them, are moved a block
    at a time into the result's bitset, with the last moved element of one
    block carried into the next, so no element array of the set is held.
    The result lives in the universe [1, limit+1] since the top prime may
    move up.
    """
    if limit < 3:
        raise DomainError("perturb_primes needs limit >= 3")
    if primes is None:
        primes = primes_up_to(limit)
    words = numset.new_words(limit + 1)
    carry = np.empty(0, dtype=np.int64)
    for block in primes.blocks(1, limit):
        cand = np.concatenate([carry, block + np.where(mix64(seed, block) & np.uint64(1), 1, -1)])
        # Only twins p, p + 2 collide, at p + 1, and the later one moved
        # down: flipping it adds 2 and sends it to p + 3, above every
        # earlier candidate, where it can meet the next twin in turn (3, 5,
        # 7 is the one chain). Repeating until nothing collides is the
        # ascending sequential pass, and no element is lost; the carried
        # element is final, so it never moves.
        while (idx := np.flatnonzero(cand[1:] == cand[:-1])).size:
            cand[idx + 1] += 2
        numset.set_members(words, cand[carry.size :])
        carry = cand[-1:]
    return NumberSet(words, limit + 1)


def shift_set(base: NumberSet, t: int) -> NumberSet:
    """Translate every element by t; ranks satisfy rank_out(n) = rank_base(n - t).

    Member i of class c, the integer 2i + c, becomes member i + d of class
    (c + t) & 1, d = (c + t) >> 1, so each class is copied word-aligned
    into its new class from bit -d, a block of words at a time.
    """
    classes = [base.parity_class(c) for c in (0, 1)]
    starts = [2 * p.first + c for c, p in enumerate(classes) if p.first <= p.last]
    if not starts:
        raise DomainError("cannot shift an empty set")
    if min(starts) + t < 1:
        raise DomainError(f"shift {t} sends {min(starts)} below 1")
    if base.limit + t > np.iinfo(np.int64).max:
        raise DomainError(f"shift {t} sends limit {base.limit} past 2^63 - 1")
    words = numset.new_words(base.limit + t)
    half = words.size >> 1
    for c, parity in enumerate(classes):
        dst, d = words[((c + t) & 1) * half :][:half], (c + t) >> 1
        for k in range(0, half, numset.BLOCK_WORDS):
            n = min(numset.BLOCK_WORDS, half - k)
            dst[k : k + n] = numset.extract_window(parity.words, 64 * k - d, 64 * (k + n) - 1 - d)
    return NumberSet(words, base.limit + t)


def similarity(setQ: NumberSet, setP: NumberSet) -> SimilarityReport:
    """Max of |rank_Q(n) - rank_P(n)| over every n in [1, min(limits)], and the gap along a grid.

    The gap is 0 below both sets' first elements and changes only at an
    element of either set, so it is evaluated there alone. Both sets are
    read in step, a window of integers at a time: the k-th element of one
    set in the window has rank k plus the elements before the window, and
    the other set's rank there is its count before the window plus a
    search in its own window. A grid point's two ranks are read the same
    way, by a search in each set's window. The witness is the smallest n
    reaching the maximum (1 when the sets agree); the similarity bound
    constant is max deviation + 1. The grid is SERIES_POINTS integers
    spaced evenly from 1 to min(limits), or every n when there are fewer.
    """
    common = min(setQ.limit, setP.limit)
    if common < 1:
        raise DomainError("sets share no evaluable range")
    grid = np.unique(np.linspace(1, common, num=min(SERIES_POINTS, common), dtype=np.int64))
    best, witness, gaps = 0, 1, []
    before = [0, 0]  # elements of each set below the window
    span = 8 * numset.BLOCK_WORDS  # the integers of one block of each set
    for lo in range(0, common + 1, span):
        window = [ns.elements_in(max(lo, 1), min(common, lo + span - 1)) for ns in (setQ, setP)]
        for own in (0, 1):
            xs, other = window[own], window[1 - own]
            if not xs.size:
                continue
            dev = np.abs(
                np.arange(before[own] + 1, before[own] + 1 + xs.size)
                - (before[1 - own] + other.searchsorted(xs, side="right"))
            )
            i = int(np.argmax(dev))
            # on a tie the smaller element is the witness
            if (int(dev[i]), witness) > (best, int(xs[i])):
                best, witness = int(dev[i]), int(xs[i])
        at = grid[grid.searchsorted(lo) : grid.searchsorted(lo + span)]  # the grid in the window
        q, p = (b + w.searchsorted(at, side="right") for b, w in zip(before, window))
        gaps.append(np.abs(q - p))
        before = [before[c] + window[c].size for c in (0, 1)]
    series = tuple(zip(grid.tolist(), np.concatenate(gaps).tolist()))
    return SimilarityReport(max_deviation=best, bound_c=best + 1, samples=common, witness_n=witness, series=series)


def build(spec: SetSpec, primes: NumberSet | None = None) -> NumberSet:
    """Construct the set a SetSpec describes; deterministic for a fixed spec.

    primes, the primes up to spec.limit, spares the sieve to a caller that
    holds them already.
    """
    spec.validate()
    if spec.kind == "file":
        return load_set(spec.path)
    if spec.kind == "perturbed":
        return perturb_primes(spec.limit, spec.seed, primes)
    if primes is None:
        primes = primes_up_to(spec.limit)
    return primes if spec.kind == "primes" else shift_set(primes, spec.shift_t)
