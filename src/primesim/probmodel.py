"""Probabilistic model of disjointness between the two distance sets.

Everything is carried in natural-log space end to end: the quantities of
interest sit far below every floating-point denormal (10^-183 and under),
so probabilities only ever exist here as their logarithms. Binomials go
through exact integer arithmetic up to m = 64 and a blocked sum of log
ratios above; the exact rational forms stay available for oracle tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from ._rng import mix64
from .errors import DomainError
from .numset import primes_up_to

LN10 = math.log(10.0)
RATIONAL_MAX_M = 64
QUAD_REL_TOL = 1e-6
QUAD_CUTOFF = 1e-30
# slot hashes per Monte Carlo chunk: 256 KB of uint64, so every pass over a
# chunk stays in L2 cache
MC_CHUNK_SLOTS = 1 << 15
# log-ratio terms per block of the exact sum: bounds its memory
SUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class LogProb:
    """A probability carried as its natural log; -inf is exact zero."""

    ln_value: float

    def __post_init__(self):
        if math.isnan(self.ln_value):
            raise DomainError("log-probability is NaN")
        if self.ln_value > 1e-9:
            raise DomainError(f"ln probability must be <= 0, got {self.ln_value}")
        if self.ln_value > 0.0:
            object.__setattr__(self, "ln_value", 0.0)

    @property
    def log10(self) -> float:
        return self.ln_value / LN10


@dataclass(frozen=True)
class MonteCarloResult:
    frequency: float
    std_error: float
    trials: int


def exact_disjoint_fraction(m: int, k1: int, k2: int) -> Fraction:
    """P(two uniform subsets of sizes k1, k2 from m slots are disjoint), exact.

    Algebraically C(m-k1, k2) / C(m, k2); the symmetric full form reduces
    to this.
    """
    if not (0 <= k1 <= m and 0 <= k2 <= m):
        raise DomainError(f"subset sizes ({k1}, {k2}) must lie in [0, {m}]")
    if k2 > m - k1:
        return Fraction(0)
    return Fraction(math.comb(m - k1, k2), math.comb(m, k2))


def _ln_ratio_sum(m: int, k1: int, k2: int) -> float:
    # ln C(m-k1, k2) - ln C(m, k2) as a sum of log ratios; each term is
    # accurate to a couple of ulp, unlike differences of huge log-gammas.
    # Summed in blocks so memory stays O(SUM_BLOCK) for any k2.
    blocks = (
        np.arange(i0, min(k2, i0 + SUM_BLOCK), dtype=np.float64)
        for i0 in range(0, k2, SUM_BLOCK)
    )
    return math.fsum(float(np.log1p(-k1 / (m - i)).sum()) for i in blocks)


def exact_disjoint_prob(m: int, k1: int, k2: int) -> LogProb:
    """Disjointness probability in log space; exact rationals for m <= 64."""
    if not (0 <= k1 <= m and 0 <= k2 <= m):
        raise DomainError(f"subset sizes ({k1}, {k2}) must lie in [0, {m}]")
    if k2 > m - k1:
        return LogProb(-math.inf)
    if m <= RATIONAL_MAX_M:
        frac = exact_disjoint_fraction(m, k1, k2)
        return LogProb(math.log(frac.numerator) - math.log(frac.denominator))
    return LogProb(_ln_ratio_sum(m, k1, k2))


def _upper_bound_ln(n: float, ln_n: float) -> float:
    # (1 - 1/ln n)^(n / ln n), in log space
    return (n / ln_n) * math.log1p(-1.0 / ln_n)


def upper_bound_prob(n: int) -> LogProb:
    """Disjointness bound after substituting k1 = k2 = n/ln n.

    Slightly sharper than the damping form exp(-n/ln^2 n): since
    1 - x <= e^-x the two satisfy upper_bound_prob(n) <= log_f(n, 1).
    """
    if n < 3:
        raise DomainError("upper_bound_prob needs n >= 3 (ln n must exceed 1)")
    return LogProb(_upper_bound_ln(float(n), math.log(n)))


def _ln_f(n: float, damping_c: float) -> float:
    """ln f(n) = -c * n / ln^2 n, for a finite c >= 1 that keeps it finite."""
    if damping_c < 1.0:
        raise DomainError("damping coefficient must be >= 1")
    try:
        ln_f = -damping_c * n / math.log(n) ** 2
    except OverflowError:  # n past the largest float
        raise DomainError(f"n = {n} is too large for ln f(n) = -c * n / ln^2 n in floats") from None
    if not math.isfinite(ln_f):
        raise DomainError(f"damping coefficient {damping_c} must be finite and keep ln f({n}) finite")
    return ln_f


def log_f(n: int, damping_c: float = 1.0) -> LogProb:
    """The damping bound f(n) = exp(-c * n / ln^2 n), in log space."""
    if n < 3:
        raise DomainError("log_f needs n >= 3")
    return LogProb(_ln_f(n, damping_c))


def coefficient_c_fraction(p_max: int) -> Fraction:
    """Exact damping coefficient: product of p/(p-1) over primes p <= p_max."""
    if p_max < 2:
        raise DomainError("coefficient needs p_max >= 2")
    c = Fraction(1)
    for p in primes_up_to(p_max).elements.tolist():
        c *= Fraction(p, p - 1)
    return c


def coefficient_c(p_max: int) -> float:
    return float(coefficient_c_fraction(p_max))


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_simpson(
        f, a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def tail_integral(N: int, damping_c: float = 1.0) -> LogProb:
    """log of the tail mass of the damping bound, ∫_N^∞ exp(-c x / ln^2 x) dx.

    Integrates exp(ln f(x) - ln f(N)) — a shifted-log integrand bounded by
    1, so nothing underflows — with adaptive Simpson over geometrically
    growing panels, truncating once the integrand drops below 1e-30, and
    restores the f(N) factor at the end.
    """
    if N < 100:
        raise DomainError("tail_integral needs N >= 100")
    g_n = _ln_f(N, damping_c)

    def g(x: float) -> float:
        return -damping_c * x / math.log(x) ** 2

    def h(x: float) -> float:
        return math.exp(g(x) - g_n)

    total = 0.0
    a = float(N)
    width = 64.0
    fa = h(a)
    while fa >= QUAD_CUTOFF:
        b = a + width
        fb = h(b)
        if fb > fa * (1.0 + 1e-12):
            raise RuntimeError("tail integrand must be monotone decreasing")
        mid = 0.5 * (a + b)
        fm = h(mid)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        tol = QUAD_REL_TOL * max(whole, total * QUAD_REL_TOL)
        total += _adaptive_simpson(h, a, b, fa, fm, fb, whole, tol, 40)
        a, fa = b, fb
        width *= 2.0
    return LogProb(g_n + math.log(total))


@functools.lru_cache(maxsize=8)
def _mc_at_least(m: int, k1: int, trials: int, seed: int) -> np.ndarray:
    """Read-only array whose entry j counts the trials in which at least j
    slots outside A hash below every slot of A, for j in 0..m - k1."""
    counts = np.zeros(m - k1 + 1, dtype=np.int64)
    chunk = max(1, MC_CHUNK_SLOTS // m)
    slots = np.arange(m, dtype=np.uint64)
    for t0 in range(0, trials, chunk):
        base = np.arange(t0, min(trials, t0 + chunk), dtype=np.uint64) << np.uint64(16)
        h = mix64(seed, (base[:, None] | slots[None, :]).ravel()).reshape(-1, m)
        below = h[:, k1:] < h[:, :k1].min(axis=1, keepdims=True)
        counts += np.bincount(below.sum(axis=1), minlength=m - k1 + 1)
    at_least = np.cumsum(counts[::-1])[::-1]
    at_least.flags.writeable = False
    return at_least


def monte_carlo_disjoint(
    m: int, k1: int, k2: int, trials: int, seed: int
) -> MonteCarloResult:
    """Empirical disjointness frequency of independent uniform subset pairs.

    By exchangeability A is fixed as the slots {0..k1-1}; B is the k2
    smallest of m keyed hashes, a uniform k2-subset. B misses A exactly
    when at least k2 slots outside A hash below every slot of A. Each hash
    is a pure function of (seed, trial, slot), so any chunking or parallel
    split reproduces the same draws. The draws do not depend on k2: one
    hashing pass per (m, k1, trials, seed) counts the trials for every k2,
    and the last few passes are cached, so a row of k2 values costs one.
    """
    if not (0 <= k1 <= m and 0 <= k2 <= m):
        raise DomainError(f"subset sizes ({k1}, {k2}) must lie in [0, {m}]")
    if m < 1 or m > 0xFFFF:
        raise DomainError("m must be in [1, 65535]")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if k1 == 0 or k2 == 0:
        return MonteCarloResult(frequency=1.0, std_error=0.0, trials=trials)
    at_least = _mc_at_least(m, k1, trials, seed)
    hits = int(at_least[k2]) if k2 < len(at_least) else 0
    freq = hits / trials
    return MonteCarloResult(
        frequency=freq,
        std_error=math.sqrt(freq * (1.0 - freq) / trials),
        trials=trials,
    )


@dataclass(frozen=True)
class ModelRow:
    """One line of the model-evaluation table the CLI emits as CSV."""

    n: int
    k: int
    domain_size: int
    damping_c: float
    ln_p_exact: float
    log10_f: float
    log10_tail: float | None


def model_row(n: int, p_max: int | None = None, damping_c: float | None = None) -> ModelRow:
    """Evaluate the model at one midpoint n.

    k1 = k2 = k = n/ln n rounded to nearest. Residue filtering (p_max)
    shrinks the slot domain of the exact hypergeometric: p_max=2 keeps one
    parity class, ceil(n/2) slots; p_max=3 also drops one residue class
    mod 3, floor(n/3) slots. Larger primes enter only through the damping
    coefficient, which defaults to coefficient_c(p_max) when filtering,
    else 1. ln_p_exact is NaN, inapplicable, when k exceeds the domain.
    The tail column needs n >= 100.
    """
    if n < 6:
        raise DomainError("model rows need n >= 6")
    domain = {None: n, 2: (n + 1) // 2, 3: n // 3}.get(p_max)
    if domain is None:
        raise DomainError("residue filter is derived only for p_max in {2, 3}")
    c = damping_c if damping_c is not None else coefficient_c(p_max) if p_max else 1.0
    k = round(n / math.log(n))
    return ModelRow(
        n=n,
        k=k,
        domain_size=domain,
        damping_c=c,
        # log_f before the exact sum: it refuses a bad damping coefficient at once
        log10_f=log_f(n, c).log10,
        ln_p_exact=exact_disjoint_prob(domain, k, k).ln_value if k <= domain else math.nan,
        log10_tail=tail_integral(n, c).log10 if n >= 100 else None,
    )


def model_table(
    ns: Iterable[int], p_max: int | None = None, damping_c: float | None = None
) -> list[ModelRow]:
    if damping_c is None and p_max in (2, 3):  # one coefficient for every row
        damping_c = coefficient_c(p_max)
    return [model_row(n, p_max=p_max, damping_c=damping_c) for n in ns]
