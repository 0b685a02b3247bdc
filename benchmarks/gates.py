"""Independent oracles and correctness gates for the benchmark's outputs.

Nothing here calls primesim. Primes come from a plain numpy sieve, set
files are parsed directly, pair counts are brute force over the element
array, disjointness probabilities come from math.lgamma and math.comb, and
tail integrals from a fixed-grid Simpson rule. Every gate returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

LN10 = math.log(10.0)
ALLOW_BELOW = 42  # `primesim check` exits 1 only for failures at or above this even
PREFIX_EVENS = 1000  # evens at the start of the range, all checked (failures sit there)
SPOT_EVENS = 200  # further evens drawn at random and checked for a representation
SPOT_BUCKET_MAX = 5000  # a bucket with more counts than this is checked on a sample
TAIL_ROWS = 3  # model-table rows whose tail integral is recomputed
MC_SIGMAS = 4.0
MC_WITHIN_MIN = 0.99
EXACT_REL_TOL = 1e-9
TAIL_ABS_TOL = 1e-5  # log10 units


def prime_flags(limit: int) -> np.ndarray:
    """Primality of 0..limit by the plain sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return flags


class SetOracle:
    """A number set as a sorted element array plus a membership array."""

    def __init__(self, elements: np.ndarray, limit: int):
        self.elements = elements
        self.limit = limit
        self.flags = np.zeros(limit + 1, dtype=bool)
        self.flags[elements] = True

    @classmethod
    def primes(cls, limit: int) -> "SetOracle":
        return cls(np.flatnonzero(prime_flags(limit)), limit)

    @classmethod
    def from_file(cls, path: str) -> "SetOracle":
        """Parse the set-file format: '#' comments, a limit= header, one element per line."""
        limit = None
        values = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("limit="):
                    limit = int(line[6:])
                else:
                    values.append(int(line))
        elements = np.array(values, dtype=np.int64)
        if limit is None:
            limit = int(elements[-1])
        return cls(elements, limit)

    def pair_count(self, even: int) -> int:
        """Brute-force number of q1 <= q2 in the set with q1 + q2 = even."""
        q1 = self.elements[: np.searchsorted(self.elements, even // 2, side="right")]
        q2 = even - q1
        return int(self.flags[q2[q2 <= self.limit]].sum())


def check_report(
    report: dict, oracle: SetOracle, *, lo: int, hi: int, status: int, rng: np.random.Generator
) -> list[str]:
    """Gate a `primesim check` JSON report against a brute-force oracle.

    Reads only the fields it needs, so a new schema_version with the same
    fields still passes.
    """
    problems = []
    if (report.get("lo"), report.get("hi")) != (lo, hi):
        problems.append(f"report range {report.get('lo')}..{report.get('hi')} is not {lo}..{hi}")
    failures = report["failures"]
    if failures != sorted(set(failures)) or any(f % 2 or not lo <= f <= hi for f in failures):
        problems.append("failures are not ascending distinct evens in range")
    expected_n0 = failures[-1] if failures else lo - 2
    if report["threshold_N0"] != expected_n0:
        problems.append(f"threshold_N0 {report['threshold_N0']} != {expected_n0}")
    expected_status = 1 if any(f >= ALLOW_BELOW for f in failures) else 0
    if status != expected_status:
        problems.append(f"exit status {status}, expected {expected_status}")
    for f in failures:
        count = oracle.pair_count(f)
        if count:
            problems.append(f"reported failure {f} has {count} representations")
    failure_set = set(failures)
    n_evens = (hi - lo) // 2 + 1
    prefix = lo + 2 * np.arange(min(PREFIX_EVENS, n_evens))
    drawn = lo + 2 * rng.integers(0, n_evens, size=SPOT_EVENS)
    for e in np.concatenate([prefix, drawn]).tolist():
        if e not in failure_set and oracle.pair_count(e) == 0:
            problems.append(f"{e} has no representation but is not reported")
            break
    problems += _check_buckets(report["buckets"], oracle, lo, hi, rng)
    return problems


def _check_buckets(buckets: list[dict], oracle: SetOracle, lo: int, hi: int, rng) -> list[str]:
    if not buckets or buckets[0]["lo"] != lo or buckets[-1]["hi"] != hi:
        return ["buckets do not cover the range"]
    if any(b["lo"] != a["hi"] + 2 for a, b in zip(buckets, buckets[1:])):
        return ["buckets are not contiguous"]
    b = buckets[int(rng.integers(len(buckets)))]
    n_evens = (b["hi"] - b["lo"]) // 2 + 1
    sampled = b["sampled"]
    stride = -(-n_evens // max(sampled, 1))
    if sampled < 1 or -(-n_evens // stride) != sampled:
        return [f"bucket {b['lo']}: {sampled} counts cannot be a stride of {n_evens} evens"]
    evens = b["lo"] + 2 * stride * np.arange(sampled)
    if sampled > SPOT_BUCKET_MAX:
        counts = np.array([oracle.pair_count(e) for e in rng.choice(evens, SPOT_EVENS).tolist()])
        if counts.min() < b["min_reps"]:
            return [f"bucket {b['lo']}: a count {counts.min()} is below min_reps {b['min_reps']}"]
        return []
    counts = np.array([oracle.pair_count(e) for e in evens.tolist()], dtype=np.int64)
    if counts.min() != b["min_reps"] or not math.isclose(
        float(counts.mean()), b["mean_reps"], rel_tol=1e-12
    ):
        return [
            f"bucket {b['lo']}: min/mean {b['min_reps']}/{b['mean_reps']}, "
            f"brute force gives {counts.min()}/{counts.mean()}"
        ]
    return []


def perturbed_set(q: SetOracle, dev: dict, limit: int) -> list[str]:
    """Gate gen-set's perturbed set file and its deviation report.

    Every element must sit next to a prime <= limit, one element per prime
    (a collision may drop one), and the largest rank gap to the primes over
    1..limit must equal the reported max_deviation and be at most 2.
    """
    problems = []
    primes = prime_flags(limit + 1)
    primes[limit + 1] = False
    if q.limit != limit + 1:
        problems.append(f"set limit {q.limit} is not {limit + 1}")
        return problems
    if np.any(np.diff(q.elements) <= 0):
        problems.append("set elements are not strictly ascending")
    if int(primes.sum()) - q.elements.size not in (0, 1):
        problems.append(f"{q.elements.size} elements for {int(primes.sum())} primes")
    below = primes[q.elements - 1]
    above = primes[np.minimum(q.elements + 1, limit + 1)]
    if not np.all(below | above):
        problems.append("an element is not next to a prime")
    gap = np.cumsum(
        q.flags[1 : limit + 1].astype(np.int8) - primes[1 : limit + 1].astype(np.int8),
        dtype=np.int32,
    )
    max_dev = int(np.abs(gap).max())
    if dev.get("max_deviation") != max_dev or max_dev > 2:
        problems.append(f"max_deviation {dev.get('max_deviation')}, oracle {max_dev} (must be <= 2)")
    return problems


def ln_disjoint(m: int, k1: int, k2: int) -> float:
    """ln C(m-k1, k2) / C(m, k2) by log-gamma differences."""
    return (
        math.lgamma(m - k1 + 1)
        + math.lgamma(m - k2 + 1)
        - math.lgamma(m - k1 - k2 + 1)
        - math.lgamma(m + 1)
    )


def log10_tail(n: int, c: float) -> float:
    """log10 of the integral of exp(-c x / ln^2 x) over [n, inf), by Simpson's rule."""

    def g(x):
        return -c * x / np.log(x) ** 2

    g_n = float(g(n))
    width = 64.0
    while g(n + width) - g_n > -90.0:
        width *= 2.0
    y = np.exp(g(np.linspace(n, n + width, (1 << 16) + 1)) - g_n)
    area = width / (1 << 16) / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return (g_n + math.log(area)) / LN10


def mc_grid() -> list[tuple[int, int, int]]:
    """The (m, k1, k2) cells of acceptance criterion 10."""
    ks = (0, 1, 2, 3, 5, 7, 10)
    return [(m, a, b) for m in (4, 10, 20, 30, 40, 50) for a in ks for b in ks if a <= m and b <= m]


def mc_within(mc: list[list]) -> int:
    """Cells whose frequency lies within 4 sigma of the exact probability."""
    within = 0
    for m, k1, k2, freq, trials in mc:
        p = math.comb(m - k1, k2) / math.comb(m, k2) if k2 <= m - k1 else 0.0
        within += abs(freq - p) <= MC_SIGMAS * math.sqrt(p * (1.0 - p) / trials)
    return within


def model_results(res: dict, *, m: int, table_hi: int, trials: int, rng) -> list[str]:
    """Gate the model-mc job: exact probability, reference values, table, Monte Carlo."""
    problems = []
    k = round(m / math.log(m))
    ex = res["exact"]
    ref = ln_disjoint(m, k, k)
    if (ex["m"], ex["k"]) != (m, k) or abs(ex["ln_p"] - ref) > EXACT_REL_TOL * abs(ref):
        problems.append(f"exact ln P({m}, {k}) = {ex['ln_p']}, log-gamma form {ref}")
    refs = res["refs"]
    windows = {  # acceptance criteria 1 and 2
        "log10_f_1e4": (-51.5, -51.0),
        "log10_f_4e4": (-155.0, -154.0),
        "log10_tail_2e4": (-87.0, -85.0),
        "log10_tail_5e4": (-184.0, -182.0),
    }
    for name, (a, b) in windows.items():
        if not a <= refs[name] <= b:
            problems.append(f"{name} = {refs[name]} outside [{a}, {b}]")
    for name, n in (("log10_tail_2e4", 20_000), ("log10_tail_5e4", 50_000)):
        if abs(refs[name] - log10_tail(n, 1.0)) > TAIL_ABS_TOL:
            problems.append(f"{name} = {refs[name]}, Simpson oracle {log10_tail(n, 1.0)}")
    problems += _check_rows(res["rows"], table_hi, rng)
    mc = res["mc"]
    if [tuple(cell[:3]) for cell in mc] != mc_grid() or any(cell[4] != trials for cell in mc):
        problems.append("Monte Carlo cells or trial counts differ from criterion 10's grid")
    elif mc_within(mc) < MC_WITHIN_MIN * len(mc):
        problems.append(f"only {mc_within(mc)}/{len(mc)} Monte Carlo cells within 4 sigma")
    return problems


def _check_rows(rows: list[list], table_hi: int, rng) -> list[str]:
    ns = [row[0] for row in rows]
    if ns != list(range(1000, table_hi + 1, 1000)):
        return ["model table rows are not n = 1000, 2000, ..."]
    for n, k, domain, c, ln_p, log10_f, _ in rows:
        ref_f = -3.0 * n / math.log(n) ** 2 / LN10
        ref_p = ln_disjoint(domain, k, k)
        if (k, domain, c) != (round(n / math.log(n)), n // 3, 3.0):
            return [f"row {n}: parameters {(k, domain, c)}"]
        if not math.isclose(log10_f, ref_f, rel_tol=1e-12):
            return [f"row {n}: log10_f {log10_f}, formula {ref_f}"]
        if abs(ln_p - ref_p) > EXACT_REL_TOL * abs(ref_p):
            return [f"row {n}: ln_P_exact {ln_p}, log-gamma form {ref_p}"]
    for i in rng.choice(len(rows), size=min(TAIL_ROWS, len(rows)), replace=False).tolist():
        n, tail = rows[i][0], rows[i][6]
        if abs(tail - log10_tail(n, 3.0)) > TAIL_ABS_TOL:
            return [f"row {n}: log10_tail {tail}, Simpson oracle {log10_tail(n, 3.0)}"]
    return []
