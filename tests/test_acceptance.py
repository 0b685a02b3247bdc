"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
The desk-scale classical verification (criterion 4, range up to 1e8,
about 2 s on a 2-vCPU host) runs by default; set PRIMESIM_SKIP_DESK=1 to skip just that
case while keeping the CI-scale run.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from primesim.checker import a_set, b_set, check_range, disjoint, find_representation, minimal_representations
from primesim.cli import main as cli_main
from primesim.numset import primes_up_to
from primesim.probmodel import (
    coefficient_c,
    coefficient_c_fraction,
    exact_disjoint_fraction,
    exact_disjoint_prob,
    log_f,
    monte_carlo_disjoint,
    tail_integral,
)
from primesim.reports import dump_json, load_json
from primesim.simsets import perturb_primes, shift_set, similarity

from conftest import sparse_random_set

PERTURBED_SEEDS = [1, 2, 3, 4, 5]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_damping_values():
    f4 = log_f(10_000, 1.0).log10
    f40 = log_f(40_000, 1.0).log10
    ok = -51.5 <= f4 <= -51.0 and -155.0 <= f40 <= -154.0
    verdict(1, ok, f"log10 f(1e4)={f4:.3f} in [-51.5,-51.0]; log10 f(4e4)={f40:.3f} in [-155,-154]")


def test_criterion_02_tail_integrals():
    t0 = time.perf_counter()
    tail20 = tail_integral(20_000, 1.0).log10
    dt20 = time.perf_counter() - t0
    t0 = time.perf_counter()
    tail50 = tail_integral(50_000, 1.0).log10
    dt50 = time.perf_counter() - t0
    ok = abs(tail20 + 86) <= 1.0 and abs(tail50 + 183) <= 1.0 and dt20 < 1.0 and dt50 < 1.0
    verdict(
        2,
        ok,
        f"log10 tail(2e4)={tail20:.2f} (-86±1, {dt20:.3f}s); "
        f"log10 tail(5e4)={tail50:.2f} (-183±1, {dt50:.3f}s)",
    )


def test_criterion_03_coefficient_exact():
    ok = (
        coefficient_c(2) == 2.0
        and coefficient_c(3) == 3.0
        and coefficient_c_fraction(5) == Fraction(15, 4)
        and coefficient_c(5) == 3.75
    )
    verdict(3, ok, "coefficient_c(2)=2, (3)=3, (5)=15/4 exactly")


def test_criterion_04_classical_ci_scale():
    t0 = time.perf_counter()
    primes = primes_up_to(10**7)
    report = check_range(primes, 4, 10**7)
    elapsed = time.perf_counter() - t0
    ok = report.failures == [] and elapsed <= 60.0
    verdict(4, ok, f"primes [4, 1e7]: {len(report.failures)} failures in {elapsed:.1f}s (<=60s)")


@pytest.mark.skipif(
    os.environ.get("PRIMESIM_SKIP_DESK") == "1",
    reason="desk-scale run disabled via PRIMESIM_SKIP_DESK",
)
def test_criterion_04_classical_desk_scale():
    t0 = time.perf_counter()
    primes = primes_up_to(10**8)
    report = check_range(primes, 4, 10**8)
    elapsed = time.perf_counter() - t0
    ok = report.failures == [] and elapsed <= 600.0
    verdict(4, ok, f"primes [4, 1e8]: {len(report.failures)} failures in {elapsed:.1f}s (<=600s)")


def test_criterion_05_perturbed_verification():
    t0 = time.perf_counter()
    thresholds = {}
    for seed in PERTURBED_SEEDS:
        ns = perturb_primes(10**7, seed)
        report = check_range(ns, 4, 10**7)
        thresholds[seed] = max(report.failures, default=0)
    elapsed = time.perf_counter() - t0
    within_40 = sum(1 for t in thresholds.values() if t <= 40)
    ok = (
        within_40 >= 4
        and all(t <= 200 for t in thresholds.values())
        and elapsed <= 300.0
    )
    verdict(
        5,
        ok,
        f"max failure per seed {thresholds} ({within_40}/5 <=40, all <=200, {elapsed:.1f}s)",
    )


def test_criterion_06_similarity_bound_exhaustive():
    worst = {}
    for seed in PERTURBED_SEEDS:
        ns = perturb_primes(10**6, seed)
        primes = primes_up_to(10**6)
        report = similarity(ns, primes)
        worst[seed] = report.max_deviation
    ok = all(d <= 2 for d in worst.values())
    verdict(6, ok, f"max |rank_Q - pi| over n<=1e6 per seed: {worst} (all <=2)")


def test_criterion_07_shift_property():
    t0 = time.perf_counter()
    primes = primes_up_to(10**5)
    ok = True
    for t in (1, 2, 10):
        shifted = shift_set(primes, t)
        lo, hi = 2 * t + 4, 10**5
        evens = np.arange(lo, hi + 2, 2, dtype=np.int64)
        base_q1 = minimal_representations(primes, lo - 2 * t, hi - 2 * t)
        shifted_q1 = minimal_representations(shifted, lo, hi)
        # every even has a representation, built constructively from the base pair
        if not (base_q1 > 0).all() or not (shifted_q1 > 0).all():
            ok = False
            break
        p_wit = base_q1 + t
        q_wit = (evens - 2 * t - base_q1) + t
        members_p = np.isin(p_wit, shifted.elements)
        members_q = np.isin(q_wit, shifted.elements)
        if not (members_p & members_q).all() or not ((p_wit + q_wit) == evens).all():
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(7, ok, f"t in {{1,2,10}}, witnesses (p+t, q+t) valid up to 1e5 ({elapsed:.1f}s)")


def test_criterion_08_equivalence_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sets = [primes_up_to(4001), perturb_primes(4001, 1), perturb_primes(4001, 2)]
    sets += [sparse_random_set(rng, 4001, 0.06) for _ in range(5)]
    checked = 0
    ok = True
    for ns in sets:
        for n in range(2, 2001):
            absent = find_representation(ns, 2 * n) is None
            if disjoint(a_set(ns, n), b_set(ns, n)) != absent:
                ok = False
                break
            checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(8, ok, f"disjoint(A,B) <=> no representation on {checked} (set, n) pairs ({elapsed:.1f}s)")


def test_criterion_09_exact_vs_enumeration():
    ok = True
    worst = None
    for m in range(1, 13):
        masks = np.arange(1 << m, dtype=np.uint16)
        pops = np.bitwise_count(masks).astype(np.int16)
        disj = (masks[:, None] & masks[None, :]) == 0
        idx = (pops[:, None].astype(np.int32) * 13 + pops[None, :]).ravel()
        disjoint_counts = np.bincount(idx, weights=disj.ravel(), minlength=169).astype(np.int64)
        total_counts = np.bincount(idx, minlength=169)
        for k1 in range(m + 1):
            for k2 in range(m + 1):
                cell = k1 * 13 + k2
                enumerated = Fraction(int(disjoint_counts[cell]), int(total_counts[cell]))
                if enumerated != exact_disjoint_fraction(m, k1, k2):
                    ok = False
                    worst = (m, k1, k2)
    verdict(9, ok, f"formula == subset-pair enumeration for all m<=12 {worst or ''}")


def test_criterion_10_monte_carlo_grid():
    cells = 0
    within = 0
    trials = 100_000
    for m in (4, 10, 20, 30, 40, 50):
        for k1 in (0, 1, 2, 3, 5, 7, 10):
            for k2 in (0, 1, 2, 3, 5, 7, 10):
                if k1 > m or k2 > m:
                    continue
                exact = math.exp(exact_disjoint_prob(m, k1, k2).ln_value)
                result = monte_carlo_disjoint(m, k1, k2, trials, seed=1234)
                sigma = math.sqrt(exact * (1 - exact) / trials)
                cells += 1
                if abs(result.frequency - exact) <= 4 * sigma:
                    within += 1
    ok = within / cells >= 0.99
    verdict(10, ok, f"{within}/{cells} grid cells within 4 sigma (>=99% needed)")


def test_criterion_11_determinism(tmp_path, capsys):
    # gen-set byte identity
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        code = cli_main(
            ["gen-set", "--kind", "perturbed", "--limit", "100000",
             "--seed", "42", "--out", str(path)]
        )
        assert code == 0
    gen_ok = paths[0].read_bytes() == paths[1].read_bytes()
    # check report bodies identical for any worker count (wall time aside)
    bodies = []
    for workers in ("1", "3", "8"):
        out = tmp_path / f"w{workers}.json"
        code = cli_main(
            ["check", "--set", "perturbed", "--limit", "100000", "--seed", "42",
             "--lo", "4", "--hi", "100000", "--workers", workers,
             "--bucket-width", "10000", "--out", str(out)]
        )
        doc = load_json(str(out))
        doc.pop("wall_ms")
        bodies.append(dump_json(doc))
    check_ok = bodies[0] == bodies[1] == bodies[2]
    capsys.readouterr()
    verdict(11, gen_ok and check_ok, "gen-set bytes and check bodies identical across reruns/workers")
