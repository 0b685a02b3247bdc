import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesim import probmodel
from primesim.errors import DomainError
from primesim.probmodel import (
    LogProb,
    _ln_ratio_sum,
    _upper_bound_ln,
    coefficient_c,
    coefficient_c_fraction,
    exact_disjoint_fraction,
    exact_disjoint_prob,
    log_f,
    model_row,
    model_table,
    monte_carlo_disjoint,
    tail_integral,
    upper_bound_prob,
)

from conftest import trial_division_primes


def enumerate_disjoint_fraction(m: int, k1: int, k2: int) -> Fraction:
    """Oracle: enumerate every (k1-subset, k2-subset) pair as bitmasks."""
    masks = np.arange(1 << m, dtype=np.uint32)
    pops = np.bitwise_count(masks)
    a = masks[pops == k1]
    b = masks[pops == k2]
    disjoint_pairs = int(((a[:, None] & b[None, :]) == 0).sum())
    return Fraction(disjoint_pairs, a.size * b.size)


class TestExactDisjoint:
    def test_tiny_example(self):
        assert exact_disjoint_fraction(4, 1, 1) == Fraction(3, 4)
        assert exact_disjoint_prob(4, 1, 1).ln_value == pytest.approx(math.log(0.75))

    def test_empty_side_is_certain(self):
        assert exact_disjoint_prob(37, 0, 12).ln_value == 0.0

    def test_pigeonhole_zero(self):
        assert exact_disjoint_prob(10, 5, 6).ln_value == -math.inf
        assert exact_disjoint_fraction(10, 5, 6) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exact_disjoint_prob(5, 6, 1)
        with pytest.raises(DomainError):
            exact_disjoint_prob(5, 1, 6)

    def test_against_enumeration_small(self):
        for m in range(1, 9):
            for k1 in range(m + 1):
                for k2 in range(m + 1):
                    assert exact_disjoint_fraction(m, k1, k2) == enumerate_disjoint_fraction(
                        m, k1, k2
                    ), (m, k1, k2)

    @given(
        m=st.integers(min_value=1, max_value=40),
        k1=st.integers(min_value=0, max_value=40),
        k2=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, m, k1, k2):
        if k1 > m or k2 > m:
            return
        assert exact_disjoint_fraction(m, k1, k2) == exact_disjoint_fraction(m, k2, k1)

    @pytest.mark.parametrize("m", [10**5, 10**6, 10**7])
    def test_block_sum_matches_one_block(self, m, monkeypatch):
        k = round(m / math.log(m))
        monkeypatch.setattr(probmodel, "SUM_BLOCK", k)
        one_block = _ln_ratio_sum(m, k, k)
        for block in (1000, 4097):
            monkeypatch.setattr(probmodel, "SUM_BLOCK", block)
            assert abs(_ln_ratio_sum(m, k, k) - one_block) <= 1e-12 * abs(one_block)

    def test_memory_bounded_at_1e9(self):
        m = 10**9
        k = round(m / math.log(m))
        tracemalloc.start()
        try:
            exact_disjoint_prob(m, k, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_routes_agree_at_boundary(self):
        # same inputs through both routes; crossover is m = 64
        for m in (63, 64, 65):
            for k1, k2 in [(1, 1), (10, 20), (30, 30), (0, 63), (2, 61)]:
                if k1 > m or k2 > m or k2 > m - k1:
                    continue
                frac = exact_disjoint_fraction(m, k1, k2)
                exact_ln = math.log(frac.numerator) - math.log(frac.denominator)
                sum_ln = _ln_ratio_sum(m, k1, k2)
                if exact_ln != 0:
                    assert abs(sum_ln - exact_ln) / abs(exact_ln) < 1e-12
                else:
                    assert abs(sum_ln) < 1e-15


class TestLogProb:
    def test_log10_is_exact_division(self):
        lp = LogProb(-100.0)
        assert lp.log10 == -100.0 / math.log(10.0)

    def test_rejects_positive(self):
        with pytest.raises(DomainError):
            LogProb(0.5)

    def test_clamps_rounding_noise(self):
        assert LogProb(1e-15).ln_value == 0.0


class TestDampingBound:
    def test_value_at_1e4(self):
        assert -51.5 <= log_f(10_000).log10 <= -51.0

    def test_value_at_4e4(self):
        assert -155.0 <= log_f(40_000).log10 <= -154.0

    def test_linear_in_coefficient(self):
        assert log_f(10_000, 3.0).ln_value == pytest.approx(3 * log_f(10_000).ln_value)

    def test_strictly_decreasing(self):
        values = [log_f(n).ln_value for n in range(8, 4000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_f(2)
        with pytest.raises(DomainError):
            log_f(100, 0.5)


class TestUpperBound:
    def test_symbolic_identity_at_ln2(self):
        # with ln n pinned to 2 the expression collapses to (n/2) ln(1/2)
        for n in (7.0, 7.389056, 8.0):
            assert _upper_bound_ln(n, 2.0) == pytest.approx((n / 2) * math.log(0.5))

    def test_value_at_1e4(self):
        # direct evaluation: (1e4/ln 1e4) * ln(1 - 1/ln 1e4) = -124.777 in ln
        assert upper_bound_prob(10_000).log10 == pytest.approx(-54.194, abs=0.01)

    def test_sharper_than_damping_bound(self):
        # 1 - x <= exp(-x), so this bound sits at or below f(n) everywhere
        for n in (10**3, 10**4, 10**5, 10**6):
            assert upper_bound_prob(n).ln_value <= log_f(n, 1.0).ln_value + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_bound_prob(2)


class TestCoefficient:
    def test_paper_values(self):
        assert coefficient_c(2) == 2.0
        assert coefficient_c(3) == 3.0
        assert coefficient_c(5) == 3.75
        assert coefficient_c_fraction(5) == Fraction(15, 4)

    def test_nondecreasing_and_divergent(self):
        values = [coefficient_c(p) for p in range(2, 120)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        oracle = Fraction(1)
        for p in trial_division_primes(100):
            oracle *= Fraction(p, p - 1)
        assert coefficient_c_fraction(100) == oracle
        assert coefficient_c(100) > 3.9

    def test_domain(self):
        with pytest.raises(DomainError):
            coefficient_c(1)


class TestResidueFilter:
    def test_parity_domain(self):
        assert model_row(12, p_max=2).domain_size == 6
        assert model_row(13, p_max=2).domain_size == 7

    def test_mod3_domain(self):
        assert model_row(12, p_max=3).domain_size == 4
        assert model_row(14, p_max=3).domain_size == 4

    def test_k_from_n(self):
        row = model_row(10_000, p_max=2)
        assert row.k == round(10_000 / math.log(10_000)) == 1086
        assert row.damping_c == 2.0
        assert model_row(10_000).domain_size == 10_000
        assert model_row(10_000).damping_c == 1.0

    def test_filtered_probability_never_larger(self):
        for n in (200, 1000, 5000, 20_000):
            unfiltered = model_row(n).ln_p_exact
            for p_max in (2, 3):
                assert model_row(n, p_max=p_max).ln_p_exact <= unfiltered

    def test_unsupported_pmax(self):
        with pytest.raises(DomainError, match="p_max"):
            model_row(100, p_max=5)

    def test_k_above_domain_is_inapplicable(self):
        # NaN means inapplicable; -inf is an exact zero, as at n = 18 where k == domain
        rows = [model_row(n, p_max=3) for n in range(6, 25, 2)]
        assert [r.n for r in rows if math.isnan(r.ln_p_exact)] == [6, 8, 10, 12, 14, 16, 20]
        assert all(math.isnan(r.ln_p_exact) == (r.k > r.domain_size) for r in rows)
        assert model_row(18, p_max=3).ln_p_exact == -math.inf
        with pytest.raises(DomainError):
            exact_disjoint_prob(2, 3, 3)


class TestTailIntegral:
    def test_paper_value_20000(self):
        assert abs(tail_integral(20_000).log10 - (-86)) <= 1.0

    def test_paper_value_50000(self):
        assert abs(tail_integral(50_000).log10 - (-183)) <= 1.0

    def test_strictly_decreasing(self):
        previous = tail_integral(10_000).ln_value
        for n in range(11_000, 30_001, 1000):
            current = tail_integral(n).ln_value
            assert current < previous
            previous = current

    def test_correction_factor_sane(self):
        # tail exceeds f(N) only by the effective decay length, a few
        # orders of magnitude on this range
        for n in (10_000, 20_000, 50_000, 100_000):
            gap = tail_integral(n).log10 - log_f(n).log10
            assert 0.0 < gap < 4.0

    def test_coefficient_speeds_decay(self):
        assert tail_integral(20_000, 3.0).ln_value < tail_integral(20_000, 1.0).ln_value

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_integral(99)


class TestMonteCarlo:
    def test_matches_tiny_exact(self):
        result = monte_carlo_disjoint(4, 1, 1, 100_000, seed=7)
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(result.frequency - 0.75) <= 3 * sigma

    def test_empty_subset_always_disjoint(self):
        assert monte_carlo_disjoint(10, 0, 4, 5000, seed=1).frequency == 1.0
        assert monte_carlo_disjoint(10, 4, 0, 5000, seed=1).frequency == 1.0

    def test_m30_case(self):
        exact = math.exp(exact_disjoint_prob(30, 5, 5).ln_value)
        result = monte_carlo_disjoint(30, 5, 5, 100_000, seed=42)
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(result.frequency - exact) <= 3 * sigma

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        a = monte_carlo_disjoint(20, 4, 6, 20_000, seed=9)
        assert monte_carlo_disjoint(20, 4, 6, 20_000, seed=9) == a
        # one trial per chunk, then 7 per chunk, which does not divide 20,000
        for slots in (1, 7 * 20):
            monkeypatch.setattr(probmodel, "MC_CHUNK_SLOTS", slots)
            probmodel._mc_at_least.cache_clear()  # recompute at this chunk size
            assert monte_carlo_disjoint(20, 4, 6, 20_000, seed=9) == a

    @pytest.mark.parametrize("m,k1,k2", [(4, 2, 3), (10, 10, 1), (10, 3, 8), (7, 7, 7), (50, 10, 41)])
    def test_no_room_for_b_is_never_disjoint(self, m, k1, k2):
        assert monte_carlo_disjoint(m, k1, k2, 2000, seed=5).frequency == 0.0

    @pytest.mark.parametrize("m,k1,k2", [(30, 10, 3), (30, 3, 10), (50, 7, 2), (50, 2, 7)])
    def test_both_orientations_match_exact(self, m, k1, k2):
        # A is fixed and B is drawn, so k1 and k2 play different roles
        trials = 100_000
        exact = math.exp(exact_disjoint_prob(m, k1, k2).ln_value)
        result = monte_carlo_disjoint(m, k1, k2, trials, seed=11)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(result.frequency - exact) <= 4 * sigma

    @pytest.mark.parametrize("m,k1", [(20, 4), (50, 10), (4, 3)])
    def test_shared_pass_matches_fresh_passes(self, m, k1):
        probmodel._mc_at_least.cache_clear()
        shared = [monte_carlo_disjoint(m, k1, k2, 3000, seed=17) for k2 in range(m - k1 + 2)]
        assert probmodel._mc_at_least.cache_info().misses == 1
        for k2, result in enumerate(shared):
            probmodel._mc_at_least.cache_clear()
            assert monte_carlo_disjoint(m, k1, k2, 3000, seed=17) == result

    def test_trials_and_seed_key_the_cache(self):
        probmodel._mc_at_least.cache_clear()
        base = monte_carlo_disjoint(20, 4, 3, 3000, seed=17)
        assert monte_carlo_disjoint(20, 4, 3, 3001, seed=17).frequency != base.frequency
        assert monte_carlo_disjoint(20, 4, 3, 3000, seed=18).frequency != base.frequency
        assert probmodel._mc_at_least.cache_info().misses == 3

    def test_cached_counts_are_read_only(self):
        monte_carlo_disjoint(20, 4, 3, 3000, seed=17)
        at_least = probmodel._mc_at_least(20, 4, 3000, 17)
        with pytest.raises(ValueError):
            at_least[3] = 0

    def test_refused_call_leaves_no_entry(self):
        probmodel._mc_at_least.cache_clear()
        with pytest.raises(DomainError):
            monte_carlo_disjoint(5, 6, 1, 10, seed=0)
        assert probmodel._mc_at_least.cache_info().currsize == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            monte_carlo_disjoint(5, 6, 1, 10, seed=0)
        with pytest.raises(DomainError):
            monte_carlo_disjoint(5, 1, 1, 0, seed=0)


class TestModelRows:
    def test_columns_populate(self):
        row = model_row(10_000, p_max=3)
        assert row.domain_size == 3333
        assert row.damping_c == 3.0
        assert row.log10_f == pytest.approx(3 * log_f(10_000).log10)
        assert row.log10_tail is not None

    def test_tail_needs_n_100(self):
        assert model_row(50).log10_tail is None

    def test_table_monotone_log10_f(self):
        rows = model_table(range(1000, 100_001, 1000))
        values = [r.log10_f for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_params_validation(self):
        for n, p_max in ((10, None), (10_000, 3)):
            with pytest.raises(DomainError, match="damping"):
                model_row(n, p_max=p_max, damping_c=0.5)

    def test_zero_damping_rejected_not_defaulted(self):
        for p_max in (None, 3):
            with pytest.raises(DomainError, match="damping"):
                model_row(10_000, p_max=p_max, damping_c=0.0)
