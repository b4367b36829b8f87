"""Binomial duel core: exact triples and bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from conftest import (
    binomial_pmf,
    binomial_pmf_vector,
    oracle_duel,
    oracle_pmf,
    swapped,
)
from fetsim.duel import (
    BERRY_ESSEEN_C,
    DuelProbs,
    _binomial_pmf_rows,
    duels,
    exact_duel,
    hoeffding_duel_bound,
    normal_cdf,
    underdog_lower_bound,
)
from fetsim import duel
from fetsim.errors import DomainError, StructuralError

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBinomialPmf:
    def test_degenerate_coin(self):
        assert binomial_pmf(1, 0.0, 0) == 1.0
        assert binomial_pmf(1, 0.0, 1) == 0.0
        assert binomial_pmf(3, 1.0, 3) == 1.0

    def test_symmetric_binomial(self):
        assert binomial_pmf(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)

    def test_matches_product_formula(self):
        assert binomial_pmf(10, 0.3, 3) == pytest.approx(
            oracle_pmf(10, 0.3, 3), abs=1e-15
        )

    @pytest.mark.parametrize("k", [1, 7, 64, 500])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5, 0.97, 1.0])
    def test_sums_to_one(self, k, p):
        assert abs(binomial_pmf_vector(k, p).sum() - 1.0) < 1e-12

    def test_rows_match_scalar_pmf_bitwise(self):
        # The library's batched pmf and the scalar oracle evaluate the
        # same formula in the same order, but the oracle takes scipy's
        # gammaln where the library takes its Cephes port, so this also
        # checks the port: equal to the last bit, point-mass rows
        # included.
        rng = np.random.default_rng(7)
        for k in [1, 2, 3, 8, 17, 64, 500, 4095, 8191]:
            p = np.concatenate([[0.0, 1.0, 0.5, 1 / k], rng.random(40)])
            rows = _binomial_pmf_rows(k, p)
            for r, value in enumerate(p):
                assert np.array_equal(rows[r], binomial_pmf_vector(k, float(value)))

    def test_log_factorials_match_gammaln_bitwise(self):
        # The port of Cephes lgam equals scipy's gammaln at every
        # integer, across the product/series switch at 13 and the
        # series' change of tail at 1000.
        m = np.arange(20_001)
        table = duel._log_factorials(m.size)
        assert np.array_equal(table, gammaln(m + 1))
        assert not table.flags.writeable

    @pytest.mark.parametrize("m", [11, 12, 13, 998, 999, 1000])
    def test_log_factorials_branch_edges(self, m):
        # Tables that end at each edge, so the edge is also the last entry.
        assert np.array_equal(duel._log_factorials(m + 1), gammaln(np.arange(m + 1) + 1))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_pmf(5, 0.5, 6)
        with pytest.raises(DomainError):
            binomial_pmf(5, 0.5, -1)
        with pytest.raises(DomainError):
            binomial_pmf(5, 1.5, 2)


class TestExactDuel:
    def test_deterministic_coins(self):
        d = exact_duel(1, 0.0, 1.0)
        assert (d.p_lt, d.p_eq, d.p_gt) == (1.0, 0.0, 0.0)

    def test_enumerated_symmetric_case(self):
        d = exact_duel(2, 0.5, 0.5)
        assert d.p_eq == pytest.approx(0.375, abs=1e-15)
        assert d.p_lt == pytest.approx(0.3125, abs=1e-15)
        assert d.p_gt == pytest.approx(0.3125, abs=1e-15)

    def test_monte_carlo_oracle(self):
        # 10^6 paired draws at (k=5, p=0.4, q=0.6), 3 standard errors.
        rng = np.random.default_rng(20240817)
        trials = 1_000_000
        a = rng.binomial(5, 0.4, size=trials)
        b = rng.binomial(5, 0.6, size=trials)
        d = exact_duel(5, 0.4, 0.6)
        for emp, exact in [
            ((a < b).mean(), d.p_lt),
            ((a == b).mean(), d.p_eq),
            ((a > b).mean(), d.p_gt),
        ]:
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(emp - exact) <= 3 * se

    def test_matches_brute_force_small_grid(self, prob_grid):
        for k in (1, 2, 5, 16):
            for p in prob_grid[::4]:
                for q in prob_grid[::4]:
                    d = exact_duel(k, p, q)
                    lt, eq, gt = oracle_duel(k, p, q)
                    assert d.p_lt == pytest.approx(lt, abs=1e-13)
                    assert d.p_eq == pytest.approx(eq, abs=1e-13)
                    assert d.p_gt == pytest.approx(gt, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 200), p=probs, q=probs)
    def test_triple_sums_to_one(self, k, p, q):
        d = exact_duel(k, p, q)
        assert abs(d.p_lt + d.p_eq + d.p_gt - 1.0) < 1e-12
        assert 0.0 <= d.p_lt <= 1.0 and 0.0 <= d.p_eq <= 1.0 and 0.0 <= d.p_gt <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 200), p=probs, q=probs)
    def test_swap_symmetry(self, k, p, q):
        d = exact_duel(k, p, q)
        s = exact_duel(k, q, p)
        assert d.p_lt == pytest.approx(s.p_gt, abs=1e-12)
        assert d.p_eq == pytest.approx(s.p_eq, abs=1e-12)
        assert swapped(s).p_lt == s.p_gt

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            exact_duel(0, 0.5, 0.5)
        with pytest.raises(DomainError):
            exact_duel(4, -0.1, 0.5)


class TestDuels:
    def test_matches_scalar_duel(self, count_vectors):
        # A (N, 1) by (1, M) grid of count fractions holds exact_duel's
        # p_lt and p_eq bits at every entry.
        for n, ell, a, b in count_vectors:
            p_lt, p_eq = duels(ell, a[:, None] / n, b / n)
            assert p_lt.shape == p_eq.shape == (len(a), len(b))
            for i, ka in enumerate(a):
                for j, kb in enumerate(b):
                    d = exact_duel(ell, ka / n, kb / n)
                    assert (p_lt[i, j], p_eq[i, j]) == (d.p_lt, d.p_eq)

    # ell = 14, 15, 16 give 15, 16, 17 terms: BLAS ddot changes its
    # summation order at 16.
    @pytest.mark.parametrize("ell", [4, 14, 15, 16, 25, 64])
    def test_pair_bits_do_not_depend_on_the_batch(self, ell):
        # Each pair gives the same bits alone, in a shuffled 1-D batch
        # and in a grid, and those are exact_duel's p_lt and p_eq.
        rng = np.random.default_rng(ell)
        p = np.concatenate([[0.0, 1.0, 0.5], rng.random(12), rng.integers(0, 97, 5) / 96])
        q = np.concatenate([[1.0, 0.0, 0.5], rng.random(12), rng.integers(0, 97, 5) / 96])
        grid_lt, grid_eq = duels(ell, p[:, None], q)
        order = rng.permutation(p.size)
        batch_lt, batch_eq = duels(ell, p[order], q[order])
        for pos, i in enumerate(order):
            alone = duels(ell, p[i], q[i])
            d = exact_duel(ell, p[i], q[i])
            for value in (alone[0], batch_lt[pos], grid_lt[i, i]):
                assert value.tobytes() == np.float64(d.p_lt).tobytes()
            for value in (alone[1], batch_eq[pos], grid_eq[i, i]):
                assert value.tobytes() == np.float64(d.p_eq).tobytes()
        for i, j in [(0, 5), (7, 2), (19, 11)]:
            d = exact_duel(ell, p[i], q[j])
            assert (grid_lt[i, j], grid_eq[i, j]) == (d.p_lt, d.p_eq)
        # exact_duel's p_gt is the p_lt of the swapped pair.
        swapped_lt, _ = duels(ell, q, p)
        for i in range(p.size):
            assert exact_duel(ell, p[i], q[i]).p_gt == swapped_lt[i]

    def test_one_pmf_row_per_distinct_probability(self, monkeypatch):
        rows = duel._binomial_pmf_rows
        calls = []
        monkeypatch.setattr(duel, "_binomial_pmf_rows", lambda k, p: calls.append(p) or rows(k, p))
        duels(4, np.array([[0.25], [0.5], [0.25]]), [0.5, 0.75, 0.25, 0.5])
        assert len(calls) == 1 and calls[0].tolist() == [0.25, 0.5, 0.75]

    def test_empty_vector_gives_empty_table(self):
        for arr in duels(4, np.empty((0, 1)), [0.0, 0.375, 1.0]):
            assert arr.shape == (0, 3)

    def test_rejects_bad_arguments(self):
        # Bad ell; p above 1, q below 0, NaN on either side (np.unique
        # sorts NaN last, behind 1.0).
        for ell, p, q in [
            (0, 0.5, 0.5),
            (4, [0.0, 1.125], 0.5),
            (4, 0.5, [-0.125, 1.0]),
            (4, 0.5, [1.0, np.nan]),
            (4, np.nan, 0.5),
        ]:
            with pytest.raises(DomainError):
                duels(ell, p, q)

    def test_pmf_rows_not_summing_to_one_are_structural_errors(self, monkeypatch):
        rows = duel._binomial_pmf_rows
        monkeypatch.setattr(duel, "_binomial_pmf_rows", lambda k, p: 0.5 * rows(k, p))
        with pytest.raises(StructuralError):
            duels(4, [0.125, 0.25], [0.375, 0.5])


class TestHoeffdingBound:
    def test_paper_value_large_gap(self):
        # k=100, gap 0.6: 1 - exp(-18)
        assert hoeffding_duel_bound(100, 0.2, 0.8) == pytest.approx(
            1.0 - math.exp(-18.0), abs=1e-12
        )

    def test_dominated_by_exact_value(self):
        assert hoeffding_duel_bound(1, 0.0, 1.0) == pytest.approx(
            1.0 - math.exp(-0.5), abs=1e-12
        )
        assert exact_duel(1, 0.0, 1.0).p_lt >= hoeffding_duel_bound(1, 0.0, 1.0)

    def test_never_exceeds_exact_probability(self):
        d = exact_duel(50, 0.45, 0.55)
        assert d.p_lt >= hoeffding_duel_bound(50, 0.45, 0.55)

    def test_requires_p_below_q(self):
        with pytest.raises(DomainError):
            hoeffding_duel_bound(10, 0.6, 0.4)
        with pytest.raises(DomainError):
            hoeffding_duel_bound(10, 0.5, 0.5)


class TestUnderdogBound:
    def test_near_tie_value(self):
        # k=100, q barely above p=0.5: ~0.5 - C/(sigma*10)
        sigma = math.sqrt(0.5)
        expected = 0.5 - BERRY_ESSEEN_C / (sigma * 10.0)
        got = underdog_lower_bound(100, 0.5, 0.5 + 1e-9)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(0.4329, abs=5e-4)

    def test_saturates_to_zero_for_large_k(self):
        assert underdog_lower_bound(100_000, 0.3, 0.6) == 0.0

    def test_never_exceeds_exact_probability(self):
        d = exact_duel(30, 0.45, 0.5)
        assert d.p_gt >= underdog_lower_bound(30, 0.45, 0.5)

    def test_degenerate_sigma_is_vacuous(self):
        assert underdog_lower_bound(10, 0.0, 1.0) == 0.0

    def test_small_k_violations_recorded_as_finding(self, prob_grid):
        # Below k ~ 30 the Berry-Esseen term can make the bound
        # unreliable; violations there are a recorded finding, not a
        # failure (run with -s to see the tally).
        violations = []
        for k in range(1, 30):
            for p in prob_grid:
                for q in prob_grid:
                    if p < q:
                        d = exact_duel(k, p, q)
                        if d.p_gt < underdog_lower_bound(k, p, q) - 1e-12:
                            violations.append((k, p, q))
        print(f"FINDING: underdog bound violations for k < 30: {len(violations)}")
        if violations:
            print(f"  first offenders: {violations[:5]}")

    def test_requires_p_below_q(self):
        with pytest.raises(DomainError):
            underdog_lower_bound(10, 0.5, 0.5)

    def test_normal_cdf_reference_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-10)
        assert normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-9)


class TestNearTieBounds:
    """Sharp near-tie behaviour of the win probability."""

    def test_upper_bound_alpha_nine(self, prob_grid):
        # P(B_k(p) < B_k(q)) < 1/2 + 9 (q-p) sqrt(k) - P(=)/2
        # for p, q in [1/3, 2/3], q - p <= 1/sqrt(k).
        for k in (4, 9, 25, 49, 64):
            for p in prob_grid:
                for q in prob_grid:
                    if not (1 / 3 <= p < q <= 2 / 3 and q - p <= 1 / math.sqrt(k)):
                        continue
                    d = exact_duel(k, p, q)
                    assert d.p_lt < 0.5 + 9.0 * (q - p) * math.sqrt(k) - d.p_eq / 2

    # Calibrated fixture for the lambda = 6 linear growth property:
    # within eps of 1/2 and k >= KMIN the win margin grows at least
    # linearly with slope 6 (worst grid ratio at calibration: 7.14).
    LAMBDA = 6.0
    EPS = 0.02
    KMIN = 196

    @pytest.mark.parametrize("k", [196, 392, 784])
    def test_linear_growth_lambda_six(self, k):
        assert k >= self.KMIN
        steps = np.arange(-8, 9)
        for ip in steps:
            for iq in steps:
                if iq <= ip:
                    continue
                p = 0.5 + 0.0025 * ip
                q = 0.5 + 0.0025 * iq
                assert abs(p - 0.5) <= self.EPS + 1e-12
                assert abs(q - 0.5) <= self.EPS + 1e-12
                d = exact_duel(k, p, q)
                assert d.p_lt - 0.5 + d.p_eq / 2 > self.LAMBDA * (q - p)


def test_duel_probs_validates():
    with pytest.raises(DomainError):
        DuelProbs(0.7, 0.7, 0.7)
    with pytest.raises(DomainError):
        DuelProbs(-0.2, 0.6, 0.6)
