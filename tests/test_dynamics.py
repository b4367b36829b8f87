"""Expectation map g, flip probabilities, fixed point f."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetsim.domains import lambda_n
from fetsim.duel import exact_duel
from fetsim.dynamics import (
    FlipProbs,
    cyan_constants,
    expected_next_fraction,
    fixed_point_f,
    flip_probs,
)
from fetsim.errors import DomainError

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestFlipProbs:
    def test_deterministic_samples(self):
        fp = flip_probs(0.0, 1.0, 7)
        assert fp.p_gain_one == 1.0
        assert fp.p_keep_one == 1.0

    def test_symmetric_small_case(self):
        fp = flip_probs(0.5, 0.5, 2)
        assert fp.p_gain_one == pytest.approx(0.3125, abs=1e-15)
        assert fp.p_keep_one == pytest.approx(0.6875, abs=1e-15)

    def test_upward_trend_gains(self):
        assert flip_probs(0.4, 0.6, 20).p_gain_one > 0.5

    def test_flip_probs_validation(self):
        with pytest.raises(DomainError):
            FlipProbs(p_keep_one=0.2, p_gain_one=0.5)

    @settings(max_examples=150, deadline=None)
    @given(x=fractions, y=fractions, ell=st.integers(1, 100))
    def test_keep_minus_gain_is_tie_probability(self, x, y, ell):
        fp = flip_probs(x, y, ell)
        duel = exact_duel(ell, x, y)
        assert fp.p_keep_one - fp.p_gain_one == pytest.approx(duel.p_eq, abs=1e-12)
        assert 0.0 <= fp.p_gain_one <= fp.p_keep_one <= 1.0


class TestExpectedNextFraction:
    def test_all_zero_samples(self):
        # Literal evaluation: P(>) = 0, P(>=) = 1, so g = 0; the +1/n
        # source correction enters only through the simulation backend.
        assert expected_next_fraction(0.0, 0.0, 50, 4) == 0.0

    def test_centre_small_case(self):
        assert expected_next_fraction(0.5, 0.5, 100, 2) == pytest.approx(
            0.503125, abs=1e-15
        )

    def test_green_area_sanity(self):
        assert expected_next_fraction(0.3, 0.45, 10_000, 60) > 0.9

    @settings(max_examples=150, deadline=None)
    @given(x=fractions, y=fractions)
    def test_tight_sandwich(self, x, y):
        # g is within 1/n of P(>) + y P(=) on both sides.
        n, ell = 128, 8
        duel = exact_duel(ell, x, y)
        core = duel.p_lt + y * duel.p_eq
        g = expected_next_fraction(x, y, n, ell)
        assert core - 1.0 / n < g + 1e-12
        assert g < core + 1.0 / n + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(x=fractions, y=fractions)
    def test_loose_sandwich_gain_keep(self, x, y):
        # p_gain - 1/n <= g <= p_keep + 1/n.
        n, ell = 128, 8
        fp = flip_probs(x, y, ell)
        g = expected_next_fraction(x, y, n, ell)
        assert fp.p_gain_one - 1.0 / n <= g + 1e-12
        assert g <= fp.p_keep_one + 1.0 / n + 1e-12


class TestExpectedNextFractionBroadcast:
    def test_matches_scalar_map(self, count_vectors):
        # (N, 1) against (1, M) fractions give the (N, M) grid, each entry
        # the scalar map's bits.
        for n, ell, k_t, k_t1 in count_vectors:
            grid = expected_next_fraction(k_t[:, None] / n, k_t1 / n, n, ell)
            assert grid.shape == (len(k_t), len(k_t1))
            for i, a in enumerate(k_t):
                for j, b in enumerate(k_t1):
                    assert grid[i, j] == expected_next_fraction(a / n, b / n, n, ell)

    def test_population_size_checked(self):
        with pytest.raises(DomainError):
            expected_next_fraction(np.array([[0.0], [1.0]]), np.array([1.0]), 1, 1)


class TestFixedPoint:
    N = 4096
    DELTA = 0.05

    def test_map_starts_below_diagonal(self):
        # g(x, x) < x at the left edge of the domain.
        x = 0.5 + 4.0 / self.N
        for ell in (64, 256):
            assert expected_next_fraction(x, x, self.N, ell) < x

    def test_range_forced_by_definition(self):
        n = 100
        x = 0.5 + 4.0 / n
        f = fixed_point_f(x, 25, n, delta=0.05)
        assert x <= f <= x + 0.2

    def test_fixed_point_property(self):
        for ell in (64, 256):
            for x in np.linspace(0.5 + 4.0 / self.N, 0.5 + 4 * self.DELTA, 9):
                f = fixed_point_f(float(x), ell, self.N, self.DELTA)
                g = expected_next_fraction(float(x), f, self.N, ell)
                assert g <= f + 1e-10
                assert x <= f <= x + 1.0 / math.sqrt(ell) + 1e-12

    def test_lower_bound_on_departure(self):
        # f(x) - x > (x - 1/2) / (4 alpha sqrt(ell)) with alpha = 9;
        # the stronger 2-alpha variant is logged, not asserted.
        alpha = 9.0
        stronger_held = True
        for ell in (64, 256):
            for x in np.linspace(0.5 + 4.0 / self.N, 0.5 + 4 * self.DELTA, 9):
                f = fixed_point_f(float(x), ell, self.N, self.DELTA)
                departure = f - x
                assert departure > (x - 0.5) / (4 * alpha * math.sqrt(ell))
                stronger_held &= departure > (x - 0.5) / (2 * alpha * math.sqrt(ell))
        print(f"stronger 2-alpha departure bound held: {stronger_held}")

    def test_growth_inequality(self):
        # (f(x) - 1/2) > (1 + 1/(4 alpha sqrt(ell))) (x - 1/2).
        alpha = 9.0
        for ell in (64, 256):
            factor = 1.0 + 1.0 / (4 * alpha * math.sqrt(ell))
            for x in np.linspace(0.5 + 4.0 / self.N, 0.5 + 4 * self.DELTA, 9):
                f = fixed_point_f(float(x), ell, self.N, self.DELTA)
                assert (f - 0.5) > factor * (x - 0.5)

    def test_monotone_defect_map(self):
        # y -> g(x, y) - y strictly increasing on [x, x + 1/sqrt(ell)]
        # (spot check; the full grid runs in the acceptance suite).
        n = 4096
        for ell in (64, 256):
            for x in (0.34, 0.5, 0.66):
                ys = np.arange(x, x + 1.0 / math.sqrt(ell), 1e-3)
                h = np.array(
                    [expected_next_fraction(x, float(y), n, ell) - y for y in ys]
                )
                assert np.all(np.diff(h) > 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fixed_point_f(0.49, 64, self.N, self.DELTA)
        with pytest.raises(DomainError):
            fixed_point_f(0.5 + 4 * self.DELTA + 0.01, 64, self.N, self.DELTA)


class TestLambdaAndCyanConstants:
    """The analysis constants: the partition's lambda_n and Cyan's gamma and K."""

    def test_derived_values(self):
        log_n = math.log(4096)
        assert lambda_n(4096, 0.05) == pytest.approx(1.0 / log_n**0.55, abs=1e-12)
        gamma, K = cyan_constants(4096, 25)
        c_eff = 25 / log_n  # 3.0056
        assert gamma == pytest.approx((1 - 1 / math.e) * math.exp(-2.0 * c_eff) / 2, abs=1e-15)
        assert K == pytest.approx(c_eff * math.exp(-2.0 * c_eff) / 2, abs=1e-15)

    def test_explicit_ell_defines_effective_c(self):
        c = 1664 / math.log(4096)
        gamma, K = cyan_constants(4096, 1664)
        assert gamma == pytest.approx((1 - 1 / math.e) * math.exp(-2.0 * c) / 2, rel=1e-12)
        assert K == pytest.approx(c * math.exp(-2.0 * c) / 2, rel=1e-12)

    def test_vanishing_cyan_constants(self):
        # At c = 4000 / ln 4096 = 481, e^{-2c} underflows to 0.
        with pytest.raises(DomainError, match="gamma and K must be positive"):
            cyan_constants(4096, 4000)

    def test_validation(self):
        with pytest.raises(DomainError, match=r"delta must be in \(0, 1/2\), got 0.6"):
            lambda_n(4096, 0.6)
        with pytest.raises(DomainError, match="n must be >= 3 .* ln n > 1, got n = 1"):
            lambda_n(1, 0.05)
