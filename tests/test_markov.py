"""Exact pair-state kernel, absorption times, and backend cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    next_count_distribution,
    oracle_kernel,
    plant_pair_population,
    reference_absorption_times,
    reference_kernel,
)
from scipy import sparse
from scipy.sparse.linalg import spsolve

from fetsim.dynamics import expected_next_fraction
from fetsim.errors import StructuralError, UsageError
from fetsim.markov import (
    Kernel,
    absorption_times,
    build_kernel,
    expected_consensus_time_all_wrong,
    simulate_exact_check,
)
from fetsim.protocol import derive_rng


class TestBuildKernel:
    def test_absorbing_row_is_point_mass(self):
        k = build_kernel(16, 4)
        dist = next_count_distribution(k, 16, 16)
        assert dist[-1] == pytest.approx(1.0, abs=1e-12)
        assert dist[:-1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_hand_enumerated_two_agent_kernel(self):
        # n=2, ell=1. Duels: at (1/2,1/2) the triple is (1/4,1/2,1/4);
        # at (1,1/2) the fresh sample can never exceed the stored one.
        # Hand enumeration gives:
        #   (1,1) -> stays (1,1) w.p. 3/4, -> (1,2) w.p. 1/4
        #   (1,2) -> (2,2) surely
        #   (2,1) -> (1,1) surely
        #   (2,2) absorbing
        k = build_kernel(2, 1)
        assert next_count_distribution(k, 1, 1) == pytest.approx([0.75, 0.25])
        assert next_count_distribution(k, 1, 2) == pytest.approx([0.0, 1.0])
        assert next_count_distribution(k, 2, 1) == pytest.approx([1.0, 0.0])
        assert next_count_distribution(k, 2, 2) == pytest.approx([0.0, 1.0])

    def test_row_sums(self):
        k = build_kernel(64, 8)
        sums = np.asarray(k.matrix.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-10

    def test_row_means_equal_expectation_map(self):
        n, ell = 32, 6
        k = build_kernel(n, ell)
        counts = np.arange(1, n + 1)
        for a, b in [(1, 1), (5, 9), (16, 16), (30, 2), (32, 31), (0, 4)]:
            dist = next_count_distribution(k, a, b)
            mean = float(dist @ counts)
            g = expected_next_fraction(a / n, b / n, n, ell)
            assert mean == pytest.approx(n * g, abs=1e-9)

    def test_pruned_mass_tracked_and_tiny(self):
        k = build_kernel(32, 6)
        assert 0.0 <= k.pruned_mass < 1e-9

    def test_size_cap(self):
        with pytest.raises(UsageError):
            build_kernel(512, 8)

    @pytest.mark.parametrize("n, ell", [(2, 1), (16, 4), (64, 8), (96, 14)])
    def test_matches_row_loop_oracle(self, n, ell):
        matrix, pruned = oracle_kernel(n, ell)
        k = build_kernel(n, ell)
        assert k.matrix.shape == matrix.shape
        # Sparse difference: an entry pruned on one side reads as 0.
        assert abs(k.matrix - matrix).max() <= 1e-14
        assert k.pruned_mass == pytest.approx(pruned, abs=1e-14)

    @pytest.mark.parametrize(
        "n, ell", [(2, 1), (2, 2), (3, 3), (16, 4), (17, 9), (64, 13), (96, 14), (64, 64)]
    )
    def test_bit_identical_to_row_major_reference(self, n, ell):
        # Odd and even n, equal-width operands (n odd, k_t1 = (n+1)/2)
        # and ell = n; the successor-major sums add the same products in
        # the same order, and the direct CSR keeps each row's order.
        matrix, pruned = reference_kernel(n, ell)
        k = build_kernel(n, ell)
        assert k.absorbing_index == k.num_states - 1
        assert np.array_equal(k.matrix.data, matrix.data)
        assert np.array_equal(k.matrix.indices, matrix.indices)
        assert np.array_equal(k.matrix.indptr, matrix.indptr)
        assert k.pruned_mass == pruned
        h = absorption_times(k)
        assert h.tobytes() == reference_absorption_times(matrix, k.absorbing_index).tobytes()

    def test_peak_memory_bounded_by_kept_entries(self):
        # Each k_t1 block is pruned as it is built: 19.9 MB measured at
        # (128, 15) with 579,301 kept entries (26.3 MB with a COO copy
        # of them); holding the dense (n+1) x n x n block (16.9 MB) on
        # top, as a whole-kernel prune does, measured 49.9 MB.
        tracemalloc.start()
        try:
            k = build_kernel(128, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k.matrix.nnz == 579_301
        assert peak < 32e6


class TestAbsorptionTimes:
    def test_two_agent_hand_values(self):
        # First-step analysis on the hand kernel: h(1,2)=1, h(2,1)=1+h(1,1),
        # h(1,1)=1+0.75*h(1,1)+0.25*1 so h(1,1)=5, h(2,1)=6.
        k = build_kernel(2, 1)
        h = absorption_times(k)
        assert h[k.state_index(2, 2)] == 0.0
        assert h[k.state_index(1, 2)] == pytest.approx(1.0, abs=1e-9)
        assert h[k.state_index(1, 1)] == pytest.approx(5.0, abs=1e-9)
        assert h[k.state_index(2, 1)] == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("n, ell", [(16, 4), (32, 6), (64, 8)])
    def test_matches_direct_solve(self, n, ell):
        k = build_kernel(n, ell)
        h = absorption_times(k)
        transient = np.arange(k.num_states) != k.absorbing_index
        q = k.matrix[transient][:, transient]
        direct = spsolve(sparse.identity(q.shape[0], format="csc") - q, np.ones(q.shape[0]))
        np.testing.assert_allclose(h[transient], direct, rtol=1e-10, atol=0.0)

    def test_ill_conditioned_chain_fails_residual_gate(self):
        # ell = 1 gives hitting times of 1e8 and more; the solve cannot
        # meet the 1e-10 residual there, and must say so.
        with pytest.raises(StructuralError, match="residual"):
            absorption_times(build_kernel(64, 1))

    def test_zero_from_consensus(self):
        k = build_kernel(16, 4)
        h = absorption_times(k)
        assert h[k.state_index(16, 16)] == 0.0

    def test_all_times_finite_and_positive(self):
        k = build_kernel(32, 6)
        h = absorption_times(k)
        assert np.isfinite(h).all()
        mask = np.ones_like(h, dtype=bool)
        mask[k.absorbing_index] = False
        assert (h[mask] > 0).all()

    def test_monotone_sanity_near_consensus(self):
        n = 32
        k = build_kernel(n, 6)
        h = absorption_times(k)
        assert h[k.state_index(n - 1, n)] == pytest.approx(1.0, abs=1e-9)
        assert h[k.state_index(n - 1, n)] < h[k.state_index(1, 1)]

    def test_unique_absorbing_state(self):
        k = build_kernel(16, 4)
        diag = k.matrix.diagonal()
        ones = np.nonzero(diag >= 1.0 - 1e-12)[0]
        assert list(ones) == [k.absorbing_index]

    def test_corrupted_row_detected_and_located(self):
        k = build_kernel(8, 2)
        bad = k.matrix.tolil()
        row = k.state_index(3, 4)
        bad[row, :] *= 0.5
        corrupted = Kernel(n=8, ell=2, matrix=bad.tocsr(), pruned_mass=k.pruned_mass)
        with pytest.raises(StructuralError) as err:
            absorption_times(corrupted)
        assert "(3, 4)" in str(err.value) or "PairState(k_t=3, k_t1=4)" in str(err.value)

    def test_unreachable_state_detected(self):
        # Redirect the corner row onto a 2-cycle that cannot reach (n,n).
        n = 8
        k = build_kernel(n, 2)
        bad = k.matrix.tolil()
        trap_a = k.state_index(1, 1)
        trap_b = k.state_index(1, 2)
        bad[trap_a, :] = 0.0
        bad[trap_a, k.state_index(1, 2)] = 1.0
        bad[trap_b, :] = 0.0
        bad[trap_b, k.state_index(2, 1)] = 0.0
        bad[trap_b, k.state_index(1, 1)] = 1.0
        # the (2,1) row also needs to avoid pointing back into the trap
        corrupted = Kernel(n=n, ell=2, matrix=bad.tocsr(), pruned_mass=0.0)
        with pytest.raises(StructuralError):
            absorption_times(corrupted)


class TestExpectedConsensusTime:
    def test_weights_are_first_round_flip_distribution(self):
        n, ell = 16, 4
        k = build_kernel(n, ell)
        h = absorption_times(k)
        expected = expected_consensus_time_all_wrong(k, h)
        # independent recomputation from the definition
        p_flip = 1 - (1 - 1 / n) ** ell
        total = sum(
            math.comb(n - 1, b - 1) * p_flip ** (b - 1) * (1 - p_flip) ** (n - b)
            * h[k.state_index(1, b)]
            for b in range(1, n + 1)
        )
        assert expected == pytest.approx(total, rel=1e-12)


class TestSimulateExactCheck:
    def test_two_agents_fast(self):
        report = simulate_exact_check(2, 1, trials=4000, seed=1)
        assert report["pass"]
        # Round 0 flips the non-source iff its single sample hits the
        # source: k_1 = 2 w.p. 1/2, else 1, so 0.5*h(1,1) + 0.5*h(1,2) = 3.
        assert report["exact_expected_rounds"] == pytest.approx(3.0, abs=1e-9)

    def test_small_population_self_consistency(self):
        report = simulate_exact_check(16, 4, trials=8000, seed=2)
        assert report["pass"]
        for backend in ("agent", "aggregate"):
            entry = report["backends"][backend]
            assert entry["matches_exact_3sigma"]
        assert report["backends_agree_3sigma"]

    def test_size_cap(self):
        with pytest.raises(UsageError):
            simulate_exact_check(128, 8)

    def test_planted_pair_population_matches_state(self):
        pop = plant_pair_population(32, 6, 10, 7, derive_rng(0, "plant"))
        assert pop.opinions.sum() == 7
        assert pop.prev_counts.min() >= 0 and pop.prev_counts.max() <= 6
