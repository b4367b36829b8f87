"""Exact pair-state kernel, absorption times, and backend cross-checks."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    expected_consensus_time_all_wrong,
    next_count_distribution,
    oracle_kernel,
    reference_absorption_times,
    reference_kernel,
)
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import bicgstab, spsolve

from fetsim import duel, markov
from fetsim.duel import _binomial_pmf_rows
from fetsim.dynamics import expected_next_fraction
from fetsim.errors import StructuralError, UsageError
from fetsim.markov import (
    Kernel,
    _bicgstab,
    _first_states,
    _reaching,
    absorption_times,
    build_kernel,
)
from fetsim.protocol import SimConfig, run_trials

REFERENCE_CASES = [
    (2, 1), (2, 2), (3, 3), (16, 4), (17, 9), (64, 13), (96, 14), (64, 64), (128, 15)
]


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

    @pytest.mark.parametrize(
        "n, ell", [(16.0, 4), ("16", 4), (16, True), (16, 4.0), (None, 4), (16, "4")]
    )
    def test_non_integer_arguments_are_usage_errors(self, n, ell):
        with pytest.raises(UsageError, match="must be an integer"):
            build_kernel(n, ell)

    def test_numpy_integer_arguments_accepted(self):
        k = build_kernel(np.int64(16), np.int32(4))
        assert (k.matrix != build_kernel(16, 4).matrix).nnz == 0
        assert k.state_index(np.int64(1), np.uint8(2)) == k.state_index(1, 2) == 18

    @pytest.mark.parametrize("k_t, k_t1", [(1.5, 2), (1, 2.0), (True, 2), ("1", 2)])
    def test_non_integer_state_is_usage_error(self, k_t, k_t1):
        with pytest.raises(UsageError, match="must be an integer"):
            build_kernel(2, 1).state_index(k_t, k_t1)

    @pytest.mark.parametrize("n, ell", [(2, 1), (16, 4), (64, 8), (96, 14)])
    def test_matches_row_loop_oracle(self, n, ell):
        matrix, pruned = oracle_kernel(n, ell)
        k = build_kernel(n, ell)
        assert k.matrix.shape == matrix.shape
        # Sparse difference: an entry pruned on one side reads as 0.
        assert abs(k.matrix - matrix).max() <= 1e-14
        assert k.pruned_mass == pytest.approx(pruned, abs=1e-14)

    @pytest.mark.parametrize("n, ell", REFERENCE_CASES)
    def test_bit_identical_to_row_major_reference(self, n, ell):
        # Odd and even n, equal-width operands (n odd, k_t1 = (n+1)/2),
        # ell = n and 129 x 128 blocks at (128, 15); the successor-major
        # sums add the same products in the same order, and the masked
        # prune keeps each row's order.
        matrix, pruned = reference_kernel(n, ell)
        k = build_kernel(n, ell)
        assert k.absorbing_index == k.num_states - 1
        assert np.array_equal(k.matrix.data, matrix.data)
        assert np.array_equal(k.matrix.indices, matrix.indices)
        assert np.array_equal(k.matrix.indptr, matrix.indptr)
        assert k.pruned_mass == pruned
        h = absorption_times(k)
        assert h.tobytes() == reference_absorption_times(matrix, k.absorbing_index).tobytes()

    @pytest.mark.parametrize("n, ell", [(17, 9), (64, 13)])
    def test_blocks_one_at_a_time_bit_identical(self, n, ell, monkeypatch):
        # With no room for a stack, every mirror pair runs as two groups
        # of one through the same loop: the path n = 256 takes.
        monkeypatch.setattr(markov, "STACK_BYTES", 0)
        matrix, pruned = reference_kernel(n, ell)
        k = build_kernel(n, ell)
        assert np.array_equal(k.matrix.data, matrix.data)
        assert np.array_equal(k.matrix.indices, matrix.indices)
        assert np.array_equal(k.matrix.indptr, matrix.indptr)
        assert k.pruned_mass == pruned

    def test_mirror_blocks_share_pmf_calls(self, monkeypatch):
        # One call per operand width for each pair (b, n + 1 - b), plus
        # the duels call: 2 * ceil(n / 2) + 1, against 2n + 1 per block.
        calls = []

        def counted(k, p):
            calls.append(k)
            return _binomial_pmf_rows(k, p)

        monkeypatch.setattr(markov, "_binomial_pmf_rows", counted)
        monkeypatch.setattr(duel, "_binomial_pmf_rows", counted)
        build_kernel(96, 14)
        assert len(calls) == 97

    def test_peak_memory_bounded_by_kept_entries(self):
        # States are numbered k_t1-major, so each k_t1 block, pruned as
        # it is built, goes straight into one buffer for the final CSR
        # arrays, blocks 1..b from the front and their mirrors n + 1 - b
        # from the back; it grows in place by 1.25x, its back segment
        # moved without a copy: one copy of the kept entries (579,302 at
        # (128, 15), 12 bytes each) plus growth slack, 8.8 MB measured.
        # The mirrors in a second buffer broke this bound, each half
        # holding about 50.5 % of the entries.  Scattering k_t-major rows
        # from per-block lists held two copies (14.9 MB), a
        # concatenate-and-gather assembly a third (19.7 MB), and holding
        # the dense (n+1) x n x n block (16.9 MB) on top, as a
        # whole-kernel prune does, measured 49.9 MB.
        tracemalloc.start()
        try:
            k = build_kernel(128, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k.matrix.nnz == 579_302
        assert peak < 11e6

    @pytest.mark.parametrize("n", [2, 17])
    def test_state_layout_round_trip(self, n):
        # Every state index decodes back to its pair, and every stored
        # column of row (k_t, k_t1) is a successor pair (k_t1, k_{t+2}).
        k = build_kernel(n, 1)
        states = [(a, b) for b in range(1, n + 1) for a in range(n + 1)]
        index = [k.state_index(a, b) for a, b in states]
        assert sorted(index) == list(range(k.num_states))
        assert _first_states(k, np.array(index)) == states[:10]
        for i, (a, b) in zip(index, states):
            assert _first_states(k, np.array([i])) == [(a, b)]
            row = k.matrix.indices[k.matrix.indptr[i] : k.matrix.indptr[i + 1]]
            assert row.size
            for column in row:
                assert _first_states(k, np.array([column]))[0][0] == b


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

    def test_solve_allocates_only_vectors(self):
        # The operator works on the kernel's own CSR: 1.2 MB measured
        # above the live kernel at (128, 15), against 15.3 MB with Q and
        # I - Q copied out of it (one state vector is 0.13 MB).
        k = build_kernel(128, 15)
        tracemalloc.start()
        try:
            absorption_times(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

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

    def test_stored_zero_is_no_edge(self):
        # The (1,1) <-> (1,2) trap with an explicitly stored 0.0 toward
        # (n,n): the reachability check must still name the trap, not
        # leave it to the solver's residual gate.
        n = 8
        k = build_kernel(n, 2)
        bad = k.matrix.tolil()
        trap = [k.state_index(1, 1), k.state_index(1, 2)]
        for state, succ in zip(trap, trap[::-1]):
            bad[state, :] = 0.0
            bad[state, succ] = 1.0
        bad[trap[0], k.absorbing_index] = 0.5
        matrix = bad.tocsr()
        row = slice(matrix.indptr[trap[0]], matrix.indptr[trap[0] + 1])
        matrix.data[row][matrix.indices[row] == k.absorbing_index] = 0.0  # stored, not dropped
        assert matrix[trap[0]].nnz == 2 and matrix[trap[0], k.absorbing_index] == 0.0
        corrupted = Kernel(n=n, ell=2, matrix=matrix, pruned_mass=0.0)
        assert not _reaching(corrupted.matrix, k.absorbing_index)[trap].any()
        with pytest.raises(StructuralError, match="cannot reach \\(n,n\\)"):
            absorption_times(corrupted)

    def test_reachable_only_through_forced_chain(self):
        # (2,3) -> (3,5) -> (5,7) -> (7,8) -> (8,8), each step forced: (2,3)
        # reaches (n,n) only after four sweep passes, and in exactly 4 rounds.
        n = 8
        k = build_kernel(n, 2)
        bad = k.matrix.tolil()
        chain = [(2, 3), (3, 5), (5, 7), (7, 8), (8, 8)]
        for state, succ in zip(chain, chain[1:]):
            bad[k.state_index(*state), :] = 0.0
            bad[k.state_index(*state), k.state_index(*succ)] = 1.0
        forced = Kernel(n=n, ell=2, matrix=bad.tocsr(), pruned_mass=0.0)
        h = absorption_times(forced)
        for steps, state in enumerate(reversed(chain)):
            assert h[k.state_index(*state)] == pytest.approx(steps, abs=1e-9)

    def test_unreachable_set_matches_breadth_first_search(self):
        # States (1,1) and (1,2) only lead to each other.
        n = 8
        k = build_kernel(n, 2)
        bad = k.matrix.tolil()
        trap = [k.state_index(1, 1), k.state_index(1, 2)]
        for state, succ in zip(trap, trap[::-1]):
            bad[state, :] = 0.0
            bad[state, succ] = 1.0
        corrupted = Kernel(n=n, ell=2, matrix=bad.tocsr(), pruned_mass=0.0)
        assert not _reached_by_bfs(corrupted.matrix, k.absorbing_index)[trap].any()
        self._check_reaching(corrupted)
        with pytest.raises(StructuralError, match="cannot reach"):
            absorption_times(corrupted)

    def test_cancelling_entries_hide_no_edge(self):
        # s -> {x: 0.5, y: -0.5, t: 1}, t -> s, x and y forced onto (n,n):
        # x and y are seen in the same pass, where their values sum to 0.
        n = 8
        k = build_kernel(n, 2)
        bad = k.matrix.tolil()
        s, t, x, y = (k.state_index(*p) for p in [(2, 3), (3, 1), (7, 8), (6, 8)])
        for row, succs in [(s, {x: 0.5, y: -0.5, t: 1.0}), (t, {s: 1.0}),
                           (x, {k.absorbing_index: 1.0}), (y, {k.absorbing_index: 1.0})]:
            bad[row, :] = 0.0
            for col, value in succs.items():
                bad[row, col] = value
        corrupted = Kernel(n=n, ell=2, matrix=bad.tocsr(), pruned_mass=0.0)
        assert _reaching(corrupted.matrix, k.absorbing_index)[[s, t]].all()
        self._check_reaching(corrupted)

    @pytest.mark.parametrize("n, ell", [(16, 4), (64, 1), (96, 14)])
    def test_reaching_matches_breadth_first_search(self, n, ell):
        self._check_reaching(build_kernel(n, ell))

    @staticmethod
    def _check_reaching(kernel):
        expected = _reached_by_bfs(kernel.matrix, kernel.absorbing_index)
        assert np.array_equal(_reaching(kernel.matrix, kernel.absorbing_index), expected)


def _reached_by_bfs(matrix, target):
    """Mask of the states from which target is reached, by scipy's BFS."""
    reached = breadth_first_order(matrix.T, target, directed=True, return_predecessors=False)
    mask = np.zeros(matrix.shape[0], dtype=bool)
    mask[reached] = True
    return mask


def _first_step_system(n, ell):
    q = build_kernel(n, ell).matrix[:-1, :-1]
    return sparse.identity(q.shape[0], format="csr") - q, np.ones(q.shape[0])


def _assert_same_solve(a, b):
    x, info = _bicgstab(a.__matmul__, b)
    x_ref, info_ref = bicgstab(a, b, rtol=1e-12, atol=0.0)
    assert info == info_ref
    assert x.tobytes() == x_ref.tobytes()
    return info


class TestBicgstabPort:
    @pytest.mark.parametrize("n, ell", REFERENCE_CASES + [(64, 1)])
    def test_matches_scipy_on_first_step_systems(self, n, ell):
        assert _assert_same_solve(*_first_step_system(n, ell)) == 0

    def test_zero_matrix_breaks_down_like_scipy(self):
        a = sparse.csr_matrix((3, 3))
        assert _assert_same_solve(a, np.array([1.0, -2.0, 0.5])) == -11

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 6),
        entries=st.lists(
            st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), min_size=36, max_size=36
        ),
        rhs=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
    )
    def test_matches_scipy_on_small_nonsymmetric_systems(self, size, entries, rhs):
        a = sparse.csr_matrix(np.reshape(entries, (6, 6))[:size, :size])
        # Singular draws can divide 0 by 0; both solvers must do so alike.
        with np.errstate(all="ignore"):
            _assert_same_solve(a, np.array(rhs[:size]))


class TestExpectedConsensusTime:
    def test_two_agent_hand_value(self):
        # Round 0 flips the non-source iff its single sample hits the
        # source: k_1 = 2 w.p. 1/2, else 1, so 0.5*h(1,1) + 0.5*h(1,2) = 3.
        k = build_kernel(2, 1)
        assert expected_consensus_time_all_wrong(k, absorption_times(k)) == pytest.approx(
            3.0, abs=1e-9
        )

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


SAMPLES = [(2, 1, 1, 4000), (16, 4, 2, 8000)]  # (n, ell, seed, trials)


@functools.cache
def _consensus_rounds(backend, n, ell, seed, trials):
    """Consensus rounds of all-wrong trials on one backend; each trial must converge."""
    config = SimConfig(n=n, ell=ell, backend=backend, seed=seed, max_rounds=100_000)
    counts, lengths = run_trials(config, "all_wrong", trials)
    assert (counts[np.cumsum(lengths) - 1] == n).all()
    return lengths - 1


def _mean_and_stderr(rounds):
    return rounds.mean(), rounds.std(ddof=1) / math.sqrt(len(rounds))


@pytest.mark.parametrize("n, ell, seed, trials", SAMPLES)
@pytest.mark.parametrize("backend", ["agent", "aggregate"])
def test_backend_mean_consensus_round_matches_exact_chain(backend, n, ell, seed, trials):
    # The mean consensus round from the all-wrong start is within 3
    # standard errors of the chain's exact expectation.
    k = build_kernel(n, ell)
    exact = expected_consensus_time_all_wrong(k, absorption_times(k))
    mean, stderr = _mean_and_stderr(_consensus_rounds(backend, n, ell, seed, trials))
    assert abs(mean - exact) <= 3.0 * stderr


@pytest.mark.parametrize("n, ell, seed, trials", SAMPLES)
def test_backends_agree_on_mean_consensus_round(n, ell, seed, trials):
    agent, aggregate = (
        _mean_and_stderr(_consensus_rounds(backend, n, ell, seed, trials))
        for backend in ("agent", "aggregate")
    )
    assert abs(agent[0] - aggregate[0]) <= 3.0 * math.hypot(agent[1], aggregate[1])
