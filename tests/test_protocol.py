"""Agent-level and aggregate backends: update rule, absorption,
determinism, symmetry, and agreement with the analytical layer."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import (
    AgentState,
    agent_round,
    fraction_ones,
    init_adversarial,
    oracle_pmf_vector,
    split_paths,
)
from fetsim import protocol
from fetsim.domains import AREAS, DOMAINS, DomainLabel, YellowLabel, label_paths
from fetsim.duel import _binomial_pmf_rows, _duel_table, exact_duel
from fetsim.dynamics import expected_next_fraction, flip_probs
from fetsim.errors import DomainError, StructuralError, UsageError
from fetsim.protocol import (
    BLOCK,
    PRESETS,
    SimConfig,
    _class_round,
    _flip_probs,
    _pair_draws,
    _populations,
    _preset_counts,
    derive_rng,
    run_trials,
    step_agent_level,
    step_aggregate,
)


class _FixedRng:
    """Stands in for a Generator whose next integers() call returns idx."""

    def __init__(self, idx):
        self.idx = idx

    def integers(self, low, high, size):
        assert size == self.idx.shape
        return self.idx


class TestAgentRound:
    def test_fresh_count_wins(self):
        state = AgentState(opinion=0, prev_count=1)
        new = agent_round(state, [1, 1, 0], [0, 0, 0], ell=3)
        assert new.opinion == 1
        assert new.prev_count == 0

    def test_tie_keeps_opinion(self):
        state = AgentState(opinion=1, prev_count=2)
        new = agent_round(state, [1, 1, 0], [1, 0, 0], ell=3)
        assert new.opinion == 1
        assert new.prev_count == 1

    def test_fresh_count_loses(self):
        state = AgentState(opinion=1, prev_count=3)
        new = agent_round(state, [1, 0, 0], [1, 1, 1], ell=3)
        assert new.opinion == 0

    def test_source_ignores_rule(self):
        state = AgentState(opinion=1, prev_count=0, is_source=True)
        new = agent_round(state, [0, 0, 0], [0, 0, 0], ell=3, source_opinion=1)
        assert new.opinion == 1

    def test_malformed_halves_rejected(self):
        with pytest.raises(DomainError):
            agent_round(AgentState(0, 0), [1, 0], [1, 0, 0], ell=3)


class TestStepAgentLevel:
    def test_all_ones_absorbing(self):
        config = SimConfig(n=32, ell=4, seed=1, backend="agent")
        rng = derive_rng(1, "absorb")
        opinions, counters = np.ones(32, dtype=np.uint8), np.full(32, 2, dtype=np.int32)
        for _ in range(20):
            opinions, counters = step_agent_level(opinions, counters, config, rng)
            assert fraction_ones(opinions) == 1.0

    def test_all_correct_absorbing_source_zero(self):
        config = SimConfig(n=32, ell=4, seed=1, backend="agent", source_opinion=0)
        rng = derive_rng(1, "absorb0")
        opinions, counters = np.zeros(32, dtype=np.uint8), np.full(32, 3, dtype=np.int32)
        for _ in range(20):
            opinions, counters = step_agent_level(opinions, counters, config, rng)
            assert fraction_ones(opinions) == 0.0

    def test_two_agents_reach_source_opinion(self):
        # Source + one agent holding the wrong opinion with maximally
        # misleading memory still converges.
        config = SimConfig(n=2, ell=1, seed=5, backend="agent", max_rounds=500)
        counts, _ = run_trials(config, "all_wrong_max_counters", 1)
        assert counts[-1] == 2

    def test_source_invariance_every_round(self):
        config = SimConfig(n=64, ell=8, seed=3, backend="agent")
        rng = derive_rng(3, "source")
        opinions, counters = init_adversarial("half_half", config, rng)
        for _ in range(30):
            opinions, counters = step_agent_level(opinions, counters, config, rng)
            assert opinions[0] == 1

    def test_matches_flip_probabilities(self):
        # Empirical per-agent flip rates over 10^5 agents against the
        # analytical flip probabilities, within 3 binomial SE.
        n, ell = 100_000, 10
        x_t, x_t1 = 0.3, 0.4
        config = SimConfig(n=n, ell=ell, seed=11, backend="agent")
        rng = derive_rng(11, "fliprate")
        opinions = np.zeros(n, dtype=np.uint8)
        opinions[: int(x_t1 * n)] = 1
        counters = rng.binomial(ell, x_t, size=n).astype(np.int32)
        new, _ = step_agent_level(opinions, counters, config, rng)
        fp = flip_probs(x_t, x_t1, ell)
        ones = int(x_t1 * n)
        kept = new[1:ones].mean()
        gained = new[ones:].mean()
        se_keep = math.sqrt(fp.p_keep_one * (1 - fp.p_keep_one) / (ones - 1))
        se_gain = math.sqrt(fp.p_gain_one * (1 - fp.p_gain_one) / (n - ones))
        assert abs(kept - fp.p_keep_one) <= 3 * se_keep
        assert abs(gained - fp.p_gain_one) <= 3 * se_gain

    def test_agent_round_agrees_with_vectorized_step(self):
        # The scalar rule and the vectorized implementation are two
        # routes to the same update; drive both with the same samples.
        n, ell = 16, 3
        config = SimConfig(n=n, ell=ell, seed=9, backend="agent")
        opinions = derive_rng(9, "ops").integers(0, 2, size=n).astype(np.uint8)
        counters = derive_rng(9, "ctr").integers(0, ell + 1, size=n).astype(np.int32)
        opinions[0] = 1
        idx = derive_rng(9, "samples").integers(0, n, size=(n, 2 * ell))
        new_op, new_ctr = step_agent_level(opinions, counters, config, _FixedRng(idx))
        for agent in range(n):
            obs = opinions[idx[agent]]
            state = AgentState(
                opinion=int(opinions[agent]),
                prev_count=int(counters[agent]),
                is_source=agent == 0,
            )
            expected = agent_round(state, obs[:ell], obs[ell:], ell, 1)
            assert new_op[agent] == expected.opinion
            assert new_ctr[agent] == expected.prev_count

    @pytest.mark.parametrize("variant", ["fet", "naive"])
    def test_batched_step_matches_one_trial_steps(self, variant):
        # A (trials, n) population steps each trial on its own agents:
        # every row of the batched step equals that trial stepped alone
        # with the same sample indices.
        trials, n, ell = 3, 16, 3
        config = SimConfig(n=n, ell=ell, seed=9, backend="agent", variant=variant)
        opinions = derive_rng(9, "batch-ops").integers(0, 2, size=(trials, n)).astype(np.uint8)
        opinions[:, 0] = 1
        counters = derive_rng(9, "batch-ctr").integers(0, ell + 1, size=(trials, n))
        counters = counters.astype(np.int32)
        width = ell if variant == "naive" else 2 * ell
        idx = derive_rng(9, "batch-samples").integers(0, n, size=(trials, n, width))
        new_op, new_ctr = step_agent_level(opinions, counters, config, _FixedRng(idx))
        assert new_op.dtype == np.uint8 and new_ctr.dtype == np.int32
        assert new_op.shape == new_ctr.shape == (trials, n)
        for t in range(trials):
            alone = step_agent_level(opinions[t], counters[t], config, _FixedRng(idx[t]))
            assert np.array_equal(new_op[t], alone[0])
            assert np.array_equal(new_ctr[t], alone[1])


class TestStepAggregate:
    def test_absorbing_state(self):
        config = SimConfig(n=64, ell=8, seed=0)
        rng = derive_rng(0, "agg")
        assert step_aggregate(64, 64, config, rng) == 64
        mirrored = SimConfig(n=64, ell=8, seed=0, source_opinion=0)
        assert step_aggregate(0, 0, mirrored, rng) == 0

    def test_mean_matches_expectation_map(self):
        n, ell = 100, 2
        rng = derive_rng(21, "aggmean")
        trials = 1_000_000
        fp = flip_probs(0.5, 0.5, ell)
        k1 = n // 2
        keep = rng.binomial(k1 - 1, fp.p_keep_one, size=trials)
        gain = rng.binomial(n - k1, fp.p_gain_one, size=trials)
        sample_mean = float((1 + keep + gain).mean()) / n
        g = expected_next_fraction(0.5, 0.5, n, ell)
        var = ((k1 - 1) * fp.p_keep_one * (1 - fp.p_keep_one)
               + (n - k1) * fp.p_gain_one * (1 - fp.p_gain_one)) / n**2
        assert abs(sample_mean - g) <= 3 * math.sqrt(var / trials)

    @pytest.mark.parametrize(
        "k_t, k_t1",
        [(1.0, 1.0), (21, 32.0), (-1, 32), (32, 65)],
        ids=["floats", "float_k_t1", "negative", "above_n"],
    )
    def test_bad_counts_rejected(self, k_t, k_t1):
        # Counts are integers in [0, n]; a float is not read as a count,
        # even when it is integral.
        config = SimConfig(n=64, ell=8, seed=0)
        with pytest.raises(DomainError):
            step_aggregate(k_t, k_t1, config, derive_rng(0, "x"))

    def test_source_must_be_counted(self):
        config = SimConfig(n=64, ell=8, seed=0)
        with pytest.raises(DomainError):
            step_aggregate(32, 0, config, derive_rng(0, "y"))

    @pytest.mark.parametrize("source_opinion", [1, 0])
    def test_batched_step_mean_matches_expectation_map(self, source_opinion):
        # One call steps 10^5 trials of the pair (30, 50) at n = 100 (its
        # mirror (70, 50) for source opinion 0); the mean next count is
        # n g(0.3, 0.5) within 3 SE.
        n, ell, trials = 100, 4, 100_000
        config = SimConfig(n=n, ell=ell, source_opinion=source_opinion)
        k_t, k_t1 = (30, 50) if source_opinion == 1 else (70, 50)
        k_next = step_aggregate(
            np.full(trials, k_t), np.full(trials, k_t1), config, derive_rng(0, "batch-mean")
        )
        assert k_next.shape == (trials,)
        correct = k_next if source_opinion == 1 else n - k_next
        fp = flip_probs(0.3, 0.5, ell)
        var = 49 * fp.p_keep_one * (1 - fp.p_keep_one) + 50 * fp.p_gain_one * (1 - fp.p_gain_one)
        expected = n * expected_next_fraction(0.3, 0.5, n, ell)
        assert abs(correct.mean() - expected) <= 3 * math.sqrt(var / trials)


class TestPairDraws:
    @pytest.mark.parametrize("source_opinion", [1, 0])
    def test_one_call_draws_the_two_call_stream(self, source_opinion):
        # One rng.binomial over the keep, then the gain parameters, is the
        # stream of one keep call and then one gain call, on arrays and on
        # scalars, with p = 0 and p = 1 and with no agent to draw for.
        n = 1000
        config = SimConfig(n=n, ell=21, source_opinion=source_opinion)
        rng = derive_rng(3, "draw-inputs")
        held = np.concatenate([[1, n, 1, n, 500, 500], rng.integers(1, n + 1, 194)])
        keep = np.concatenate([[0.0, 1.0, 1.0, 0.0, 0.0, 1.0], rng.random(194)])
        gain = np.concatenate([[1.0, 0.0, 0.0, 1.0, 1.0, 0.0], rng.random(194)])
        k_t1 = held if source_opinion == 1 else n - held
        merged, reference = derive_rng(4, "draws"), derive_rng(4, "draws")

        def two_calls(held, keep, gain):
            k_next = 1 + reference.binomial(held - 1, keep) + reference.binomial(n - held, gain)
            return k_next if source_opinion == 1 else n - k_next

        drawn = _pair_draws(k_t1, keep, gain, config, merged)
        assert drawn.shape == held.shape
        assert np.array_equal(drawn, two_calls(held, keep, gain))
        for i in (4, 1, 0, 7, 7, 9):
            one = _pair_draws(int(k_t1[i]), float(keep[i]), float(gain[i]), config, merged)
            assert np.shape(one) == ()
            assert one == two_calls(int(held[i]), float(keep[i]), float(gain[i]))
        assert merged.random() == reference.random()


class TestFlipProbs:
    @pytest.mark.parametrize("source_opinion", [1, 0])
    def test_pair_values_do_not_depend_on_the_batch(self, source_opinion):
        # Each pair's keep and gain come from its own dot products, so a
        # pair gives the same bits alone, as a scalar, or in any batch; and
        # they are exact_duel's bits.
        n, ell = 1000, 21
        config = SimConfig(n=n, ell=ell, source_opinion=source_opinion)
        rng = derive_rng(5, "pairs")
        k_t = np.concatenate([[0, 1, n - 1, n, 500], rng.integers(0, n + 1, 60)])
        k_t1 = np.concatenate([[n - 1, n, 1, 0, 500], rng.integers(1, n, 60)])
        keep, gain, _ = _flip_probs(k_t, k_t1, config)
        order = rng.permutation(k_t.size)
        shuffled = _flip_probs(k_t[order], k_t1[order], config)
        assert np.array_equal(shuffled[0], keep[order])
        assert np.array_equal(shuffled[1], gain[order])
        held_t, held_t1 = (k_t, k_t1) if source_opinion == 1 else (n - k_t, n - k_t1)
        for i in range(k_t.size):
            one = _flip_probs(k_t[i : i + 1], k_t1[i : i + 1], config)
            assert np.array_equal(one[:2], (keep[i : i + 1], gain[i : i + 1]))
            alone = _flip_probs(k_t[i], k_t1[i], config)
            assert np.array_equal(alone[:2], (keep[i], gain[i]))
            self._assert_duel_bits(keep[i], gain[i], int(held_t[i]), int(held_t1[i]), n, ell)

    @pytest.mark.parametrize("source_opinion", [1, 0])
    def test_carried_table_gives_a_fresh_calls_bits(self, source_opinion):
        # A round that takes its k_t rows from the previous round's table,
        # filtered to the pairs that go on, gives the bits of a call that
        # builds every row itself, and carries the rows of its own k_t1.
        n, ell = 1000, 21
        config = SimConfig(n=n, ell=ell, source_opinion=source_opinion)
        rng = derive_rng(8, "carried")
        k_0, k_1, k_2 = rng.integers(1, n, 80), rng.integers(1, n, 80), rng.integers(1, n, 80)
        k_1[:3] = n * source_opinion
        going = k_1 != n * source_opinion
        _, _, (rows, index) = _flip_probs(k_0, k_1, config)
        carried = _flip_probs(k_1[going], k_2[going], config, (rows, index[going]))
        fresh = _flip_probs(k_1[going], k_2[going], config)
        assert np.array_equal(carried[0], fresh[0])
        assert np.array_equal(carried[1], fresh[1])
        held = k_2[going] if source_opinion == 1 else n - k_2[going]
        pmf = _binomial_pmf_rows(ell, held / n)
        assert np.array_equal(carried[2][0][carried[2][1]], pmf)
        assert np.array_equal(fresh[2][0][fresh[2][1]], pmf)

    def test_pairs_near_n_at_two_to_the_forty(self):
        # Pairs are keyed by distinct-count index, not by k_t * (n + 1) + k_t1,
        # which overflows int64 at this n: (n - 2^24, n) and (n, n - 2^24)
        # would share a key.  Each pair near n keeps exact_duel's bits,
        # from a fresh table and from one carried from the round before.
        n, ell, step = 1 << 40, 84, 1 << 24
        config = SimConfig(n=n, ell=ell)
        k_t = np.array([n - step, n, n, n - 1, n, n - 3, n - 2, 1, n - 1], dtype=np.int64)
        k_t1 = np.array([n, n - step, n - 1, n, n, n - 2, n - 3, n, n - 1], dtype=np.int64)
        keep, gain, _ = _flip_probs(k_t, k_t1, config)
        _, _, carried = _flip_probs(k_t1, k_t, config)
        again = _flip_probs(k_t, k_t1, config, carried)
        for i in range(k_t.size):
            self._assert_duel_bits(keep[i], gain[i], int(k_t[i]), int(k_t1[i]), n, ell)
            self._assert_duel_bits(again[0][i], again[1][i], int(k_t[i]), int(k_t1[i]), n, ell)

    @staticmethod
    def _assert_duel_bits(keep, gain, k_t, k_t1, n, ell):
        duel = exact_duel(ell, k_t / n, k_t1 / n)
        assert gain == duel.p_lt
        assert keep == min(duel.p_lt + duel.p_eq, 1.0)


class TestClassCountRound:
    """The class-count first round against an agent-level oracle.

    Same pattern as acceptance criterion 1, from class-count starts
    with arbitrary counters, expanded into agents for the oracle: 10^5
    rounds at n = 64, ell = 8, TV < 0.02 and both means within 3 SE of
    the exact expected count.
    """

    N, ELL, TRIALS = 64, 8, 100_000

    def _start(self, name):
        """(config, hist): one trial's (1, 2, ell+1) class counts."""
        n, ell = self.N, self.ELL
        rng = derive_rng(0, "class-law-start", name)
        if name == "random_counts_src0":
            # Any histogram is a start: n - 1 agents spread uniformly
            # over the 2(ell+1) (opinion, counter) classes.
            classes = rng.multinomial(n - 1, np.full(2 * (ell + 1), 1 / (2 * (ell + 1))))
            return SimConfig(n=n, ell=ell, source_opinion=0), classes.reshape(1, 2, ell + 1)
        if name == "all_wrong_max_counters_mirror":
            hist = _preset_counts("all_wrong_max_counters", SimConfig(n=n, ell=ell), rng, 1)
            return SimConfig(n=n, ell=ell, source_opinion=0), hist[:, ::-1, ::-1]
        config = SimConfig(n=n, ell=ell)
        return config, _preset_counts(name, config, rng, 1)

    @staticmethod
    def _agent_oracle(opinions, counters, ell, source_opinion, trials, rng):
        """Ones after one round, each agent sampling ell fresh opinions."""
        n = opinions.size
        out = np.empty(trials, dtype=np.int64)
        done = 0
        while done < trials:
            m = min(20_000, trials - done)
            idx = rng.integers(0, n, size=(m, n, ell), dtype=np.uint16)
            c_fresh = opinions[idx].sum(axis=2, dtype=np.int32)
            new = np.where(
                c_fresh > counters,
                1,
                np.where(c_fresh < counters, 0, opinions),
            )
            new[:, 0] = source_opinion
            out[done : done + m] = new.sum(axis=1)
            done += m
        return out

    @pytest.mark.parametrize(
        "name",
        [
            "all_wrong",
            "all_wrong_max_counters",
            "yellow_center",
            "random_counts_src0",
            "all_wrong_max_counters_mirror",
        ],
    )
    def test_one_round_law_matches_agent_level(self, name):
        n, ell, trials = self.N, self.ELL, self.TRIALS
        config, hist = self._start(name)
        src = config.source_opinion
        opinions, counters = (a[0] for a in _populations(hist, config))
        agent = self._agent_oracle(
            opinions, counters, ell, src, trials, derive_rng(0, "class-law-agent", name)
        )
        rng = derive_rng(0, "class-law-classes", name)
        classes = _class_round(np.broadcast_to(hist, (trials, 2, ell + 1)), config, rng)

        # Exact law: agent i holds 1 afterwards with probability
        # P(c' > c_i) + [o_i = 1] P(c' = c_i), c' ~ Bin(ell, x_0).
        pmf = oracle_pmf_vector(ell, fraction_ones(opinions))
        p_gt = np.array([pmf[c + 1 :].sum() for c in range(ell + 1)])
        ops, ctr = opinions[1:], counters[1:]
        p_one = p_gt[ctr] + (ops == 1) * pmf[ctr]
        mean = src + p_one.sum()
        se = math.sqrt((p_one * (1 - p_one)).sum() / trials)
        tol = 3.0 * se if se > 0 else 1e-12

        h_agent = np.bincount(agent, minlength=n + 1) / trials
        h_classes = np.bincount(classes, minlength=n + 1) / trials
        assert 0.5 * np.abs(h_agent - h_classes).sum() < 0.02
        assert abs(agent.mean() - mean) <= tol
        assert abs(classes.mean() - mean) <= tol

    def test_pmf_rows_not_summing_to_one_are_structural_errors(self, monkeypatch):
        # The class-count round takes its pmf rows through the duel
        # table's row-sum check; with max_rounds = 1 it is the only round.
        def halved(k, p):
            return 0.5 * _binomial_pmf_rows(k, p)

        monkeypatch.setattr("fetsim.duel._binomial_pmf_rows", halved)
        with pytest.raises(StructuralError):
            run_trials(SimConfig(n=64, ell=8, max_rounds=1), "half_half", 4)


class TestInitPresets:
    def cfg(self, n=64, **kw):
        return SimConfig(n=n, ell=8, seed=2, **kw)

    def test_all_wrong(self):
        opinions, counters = init_adversarial("all_wrong", self.cfg(), derive_rng(2, "a"))
        assert fraction_ones(opinions) == 1 / 64
        assert counters.max() == 0

    def test_all_wrong_max_counters(self):
        opinions, counters = init_adversarial(
            "all_wrong_max_counters", self.cfg(), derive_rng(2, "b")
        )
        assert fraction_ones(opinions) == 1 / 64
        assert np.all(counters == 8)

    def test_cyan_corner(self):
        opinions, _ = init_adversarial("cyan_corner", self.cfg(n=100), derive_rng(2, "c"))
        assert fraction_ones(opinions) == 1 / 100

    def test_half_half_counting_convention(self):
        opinions, _ = init_adversarial("half_half", self.cfg(), derive_rng(2, "d"))
        assert fraction_ones(opinions) == pytest.approx(33 / 64)

    def test_yellow_center(self):
        opinions, _ = init_adversarial("yellow_center", self.cfg(), derive_rng(2, "e"))
        assert fraction_ones(opinions) == pytest.approx(0.5)

    def test_fraction(self):
        opinions, _ = init_adversarial("fraction:0.25", self.cfg(), derive_rng(2, "f"))
        assert fraction_ones(opinions) == pytest.approx(0.25)

    def test_unknown_preset(self):
        with pytest.raises(UsageError):
            init_adversarial("nonsense", self.cfg(), derive_rng(2, "i"))

    @pytest.mark.parametrize("preset", ["fraction:abc", "fraction:", "fraction:1.5"])
    def test_bad_fraction_is_usage_error(self, preset):
        with pytest.raises(UsageError):
            init_adversarial(preset, self.cfg(), derive_rng(2, "j"))


class TestPresetCounts:
    # Opinion-1 totals (source included) of every preset at
    # [n = 2, 3, 64, 65], by source opinion: round half up, clamped to
    # [source, n - 1 + source], the source counted.
    TOTALS = {
        "all_wrong": {0: [1, 2, 63, 64], 1: [1, 1, 1, 1]},
        "all_wrong_max_counters": {0: [1, 2, 63, 64], 1: [1, 1, 1, 1]},
        "half_half": {0: [1, 1, 32, 32], 1: [2, 2, 33, 33]},
        "yellow_center": {0: [1, 2, 32, 33], 1: [1, 2, 32, 33]},
        "cyan_corner": {0: [1, 2, 63, 64], 1: [1, 1, 1, 1]},
        "fraction:0.3": {0: [1, 1, 19, 20], 1: [1, 1, 19, 20]},
        "fraction:0": {0: [0, 0, 0, 0], 1: [1, 1, 1, 1]},
        "fraction:1": {0: [1, 2, 63, 64], 1: [2, 3, 64, 65]},
    }

    @pytest.mark.parametrize("preset", TOTALS)
    @pytest.mark.parametrize("source_opinion", [0, 1])
    def test_opinion_totals(self, preset, source_opinion):
        for n, total in zip([2, 3, 64, 65], self.TOTALS[preset][source_opinion]):
            config = SimConfig(n=n, ell=1, source_opinion=source_opinion)
            hist = _preset_counts(preset, config, derive_rng(0, "totals"), 3)
            assert hist.shape == (3, 2, 2) and hist.dtype == np.int64
            assert np.all(hist.sum(axis=(1, 2)) == n - 1)
            assert np.all(hist[:, 1].sum(axis=1) + source_opinion == total)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_block_draw_equals_one_trial_draws(self, preset):
        # A block's counts are the one-trial draws in trial order on the
        # same stream; a preset with fixed counters draws nothing.
        config = SimConfig(n=1000, ell=8)
        block = _preset_counts(preset, config, derive_rng(0, "block"), 5)
        rng = derive_rng(0, "block")
        one_by_one = np.concatenate([_preset_counts(preset, config, rng, 1) for _ in range(5)])
        assert np.array_equal(block, one_by_one)
        untouched = rng.random() == derive_rng(0, "block").random()
        assert untouched == (preset in ("all_wrong", "all_wrong_max_counters", "cyan_corner"))

    @pytest.mark.parametrize("preset", ["half_half", "yellow_center", "fraction:0.2"])
    def test_random_counters_are_uniform(self, preset):
        # Pooled stored counters of 64 trials at n = 1000 against the
        # uniform law on [0, ell]: chi-square p-value above 1e-3.
        config = SimConfig(n=1000, ell=8)
        hist = _preset_counts(preset, config, derive_rng(0, "chi2", preset), BLOCK)
        pooled = hist.sum(axis=(0, 1))
        assert pooled.sum() == BLOCK * 999
        assert stats.chisquare(pooled).pvalue > 1e-3

    def test_population_expands_counts_class_by_class(self):
        # A block of two trials, each expanded source first, then class by class.
        config = SimConfig(n=6, ell=2, source_opinion=0)
        hist = np.array([[[0, 2, 0], [1, 0, 2]], [[3, 0, 0], [0, 1, 1]]])
        opinions, counters = _populations(hist, config)
        assert opinions.dtype == np.uint8 and counters.dtype == np.int32
        assert opinions.tolist() == [[0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1]]
        assert counters.tolist() == [[1, 1, 1, 0, 2, 2], [0, 0, 0, 0, 1, 2]]
        # Binning the non-source agents gives back each trial's counts.
        classes = opinions[:, 1:] * 3 + counters[:, 1:]
        for t in range(2):
            assert np.bincount(classes[t], minlength=6).reshape(2, 3).tolist() == hist[t].tolist()

    @pytest.mark.parametrize("preset", ["all_wrong_max_counters", "cyan_corner"])
    def test_misleading_counters_mirror_the_source(self, preset):
        # The maximally misleading memory is ell for source opinion 1 and
        # its mirror 0 for source opinion 0, so the two starts are mirror
        # images.  Their first round keeps every opinion and later rounds
        # draw mirrored, so the paths mirror trial by trial.
        n, trials = 256, 500
        one, zero = (SimConfig(n=n, seed=1, source_opinion=s) for s in (1, 0))
        hist1, hist0 = (_preset_counts(preset, config, None, 2) for config in (one, zero))
        assert np.all(hist0[:, 1, 0] == n - 1)
        assert np.array_equal(hist0, hist1[:, ::-1, ::-1])
        counts1, lengths1 = run_trials(one, preset, trials)
        counts0, lengths0 = run_trials(zero, preset, trials)
        assert np.array_equal(lengths0, lengths1)
        assert np.array_equal(counts0, n - counts1)


class TestRunTrial:
    def test_all_correct_start_converges_at_zero(self):
        config = SimConfig(n=64, ell=8, seed=4)
        counts, lengths = run_trials(config, "fraction:1.0", 1)
        assert counts.tolist() == [64] and lengths.tolist() == [1]

    @pytest.mark.parametrize("trials", [0, -3, True, 2.0])
    def test_trial_count_checked(self, trials):
        with pytest.raises(UsageError, match="trials"):
            run_trials(SimConfig(n=64, ell=8), "all_wrong", trials)

    @pytest.mark.parametrize("backend", ["agent", "aggregate"])
    def test_paths_stored_end_to_end(self, backend):
        # One count array for all trials, blocks included: trial i's path
        # is the lengths[i] counts after those of trials 0..i-1.
        config = SimConfig(n=64, ell=8, seed=1, backend=backend)
        trials = 2 * BLOCK + 3
        counts, lengths = run_trials(config, "half_half", trials)
        assert counts.dtype == np.int64 and lengths.shape == (trials,)
        assert counts.size == lengths.sum() and lengths.min() >= 1
        assert np.all(counts[np.cumsum(lengths) - 1] == 64)

    def test_determinism_byte_for_byte(self):
        config = SimConfig(n=128, c_sample=3.0, seed=77, backend="aggregate")
        a = run_trials(config, "all_wrong_max_counters", 5)
        b = run_trials(config, "all_wrong_max_counters", 5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        paths = split_paths(*a)
        assert paths[3] != paths[4]

    @pytest.mark.parametrize("preset", ["all_wrong_max_counters", "yellow_center"])
    def test_first_block_independent_of_trial_count(self, preset):
        # Each block has its own stream, so the trials of block 0 are the
        # same whether or not a second block follows.
        config = SimConfig(n=256, c_sample=3.0, seed=3)
        counts, lengths = run_trials(config, preset, 2 * BLOCK)
        one_counts, one_lengths = run_trials(config, preset, BLOCK)
        assert np.array_equal(lengths[:BLOCK], one_lengths)
        assert np.array_equal(counts[: one_lengths.sum()], one_counts)

    @pytest.mark.parametrize("source_opinion", [1, 0])
    @pytest.mark.parametrize("preset", ["yellow_center", "all_wrong_max_counters"])
    def test_joint_rounds_do_not_mix_blocks(self, preset, source_opinion):
        # Aggregate blocks step together, but each draws on its own
        # stream: blocks 0 and 1 give the same paths in runs of one, two
        # and three and a bit blocks, though trials leave at different
        # rounds and so shift every later block's slice of a round.
        config = SimConfig(n=1024, seed=2, source_opinion=source_opinion)
        paths = split_paths(*run_trials(config, preset, 3 * BLOCK + 5))
        two = split_paths(*run_trials(config, preset, 2 * BLOCK))
        one = split_paths(*run_trials(config, preset, BLOCK))
        assert len({len(path) for path in two}) > 1
        assert paths[: 2 * BLOCK] == two
        assert paths[:BLOCK] == one

    @pytest.mark.parametrize("source_opinion", [1, 0])
    def test_joint_rounds_equal_blocks_stepped_alone(self, source_opinion):
        # Reference: each block on its own stream, its presets and class
        # round, then step_aggregate on its live trials until they end.
        config = SimConfig(n=1024, seed=4, source_opinion=source_opinion)
        trials, target = 3 * BLOCK + 5, 1024 * source_opinion
        expected = []
        for block, first in enumerate(range(0, trials, BLOCK)):
            rng = derive_rng(4, "trials", 1024, "yellow_center", block)
            hist = _preset_counts("yellow_center", config, rng, min(BLOCK, trials - first))
            paths = [[k] for k in (hist[:, 1].sum(axis=1) + source_opinion).tolist()]
            live = [i for i, path in enumerate(paths) if path[-1] != target]
            news = _class_round(hist[live], config, rng)
            while live:
                for i, k in zip(live, news.tolist()):
                    paths[i].append(k)
                live = [i for i in live if paths[i][-1] != target]
                pairs = np.array([paths[i][-2:] for i in live], dtype=np.int64).reshape(-1, 2)
                news = step_aggregate(pairs[:, 0], pairs[:, 1], config, rng)
            expected += paths
        joint = split_paths(*run_trials(config, "yellow_center", trials))
        assert len({len(path) for path in joint}) > 1
        assert joint == expected

    def test_flip_probs_once_per_joint_round(self, monkeypatch):
        # Four blocks share each round's flip probabilities: one call per
        # round after the class-count round, as many as the longest
        # trial needs, not one per block and round.
        calls = []

        def counted(k_t, k_t1, config, carried):
            calls.append(np.size(k_t))
            return _flip_probs(k_t, k_t1, config, carried)

        monkeypatch.setattr(protocol, "_flip_probs", counted)
        config = SimConfig(n=4096, seed=6)
        counts, lengths = run_trials(config, "all_wrong_max_counters", 4 * BLOCK)
        per_block = lengths.reshape(4, BLOCK).max(axis=1) - 2
        assert len(calls) == lengths.max() - 2
        assert len(calls) < per_block.sum()
        assert calls[0] == np.count_nonzero(lengths > 2)

    def test_duel_rows_built_once_per_round(self, monkeypatch):
        # Each block's class round builds rows for its distinct counts; the
        # first pair round for the union of its k_t and k_t1; every later
        # round only for its distinct k_t1, reading k_t's rows from the
        # table the round before carried.
        rows = []

        def counted(ell, values):
            rows.append(len(values))
            return _duel_table(ell, values)

        monkeypatch.setattr(protocol, "_duel_table", counted)
        counts, lengths = run_trials(SimConfig(n=4096, seed=6), "yellow_center", 4 * BLOCK)
        paths = split_paths(counts, lengths)
        expected = [len({path[0] for path in paths[first : first + BLOCK] if len(path) > 1})
                    for first in range(0, 4 * BLOCK, BLOCK)]
        expected.append(len({k for path in paths if len(path) > 2 for k in path[:2]}))
        expected += [len({path[r] for path in paths if len(path) > r + 1})
                     for r in range(2, lengths.max() - 1)]
        assert lengths.max() > 4
        assert rows == expected

    def test_presets_with_equal_populations_draw_apart(self):
        # cyan_corner builds the same population as all_wrong_max_counters,
        # but the preset is part of the stream key: the paths differ.
        config = SimConfig(n=1024, c_sample=3.0, seed=0)
        cyan = split_paths(*run_trials(config, "cyan_corner", 20))
        maxed = split_paths(*run_trials(config, "all_wrong_max_counters", 20))
        assert [path[0] for path in cyan] == [path[0] for path in maxed]
        assert sum(a != b for a, b in zip(cyan, maxed)) >= 15

    def test_trajectory_pairs_labelled(self):
        config = SimConfig(n=128, c_sample=3.0, seed=12)
        counts, lengths = run_trials(config, "all_wrong_max_counters", 1)
        domains, yellows = label_paths(counts, 128, config.delta, config.ell)
        assert counts[0] / 128 == pytest.approx(1 / 128)
        # One label per consecutive pair: every round but the last.
        assert len(domains) == len(yellows) == lengths[0] - 1
        assert domains[0] == DOMAINS.index(DomainLabel.CYAN1)

    @pytest.mark.parametrize("backend", ["agent", "aggregate"])
    @pytest.mark.parametrize("source_opinion", [0, 1])
    def test_trajectory_ends_at_consensus(self, backend, source_opinion):
        # All-correct is absorbing, so the trial stops at the first
        # consensus round and that count is the path's last.
        config = SimConfig(
            n=64, ell=8, seed=6, backend=backend, source_opinion=source_opinion
        )
        counts, lengths = run_trials(config, "all_wrong_max_counters", 5)
        assert counts.size == lengths.sum()
        consensus = 64 * source_opinion
        for path in split_paths(counts, lengths):
            assert path[-1] == consensus
            assert all(k != consensus for k in path[:-1])

    def test_two_agents_are_unclassified(self):
        # ln 2 < 1 leaves the partition constants undefined, so pairs are
        # labelled Unclassified instead of raising.
        config = SimConfig(n=2, ell=1)
        counts, lengths = run_trials(config, "all_wrong", 1)
        assert counts[-1] == 2
        domains, yellows = label_paths(counts, 2, config.delta, config.ell)
        assert len(domains) == len(yellows) == lengths[0] - 1
        assert np.all(domains == DOMAINS.index(DomainLabel.UNCLASSIFIED))
        assert np.all(yellows == AREAS.index(YellowLabel.OUTSIDE))

    def test_cap_without_consensus_is_not_an_error(self):
        # The naive comparison variant with a hostile start may stall;
        # a capped path simply ends after max_rounds rounds.
        config = SimConfig(n=16, ell=2, seed=5, max_rounds=3, backend="agent")
        _, lengths = run_trials(config, "all_wrong_max_counters", 1)
        assert lengths[0] - 1 <= 3

    def test_exact_mirror_symmetry_agent_level(self):
        # all_wrong_max_counters under source opinion 0 is the mirror
        # image of its start under source opinion 1, agent by agent, so
        # with the same seed every agent-level path mirrors exactly.
        config1, config0 = (
            SimConfig(n=64, ell=8, seed=31, backend="agent", max_rounds=200, source_opinion=s)
            for s in (1, 0)
        )
        paths1 = split_paths(*run_trials(config1, "all_wrong_max_counters", 10))
        paths0 = split_paths(*run_trials(config0, "all_wrong_max_counters", 10))
        assert len({len(path) for path in paths1}) > 1
        assert paths0 == [[64 - k for k in path] for path in paths1]

    @pytest.mark.parametrize("preset", ["half_half", "all_wrong_max_counters"])
    def test_agent_trials_step_the_preset_by_hand(self, preset):
        # An agent block is its preset's class counts expanded by
        # _populations, then step_agent_level on the trials still short
        # of consensus, all on the block's stream.
        n, trials = 32, 3
        config = SimConfig(n=n, ell=4, seed=3, backend="agent")
        rng = derive_rng(3, "trials", n, preset, 0)
        opinions, counters = _populations(_preset_counts(preset, config, rng, trials), config)
        paths = [[k] for k in opinions.sum(axis=1).tolist()]
        live = list(range(trials))
        while True:
            going = [j for j, i in enumerate(live) if paths[i][-1] != n]
            live = [live[j] for j in going]
            if not live:
                break
            opinions, counters = step_agent_level(opinions[going], counters[going], config, rng)
            for i, k in zip(live, opinions.sum(axis=1).tolist()):
                paths[i].append(k)
        assert len({len(path) for path in paths}) > 1
        assert split_paths(*run_trials(config, preset, trials)) == paths

    @pytest.mark.parametrize("backend", ["agent", "aggregate"])
    @pytest.mark.parametrize(
        "preset",
        [np.zeros(8), (np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.int32)), 0.3, None],
        ids=["ndarray", "opinions_counters", "float", "none"],
    )
    def test_non_string_preset_is_usage_error(self, backend, preset):
        # A preset is a name or fraction:X, never a per-agent state.
        config = SimConfig(n=8, ell=2, backend=backend)
        with pytest.raises(UsageError, match="preset must be a string"):
            run_trials(config, preset, 2)

    def test_aggregate_trial_memory_stays_small(self):
        # Aggregate trials never hold per-agent samples: below 64 bytes
        # per agent at n = 2^20, set-up included (an n x 2*ell int64
        # sample-index array alone would be 672).
        n = 1 << 20
        config = SimConfig(n=n, seed=0)
        tracemalloc.start()
        try:
            counts, _ = run_trials(config, "all_wrong_max_counters", 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[-1] == n
        assert peak / n < 64

    @pytest.mark.parametrize("preset", PRESETS)
    def test_block_memory_does_not_grow_with_n(self, preset):
        # Presets are class counts and rounds are integer counts, so one
        # block of 2^40 agents per trial runs to consensus in a few
        # hundred KiB: no array has an agent axis.
        config = SimConfig(n=1 << 40, seed=0)
        tracemalloc.start()
        try:
            counts, lengths = run_trials(config, preset, BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(counts[np.cumsum(lengths) - 1] == config.n)
        assert peak < 2 << 20

    def test_naive_variant_runs(self):
        config = SimConfig(n=64, ell=8, seed=8, backend="agent", variant="naive")
        counts, lengths = run_trials(config, "half_half", 1)
        assert counts.size == lengths[0] >= 1  # comparison variant only needs to execute

    def test_cyan_start_passes_through_upward_domains(self):
        # From a wrong-consensus corner the domain sequence visits
        # Purple1 or Green1 before consensus in >= 95% of converging
        # trials (the escape route goes up through those areas).
        config = SimConfig(n=4096, c_sample=3.0, seed=17, backend="aggregate")
        trials = 100
        counts, lengths = run_trials(config, "cyan_corner", trials)
        domains, _ = label_paths(counts, 4096, config.delta, config.ell)
        ends = np.cumsum(lengths)
        assert np.all(counts[ends - 1] == 4096)
        upward = [DOMAINS.index(d) for d in (DomainLabel.PURPLE1, DomainLabel.GREEN1)]
        up = np.isin(domains, upward)
        through = sum(up[end - size : end - 1].any() for end, size in zip(ends, lengths))
        assert through / trials >= 0.95


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(UsageError):
            SimConfig(n=1)
        with pytest.raises(UsageError):
            SimConfig(n=16, ell=17)
        with pytest.raises(UsageError):
            SimConfig(n=16, ell=4, max_rounds=0)
        with pytest.raises(UsageError):
            SimConfig(n=16, ell=4, backend="warp")
        with pytest.raises(UsageError):
            SimConfig(n=16, ell=4, source_opinion=2)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 64.0), ("ell", 4.0), ("max_rounds", 2.5), ("seed", "x"),
         ("source_opinion", True), ("delta", "abc"), ("c_sample", None)],
    )
    def test_wrong_type_rejected(self, field, value):
        kwargs = {"n": 16, "ell": 4, field: value}
        with pytest.raises(UsageError, match=field):
            SimConfig(**kwargs)

    def test_naive_variant_needs_agent_backend(self):
        # The aggregate backend only implements FET rounds.
        with pytest.raises(UsageError):
            SimConfig(n=16, ell=4, variant="naive")

    def test_ell_derived_from_c_sample(self):
        config = SimConfig(n=4096, c_sample=3.0)
        assert config.ell == math.ceil(3.0 * math.log(4096))
