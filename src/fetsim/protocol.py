"""Agent-level and aggregate simulation backends for the FET protocol.

FET (Follow the Emerging Trend), executed by every non-source agent at
every round: observe 2*ell uniformly random agents (with replacement,
self included), split the observations uniformly into two halves S' and
S'' of size ell, count the 1-opinions c' = Count(S') and
c'' = Count(S''), and update

    opinion <- 1   if c' > stored c'' from the previous round
    opinion <- 0   if c' < stored c''
    opinion unchanged on a tie,

then store the fresh c'' for the next round.  The source agent ignores
the rule and keeps the correct opinion throughout.

Two backends are provided.  The agent-level backend executes the rule
faithfully, including arbitrary adversarial counter memory, on one
population or on a batch of them (leading trial axes).  Agents sample
with replacement, so given the population an agent's two half-counts
are independent Bin(ell, x_t) draws: the histogram of non-source
agents over (opinion, stored counter), 2(ell+1) integers, is an exact
sufficient statistic for one round, adversarial counters included.
Every initial condition, an adversarial one included, is therefore
such a histogram: a preset is built directly as class counts at O(ell)
cost, never as n agents, and the agent backend expands the counts into
agents.  The aggregate backend draws the first round from the
histogram.  Afterwards every stored counter is an independent
Bin(ell, x_t) draw, so each later round is two binomial draws over the
pair of opinion-1 counts (k_t, k_{t+1}), with flip probabilities from
duel table rows (``duel._duel_table``) built once per round, for its
new distinct counts (k_t's rows are carried from the round before);
the test suite checks both laws against the agent level.

A trial is the path of opinion-1 counts, one integer per round.
``run_trials`` is the one trial driver.  The agent backend steps one
block of trials at a time as a stacked (trials, n) population; the
aggregate backend steps the count arrays of all its blocks in one
lockstep loop.  A trial leaves the loop at its first consensus round.
All paths come back end to end in one count array; labelling their
pairs is the caller's business (``domains.label_paths``).

Randomness is drawn from counter-based Philox streams keyed by hashes
of (seed, labels).  Each block of trials has its own stream, keyed by
(seed, n, preset, block index) with a fixed block size (BLOCK = 256
aggregate trials), and draws its random presets (one multinomial), then
its rounds, in the same order whether blocks step alone or together.
So a block's paths depend on (config, preset, seed, block index, its
number of trials), and a run of whole blocks is a prefix of every
longer run.  Within a block a path does depend on the trials after it:
each aggregate round draws all the block's keep draws, then its gain
draws, so a 10-trial run is not the first 10 paths of a BLOCK-trial run.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.random import Generator, Philox

from .config import check_number
from .duel import _duel_table, _pair_duels
from .errors import DomainError, UsageError

__all__ = [
    "SimConfig",
    "derive_rng",
    "run_trials",
    "step_agent_level",
    "step_aggregate",
]

SOURCE_INDEX = 0
PRESETS = (
    "all_wrong",
    "all_wrong_max_counters",
    "half_half",
    "yellow_center",
    "cyan_corner",
)
# Trials per aggregate block, and the cap on one agent-level round's
# sample indices per block (2^22 int64 entries, 32 MiB).
BLOCK = 256
AGENT_BLOCK_INDICES = 1 << 22


def derive_rng(seed: int, *stream: object) -> Generator:
    """Philox generator keyed by a hash of (seed, stream labels).

    Distinct label tuples give independent counter-based streams, so
    trial-level parallelism cannot change any result.
    """
    h = hashlib.blake2s(digest_size=16)
    h.update(str(int(seed)).encode())
    for part in stream:
        h.update(b"/")
        h.update(str(part).encode())
    key = np.frombuffer(h.digest(), dtype=np.uint64)
    return Generator(Philox(key=key))


@dataclass
class SimConfig:
    """A trial's inputs, and nothing else: equal configs run equal trials.

    ell is the per-half sample size (an agent reads 2*ell opinions per
    round); when omitted it is derived as ceil(c_sample * ln n).
    c_sample is an init-only argument (checked, never stored; None, the
    default, means 3.0), so SimConfig(n=4096) == SimConfig(n=4096, ell=25).
    backend selects agent-level rounds or the aggregate (class-count,
    then pair-state) rounds; the naive variant exists only agent-level.
    The partition margin delta is no input of a trial: it only labels
    the trial's pairs (domains.label_paths).
    """

    n: int
    ell: int | None = None
    # The class keeps this default, so an instance reads None, not its c_sample.
    c_sample: InitVar[float | None] = None
    source_opinion: int = 1
    max_rounds: int = 10_000
    seed: int = 0
    backend: str = "aggregate"
    variant: str = "fet"

    def __post_init__(self, c_sample: float | None) -> None:
        for name in ("n", "max_rounds", "seed", "source_opinion"):
            check_number(name, getattr(self, name), numbers.Integral)
        if self.ell is not None:
            check_number("ell", self.ell, numbers.Integral)
        c_sample = 3.0 if c_sample is None else c_sample
        check_number("c_sample", c_sample)
        if not c_sample > 0:
            raise UsageError(f"c_sample must be positive, got {c_sample!r}")
        if self.n < 2:
            raise UsageError(f"population size must be >= 2, got {self.n}")
        if self.ell is None:
            ell = c_sample * math.log(self.n)
            # A huge c_sample gives inf, which has no ceiling and fails the range check.
            self.ell = math.ceil(ell) if math.isfinite(ell) else ell
        if not 1 <= self.ell <= self.n:
            raise UsageError(f"need 1 <= ell <= n, got ell={self.ell}, n={self.n}")
        if self.max_rounds < 1:
            raise UsageError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.source_opinion not in (0, 1):
            raise UsageError(f"source_opinion must be 0 or 1, got {self.source_opinion}")
        if self.backend not in ("agent", "aggregate"):
            raise UsageError(f"backend must be 'agent' or 'aggregate', got {self.backend!r}")
        if self.variant not in ("fet", "naive"):
            raise UsageError(f"variant must be 'fet' or 'naive', got {self.variant!r}")
        if self.variant == "naive" and self.backend != "agent":
            raise UsageError(
                "variant 'naive' needs backend 'agent': the aggregate backend "
                "only implements FET rounds"
            )


def step_agent_level(
    opinions: np.ndarray,
    counters: np.ndarray,
    config: SimConfig,
    rng: Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous round: all reads against the pre-step population.

    opinions (uint8) and stored counters (int32) have shape (..., n):
    the last axis runs over agents, agent 0 being the source, and any
    leading axes index independent trials.  Returns the new opinions
    and counters in the same layout.

    Each agent draws its samples uniformly with replacement over the n
    agents of its own trial (itself included), one
    ``rng.integers(0, n, size=(*trials, n, 2*ell))`` call for the whole
    batch.  The 2*ell draws are i.i.d., so taking the first ell as S'
    and the rest as S'' is distributionally the same as a uniformly
    random split of the multiset.
    """
    n, ell = opinions.shape[-1], config.ell
    # The naive comparison variant has a single shared sample per round:
    # the fresh count is both compared and stored, which correlates
    # consecutive opinions.  Excluded from all acceptance checks.
    width = ell if config.variant == "naive" else 2 * ell
    idx = rng.integers(0, n, size=(*opinions.shape, width))
    # Flat indices (trial j's agents start at j * n), a half at a time.
    offsets = np.arange(0, opinions.size, n).reshape(*opinions.shape[:-1], 1, 1)
    flat = opinions.ravel()
    c_fresh = flat[idx[..., :ell] + offsets].sum(axis=-1, dtype=np.int32)
    c_store = flat[idx[..., -ell:] + offsets].sum(axis=-1, dtype=np.int32)
    new_op = np.where(
        c_fresh > counters,
        1,
        np.where(c_fresh < counters, 0, opinions),
    ).astype(np.uint8)
    new_op[..., SOURCE_INDEX] = config.source_opinion
    return new_op, c_store


def _class_round(
    hist: np.ndarray,
    config: SimConfig,
    rng: Generator,
) -> np.ndarray:
    """One FET round drawn from class counts; returns the new numbers of ones.

    hist is a (trials, 2, ell+1) stack of class counts.  Every agent's
    fresh count c' is an independent Bin(ell, x) draw with x the current
    fraction of ones (source included), so an agent in class (o, c)
    holds opinion 1 after the round with probability
    P(c' > c) + [o = 1] P(c' = c), and each class contributes one
    binomial draw: one rng.binomial over the whole stack, with the pmf
    rows and tails of one duel table over the distinct numbers of ones.
    Same law as step_agent_level, at O(ell) cost per trial.
    """
    ones = hist[:, 1].sum(axis=1) + config.source_opinion
    distinct, inverse = np.unique(ones, return_inverse=True)
    pmf, above = _duel_table(config.ell, distinct / config.n)
    gt = np.clip(above, 0.0, 1.0)[inverse]  # P(c' > c)
    probs = np.stack([gt, np.clip(gt + pmf[inverse], 0.0, 1.0)], axis=1)
    return rng.binomial(hist, probs).sum(axis=(1, 2)) + config.source_opinion


def step_aggregate(k_t, k_t1, config: SimConfig, rng: Generator) -> np.ndarray:
    """One round at the pair level for arrays of trials: two binomial draws each.

    k_t and k_t1 are integer arrays of the opinion-1 counts of rounds t
    and t+1, one entry per trial.  With source opinion 1 the next count
    is 1 + Bin(k_t1 - 1, keep) + Bin(n - k_t1, gain), flip probabilities
    from _flip_probs; with source opinion 0 the same draws run on the
    0-opinion counts n - k.  One binomial call: all keep draws, then gain.
    """
    n = config.n
    k_t, k_t1 = np.asarray(k_t), np.asarray(k_t1)
    if not (np.issubdtype(k_t.dtype, np.integer) and np.issubdtype(k_t1.dtype, np.integer)):
        raise DomainError(f"counts must be integers, got k_t={k_t!r}, k_t1={k_t1!r}")
    if np.any((k_t < 0) | (k_t > n) | (k_t1 < 0) | (k_t1 > n)):
        raise DomainError(f"counts must lie in [0, n={n}], got k_t={k_t}, k_t1={k_t1}")
    if np.any((n - k_t1 if config.source_opinion == 0 else k_t1) < 1):
        raise DomainError("k_t1 must count the source: at least one agent holds its opinion")
    return _pair_draws(k_t1, *_flip_probs(k_t, k_t1, config)[:2], config, rng)


def _flip_probs(k_t, k_t1, config: SimConfig, carried=None):
    """Flip probabilities (keep, gain) of each pair of counts, and the table to carry.

    With B(k) ~ Bin(ell, k/n), gain = P(B(k_t1) > B(k_t)) and
    keep = min(gain + P(B(k_t1) = B(k_t)), 1), taken on n - k for source
    opinion 0.  One duel table over the distinct counts of k_t and k_t1,
    or of k_t1 alone given k_t's carried (pmf rows, index per pair), then
    _pair_duels over the distinct pairs, so no pair's values depend on
    others.  The third value is k_t1's (pmf rows, index per pair).
    """
    n, shape = config.n, np.shape(k_t)
    if config.source_opinion == 0:
        k_t, k_t1 = n - k_t, n - k_t1
    # Pairs are keyed by row index: a k_t * (n + 1) + k_t1 key would
    # overflow int64 for n above about 3e9.
    if carried is None:
        distinct, index = np.unique(np.stack([k_t, k_t1]), return_inverse=True)
        i_t, i_t1 = index.reshape(2, -1)
    else:
        distinct, i_t1 = np.unique(k_t1, return_inverse=True)
    table = _duel_table(config.ell, distinct / n)
    rows_t, i_t = (table[0], i_t) if carried is None else carried
    pairs, inverse = np.unique(i_t * distinct.size + i_t1, return_inverse=True)
    gain, p_eq = _pair_duels(rows_t, table, *np.divmod(pairs, distinct.size))
    keep = np.minimum(gain + p_eq, 1.0)[inverse].reshape(shape)
    return keep, gain[inverse].reshape(shape), (table[0], i_t1)


def _pair_draws(k_t1, keep, gain, config: SimConfig, rng: Generator) -> np.ndarray:
    """Next opinion-1 counts from step_aggregate's draws: one binomial call, keep draws first."""
    n, mirror = config.n, config.source_opinion == 0
    held = np.asarray(n - k_t1 if mirror else k_t1)  # agents holding the source's opinion
    draws = rng.binomial(np.append(held - 1, n - held), np.append(keep, gain))
    k_next = (1 + draws[: held.size] + draws[held.size :]).reshape(held.shape)
    return n - k_next if mirror else k_next


def _preset_fraction(preset) -> float | None:
    """x0 of a "fraction:X" preset, None for a name in PRESETS; else a UsageError."""
    if not isinstance(preset, str):
        raise UsageError(
            f"a preset must be a string (a name in {PRESETS} or fraction:X), "
            f"got {type(preset).__name__}"
        )
    if preset.startswith("fraction:"):
        arg = preset.split(":", 1)[1]
        try:
            x0 = float(arg)
        except ValueError:
            x0 = math.nan
        if not 0.0 <= x0 <= 1.0:
            raise UsageError(f"fraction preset needs x0 in [0,1], got {arg!r}")
        return x0
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; known: {PRESETS}, fraction:X")
    return None


def _preset_counts(preset: str, config: SimConfig, rng: Generator, trials: int) -> np.ndarray:
    """Class counts of ``trials`` initial states, shape (trials, 2, ell+1), int64.

    Entry [t, o, c] counts trial t's non-source agents holding opinion o
    and stored counter c, so set-up costs O(ell) per trial whatever n.
    Accepted presets: the names in PRESETS and "fraction:X".
    Counter conventions: all_wrong stores 0.  all_wrong_max_counters and
    cyan_corner store the maximally misleading counter, which no fresh
    count c' can cross toward the source's opinion: ell for source
    opinion 1 and its mirror 0 for source opinion 0.  These draw
    nothing.  The remaining presets store uniformly random counters in
    [0, ell]: one multinomial per (trial, opinion), drawn in trial
    order, opinion 0 first, by one rng.multinomial call.
    """
    n, ell, src = config.n, config.ell, config.source_opinion
    x0 = _preset_fraction(preset)
    if preset in ("all_wrong", "all_wrong_max_counters", "cyan_corner"):
        hist = np.zeros((trials, 2, ell + 1), dtype=np.int64)
        hist[:, 1 - src, 0 if preset == "all_wrong" else ell * src] = n - 1
        return hist
    if preset == "half_half":
        # Half the non-source agents (round half up) hold opinion 1,
        # plus the source: n = 64 gives x_0 = 33/64 with source opinion 1.
        total = math.floor((n - 1) / 2 + 0.5) + src
    elif preset == "yellow_center":
        total = math.floor(n / 2 + 0.5)
    else:
        total = int(round(x0 * n))
    ones = min(max(total - src, 0), n - 1)  # non-source agents holding opinion 1
    uniform = np.full(ell + 1, 1.0 / (ell + 1))
    return rng.multinomial([n - 1 - ones, ones], uniform, size=(trials, 2))


def _populations(hist: np.ndarray, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """A block's (trials, 2, ell+1) class counts as (trials, n) opinions and counters.

    Each trial holds the source, then its agents class by class, all
    from one np.repeat.  Agents are exchangeable under uniform sampling,
    so their order does not change the law of a round.  The source
    stores agent 1's counter.  Opinions are uint8, counters int32:
    step_agent_level's layout.
    """
    trials, width = len(hist), config.ell + 1
    agents = np.repeat(np.tile(np.arange(2 * width), trials), hist.ravel())
    agents = agents.reshape(trials, config.n - 1)
    opinions, counters = agents // width, agents % width
    source = np.full((trials, 1), config.source_opinion)
    return (np.hstack([source, opinions]).astype(np.uint8),
            np.hstack([counters[:, :1], counters]).astype(np.int32))


def run_trials(config: SimConfig, initial: str, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``trials`` trials to consensus or the round cap, in lockstep blocks.

    Returns (counts, lengths): counts holds every trial's path of
    opinion-1 counts end to end, in trial order, as one int64 array,
    and lengths[i] is the number of counts in trial i's path.  A path
    ends at its first consensus round (all-correct is absorbing) or at
    max_rounds, so trial i took lengths[i] - 1 rounds and converged iff
    its last count is n * source_opinion.  ``initial`` is a preset
    string accepted by _preset_counts.  Blocks hold BLOCK aggregate
    trials, or as many agent-level trials as keep one round's sample
    indices within AGENT_BLOCK_INDICES (at least one), and agent blocks
    run one after another.  Block b draws from
    derive_rng(seed, "trials", n, initial, b): first its presets'
    class counts, then its rounds, in the same order when aggregate
    blocks step together.  So the first m whole blocks of a run are the
    same in every run of at least m blocks' trials (a BLOCK-trial run is
    a prefix of a BLOCK + 7-trial run), but a part block draws other
    paths than the first trials of a whole one: each round draws all
    its keep draws, then its gain draws.
    """
    check_number("trials", trials, numbers.Integral)
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    size = BLOCK if config.backend == "aggregate" else max(
        1, AGENT_BLOCK_INDICES // (config.n * 2 * config.ell))
    rngs = [derive_rng(config.seed, "trials", config.n, initial, b)
            for b in range(-(-trials // size))]
    if config.backend == "aggregate":
        return _paths(*_aggregate_rounds(config, initial, trials, rngs), trials)
    firsts = range(0, trials, size)
    blocks = [_agent_block(config, initial, min(size, trials - f), r) for f, r in zip(firsts, rngs)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _paths(lives: list, news: list, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """run_trials' layout by one scatter: round r took trials lives[r] to counts news[r]."""
    live = np.concatenate(lives)
    lengths = np.bincount(live, minlength=trials)
    rounds = np.repeat(np.arange(len(lives)), [a.size for a in lives])
    out = np.empty(live.size, dtype=np.int64)
    out[(np.cumsum(lengths) - lengths)[live] + rounds] = np.concatenate(news)
    return out, lengths


def _agent_block(config: SimConfig, initial: str, trials: int, rng: Generator):
    """One agent-level block in run_trials' layout: its class counts expanded, then stepped."""
    target = config.n * config.source_opinion
    opinions, counters = _populations(_preset_counts(initial, config, rng, trials), config)
    lives, news = [np.arange(trials)], [opinions.sum(axis=1, dtype=np.int64)]
    for _ in range(config.max_rounds):
        going = news[-1] != target
        if not going.any():
            break
        opinions, counters = step_agent_level(opinions[going], counters[going], config, rng)
        lives.append(lives[-1][going])
        news.append(opinions.sum(axis=1, dtype=np.int64))
    return _paths(lives, news, trials)


def _aggregate_rounds(config: SimConfig, initial, trials: int, rngs: list) -> tuple[list, list]:
    """Round records of all aggregate blocks, stepped in one lockstep loop.

    Each block draws its presets and class-count round, and its histograms
    are dropped; each later round takes _flip_probs once over all live
    pairs, carrying its table rows to the next, then every block makes
    step_aggregate's draws on its stream.
    """
    target = config.n * config.source_opinion
    lives, news = [[np.arange(trials)], []], [[], []]
    for first, rng in zip(range(0, trials, BLOCK), rngs):
        hist = _preset_counts(initial, config, rng, min(BLOCK, trials - first))
        news[0].append(hist[:, 1].sum(axis=1) + config.source_opinion)
        going = news[0][-1] != target
        lives[1].append(first + np.flatnonzero(going))
        news[1].append(_class_round(hist[going], config, rng))
    lives, news = [np.concatenate(a) for a in lives], [np.concatenate(a) for a in news]
    live, prev, counts, carried = lives[1], news[0][lives[1]], news[1], None
    for _ in range(1, config.max_rounds):
        going = counts != target
        live, prev, counts = live[going], prev[going], counts[going]
        carried = carried and (carried[0], carried[1][going])
        if live.size == 0:
            break
        keep, gain, carried = _flip_probs(prev, counts, config, carried)
        cuts, new = np.searchsorted(live, np.arange(len(rngs) + 1) * BLOCK), np.empty_like(counts)
        for b in np.flatnonzero(np.diff(cuts)):
            part = slice(cuts[b], cuts[b + 1])
            new[part] = _pair_draws(counts[part], keep[part], gain[part], config, rngs[b])
        lives.append(live)
        news.append(new)
        prev, counts = counts, new
    return lives, news
