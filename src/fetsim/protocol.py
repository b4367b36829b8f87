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
population or on a batch of them (leading trial axes).  The aggregate
backend reads the agents only once, to bin them for round 1.  Agents
sample with replacement, so given the population an agent's two
half-counts are independent Bin(ell, x_t) draws: the histogram of
non-source agents over (opinion, stored counter), 2(ell+1) integers,
is an exact sufficient statistic for one round, adversarial counters
included.  The first round is drawn from that histogram.  Afterwards
every stored counter is an independent Bin(ell, x_t) draw, so each
later round is two binomial draws over the pair of opinion-1 counts
(k_t, k_{t+1}); the test suite checks both laws against the agent
level.

A trial is the path of opinion-1 counts, one integer per round.
Labelling its pairs with the domain partition is the caller's business
(``domains.label_path``).

Randomness is drawn from counter-based Philox streams keyed by hashes
of (seed, trial, ...), so parallel trials are reproducible
independently of scheduling.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import check_delta, check_number
from .duel import binomial_pmf_vector
from .dynamics import AnalysisConstants, flip_probs
from .errors import DomainError, UsageError

__all__ = [
    "Population",
    "SimConfig",
    "Trajectory",
    "derive_rng",
    "init_adversarial",
    "run_trial",
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


def derive_rng(seed: int, *stream: object) -> np.random.Generator:
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
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class SimConfig:
    """Simulation parameters.

    ell is the per-half sample size (an agent reads 2*ell opinions per
    round); when omitted it is derived as ceil(c_sample * ln n).
    backend selects agent-level rounds or the aggregate (class-count,
    then pair-state) rounds; the naive variant exists only agent-level.
    """

    n: int
    ell: int | None = None
    c_sample: float = 3.0
    delta: float = 0.05
    source_opinion: int = 1
    max_rounds: int = 10_000
    seed: int = 0
    backend: str = "aggregate"
    variant: str = "fet"

    def __post_init__(self) -> None:
        for name in ("n", "max_rounds", "seed", "source_opinion"):
            check_number(name, getattr(self, name), numbers.Integral)
        if self.ell is not None:
            check_number("ell", self.ell, numbers.Integral)
        check_delta(self.delta)
        check_number("c_sample", self.c_sample)
        if self.n < 2:
            raise UsageError(f"population size must be >= 2, got {self.n}")
        if self.ell is None:
            self.ell = math.ceil(self.c_sample * math.log(self.n))
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

    def constants(self) -> AnalysisConstants:
        return AnalysisConstants.for_population(self.n, delta=self.delta, ell=self.ell)


@dataclass
class Population:
    """Vectorized population state; agent 0 is the source.

    The last axis runs over agents; any leading axes index independent
    trials, so a (trials, n) state steps a batch of populations at once.
    """

    opinions: np.ndarray  # uint8, shape (..., n)
    prev_counts: np.ndarray  # int32, shape (..., n)

    def __post_init__(self) -> None:
        self.opinions = np.asarray(self.opinions, dtype=np.uint8)
        self.prev_counts = np.asarray(self.prev_counts, dtype=np.int32)
        if self.opinions.shape != self.prev_counts.shape:
            raise UsageError("opinions and prev_counts must have equal shape")

    @property
    def n(self) -> int:
        """Agents per trial."""
        return self.opinions.shape[-1]


def step_agent_level(
    pop: Population,
    config: SimConfig,
    rng: np.random.Generator,
) -> Population:
    """One synchronous round: all reads against the pre-step population.

    Each agent draws its samples uniformly with replacement over the n
    agents of its own trial (itself included), one
    ``rng.integers(0, n, size=(*trials, n, 2*ell))`` call for the whole
    batch.  The 2*ell draws are i.i.d., so taking the first ell as S'
    and the rest as S'' is distributionally the same as a uniformly
    random split of the multiset.
    """
    n = pop.n
    ell = config.ell
    # The naive comparison variant has a single shared sample per round:
    # the fresh count is both compared and stored, which correlates
    # consecutive opinions.  Excluded from all acceptance checks.
    width = ell if config.variant == "naive" else 2 * ell
    idx = rng.integers(0, n, size=(*pop.opinions.shape, width))
    obs = np.take_along_axis(
        pop.opinions, idx.reshape(*pop.opinions.shape[:-1], -1), axis=-1
    ).reshape(idx.shape)
    c_fresh = obs[..., :ell].sum(axis=-1, dtype=np.int32)
    c_store = obs[..., -ell:].sum(axis=-1, dtype=np.int32)
    new_op = np.where(
        c_fresh > pop.prev_counts,
        1,
        np.where(c_fresh < pop.prev_counts, 0, pop.opinions),
    ).astype(np.uint8)
    new_op[..., SOURCE_INDEX] = config.source_opinion
    return Population(new_op, c_store)


def _step_class_counts(
    pop: Population,
    config: SimConfig,
    rng: np.random.Generator,
) -> int:
    """One FET round drawn from class counts; returns the new number of ones.

    Non-source agents are binned by (opinion, stored counter).  Every
    agent's fresh count c' is an independent Bin(ell, x) draw with x the
    current fraction of ones, so an agent in class (o, c) holds opinion 1
    after the round with probability P(c' > c) + [o = 1] P(c' = c), and
    each class contributes one binomial draw.  Same law as
    step_agent_level, at O(ell) cost after the O(n) binning.
    """
    ell = config.ell
    opinions = pop.opinions[SOURCE_INDEX + 1 :]
    counters = pop.prev_counts[SOURCE_INDEX + 1 :]
    hist = np.stack(
        [
            np.bincount(counters[opinions == 0], minlength=ell + 1),
            np.bincount(counters[opinions == 1], minlength=ell + 1),
        ]
    )
    ones = int(hist[1].sum()) + int(pop.opinions[SOURCE_INDEX])
    pmf = binomial_pmf_vector(ell, ones / pop.n)
    gt = np.clip(1.0 - np.cumsum(pmf), 0.0, 1.0)  # P(c' > c)
    probs = np.stack([gt, np.clip(gt + pmf, 0.0, 1.0)])
    return int(rng.binomial(hist, probs).sum()) + config.source_opinion


def step_aggregate(
    k_t: int,
    k_t1: int,
    config: SimConfig,
    rng: np.random.Generator,
) -> int:
    """One round at the pair level: two binomial draws over flip counts.

    k_t and k_t1 are the opinion-1 counts of rounds t and t+1.  With
    source opinion 1 the next count is
    1 + Bin(k_t1 - 1, p_keep_one) + Bin(n - k_t1, p_gain_one), the flip
    probabilities taken at (k_t/n, k_t1/n); with source opinion 0 the
    same draw runs on the 0-opinion counts n - k.
    """
    n = config.n
    try:
        k_t, k_t1 = operator.index(k_t), operator.index(k_t1)
    except TypeError:
        raise DomainError(f"counts must be integers, got k_t={k_t!r}, k_t1={k_t1!r}") from None
    if not (0 <= k_t <= n and 0 <= k_t1 <= n):
        raise DomainError(f"counts must lie in [0, n={n}], got k_t={k_t}, k_t1={k_t1}")
    mirror = config.source_opinion == 0
    if mirror:
        k_t, k_t1 = n - k_t, n - k_t1
    if k_t1 < 1:
        raise DomainError("k_t1 must count the source: at least one agent holds its opinion")
    fp = flip_probs(k_t / n, k_t1 / n, config.ell)
    ones_keep = int(rng.binomial(k_t1 - 1, fp.p_keep_one)) if k_t1 > 1 else 0
    ones_gain = int(rng.binomial(n - k_t1, fp.p_gain_one)) if k_t1 < n else 0
    k_next = 1 + ones_keep + ones_gain
    return n - k_next if mirror else k_next


def _check_population(pop: Population, config: SimConfig) -> Population:
    """Reject a per-agent state that does not fit ``config``."""
    if pop.n != config.n:
        raise UsageError(f"population has {pop.n} agents, config has n={config.n}")
    if pop.opinions.max() > 1:
        raise UsageError("opinions must be 0 or 1")
    if pop.opinions[SOURCE_INDEX] != config.source_opinion:
        raise UsageError(f"the source must hold source_opinion={config.source_opinion}")
    if pop.prev_counts.min() < 0 or pop.prev_counts.max() > config.ell:
        raise UsageError(f"stored counters must lie in [0, ell={config.ell}]")
    return pop


def init_adversarial(
    preset,
    config: SimConfig,
    rng: np.random.Generator,
) -> Population:
    """Build a per-agent initial condition for a named adversarial preset.

    Accepted presets: the names in PRESETS, a tuple ("fraction", x0),
    a string "fraction:X", or ("explicit", opinions, prev_counts).
    Counter conventions: all_wrong stores 0, all_wrong_max_counters and
    cyan_corner store ell (maximally misleading memory), the remaining
    presets store uniformly random counters in [0, ell].
    """
    n, ell, src = config.n, config.ell, config.source_opinion
    wrong = 1 - src

    name = preset
    arg = None
    if isinstance(preset, tuple):
        name, *rest = preset
        if name == "explicit":
            opinions, counters = rest
            pop = Population(np.array(opinions), np.array(counters))
            return _check_population(pop, config)
        arg = rest[0] if rest else None
    elif isinstance(preset, str) and preset.startswith("fraction:"):
        name, arg = "fraction", preset.split(":", 1)[1]

    opinions = np.full(n, wrong, dtype=np.uint8)
    opinions[SOURCE_INDEX] = src

    def random_counters() -> np.ndarray:
        return rng.integers(0, ell + 1, size=n).astype(np.int32)

    def with_ones(total_ones: int, counters: np.ndarray) -> Population:
        total_ones = int(min(max(total_ones, 1 if src == 1 else 0), n))
        op = np.zeros(n, dtype=np.uint8)
        if src == 1:
            op[SOURCE_INDEX] = 1
            op[1 : total_ones] = 1
        else:
            op[1 : 1 + total_ones] = 1
        return Population(op, counters)

    if name == "all_wrong":
        return Population(opinions, np.zeros(n, dtype=np.int32))
    if name in ("all_wrong_max_counters", "cyan_corner"):
        return Population(opinions, np.full(n, ell, dtype=np.int32))
    if name == "half_half":
        # Half the non-source agents (round half up) hold opinion 1,
        # plus the source: n = 64 gives x_0 = 33/64 with source opinion 1.
        non_source_ones = math.floor((n - 1) / 2 + 0.5)
        total = non_source_ones + (1 if src == 1 else 0)
        return with_ones(total, random_counters())
    if name == "yellow_center":
        total = math.floor(n / 2 + 0.5)
        return with_ones(total, random_counters())
    if name == "fraction":
        try:
            x0 = float(arg)
        except (TypeError, ValueError):
            x0 = math.nan
        if not 0.0 <= x0 <= 1.0:
            raise UsageError(f"fraction preset needs x0 in [0,1], got {arg!r}")
        return with_ones(int(round(x0 * n)), random_counters())
    raise UsageError(f"unknown preset {preset!r}; known: {PRESETS}, fraction:X, explicit")


@dataclass
class Trajectory:
    """One trial's path of opinion-1 counts.

    counts[t] is the number of agents holding opinion 1 at round t, a
    Python int.  The path ends at the first round at which every opinion
    equals the source's, which is then converged_round, or at the round
    cap with converged_round None.
    """

    counts: list[int] = field(default_factory=list)
    converged_round: int | None = None


def run_trial(
    config: SimConfig,
    initial,
    trial: int = 0,
) -> Trajectory:
    """Run one trial to consensus or the round cap.

    ``initial`` is a preset accepted by init_adversarial or an explicit
    Population, checked like an ("explicit", ...) preset.  The agent
    backend runs every round agent-level; the aggregate backend draws
    round 1 from the (opinion, stored counter) class counts and steps
    the pair of counts from round 2 on.  The trial stops at the first
    round whose count equals the source's consensus: all-correct is
    absorbing, so no later round can change it.  Hitting the cap
    without consensus yields a trajectory with converged_round = None,
    not an error.
    """
    rng = derive_rng(config.seed, "trial", trial)
    if isinstance(initial, Population):
        pop = _check_population(initial, config)
    else:
        pop = init_adversarial(initial, config, rng)
    target = config.n if config.source_opinion == 1 else 0

    counts = [int(pop.opinions.sum())]
    while counts[-1] != target and len(counts) <= config.max_rounds:
        if config.backend == "agent":
            pop = step_agent_level(pop, config, rng)
            counts.append(int(pop.opinions.sum()))
        elif len(counts) == 1:
            counts.append(_step_class_counts(pop, config, rng))
        else:
            counts.append(step_aggregate(counts[-2], counts[-1], config, rng))
    return Trajectory(counts, converged_round=len(counts) - 1 if counts[-1] == target else None)
