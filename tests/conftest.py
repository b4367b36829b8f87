"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: pmfs come
from exact integer binomial coefficients, duels from the full (k+1)^2
double sum, so agreement with the package is a genuine cross-check.
The pair-state kernel oracle is the exception: it builds each row
separately through the scalar duel path, as a reference for the
vectorized markov.build_kernel.  The single-agent FET rule
(``agent_round``), the population mirror, the duel difference
distribution, the scalar log-space ``binomial_pmf`` and
``binomial_pmf_vector``, the kernel row reader
``next_count_distribution``, the population fraction, the swapped duel,
the label and point mirrors, the grid and Yellow' membership tests,
the list of every matching domain and the one-population preset
builder ``init_adversarial`` are kept here for the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

from scipy.special import gammaln

from fetsim.domains import DomainLabel, _coords, _domain_tests, _in_box
from fetsim.duel import DuelProbs, _check_count, _check_prob
from fetsim.dynamics import AnalysisConstants, flip_probs
from fetsim.errors import DomainError
from fetsim.markov import PRUNE_THRESHOLD, Kernel
from fetsim.protocol import Population, SimConfig, _population, _preset_counts


def oracle_pmf(k: int, p: float, i: int) -> float:
    """Brute-force product formula with an exact integer coefficient."""
    return math.comb(k, i) * p**i * (1.0 - p) ** (k - i)


def oracle_pmf_vector(k: int, p: float) -> np.ndarray:
    return np.array([oracle_pmf(k, p, i) for i in range(k + 1)])


def binomial_pmf_vector(k: int, p: float) -> np.ndarray:
    """Full pmf of Binomial(k, p) as a length k+1 array, in log space.

    The scalar form of duel._binomial_pmf_rows (same formula, same
    order of operations), for the kernel oracle and the test oracles.
    """
    k = _check_count("k", k)
    p = _check_prob("p", p)
    if p == 0.0:
        out = np.zeros(k + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(k + 1)
        out[k] = 1.0
        return out
    i = np.arange(k + 1)
    log_pmf = (
        gammaln(k + 1)
        - gammaln(i + 1)
        - gammaln(k - i + 1)
        + i * math.log(p)
        + (k - i) * math.log1p(-p)
    )
    return np.exp(log_pmf)


def binomial_pmf(k: int, p: float, i: int) -> float:
    """P(Binomial(k, p) = i), evaluated stably in log space."""
    k = _check_count("k", k)
    p = _check_prob("p", p)
    if not 0 <= i <= k:
        raise DomainError(f"outcome count i must satisfy 0 <= i <= k, got {i!r}")
    i = int(i)
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if p == 1.0:
        return 1.0 if i == k else 0.0
    log_pmf = (
        math.lgamma(k + 1)
        - math.lgamma(i + 1)
        - math.lgamma(k - i + 1)
        + i * math.log(p)
        + (k - i) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def oracle_duel(k: int, p: float, q: float) -> tuple[float, float, float]:
    """Full (k+1)^2 outcome-grid enumeration of the duel triple."""
    pmf_p = oracle_pmf_vector(k, p)
    pmf_q = oracle_pmf_vector(k, q)
    outer = np.outer(pmf_p, pmf_q)
    idx = np.arange(k + 1)
    lt = float(outer[idx[:, None] < idx[None, :]].sum())
    eq = float(np.trace(outer))
    gt = float(outer[idx[:, None] > idx[None, :]].sum())
    return lt, eq, gt


def oracle_kernel(n: int, ell: int) -> tuple[sparse.csr_matrix, float]:
    """Pair-state kernel matrix and pruned mass, one row at a time.

    Row (k_t, k_t1) is Bin(k_t1 - 1, p_keep_one) convolved with
    Bin(n - k_t1, p_gain_one), both from the scalar flip_probs at
    (k_t/n, k_t1/n), pruned below PRUNE_THRESHOLD.
    """
    rows, cols, vals = [], [], []
    pruned = 0.0
    for k_t in range(n + 1):
        for k_t1 in range(1, n + 1):
            fp = flip_probs(k_t / n, k_t1 / n, ell)
            dist = np.convolve(
                binomial_pmf_vector(k_t1 - 1, fp.p_keep_one),
                binomial_pmf_vector(n - k_t1, fp.p_gain_one),
            )  # over k_{t+2} - 1 in 0..n-1
            mask = dist >= PRUNE_THRESHOLD
            pruned += float(dist[~mask].sum())
            succ = np.nonzero(mask)[0]
            rows.append(np.full(succ.shape, k_t * n + (k_t1 - 1)))
            cols.append(k_t1 * n + succ)
            vals.append(dist[succ])
    size = (n + 1) * n
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return matrix, pruned


def next_count_distribution(kernel: Kernel, k_t: int, k_t1: int) -> np.ndarray:
    """Distribution of k_{t+2} over 1..n from the pair (k_t, k_t1)."""
    row = kernel.matrix.getrow(kernel.state_index(k_t, k_t1))
    out = np.zeros(kernel.n)
    for idx, p in zip(row.indices, row.data):
        out[idx % kernel.n] += p
    return out


def init_adversarial(preset, config: SimConfig, rng: np.random.Generator) -> Population:
    """One per-agent initial condition of a preset, in the agent order of _population."""
    return _population(_preset_counts(preset, config, rng, 1)[0], config)


def plant_pair_population(
    n: int, ell: int, k_t: int, k_t1: int, rng: np.random.Generator
) -> Population:
    """Agent configuration whose law matches the kernel state (k_t, k_t1).

    Opinions hold k_t1 ones (source first); stored counters are i.i.d.
    Bin(ell, k_t/n), the distribution they have after any round with
    fraction k_t/n.
    """
    opinions = np.zeros(n, dtype=np.uint8)
    opinions[:k_t1] = 1
    counters = rng.binomial(ell, k_t / n, size=n).astype(np.int32)
    return Population(opinions, counters)


@dataclass(frozen=True)
class AgentState:
    """One agent: opinion bit, stored half-sample count, source flag."""

    opinion: int
    prev_count: int
    is_source: bool = False


def agent_round(
    state: AgentState,
    first_half: "list[int] | np.ndarray",
    second_half: "list[int] | np.ndarray",
    ell: int,
    source_opinion: int = 1,
) -> AgentState:
    """Apply one FET update to a single agent.

    first_half are the ell observed opinion bits whose count is compared
    against the stored count from the previous round; second_half are
    the ell bits whose count replaces the stored one.
    """
    first = np.asarray(first_half)
    second = np.asarray(second_half)
    if first.shape != (ell,) or second.shape != (ell,):
        raise DomainError(
            f"both halves must contain exactly ell={ell} bits, "
            f"got {first.shape} and {second.shape}"
        )
    c_fresh = int(first.sum())
    c_store = int(second.sum())
    if state.is_source:
        return AgentState(source_opinion, c_store, True)
    if c_fresh > state.prev_count:
        opinion = 1
    elif c_fresh < state.prev_count:
        opinion = 0
    else:
        opinion = state.opinion
    return AgentState(opinion, c_store, False)


def fraction_ones(pop: Population) -> float:
    """Fraction of agents holding opinion 1 in a single population."""
    return float(pop.opinions.sum()) / pop.n


def swapped(duel: DuelProbs) -> DuelProbs:
    """The duel with the two binomial parameters exchanged."""
    return DuelProbs(p_lt=duel.p_gt, p_eq=duel.p_eq, p_gt=duel.p_lt)


def on_grid(point: tuple[float, float], n: int, tol: float = 1e-12) -> bool:
    """Whether both coordinates of (x_t, x_{t+1}) are multiples of 1/n within tol."""
    return all(abs(x * n - round(x * n)) <= tol * n for x in point)


def matching_domains(point, n: int, constants: AnalysisConstants) -> list[DomainLabel]:
    """All domain definitions a point satisfies, in precedence order."""
    x, y = _coords(point)
    return [label for label, hit in zip(DomainLabel, _domain_tests(x, y, constants)) if hit]


def in_yellow_prime(point, constants: AnalysisConstants) -> bool:
    """Membership in the square box Yellow' = [1/2-4d, 1/2+4d]^2."""
    return _in_box(*_coords(point), constants)


_MIRROR = {
    DomainLabel.GREEN1: DomainLabel.GREEN0,
    DomainLabel.GREEN0: DomainLabel.GREEN1,
    DomainLabel.PURPLE1: DomainLabel.PURPLE0,
    DomainLabel.PURPLE0: DomainLabel.PURPLE1,
    DomainLabel.RED1: DomainLabel.RED0,
    DomainLabel.RED0: DomainLabel.RED1,
    DomainLabel.CYAN1: DomainLabel.CYAN0,
    DomainLabel.CYAN0: DomainLabel.CYAN1,
    DomainLabel.YELLOW: DomainLabel.YELLOW,
    DomainLabel.UNCLASSIFIED: DomainLabel.UNCLASSIFIED,
}


def mirrored_label(label: DomainLabel) -> DomainLabel:
    """Label of the point reflection through (1/2, 1/2)."""
    return _MIRROR[label]


def mirrored_point(point: tuple[float, float]) -> tuple[float, float]:
    """The point reflection of a grid point (x_t, x_{t+1}) through (1/2, 1/2)."""
    x_t, x_t1 = point
    return 1.0 - x_t, 1.0 - x_t1


def mirror_population(pop: Population, ell: int) -> Population:
    """Flip every opinion and reflect every counter (c -> ell - c)."""
    return Population(1 - pop.opinions, ell - pop.prev_counts)


def difference_distribution(k: int, p: float, q: float) -> np.ndarray:
    """pmf of the signed difference B_k(q) - B_k(p).

    Returns a length 2k+1 array where index d+k holds
    P(B_k(q) - B_k(p) = d), d in [-k, k].
    """
    pmf_p = binomial_pmf_vector(k, p)
    pmf_q = binomial_pmf_vector(k, q)
    # index m = i_q + (k - i_p) runs over 0..2k, so d = m - k.
    return np.convolve(pmf_q, pmf_p[::-1])


@pytest.fixture(scope="session")
def prob_grid():
    """The 0.05-step probability grid used by the acceptance checks."""
    return [round(0.05 * i, 10) for i in range(21)]


@pytest.fixture(scope="session")
def count_vectors():
    """(n, ell, a, b): random count vectors that include 0 and n in both."""
    rng = np.random.default_rng(20261018)
    cases = []
    for n, ell in [(2, 1), (16, 4), (97, 13), (4096, 25), (8192, 80)]:
        a = np.concatenate([[0, n], rng.integers(0, n + 1, size=30)])
        b = np.concatenate([[n, 0], rng.integers(0, n + 1, size=20)])
        cases.append((n, ell, a, b))
    return cases
