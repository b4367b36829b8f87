"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: pmfs come
from exact integer binomial coefficients, duels from the full (k+1)^2
double sum, so agreement with the package is a genuine cross-check.
The pair-state kernel oracles are the exception: one builds each row
separately through the scalar duel path, as a reference for the
vectorized markov.build_kernel; the other (``reference_kernel`` with
``reference_absorption_times``) is the earlier row-major build and
scipy's solve on a boolean-mask Q, which the library must match bit
for bit.  The single-agent FET rule (``agent_round``), the scalar
log-space ``binomial_pmf`` and ``binomial_pmf_vector``, the kernel row reader
``next_count_distribution``, the exact all-wrong consensus time
``expected_consensus_time_all_wrong`` (which the trial driver's
backends are cross-checked against), the population fraction, the swapped duel,
the label and point mirrors, the grid and Yellow' membership tests,
the list of every matching domain, the pointwise label oracles
``domain_oracle`` and ``area_oracle`` (Python loops over the
definitions, one float point at a time, in place of the library's
``np.select`` over whole arrays), the one-population preset builder
``init_adversarial``, the path splitter ``split_paths`` and the
per-trial Cyan and Yellow reductions (``cyan_oracle``,
``yellow_oracle``, labelling pair by pair with those oracles) are kept
here for the tests only.  A population is an
(opinions, counters) pair of per-agent arrays, agent 0 the source, as
step_agent_level takes and returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab
from scipy.special import gammaln

from fetsim.domains import DomainLabel, YellowLabel, _domain_tests, _in_box, _yellow_area_tests
from fetsim.duel import DuelProbs, _binomial_pmf_rows, _check_count, _check_prob, duels
from fetsim.dynamics import AnalysisConstants, flip_probs
from fetsim.errors import DomainError
from fetsim.markov import PRUNE_THRESHOLD, Kernel
from fetsim.protocol import SimConfig, _populations, _preset_counts


def oracle_pmf(k: int, p: float, i: int) -> float:
    """Brute-force product formula with an exact integer coefficient."""
    return math.comb(k, i) * p**i * (1.0 - p) ** (k - i)


def oracle_pmf_vector(k: int, p: float) -> np.ndarray:
    return np.array([oracle_pmf(k, p, i) for i in range(k + 1)])


def binomial_pmf_vector(k: int, p: float) -> np.ndarray:
    """Full pmf of Binomial(k, p) as a length k+1 array, in log space.

    The scalar form of duel._binomial_pmf_rows in the same order of
    operations, but with scipy's gammaln in place of the library's
    log-factorial port, so it checks that port independently; used by
    the kernel oracle and the test oracles.
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
            rows.append(np.full(succ.shape, (k_t1 - 1) * (n + 1) + k_t))
            cols.append(succ * (n + 1) + k_t1)
            vals.append(dist[succ])
    size = (n + 1) * n
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return matrix, pruned


def _convolve_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise full convolution of two row-aligned arrays.

    A direct sum, looping over the shorter operand's columns; an FFT's
    ~1e-17 noise would move entries across PRUNE_THRESHOLD.
    """
    if u.shape[1] > v.shape[1]:
        u, v = v, u
    width = v.shape[1]
    out = np.zeros((u.shape[0], u.shape[1] + width - 1))
    for i in range(u.shape[1]):
        out[:, i : i + width] += u[:, i, None] * v
    return out


def reference_kernel(n: int, ell: int) -> tuple[sparse.csr_matrix, float]:
    """The row-major build: kernel matrix and pruned mass, bit for bit.

    Per k_t1, the (k_t, outcome) pmf tables are convolved row by row,
    each block pruned, and the kept entries assembled through COO; the
    successor-major build with direct CSR assembly must give the same
    data, indices, indptr and pruned mass in every bit.
    """
    counts = np.arange(n + 1)
    gain, p_eq = duels(ell, counts[:, None] / n, counts / n)
    keep = np.minimum(gain + p_eq, 1.0)
    rows, cols, vals = [], [], []
    pruned = 0.0
    for b in range(1, n + 1):
        block = _convolve_rows(
            _binomial_pmf_rows(b - 1, keep[:, b]),
            _binomial_pmf_rows(n - b, gain[:, b]),
        )
        mask = block >= PRUNE_THRESHOLD
        pruned += float(block[~mask].sum())
        a, succ = np.nonzero(mask)
        vals.append(block[a, succ])
        rows.append(((b - 1) * (n + 1) + a).astype(np.int32))
        cols.append((succ * (n + 1) + b).astype(np.int32))
    size = (n + 1) * n
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return matrix, pruned


def reference_absorption_times(matrix: sparse.csr_matrix, absorbing: int) -> np.ndarray:
    """First-step solve of h - Q h = 1 by scipy's bicgstab, Q a boolean-mask copy.

    The operator is x - Q x, as markov.absorption_times applies it on
    the kernel's own CSR; without its structural checks, the two must
    agree in every bit.
    """
    size = matrix.shape[0]
    transient = np.arange(size) != absorbing
    q = matrix[transient][:, transient].tocsr()
    system = LinearOperator(q.shape, matvec=lambda x: x - q @ x, dtype=float)
    rhs = np.ones(q.shape[0])
    h_transient, info = bicgstab(system, rhs, rtol=1e-12, atol=0.0)
    residual = np.linalg.norm(system @ h_transient - rhs) / np.linalg.norm(rhs)
    assert info == 0 and residual <= 1e-10
    h = np.zeros(size)
    h[transient] = h_transient
    return h


def next_count_distribution(kernel: Kernel, k_t: int, k_t1: int) -> np.ndarray:
    """Distribution of k_{t+2} over 1..n from the pair (k_t, k_t1)."""
    row = kernel.matrix.getrow(kernel.state_index(k_t, k_t1))
    out = np.zeros(kernel.n)
    for idx, p in zip(row.indices, row.data):
        out[idx // (kernel.n + 1)] += p  # column (k_{t+2} - 1) * (n + 1) + k_t1
    return out


def expected_consensus_time_all_wrong(kernel: Kernel, times: np.ndarray) -> float:
    """Exact expected consensus round from the all-wrong start.

    With counters zeroed, a round-0 agent flips to 1 iff it sees at
    least one 1 among its ell fresh samples, so
    k_1 = 1 + Bin(n - 1, 1 - (1 - 1/n)^ell) and the consensus round
    equals the kernel hitting time from (1, k_1).
    """
    n, ell = kernel.n, kernel.ell
    p_flip = 1.0 - (1.0 - 1.0 / n) ** ell
    weights = _binomial_pmf_rows(n - 1, np.array([p_flip]))[0]  # over k_1 - 1
    start = kernel.state_index(1, 1)  # states (1, 1) .. (1, n) are n + 1 apart
    return float(weights @ times[start :: n + 1])


def init_adversarial(
    preset: str, config: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One trial's (opinions, counters) of a preset, in the agent order of _populations."""
    opinions, counters = _populations(_preset_counts(preset, config, rng, 1), config)
    return opinions[0], counters[0]


def split_paths(counts: np.ndarray, lengths: np.ndarray) -> list[list[int]]:
    """run_trials' end-to-end counts cut into one list of ints per trial."""
    return [path.tolist() for path in np.split(counts, np.cumsum(lengths)[:-1])]


def cyan_oracle(paths, n: int, constants: AnalysisConstants, bound: float) -> dict:
    """Cyan's escape search and gamma branch, one trial and one pair at a time.

    A trial fails unless it enters Cyan1, then leaves it within bound
    rounds into Green1 or Purple1.
    """
    good_exits = {DomainLabel.GREEN1, DomainLabel.PURPLE1}
    failures = 0
    exit_tally: dict[str, int] = {}
    exit_rounds: list[int] = []
    gamma_crossed = 0
    gamma_then_above_half = 0
    for counts in paths:
        labels = [domain_oracle((a / n, b / n), constants) for a, b in zip(counts, counts[1:])]
        t0 = next((i for i, lab in enumerate(labels) if lab is DomainLabel.CYAN1), None)
        if t0 is None:
            failures += 1
            continue
        t1 = next(
            (i for i in range(t0, len(labels)) if labels[i] is not DomainLabel.CYAN1),
            None,
        )
        if t1 is None:
            failures += 1
            continue
        exit_tally[labels[t1].value] = exit_tally.get(labels[t1].value, 0) + 1
        exit_rounds.append(t1 - t0)
        if not (t1 - t0 < bound and labels[t1] in good_exits):
            failures += 1
        crossings = [i for i in range(t0, t1) if counts[i + 1] / n > constants.gamma]
        if crossings:
            gamma_crossed += 1
            first = crossings[0]
            if first + 2 < len(counts) and counts[first + 2] / n > 0.5:
                gamma_then_above_half += 1
    return {
        "failures": failures,
        "exit_label_tally": exit_tally,
        "max_exit_rounds": max(exit_rounds) if exit_rounds else None,
        "trials_crossing_gamma_inside_cyan": gamma_crossed,
        "next_fraction_above_half_after_first_crossing": gamma_then_above_half,
    }


def yellow_oracle(paths, n: int, constants: AnalysisConstants, max_rounds: int):
    """Yellow's per-trial escape times and longest B runs, pair by pair.

    A trial that never leaves Yellow' gets escape time max_rounds.
    """
    escapes, b_dwells = [], []
    for counts in paths:
        yellows = [area_oracle((a / n, b / n), constants) for a, b in zip(counts, counts[1:])]
        esc = next((i for i, lab in enumerate(yellows) if lab is YellowLabel.OUTSIDE), None)
        escapes.append(max_rounds if esc is None else esc)
        longest = current = 0
        for lab in yellows[:esc]:
            if lab in (YellowLabel.B1, YellowLabel.B0):
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        b_dwells.append(longest)
    return escapes, b_dwells


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


def fraction_ones(opinions: np.ndarray) -> float:
    """Fraction of agents holding opinion 1 in a single population."""
    return float(opinions.sum()) / opinions.size


def swapped(duel: DuelProbs) -> DuelProbs:
    """The duel with the two binomial parameters exchanged."""
    return DuelProbs(p_lt=duel.p_gt, p_eq=duel.p_eq, p_gt=duel.p_lt)


def on_grid(point: tuple[float, float], n: int, tol: float = 1e-12) -> bool:
    """Whether both coordinates of (x_t, x_{t+1}) are multiples of 1/n within tol."""
    return all(abs(x * n - round(x * n)) <= tol * n for x in point)


def matching_domains(point, constants: AnalysisConstants) -> list[DomainLabel]:
    """All domain definitions a point (x_t, x_{t+1}) satisfies, in precedence order."""
    x, y = map(float, point)
    return [label for label, hit in zip(DomainLabel, _domain_tests(x, y, constants)) if hit]


def domain_oracle(point, constants: AnalysisConstants) -> DomainLabel:
    """The first domain definition a point satisfies, else Unclassified."""
    return next(iter(matching_domains(point, constants)), DomainLabel.UNCLASSIFIED)


def in_yellow_prime(point, constants: AnalysisConstants) -> bool:
    """Membership in the square box Yellow' = [1/2-4d, 1/2+4d]^2."""
    x, y = map(float, point)
    return _in_box(x, y, constants)


def area_oracle(point, constants: AnalysisConstants) -> YellowLabel:
    """The first A/B/C definition a point of Yellow' satisfies, else OutsideYellowPrime.

    The six definitions tile the box, so a box point that matches none
    is an error.
    """
    x, y = map(float, point)
    if not _in_box(x, y, constants):
        return YellowLabel.OUTSIDE
    for label, hit in zip(YellowLabel, _yellow_area_tests(x, y)):
        if hit:
            return label
    raise AssertionError(f"point {(x, y)} in Yellow' matched no A/B/C area")


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
