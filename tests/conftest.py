"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: pmfs come
from exact integer binomial coefficients, duels from the full (k+1)^2
double sum, so agreement with the package is a genuine cross-check.
The pair-state kernel oracle is the exception: it builds each row
separately through the scalar duel path, as a reference for the
vectorized markov.build_kernel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from fetsim.duel import binomial_pmf_vector
from fetsim.dynamics import flip_probs
from fetsim.markov import PRUNE_THRESHOLD
from fetsim.protocol import Population


def oracle_pmf(k: int, p: float, i: int) -> float:
    """Brute-force product formula with an exact integer coefficient."""
    return math.comb(k, i) * p**i * (1.0 - p) ** (k - i)


def oracle_pmf_vector(k: int, p: float) -> np.ndarray:
    return np.array([oracle_pmf(k, p, i) for i in range(k + 1)])


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


@pytest.fixture(scope="session")
def prob_grid():
    """The 0.05-step probability grid used by the acceptance checks."""
    return [round(0.05 * i, 10) for i in range(21)]
