"""Exact pair-state Markov chain analysis for small populations.

Conditioned on the pair (k_t, k_t1) of opinion-1 counts at consecutive
rounds (source opinion fixed to 1), the next count is distributed as

    k_{t+2} ~ 1 + Bin(k_t1 - 1, p_keep_one) + Bin(n - k_t1, p_gain_one)

with flip probabilities evaluated at (k_t/n, k_t1/n), all taken from one
``duel.duel_table`` over the counts 0..n.  This module builds that
transition kernel by exact convolution of binomial pmfs, vectorized
over k_t, solves the first-step equations for expected
hitting times of the absorbing state (n, n) iteratively (BiCGSTAB,
gated on the recomputed residual), and cross-validates both simulation
backends against the solver.  Both simulations are the protocol's own
trial driver, ``run_trials``, on the agent or the aggregate backend.

The pair-state chain assumes the stored counters are i.i.d.
Bin(ell, k_t/n), which holds after any round but not for an adversarial
start.  The aggregate backend bridges that first round exactly by
drawing it from the (opinion, stored counter) class counts, and
``simulate_exact_check`` reports say so in their ``note`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import bicgstab

from .duel import _binomial_pmf_rows, duel_table
from .errors import StructuralError, UsageError
from .protocol import SimConfig, run_trials

__all__ = [
    "Kernel",
    "absorption_times",
    "build_kernel",
    "expected_consensus_time_all_wrong",
    "simulate_exact_check",
]

PRUNE_THRESHOLD = 1e-15
BRIDGE_NOTE = (
    "pair-state kernel assumes stored counters i.i.d. Bin(ell, k_t/n), the "
    "post-round distribution; aggregate trials draw their first round "
    "exactly from the (opinion, stored counter) class counts of the "
    "adversarial start, agent-level trials run every round per agent"
)


@dataclass
class Kernel:
    """Sparse transition kernel on pair states (k_t, k_t1), k_t1 >= 1.

    State index: (k_t, k_t1) -> k_t * n + (k_t1 - 1); a row holds the
    distribution of the successor pair (k_t1, k_{t+2}).  Probabilities
    below PRUNE_THRESHOLD are dropped and their total tracked in
    pruned_mass.
    """

    n: int
    ell: int
    matrix: sparse.csr_matrix
    pruned_mass: float

    @property
    def num_states(self) -> int:
        return (self.n + 1) * self.n

    def state_index(self, k_t: int, k_t1: int) -> int:
        if not (0 <= k_t <= self.n and 1 <= k_t1 <= self.n):
            raise UsageError(f"invalid pair state ({k_t}, {k_t1}) for n={self.n}")
        return k_t * self.n + (k_t1 - 1)

    def state_of_index(self, idx: int) -> tuple[int, int]:
        """The pair state (k_t, k_t1) at a state index."""
        return idx // self.n, idx % self.n + 1

    @property
    def absorbing_index(self) -> int:
        return self.state_index(self.n, self.n)


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


def build_kernel(n: int, ell: int) -> Kernel:
    """Exact kernel over all pairs (k_t, k_t1) with k_t1 >= 1.

    The duel triples for every pair come from one duel_table over the
    counts 0..n; then, per k_t1, the two binomial row pmfs and their
    convolution are computed for all k_t at once and pruned.  The kept entries are assembled once;
    within a row they stay in successor order, which keeps the matrix
    deterministic.
    """
    if n > 256:
        raise UsageError(f"build_kernel supports n <= 256 (cost control), got {n}")
    if n < 2:
        raise UsageError(f"population size must be >= 2, got {n}")
    if not 1 <= ell <= n:
        raise UsageError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    # Duel of B(a/n) against B(b/n) at [a, b].
    counts = np.arange(n + 1)
    p_lt, p_eq, _ = duel_table(ell, counts, counts, n)
    gain = p_lt  # P(B(k_t1/n) > B(k_t/n))
    keep = np.minimum(gain + p_eq, 1.0)
    # block[a, j]: P(k_{t+2} = j + 1 | (a, b)), the row of state a*n + b - 1.
    # Pruning each block as it is built bounds memory by the kept entries.
    rows, cols, vals = [], [], []
    pruned = 0.0
    for b in range(1, n + 1):
        block = _convolve_rows(
            _binomial_pmf_rows(b - 1, keep[:, b]),
            _binomial_pmf_rows(n - b, gain[:, b]),
        )
        mask = block >= PRUNE_THRESHOLD
        pruned += float(block[~mask].sum())
        a, succ = np.nonzero(mask)  # k_{t+2} = succ + 1
        vals.append(block[a, succ])
        # State indices stay below (n + 1) * n <= 65,792, so int32 holds them.
        rows.append((a * n + b - 1).astype(np.int32))
        cols.append((b * n + succ).astype(np.int32))  # successor pair (k_t1, k_{t+2})
    size = (n + 1) * n
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return Kernel(n=n, ell=ell, matrix=matrix, pruned_mass=pruned)


def _validate_rows(kernel: Kernel, tol: float = 1e-10) -> None:
    sums = np.asarray(kernel.matrix.sum(axis=1)).ravel()
    bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
    if bad.size:
        states = [kernel.state_of_index(int(i)) for i in bad[:10]]
        raise StructuralError(
            f"{bad.size} kernel row(s) do not sum to 1 within {tol}; "
            f"first offenders: {states}"
        )


def _check_absorbing(kernel: Kernel) -> None:
    """Verify (n, n) is absorbing, unique, and reachable from every state."""
    absorbing = kernel.absorbing_index
    diag = kernel.matrix.diagonal()
    if abs(diag[absorbing] - 1.0) > 1e-12:
        raise StructuralError("state (n, n) is not absorbing")
    others = np.nonzero(diag >= 1.0 - 1e-12)[0]
    others = others[others != absorbing]
    if others.size:
        states = [kernel.state_of_index(int(i)) for i in others[:10]]
        raise StructuralError(f"unexpandable self-loop states besides (n,n): {states}")
    # Reverse reachability sweep: every state must reach the absorber.
    reached = breadth_first_order(
        kernel.matrix.T, absorbing, directed=True, return_predecessors=False
    )
    missing = np.setdiff1d(np.arange(kernel.num_states), reached, assume_unique=False)
    if missing.size:
        states = [kernel.state_of_index(int(i)) for i in missing[:10]]
        raise StructuralError(
            f"{missing.size} state(s) cannot reach (n,n); first offenders: {states}"
        )


def absorption_times(kernel: Kernel) -> np.ndarray:
    """Expected rounds to reach (n, n) from every pair state.

    Validates row normalization and absorbency, then solves the
    first-step linear system (I - Q) h = 1 over transient states with
    unpreconditioned BiCGSTAB (relative tolerance 1e-12).  The true
    relative residual is recomputed from the returned h and must be at
    most 1e-10: on ill-conditioned chains (hitting times of 1e8 and
    more, e.g. ell = 1) the solver can report convergence with a true
    residual far above that (7e-5 at n = 64, ell = 1), so its own flag
    is not trusted alone.
    Index the result with kernel.state_index.
    """
    _validate_rows(kernel)
    _check_absorbing(kernel)
    size = kernel.num_states
    absorbing = kernel.absorbing_index
    transient = np.arange(size) != absorbing
    q = kernel.matrix[transient][:, transient].tocsr()
    ident = sparse.identity(q.shape[0], format="csr")
    rhs = np.ones(q.shape[0])
    h_transient, info = bicgstab(ident - q, rhs, rtol=1e-12, atol=0.0)
    residual = np.linalg.norm((ident - q) @ h_transient - rhs) / np.linalg.norm(rhs)
    if info != 0 or not residual <= 1e-10:
        raise StructuralError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 (bicgstab info {info})"
        )
    h = np.zeros(size)
    h[transient] = h_transient
    return h


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
    start = kernel.state_index(1, 1)  # states (1, 1) .. (1, n) are contiguous
    return float(weights @ times[start : start + n])


def _simulate_hitting_times(
    n: int,
    ell: int,
    trials: int,
    seed: int,
    backend: str,
    max_rounds: int,
) -> np.ndarray:
    """Consensus rounds from the all-wrong start, one entry per trial.

    The trials run through run_trials on the chosen backend; a trial
    that hits max_rounds is a StructuralError.
    """
    config = SimConfig(n=n, ell=ell, backend=backend, seed=seed, max_rounds=max_rounds)
    times = [traj.converged_round for traj in run_trials(config, "all_wrong", trials)]
    if None in times:
        raise StructuralError(
            f"{times.count(None)} {backend} trial(s) did not converge in {max_rounds} rounds"
        )
    return np.array(times, dtype=np.int64)


def simulate_exact_check(
    n: int,
    ell: int,
    trials: int = 10_000,
    seed: int = 0,
    max_rounds: int = 100_000,
    kernel: Kernel | None = None,
) -> dict:
    """Cross-validate both backends against the exact solver.

    Runs `trials` trials per backend from the all-wrong start, compares
    each empirical mean consensus time to the kernel-derived exact
    expectation at 3 standard errors, and the two backends to each
    other.  Returns a JSON-ready report; verdicts are in report["pass"].
    """
    if n > 64:
        raise UsageError(f"simulate_exact_check supports n <= 64, got {n}")
    if kernel is None:
        kernel = build_kernel(n, ell)
    times = absorption_times(kernel)
    exact = expected_consensus_time_all_wrong(kernel, times)

    report: dict = {
        "n": n,
        "ell": ell,
        "trials": trials,
        "seed": seed,
        "note": BRIDGE_NOTE,
        "exact_expected_rounds": exact,
        "pruned_mass": kernel.pruned_mass,
        "backends": {},
    }
    means = {}
    ses = {}
    overall = True
    for backend in ("agent", "aggregate"):
        sample = _simulate_hitting_times(n, ell, trials, seed, backend, max_rounds)
        mean = float(sample.mean())
        se = float(sample.std(ddof=1) / math.sqrt(trials))
        ok = abs(mean - exact) <= 3.0 * se
        means[backend], ses[backend] = mean, se
        overall &= ok
        report["backends"][backend] = {
            "mean": mean,
            "stderr": se,
            "ci99_low": mean - 3 * se,
            "ci99_high": mean + 3 * se,
            "matches_exact_3sigma": ok,
        }
    cross_se = math.hypot(ses["agent"], ses["aggregate"])
    cross_ok = abs(means["agent"] - means["aggregate"]) <= 3.0 * cross_se
    overall &= cross_ok
    report["backends_agree_3sigma"] = cross_ok
    report["pass"] = bool(overall)
    return report
