"""Exact pair-state Markov chain analysis for small populations.

Conditioned on the pair (k_t, k_t1) of opinion-1 counts at consecutive
rounds (source opinion fixed to 1), the next count is distributed as

    k_{t+2} ~ 1 + Bin(k_t1 - 1, p_keep_one) + Bin(n - k_t1, p_gain_one)

with flip probabilities evaluated at (k_t/n, k_t1/n), all taken from one
``duel.duels`` call over the grid of counts 0..n.  This module builds that
kernel by exact successor-major convolution of binomial pmfs over all
k_t at once, for the mirror k_t1 blocks b and n + 1 - b as one stack,
pruned by one mask and written straight into CSR from both ends; solves
h - Q h = 1 for the expected hitting times of the absorbing state
(n, n), Q applied on the kernel's own CSR, by a port of scipy's BiCGSTAB
(of scipy, only ``scipy.sparse`` is imported: the chain needs no
``scipy.linalg``), gated on the recomputed residual.

The pair-state chain assumes the stored counters are i.i.d.
Bin(ell, k_t/n), which holds after any round but not for an adversarial
start.  The aggregate backend bridges that first round exactly by
drawing it from the (opinion, stored counter) class counts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .config import check_number
from .duel import _binomial_pmf_rows, duels
from .errors import StructuralError, UsageError

__all__ = ["Kernel", "absorption_times", "build_kernel"]

PRUNE_THRESHOLD = 1e-15
# Bytes of one stacked operand (8 * (n + 1 - b) * 2 * (n + 1)) up to which
# blocks b and n + 1 - b are built as one stack: every pair at n <= 128,
# none at n = 256.  Uncapped, the stacked operand, product and output
# outgrow a 2 MiB L2, and the (256, 17) build went from 1.14 to 1.23 s.
STACK_BYTES = 1 << 19


@dataclass
class Kernel:
    """Sparse transition kernel on pair states (k_t, k_t1), k_t1 >= 1.

    State index: (k_t, k_t1) -> (k_t1 - 1) * (n + 1) + k_t, so each k_t1
    block is a run of consecutive states and (n, n) is the last one; a
    row holds the distribution of the successor pair (k_t1, k_{t+2}).
    Probabilities below PRUNE_THRESHOLD are dropped and their total
    tracked in pruned_mass.
    """

    n: int
    ell: int
    matrix: sparse.csr_matrix
    pruned_mass: float

    @property
    def num_states(self) -> int:
        return (self.n + 1) * self.n

    def state_index(self, k_t: int, k_t1: int) -> int:
        check_number("k_t", k_t, numbers.Integral)
        check_number("k_t1", k_t1, numbers.Integral)
        if not (0 <= k_t <= self.n and 1 <= k_t1 <= self.n):
            raise UsageError(f"invalid pair state ({k_t}, {k_t1}) for n={self.n}")
        return (k_t1 - 1) * (self.n + 1) + k_t

    @property
    def absorbing_index(self) -> int:
        return self.state_index(self.n, self.n)


def build_kernel(n: int, ell: int) -> Kernel:
    """Exact kernel over all pairs (k_t, k_t1) with k_t1 >= 1.

    Flip probabilities come from one duels call over the counts 0..n.
    Block k_t1 = b convolves Bin(b - 1, keep) with Bin(n - b, gain), and
    block c = n + 1 - b has the same two widths, swapped, so the pair is
    built as one stack: one pmf call per width, transposed to (outcome,
    (block, k_t)) and convolved successor-major over the shorter operand,
    a direct sum in contiguous slabs (FFT noise would move entries across
    PRUNE_THRESHOLD).  The middle block at odd n, and a pair whose stack
    outgrows STACK_BYTES, run through the same loop one block at a time.
    States are numbered k_t1-major, so each block is one run of CSR rows:
    one mask prunes a contiguous (k_t, successor) copy of the stack, and
    block b's kept entries are appended at the front of one buffer while
    block c's fill it from the back.  The buffer grows in place by 1.25x,
    its back segment moved to the new end, and one last move closes the
    gap: one copy of the kept entries is held.
    """
    check_number("n", n, numbers.Integral)
    check_number("ell", ell, numbers.Integral)
    if n > 256:
        raise UsageError(f"build_kernel supports n <= 256 (cost control), got {n}")
    if n < 2:
        raise UsageError(f"population size must be >= 2, got {n}")
    if not 1 <= ell <= n:
        raise UsageError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    # Duel of B(a/n) against B(b/n) at [a, b]: gain = P(B(k_t1/n) > B(k_t/n)).
    counts = np.arange(n + 1)
    gain, p_eq = duels(ell, counts[:, None] / n, counts / n)
    keep = np.minimum(gain + p_eq, 1.0)
    # Row x: block x's probabilities for its shorter operand (keep up to the middle block).
    short = np.where(2 * counts <= n + 1, keep, gain).T
    long = np.where(2 * counts <= n + 1, gain, keep).T
    size = (n + 1) * n  # state indices stay below 65,792, so int32 holds them
    data, indices = np.empty(0), np.empty(0, dtype=np.int32)
    row_counts, pruned = np.empty(size, dtype=np.int32), np.empty(n)
    # [a, j]: the column of successor pair (b, j + 1) less b, the same in every block.
    columns = np.broadcast_to(np.arange(n, dtype=np.int32) * (n + 1), (n + 1, n))
    front = back = 0  # data[:front] holds blocks 1..b, data[back:] blocks c..n
    for b in range(1, (n + 3) // 2):
        c = n + 1 - b
        pair = (b, c) if b < c else (b,)
        for group in [pair] if 16 * c * (n + 1) <= STACK_BYTES else [(x,) for x in pair]:
            u = np.ascontiguousarray(_binomial_pmf_rows(b - 1, short[group, :].ravel()).T)
            v = np.ascontiguousarray(_binomial_pmf_rows(n - b, long[group, :].ravel()).T)
            block = np.empty((n, v.shape[1]))  # [j, (x, a)]: P(k_{t+2} = j + 1 | (a, x))
            np.multiply(u[0], v, out=block[: len(v)])  # 0.0 + p is p for p >= 0
            block[len(v) :] = 0.0
            product = np.empty_like(v)
            for i in range(1, len(u)):
                block[i : i + len(v)] += np.multiply(u[i], v, out=product)
            del u, v, product  # freed first, so the transposed copy does not raise peak RSS
            block = block.T.copy()  # row (x, a) is the row of state (x - 1) * (n + 1) + a
            mask = block >= PRUNE_THRESHOLD
            kept = mask.sum(axis=1, dtype=np.int32)
            if kept.sum() > back - front:  # grow in place: realloc, not a second copy
                old, tail = data.size, data.size - back
                data.resize(max(front + int(kept.sum()) + tail, int(1.25 * old)), refcheck=False)
                indices.resize(data.size, refcheck=False)
                back = data.size - tail
                data[back:], indices[back:] = data[old - tail : old], indices[old - tail : old]
            for at, x in enumerate(group):
                rows = slice(at * (n + 1), (at + 1) * (n + 1))
                row_counts[(x - 1) * (n + 1) : x * (n + 1)] = kept[rows]
                pruned[x - 1] = block[rows][~mask[rows]].sum()
                count = int(kept[rows].sum())
                if x == b:
                    dest, front = slice(front, front + count), front + count
                else:
                    dest, back = slice(back - count, back), back - count
                data[dest], indices[dest] = block[rows][mask[rows]], columns[mask[rows]] + x
    nnz = front + data.size - back
    data[front:nnz], indices[front:nnz] = data[back:], indices[back:]
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(row_counts, out=indptr[1:])
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    # Summed one block at a time in block order 1..n, whatever order they were built in.
    return Kernel(n=n, ell=ell, matrix=matrix, pruned_mass=float(np.cumsum(pruned)[-1]))


def _first_states(kernel: Kernel, indices: np.ndarray) -> list[tuple[int, int]]:
    """The pair states (k_t, k_t1) of the first ten state indices, for error messages."""
    return [(int(i) % (kernel.n + 1), int(i) // (kernel.n + 1) + 1) for i in indices[:10]]


def _validate_rows(kernel: Kernel) -> None:
    sums = np.asarray(kernel.matrix.sum(axis=1)).ravel()
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-10)[0]
    if bad.size:
        raise StructuralError(
            f"{bad.size} kernel row(s) do not sum to 1 within 1e-10; "
            f"first offenders: {_first_states(kernel, bad)}"
        )


def _reaching(matrix: sparse.csr_matrix, target: int) -> np.ndarray:
    """Mask of the states with a path of nonzero entries to target.

    A fixed-point sweep: each pass adds every state with a nonzero stored
    successor already seen.  An edge is any entry != 0, never a sum of
    them, so cancelling entries hide no edge and a stored 0.0 makes none.
    """
    edges = matrix.data != 0
    pattern = sparse.csr_matrix((edges, matrix.indices, matrix.indptr), shape=matrix.shape)
    seen, grown = None, np.arange(matrix.shape[0]) == target
    while not np.array_equal(seen, grown):
        seen, grown = grown, grown | (pattern @ grown)
    return seen


def _check_absorbing(kernel: Kernel) -> None:
    """Verify (n, n) is absorbing, unique, and reachable from all (sweep: O(diameter * nnz))."""
    absorbing = kernel.absorbing_index
    diag = kernel.matrix.diagonal()
    if abs(diag[absorbing] - 1.0) > 1e-12:
        raise StructuralError("state (n, n) is not absorbing")
    others = np.nonzero(diag >= 1.0 - 1e-12)[0]
    others = others[others != absorbing]
    if others.size:
        raise StructuralError(
            f"unexpandable self-loop states besides (n,n): {_first_states(kernel, others)}"
        )
    missing = np.flatnonzero(~_reaching(kernel.matrix, absorbing))
    if missing.size:
        raise StructuralError(
            f"{missing.size} state(s) cannot reach (n,n); "
            f"first offenders: {_first_states(kernel, missing)}"
        )


def _bicgstab(matvec, b: np.ndarray) -> tuple[np.ndarray, int]:
    """BiCGSTAB for a x = b, matvec(x) = a x: rtol 1e-12, atol 0, x0 = 0, no preconditioner.

    A port of scipy 1.17.1's pure-Python ``bicgstab``, with r in place of its copy s:
    the same numpy operations in order, so x and info (0, 10 * N, -10 or -11) match
    scipy's bit for bit.
    """
    bnrm2 = np.linalg.norm(b)
    atol = max(0.0, 1e-12 * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    x = np.zeros(len(b))
    rhotol = omegatol = np.finfo(np.float64).eps ** 2  # scipy's (Fortran-derived) choice
    r, rtilde = b.copy(), b.copy()
    for iteration in range(10 * len(b)):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(rtilde, r)
        if np.abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if np.abs(omega) < omegatol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        v = matvec(p)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * p
            return x, 0
        t = matvec(r)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
    return x, 10 * len(b)


def absorption_times(kernel: Kernel) -> np.ndarray:
    """Expected rounds to reach (n, n) from every pair state.

    Validates row normalization and absorbency, then solves the
    first-step equations h - Q h = 1 over transient states with
    ``_bicgstab`` (relative tolerance 1e-12), a port of scipy 1.17.1's
    BiCGSTAB, equal in every bit to scipy's on the operator x - Q x.  Q x
    is read off the kernel's own CSR, never copied, so the solve
    allocates only vectors.  The true relative residual is recomputed
    from h and must be at most 1e-10: on ill-conditioned chains (hitting
    times of 1e8 and more, e.g. ell = 1) the solver can report
    convergence with a true residual far above that (7e-5 at n = 64,
    ell = 1), so its own flag is not trusted alone.  Index the result
    with kernel.state_index.
    """
    _validate_rows(kernel)
    _check_absorbing(kernel)

    def first_step(x: np.ndarray) -> np.ndarray:
        # (n, n) is the last state: Q x is the kernel times x, 0 appended, less its last entry.
        return x - (kernel.matrix @ np.append(x, 0.0))[:-1]

    rhs = np.ones(kernel.num_states - 1)
    h_transient, info = _bicgstab(first_step, rhs)
    residual = np.linalg.norm(first_step(h_transient) - rhs) / np.linalg.norm(rhs)
    if info != 0 or not residual <= 1e-10:
        raise StructuralError(
            f"linear solve residual {residual:.3e} exceeds 1e-10 (bicgstab info {info})"
        )
    return np.append(h_transient, 0.0)
