"""Exact and bounded win/tie/loss probabilities for binomial duels.

A *binomial duel* draws two independent variables B_k(p) and B_k(q) and
asks which one is larger.  The triple

    (P(B_k(p) < B_k(q)),  P(B_k(p) = B_k(q)),  P(B_k(p) > B_k(q)))

is the primitive that every opinion-flip probability in the FET protocol
reduces to, so this module is the computational core of the package.
Everything here is a pure function of its arguments and safe for
concurrent use.

The exact triple is computed from the two probability mass functions,
which are themselves evaluated in log space for numerical stability.
Their log-factorials come from a port of Cephes ``lgam`` (the routine
behind ``scipy.special.gammaln``) at integer arguments, equal to it in
every bit, so importing this module loads numpy and nothing heavier.
``duels`` is the one evaluator: it takes broadcast arrays of
probabilities and gives each pair p_lt and p_eq from its own dot
products, so a pair has the same bits alone, in a batch or in a grid.
The scalar triple, the pair-state kernel and the expectation map call
it; the aggregate backend, whose counts are distinct already, calls its
two steps ``_duel_table`` and ``_pair_duels`` directly, with p-side
rows that may come from another table.  Closed-form lower bounds on the
favorite's and the underdog's win probability are provided alongside,
expressed through the Hoeffding tail and a Berry-Esseen normal
correction respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructuralError

__all__ = [
    "BERRY_ESSEEN_C",
    "DuelProbs",
    "duels",
    "exact_duel",
    "hoeffding_duel_bound",
    "normal_cdf",
    "underdog_lower_bound",
]

# Berry-Esseen constant used by the underdog bound.
BERRY_ESSEEN_C = 0.4748


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def _check_count(name: str, value: int, minimum: int = 0) -> int:
    if value != int(value) or int(value) < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DuelProbs:
    """Outcome probabilities of one binomial duel.

    ``p_lt`` is the probability that the first variable is strictly
    smaller, ``p_eq`` that both are equal, ``p_gt`` that the first is
    strictly larger.  The three fields sum to one up to float round-off.
    """

    p_lt: float
    p_eq: float
    p_gt: float

    def __post_init__(self) -> None:
        for name in ("p_lt", "p_eq", "p_gt"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise DomainError(f"DuelProbs.{name} out of [0,1]: {v!r}")
        total = self.p_lt + self.p_eq + self.p_gt
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"DuelProbs does not sum to 1: {total!r}")


# Cephes lgam's Stirling-series constants: log(sqrt(2 pi)) and the
# correction polynomial A(1/x^2) used below x = 1000.
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


@lru_cache(maxsize=32)
def _log_factorials(size: int) -> np.ndarray:
    """log m! for m < size: Cephes lgam(m + 1), bit for bit; read-only.

    Below x = m + 1 = 13 Cephes takes the log of the exact float product
    m!; from there the Stirling series
    (x - 1/2) log x - x + log sqrt(2 pi) + A(1/x^2)/x, with its 5-term A
    below 1000 and a 3-term tail from 1000 on.  Every log is math.log's.
    """
    f = np.empty(size)
    small = min(size, 12)
    f[:small] = [math.log(float(math.factorial(m))) for m in range(small)]
    x = np.arange(13.0, size + 1.0)
    if x.size:
        p = 1.0 / (x * x)
        q = (x - 0.5) * np.array([math.log(v) for v in x.tolist()]) - x + _LS2PI
        series = _LGAM_A[0]
        for coef in _LGAM_A[1:]:
            series = series * p + coef
        tail = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + (
            0.0833333333333333333333
        )
        f[12:] = q + np.where(x < 1000.0, series, tail) / x
    f.flags.writeable = False
    return f


def _binomial_pmf_rows(k: int, p: np.ndarray) -> np.ndarray:
    """Row r is the pmf of Binomial(k, p[r]), a (len(p), k+1) array.

    Each entry is evaluated in log space, so nothing over- or underflows
    for k up to ~10^4; rows sum to 1 within a few k*eps.  The binomial
    coefficient is log k! - log i! - log (k-i)!, sliced from a cached
    log-factorial table whose power-of-two size serves every smaller k.
    Rows with p = 0 or p = 1 are their point masses.  The logs come from
    math.log/math.log1p: numpy's ufuncs differ from them in the last bit
    on a few percent of inputs, and a kernel entry amplifies that
    ~100-fold.
    """
    i = np.arange(k + 1)
    inner = (p > 0.0) & (p < 1.0)
    edges = not inner.all()
    safe = np.where(inner, p, 0.5) if edges else p
    log_p = np.array(list(map(math.log, safe.tolist())))[:, None]
    log_q = np.array(list(map(math.log1p, (-safe).tolist())))[:, None]
    f = _log_factorials(1 << int(k).bit_length())[: k + 1]
    log_pmf = f[k] - f - f[::-1] + i * log_p + (k - i) * log_q
    out = np.exp(log_pmf)
    if edges:
        out[~inner] = 0.0
        out[p == 0.0, 0] = 1.0
        out[p == 1.0, k] = 1.0
    return out


def _duel_table(ell: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin(ell, v) pmf rows and upper tails P(B > i); row sums off 1 by > 1e-9 raise."""
    pmf = _binomial_pmf_rows(ell, values)
    cdf = np.cumsum(pmf, axis=1)
    total = cdf[:, -1]
    if np.abs(total - 1.0).max(initial=0.0) > 1e-9:
        low, high = float(total.min()), float(total.max())
        raise StructuralError(f"pmf rows sum to {low!r}..{high!r}, not 1")
    return pmf, 1.0 - cdf


def _pair_duels(p_pmf, q_table, i_p, i_q) -> tuple[np.ndarray, np.ndarray]:
    """p_lt and p_eq of rows p_pmf[i_p] against q_table's rows i_q: np.vecdot's, clipped."""
    rows, (pmf, above) = p_pmf[i_p], q_table
    return np.clip(np.vecdot(rows, above[i_q]), 0, 1), np.clip(np.vecdot(rows, pmf[i_q]), 0, 1)


def duels(ell: int, p, q) -> tuple[np.ndarray, np.ndarray]:
    """P(B_ell(p) < B_ell(q)) and P(B_ell(p) = B_ell(q)) over broadcast p, q.

    One pmf row per distinct probability of either input, then one dot
    product per broadcast pair, np.vecdot's, with the pmf row of p and
    the row of q or its upper tail, clipped to [0, 1].  Each pair's
    bits are those of its own 1-D dot products, whatever else is in the
    batch; a grid passes (N, 1) and (1, M) inputs, so only N + M rows
    are gathered.  Rows whose sums stray from 1 by more than 1e-9 are a
    StructuralError.
    """
    ell = _check_count("ell", ell, minimum=1)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    values, index = np.unique(np.concatenate([p.ravel(), q.ravel()]), return_inverse=True)
    # np.unique sorts NaN last, so the two ends catch it and every stray value.
    if values.size and not (values[0] >= 0.0 and values[-1] <= 1.0):
        bad = float(values[0] if values[0] < 0.0 else values[-1])
        raise DomainError(f"probabilities must lie in [0, 1], got {bad!r}")
    i_p, i_q = index[: p.size].reshape(p.shape), index[p.size :].reshape(q.shape)
    table = _duel_table(ell, values)
    return _pair_duels(table[0], table, i_p, i_q)


def exact_duel(k: int, p: float, q: float) -> DuelProbs:
    """Exact duel triple for B_k(p) versus B_k(q).

    One duels call on the pairs (p, q) and (q, p): p_gt is the p_lt of
    the swapped pair.  All three components are computed independently;
    their sum being 1 is a checked invariant, not an enforced one.
    """
    k, p, q = _check_count("k", k, minimum=1), _check_prob("p", p), _check_prob("q", q)
    p_lt, p_eq = duels(k, [p, q], [q, p])
    return DuelProbs(p_lt=float(p_lt[0]), p_eq=float(p_eq[0]), p_gt=float(p_lt[1]))


def hoeffding_duel_bound(k: int, p: float, q: float) -> float:
    """Lower bound on P(B_k(p) < B_k(q)) for p < q: 1 - exp(-k(q-p)^2 / 2).

    Effective when the gap q - p is large; tends to 0 as q -> p.
    """
    k = _check_count("k", k, minimum=1)
    p = _check_prob("p", p)
    q = _check_prob("q", q)
    if not p < q:
        raise DomainError(f"hoeffding_duel_bound requires p < q, got p={p}, q={q}")
    return 1.0 - math.exp(-0.5 * k * (q - p) ** 2)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via math.erf.

    The C library erf is correctly rounded to double precision, so the
    absolute error here is far below the 1e-7 budget the bound
    consumers assume.
    """
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def underdog_lower_bound(k: int, p: float, q: float) -> float:
    """Lower bound on P(B_k(p) > B_k(q)) for p < q (the upset probability).

    Normal approximation of the sample difference with a Berry-Esseen
    correction:

        max(0, 1 - Phi(sqrt(k)(q-p)/sigma) - C/(sigma sqrt(k)))

    with C = 0.4748 and sigma = sqrt(p(1-p) + q(1-q)).  Vacuous (0) for
    small k or degenerate parameters; informative for k >= ~30 and
    near-tied coins.
    """
    k = _check_count("k", k, minimum=1)
    p = _check_prob("p", p)
    q = _check_prob("q", q)
    if not p < q:
        raise DomainError(f"underdog_lower_bound requires p < q, got p={p}, q={q}")
    sigma = math.sqrt(p * (1.0 - p) + q * (1.0 - q))
    if sigma == 0.0:
        return 0.0
    value = (
        1.0
        - normal_cdf(math.sqrt(k) * (q - p) / sigma)
        - BERRY_ESSEEN_C / (sigma * math.sqrt(k))
    )
    return max(0.0, value)
