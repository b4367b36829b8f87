"""Deterministic analytical layer: flip probabilities, the expectation
map g and its fixed point f.

Conditioned on two consecutive opinion-1 fractions (x_t, x_{t+1}), each
non-source agent flips independently, with probabilities that reduce to
one binomial duel at sample size ell:

    p_gain_one = P(B_ell(x_{t+1}) > B_ell(x_t))        (current opinion 0)
    p_keep_one = p_gain_one + P(B_ell(x_{t+1}) = B_ell(x_t))   (opinion 1)

The population-level expectation of the next fraction is

    g(x, y) = P(B_ell(y) > B_ell(x)) + y P(B_ell(y) = B_ell(x))
              + (1/n)(1 - P(B_ell(y) >= B_ell(x)))

where the 1/n term accounts for the source agent being pinned.
``expected_next_fraction`` evaluates it on scalars or on broadcast
arrays (a whole count grid) from one ``duels`` call.  The
fixed point f(x) of y = g(x, y) on [x, x + 1/sqrt(ell)] drives the
multiplicative escape of the central region; it is found by bisection,
justified by the numerically verified monotonicity of g(x, y) - y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duel import duels
from .errors import DomainError

__all__ = [
    "AnalysisConstants",
    "FlipProbs",
    "expected_next_fraction",
    "fixed_point_f",
    "flip_probs",
]

FIXED_POINT_TOL = 1e-12
DUEL_ALPHA = 9.0  # near-tie duel slope constant alpha of Yellow's B-dwell scale


@dataclass(frozen=True)
class FlipProbs:
    """Per-agent one-round flip probabilities at a pair of fractions."""

    p_keep_one: float
    p_gain_one: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_gain_one <= self.p_keep_one <= 1.0 + 1e-12:
            raise DomainError(
                f"FlipProbs requires 0 <= p_gain_one <= p_keep_one <= 1, "
                f"got gain={self.p_gain_one!r}, keep={self.p_keep_one!r}"
            )


@dataclass(frozen=True)
class AnalysisConstants:
    """Derived constants of the domain partition and the Cyan growth bound.

    delta is the margin of the partition; lambda_n the Red-area shrink
    factor 1/(ln n)^(1/2+delta); gamma and K the Cyan thresholds
    (1-1/e) e^{-2c}/2 and c e^{-2c}/2 for ell = c ln n.  for_population
    builds and checks them.
    """

    n: int
    delta: float
    c_sample: float
    lambda_n: float
    gamma: float
    K: float
    ell: int

    @classmethod
    def for_population(
        cls,
        n: int,
        delta: float = 0.05,
        c_sample: float = 3.0,
        ell: int | None = None,
    ) -> "AnalysisConstants":
        """Build the constants for population size n.

        Without ell, the sample size is ceil(c ln n).  An explicit ell
        is kept as given, and the effective c is ell / ln n so that
        gamma and K stay consistent with it (a float round-trip
        through c could tip the ceiling by one).
        """
        if n < 3:
            raise DomainError(
                f"population size n must be >= 3 for the domain partition, which needs "
                f"ln n > 1, got n = {n!r}"
            )
        log_n = math.log(n)
        c = ell / log_n if ell is not None else float(c_sample)
        if not 0 < c < math.inf:
            raise DomainError(f"c_sample must be positive and finite, got {c!r}")
        if not 0.0 < delta < 0.5:
            raise DomainError(f"delta must be in (0, 1/2), got {delta!r}")
        gamma = (1.0 - 1.0 / math.e) * math.exp(-2.0 * c) / 2.0
        K = c * math.exp(-2.0 * c) / 2.0
        if gamma <= 0.0 or K <= 0.0:
            raise DomainError("gamma and K must be positive")
        return cls(
            n=n,
            delta=delta,
            c_sample=c,
            lambda_n=1.0 / log_n ** (0.5 + delta),
            gamma=gamma,
            K=K,
            ell=int(ell) if ell is not None else math.ceil(c * log_n),
        )

    @property
    def log_n(self) -> float:
        return math.log(self.n)


def flip_probs(x_t: float, x_t1: float, ell: int) -> FlipProbs:
    """Flip probabilities conditioned on consecutive fractions (x_t, x_{t+1}).

    The duel draws the fresh sample against the stored one, so the
    'gain' probability is P(B_ell(x_{t+1}) > B_ell(x_t)) and keeping an
    existing 1 additionally wins ties.
    """
    gain, p_eq = duels(int(ell), float(x_t), float(x_t1))  # P(B(x_t) < B(x_t1)), ties
    return FlipProbs(p_keep_one=min(float(gain + p_eq), 1.0), p_gain_one=float(gain))


def expected_next_fraction(x_t, x_t1, n: int, ell: int):
    """The expectation map g(x_t, x_{t+1}) of the next opinion-1 fraction.

    x_t and x_t1 broadcast against each other: scalars give one value,
    (N, 1) and (1, M) fractions the (N, M) grid.
    """
    if n < 2:
        raise DomainError(f"population size must be >= 2, got {n!r}")
    # p_gt = P(B(x_t1) > B(x_t)) = P(B(x_t) < B(x_t1)), p_eq ties.
    p_gt, p_eq = duels(int(ell), x_t, x_t1)
    return p_gt + np.asarray(x_t1, dtype=float) * p_eq + (1.0 - (p_gt + p_eq)) / n


def fixed_point_f(
    x: float,
    ell: int,
    n: int,
    delta: float = 0.05,
) -> float:
    """Fixed point f(x) of y = g(x, y) on [x, x + 1/sqrt(ell)].

    Defined for x in [1/2 + 4/n, 1/2 + 4 delta] only; outside that
    interval the caller gets a domain error rather than an
    extrapolation.  Returns the unique root found by bisection to
    absolute tolerance 1e-12, or x + 1/sqrt(ell) when
    g(x, x + 1/sqrt(ell)) < x + 1/sqrt(ell) (no root on the interval).
    The result always satisfies g(x, f(x)) <= f(x).
    """
    x = float(x)
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell!r}")
    lo_edge = 0.5 + 4.0 / n
    hi_edge = 0.5 + 4.0 * delta
    if not lo_edge <= x <= hi_edge:
        raise DomainError(
            f"fixed_point_f defined on [1/2 + 4/n, 1/2 + 4*delta] = "
            f"[{lo_edge}, {hi_edge}], got x={x}"
        )

    def h(y: float) -> float:
        return expected_next_fraction(x, y, n, ell) - y

    lo = x
    hi = x + 1.0 / math.sqrt(ell)
    if h(lo) >= 0.0:
        # g(x, x) < x is guaranteed on the stated interval; hitting this
        # means ell is far too small for the monotone regime.
        raise DomainError(
            f"g(x, x) >= x at x={x}, ell={ell}: outside the monotone regime"
        )
    if h(hi) < 0.0:
        result = hi
    else:
        a, b = lo, hi
        while b - a > FIXED_POINT_TOL:
            mid = 0.5 * (a + b)
            if h(mid) >= 0.0:
                b = mid
            else:
                a = mid
        result = 0.5 * (a + b)
    if expected_next_fraction(x, result, n, ell) > result + 1e-10:
        raise DomainError(
            f"fixed point violates g(x, f(x)) <= f(x) at x={x}, ell={ell}"
        )
    return result
