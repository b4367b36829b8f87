"""Domain partition of the pair-state grid and its audit.

The state space is the grid G = {0, 1/n, ..., 1}^2 of consecutive
opinion-1 fractions (x_t, x_{t+1}) = (a/n, b/n).  It is partitioned
into regions with qualitatively different dynamics:

    Green1   x_{t+1} >= x_t + delta                      (high speed up)
    Purple1  1/ln n <= x_t < 1/2 - 3 delta  and
             (1 - lambda_n) x_t <= x_{t+1} < x_t + delta  (slow, far from 1/2)
    Red1     1/ln n <= x_{t+1}  and  x_t < 1/2 - 3 delta  and
             x_t - delta <= x_{t+1} < (1 - lambda_n) x_t  (shrinking)
    Cyan1    min(x_t, x_{t+1}) < 1/ln n  and
             |x_{t+1} - x_t| < delta                      (near wrong consensus)
    Yellow   |x_t - 1/2| <= 3 delta  and
             1/2 - 4 delta <= x_{t+1} <= 1/2 + 4 delta and
             |x_{t+1} - x_t| < delta                      (central, low speed)

plus the point reflections of the first four through (1/2, 1/2)
(Green0, Purple0, Red0, Cyan0).  The written Yellow x-range contains an
obvious typo in its source material; the reading implemented here is
the symmetric band |x_t - 1/2| <= 3 delta, and the audit records that
choice in its header.

Every definition is evaluated on the integer counts (a, b): it compares
a count, or the integer difference b - a, with one threshold scaled
once from (n, delta), and 1 - lambda_n multiplies a count.  The
thresholds are float products of delta's float value, so at n = 200,
delta = 0.05 the margin delta*n rounds to exactly 10 and b - a = -10
lies in Green0; the audit header states this (THRESHOLD_READING).
Each 0-variant is its 1-variant at (n - a, n - b), and Yellow is the
same lower-bound test at (a, b) and at (n - a, n - b), so the
partition is exactly symmetric under the reflection.

The bounding box Yellow' = [1/2-4d, 1/2+4d]^2 is itself split into
A/B/C sub-areas used by the escape analysis; they compare doubled
counts with n, which is exact.

Boundary inequalities are implemented exactly as written (strict vs
non-strict); where several definitions match a point, classification
applies the fixed precedence Green > Purple > Red > Cyan > Yellow with
the 1-variant before the 0-variant, and ``audit_partition`` quantifies
every gap and overlap instead of hiding them.  Each definition is
written once, and the two classifiers, ``classify`` (domains) and
``classify_yellow`` (A/B/C areas), evaluate them on one pair of counts
or on whole arrays.  They return positions in ``DOMAINS`` and
``AREAS``, whose last entries (Unclassified, OutsideYellowPrime) mark
no match.  ``label_paths`` labels simulated trials, paths of opinion-1
counts stored end to end, every consecutive pair in one pass.  The
audit is plain data, a dict ready for JSON; the module writes no files.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "AREAS",
    "DOMAINS",
    "DomainLabel",
    "YellowLabel",
    "audit_partition",
    "classify",
    "classify_yellow",
    "label_paths",
    "lambda_n",
]


class DomainLabel(str, Enum):
    # Member order is the classification precedence; Unclassified last.
    GREEN1 = "Green1"
    GREEN0 = "Green0"
    PURPLE1 = "Purple1"
    PURPLE0 = "Purple0"
    RED1 = "Red1"
    RED0 = "Red0"
    CYAN1 = "Cyan1"
    CYAN0 = "Cyan0"
    YELLOW = "Yellow"
    UNCLASSIFIED = "Unclassified"


class YellowLabel(str, Enum):
    A1 = "A1"
    A0 = "A0"
    B1 = "B1"
    B0 = "B0"
    C1 = "C1"
    C0 = "C0"
    OUTSIDE = "OutsideYellowPrime"


DOMAINS = tuple(DomainLabel)  # classify positions
AREAS = tuple(YellowLabel)  # classify_yellow positions


def lambda_n(n: int, delta: float) -> float:
    """The Red-area shrink factor 1/(ln n)^(1/2+delta), for n >= 3 and delta in (0, 1/2)."""
    if n < 3:
        raise DomainError(
            f"population size n must be >= 3 for the domain partition, which needs "
            f"ln n > 1, got n = {n!r}"
        )
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must be in (0, 1/2), got {delta!r}")
    return 1.0 / math.log(n) ** (0.5 + delta)


def _domain_tests(a, b, n: int, delta: float) -> tuple:
    """The nine domain definitions at the counts (a, b), in precedence order.

    The order is that of DomainLabel: Green > Purple > Red > Cyan >
    Yellow, 1-variant first; each 0-variant is its 1-variant at
    (n - a, n - b).  Only comparisons, arithmetic, & and | are used, so
    ints give bools and arrays give boolean arrays.
    """
    shrink = 1.0 - lambda_n(n, delta)
    d = delta * n
    low = n / math.log(n)
    far = (0.5 - 3.0 * delta) * n
    box = (0.5 - 4.0 * delta) * n
    ma, mb = n - a, n - b
    return (
        _green1(a, b, d),
        _green1(ma, mb, d),
        _purple1(a, b, d, low, far, shrink),
        _purple1(ma, mb, d, low, far, shrink),
        _red1(a, b, d, low, far, shrink),
        _red1(ma, mb, d, low, far, shrink),
        _cyan1(a, b, d, low),
        _cyan1(ma, mb, d, low),
        _yellow_half(a, b, d, far, box) & _yellow_half(ma, mb, d, far, box),
    )


def _green1(u, v, d):
    return v - u >= d


def _purple1(u, v, d, low, far, shrink):
    return (low <= u) & (u < far) & (shrink * u <= v) & (v - u < d)


def _red1(u, v, d, low, far, shrink):
    return (low <= v) & (u < far) & (-d <= v - u) & (v < shrink * u)


def _cyan1(u, v, d, low):
    return ((u < low) | (v < low)) & (-d < v - u) & (v - u < d)


def _yellow_half(u, v, d, far, box):
    # The lower bounds of the typo-corrected x-band (see module docstring)
    # and of the x_{t+1}-band; the mirrored call supplies the upper ones.
    return (far <= u) & (box <= v) & (v - u < d)


def _in_box(a, b, n: int, delta: float):
    """Membership in Yellow' = [1/2-4d, 1/2+4d]^2, for counts or arrays."""
    box = (0.5 - 4.0 * delta) * n
    return (box <= a) & (box <= n - a) & (box <= b) & (box <= n - b)


def _yellow_area_tests(a, b, n: int) -> tuple:
    """The A/B/C definitions at (a, b) in YellowLabel order, 1-variant first.

    They tile Yellow'; like _domain_tests they take counts or arrays.
    """
    ma, mb = n - a, n - b
    return (
        _a1(a, b, n), _a1(ma, mb, n), _b1(a, b, n), _b1(ma, mb, n), _c1(a, b, n), _c1(ma, mb, n)
    )


def _a1(u, v, n):
    return (2 * v >= n) & (2 * (v - u) >= 2 * u - n)


def _b1(u, v, n):
    return (v >= u) & (2 * (v - u) < 2 * u - n)


def _c1(u, v, n):
    return (2 * v < n) & (v >= u)


def _first_true(tests):
    """The position of the first true test (len(tests) if none), per element for arrays."""
    return np.select(tests, range(len(tests)), len(tests))[()]


def classify(a, b, n: int, delta: float):
    """Position in DOMAINS of the first matching domain at the counts (a, b), ints or arrays.

    Unclassified, the last position, marks no match.
    """
    return _first_true(_domain_tests(a, b, n, delta))


def classify_yellow(a, b, n: int, delta: float):
    """Position in AREAS of the A/B/C sub-area of Yellow' at the counts (a, b), ints or arrays.

    Precedence A > B > C, 1-variant first; OutsideYellowPrime, the last
    position, marks a point outside the box.
    """
    return np.where(
        _in_box(a, b, n, delta), _first_true(_yellow_area_tests(a, b, n)), len(AREAS) - 1
    )[()]


def label_paths(counts, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Domain and Yellow' area of every consecutive pair of a count array.

    counts holds trial paths end to end, as run_trials returns them.
    Slot j of each returned array labels the pair (counts[j],
    counts[j+1]) by its position in DOMAINS and in AREAS, all in one
    array pass; the partition depends on (n, delta) only, not on the
    sample size.  The slot at each path's last count pairs it with the
    next path's first, so callers skip it.  The partition needs
    ln n > 1: at n = 2 every pair is Unclassified and outside Yellow'.
    """
    k = np.asarray(counts)
    a, b = k[:-1], k[1:]
    if n < 3:
        return np.full(a.shape, len(DOMAINS) - 1), np.full(a.shape, len(AREAS) - 1)
    return classify(a, b, n, delta), classify_yellow(a, b, n, delta)


YELLOW_READING = (
    "Yellow x-band implemented as 1/2 - 3*delta <= x_t <= 1/2 + 3*delta "
    "(symmetric reading of a typo in the source definition)"
)
THRESHOLD_READING = (
    "bounds compare counts with delta*n, n/ln n, (1/2 - 3*delta)*n and (1/2 - 4*delta)*n, "
    "each computed once in floats from delta's float value (delta*n rounds to exactly 10 "
    "at n = 200, delta = 0.05), or with (1 - lambda_n) times a count; each 0-variant is "
    "its 1-variant at (n - k_x, n - k_y)"
)


def audit_partition(n: int, delta: float) -> dict:
    """Enumerate all (n+1)^2 grid points and measure partition coverage.

    Per point, counts how many of the nine domain definitions match
    before precedence, and reports uncovered and multiply-covered
    points with coordinates, vectorized over the whole grid.  The
    report is a JSON-ready dict: ``match_counts`` histograms the number
    of matching definitions per point (keys "0", "1", ...), and the
    ``uncovered`` [k_x, k_y] and ``multiply_covered`` [k_x, k_y, count]
    entries are integer grid indices with fraction = k / n, so the
    report is exact and deterministic.
    """
    lambda_n(n, delta)  # the partition's checks come before the size cap
    if n > 512:
        raise UsageError(f"audit_partition supports n <= 512, got {n}")
    k = np.arange(n + 1)
    tests = _domain_tests(k[:, None], k[None, :], n, delta)
    counts = np.sum(tests, axis=0, dtype=np.int64)
    label_idx = _first_true(tests)
    histogram = {
        label.value: int((label_idx == pos).sum()) for pos, label in enumerate(DOMAINS)
    }

    uncovered_mask = counts == 0
    multi_mask = counts >= 2
    uncovered = np.argwhere(uncovered_mask).tolist()
    multiply = np.column_stack((*np.nonzero(multi_mask), counts[multi_mask])).tolist()
    values, freq = np.unique(counts, return_counts=True)
    return {
        "n": n,
        "delta": delta,
        "yellow_reading": YELLOW_READING,
        "threshold_reading": THRESHOLD_READING,
        "total_points": (n + 1) ** 2,
        "uncovered_count": len(uncovered),
        "multiply_covered_count": len(multiply),
        "match_counts": {str(v): f for v, f in zip(values.tolist(), freq.tolist())},
        "label_histogram": histogram,
        "mirror_symmetric": bool(np.array_equal(uncovered_mask, uncovered_mask[::-1, ::-1])),
        "corner_absorbing_label": DOMAINS[label_idx[n, n]].value,
        "corner_cyan_label": DOMAINS[label_idx[1, 1]].value,
        "uncovered": uncovered,
        "multiply_covered": multiply,
    }
