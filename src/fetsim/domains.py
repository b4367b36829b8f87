"""Domain partition of the pair-state grid and its audit.

The state space is the grid G = {0, 1/n, ..., 1}^2 of consecutive
opinion-1 fractions (x_t, x_{t+1}).  It is partitioned into regions
with qualitatively different dynamics:

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

The bounding box Yellow' = [1/2-4d, 1/2+4d]^2 is itself split into
A/B/C sub-areas used by the escape analysis.

Boundary inequalities are implemented exactly as written (strict vs
non-strict); where several definitions match a point, classification
applies the fixed precedence Green > Purple > Red > Cyan > Yellow with
the 1-variant before the 0-variant, and ``audit_partition`` quantifies
every gap and overlap instead of hiding them.  Each definition is
written once, and the two classifiers, ``classify`` (domains) and
``classify_yellow`` (A/B/C areas), evaluate them on floats or on
whole arrays.  They return positions in ``DOMAINS`` and ``AREAS``,
whose last entries (Unclassified, OutsideYellowPrime) mark no match.
``label_paths`` labels simulated trials, paths of opinion-1 counts
stored end to end, every consecutive pair in one pass.  The audit is
plain data, a dict ready for JSON; the module writes no files.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .dynamics import AnalysisConstants
from .errors import UsageError

__all__ = [
    "AREAS",
    "DOMAINS",
    "DomainLabel",
    "YellowLabel",
    "audit_partition",
    "classify",
    "classify_yellow",
    "label_paths",
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


def _domain_tests(x, y, c: AnalysisConstants) -> tuple:
    """The nine domain definitions at (x, y), in precedence order.

    The order is that of DomainLabel: Green > Purple > Red > Cyan >
    Yellow, 1-variant first; each 0-variant is its 1-variant at the
    mirrored point.  Only comparisons, arithmetic, &, | and abs are
    used, so floats give bools and arrays give boolean arrays, with the
    same IEEE arithmetic.
    """
    d = c.delta
    inv_log = 1.0 / c.log_n
    shrink = 1.0 - c.lambda_n
    mx, my = 1.0 - x, 1.0 - y
    return (
        _green1(x, y, d),
        _green1(mx, my, d),
        _purple1(x, y, d, inv_log, shrink),
        _purple1(mx, my, d, inv_log, shrink),
        _red1(x, y, d, inv_log, shrink),
        _red1(mx, my, d, inv_log, shrink),
        _cyan1(x, y, d, inv_log),
        _cyan1(mx, my, d, inv_log),
        _yellow(x, y, d),
    )


def _green1(u, v, d):
    return v >= u + d


def _purple1(u, v, d, inv_log, shrink):
    return (inv_log <= u) & (u < 0.5 - 3.0 * d) & (shrink * u <= v) & (v < u + d)


def _red1(u, v, d, inv_log, shrink):
    return (inv_log <= v) & (u < 0.5 - 3.0 * d) & (u - d <= v) & (v < shrink * u)


def _cyan1(u, v, d, inv_log):
    return ((u < inv_log) | (v < inv_log)) & (u - d < v) & (v < u + d)


def _yellow(u, v, d):
    # Typo-corrected x-band: 1/2 - 3d <= x_t <= 1/2 + 3d (see module docstring).
    return (
        (0.5 - 3.0 * d <= u)
        & (u <= 0.5 + 3.0 * d)
        & (0.5 - 4.0 * d <= v)
        & (v <= 0.5 + 4.0 * d)
        & (abs(v - u) < d)
    )


def _in_box(x, y, c: AnalysisConstants):
    """Membership in Yellow' = [1/2-4d, 1/2+4d]^2, for floats or arrays."""
    lo = 0.5 - 4.0 * c.delta
    hi = 0.5 + 4.0 * c.delta
    return (lo <= x) & (x <= hi) & (lo <= y) & (y <= hi)


def _yellow_area_tests(x, y) -> tuple:
    """The A/B/C definitions at (x, y) in YellowLabel order, 1-variant first.

    They tile Yellow'; like _domain_tests they take floats or arrays.
    """
    mx, my = 1.0 - x, 1.0 - y
    return (_a1(x, y), _a1(mx, my), _b1(x, y), _b1(mx, my), _c1(x, y), _c1(mx, my))


def _a1(u, v):
    return (v >= 0.5) & (v - u >= u - 0.5)


def _b1(u, v):
    return (v >= u) & (v - u < u - 0.5)


def _c1(u, v):
    return (v < 0.5) & (v >= u)


def _first_true(tests):
    """The position of the first true test (len(tests) if none), per element for arrays."""
    return np.select(tests, range(len(tests)), len(tests))[()]


def classify(x, y, constants: AnalysisConstants):
    """Position in DOMAINS of the first matching domain at (x, y), floats or arrays.

    Unclassified, the last position, marks no match.
    """
    return _first_true(_domain_tests(x, y, constants))


def classify_yellow(x, y, constants: AnalysisConstants):
    """Position in AREAS of the A/B/C sub-area of Yellow' at (x, y), floats or arrays.

    Precedence A > B > C, 1-variant first; OutsideYellowPrime, the last
    position, marks a point outside the box.
    """
    return np.where(
        _in_box(x, y, constants), _first_true(_yellow_area_tests(x, y)), len(AREAS) - 1
    )[()]


def label_paths(counts, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Domain and Yellow' area of every consecutive pair of a count array.

    counts holds trial paths end to end, as run_trials returns them.
    Slot j of each returned array labels the pair (counts[j]/n,
    counts[j+1]/n) by its position in DOMAINS and in AREAS, all in one
    array pass; the partition constants are those of (n, delta), which
    do not depend on the sample size.  The slot at each path's last
    count pairs it with the next path's first, so callers skip it.  The
    constants need ln n > 1: at n = 2 every pair is Unclassified and
    outside Yellow'.
    """
    k = np.asarray(counts)
    x, y = k[:-1] / n, k[1:] / n
    if math.log(n) <= 1.0:
        return np.full(x.shape, len(DOMAINS) - 1), np.full(x.shape, len(AREAS) - 1)
    constants = AnalysisConstants.for_population(n, delta=delta)
    return classify(x, y, constants), classify_yellow(x, y, constants)


YELLOW_READING = (
    "Yellow x-band implemented as 1/2 - 3*delta <= x_t <= 1/2 + 3*delta "
    "(symmetric reading of a typo in the source definition)"
)


def audit_partition(constants: AnalysisConstants) -> dict:
    """Enumerate all (n+1)^2 grid points, n = constants.n, and measure partition coverage.

    Per point, counts how many of the nine domain definitions match
    before precedence, and reports uncovered and multiply-covered
    points with coordinates, vectorized over the whole grid.  The
    report is a JSON-ready dict: ``match_counts`` histograms the number
    of matching definitions per point (keys "0", "1", ...), and the
    ``uncovered`` [k_x, k_y] and ``multiply_covered`` [k_x, k_y, count]
    entries are integer grid indices with fraction = k / n, so the
    report is exact and deterministic.
    """
    n = constants.n
    if n > 512:
        raise UsageError(f"audit_partition supports n <= 512, got {n}")
    frac = np.arange(n + 1) / n
    x, y = np.meshgrid(frac, frac, indexing="ij")
    tests = _domain_tests(x, y, constants)
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
        "delta": constants.delta,
        "yellow_reading": YELLOW_READING,
        "total_points": (n + 1) ** 2,
        "uncovered_count": len(uncovered),
        "multiply_covered_count": len(multiply),
        "match_counts": {str(v): f for v, f in zip(values.tolist(), freq.tolist())},
        "label_histogram": histogram,
        # Whether the uncovered set is its own reflection through the center.
        # It need not be: each 0-variant is tested at 1.0 - k/n, which
        # rounding does not always make (n - k)/n.
        "mirror_symmetric": bool(np.array_equal(uncovered_mask, uncovered_mask[::-1, ::-1])),
        "corner_absorbing_label": DOMAINS[label_idx[n, n]].value,
        "corner_cyan_label": DOMAINS[label_idx[1, 1]].value,
        "uncovered": uncovered,
        "multiply_covered": multiply,
    }
