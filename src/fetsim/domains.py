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
written once and evaluated on floats by the pointwise classifiers and
on arrays by ``classify_array``, ``label_paths`` and the audit.
``label_paths`` labels simulated trials, paths of opinion-1 counts
stored end to end, every consecutive pair in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import AnalysisConstants
from .errors import UsageError

__all__ = [
    "DomainLabel",
    "PartitionAudit",
    "YellowLabel",
    "audit_partition",
    "classify",
    "classify_array",
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


def _coords(point) -> tuple[float, float]:
    """The fractions (x_t, x_{t+1}) of a point given as any pair of reals."""
    x, y = point
    return float(x), float(y)


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


def _first_true(tests) -> np.ndarray:
    """Per array element, the position of the first true test (len(tests) if none)."""
    return np.select(tests, range(len(tests)), len(tests))


def classify(point, n: int, constants: AnalysisConstants) -> DomainLabel:
    """First matching domain under the fixed precedence, or Unclassified."""
    if constants.n != n:
        raise UsageError(
            f"constants built for n={constants.n}, classify called with n={n}"
        )
    x, y = _coords(point)
    for label, hit in zip(DomainLabel, _domain_tests(x, y, constants)):
        if hit:
            return label
    return DomainLabel.UNCLASSIFIED


def classify_array(x: np.ndarray, y: np.ndarray, constants: AnalysisConstants) -> np.ndarray:
    """classify over coordinate arrays, as positions in ``tuple(DomainLabel)``.

    Unclassified, the last position, marks no match; the n check is the caller's.
    """
    return _first_true(_domain_tests(x, y, constants))


def classify_yellow(point, constants: AnalysisConstants) -> YellowLabel:
    """A/B/C sub-area of Yellow', with precedence A > B > C, 1-variant first."""
    x, y = _coords(point)
    if not _in_box(x, y, constants):
        return YellowLabel.OUTSIDE
    for label, hit in zip(YellowLabel, _yellow_area_tests(x, y)):
        if hit:
            return label
    # The six conditions tile the box; reaching here would be a logic bug.
    raise AssertionError(f"point {(x, y)} in Yellow' matched no A/B/C area")


def label_paths(counts, n: int, delta: float, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Domain and Yellow' area of every consecutive pair of a count array.

    counts holds trial paths end to end, as run_trials returns them.
    Slot j of each returned array labels the pair (counts[j]/n,
    counts[j+1]/n) by its position in ``tuple(DomainLabel)`` and in
    ``tuple(YellowLabel)``, all in one array pass; the partition
    constants are those of (n, delta, ell).  The slot at each path's
    last count pairs it with the next path's first, so callers skip it.
    The constants need ln n > 1: at n = 2 every pair is Unclassified and
    outside Yellow'.
    """
    k = np.asarray(counts)
    x, y = k[:-1] / n, k[1:] / n
    outside = len(YellowLabel) - 1
    if math.log(n) <= 1.0:
        return np.full(x.shape, len(DomainLabel) - 1), np.full(x.shape, outside)
    constants = AnalysisConstants.for_population(n, delta=delta, ell=ell)
    areas = np.where(_in_box(x, y, constants), _first_true(_yellow_area_tests(x, y)), outside)
    return classify_array(x, y, constants), areas


@dataclass
class PartitionAudit:
    """Exhaustive coverage report over the (n+1)^2 grid.

    ``match_counts`` histograms how many definitions matched per point;
    coordinate lists are integer grid indices (k_x, k_y) with
    fraction = k / n, so the report is exact and deterministic.
    """

    n: int
    delta: float
    c_sample: float
    yellow_reading: str
    total_points: int
    uncovered_count: int
    multiply_covered_count: int
    uncovered: list[tuple[int, int]] = field(repr=False)
    multiply_covered: list[tuple[int, int, int]] = field(repr=False)
    match_counts: dict[int, int] = field(default_factory=dict)
    label_histogram: dict[str, int] = field(default_factory=dict)
    mirror_symmetric: bool = True
    corner_absorbing_label: str = ""
    corner_cyan_label: str = ""

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "c_sample": self.c_sample,
            "yellow_reading": self.yellow_reading,
            "total_points": self.total_points,
            "uncovered_count": self.uncovered_count,
            "multiply_covered_count": self.multiply_covered_count,
            "match_counts": {str(k): v for k, v in sorted(self.match_counts.items())},
            "label_histogram": self.label_histogram,
            "mirror_symmetric": self.mirror_symmetric,
            "corner_absorbing_label": self.corner_absorbing_label,
            "corner_cyan_label": self.corner_cyan_label,
            "uncovered": [list(t) for t in self.uncovered],
            "multiply_covered": [list(t) for t in self.multiply_covered],
        }


YELLOW_READING = (
    "Yellow x-band implemented as 1/2 - 3*delta <= x_t <= 1/2 + 3*delta "
    "(symmetric reading of a typo in the source definition)"
)


def audit_partition(n: int, constants: AnalysisConstants) -> PartitionAudit:
    """Enumerate all (n+1)^2 grid points and measure partition coverage.

    Per point, counts how many of the nine domain definitions match
    before precedence, and reports uncovered and multiply-covered
    points with coordinates.  Row computations are independent; the
    implementation is vectorized over the whole grid and merges results
    order-independently.
    """
    if n > 512:
        raise UsageError(f"audit_partition supports n <= 512, got {n}")
    frac = np.arange(n + 1) / n
    x, y = np.meshgrid(frac, frac, indexing="ij")
    tests = _domain_tests(x, y, constants)
    counts = np.sum(tests, axis=0, dtype=np.int64)
    label_idx = _first_true(tests)
    histogram = {
        label.value: int((label_idx == pos).sum()) for pos, label in enumerate(DomainLabel)
    }

    uncovered_mask = counts == 0
    multi_mask = counts >= 2
    ux, uy = np.nonzero(uncovered_mask)
    mxi, myi = np.nonzero(multi_mask)
    uncovered = [(int(a), int(b)) for a, b in zip(ux, uy)]
    multiply = [
        (int(a), int(b), int(counts[a, b])) for a, b in zip(mxi, myi)
    ]
    # A point is uncovered iff its reflection through the center is.
    mirror_ok = bool(np.array_equal(uncovered_mask, uncovered_mask[::-1, ::-1]))

    values, freq = np.unique(counts, return_counts=True)
    match_counts = {int(v): int(f) for v, f in zip(values, freq)}

    absorbing = classify((1.0, 1.0), n, constants)
    cyan_corner = classify((1.0 / n, 1.0 / n), n, constants)

    return PartitionAudit(
        n=n,
        delta=constants.delta,
        c_sample=constants.c_sample,
        yellow_reading=YELLOW_READING,
        total_points=(n + 1) ** 2,
        uncovered_count=len(uncovered),
        multiply_covered_count=len(multiply),
        uncovered=uncovered,
        multiply_covered=multiply,
        match_counts=match_counts,
        label_histogram=histogram,
        mirror_symmetric=mirror_ok,
        corner_absorbing_label=absorbing.value,
        corner_cyan_label=cyan_corner.value,
    )
