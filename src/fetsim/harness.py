"""Statistical verification suite for the per-domain escape lemmas and
the polylogarithmic convergence claim, at desk scale.

The signature of each lemma's private runner (in ``_RUNNERS``) holds
the documented parameter point of its lemma.  ``run_lemma`` overrides
it from settings; ``_lemma_kwargs`` resolves and checks those
arguments and plants Green's, Purple's and Red's pairs (the classifier
must agree) before any trial.  A runner builds its configs, observes
the protocol without modifying its semantics and returns what it
measured, with the values it fixed or derived (its ell, lambda_n, ...);
``run_lemma`` alone builds the report and its PASS/FAIL verdict, which
is recomputable from the reported raw numbers.  A report's params are
the resolved arguments, then those values, so the report's arguments
rerun it.  delta draws the partition only: no SimConfig holds it.
High-probability claims are tested as "failure fraction <=
1/n^epsilon + 3 standard errors" with epsilon = 1 by default; the
underlying exponents are unspecified constants, so epsilon is a knob
and every report carries the raw counts.

Green, Purple and Red share one planted-pair runner: the trials of a
planted pair step together, one round or until they leave its domain.
Cyan, Yellow and convergence reduce run_trials' end-to-end counts and
their labels directly, each per-trial search one searchsorted (_first).
Within one run_all call each of their cells (config, preset, trials)
is simulated once and shared, read-only: Yellow's sweep at convergence's
sizes, c_sample, seed and max_rounds is exactly convergence's
yellow_center cells, whatever either lemma's delta.

Scaling claims (Yellow escape, end-to-end convergence) are tested as
properties: one reducer (_sweep) takes the q50 and q99 of the measured
times per size and fits their q99 against (ln n)^{5/2} on a log-log
scale.  Only Yellow's verdict uses the fit (at least two sizes,
R^2 >= 0.9, slope <= SLOPE_TOLERANCE); convergence just reports it.
These quantiles, Yellow's q95 and convergence's per-cell q99 come from
_percentile: np.percentile's linear method, bit for bit, on one np.sort
per sample (np.percentile itself imports numpy.ma).

The analytic part of the Cyan check evaluates the expectation map on
its whole grid at once, from one broadcast duels call.

All randomness flows through keyed Philox streams, so a report is a
deterministic function of (parameters, seed).  The module writes no
files: a LemmaReport is plain data, and the CLI writes it as
<lemma>.json (to_dict) and <lemma>.csv (POINT_FIELDS or SWEEP_FIELDS).
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
import math
import numbers
import time
from dataclasses import astuple, dataclass

import numpy as np

from .config import check_delta, check_number
from .domains import AREAS, DOMAINS, DomainLabel, YellowLabel, classify, label_paths, lambda_n
from .dynamics import DUEL_ALPHA, cyan_constants, expected_next_fraction
from .errors import PlantingError, UsageError
from .protocol import SimConfig, _preset_fraction, derive_rng, run_trials, step_aggregate

__all__ = ["LemmaReport", "cyan_expectation_check", "run_all", "run_lemma"]

# Smallest accepted value of each integer parameter (per entry for n_list).
_MINIMUMS = {"n": 2, "n_list": 2, "ell": 1, "trials": 1, "max_rounds": 1}
# Log-log slope above which a sweep no longer counts as "growing no
# faster than C (ln n)^{5/2}" (slack over 1.0 absorbs quantile noise).
SLOPE_TOLERANCE = 1.1
# run_all's trial cells by _run_cell key while it runs, else None, and
# how many requests they served without simulating.
_cells: dict | None = None
_reused = 0
# The CSV columns of a "pointwise" and of a "sweep" report's rows.
POINT_FIELDS = ("point_x", "point_y", "trials", "failures", "verdict")
SWEEP_FIELDS = ("n", "quantile50", "quantile99", "fit_C", "fit_r2")


@dataclass
class LemmaReport:
    """Verdict plus the raw counts it was computed from; run_lemma builds it.

    kind selects the CSV schema: POINT_FIELDS of the points for
    "pointwise", SWEEP_FIELDS of the sweep rows for "sweep".  runtime_s
    (the runner's wall time) and the trial cells its lemma simulated and
    reused (set by run_all) are for interactive display and excluded
    from to_dict, so that equal (config, seed) runs write byte-identical
    files.
    """

    lemma: str
    params: dict
    kind: str
    verdict: str
    points: list[dict]
    sweep: list[dict]
    details: dict
    runtime_s: float
    trial_cells: tuple[int, int] = (0, 0)  # (simulated, reused)

    def to_dict(self) -> dict:
        """The emitted fields: all but runtime_s and trial_cells, in field order."""
        return {k: v for k, v in vars(self).items() if k not in ("runtime_s", "trial_cells")}


def _check(**given) -> None:
    """Raise a UsageError naming the first invalid given parameter.

    Counts, sweep lists (non-empty, without a repeated entry; presets
    known), delta (in (0, 1/2)) and the positive reals
    c_sample and epsilon are checked here; the rest where they are used.
    """
    for key, value in given.items():
        if key in ("n_list", "presets") and (not isinstance(value, (list, tuple)) or not value):
            raise UsageError(
                f"{key} must be a non-empty comma-separated list, got {value!r}; "
                "end a single entry with a comma"
            )
        if key == "presets":
            for preset in value:
                _preset_fraction(preset)
        if key in _MINIMUMS:
            for item in value if key == "n_list" else [value]:
                check_number(key, item, numbers.Integral)
                if item < _MINIMUMS[key]:
                    raise UsageError(f"{key} must be >= {_MINIMUMS[key]}, got {item}")
        if key in ("n_list", "presets") and len(set(value)) < len(value):
            raise UsageError(f"{key} must not repeat an entry, got {list(value)}")
        if key == "delta":
            check_delta(value)
        if key in ("c_sample", "epsilon"):
            check_number(key, value)
            if not value > 0:
                raise UsageError(f"{key} must be positive, got {value!r}")


def _run_cell(config: SimConfig, preset: str, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """run_trials' arrays, read-only; within run_all, once per distinct cell.

    A cell's key is what its trials depend on: every SimConfig field (a
    SimConfig is not hashable), the preset and the trial count.  Lemmas
    whose trials differ only in delta or in a c_sample that gives the
    same ell share the cell.
    """
    global _reused
    key = (astuple(config), preset, trials)
    cells = {} if _cells is None else _cells
    if key in cells:
        _reused += 1
    else:
        cells[key] = run_trials(config, preset, trials)
        for array in cells[key]:
            array.flags.writeable = False
    return cells[key]


def _first(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per trial, the first j in [lo, hi) with mask[j], else hi (hi <= mask.size)."""
    hits = np.append(np.flatnonzero(mask), mask.size)
    return np.minimum(hits[np.searchsorted(hits, lo)], hi)


def _whp_threshold(n: int, trials: int, epsilon: float = 1.0) -> float:
    """Failure-fraction gate: 1/n^epsilon plus 3 binomial standard errors."""
    p0 = 1.0 / n**epsilon
    return p0 + 3.0 * math.sqrt(p0 * (1.0 - p0) / trials)


def plant_pair(
    n: int,
    delta: float,
    x: float,
    y: float,
    expected: DomainLabel,
) -> tuple[int, int]:
    """Round (x, y) to exact counts and insist the classifier agrees.

    Guards against (n, delta) combinations where the target domain is
    empty or the rounding crossed a boundary.
    """
    k_x, k_y = int(round(x * n)), int(round(y * n))
    got = DOMAINS[classify(k_x, k_y, n, delta)]
    if got != expected:
        raise PlantingError(
            f"planted point ({k_x}/{n}, {k_y}/{n}) classifies as {got.value}, "
            f"expected {expected.value} (delta={delta}): "
            "the target domain may be empty at these parameters"
        )
    return k_x, k_y


def _point_row(
    k_x: int,
    k_y: int,
    n: int,
    label: DomainLabel,
    trials: int,
    failures: int,
    threshold: float,
) -> dict:
    """One pointwise report row; PASS iff the failure fraction is <= threshold."""
    frac = failures / trials
    return {
        "point_x": k_x / n,
        "point_y": k_y / n,
        "domain": label.value,
        "trials": trials,
        "failures": failures,
        "failure_fraction": frac,
        "threshold": threshold,
        # Observed e with failure fraction ~ 1/n^e; a floor when failure-free.
        "empirical_exponent_floor": math.log(1.0 / (max(failures, 1) / trials)) / math.log(n),
        "verdict": "PASS" if frac <= threshold else "FAIL",
    }


def _planted_rows(
    lemma: str, config: SimConfig, delta: float, trials: int, gate: float, failed,
    stay: tuple[DomainLabel, ...] = (), cap: int = 1,
) -> list[dict]:
    """One report row per (x, y, label) pair that lemma plants at
    (config.n, delta) (_planted), judged against gate.

    The trials of a pair (k_x, k_y) step together on the stream
    derive_rng(seed, lemma, k_x, k_y) while their pair's domain is in
    stay and they have taken fewer than cap rounds; with stay=() every
    trial steps exactly once.  failed(label, k_last, current, rounds)
    returns the boolean array of failed trials from the last opinion-1
    counts, the classify positions of the last pairs and the
    rounds taken.
    """
    n = config.n
    stay = [DOMAINS.index(label) for label in stay]
    rows = []
    for x, y, label in _planted(lemma, n, delta):
        k_x, k_y = plant_pair(n, delta, x, y, label)
        rng = derive_rng(config.seed, lemma, k_x, k_y)
        k_t, k_t1 = np.full(trials, k_x), np.full(trials, k_y)
        current = np.full(trials, DOMAINS.index(label))
        rounds = np.zeros(trials, dtype=np.int64)
        live = np.arange(trials)
        while live.size:
            k_next = step_aggregate(k_t[live], k_t1[live], config, rng)
            k_t[live], k_t1[live] = k_t1[live], k_next
            current[live] = classify(k_t[live], k_next, n, delta)
            rounds[live] += 1
            live = live[np.isin(current[live], stay) & (rounds[live] < cap)]
        failures = int(failed(label, k_t1, current, rounds).sum())
        rows.append(_point_row(k_x, k_y, n, label, trials, failures, gate))
    return rows


def _planted(lemma: str, n: int, delta: float) -> list[tuple[float, float, DomainLabel]]:
    """The (x, y, label) pairs that Green, Purple or Red plants at (n, delta)."""
    boundary_x = math.ceil(n / math.log(n)) / n
    return {
        "green": [
            (0.2, 0.5, DomainLabel.GREEN1),
            (0.25, 0.5, DomainLabel.GREEN1),
            (0.0, 1.0, DomainLabel.GREEN1),
            (0.8, 0.5, DomainLabel.GREEN0),
            (0.75, 0.5, DomainLabel.GREEN0),
            (1.0, 1.0 / n, DomainLabel.GREEN0),
        ],
        "purple": [
            (0.15, 0.2, DomainLabel.PURPLE1),
            (boundary_x, boundary_x + delta / 2, DomainLabel.PURPLE1),
            (0.85, 0.8, DomainLabel.PURPLE0),
            (1.0 - boundary_x, 1.0 - boundary_x - delta / 2, DomainLabel.PURPLE0),
        ],
        "red": [
            (0.18, 0.12, DomainLabel.RED1),
            (0.17, 0.12, DomainLabel.RED1),
            (0.82, 0.88, DomainLabel.RED0),
            (0.83, 0.88, DomainLabel.RED0),
        ],
    }[lemma]


def _verify_green(
    n: int = 4096,
    ell: int | None = None,
    delta: float = 0.2,
    trials: int = 400,
    seed: int = 0,
) -> tuple[dict, list[dict], dict, bool]:
    """One-round consensus from the Green area.

    From a Green1 pair every non-source agent must adopt 1 in one round
    (fraction hits 1 exactly); mirrored for Green0 (fraction hits 1/n,
    the pinned source).  Requires ell >= (2/delta^2) ln n (_lemma_kwargs
    checks it), the default ell; that forces a larger delta than the
    sweep default 0.05 to keep ell practical.
    """
    config = SimConfig(n=n, ell=ell, seed=seed)

    def failed(label: DomainLabel, k_last: np.ndarray, *_) -> np.ndarray:
        return k_last != (n if label is DomainLabel.GREEN1 else 1)

    rows = _planted_rows("green", config, delta, trials, _whp_threshold(n, trials), failed)
    return {}, rows, {}, True


def _verify_purple(
    n: int = 4096,
    ell: int | None = None,
    delta: float = 0.1,
    trials: int = 400,
    seed: int = 0,
) -> tuple[dict, list[dict], dict, bool]:
    """One-round transition Purple -> Green.

    From a Purple1 pair, the successor pair (x_{t+1}, x_{t+2}) must be
    in Green1 w.h.p.; mirrored for Purple0.  The default ell is Green's
    (2/delta^2) ln n, so delta is again larger than the sweep default.
    """
    config = SimConfig(n=n, ell=ell, seed=seed)

    def failed(label: DomainLabel, _k_last, current: np.ndarray, _rounds) -> np.ndarray:
        target = DomainLabel.GREEN1 if label is DomainLabel.PURPLE1 else DomainLabel.GREEN0
        return current != DOMAINS.index(target)

    rows = _planted_rows("purple", config, delta, trials, _whp_threshold(n, trials), failed)
    return {"lambda_n": lambda_n(n, delta)}, rows, {}, True


def _verify_red(
    n: int = 8192,
    delta: float = 0.1,
    c_sample: float = 3.0,
    trials: int = 400,
    seed: int = 0,
) -> tuple[dict, list[dict], dict, bool]:
    """Exit time and exit target from the Red area.

    The in-Red decay x_{t+1} < (1 - lambda_n) x_t holds by membership,
    so the check is that every trial leaves Red within
    (ln n)^{1/2 + 2 delta} rounds and never exits into Yellow or Red.
    """
    config = SimConfig(n=n, c_sample=c_sample, seed=seed)
    bound = math.log(n) ** (0.5 + 2.0 * delta)
    red = (DomainLabel.RED1, DomainLabel.RED0)
    forbidden = [DOMAINS.index(label) for label in red + (DomainLabel.YELLOW,)]
    exit_tally: Counter[str] = Counter()

    def failed(_label, _k_last, current: np.ndarray, rounds: np.ndarray) -> np.ndarray:
        exit_tally.update(DOMAINS[position].value for position in current.tolist())
        return (rounds >= bound) | np.isin(current, forbidden)

    rows = _planted_rows(
        "red", config, delta, trials, 0.0, failed, stay=red, cap=10 * math.ceil(bound)
    )
    derived = {"ell": config.ell, "lambda_n": lambda_n(n, delta), "exit_round_bound": bound}
    return derived, rows, {"exit_label_tally": dict(exit_tally)}, True


def cyan_expectation_check(n: int, delta: float, ell: int) -> dict:
    """Analytic Cyan growth inequality on the full eligible grid.

    For every grid pair in Cyan1 with x_t < 1/ln n and
    0 < x_{t+1} <= 1/ell, checks
    E[x_{t+2}] >= K x_{t+1} ln n - 1/n with K = c e^{-2c} / 2 at the
    c = ell / ln n of the sample size (cyan_constants).
    Returns counts and the worst margin; zero violations expected.
    Memory is that of a few arrays over the (k_t, k_y) box.
    """
    _, K = cyan_constants(n, ell)
    log_n = math.log(n)
    k_t = np.arange(math.ceil(n / log_n))  # x_t < 1/ln n
    k_y = np.arange(1, math.floor(n / ell) + 1)  # 0 < x_{t+1} <= 1/ell
    # The whole (k_t, k_y) box is labelled in one classify call and its
    # g computed in one broadcast call; Cyan1's |x_{t+1} - x_t| < delta
    # keeps only the diagonal band.
    cyan = classify(k_t[:, None], k_y, n, delta) == DOMAINS.index(DomainLabel.CYAN1)
    g = expected_next_fraction(k_t[:, None] / n, k_y / n, n, ell)
    margins = (g - (K * (k_y / n) * log_n - 1.0 / n))[cyan]
    violations = int((margins < 0).sum())
    worst_margin = float(margins.min(initial=math.inf))
    return {
        "n": n,
        "ell": ell,
        "K": K,
        "grid_points_checked": int(margins.size),
        "violations": violations,
        "worst_margin": worst_margin,
    }


def _verify_cyan(
    n: int = 4096,
    delta: float = 0.05,
    c_sample: float = 3.0,
    trials: int = 400,
    seed: int = 0,
    epsilon: float = 1.0,
) -> tuple[dict, list[dict], dict, bool]:
    """Cyan bounce: simulated escape and the analytic growth inequality.

    (i) From the cyan corner (only the source correct, counters maximally
    misleading), the chain must leave Cyan1 within ln n / ln ln n rounds
    and land in Green1 or Purple1, with failure fraction at most
    1/n^epsilon + 3 SE.  (ii) The expectation inequality of
    cyan_expectation_check must hold with zero violations.
    """
    config = SimConfig(n=n, c_sample=c_sample, seed=seed, max_rounds=1000)
    bound = math.log(n) / math.log(math.log(n))
    good_exits = [DOMAINS.index(DomainLabel.GREEN1), DOMAINS.index(DomainLabel.PURPLE1)]

    gamma, _ = cyan_constants(n, config.ell)
    counts, lengths = _run_cell(config, "cyan_corner", trials)
    domains, _ = label_paths(counts, n, delta)
    ends = np.cumsum(lengths)
    last = ends - 1  # a path's last slot pairs it with the next path
    cyan = domains == DOMAINS.index(DomainLabel.CYAN1)
    t0 = _first(cyan, ends - lengths, last)
    t1 = _first(~cyan, t0, last)
    left = t1 < last  # entered Cyan1 and left it; every other trial fails
    t0, t1 = t0[left], t1[left]
    exits = domains[t1]
    failures = trials - int(((t1 - t0 < bound) & np.isin(exits, good_exits)).sum())
    exit_tally = Counter(DOMAINS[position].value for position in exits.tolist())
    # Large-fraction branch: rounds still in Cyan1 whose x_{t+1}
    # already exceeds gamma, and how often x_{t+2} > 1/2 follows.
    # At desk scale gamma is tiny, so the observed frequency is data
    # for the report, not a verdict input.
    first = _first(counts[1:] / n > gamma, t0, t1)
    crossed = first < t1
    above_half = int((counts[first[crossed] + 2] / n > 0.5).sum())
    gate = _whp_threshold(n, trials, epsilon)
    row = _point_row(1, 1, n, DomainLabel.CYAN1, trials, failures, gate)
    analytic = cyan_expectation_check(n, delta, config.ell)
    derived = {"ell": config.ell, "max_rounds": config.max_rounds, "exit_round_bound": bound}
    details = {
        "exit_label_tally": dict(exit_tally),
        "max_exit_rounds": int((t1 - t0).max()) if t1.size else None,
        "analytic": analytic,
        "large_fraction_branch": {
            "gamma": gamma,
            "trials_crossing_gamma_inside_cyan": int(crossed.sum()),
            "next_fraction_above_half_after_first_crossing": above_half,
        },
    }
    return derived, [row], details, analytic["violations"] == 0


def _fit_loglog(ns: list[int], values: list[float]) -> dict:
    """Fit log(value) against log((ln n)^{5/2}); returns C, slope, r2.

    C is the envelope constant max_n value / (ln n)^{5/2}, so
    "value <= C (ln n)^{5/2}" holds for every sweep point by
    construction; slope and r2 carry the scaling content, and are None
    below two sizes, where no line is fitted.
    """
    envelope = max(v / math.log(n) ** 2.5 for n, v in zip(ns, values))
    if len(ns) < 2:
        return {"C": float(envelope), "slope": None, "r2": None}
    z = np.array([2.5 * math.log(math.log(n)) for n in ns])
    w = np.log(np.maximum(values, 1.0))
    slope, intercept = np.polyfit(z, w, 1)
    pred = slope * z + intercept
    ss_res = float(((w - pred) ** 2).sum())
    ss_tot = float(((w - w.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"C": float(envelope), "slope": float(slope), "r2": float(r2)}


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(sample, q) of the sorted sample, bit for bit (its
    default linear method), without np.percentile, which imports numpy.ma."""
    v = (ordered.size - 1) * (q / 100)
    # From the last index on, numpy takes the last element as both neighbours.
    lo = math.floor(v) if v < ordered.size - 1 else -1
    a, b = ordered[lo], ordered[lo + 1 if lo >= 0 else -1]
    d, g = b - a, v - lo
    return float(b - d * (1 - g) if g >= 0.5 else a + d * g)


def _sweep(n_list, samples: list[np.ndarray]) -> tuple[list[dict], dict]:
    """A sweep's rows (n, quantile50, quantile99, fit_C, fit_r2), one per
    size's times in samples, and the log-log fit of their q99s."""
    ordered = [np.sort(times) for times in samples]
    q99s = [_percentile(times, 99) for times in ordered]
    fit = _fit_loglog(n_list, q99s)
    rows = [
        {"n": n, "quantile50": _percentile(times, 50), "quantile99": q99,
         "fit_C": fit["C"], "fit_r2": fit["r2"]}
        for n, times, q99 in zip(n_list, ordered, q99s)
    ]
    return rows, fit


def _verify_yellow(
    n_list=(1024, 2048, 4096, 8192),
    delta: float = 0.05,
    c_sample: float = 3.0,
    trials: int = 200,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> tuple[dict, list[dict], dict, bool]:
    """Escape time of the central box Yellow' across a population sweep.

    From centered starts, measures the first round the pair leaves
    Yellow', then checks the 99th-percentile escape time grows no
    faster than C (ln n)^{5/2}: log-log fit over at least two sizes
    with r2 >= 0.9 and slope <= SLOPE_TOLERANCE (one size fits no
    scaling, so it is FAIL).  Also tallies the longest consecutive stay
    in the B sub-areas per trial (reported qualitatively against the
    (sqrt(c)/c4) (ln n)^{3/2} scale, c = ell / ln n, c4 = 1/(4 alpha)).
    """
    samples = []
    b_dwell_stats = {}
    all_escaped = True
    for n in n_list:
        config = SimConfig(n=n, c_sample=c_sample, seed=seed, max_rounds=max_rounds)
        counts, lengths = _run_cell(config, "yellow_center", trials)
        _, areas = label_paths(counts, n, delta)
        ends = np.cumsum(lengths)
        starts, last = ends - lengths, ends - 1
        esc = _first(areas == AREAS.index(YellowLabel.OUTSIDE), starts, last)
        all_escaped &= bool((esc < last).all())
        samples.append(np.where(esc < last, esc - starts, max_rounds))
        # Longest run of B slots before the escape: each slot's run
        # length restarts after every slot outside the window or B.
        trial = np.repeat(np.arange(trials), lengths)[:-1]
        slot = np.arange(1, areas.size + 1)
        in_b = np.isin(areas, [AREAS.index(YellowLabel.B1), AREAS.index(YellowLabel.B0)])
        in_b &= slot <= esc[trial]
        runs = slot - np.maximum.accumulate(np.where(in_b, 0, slot))
        b_dwells = np.zeros(trials, dtype=np.int64)
        np.maximum.at(b_dwells, trial, runs)
        c4 = 1.0 / (4.0 * DUEL_ALPHA)
        b_scale = math.sqrt(config.ell / math.log(n)) / c4 * math.log(n) ** 1.5
        b_dwell_stats[str(n)] = {
            "mean_longest_b_dwell": float(np.mean(b_dwells)),
            "q95_longest_b_dwell": _percentile(np.sort(b_dwells), 95),
            "reference_scale": b_scale,
        }

    sweep, fit = _sweep(n_list, samples)
    fits = len(n_list) >= 2 and fit["r2"] >= 0.9 and fit["slope"] <= SLOPE_TOLERANCE
    details = {
        "fit": fit,
        "all_escaped": all_escaped,
        "b_dwell": b_dwell_stats,
        "slope_tolerance": SLOPE_TOLERANCE,
    }
    return {}, sweep, details, all_escaped and fits


def _verify_convergence(
    n_list=(1024, 2048, 4096, 8192),
    presets=("all_wrong_max_counters", "yellow_center", "cyan_corner"),
    delta: float = 0.05,
    c_sample: float = 3.0,
    trials: int = 200,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> tuple[dict, list[dict], dict, bool]:
    """End-to-end convergence times from adversarial presets.

    PASS requires every cell (preset, n) to converge in at least 99% of
    trials within C (ln n)^{5/2}, where C is the single envelope
    constant fitted across the whole sweep, and every trial to converge
    within max_rounds.  The log-log fit of the pooled 99th-percentile
    times is reported alongside for scaling checks.
    """
    times: dict[tuple[str, int], np.ndarray] = {}
    all_converged = True
    for n in n_list:
        config = SimConfig(n=n, c_sample=c_sample, seed=seed, max_rounds=max_rounds)
        for preset in presets:
            counts, lengths = _run_cell(config, preset, trials)
            # lengths - 1 is max_rounds for a trial that never reached consensus.
            all_converged &= bool((counts[np.cumsum(lengths) - 1] == n).all())
            times[(preset, n)] = lengths - 1

    sweep, fit = _sweep(
        n_list, [np.concatenate([times[(preset, n)] for preset in presets]) for n in n_list]
    )
    # Single budget constant across the sweep: envelope over all cells,
    # which the rows report as fit_C in place of the pooled fit's C.
    cell_q99 = {key: _percentile(np.sort(cell), 99) for key, cell in times.items()}
    envelope_c = max(q99 / math.log(n) ** 2.5 for (_, n), q99 in cell_q99.items())
    for row in sweep:
        row["fit_C"] = envelope_c

    cells = {}
    frac_ok = True
    for (preset, n), cell in times.items():
        # In ratio space: envelope_c is one cell's q99 / L exactly, so that
        # cell's q99 passes, where envelope_c * L can round one ulp below it.
        scale = math.log(n) ** 2.5
        budget = envelope_c * scale
        frac = float(np.mean(cell / scale <= envelope_c))
        cells[f"{preset}@{n}"] = {
            "trials": trials,
            "within_budget_fraction": frac,
            "budget_rounds": budget,
            "quantile99": cell_q99[(preset, n)],
        }
        frac_ok &= frac >= 0.99

    # The [OP] verdict rule: every cell >= 99% within the single-C budget
    # and every trial converged.  The pooled-q99 log-log fit (slope and
    # R^2) is reported in details + CSV for the scaling acceptance check,
    # which gates on the slope (<= SLOPE_TOLERANCE) and reports R^2 as data.
    details = {
        "fit_pooled_q99": fit,
        "envelope_C": envelope_c,
        "cells": cells,
        "all_converged": all_converged,
    }
    return {}, sweep, details, all_converged and frac_ok


_RUNNERS = {
    "green": _verify_green,
    "purple": _verify_purple,
    "red": _verify_red,
    "cyan": _verify_cyan,
    "yellow": _verify_yellow,
    "convergence": _verify_convergence,
}
LEMMAS = tuple(_RUNNERS)


@functools.cache
def _signatures() -> tuple[dict[str, inspect.Signature], frozenset[str]]:
    """Each runner's signature and every settings key a lemma reads; once per process."""
    signatures = {name: inspect.signature(fn) for name, fn in _RUNNERS.items()}
    known = {"seed", "trials"} | {
        f"{name}_{param}" for name, signature in signatures.items()
        for param in signature.parameters
    }
    return signatures, frozenset(known)


def _lemma_kwargs(lemma: str, settings: dict) -> dict:
    """The lemma's full, checked arguments: its runner's defaults plus the
    overrides in settings, with Green's and Purple's ell derived if unset.

    settings may carry a global "seed" and "trials" as well as
    lemma-prefixed keys like "green_trials" or "yellow_n_list".  A key
    that names no parameter of any lemma is rejected; one for another
    lemma is ignored.  This is the one gate: every argument passes
    _check, every size the lemma simulates builds its SimConfig, Green's
    ell must reach (2/delta^2) ln n, and every pair that Green, Purple or
    Red plants must classify into its domain; the runners check nothing.
    """
    if lemma not in _RUNNERS:
        raise UsageError(f"unknown lemma {lemma!r}; choose from {LEMMAS}")
    signatures, known = _signatures()
    unknown = sorted(set(settings) - known)
    if unknown:
        raise UsageError(f"unknown verify config key(s) {unknown}; use <lemma>_<parameter>")
    signature = signatures[lemma]
    kwargs = {}
    for key in ("seed", "trials"):
        if key in settings and key in signature.parameters:
            kwargs[key] = settings[key]
    prefix = lemma + "_"
    for key, value in settings.items():
        if key.startswith(prefix) and key[len(prefix):] in signature.parameters:
            kwargs[key[len(prefix):]] = value
    bound = signature.bind(**kwargs)
    bound.apply_defaults()
    args = bound.arguments
    _check(**{key: value for key, value in args.items() if value is not None})
    if lemma in ("green", "purple"):
        # ceil((2/delta^2) ln n): Green's least ell and Purple's default.
        square = args["delta"] ** 2
        needed = (2.0 / square) * math.log(args["n"]) if square else math.inf
        if needed == math.inf:  # delta^2 underflowed, or the quotient overflowed
            raise UsageError(f"{lemma} needs ell >= (2/delta^2) ln n, which is infinite "
                             f"at delta = {args['delta']!r}")
        needed = math.ceil(needed)
        args["ell"] = ell = needed if args["ell"] is None else args["ell"]
    # The joint limits (ell <= n; n >= 3 for the partition; Cyan's positive
    # gamma and K) through the SimConfig of every size the lemma simulates.
    for n in args.get("n_list", [args.get("n")]):
        ell_or_c = {key: args[key] for key in ("ell", "c_sample") if key in args}
        config = SimConfig(n=n, seed=args["seed"], **ell_or_c)
        if lemma != "convergence":
            lambda_n(n, args["delta"])
        if lemma == "cyan":
            cyan_constants(n, config.ell)
    if lemma == "green" and ell < needed:
        raise UsageError(f"green needs ell >= (2/delta^2) ln n = {needed}, got {ell}")
    if lemma in ("green", "purple", "red"):
        for x, y, label in _planted(lemma, args["n"], args["delta"]):
            plant_pair(args["n"], args["delta"], x, y, label)
    return args


def run_lemma(lemma: str, settings: dict | None = None) -> LemmaReport:
    """Run one lemma check at its runner's defaults plus overrides.

    _lemma_kwargs resolves and checks the arguments before any trial.
    From the runner's (derived, rows, details, ok) this builds the report:
    its params are the resolved arguments in signature order, then the
    values the runner fixed or derived (ell, lambda_n, ...), so settings
    "<lemma>_<key>" for its arguments rerun it; rows are a "sweep" for a
    lemma with an n_list, else "pointwise" points; PASS iff ok and every
    point passed.  runtime_s times the runner.
    """
    kwargs = _lemma_kwargs(lemma, settings or {})
    start = time.perf_counter()
    derived, rows, details, ok = _RUNNERS[lemma](**kwargs)
    runtime_s = time.perf_counter() - start
    params = {**kwargs, **derived}
    kind, points, sweep = ("sweep", [], rows) if "n_list" in kwargs else ("pointwise", rows, [])
    ok = ok and all(row["verdict"] == "PASS" for row in points)
    verdict = "PASS" if ok else "FAIL"
    return LemmaReport(lemma, params, kind, verdict, points, sweep, details, runtime_s)


def run_all(settings: dict | None = None) -> dict[str, LemmaReport]:
    """Run every lemma check; the reports by lemma, in LEMMAS order.

    Every lemma's parameters are checked before the first trial, and a
    trial cell is simulated once (_run_cell); each report's trial_cells
    counts the cells its lemma simulated and reused.
    """
    global _cells, _reused
    for lemma in LEMMAS:
        _lemma_kwargs(lemma, settings or {})
    reports, _cells, _reused = {}, {}, 0
    try:
        for lemma in LEMMAS:
            simulated, reused = len(_cells), _reused
            reports[lemma] = run_lemma(lemma, settings)
            reports[lemma].trial_cells = (len(_cells) - simulated, _reused - reused)
    finally:
        _cells = None
    return reports
