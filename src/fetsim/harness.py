"""Statistical verification suite for the per-domain escape lemmas and
the polylogarithmic convergence claim, at desk scale.

Each ``verify_*`` function plants initial states (validated by the
classifier before use), observes the protocol without modifying its
semantics, and reduces the observed counts to a PASS/FAIL verdict that
is recomputable from the emitted raw numbers.  High-probability claims
are tested as "failure fraction <= 1/n^epsilon + 3 standard errors"
with epsilon = 1 by default; the underlying exponents are unspecified
constants, so epsilon is a knob and every report carries the raw
counts.

Scaling claims (Yellow escape, end-to-end convergence) are tested as
properties: quantiles of the measured times are fitted against
(ln n)^{5/2} on a log-log scale.  Only Yellow's verdict uses the fit
(R^2 >= 0.9, slope <= SLOPE_TOLERANCE); convergence just reports it.

The analytic part of the Cyan check evaluates the expectation map on
its whole grid at once, from one batched duel table.

All randomness flows through keyed Philox streams, so a report is a
deterministic function of (parameters, seed).
"""

from __future__ import annotations

import csv
import inspect
from collections import Counter
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_delta, check_number
from .domains import DomainLabel, YellowLabel, classify, classify_array, label_paths
from .dynamics import AnalysisConstants, expected_next_fraction_table
from .errors import PlantingError, UsageError
from .protocol import SimConfig, derive_rng, run_trials, step_aggregate

__all__ = [
    "LemmaReport",
    "cyan_expectation_check",
    "emit",
    "run_all",
    "verify_convergence",
    "verify_cyan",
    "verify_green",
    "verify_purple",
    "verify_red",
    "verify_yellow",
]

LEMMAS = ("green", "purple", "red", "cyan", "yellow", "convergence")

# Documented parameter points for each lemma check.  Green and Purple
# need ell >= (2/delta^2) ln n, which forces a larger delta than the
# sweep default to keep ell practical.
GREEN_DEFAULTS = {"n": 4096, "delta": 0.2, "trials": 400}
PURPLE_DEFAULTS = {"n": 4096, "delta": 0.1, "trials": 400}
RED_DEFAULTS = {"n": 8192, "delta": 0.1, "c_sample": 3.0, "trials": 400}
CYAN_DEFAULTS = {"n": 4096, "delta": 0.05, "c_sample": 3.0, "trials": 400, "epsilon": 1.0}
YELLOW_DEFAULTS = {
    "n_list": (1024, 2048, 4096, 8192),
    "delta": 0.05,
    "c_sample": 3.0,
    "trials": 200,
    "max_rounds": 10_000,
}
CONVERGENCE_DEFAULTS = {
    "n_list": (1024, 2048, 4096, 8192),
    "delta": 0.05,
    "c_sample": 3.0,
    "trials": 200,
    "max_rounds": 10_000,
    "presets": ("all_wrong_max_counters", "yellow_center", "cyan_corner"),
}
_LABELS = tuple(DomainLabel)  # classify_array positions
# Smallest accepted value of each integer parameter (per entry for n_list).
_MINIMUMS = {"n": 2, "n_list": 2, "ell": 1, "trials": 1, "max_rounds": 1}
# Log-log slope above which a sweep no longer counts as "growing no
# faster than C (ln n)^{5/2}" (slack over 1.0 absorbs quantile noise).
SLOPE_TOLERANCE = 1.1


@dataclass
class LemmaReport:
    """Verdict plus the raw counts it was computed from.

    kind selects the CSV schema: "pointwise" rows are
    (point_x, point_y, trials, failures, verdict); "sweep" rows are
    (n, quantile50, quantile99, fit_C, fit_r2).  runtime_s is kept for
    interactive display but excluded from emitted files so that equal
    (config, seed) runs are byte-identical.
    """

    lemma: str
    params: dict
    kind: str
    points: list[dict] = field(default_factory=list)
    sweep: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    verdict: str = "FAIL"
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "kind": self.kind,
            "verdict": self.verdict,
            "points": self.points,
            "sweep": self.sweep,
            "details": self.details,
        }


def _resolve(defaults: dict, **given) -> list:
    """The given parameters in order, each None replaced by its default.

    A given 0 or empty value is kept, not defaulted, so it fails here or
    in SimConfig with a UsageError.  Counts, sweep lists, delta (in
    (0, 1/2)) and the positive reals c_sample and epsilon are checked
    here; the rest where they are used.
    """
    values = []
    for key, value in given.items():
        value = defaults[key] if value is None else value
        if key in ("n_list", "presets"):
            if not isinstance(value, (list, tuple)) or not value:
                raise UsageError(
                    f"{key} must be a non-empty comma-separated list, got {value!r}; "
                    "end a single entry with a comma"
                )
            value = list(value)
        if key in _MINIMUMS:
            for item in value if key == "n_list" else [value]:
                check_number(key, item, numbers.Integral)
                if item < _MINIMUMS[key]:
                    raise UsageError(f"{key} must be >= {_MINIMUMS[key]}, got {item}")
        if key == "delta":
            check_delta(value)
        if key in ("c_sample", "epsilon"):
            check_number(key, value)
            if not value > 0:
                raise UsageError(f"{key} must be positive, got {value!r}")
        values.append(value)
    return values


def _whp_threshold(n: int, trials: int, epsilon: float = 1.0) -> float:
    """Failure-fraction gate: 1/n^epsilon plus 3 binomial standard errors."""
    p0 = 1.0 / n**epsilon
    return p0 + 3.0 * math.sqrt(p0 * (1.0 - p0) / trials)


def _empirical_exponent(failures: int, trials: int, n: int) -> float:
    """Observed e with failure fraction ~ 1/n^e; a floor when failure-free."""
    frac = max(failures, 1) / trials
    return math.log(1.0 / frac) / math.log(n)


def plant_pair(
    n: int,
    constants: AnalysisConstants,
    x: float,
    y: float,
    expected: DomainLabel,
) -> tuple[int, int]:
    """Round (x, y) to exact counts and insist the classifier agrees.

    Guards against (n, delta) combinations where the target domain is
    empty or the rounding crossed a boundary.
    """
    k_x, k_y = int(round(x * n)), int(round(y * n))
    got = classify((k_x / n, k_y / n), n, constants)
    if got != expected:
        raise PlantingError(
            f"planted point ({k_x}/{n}, {k_y}/{n}) classifies as {got.value}, "
            f"expected {expected.value} (delta={constants.delta}): "
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
        "empirical_exponent_floor": _empirical_exponent(failures, trials, n),
        "verdict": "PASS" if frac <= threshold else "FAIL",
    }


def _one_round_points(
    lemma: str,
    n: int,
    delta: float,
    ell: int,
    trials: int,
    seed: int,
    planted: list[tuple[float, float, DomainLabel]],
    success_fn,
) -> tuple[list[dict], bool]:
    """Shared loop for the one-round lemmas (Green, Purple).

    Each planted pair (k_x, k_y) steps all its trials in one batched
    round; success_fn(label, k_y, k_next) judges them from the array of
    next opinion-1 counts k_next, returning a boolean array.
    """
    constants = AnalysisConstants.for_population(n, delta=delta, ell=ell)
    config = SimConfig(n=n, ell=ell, delta=delta, seed=seed)
    gate = _whp_threshold(n, trials)
    rows = []
    for x, y, label in planted:
        k_x, k_y = plant_pair(n, constants, x, y, label)
        rng = derive_rng(seed, lemma, k_x, k_y)
        k_next = step_aggregate(np.full(trials, k_x), np.full(trials, k_y), config, rng)
        failures = int(trials - success_fn(label, k_y, k_next).sum())
        rows.append(_point_row(k_x, k_y, n, label, trials, failures, gate))
    return rows, all(row["verdict"] == "PASS" for row in rows)


def verify_green(
    n: int | None = None,
    ell: int | None = None,
    delta: float | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> LemmaReport:
    """One-round consensus from the Green area.

    From a Green1 pair every non-source agent must adopt 1 in one round
    (fraction hits 1 exactly); mirrored for Green0 (fraction hits 1/n,
    the pinned source).  Requires ell >= (2/delta^2) ln n.
    """
    start = time.perf_counter()
    n, delta, trials = _resolve(GREEN_DEFAULTS, n=n, delta=delta, trials=trials)
    needed = math.ceil((2.0 / delta**2) * math.log(n))
    (ell,) = _resolve({"ell": needed}, ell=ell)
    if ell < needed:
        raise UsageError(f"verify_green needs ell >= (2/delta^2) ln n = {needed}, got {ell}")

    def success(label: DomainLabel, _k_y: int, k_next: np.ndarray) -> np.ndarray:
        return k_next == (n if label is DomainLabel.GREEN1 else 1)

    planted = [
        (0.2, 0.5, DomainLabel.GREEN1),
        (0.25, 0.5, DomainLabel.GREEN1),
        (0.0, 1.0, DomainLabel.GREEN1),
        (0.8, 0.5, DomainLabel.GREEN0),
        (0.75, 0.5, DomainLabel.GREEN0),
        (1.0, 1.0 / n, DomainLabel.GREEN0),
    ]
    rows, ok = _one_round_points("green", n, delta, ell, trials, seed, planted, success)
    return LemmaReport(
        lemma="green",
        params={"n": n, "ell": ell, "delta": delta, "trials": trials, "seed": seed},
        kind="pointwise",
        points=rows,
        verdict="PASS" if ok else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


def verify_purple(
    n: int | None = None,
    ell: int | None = None,
    delta: float | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> LemmaReport:
    """One-round transition Purple -> Green.

    From a Purple1 pair, the successor pair (x_{t+1}, x_{t+2}) must be
    in Green1 w.h.p.; mirrored for Purple0.
    """
    start = time.perf_counter()
    n, delta, trials = _resolve(PURPLE_DEFAULTS, n=n, delta=delta, trials=trials)
    (ell,) = _resolve({"ell": math.ceil((2.0 / delta**2) * math.log(n))}, ell=ell)
    constants = AnalysisConstants.for_population(n, delta=delta, ell=ell)

    def success(label: DomainLabel, k_y: int, k_next: np.ndarray) -> np.ndarray:
        target = DomainLabel.GREEN1 if label is DomainLabel.PURPLE1 else DomainLabel.GREEN0
        return classify_array(k_y / n, k_next / n, constants) == _LABELS.index(target)

    boundary_x = math.ceil(n / math.log(n)) / n
    planted = [
        (0.15, 0.2, DomainLabel.PURPLE1),
        (boundary_x, boundary_x + delta / 2, DomainLabel.PURPLE1),
        (0.85, 0.8, DomainLabel.PURPLE0),
        (1.0 - boundary_x, 1.0 - boundary_x - delta / 2, DomainLabel.PURPLE0),
    ]
    rows, ok = _one_round_points("purple", n, delta, ell, trials, seed, planted, success)
    return LemmaReport(
        lemma="purple",
        params={
            "n": n,
            "ell": ell,
            "delta": delta,
            "trials": trials,
            "seed": seed,
            "lambda_n": constants.lambda_n,
        },
        kind="pointwise",
        points=rows,
        verdict="PASS" if ok else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


def verify_red(
    n: int | None = None,
    delta: float | None = None,
    c_sample: float | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> LemmaReport:
    """Exit time and exit target from the Red area.

    The in-Red decay x_{t+1} < (1 - lambda_n) x_t holds by membership,
    so the check is that every trial leaves Red within
    (ln n)^{1/2 + 2 delta} rounds and never exits into Yellow or Red.
    """
    start = time.perf_counter()
    n, delta, c_sample, trials = _resolve(
        RED_DEFAULTS, n=n, delta=delta, c_sample=c_sample, trials=trials
    )
    config = SimConfig(n=n, c_sample=c_sample, delta=delta, seed=seed)
    constants = config.constants()
    bound = math.log(n) ** (0.5 + 2.0 * delta)
    red = [_LABELS.index(DomainLabel.RED1), _LABELS.index(DomainLabel.RED0)]
    forbidden = red + [_LABELS.index(DomainLabel.YELLOW)]
    cap = 10 * math.ceil(bound)

    planted = [
        (0.18, 0.12, DomainLabel.RED1),
        (0.17, 0.12, DomainLabel.RED1),
        (0.82, 0.88, DomainLabel.RED0),
        (0.83, 0.88, DomainLabel.RED0),
    ]
    rows = []
    exit_tally: Counter[str] = Counter()
    for x, y, label in planted:
        k_x, k_y = plant_pair(n, constants, x, y, label)
        rng = derive_rng(seed, "red", k_x, k_y)
        # The trials still in Red step together until each leaves or hits the cap.
        k_t, k_t1 = np.full(trials, k_x), np.full(trials, k_y)
        current = np.full(trials, _LABELS.index(label))
        rounds = np.zeros(trials, dtype=np.int64)
        live = np.arange(trials)
        while live.size:
            k_next = step_aggregate(k_t[live], k_t1[live], config, rng)
            k_t[live], k_t1[live] = k_t1[live], k_next
            current[live] = classify_array(k_t[live] / n, k_next / n, constants)
            rounds[live] += 1
            live = live[np.isin(current[live], red) & (rounds[live] < cap)]
        exit_tally.update(_LABELS[position].value for position in current.tolist())
        failures = int(((rounds >= bound) | np.isin(current, forbidden)).sum())
        rows.append(_point_row(k_x, k_y, n, label, trials, failures, 0.0))
    all_pass = all(row["verdict"] == "PASS" for row in rows)
    return LemmaReport(
        lemma="red",
        params={
            "n": n,
            "ell": config.ell,
            "delta": delta,
            "trials": trials,
            "seed": seed,
            "exit_round_bound": bound,
            "lambda_n": constants.lambda_n,
        },
        kind="pointwise",
        points=rows,
        details={"exit_label_tally": dict(exit_tally)},
        verdict="PASS" if all_pass else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


def cyan_expectation_check(
    n: int,
    delta: float = 0.05,
    c_sample: float = 3.0,
) -> dict:
    """Analytic Cyan growth inequality on the full eligible grid.

    For every grid pair in Cyan1 with x_t < 1/ln n and
    0 < x_{t+1} <= 1/ell, checks
    E[x_{t+2}] >= K x_{t+1} ln n - 1/n with K = c e^{-2c} / 2.
    Returns counts and the worst margin; zero violations expected.
    Memory is that of a few arrays over the (k_t, k_y) box.
    """
    constants = AnalysisConstants.for_population(n, delta=delta, c_sample=c_sample)
    ell = constants.ell
    log_n = math.log(n)
    k_t = np.arange(math.ceil(n / log_n))  # x_t < 1/ln n
    k_y = np.arange(1, math.floor(n / ell) + 1)  # 0 < x_{t+1} <= 1/ell
    # The whole (k_t, k_y) box is labelled in one classify_array call and
    # its g computed from one duel table; Cyan1's |x_{t+1} - x_t| < delta
    # keeps only the diagonal band.
    cyan1 = list(DomainLabel).index(DomainLabel.CYAN1)
    cyan = classify_array(k_t[:, None] / n, k_y / n, constants) == cyan1
    g = expected_next_fraction_table(k_t, k_y, n, ell)
    margins = (g - (constants.K * (k_y / n) * log_n - 1.0 / n))[cyan]
    violations = int((margins < 0).sum())
    worst_margin = float(margins.min(initial=math.inf))
    return {
        "n": n,
        "ell": ell,
        "K": constants.K,
        "grid_points_checked": int(margins.size),
        "violations": violations,
        "worst_margin": worst_margin,
    }


def verify_cyan(
    n: int | None = None,
    delta: float | None = None,
    c_sample: float | None = None,
    trials: int | None = None,
    seed: int = 0,
    epsilon: float | None = None,
) -> LemmaReport:
    """Cyan bounce: simulated escape and the analytic growth inequality.

    (i) From the cyan corner (only the source correct, counters maximally
    misleading), the chain must leave Cyan1 within ln n / ln ln n rounds
    and land in Green1 or Purple1, with failure fraction at most
    1/n^epsilon + 3 SE.  (ii) The expectation inequality of
    cyan_expectation_check must hold with zero violations.
    """
    start = time.perf_counter()
    n, delta, c_sample, trials, epsilon = _resolve(
        CYAN_DEFAULTS, n=n, delta=delta, c_sample=c_sample, trials=trials, epsilon=epsilon
    )
    config = SimConfig(
        n=n, c_sample=c_sample, delta=delta, seed=seed, max_rounds=1000
    )
    bound = math.log(n) / math.log(math.log(n))
    good_exits = {DomainLabel.GREEN1, DomainLabel.PURPLE1}

    gamma = config.constants().gamma
    failures = 0
    exit_tally: dict[str, int] = {}
    exit_rounds: list[int] = []
    gamma_crossed = 0
    gamma_then_above_half = 0
    paths = [traj.counts for traj in run_trials(config, "cyan_corner", trials)]
    for counts, (labels, _) in zip(paths, label_paths(paths, n, delta, config.ell)):
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
        # Large-fraction branch: rounds still in Cyan1 whose x_{t+1}
        # already exceeds gamma, and how often x_{t+2} > 1/2 follows.
        # At desk scale gamma is tiny, so the observed frequency is data
        # for the report, not a verdict input.
        crossings = [i for i in range(t0, t1) if counts[i + 1] / n > gamma]
        if crossings:
            gamma_crossed += 1
            first = crossings[0]
            if first + 2 < len(counts) and counts[first + 2] / n > 0.5:
                gamma_then_above_half += 1
    gate = _whp_threshold(n, trials, epsilon)
    row = _point_row(1, 1, n, DomainLabel.CYAN1, trials, failures, gate)
    analytic = cyan_expectation_check(n, delta=delta, c_sample=c_sample)
    ok = row["verdict"] == "PASS" and analytic["violations"] == 0
    return LemmaReport(
        lemma="cyan",
        params={
            "n": n,
            "ell": config.ell,
            "delta": delta,
            "trials": trials,
            "seed": seed,
            "epsilon": epsilon,
            "exit_round_bound": bound,
        },
        kind="pointwise",
        points=[row],
        details={
            "exit_label_tally": exit_tally,
            "max_exit_rounds": max(exit_rounds) if exit_rounds else None,
            "analytic": analytic,
            "large_fraction_branch": {
                "gamma": gamma,
                "trials_crossing_gamma_inside_cyan": gamma_crossed,
                "next_fraction_above_half_after_first_crossing": gamma_then_above_half,
            },
        },
        verdict="PASS" if ok else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


def _fit_loglog(ns: list[int], values: list[float]) -> dict:
    """Fit log(value) against log((ln n)^{5/2}); returns C, slope, r2.

    C is the envelope constant max_n value / (ln n)^{5/2}, so
    "value <= C (ln n)^{5/2}" holds for every sweep point by
    construction; slope and r2 carry the scaling content.
    """
    z = np.array([2.5 * math.log(math.log(n)) for n in ns])
    w = np.log(np.maximum(values, 1.0))
    if len(ns) < 2:
        slope, r2 = 0.0, 1.0
    else:
        slope, intercept = np.polyfit(z, w, 1)
        pred = slope * z + intercept
        ss_res = float(((w - pred) ** 2).sum())
        ss_tot = float(((w - w.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    envelope = max(
        v / math.log(n) ** 2.5 for n, v in zip(ns, values)
    )
    return {"C": float(envelope), "slope": float(slope), "r2": float(r2)}


def verify_yellow(
    n_list=None,
    delta: float | None = None,
    c_sample: float | None = None,
    trials: int | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
) -> LemmaReport:
    """Escape time of the central box Yellow' across a population sweep.

    From centered starts, measures the first round the pair leaves
    Yellow', then checks the 99th-percentile escape time grows no
    faster than C (ln n)^{5/2}: log-log fit with r2 >= 0.9 and slope
    <= SLOPE_TOLERANCE.  Also tallies the longest consecutive stay in
    the B sub-areas per trial (reported qualitatively against the
    (sqrt(c)/c4) (ln n)^{3/2} scale, c4 = 1/(4 alpha)).
    """
    start = time.perf_counter()
    n_list, delta, c_sample, trials, max_rounds = _resolve(
        YELLOW_DEFAULTS,
        n_list=n_list,
        delta=delta,
        c_sample=c_sample,
        trials=trials,
        max_rounds=max_rounds,
    )

    sweep = []
    q99s = []
    b_dwell_stats = {}
    all_escaped = True
    for n in n_list:
        config = SimConfig(
            n=n, c_sample=c_sample, delta=delta, seed=seed, max_rounds=max_rounds
        )
        escapes = []
        b_dwells = []
        paths = [traj.counts for traj in run_trials(config, "yellow_center", trials)]
        for _, yellows in label_paths(paths, n, delta, config.ell):
            esc = next(
                (i for i, lab in enumerate(yellows) if lab is YellowLabel.OUTSIDE),
                None,
            )
            if esc is None:
                all_escaped = False
                esc = max_rounds
            escapes.append(esc)
            longest = current = 0
            for lab in yellows[:esc]:
                if lab in (YellowLabel.B1, YellowLabel.B0):
                    current += 1
                    longest = max(longest, current)
                else:
                    current = 0
            b_dwells.append(longest)
        arr = np.array(escapes)
        q50 = float(np.percentile(arr, 50))
        q99 = float(np.percentile(arr, 99))
        q99s.append(q99)
        c4 = 1.0 / (4.0 * config.constants().alpha)
        b_scale = math.sqrt(c_sample) / c4 * math.log(n) ** 1.5
        b_dwell_stats[str(n)] = {
            "mean_longest_b_dwell": float(np.mean(b_dwells)),
            "q95_longest_b_dwell": float(np.percentile(b_dwells, 95)),
            "reference_scale": b_scale,
        }
        sweep.append({"n": n, "quantile50": q50, "quantile99": q99})

    fit = _fit_loglog(n_list, q99s)
    for row in sweep:
        row["fit_C"] = fit["C"]
        row["fit_r2"] = fit["r2"]
    ok = all_escaped and fit["r2"] >= 0.9 and fit["slope"] <= SLOPE_TOLERANCE
    return LemmaReport(
        lemma="yellow",
        params={
            "n_list": n_list,
            "delta": delta,
            "c_sample": c_sample,
            "trials": trials,
            "seed": seed,
            "max_rounds": max_rounds,
        },
        kind="sweep",
        sweep=sweep,
        details={
            "fit": fit,
            "all_escaped": all_escaped,
            "b_dwell": b_dwell_stats,
            "slope_tolerance": SLOPE_TOLERANCE,
        },
        verdict="PASS" if ok else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


def verify_convergence(
    n_list=None,
    presets=None,
    delta: float | None = None,
    c_sample: float | None = None,
    trials: int | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
) -> LemmaReport:
    """End-to-end convergence times from adversarial presets.

    PASS requires every cell (preset, n) to converge in at least 99% of
    trials within C (ln n)^{5/2}, where C is the single envelope
    constant fitted across the whole sweep, and every trial to converge
    within max_rounds.  The log-log fit of the pooled 99th-percentile
    times is reported alongside for scaling checks.
    """
    start = time.perf_counter()
    n_list, presets, delta, c_sample, trials, max_rounds = _resolve(
        CONVERGENCE_DEFAULTS,
        n_list=n_list,
        presets=presets,
        delta=delta,
        c_sample=c_sample,
        trials=trials,
        max_rounds=max_rounds,
    )

    times: dict[tuple[str, int], list[int]] = {}
    all_converged = True
    for n in n_list:
        config = SimConfig(
            n=n, c_sample=c_sample, delta=delta, seed=seed, max_rounds=max_rounds
        )
        for preset in presets:
            cell = []
            for traj in run_trials(config, preset, trials):
                if traj.converged_round is None:
                    all_converged = False
                    cell.append(max_rounds)
                else:
                    cell.append(traj.converged_round)
            times[(preset, n)] = cell

    pooled_q99 = []
    sweep = []
    for n in n_list:
        pooled = np.concatenate([times[(preset, n)] for preset in presets])
        q50 = float(np.percentile(pooled, 50))
        q99 = float(np.percentile(pooled, 99))
        pooled_q99.append(q99)
        sweep.append({"n": n, "quantile50": q50, "quantile99": q99})
    fit = _fit_loglog(n_list, pooled_q99)

    # Single budget constant across the sweep: envelope over all cells.
    envelope_c = max(
        float(np.percentile(cell, 99)) / math.log(n) ** 2.5
        for (_, n), cell in times.items()
    )
    for row in sweep:
        row["fit_C"] = envelope_c
        row["fit_r2"] = fit["r2"]

    cells = {}
    frac_ok = True
    for (preset, n), cell in times.items():
        budget = envelope_c * math.log(n) ** 2.5
        frac = float(np.mean(np.array(cell) <= budget))
        cells[f"{preset}@{n}"] = {
            "trials": trials,
            "within_budget_fraction": frac,
            "budget_rounds": budget,
            "quantile99": float(np.percentile(cell, 99)),
        }
        frac_ok &= frac >= 0.99

    # The [OP] verdict rule: every cell >= 99% within the single-C budget
    # and every trial converged.  The pooled-q99 log-log fit (slope and
    # R^2) is reported in details + CSV for the scaling acceptance check,
    # which gates on the slope (<= SLOPE_TOLERANCE) and reports R^2 as data.
    ok = all_converged and frac_ok
    return LemmaReport(
        lemma="convergence",
        params={
            "n_list": n_list,
            "presets": presets,
            "delta": delta,
            "c_sample": c_sample,
            "trials": trials,
            "seed": seed,
            "max_rounds": max_rounds,
        },
        kind="sweep",
        sweep=sweep,
        details={
            "fit_pooled_q99": fit,
            "envelope_C": envelope_c,
            "cells": cells,
            "all_converged": all_converged,
        },
        verdict="PASS" if ok else "FAIL",
        runtime_s=time.perf_counter() - start,
    )


POINT_FIELDS = ("point_x", "point_y", "trials", "failures", "verdict")
SWEEP_FIELDS = ("n", "quantile50", "quantile99", "fit_C", "fit_r2")


def emit(report: LemmaReport, fmt: str, path) -> Path:
    """Write a report as CSV or JSON with a stable schema.

    Volatile fields (runtime) are excluded so identical (config, seed)
    runs produce byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    elif fmt == "csv":
        if report.kind == "pointwise":
            fields, rows = POINT_FIELDS, report.points
        else:
            fields, rows = SWEEP_FIELDS, report.sweep
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    else:
        raise UsageError(f"unknown emit format {fmt!r} (use 'csv' or 'json')")
    return path


_RUNNERS = {
    "green": verify_green,
    "purple": verify_purple,
    "red": verify_red,
    "cyan": verify_cyan,
    "yellow": verify_yellow,
    "convergence": verify_convergence,
}


def run_lemma(lemma: str, settings: dict | None = None) -> LemmaReport:
    """Run one lemma check with documented defaults plus overrides.

    settings may carry a global "seed" and "trials" as well as
    lemma-prefixed keys like "green_trials" or "yellow_n_list".  A key
    that names no parameter of any lemma is rejected; one for another
    lemma is ignored.
    """
    if lemma not in _RUNNERS:
        raise UsageError(f"unknown lemma {lemma!r}; choose from {LEMMAS}")
    settings = settings or {}
    known = {"seed", "trials"} | {
        f"{name}_{param}"
        for name, fn in _RUNNERS.items()
        for param in inspect.signature(fn).parameters
    }
    unknown = sorted(set(settings) - known)
    if unknown:
        raise UsageError(f"unknown verify config key(s) {unknown}; use <lemma>_<parameter>")
    runner = _RUNNERS[lemma]
    accepted = set(inspect.signature(runner).parameters)
    kwargs = {}
    for key in ("seed", "trials"):
        if key in settings and key in accepted:
            kwargs[key] = settings[key]
    prefix = lemma + "_"
    for key, value in settings.items():
        if key.startswith(prefix) and key[len(prefix):] in accepted:
            kwargs[key[len(prefix):]] = value
    return runner(**kwargs)


def run_all(settings: dict | None = None, out_dir=None) -> dict[str, LemmaReport]:
    """Run every lemma check; optionally emit CSV+JSON per lemma.

    When out_dir is given, writes <lemma>.csv, <lemma>.json and a
    summary.json of verdicts.
    """
    reports = {}
    for lemma in LEMMAS:
        reports[lemma] = run_lemma(lemma, settings)
    if out_dir is not None:
        out_dir = Path(out_dir)
        for lemma, report in reports.items():
            emit(report, "csv", out_dir / f"{lemma}.csv")
            emit(report, "json", out_dir / f"{lemma}.json")
        summary = {lemma: report.verdict for lemma, report in reports.items()}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return reports
