"""Lemma verification harness: verdicts, emission, determinism."""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import cyan_oracle, domain_oracle, split_paths, yellow_oracle
from fetsim import harness
from fetsim.cli import main
from fetsim.errors import DomainError, PlantingError, UsageError
from fetsim.harness import (
    POINT_FIELDS,
    SLOPE_TOLERANCE,
    SWEEP_FIELDS,
    _first,
    _fit_loglog,
    _planted_rows,
    cyan_expectation_check,
    plant_pair,
    run_lemma,
)
from fetsim.domains import DomainLabel, lambda_n
from fetsim.dynamics import cyan_constants, expected_next_fraction
from fetsim.protocol import SimConfig, derive_rng, run_trials, step_aggregate


def verify(tmp_path, lemma, config, out="out"):
    """The --out directory of `fetsim verify --lemma LEMMA` run on the config text."""
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(config)
    argv = ["verify", "--lemma", lemma, "--config", str(cfg), "--out", str(tmp_path / out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)  # a verdict, not a usage error
    return tmp_path / out


class TestPlanting:
    def test_valid_plant(self):
        kx, ky = plant_pair(4096, 0.2, 0.2, 0.5, DomainLabel.GREEN1)
        assert (kx, ky) == (819, 2048)

    def test_empty_domain_aborts(self):
        # Red is empty at (n=4096, delta=0.05): lambda_n is too large for
        # any x to satisfy both band conditions.
        y = 0.3 * (1 - lambda_n(4096, 0.05)) * 0.9
        with pytest.raises(PlantingError):
            plant_pair(4096, 0.05, 0.3, y, DomainLabel.RED1)


class TestPlantedRows:
    def test_no_stay_steps_each_trial_once_on_the_pair_stream(self):
        # stay=() is the one-round runner of Green and Purple: one
        # step_aggregate call per planted pair on its keyed stream.
        config = SimConfig(n=1024, seed=7)
        seen = []

        def failed(label, k_last, current, rounds):
            seen.append((label, k_last.copy(), rounds.copy()))
            return k_last > 512

        rows = _planted_rows("green", config, 0.2, 60, 1.0, failed)
        planted = harness._planted("green", 1024, 0.2)
        assert len(rows) == len(seen) == len(planted) == 6
        for (x, y, label), row, (got_label, k_last, rounds) in zip(planted, rows, seen):
            k_x, k_y = plant_pair(1024, 0.2, x, y, label)
            expected = step_aggregate(
                np.full(60, k_x), np.full(60, k_y), config, derive_rng(7, "green", k_x, k_y)
            )
            assert got_label is label
            assert rounds.tolist() == [1] * 60
            assert k_last.tolist() == np.asarray(expected).tolist()
            assert row["failures"] == int((expected > 512).sum())
            assert (row["point_x"], row["point_y"], row["trials"]) == (k_x / 1024, k_y / 1024, 60)
        assert len(set(seen[0][1].tolist())) > 1  # a random round, not a forced one


class TestGreen:
    def test_documented_point_passes(self):
        report = run_lemma("green", {"trials": 150, "seed": 0})
        assert report.verdict == "PASS"
        assert {row["domain"] for row in report.points} == {"Green1", "Green0"}
        for row in report.points:
            assert row["failures"] == 0

    def test_ell_precondition(self):
        with pytest.raises(UsageError):
            run_lemma("green", {"green_n": 4096, "green_delta": 0.2, "green_ell": 100})

    def test_failed_rows_fail_the_lemma(self, monkeypatch):
        # No failure fraction is <= -1, so every row fails, and with it
        # the pointwise verdict.
        monkeypatch.setattr(harness, "_whp_threshold", lambda *_args: -1.0)
        report = run_lemma("green", {"trials": 10})
        assert report.kind == "pointwise" and len(report.points) == 6
        assert {row["verdict"] for row in report.points} == {"FAIL"}
        assert report.verdict == "FAIL"


class TestPurple:
    def test_documented_point_passes(self):
        report = run_lemma("purple", {"trials": 150, "seed": 0})
        assert report.verdict == "PASS"
        xs = {row["point_x"] for row in report.points}
        boundary = math.ceil(4096 / math.log(4096)) / 4096
        assert boundary in xs


class TestRed:
    def test_exit_fast_and_never_into_yellow_or_red(self):
        report = run_lemma("red", {"trials": 150, "seed": 0})
        assert report.verdict == "PASS"
        tally = report.details["exit_label_tally"]
        assert set(tally) <= {"Green1", "Purple1", "Green0", "Purple0", "Cyan1", "Cyan0"}
        assert report.params["exit_round_bound"] < 5


class TestCyan:
    def test_simulated_and_analytic_pass(self):
        report = run_lemma("cyan", {"trials": 120, "seed": 0})
        assert report.verdict == "PASS"
        assert report.details["analytic"]["violations"] == 0
        assert report.details["max_exit_rounds"] < report.params["exit_round_bound"]
        assert set(report.details["exit_label_tally"]) <= {"Green1", "Purple1"}

    def test_analytic_violation_fails_while_the_row_passes(self, monkeypatch):
        # The lemma's own condition (zero analytic violations) fails it
        # even when every simulated row passes.
        check = harness.cyan_expectation_check
        monkeypatch.setattr(
            harness, "cyan_expectation_check", lambda *a, **k: {**check(*a, **k), "violations": 1}
        )
        report = run_lemma("cyan", {"cyan_n": 256, "trials": 20})
        (row,) = report.points
        assert row["verdict"] == "PASS"
        assert report.details["analytic"]["violations"] == 1
        assert report.verdict == "FAIL"

    def test_gamma_and_k_read_c_from_the_trials_ell(self):
        # Both Cyan thresholds are taken at the c = ell / ln n of the
        # trials' sample size: ell = 17 at n = 256 is c = 3.066, not 3.
        report = run_lemma("cyan", {"cyan_n": 256, "trials": 20})
        gamma, K = cyan_constants(256, report.params["ell"])
        assert report.details["analytic"]["K"] == K
        assert report.details["large_fraction_branch"]["gamma"] == gamma

    def test_expectation_grid_small_population(self):
        result = cyan_expectation_check(512, 0.05, math.ceil(3.0 * math.log(512)))
        assert result["violations"] == 0
        assert result["grid_points_checked"] > 0
        assert result["worst_margin"] > 0

    @pytest.mark.parametrize("n, delta", [(512, 0.05), (1024, 0.1)])
    def test_expectation_grid_matches_pointwise_loop(self, n, delta):
        # The band labelled in one array call visits the same Cyan1
        # points as a loop over the band with the pointwise oracle.
        ell, log_n, reach = math.ceil(3.0 * math.log(n)), math.log(n), math.ceil(delta * n)
        _, K = cyan_constants(n, ell)
        margins = []
        for k_y in range(1, n // ell + 1):
            for k_t in range(max(0, k_y - reach), min(math.ceil(n / log_n) - 1, k_y + reach) + 1):
                if domain_oracle((k_t, k_y), n, delta) is DomainLabel.CYAN1:
                    g = expected_next_fraction(k_t / n, k_y / n, n, ell)
                    margins.append(g - (K * (k_y / n) * log_n - 1.0 / n))
        result = cyan_expectation_check(n, delta, ell)
        assert result["grid_points_checked"] == len(margins) > 0
        assert result["worst_margin"] == min(margins)
        assert result["violations"] == sum(m < 0 for m in margins)


    def test_expectation_grid_memory_bounded(self):
        # One broadcast duels call for the whole box: 3.3 MB peak measured
        # at n = 4096 (46,781 Cyan1 points).  A scalar duel per point, with
        # the LRU cache filling, peaked at 17.7 MB; gathering per-point
        # pmf rows would need about 10 MB per table.
        tracemalloc.start()
        try:
            result = cyan_expectation_check(4096, 0.05, 25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result["grid_points_checked"] == 46_781
        assert peak < 8e6


class TestSweeps:
    def test_yellow_reduced_sweep_reports(self):
        report = run_lemma("yellow", {
            "yellow_n_list": (256, 512), "trials": 40, "seed": 1, "yellow_max_rounds": 4000
        })
        assert report.kind == "sweep"
        assert len(report.sweep) == 2
        for row in report.sweep:
            assert set(row) >= {"n", "quantile50", "quantile99", "fit_C", "fit_r2"}
        assert report.details["all_escaped"]
        assert "b_dwell" in report.details

    def test_yellow_one_size_is_fail(self):
        # One size fits no scaling: the fit has no slope or R^2, and the
        # verdict is FAIL.
        report = run_lemma("yellow", {"yellow_n_list": [1024], "trials": 50})
        assert report.details["all_escaped"]
        fit = report.details["fit"]
        assert (fit["slope"], fit["r2"]) == (None, None)
        assert report.verdict == "FAIL"

    def test_convergence_one_size_reports_no_fit(self, tmp_path):
        # A one-size sweep fits no line: slope and R^2 are null in the
        # JSON and fit_r2 is an empty CSV cell, where a slope of 0 and an
        # R^2 of 1 would pass a slope gate.  The envelope C is still data.
        report = run_lemma(
            "convergence",
            {"convergence_n_list": [128], "convergence_trials": 100,
             "convergence_presets": ["all_wrong"]},
        )
        fit = report.details["fit_pooled_q99"]
        assert (fit["slope"], fit["r2"]) == (None, None) and fit["C"] > 0
        out = verify(tmp_path, "convergence", "convergence_n_list = 128,\n"
                     "convergence_trials = 100\nconvergence_presets = all_wrong,\n")
        with (out / "convergence.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert row["fit_r2"] == "" and float(row["fit_C"]) > 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["details"]["fit_pooled_q99"]["r2"] is None

    @pytest.mark.parametrize(
        "draw",
        [lambda rng, m: rng.integers(0, 10_000, m), lambda rng, m: rng.lognormal(0.0, 4.0, m)],
        ids=["int64", "float64"],
    )
    def test_percentile_has_numpys_bits(self, draw):
        # The sweep quantiles skip np.percentile (it imports numpy.ma) but
        # must give its linear method's floats exactly, ties included; the
        # floats span magnitudes, where a + d*g and b - d*(1 - g) round apart.
        rng = np.random.default_rng(7)
        samples = [draw(rng, m) for m in range(1, 401)]
        samples.append(np.array([3, 3, 3, 5, 5, 9, 9, 9, 9, 12]).astype(samples[0].dtype))
        for sample in samples:
            ordered = np.sort(sample)
            for q in (0, 50, 95, 99, 100):
                assert harness._percentile(ordered, q) == float(np.percentile(sample, q))

    def test_repeated_sweep_size_rejected(self):
        with pytest.raises(UsageError, match="n_list"):
            run_lemma("yellow", {"yellow_n_list": [1024, 1024], "trials": 50})
        with pytest.raises(UsageError, match="n_list"):
            run_lemma("convergence", {"convergence_n_list": [128, 256, 128]})

    def test_yellow_needs_the_partition(self):
        # At n = 2 the partition constants do not exist (ln n < 1), so
        # there is no Yellow' to escape from.
        with pytest.raises(DomainError, match="n must be >= 3"):
            run_lemma("yellow", {"yellow_n_list": [2, 3], "yellow_c_sample": 0.5, "trials": 5})

    def test_repeated_preset_rejected(self):
        # A repeated preset would count one cell's trials twice in the
        # pooled quantiles.
        with pytest.raises(UsageError, match="presets must not repeat"):
            run_lemma("convergence", {"convergence_presets": ["yellow_center", "yellow_center"]})

    @pytest.mark.parametrize(
        "preset",
        [np.zeros(8), (np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.int32)), 0.3],
        ids=["ndarray", "opinions_counters", "float"],
    )
    def test_non_string_preset_rejected(self, preset):
        with pytest.raises(UsageError, match="preset must be a string"):
            harness._check(presets=["all_wrong", preset])

    def test_convergence_reduced_sweep(self):
        # 100 trials is the smallest count where "99% within budget" is
        # reachable (one sample may exceed the interpolated quantile).
        report = run_lemma(
            "convergence",
            {
                "convergence_n_list": (128, 256),
                "convergence_trials": 100,
                "convergence_presets": ("all_wrong", "cyan_corner"),
                "seed": 2,
            },
        )
        assert report.details["all_converged"]
        assert report.verdict == "PASS"
        for cell in report.details["cells"].values():
            assert cell["within_budget_fraction"] >= 0.99

    def test_convergence_reduced_sweep_seed_0(self):
        # With 64-trial blocks, cyan_corner@128 read 0.0 within budget here,
        # every trial converged, as envelope_C * L rounded one ulp below
        # the q99 of the cell that set envelope_C.
        report = run_lemma("convergence", {
            "convergence_n_list": (128, 256), "convergence_trials": 100,
            "convergence_presets": ("all_wrong", "cyan_corner"), "seed": 0,
        })
        assert report.details["all_converged"] and report.verdict == "PASS"
        for cell in report.details["cells"].values():
            assert cell["within_budget_fraction"] >= 0.99

    def test_integer_q99_within_its_own_budget(self, monkeypatch):
        # Every trial takes 4 rounds at n = 128, so q99 = 4.0 sets the
        # envelope, and envelope_C * (ln 128)^2.5 is 3.9999999999999996:
        # the trials are compared as time / L <= envelope_C, where 4.0 passes.
        def four_rounds(config, preset, trials):
            return np.tile([0, 0, 64, 100, 128], trials), np.full(trials, 5)

        monkeypatch.setattr(harness, "_run_cell", four_rounds)
        report = run_lemma("convergence", {
            "convergence_n_list": [128], "convergence_trials": 100,
            "convergence_presets": ["all_wrong"],
        })
        cell = report.details["cells"]["all_wrong@128"]
        assert (cell["quantile99"], cell["budget_rounds"]) == (4.0, 3.9999999999999996)
        assert cell["within_budget_fraction"] == 1.0 and report.verdict == "PASS"

    def test_convergence_fails_when_a_trial_does_not_converge(self):
        # One round reaches consensus from no preset: the sweep's rows
        # carry no verdict, so all_converged alone fails it.
        report = run_lemma(
            "convergence",
            {"convergence_n_list": (64, 128), "trials": 10, "convergence_max_rounds": 1},
        )
        assert report.kind == "sweep" and report.points == []
        assert report.details["all_converged"] is False
        assert report.verdict == "FAIL"


def _random_paths(n, centre, spread, trials, max_rounds, seed):
    """Count paths of 1 to max_rounds + 1 counts, end to end, as run_trials lays them out.

    Each count is centre + U[-spread, spread] clipped to [0, n] with
    probability 3/5, else uniform on [0, n] or on [0, 4], so paths
    wander in and out of any area near centre and of the corner.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_rounds + 2, size=trials)
    size = lengths.sum()
    near = np.clip(centre + rng.integers(-spread, spread + 1, size=size), 0, n)
    counts = np.stack([near, near, near, rng.integers(0, n + 1, size), rng.integers(0, 5, size)])
    return counts[rng.integers(0, 5, size), np.arange(size)], lengths


class TestTrialReductions:
    """Cyan's and Yellow's array reductions against the per-trial oracles."""

    def test_first_in_window(self):
        mask = np.array([0, 1, 0, 0, 1, 1, 0, 1], dtype=bool)
        lo, hi = np.array([0, 2, 2, 6, 8]), np.array([2, 5, 4, 8, 8])
        assert _first(mask, lo, hi).tolist() == [1, 4, 4, 7, 8]

    def test_first_on_one_count_paths(self):
        # A one-count path has no pair of its own: its window is empty, so
        # _first gives its upper end even where the straddling slot hits.
        counts, lengths = run_trials(SimConfig(n=64, ell=8), "fraction:1.0", 3)
        assert counts.tolist() == [64] * 3 and lengths.tolist() == [1] * 3
        ends = np.cumsum(lengths)
        mask = np.ones(counts.size - 1, dtype=bool)
        assert _first(mask, ends - lengths, ends - 1).tolist() == (ends - 1).tolist()

    @staticmethod
    def _cyan_details(report):
        details = dict(report.details, **report.details["large_fraction_branch"])
        return {key: details[key] for key in (
            "exit_label_tally", "max_exit_rounds", "trials_crossing_gamma_inside_cyan",
            "next_fraction_above_half_after_first_crossing",
        )} | {"failures": report.points[0]["failures"]}

    def test_cyan_matches_oracle(self):
        report = run_lemma("cyan", {"cyan_n": 256, "trials": 40, "seed": 5})
        config = SimConfig(n=256, seed=5, max_rounds=1000)
        paths = split_paths(*run_trials(config, "cyan_corner", 40))
        bound = math.log(256) / math.log(math.log(256))
        gamma, _ = cyan_constants(256, config.ell)
        expected = cyan_oracle(paths, 256, 0.05, gamma, bound)
        assert self._cyan_details(report) == expected

    def test_cyan_matches_oracle_on_wandering_paths(self, monkeypatch):
        # Paths that never enter Cyan1, stay in it, leave it late or into
        # Red, and cross gamma before or after x_{t+2} > 1/2.
        n, trials = 4096, 300
        counts, lengths = _random_paths(n, 450, 150, trials, 12, seed=1)
        monkeypatch.setattr(harness, "run_trials", lambda *_: (counts, lengths))
        report = run_lemma("cyan", {"cyan_n": n, "trials": trials})
        bound = math.log(n) / math.log(math.log(n))
        paths = split_paths(counts, lengths)
        config = SimConfig(n=n)
        expected = cyan_oracle(paths, n, 0.05, cyan_constants(n, config.ell)[0], bound)
        assert 0 < expected["failures"] < trials
        assert len(expected["exit_label_tally"]) >= 3
        assert expected["next_fraction_above_half_after_first_crossing"] > 0
        assert self._cyan_details(report) == expected

    @staticmethod
    def _check_yellow(report, paths_by_n, delta, max_rounds) -> list[int]:
        """Compare report with the oracle; returns every trial's escape time."""
        all_escapes = []
        for row, (n, paths) in zip(report.sweep, paths_by_n.items()):
            escapes, b_dwells = yellow_oracle(paths, n, delta, max_rounds)
            all_escapes += escapes
            assert row["quantile50"] == float(np.percentile(escapes, 50))
            assert row["quantile99"] == float(np.percentile(escapes, 99))
            stats = report.details["b_dwell"][str(n)]
            assert stats["mean_longest_b_dwell"] == float(np.mean(b_dwells))
            assert stats["q95_longest_b_dwell"] == float(np.percentile(b_dwells, 95))
        assert report.details["all_escaped"] == (max(all_escapes) < max_rounds)
        return all_escapes

    @pytest.mark.parametrize("delta, max_rounds", [(0.05, 12), (0.15, 10_000)])
    def test_yellow_matches_oracle(self, delta, max_rounds):
        # At delta = 0.15 Yellow' covers the whole grid: no trial escapes.
        n_list, trials = (256, 512), 40
        report = run_lemma("yellow", {"yellow_n_list": n_list, "yellow_delta": delta,
                                      "trials": trials, "yellow_max_rounds": max_rounds})
        paths_by_n = {
            n: split_paths(*run_trials(
                SimConfig(n=n, max_rounds=max_rounds), "yellow_center", trials
            ))
            for n in n_list
        }
        escapes = self._check_yellow(report, paths_by_n, delta, max_rounds)
        escaped = [e < max_rounds for e in escapes]
        assert all(escaped) if delta == 0.05 else not any(escaped)

    def test_yellow_matches_oracle_on_wandering_paths(self, monkeypatch):
        n_list, trials, max_rounds = (1024, 2048), 300, 20
        fake = {n: _random_paths(n, n // 2 + n // 16, n // 32, trials, max_rounds, n)
                for n in n_list}
        monkeypatch.setattr(harness, "run_trials", lambda config, *_: fake[config.n])
        report = run_lemma("yellow", {"yellow_n_list": n_list, "trials": trials,
                                      "yellow_max_rounds": max_rounds})
        paths_by_n = {n: split_paths(*fake[n]) for n in n_list}
        escapes = self._check_yellow(report, paths_by_n, 0.05, max_rounds)
        assert 0 < sum(e < max_rounds for e in escapes) < len(escapes)
        assert max(stats["q95_longest_b_dwell"] for stats in report.details["b_dwell"].values()) > 1


class TestScalingGate:
    """The slope gate of acceptance criterion 5 over n = 2^10..2^13."""

    NS = [1024, 2048, 4096, 8192]

    def test_exact_envelope_accepted(self):
        fit = _fit_loglog(self.NS, [5.0 * math.log(n) ** 2.5 for n in self.NS])
        assert fit["slope"] == pytest.approx(1.0, abs=1e-9)
        assert fit["slope"] <= SLOPE_TOLERANCE

    @pytest.mark.parametrize(
        "growth, slope",
        [
            (lambda n: 0.01 * math.log(n) ** 5, 2.0),
            (lambda n: math.sqrt(n), 1.58),
        ],
        ids=["ln_n^5", "sqrt_n"],
    )
    def test_faster_growth_rejected(self, growth, slope):
        fit = _fit_loglog(self.NS, [growth(n) for n in self.NS])
        assert fit["slope"] == pytest.approx(slope, abs=0.01)
        assert fit["slope"] > SLOPE_TOLERANCE

    def test_quantized_flat_sweep_accepted_despite_low_r2(self):
        # Integer q99 rising by one round over three octaves, as the
        # protocol gives: well inside the bound, yet a poor fit.
        fit = _fit_loglog(self.NS, [20, 21, 21, 21])
        assert fit["slope"] <= SLOPE_TOLERANCE
        assert fit["r2"] < 0.9


class TestEmission:
    def test_pointwise_csv_schema(self, tmp_path):
        out = verify(tmp_path, "green", "trials = 40\nseed = 3\n")
        report = json.loads((out / "green.json").read_text())
        with (out / "green.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(POINT_FIELDS)
        assert len(rows) == len(report["points"])

    def test_sweep_csv_schema(self, tmp_path):
        out = verify(tmp_path, "yellow", "yellow_n_list = 256,\nyellow_trials = 20\nseed = 3\n"
                     "yellow_max_rounds = 4000\n")
        with (out / "yellow.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(SWEEP_FIELDS)

    def test_json_round_trip_excludes_runtime(self, tmp_path):
        report = run_lemma("green", {"trials": 40, "seed": 3})
        assert report.runtime_s > 0
        out = verify(tmp_path, "green", "trials = 40\nseed = 3\n")
        payload = json.loads((out / "green.json").read_text())
        assert payload["verdict"] == report.verdict
        assert "runtime_s" not in json.dumps(payload)

    def test_reports_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            verify(tmp_path, "green", "trials = 40\nseed = 9\n", out=name)
        for name in ("c", "d"):
            verify(tmp_path, "cyan", "trials = 30\nseed = 9\n", out=name)
        assert (tmp_path / "a/green.json").read_bytes() == (tmp_path / "b/green.json").read_bytes()
        assert (tmp_path / "c/cyan.csv").read_bytes() == (tmp_path / "d/cyan.csv").read_bytes()


class TestRunLemma:
    def test_run_all_emits_summary(self, tmp_path):
        out = verify(tmp_path, "all", "trials = 30\nseed = 6\nyellow_n_list = 256,\n"
                     "yellow_trials = 20\nconvergence_n_list = 128,\nconvergence_trials = 100\n"
                     "convergence_presets = all_wrong,\n")
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"green", "purple", "red", "cyan", "yellow", "convergence"}
        for lemma in summary:
            assert (out / f"{lemma}.csv").exists()
            assert (out / f"{lemma}.json").exists()
            report = json.loads((out / f"{lemma}.json").read_text())
            assert summary[lemma] == report["verdict"]

    # Yellow's cells are exactly convergence's yellow_center cells here.
    SHARED = {"trials": 20, "yellow_n_list": (256, 512), "convergence_n_list": (256, 512)}

    def test_run_all_simulates_each_cell_once(self, monkeypatch):
        calls = Counter()

        def counting(config, preset, trials):
            calls[(dataclasses.astuple(config), preset, trials)] += 1
            return run_trials(config, preset, trials)

        monkeypatch.setattr(harness, "run_trials", counting)
        reports = harness.run_all(self.SHARED)
        assert harness._cells is None
        # Cyan's cell, Yellow's two, convergence's two other presets at two sizes.
        assert len(calls) == 1 + 2 + 2 * 2 and set(calls.values()) == {1}
        cells = {lemma: report.trial_cells for lemma, report in reports.items()}
        assert cells == {
            "green": (0, 0), "purple": (0, 0), "red": (0, 0),
            "cyan": (1, 0), "yellow": (2, 0), "convergence": (4, 2),
        }

    def test_memo_cleared_when_the_suite_raises(self, monkeypatch):
        calls = []

        def counting(config, preset, trials):
            calls.append(preset)
            if preset == "all_wrong_max_counters":  # convergence's own first cell
                raise UsageError("raised mid-suite")
            return run_trials(config, preset, trials)

        monkeypatch.setattr(harness, "run_trials", counting)
        with pytest.raises(UsageError, match="mid-suite"):
            harness.run_all(self.SHARED)
        assert calls[-1] == "all_wrong_max_counters" and "yellow_center" in calls
        assert harness._cells is None
        # An unknown preset is rejected before the first trial.
        calls.clear()
        settings = {**self.SHARED, "convergence_presets": ("yellow_center", "mauve")}
        with pytest.raises(UsageError, match="unknown preset 'mauve'"):
            harness.run_all(settings)
        assert calls == [] and harness._cells is None

    def test_memo_key_holds_every_config_field(self):
        # Yellow's cells differ from convergence's in max_rounds only; a
        # key without it would hand Yellow's capped paths to convergence.
        settings = {**self.SHARED, "yellow_max_rounds": 3}
        reports = harness.run_all(settings)
        for lemma, report in reports.items():
            assert report.to_dict() == run_lemma(lemma, settings).to_dict(), lemma

    def test_cells_are_shared_across_deltas(self):
        # delta only labels the paths, so Yellow's yellow_center cells at
        # another delta are still convergence's.
        reports = harness.run_all({"yellow_delta": 0.1})
        assert reports["convergence"].trial_cells == (8, 4)
        assert reports["convergence"].to_dict() == run_lemma("convergence").to_dict()

    def test_params_rerun_the_report(self):
        # Each report's params name its runner's arguments first, in
        # signature order; fed back as settings they reproduce its bytes.
        settings = {"trials": 50, "red_c_sample": 2.5, "cyan_c_sample": 2.5, "cyan_n": 256,
                    "yellow_n_list": [64, 128], "convergence_n_list": [64, 128]}
        for lemma, report in harness.run_all(settings).items():
            arguments = list(inspect.signature(harness._RUNNERS[lemma]).parameters)
            assert list(report.params)[:len(arguments)] == arguments, lemma
            rerun = run_lemma(lemma, {f"{lemma}_{key}": report.params[key] for key in arguments})
            assert json.dumps(rerun.to_dict()) == json.dumps(report.to_dict()), lemma

    def test_shared_cells_are_read_only(self):
        config = SimConfig(n=64, seed=3)
        counts, lengths = harness._run_cell(config, "yellow_center", 5)
        for array in (counts, lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_whp_rows_carry_empirical_exponent(self):
        report = run_lemma("green", {"trials": 40, "seed": 5})
        for row in report.points:
            assert row["empirical_exponent_floor"] > 0

    def test_unknown_lemma(self):
        with pytest.raises(UsageError):
            run_lemma("mauve")

    def test_zero_trials_rejected_not_defaulted(self):
        with pytest.raises(UsageError, match="trials"):
            run_lemma("green", {"trials": 0})

    def test_scalar_sweep_list_rejected(self):
        # A config line "yellow_n_list = 1024" parses to an int, not a list.
        with pytest.raises(UsageError, match="n_list"):
            run_lemma("yellow", {"yellow_n_list": 1024})
        with pytest.raises(UsageError, match="presets"):
            run_lemma("convergence", {"convergence_presets": "all_wrong"})

    def test_override_plumbing(self):
        report = run_lemma("green", {"trials": 25, "seed": 4, "green_delta": 0.2})
        assert report.params["trials"] == 25
        assert report.params["delta"] == 0.2
