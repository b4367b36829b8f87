"""Lemma verification harness: verdicts, emission, determinism."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from fetsim.errors import PlantingError, UsageError
from fetsim.harness import (
    POINT_FIELDS,
    SLOPE_TOLERANCE,
    SWEEP_FIELDS,
    _fit_loglog,
    _planted_rows,
    cyan_expectation_check,
    emit,
    plant_pair,
    run_lemma,
    verify_cyan,
    verify_green,
    verify_purple,
    verify_red,
    verify_yellow,
)
from fetsim.domains import DomainLabel, classify
from fetsim.dynamics import AnalysisConstants, expected_next_fraction
from fetsim.protocol import SimConfig, derive_rng, step_aggregate


class TestPlanting:
    def test_valid_plant(self):
        c = AnalysisConstants.for_population(4096, delta=0.2, c_sample=3.0)
        kx, ky = plant_pair(4096, c, 0.2, 0.5, DomainLabel.GREEN1)
        assert (kx, ky) == (819, 2048)

    def test_empty_domain_aborts(self):
        # Red is empty at (n=4096, delta=0.05): lambda_n is too large for
        # any x to satisfy both band conditions.
        c = AnalysisConstants.for_population(4096, delta=0.05, c_sample=3.0)
        with pytest.raises(PlantingError):
            plant_pair(4096, c, 0.3, 0.3 * (1 - c.lambda_n) * 0.9, DomainLabel.RED1)


class TestPlantedRows:
    def test_no_stay_steps_each_trial_once_on_the_pair_stream(self):
        # stay=() is the one-round runner of Green and Purple: one
        # step_aggregate call per planted pair on its keyed stream.
        config = SimConfig(n=1024, delta=0.05, seed=7)
        seen = {}

        def failed(label, k_last, current, rounds):
            seen.update(label=label, k_last=k_last.copy(), rounds=rounds.copy())
            return k_last > 512

        planted = [(0.5, 0.5, DomainLabel.YELLOW)]
        (row,) = _planted_rows("probe", config, 60, planted, 1.0, failed)
        expected = step_aggregate(
            np.full(60, 512), np.full(60, 512), config, derive_rng(7, "probe", 512, 512)
        )
        assert seen["label"] is DomainLabel.YELLOW
        assert seen["rounds"].tolist() == [1] * 60
        assert seen["k_last"].tolist() == np.asarray(expected).tolist()
        assert len(set(expected.tolist())) > 1  # a random round, not a forced one
        assert row["failures"] == int((expected > 512).sum())
        assert (row["point_x"], row["point_y"], row["trials"]) == (0.5, 0.5, 60)


class TestGreen:
    def test_documented_point_passes(self):
        report = verify_green(trials=150, seed=0)
        assert report.verdict == "PASS"
        assert {row["domain"] for row in report.points} == {"Green1", "Green0"}
        for row in report.points:
            assert row["failures"] == 0

    def test_ell_precondition(self):
        with pytest.raises(UsageError):
            verify_green(n=4096, delta=0.2, ell=100)


class TestPurple:
    def test_documented_point_passes(self):
        report = verify_purple(trials=150, seed=0)
        assert report.verdict == "PASS"
        xs = {row["point_x"] for row in report.points}
        boundary = math.ceil(4096 / math.log(4096)) / 4096
        assert boundary in xs


class TestRed:
    def test_exit_fast_and_never_into_yellow_or_red(self):
        report = verify_red(trials=150, seed=0)
        assert report.verdict == "PASS"
        tally = report.details["exit_label_tally"]
        assert set(tally) <= {"Green1", "Purple1", "Green0", "Purple0", "Cyan1", "Cyan0"}
        assert report.params["exit_round_bound"] < 5


class TestCyan:
    def test_simulated_and_analytic_pass(self):
        report = verify_cyan(trials=120, seed=0)
        assert report.verdict == "PASS"
        assert report.details["analytic"]["violations"] == 0
        assert report.details["max_exit_rounds"] < report.params["exit_round_bound"]
        assert set(report.details["exit_label_tally"]) <= {"Green1", "Purple1"}

    def test_expectation_grid_small_population(self):
        result = cyan_expectation_check(512, delta=0.05, c_sample=3.0)
        assert result["violations"] == 0
        assert result["grid_points_checked"] > 0
        assert result["worst_margin"] > 0

    @pytest.mark.parametrize("n, delta", [(512, 0.05), (1024, 0.1)])
    def test_expectation_grid_matches_pointwise_loop(self, n, delta):
        # The band labelled in one array call visits the same Cyan1
        # points as a loop over the band with the scalar classifier.
        c = AnalysisConstants.for_population(n, delta=delta, c_sample=3.0)
        ell, log_n, reach = c.ell, math.log(n), math.ceil(delta * n)
        margins = []
        for k_y in range(1, n // ell + 1):
            for k_t in range(max(0, k_y - reach), min(math.ceil(n / log_n) - 1, k_y + reach) + 1):
                if classify((k_t / n, k_y / n), n, c) is DomainLabel.CYAN1:
                    g = expected_next_fraction(k_t / n, k_y / n, n, ell)
                    margins.append(g - (c.K * (k_y / n) * log_n - 1.0 / n))
        result = cyan_expectation_check(n, delta=delta, c_sample=3.0)
        assert result["grid_points_checked"] == len(margins) > 0
        assert result["worst_margin"] == min(margins)
        assert result["violations"] == sum(m < 0 for m in margins)


    def test_expectation_grid_memory_bounded(self):
        # One duel table for the whole box: 4.2 MB peak measured at
        # n = 4096 (46,781 Cyan1 points).  A scalar duel per point, with
        # the LRU cache filling, peaked at 17.7 MB; gathering per-point
        # pmf rows would need about 10 MB per table.
        tracemalloc.start()
        try:
            result = cyan_expectation_check(4096, delta=0.05, c_sample=3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result["grid_points_checked"] == 46_781
        assert peak < 8e6


class TestSweeps:
    def test_yellow_reduced_sweep_reports(self):
        report = verify_yellow(n_list=(256, 512), trials=40, seed=1, max_rounds=4000)
        assert report.kind == "sweep"
        assert len(report.sweep) == 2
        for row in report.sweep:
            assert set(row) >= {"n", "quantile50", "quantile99", "fit_C", "fit_r2"}
        assert report.details["all_escaped"]
        assert "b_dwell" in report.details

    def test_yellow_one_size_is_fail(self):
        # One size fits no scaling; it used to PASS on a slope of 0 and
        # an R^2 of 1 set by fiat.
        report = verify_yellow(n_list=[1024], trials=50)
        assert report.details["all_escaped"]
        fit = report.details["fit"]
        assert (fit["slope"], fit["r2"]) == (0.0, 1.0)
        assert report.verdict == "FAIL"

    def test_repeated_sweep_size_rejected(self):
        with pytest.raises(UsageError, match="n_list"):
            verify_yellow(n_list=[1024, 1024], trials=50)
        with pytest.raises(UsageError, match="n_list"):
            run_lemma("convergence", {"convergence_n_list": [128, 256, 128]})

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
        report = verify_green(trials=40, seed=3)
        emit(report, tmp_path)
        with (tmp_path / "green.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(POINT_FIELDS)
        assert len(rows) == len(report.points)

    def test_sweep_csv_schema(self, tmp_path):
        report = verify_yellow(n_list=(256,), trials=20, seed=3, max_rounds=4000)
        emit(report, tmp_path)
        with (tmp_path / "yellow.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(SWEEP_FIELDS)

    def test_json_round_trip_excludes_runtime(self, tmp_path):
        report = run_lemma("green", {"trials": 40, "seed": 3})
        assert report.runtime_s > 0
        emit(report, tmp_path)
        payload = json.loads((tmp_path / "green.json").read_text())
        assert payload["verdict"] == report.verdict
        assert "runtime_s" not in json.dumps(payload)

    def test_reports_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            emit(verify_green(trials=40, seed=9), tmp_path / name)
        for name in ("c", "d"):
            emit(verify_cyan(trials=30, seed=9), tmp_path / name)
        assert (tmp_path / "a/green.json").read_bytes() == (tmp_path / "b/green.json").read_bytes()
        assert (tmp_path / "c/cyan.csv").read_bytes() == (tmp_path / "d/cyan.csv").read_bytes()


class TestRunLemma:
    def test_run_all_emits_summary(self, tmp_path):
        from fetsim.harness import run_all

        settings = {
            "trials": 30,
            "seed": 6,
            "yellow_n_list": (256,),
            "yellow_trials": 20,
            "convergence_n_list": (128,),
            "convergence_trials": 100,
            "convergence_presets": ("all_wrong",),
        }
        reports = run_all(settings, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"green", "purple", "red", "cyan", "yellow", "convergence"}
        for lemma in summary:
            assert (tmp_path / f"{lemma}.csv").exists()
            assert (tmp_path / f"{lemma}.json").exists()
            assert summary[lemma] == reports[lemma].verdict

    def test_whp_rows_carry_empirical_exponent(self):
        report = verify_green(trials=40, seed=5)
        for row in report.points:
            assert row["empirical_exponent_floor"] > 0

    def test_unknown_lemma(self):
        with pytest.raises(UsageError):
            run_lemma("mauve")

    def test_zero_trials_rejected_not_defaulted(self):
        with pytest.raises(UsageError, match="trials"):
            verify_green(trials=0)
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
