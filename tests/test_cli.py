"""CLI surface: subcommand output schemas, config parsing, file emission."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fetsim
from fetsim import harness
from fetsim.cli import build_parser, main
from fetsim.config import parse_config_file, parse_value
from fetsim.domains import AREAS, DOMAINS, DomainLabel, classify, classify_yellow, label_paths
from fetsim.errors import UsageError
from fetsim.markov import absorption_times, build_kernel
from fetsim.protocol import SimConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_values(self):
        assert parse_value("42") == 42
        assert parse_value("0.05") == 0.05
        assert parse_value("aggregate") == "aggregate"
        assert parse_value("1024,2048") == [1024, 2048]
        assert parse_value("a, b") == ["a", "b"]

    def test_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep\n"
            "n = 128\n"
            "c_sample = 3\n"
            "delta = 0.05  # margin\n"
            "preset = all_wrong\n"
            "n_list = 128,256\n"
            "\n"
        )
        settings = parse_config_file(cfg)
        assert settings == {
            "n": 128,
            "c_sample": 3,
            "delta": 0.05,
            "preset": "all_wrong",
            "n_list": [128, 256],
        }

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 128\n")
        with pytest.raises(UsageError):
            parse_config_file(cfg)


def _unreadable_config(tmp_path, kind):
    """A --config path that cannot be read as a text config file."""
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"n = 64\n\xff\xfe\x80\n")
    return path


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unusable_config_is_usage_error(capsys, tmp_path, command, kind):
    cfg = _unreadable_config(tmp_path, kind)
    out_dir = tmp_path / "out"
    extra = ["--lemma", "green"] if command == "verify" else []
    code, out, err = run_cli(
        capsys, command, *extra, "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read config file {cfg}")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, out_below_file",
    [
        (["simulate", "--config", "{cfg}", "--trials", "1"], False),
        (["audit", "--n", "64"], True),
        (["chain", "--n", "8", "--ell", "2"], True),
        (["verify", "--lemma", "green"], False),
    ],
    ids=["simulate", "audit", "chain", "verify"],
)
def test_out_path_through_a_file_is_usage_error(capsys, tmp_path, argv, out_below_file):
    # --out names an existing regular file, or a path below one.
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nseed = 3\n")
    out = blocker / "report.json" if out_below_file else blocker
    argv = [arg.format(cfg=cfg) for arg in argv]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "File exists" in errors[0]
    assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv, needs_dir",
    [
        (["simulate", "--config", "{cfg}", "--trials", "1"], True),
        (["audit", "--n", "64"], False),
        (["chain", "--n", "128", "--ell", "15"], False),
        (["verify", "--lemma", "all"], True),
    ],
    ids=["simulate", "audit", "chain", "verify"],
)
def test_unusable_out_fails_before_any_work(monkeypatch, capsys, tmp_path, argv, needs_dir):
    # An existing non-directory where --out needs a directory, an
    # existing directory where --out names a file, and an empty --out end
    # the command before its trials, kernel or audit, and create nothing.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for target in ["fetsim.cli.run_trials", "fetsim.harness.run_trials",
                   "fetsim.markov.build_kernel", "fetsim.cli.audit_partition"]:
        monkeypatch.setattr(target, no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    folder = tmp_path / "folder"
    folder.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nseed = 3\n")
    monkeypatch.chdir(tmp_path)  # an empty --out must not mean the working directory
    argv = [arg.format(cfg=cfg) for arg in argv]
    outs = [(out, f"File exists where --out {out} needs a directory: {blocker}")
            for out in [blocker / "report.json", blocker / "sub" / "report.json"]
            + [blocker] * needs_dir]
    if not needs_dir:
        outs.append((folder, f"Directory exists where --out {folder} needs a file"))
    outs.append(("", "--out must name a path, got an empty string"))
    for out, message in outs:
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [folder, cfg, blocker]
    assert blocker.read_text() == ""
    assert list(folder.iterdir()) == []


class TestDuelCommand:
    def test_triple(self, capsys):
        code, out, _ = run_cli(capsys, "duel", "--k", "2", "--p", "0.5", "--q", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_eq"] == pytest.approx(0.375)

    def test_bounds_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "duel", "--k", "100", "--p", "0.2", "--q", "0.8", "--bounds"
        )
        payload = json.loads(out)
        assert payload["hoeffding_lower_bound_p_lt"] == pytest.approx(
            1 - 2.718281828459045**-18.0
        )
        assert "underdog_lower_bound_p_gt" in payload

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--k", "0", "--p", "0.5", "--q", "0.5")
        assert code == 2
        assert "error" in err


class TestDynamicsCommand:
    def test_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "dynamics", "--x", "0.5", "--y", "0.5", "--n", "100", "--ell", "2"
        )
        payload = json.loads(out)
        assert payload["g"] == pytest.approx(0.503125)
        assert payload["speed"] == 0.0
        assert payload["fixed_point"] is None  # x out of the f-domain

    def test_fixed_point_in_range(self, capsys):
        _, out, _ = run_cli(
            capsys, "dynamics", "--x", "0.52", "--y", "0.52", "--n", "4096",
            "--ell", "64", "--delta", "0.05",
        )
        payload = json.loads(out)
        assert payload["fixed_point"] is not None
        assert payload["fixed_point"] >= 0.52

    @pytest.mark.parametrize("delta", ["0.7", "0", "nan"])
    def test_bad_delta_is_usage_error(self, capsys, delta):
        code, out, err = run_cli(
            capsys, "dynamics", "--x", "0.52", "--y", "0.52", "--n", "4096",
            "--ell", "64", "--delta", delta,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: delta")


class TestClassifyCommand:
    def test_labels(self, capsys):
        _, out, _ = run_cli(
            capsys, "classify", "--x", "0.5", "--y", "0.5", "--n", "128",
            "--delta", "0.05",
        )
        payload = json.loads(out)
        assert payload["domain"] == "Yellow"
        assert payload["yellow"] == "A1"

    def test_labels_the_nearest_grid_point(self, capsys):
        # At n = 100 these k give (k/n) * n != k in floats; the command
        # still prints the label of the grid point (k_x, k_y), as the
        # classifiers give it on the audit's whole grid.
        n, delta = 100, 0.05
        inexact = [k for k in range(n + 1) if (k / n) * n != k]
        assert inexact == [7, 14, 28, 29, 55, 56, 57, 58]
        k = np.arange(n + 1)
        domains = classify(k[:, None], k[None, :], n, delta)
        areas = classify_yellow(k[:, None], k[None, :], n, delta)
        for kx in inexact:
            for ky in inexact:
                _, out, _ = run_cli(capsys, "classify", "--x", repr(kx / n), "--y", repr(ky / n),
                                    "--n", str(n))
                payload = json.loads(out)
                assert payload["domain"] == DOMAINS[domains[kx, ky]].value
                assert payload["yellow"] == AREAS[areas[kx, ky]].value

    @pytest.mark.parametrize(
        "flag, value",
        [("--x", "nan"), ("--x", "1.5"), ("--y", "inf"), ("--y", "-0.1")],
    )
    def test_coordinate_outside_unit_interval_is_usage_error(self, capsys, flag, value):
        coords = {"--x": "0.5", "--y": "0.5", flag: value}
        code, out, err = run_cli(
            capsys, "classify", "--x", coords["--x"], "--y", coords["--y"], "--n", "128"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be a fraction in [0, 1]")


class TestAuditCommand:
    def test_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "audit.json"
        code, _, _ = run_cli(
            capsys, "audit", "--n", "32", "--delta", "0.05", "--out", str(out_file)
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["n"] == 32
        assert payload["corner_cyan_label"] == "Cyan1"
        assert "yellow_reading" in payload

    @pytest.mark.parametrize("command", ["audit", "classify"])
    def test_population_of_two_names_n(self, capsys, tmp_path, command):
        # At n = 2, ln n < 1 and the partition constants do not exist;
        # the error used to name only the derived lambda_n.
        argv = [command, "--n", "2"]
        if command == "classify":
            argv += ["--x", "0.5", "--y", "0.5"]
        else:
            argv += ["--out", str(tmp_path / "audit.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: population size n must be >= 3") and "ln n > 1" in err
        assert not (tmp_path / "audit.json").exists()


class TestSimulateCommand:
    def test_trials_and_summary(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n = 64\nc_sample = 3\ndelta = 0.05\nseed = 5\nbackend = aggregate\n"
            "preset = all_wrong_max_counters\ntrials = 3\nmax_rounds = 500\n"
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["trials"] == 3
        assert summary["converged_fraction"] == 1.0
        assert summary["domain_visit_counts"]
        with (out_dir / "trial_0.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["round", "x_t", "domain", "yellow_label"]
        assert rows[0]["x_t"] == repr(1 / 64)
        assert rows[-1]["domain"] == ""

    def test_quantiles_take_the_linear_rule(self, capsys, tmp_path):
        # The converged rounds' q50, q90 and q99 are np.percentile's
        # linear ones, as in verify's reports.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\nseed = 3\ntrials = 3\npreset = half_half\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        rounds = [r for r in summary["converged_round_per_trial"] if r is not None]
        assert len(rounds) == 3
        assert summary["quantiles"] == {
            f"q{q}": float(np.percentile(rounds, q)) for q in (50, 90, 99)
        }

    def test_sample_size_near_n(self, capsys, tmp_path):
        # At ell = 4000 and n = 4096, c = ell / ln n is 481 and Cyan's
        # gamma and K underflow to 0; the partition that labels the
        # trials does not use them.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 4096\nell = 4000\nseed = 0\ntrials = 2\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0, err
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "summary.json", "trial_0.csv", "trial_1.csv"
        ]

    def test_every_sim_config_field_is_a_config_key(self, capsys, tmp_path):
        # Each SimConfig field at its default (n and ell set) is a known key.
        settings = {field.name: field.default for field in dataclasses.fields(SimConfig)}
        settings.update(n=64, ell=8)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0, err
        assert json.loads((out_dir / "summary.json").read_text())["converged_fraction"] == 1.0

    def test_naive_variant_with_aggregate_backend_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\nell = 8\nvariant = naive\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert "naive" in err

    def test_empty_preset_is_usage_error(self, capsys, tmp_path):
        # An empty --preset is a given value, not "unset": it must not
        # fall back to the config's preset.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\npreset = half_half\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--preset", "", "--out", str(out_dir)
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: unknown preset ''")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "cfg_line, flags",
        [("trials = 0", []), ("trials = 2", ["--trials", "0"])],
        ids=["config", "flag"],
    )
    def test_zero_trials_is_usage_error(self, capsys, tmp_path, cfg_line, flags):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n = 64\n{cfg_line}\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_dir), *flags
        )
        assert code == 2
        assert "trials" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "lines, needle",
        [
            ("n = 64.0", "n must be an integer"),
            ("n = 64\nell = 4.0", "ell must be an integer"),
            ("n = 64\nseed = x", "seed must be an integer"),
            ("n = 64\ndelta = abc", "delta must be a real number"),
            ("n = 64\ndelta = 0.7", "delta must be in (0, 1/2)"),
            ("n = 64\nc_sample = abc", "c_sample must be a real number"),
            ("n = 64\nc_sample = nan", "c_sample must be finite"),
            ("n = 64\nc_sample = inf", "c_sample must be finite"),
            ("n = 64\nc_sample = -3", "c_sample must be positive, got -3"),
            ("n = 64\nell = 6\nc_sample = 3", "set ell or c_sample, not both; got ell = 6 "
             "and c_sample = 3"),
            ("n = 64\nell = 5\nc_sample = -3", "set ell or c_sample, not both"),
            # c_sample * ln n overflows to inf, which has no ceiling.
            ("n = 1000000\nc_sample = 1e308", "need 1 <= ell <= n, got ell=inf, n=1000000"),
            ("n = 64\nmax_rounds = 2.5", "max_rounds must be an integer"),
            ("n = 64\nsource_opinion = one", "source_opinion must be an integer"),
            ("n = 64\nbackned = agent", "backned"),
            ("n = 64\nn = 128", "key 'n' is given twice, on lines 1 and 2"),
        ],
        ids=["n_float", "ell_float", "seed_str", "delta_str", "delta_range", "c_sample_str",
             "c_sample_nan", "c_sample_inf", "c_sample_negative", "ell_and_c_sample",
             "ell_and_bad_c_sample", "ell_overflows", "max_rounds_float", "source_str", "unknown_key",
             "repeated_key"],
    )
    def test_bad_config_is_usage_error(self, capsys, tmp_path, lines, needle):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(lines + "\n")
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert err.startswith("error:") and needle in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["nonsense", "fraction:abc"])
    def test_bad_preset_leaves_no_output_directory(self, capsys, tmp_path, preset):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--preset", preset, "--out", str(out_dir)
        )
        assert code == 2
        assert err.startswith("error:")
        assert not out_dir.exists()

    def test_bad_fraction_preset_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--preset", "fraction:abc",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("error: fraction preset")

    def test_trial_csv_ends_at_consensus(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 64\nseed = 5\npreset = all_wrong_max_counters\ntrials = 3\n")
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for t, converged in enumerate(summary["converged_round_per_trial"]):
            with (tmp_path / "out" / f"trial_{t}.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert int(rows[-1]["round"]) == converged == len(rows) - 1
            assert rows[-1]["x_t"] == "1.0"

    def test_source_zero_rows_on_the_grid(self, capsys, tmp_path):
        # Every x_t is k/n for an integer k, printed as repr(k / n), and
        # labels are taken at that exact grid point: (67/100, 62/100) lies
        # on Green0's boundary x_{t+1} = x_t - delta, so a last-bit error
        # in either coordinate can move it into Purple0.  The pair is
        # labelled directly, so the check does not depend on the draws.
        n = 100
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n = {n}\nseed = 5\npreset = half_half\nsource_opinion = 0\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        with (out_dir / "trial_0.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            k = round(float(row["x_t"]) * n)
            assert row["x_t"] == repr(k / n)
        assert rows[-1]["x_t"] == "0.0"
        domains, _ = label_paths([67, 62], n, 0.05)
        assert domains.tolist() == [DOMAINS.index(DomainLabel.GREEN0)]

    def test_two_to_the_forty_agents(self, capsys, tmp_path):
        # Presets are built as class counts, so neither set-up nor the
        # aggregate rounds hold n-length arrays: 2^40 agents run.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 1099511627776\nseed = 0\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--preset", "half_half",
            "--trials", "2", "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged_fraction"] == 1.0
        assert sorted(p.name for p in out_dir.glob("*.csv")) == ["trial_0.csv", "trial_1.csv"]
        for t, converged in enumerate(summary["converged_round_per_trial"]):
            with (out_dir / f"trial_{t}.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert int(rows[-1]["round"]) == converged == len(rows) - 1
            assert rows[-1]["x_t"] == "1.0"

    def test_output_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n = 64\nc_sample = 3\nseed = 9\npreset = half_half\ntrials = 2\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_b))
        for name in ("trial_0.csv", "trial_1.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestChainCommand:
    def test_report(self, capsys, tmp_path):
        out_file = tmp_path / "chain.json"
        code, _, _ = run_cli(
            capsys, "chain", "--n", "8", "--ell", "2", "--from", "1,1",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["expected_rounds_from_state"] > 0
        assert payload["expected_rounds_from_corner"] == payload["expected_rounds_from_state"]

    def test_stage_timings_on_stderr_only(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "chain", "--n", "16", "--ell", "4", "--from", "1,1")
        assert code == 0
        kernel = build_kernel(16, 4)
        times = absorption_times(kernel)
        corner = float(times[kernel.state_index(1, 1)])
        assert out == json.dumps({
            "n": 16, "ell": 4, "pruned_mass": kernel.pruned_mass,
            "max_expected_rounds": float(times.max()), "expected_rounds_from_corner": corner,
            "from_state": [1, 1], "expected_rounds_from_state": corner,
        }, indent=2) + "\n"
        build, solve = err.splitlines()
        assert re.fullmatch(r"build_kernel: \d+\.\d{3}s, nnz \d+, pruned mass \S+", build)
        assert build.endswith(f"nnz {kernel.matrix.nnz}, pruned mass {kernel.pruned_mass:.3e}")
        assert re.fullmatch(r"absorption_times: \d+\.\d{3}s", solve)
        out_file = tmp_path / "chain.json"
        code, out_file_run, err = run_cli(
            capsys, "chain", "--n", "16", "--ell", "4", "--from", "1,1", "--out", str(out_file)
        )
        assert code == 0 and out_file_run == ""
        assert out_file.read_text() == out
        assert err.splitlines()[2] == f"chain report written to {out_file}"

    def test_population_below_two_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--n", "1", "--ell", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: population size must be >= 2")

    @pytest.mark.parametrize("state", ["3", "x,y", "1,2,3", "", "9,1", "4,0"])
    def test_bad_from_state_is_usage_error(self, capsys, state):
        code, out, err = run_cli(capsys, "chain", "--n", "8", "--ell", "2", "--from", state)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --from")


# Runs in a fresh interpreter; prints the scipy modules loaded after
# each stage, as one JSON line per stage, then the chain's payload.
_IMPORT_DIET_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()

work = Path(sys.argv[1])
import fetsim.cli as cli
print(json.dumps(["import", 0, scipy_modules(), "numpy.ma" in sys.modules]))
(work / "verify.cfg").write_text(
    "trials = 10\ncyan_n = 256\nyellow_n_list = 64, 128\nconvergence_n_list = 64, 128\n"
)
quiet(["verify", "--lemma", "all", "--config", str(work / "verify.cfg"),
      "--out", str(work / "reports")])
verdicts = json.loads((work / "reports" / "summary.json").read_text())
print(json.dumps(["verify", len(verdicts), scipy_modules(), "numpy.ma" in sys.modules]))
(work / "sim.cfg").write_text("n = 4096\nseed = 3\n")
code, _ = quiet(["simulate", "--config", str(work / "sim.cfg"), "--trials", "2",
                 "--out", str(work / "sim")])
print(json.dumps(["simulate", code, scipy_modules(), "numpy.ma" in sys.modules]))
code, out = quiet(["chain", "--n", "8", "--ell", "4"])
print(json.dumps(["chain", code, json.loads(out), scipy_modules()]))
"""


class TestPackageExports:
    def test_every_export_resolves(self):
        # Names are imported from their modules: the root binds no library
        # name, only __version__ and the submodules imported so far.
        bound = {name for name, value in vars(fetsim).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert bound == set() and not hasattr(fetsim, "__all__")
        assert isinstance(fetsim.__version__, str)


class TestImportDiet:
    def test_scipy_loaded_only_for_the_chain(self, tmp_path):
        # scipy costs more start-up than most commands compute; only the
        # exact chain (fetsim.markov) may load it, and only when run, and
        # then only its sparse matrices: no scipy.linalg and LAPACK.
        # numpy.ma (loaded by np.percentile, and by np.unique or
        # np.setdiff1d without a return_* flag) stays out of every stage
        # but the chain's, where scipy loads it.
        src = str(Path(fetsim.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_DIET_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        stages = [json.loads(line) for line in result.stdout.splitlines()]
        assert [stage[:2] for stage in stages] == [
            ["import", 0], ["verify", 6], ["simulate", 0], ["chain", 0]
        ]
        for name, _, loaded, masked in stages[:3]:
            assert loaded == [], f"scipy loaded by {name}: {loaded[:5]}"
            assert not masked, f"numpy.ma loaded by {name}"
        chain, loaded = stages[3][2:]
        assert (chain["n"], chain["ell"]) == (8, 4)
        assert chain["max_expected_rounds"] >= chain["expected_rounds_from_corner"] > 0
        assert "scipy.sparse" in loaded
        for heavy in ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"):
            assert heavy not in loaded, f"chain loaded {heavy}"


# The error of Green's ell precondition, matched from the line's start so
# that it names the lemma, and that of Red's first planted pair.
_GREEN_ELL = "error: green needs ell >= (2/delta^2) ln n = 416, got 100"
_INFINITE_ELL = "error: {} needs ell >= (2/delta^2) ln n, which is infinite at delta = {}"
_RED_PLANTING = (
    "planted point (1475/8192, 983/8192) classifies as Yellow, expected Red1 (delta=0.2): "
    "the target domain may be empty at these parameters"
)
# Configs whose parameters each pass their own check but not their joint
# limits, which every size's SimConfig and partition and every planted
# pair enforce: (name, lemma, config lines, message).
_JOINT_LIMITS = [
    ("n_below_3", "yellow", "yellow_n_list = 64, 2\nyellow_c_sample = 0.5",
     "population size n must be >= 3 for the domain partition, which needs ln n > 1, got n = 2"),
    ("ell_above_n", "purple", "purple_ell = 100000", "need 1 <= ell <= n, got ell=100000, n=4096"),
    ("default_ell_above_n", "purple", "purple_delta = 0.01",
     "need 1 <= ell <= n, got ell=166356, n=4096"),
    ("ell_above_n", "red", "red_c_sample = 10000", "need 1 <= ell <= n, got ell=90110, n=8192"),
    ("n_below_3", "red", "red_n = 2\nred_c_sample = 0.5",
     "population size n must be >= 3 for the domain partition, which needs ln n > 1, got n = 2"),
    ("ell_above_n", "cyan", "cyan_n = 2", "need 1 <= ell <= n, got ell=3, n=2"),
    # ell = 3,328 at n = 4096 is c = 400, where Cyan's gamma and K underflow to 0.
    ("vanishing_gamma_and_k", "cyan", "cyan_c_sample = 400", "gamma and K must be positive"),
    ("ell_above_n", "convergence", "convergence_n_list = 2, 64",
     "need 1 <= ell <= n, got ell=3, n=2"),
    ("planted_outside_domain", "purple", "purple_delta = 0.2",
     "planted point (614/4096, 819/4096) classifies as Yellow, expected Purple1 (delta=0.2): "
     "the target domain may be empty at these parameters"),
    ("planted_outside_domain", "red", "red_delta = 0.2", _RED_PLANTING),
]


class TestVerifyCommand:
    def test_single_lemma_with_output(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed = 1\ntrials = 50\n")
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(
            capsys, "verify", "--lemma", "green", "--config", str(cfg),
            "--out", str(out_dir),
        )
        assert code == 0
        assert json.loads(out) == {"green": "PASS"}
        assert (out_dir / "green.csv").exists()
        assert (out_dir / "green.json").exists()

    @pytest.mark.parametrize("lemma", ["green", "all"])
    def test_empty_config_is_usage_error(self, capsys, tmp_path, monkeypatch, lemma):
        # An empty --config names no file; it must not run the defaults.
        def no_trials(*_args, **_kwargs):
            raise AssertionError("a trial ran for an unreadable config")

        monkeypatch.setattr(harness, "run_trials", no_trials)
        monkeypatch.setattr(harness, "step_aggregate", no_trials)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "verify", "--lemma", lemma, "--config", "", "--out", str(out_dir)
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: cannot read config file .: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "lemma, line",
        [
            ("green", "trials = 0"),
            ("yellow", "yellow_n_list = 1024"),
            ("yellow", "yellow_n_list = 1024,1024"),
        ],
        ids=["zero_trials", "scalar_sweep", "repeated_sweep_size"],
    )
    def test_bad_parameter_is_usage_error(self, capsys, tmp_path, lemma, line):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("green_delta = abc", "delta must be a real number"),
            ("green_delta = 0", "delta must be in (0, 1/2)"),
            ("green_ell = abc", "ell must be an integer"),
            ("green_trails = 3", "green_trails"),
            ("trails = 3", "trails"),
            ("green_n_list = 64,128", "green_n_list"),
            ("seed = 1\n# comment\nseed = 2", "key 'seed' is given twice, on lines 1 and 3"),
        ],
        ids=["delta_str", "delta_zero", "ell_str", "misspelt_param", "misspelt_global",
             "param_under_wrong_lemma", "repeated_key"],
    )
    def test_bad_config_is_usage_error(self, capsys, tmp_path, line, needle):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "verify", "--lemma", "green", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and needle in err

    @pytest.mark.parametrize(
        "lemma, line, needle",
        [
            ("purple", "purple_ell = abc", "ell must be an integer"),
            ("purple", "purple_ell = 0", "ell must be >= 1"),
            ("cyan", "cyan_epsilon = abc", "epsilon must be a real number"),
            ("cyan", "cyan_epsilon = -1", "epsilon must be positive"),
            ("cyan", "cyan_c_sample = 0", "c_sample must be positive"),
            ("all", "trials = 4000\nconvergence_trials = 0", "trials must be >= 1"),
            ("all", "convergence_n_list = 64,1", "n_list must be >= 2"),
            ("all", "convergence_presets = mauve,", "unknown preset 'mauve'; known: ("),
            ("convergence", "convergence_presets = yellow_center, fraction:2",
             "fraction preset needs x0 in [0,1], got '2'"),
            ("convergence", "convergence_presets = yellow_center, yellow_center",
             "presets must not repeat an entry"),
            ("convergence", "convergence_presets = 0.5, all_wrong", "preset must be a string"),
            ("green", "green_ell = 100", _GREEN_ELL),
            ("all", "green_ell = 100", _GREEN_ELL),
            # Green's precondition and Red's planted pairs are checked with
            # the other lemmas' parameters, so each is reported before a
            # later lemma's fault.
            ("all", "green_ell = 100\nconvergence_trials = 0", _GREEN_ELL),
            ("all", "red_delta = 0.2\nconvergence_trials = 0", _RED_PLANTING),
            # A derived ell with no finite value: 2/delta^2 or c_sample * ln n is inf.
            ("green", "green_delta = 1e-200", _INFINITE_ELL.format("green", "1e-200")),
            ("green", "green_delta = 1e-160", _INFINITE_ELL.format("green", "1e-160")),
            ("purple", "purple_delta = 1e-200", _INFINITE_ELL.format("purple", "1e-200")),
            ("red", "red_c_sample = 1e308", "need 1 <= ell <= n, got ell=inf, n=8192"),
        ] + [(lemma, line, needle) for _, own, line, needle in _JOINT_LIMITS
             for lemma in ("all", own)],
        ids=["purple_ell_str", "purple_ell_zero", "cyan_epsilon_str", "cyan_epsilon_negative",
             "cyan_c_sample_zero",
             "all_last_lemma_trials_zero", "all_last_lemma_n_list", "all_unknown_preset",
             "convergence_fraction_out_of_range", "convergence_repeated_preset",
             "convergence_number_preset", "green_ell_below_one_round",
             "all_green_ell_below_one_round", "all_green_ell_before_later_fault",
             "all_red_planting_before_later_fault", "green_delta_squared_underflows",
             "green_quotient_overflows", "purple_delta_squared_underflows",
             "red_c_sample_overflows"] + [
            f"{'all_' if lemma == 'all' else ''}{own}_{name}"
            for name, own, _, _ in _JOINT_LIMITS for lemma in ("all", own)],
    )
    def test_bad_parameter_rejected_before_any_trial(
        self, capsys, tmp_path, monkeypatch, lemma, line, needle
    ):
        def no_trials(*_args, **_kwargs):
            raise AssertionError("a trial ran before the parameters were checked")

        monkeypatch.setattr(harness, "run_trials", no_trials)
        monkeypatch.setattr(harness, "step_aggregate", no_trials)
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(line + "\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--config", str(cfg),
                                 "--out", str(out_dir))
        assert (code, out) == (2, "")
        (error,) = err.splitlines()
        assert error.startswith("error:") and needle in error
        assert not out_dir.exists()

    def test_suite_prints_runtime_and_trial_cells_per_lemma(self, capsys, tmp_path):
        # Yellow's sweep is convergence's yellow_center cells, so
        # convergence simulates its other presets and reuses those.
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "trials = 10\ncyan_n = 256\nyellow_n_list = 64,128\nconvergence_n_list = 64,128\n"
        )
        code, out, err = run_cli(capsys, "verify", "--lemma", "all", "--config", str(cfg))
        assert code in (0, 1) and set(json.loads(out)) == set(harness.LEMMAS)
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"runtime {x}" for x in harness.LEMMAS]
        cells = [line.split("(trial cells: ")[1] for line in lines]
        assert cells == ["0 simulated, 0 reused)"] * 3 + [
            "1 simulated, 0 reused)", "2 simulated, 0 reused)", "4 simulated, 2 reused)"
        ]

    def test_green_sample_size_near_n_passes_the_gate(self, capsys, tmp_path):
        # Only Cyan needs positive gamma and K, which underflow at
        # ell = 4000 and n = 4096; Green runs its trials there.
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("green_ell = 4000\ngreen_trials = 5\n")
        code, out, err = run_cli(capsys, "verify", "--lemma", "green", "--config", str(cfg))
        assert code in (0, 1), err
        assert set(json.loads(out)) == {"green"}

    def test_key_for_another_lemma_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("trials = 20\nyellow_n_list = 64,128\ncyan_epsilon = 0.5\n")
        code, out, _ = run_cli(capsys, "verify", "--lemma", "green", "--config", str(cfg))
        assert code == 0
        assert json.loads(out) == {"green": "PASS"}


# Exit code, stdout and stderr of each help, version and usage-error
# command line at COLUMNS=80.
_CLI_TEXTS = {
    "-h": (
        0,
        (
            "usage: fetsim [-h] [--version]\n"
            "              {duel,dynamics,classify,audit,simulate,chain,verify} ...\n"
            "\n"
            "FET bit-dissemination protocol workbench\n"
            "\n"
            "positional arguments:\n"
            "  {duel,dynamics,classify,audit,simulate,chain,verify}\n"
            "    duel                exact binomial duel probabilities\n"
            "    dynamics            expectation map and fixed point\n"
            "    classify            domain label of a grid point\n"
            "    audit               partition coverage audit\n"
            "    simulate            Monte-Carlo trials from a config file\n"
            "    chain               exact kernel and absorption times\n"
            "    verify              lemma verification suite\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    "--version": (
        0,
        f"fetsim {fetsim.__version__}\n",
        "",
    ),
    "duel -h": (
        0,
        (
            "usage: fetsim duel [-h] --k K --p P --q Q [--bounds]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --k K\n"
            "  --p P\n"
            "  --q Q\n"
            "  --bounds    include closed-form bounds\n"
        ),
        "",
    ),
    "dynamics -h": (
        0,
        (
            "usage: fetsim dynamics [-h] --x X --y Y --n N --ell ELL [--delta DELTA]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --x X\n"
            "  --y Y\n"
            "  --n N\n"
            "  --ell ELL\n"
            "  --delta DELTA\n"
        ),
        "",
    ),
    "classify -h": (
        0,
        (
            "usage: fetsim classify [-h] --x X --y Y --n N [--delta DELTA]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --x X\n"
            "  --y Y\n"
            "  --n N\n"
            "  --delta DELTA\n"
        ),
        "",
    ),
    "audit -h": (
        0,
        (
            "usage: fetsim audit [-h] --n N [--delta DELTA] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --n N\n"
            "  --delta DELTA\n"
            "  --out OUT\n"
        ),
        "",
    ),
    "simulate -h": (
        0,
        (
            "usage: fetsim simulate [-h] --config CONFIG [--preset PRESET]\n"
            "                       [--trials TRIALS] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG\n"
            "  --preset PRESET\n"
            "  --trials TRIALS\n"
            "  --out OUT\n"
        ),
        "",
    ),
    "chain -h": (
        0,
        (
            "usage: fetsim chain [-h] --n N --ell ELL [--from KT,KT1] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --n N\n"
            "  --ell ELL\n"
            "  --from KT,KT1\n"
            "  --out OUT\n"
        ),
        "",
    ),
    "verify -h": (
        0,
        (
            "usage: fetsim verify [-h] --lemma\n"
            "                     {green,purple,red,cyan,yellow,convergence,all}\n"
            "                     [--config CONFIG] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --lemma {green,purple,red,cyan,yellow,convergence,all}\n"
            "  --config CONFIG\n"
            "  --out OUT\n"
        ),
        "",
    ),
    "duel": (
        2,
        "",
        (
            "usage: fetsim duel [-h] --k K --p P --q Q [--bounds]\n"
            "fetsim duel: error: the following arguments are required: --k, --p, --q\n"
        ),
    ),
    "dynamics": (
        2,
        "",
        (
            "usage: fetsim dynamics [-h] --x X --y Y --n N --ell ELL [--delta DELTA]\n"
            "fetsim dynamics: error: the following arguments are required: --x, --y, --n, --ell\n"
        ),
    ),
    "classify": (
        2,
        "",
        (
            "usage: fetsim classify [-h] --x X --y Y --n N [--delta DELTA]\n"
            "fetsim classify: error: the following arguments are required: --x, --y, --n\n"
        ),
    ),
    "audit": (
        2,
        "",
        (
            "usage: fetsim audit [-h] --n N [--delta DELTA] [--out OUT]\n"
            "fetsim audit: error: the following arguments are required: --n\n"
        ),
    ),
    "simulate": (
        2,
        "",
        (
            "usage: fetsim simulate [-h] --config CONFIG [--preset PRESET]\n"
            "                       [--trials TRIALS] [--out OUT]\n"
            "fetsim simulate: error: the following arguments are required: --config\n"
        ),
    ),
    "chain": (
        2,
        "",
        (
            "usage: fetsim chain [-h] --n N --ell ELL [--from KT,KT1] [--out OUT]\n"
            "fetsim chain: error: the following arguments are required: --n, --ell\n"
        ),
    ),
    "verify": (
        2,
        "",
        (
            "usage: fetsim verify [-h] --lemma\n"
            "                     {green,purple,red,cyan,yellow,convergence,all}\n"
            "                     [--config CONFIG] [--out OUT]\n"
            "fetsim verify: error: the following arguments are required: --lemma\n"
        ),
    ),
    "frobnicate": (
        2,
        "",
        (
            "usage: fetsim [-h] [--version]\n"
            "              {duel,dynamics,classify,audit,simulate,chain,verify} ...\n"
            "fetsim: error: argument command: invalid choice: 'frobnicate' (choose from "
            "'duel', 'dynamics', 'classify', 'audit', 'simulate', 'chain', 'verify')\n"
        ),
    ),
}


class TestParserText:
    @pytest.mark.parametrize("line", list(_CLI_TEXTS))
    def test_help_version_and_usage_errors_are_pinned(self, capsys, monkeypatch, line):
        # A parse builds only the named subcommand's arguments; every
        # help, usage and error text is the same byte for byte.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(line.split())
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out, captured.err) == _CLI_TEXTS[line]

    @staticmethod
    def _dests(command):
        parser = build_parser(command)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}

    def test_only_the_named_subcommand_gets_arguments(self):
        dests = self._dests("chain")
        assert dests.pop("chain") == ["help", "n", "ell", "from_state", "out"]
        assert list(dests) == ["duel", "dynamics", "classify", "audit", "simulate", "verify"]
        assert all(names == ["help"] for names in dests.values())
        assert all(names == ["help"] for names in self._dests(None).values())


# sha256 of every file each command writes under --out, recorded from a
# fixed command set: the tiny lemma suite, simulate with a preset of
# random counters on each backend, the audit and the exact chain.
_OUTPUT_CONFIGS = {
    "verify.cfg": "trials = 10\ncyan_n = 256\nyellow_n_list = 64, 128\n"
    "convergence_n_list = 64, 128\n",
    "sim.cfg": "n = 64\nseed = 3\ntrials = 3\npreset = half_half\n",
    "agent.cfg": "n = 64\nseed = 3\ntrials = 3\npreset = half_half\nbackend = agent\n"
    "source_opinion = 0\n",
    "sim0.cfg": "n = 256\nseed = 3\ntrials = 3\npreset = yellow_center\nsource_opinion = 0\n",
    # One override of each kind: an explicit and a derived one-round ell
    # (purple_ell is 1,375; Purple is empty at delta >= 1/6), another
    # lemma's n and delta, a global seed and trials beside green_trials.
    "override.cfg": "seed = 7\ntrials = 12\ngreen_ell = 500\ngreen_trials = 20\n"
    "purple_delta = 0.11\nred_n = 16384\nred_delta = 0.09\ncyan_epsilon = 0.5\n"
    "cyan_n = 256\nyellow_n_list = 64, 128\nconvergence_n_list = 64, 128\n"
    "convergence_presets = all_wrong, cyan_corner\n",
}
_OUTPUT_DIGESTS = {
    ("verify", "--lemma", "all", "--config", "{cfg}/verify.cfg", "--out", "{out}"): (1, {
        "convergence.csv": "159d180c3f8c589ad8a22edb39d1f00b83f76c7a2f6bd94231c8e019ba9529e3",
        "convergence.json": "23e457237d281c9799b3b9dc8ef3d0f8022753671f5efa0c298f22dcc1b62c49",
        "cyan.csv": "d7b54bfef2f1829067c8819e0093dae563e21ae47a7bf4e1ad3f3f26112d13d7",
        "cyan.json": "5acefc85308fb15066cb6f9ca43e3f492f8a71f1d90a308d17cd83e09ff6b85f",
        "green.csv": "9c4ee8424e746c856a642283d297e788aa224b80932e62337f0572a67f429f2b",
        "green.json": "31fbf59beba59de2e4eb7a69f064f9dcd24f347d1b6491db489b5842ebcc8e9e",
        "purple.csv": "e4d6ec9be61af76a893ba49aafb983e1ebc3f5733fdfbef05f91560a53b03d8a",
        "purple.json": "b9e79172d432ed099f8db2fc304d55ab03fa314a58549c5679ba72924ea18bf0",
        "red.csv": "4fff0f7975eca11c883c15951bacc139bacfe37328ebd20648b63943dde65d31",
        "red.json": "527d6e60e4cb95ebe9e23193e5b4a426b6e1b1c959a1c838c63720ab358ddf2a",
        "summary.json": "0a223806a2e75c73d60a27427bd2354228b7aef58f80140e832a9fdebf0f8ec3",
        "yellow.csv": "2fee427bffeb8889eeb8c00c6dbfeb7bb33e006d086dd9baf26a1b2a0f7d9064",
        "yellow.json": "1209bf0e60276f56a1887232f845a5987d01089f041f681ad061fb36e6474ce4",
    }),
    ("verify", "--config", "{cfg}/override.cfg", "--lemma", "all", "--out", "{out}"): (0, {
        "convergence.csv": "6ef1df6686823a1c3e2f33478a1bfd65bae321e971a67146eb40f0c24d2abc38",
        "convergence.json": "1167093d3497e7f1bf21dd7f7063081723b6efa8cea7000f02d9fb222bd9123f",
        "cyan.csv": "673669b53e51f0cac888bbf4efd6aab509f0a360acfeca31851ea34c8c7a8cd5",
        "cyan.json": "2fd25f5f3fc37b741bc8306e3ab2f30bd1c109cd16245d8eac3735571162a92b",
        "green.csv": "7671bf65c17c413ec185cb14a3283342148454a9f92034e7f13402a1a4b8b3e7",
        "green.json": "e7bc860748225bbc14be582b0d301bb310fbcb992e95c4cf71f2d7daa8a6876e",
        "purple.csv": "82bd737f11e8c754c873d1c749896162e11aa19c21da44ea66a1f0b773814670",
        "purple.json": "36d7ac64487e1c0a3f514b700fddca1c9480b02ce0aca0044e043852e0eec68e",
        "red.csv": "a53684c426f0dfb7830843e3a5d0e0bc6bf005e5d96a109dd2d6b3775ef21a75",
        "red.json": "2c816b58d1a2a8eaa079c32fc2a153b7a0530c90342898d2cee8272255e37e79",
        "summary.json": "d33ed4da5b246494b22630d85af144d414b3ee2dee54f2bcbbb02ad5206717e8",
        "yellow.csv": "5ca9a54e5916bf0b4d9cac4937bf5cd192c294fef44c2778f22d8a487ab962c4",
        "yellow.json": "23b2a37c62f8e065dc55e9631ff00191502f0f340c4db3025e594eda3d63bbd4",
    }),
    ("simulate", "--config", "{cfg}/sim.cfg", "--out", "{out}"): (0, {
        "summary.json": "3a4ae800b8c9e648942c29c92f2f1373fe2969170fa03904b82dc3711b5fe489",
        "trial_0.csv": "ebfc207665eb087e8af89bda36a60d7c8e6f6d1705ed4c46c614c462093fa6b0",
        "trial_1.csv": "68e308d7ed81174e510b7a7dcb39c949b7e40a573ec89e08ad118268617df795",
        "trial_2.csv": "0541878f451d574f5e13ae118b87f774b64d382916b55b0e333ba472fc3e86c9",
    }),
    ("simulate", "--config", "{cfg}/agent.cfg", "--out", "{out}"): (0, {
        "summary.json": "a3a53c9f88b51413b5d3ae5a593aee58491cd8b9eee2d99515168328f5393244",
        "trial_0.csv": "c300b0492d4a8965ff604b623e9a477ba0b69a2f79da9dc4b76c10d48a1c4a2f",
        "trial_1.csv": "4b189419a1bf4a2c666015d8be535b274c2d9f14d5a1cb3a43ebc9f3833cd710",
        "trial_2.csv": "c0f12f106869ccf0a87037c394a1d880c3b5c91b503ad3e9a1c228e104bb956b",
    }),
    # The aggregate backend's mirrored pair rounds (10-14 rounds a trial).
    ("simulate", "--config", "{cfg}/sim0.cfg", "--out", "{out}"): (0, {
        "summary.json": "0655551bff88324f501f7616dc4e2527f14a51821703360ef8803b22bf0ba176",
        "trial_0.csv": "6b10ace6bd9f7555f203448680e033767af814ed4b6805e9a67e4cf63f09cec6",
        "trial_1.csv": "53ee788c245565e750c9947101eba94006afba641e8609f5a2ca341b5debe1c1",
        "trial_2.csv": "bf16140dd470bd48232a5c6feebea5e312666a450e93473f250c1232c14a3dc2",
    }),
    ("audit", "--n", "16", "--out", "{out}/audit.json"): (0, {
        "audit.json": "4f72e7865895572f3a8bd738548a4dfd7c5504b61517675afc7adbe029420a24",
    }),
    # The float partition left 7 points uncovered at n = 200; on counts none is.
    ("audit", "--n", "200", "--delta", "0.05", "--out", "{out}/audit.json"): (0, {
        "audit.json": "c2024c92c79c830b51d5496f9c4adc8d26aec2f3a0dff6c319e7dad3d4c42b93",
    }),
    ("chain", "--n", "8", "--ell", "4", "--out", "{out}/chain.json"): (0, {
        "chain.json": "58da6b1ff16762a78577e648b49c86365d51590120544cfa6b109c2a246d9ad9",
    }),
}


# sha256 of `fetsim classify` stdout at one point per domain and per
# Yellow' area (the labels it prints follow each entry).
_CLASSIFY_DIGESTS = {
    ("--x", "0.2", "--y", "0.5", "--n", "128"):  # Green1, OutsideYellowPrime
        "7e281a3163bc8df70e3d9f279fd74ae34636556cb164178320e35912c5ec6256",
    ("--x", "0.8", "--y", "0.5", "--n", "128"):  # Green0, OutsideYellowPrime
        "155fc44bcb92ede482f4fe284b4bfb22ee970c0132ecb01af276f027508a7c7c",
    ("--x", "0.15", "--y", "0.2", "--n", "4096", "--delta", "0.1"):  # Purple1, C1
        "1c59e20ee742b5d010e535fe3c75c4cec9ec3b2d65caa82c53ea985faa3e20ba",
    ("--x", "0.85", "--y", "0.8", "--n", "4096", "--delta", "0.1"):  # Purple0, C0
        "23960e5f264f8288f1351a159e4b0ae39f808d4ef889d14738b3f9fe5c0d5d2b",
    ("--x", "0.18", "--y", "0.12", "--n", "8192", "--delta", "0.1"):  # Red1, B0
        "490f845ddb5ff29eff07b4986fb16e4f71fa21182ff6036c2066305f87424681",
    ("--x", "0.82", "--y", "0.88", "--n", "8192", "--delta", "0.1"):  # Red0, B1
        "846f1f6e1602c67ddbf39b78d5efeb972f2d88853660434c0a01d996ece3f5f3",
    ("--x", "0.0078125", "--y", "0.0078125", "--n", "128"):  # Cyan1, OutsideYellowPrime
        "7ee76e9ed06438691b5d5140ea1d75e333fe0ba775e39cce54371ff2bcf17b0f",
    ("--x", "1", "--y", "1", "--n", "128"):  # Cyan0, OutsideYellowPrime
        "402402fff6aceff72228b87d6b91b4fd9b020bda2d7886a0726bbba8c2c323ac",
    ("--x", "0.065", "--y", "0.015", "--n", "200"):  # Green0 (b - a = -delta n), OutsideYellowPrime
        "6ede9092a502974c4555415db008fad093e13947723c1e74f2e3ba40229022f1",
    ("--x", "0.5", "--y", "0.5", "--n", "128", "--delta", "0.1"):  # Yellow, A1
        "1b0d4096679e4a1de540fa65df7bb4150d8878ba784fafce3e939c50132dbf46",
    ("--x", "0.52", "--y", "0.45", "--n", "128", "--delta", "0.1"):  # Yellow, A0
        "21cde5e0cff2edc2cd52393c70fff73131fbc624069514b4f9a2e53cd0e64489",
    ("--x", "0.52", "--y", "0.53", "--n", "128", "--delta", "0.1"):  # Yellow, B1
        "b0574d300413583df781e5dc5ab44da5435916a085ecd53e29fc1fbbbe8bc499",
    ("--x", "0.48", "--y", "0.47", "--n", "128", "--delta", "0.1"):  # Yellow, B0
        "6a598846e7483b92b11701289418c49ed692a45f9cb0984920e5bdfef4fedda3",
    ("--x", "0.45", "--y", "0.47", "--n", "128", "--delta", "0.1"):  # Yellow, C1
        "c93f2df4082e2bab0e26b44636f97243b226823c71db3f2280b8eb317b90f1a5",
    ("--x", "0.55", "--y", "0.53", "--n", "128", "--delta", "0.1"):  # Yellow, C0
        "16e6487fb8109cedc5caa2221cd0fd0c6dbc248adac04a0cc26f070db4b5f4a3",
}

# sha256 of the stdout of duel and dynamics (speed and null fields included).
_POINT_DIGESTS = {
    ("duel", "--k", "64", "--p", "0.45", "--q", "0.55", "--bounds"):
        "03645a2db712031457aedda74eb7d238591e5b2e9565a1333c6acd8095fc8db0",
    ("duel", "--k", "7", "--p", "0.3", "--q", "0.3", "--bounds"):  # p = q: bounds null
        "f64cb226ef0f628c37778e7b218c8c8e7968594f1ac5b54acf69222a9d3622e0",
    ("dynamics", "--x", "0.52", "--y", "0.53", "--n", "4096", "--ell", "64"):
        "1f6c4f076d174f666f7a8a96d89ab3495cd2ff87da0f1e85d86d654470224748",
    ("dynamics", "--x", "0.2", "--y", "0.5", "--n", "128", "--ell", "15"):  # no fixed point
        "ce68d3635bd0c9c8de52d28dc94537d97be97ec621e7f1ff74f4c7692ce11a4c",
}


def _digests(directory):
    """sha256 of every file below directory, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


class TestOutputBytes:
    @pytest.mark.parametrize("argv", list(_OUTPUT_DIGESTS), ids=lambda argv: " ".join(argv[:3]))
    def test_written_files_are_pinned(self, capsys, tmp_path, argv):
        # Every written file is the same byte for byte, whichever code writes it.
        for name, text in _OUTPUT_CONFIGS.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, *(arg.format(cfg=tmp_path, out=out) for arg in argv))
        assert (code, _digests(out)) == _OUTPUT_DIGESTS[argv]

    def test_one_lemma_writes_the_suites_files(self, capsys, tmp_path):
        # --lemma green writes green.csv and green.json as --lemma all
        # does, and no summary.json.
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(_OUTPUT_CONFIGS["verify.cfg"])
        for lemma in ("green", "all"):
            run_cli(capsys, "verify", "--lemma", lemma, "--config", str(cfg),
                    "--out", str(tmp_path / lemma))
        one, suite = _digests(tmp_path / "green"), _digests(tmp_path / "all")
        assert one == {name: suite[name] for name in ("green.csv", "green.json")}

    @pytest.mark.parametrize("argv", list(_CLASSIFY_DIGESTS), ids=lambda argv: " ".join(argv))
    def test_classify_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, "classify", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, _CLASSIFY_DIGESTS[argv])

    @pytest.mark.parametrize("argv", list(_POINT_DIGESTS), ids=lambda argv: " ".join(argv))
    def test_duel_and_dynamics_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, _POINT_DIGESTS[argv])
