"""CLI surface: subcommand output schemas, config parsing, file emission."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fetsim
from fetsim import harness
from fetsim.cli import build_parser, main
from fetsim.config import parse_config_file, parse_value
from fetsim.domains import DomainLabel, label_paths
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
    # An existing non-directory where --out needs a directory, and an
    # existing directory where --out names a file, end the command before
    # its trials, kernel or audit, and create nothing.
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
    argv = [arg.format(cfg=cfg) for arg in argv]
    outs = [(out, f"File exists where --out {out} needs a directory: {blocker}")
            for out in [blocker / "report.json", blocker / "sub" / "report.json"]
            + [blocker] * needs_dir]
    if not needs_dir:
        outs.append((folder, f"Directory exists where --out {folder} needs a file"))
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
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_c_sample_is_error(self, capsys, tmp_path, command, value):
        # A NaN c_sample used to pass into the partition constants.
        argv = [command, "--n", "16", "--c-sample", value]
        if command == "classify":
            argv += ["--x", "0.5", "--y", "0.5"]
        else:
            argv += ["--out", str(tmp_path / "audit.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: c_sample must be positive and finite")
        assert not (tmp_path / "audit.json").exists()

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
            ("n = 64\nmax_rounds = 2.5", "max_rounds must be an integer"),
            ("n = 64\nsource_opinion = one", "source_opinion must be an integer"),
            ("n = 64\nbackned = agent", "backned"),
            ("n = 64\nn = 128", "key 'n' is given twice, on lines 1 and 2"),
        ],
        ids=["n_float", "ell_float", "seed_str", "delta_str", "delta_range", "c_sample_str",
             "c_sample_nan", "c_sample_inf", "max_rounds_float", "source_str", "unknown_key",
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
        domains, _ = label_paths([67, 62], n, 0.05, math.ceil(3 * math.log(n)))
        assert domains.tolist() == [tuple(DomainLabel).index(DomainLabel.GREEN0)]

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
print(json.dumps(["import", 0, scipy_modules()]))
(work / "verify.cfg").write_text(
    "trials = 10\ncyan_n = 256\nyellow_n_list = 64, 128\nconvergence_n_list = 64, 128\n"
)
quiet(["verify", "--lemma", "all", "--config", str(work / "verify.cfg"),
      "--out", str(work / "reports")])
verdicts = json.loads((work / "reports" / "summary.json").read_text())
print(json.dumps(["verify", len(verdicts), scipy_modules()]))
(work / "sim.cfg").write_text("n = 4096\nseed = 3\n")
code, _ = quiet(["simulate", "--config", str(work / "sim.cfg"), "--trials", "2",
                 "--out", str(work / "sim")])
print(json.dumps(["simulate", code, scipy_modules()]))
code, out = quiet(["chain", "--n", "8", "--ell", "4"])
print(json.dumps(["chain", code, json.loads(out), scipy_modules()]))
"""


class TestPackageExports:
    def test_every_export_resolves(self):
        # Every name in __all__ is bound on the package; the agent-level
        # step and its arrays are internals, not exports.
        for name in fetsim.__all__:
            assert getattr(fetsim, name) is not None
        for internal in ("Population", "step_agent_level"):
            assert internal not in fetsim.__all__ and not hasattr(fetsim, internal)


class TestImportDiet:
    def test_scipy_loaded_only_for_the_chain(self, tmp_path):
        # scipy costs more start-up than most commands compute; only the
        # exact chain (fetsim.markov) may load it, and only when run, and
        # then only its sparse matrices: no scipy.linalg and LAPACK.
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
        for name, _, loaded in stages[:3]:
            assert loaded == [], f"scipy loaded by {name}: {loaded[:5]}"
        chain, loaded = stages[3][2:]
        assert (chain["n"], chain["ell"]) == (8, 4)
        assert chain["max_expected_rounds"] >= chain["expected_rounds_from_corner"] > 0
        assert "scipy.sparse" in loaded
        for heavy in ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"):
            assert heavy not in loaded, f"chain loaded {heavy}"


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
            ("all", "trials = 4000\nconvergence_trials = 0", "trials must be >= 1"),
            ("all", "convergence_n_list = 64,1", "n_list must be >= 2"),
            ("all", "convergence_presets = mauve,", "unknown preset 'mauve'; known: ("),
            ("convergence", "convergence_presets = yellow_center, fraction:2",
             "fraction preset needs x0 in [0,1], got '2'"),
            ("convergence", "convergence_presets = yellow_center, yellow_center",
             "presets must not repeat an entry"),
            ("convergence", "convergence_presets = 0.5, all_wrong", "preset must be a string"),
        ],
        ids=["purple_ell_str", "purple_ell_zero", "cyan_epsilon_str", "cyan_epsilon_negative",
             "all_last_lemma_trials_zero", "all_last_lemma_n_list", "all_unknown_preset",
             "convergence_fraction_out_of_range", "convergence_repeated_preset",
             "convergence_number_preset"],
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
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and needle in err

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
            "                       [--c-sample C_SAMPLE]\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --x X\n"
            "  --y Y\n"
            "  --n N\n"
            "  --delta DELTA\n"
            "  --c-sample C_SAMPLE\n"
        ),
        "",
    ),
    "audit -h": (
        0,
        (
            "usage: fetsim audit [-h] --n N [--delta DELTA] [--c-sample C_SAMPLE]\n"
            "                    [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --n N\n"
            "  --delta DELTA\n"
            "  --c-sample C_SAMPLE\n"
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
            "                       [--c-sample C_SAMPLE]\n"
            "fetsim classify: error: the following arguments are required: --x, --y, --n\n"
        ),
    ),
    "audit": (
        2,
        "",
        (
            "usage: fetsim audit [-h] --n N [--delta DELTA] [--c-sample C_SAMPLE]\n"
            "                    [--out OUT]\n"
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
