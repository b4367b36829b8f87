"""Command line interface.

Subcommands:
    duel      exact duel triple (optionally with the closed-form bounds)
    dynamics  expectation map, flip probabilities, speed, fixed point
    classify  domain and Yellow-area label of one grid point
    audit     exhaustive partition coverage report
    simulate  Monte-Carlo trials from a config file, CSV + summary out
    chain     exact kernel and absorption times for small n
    verify    per-lemma statistical checks, CSV + JSON out

All structured output is JSON on stdout or files under --out, and this
module writes every file: JSON through _write_json, CSV through
_write_csv.  The other modules return plain data.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import check_delta, parse_config_file
from .domains import AREAS, DOMAINS, audit_partition, classify, classify_yellow, label_paths
from .duel import exact_duel, hoeffding_duel_bound, underdog_lower_bound
from .dynamics import AnalysisConstants, expected_next_fraction, fixed_point_f, flip_probs
from .errors import DomainError, FetsimError, UsageError
from .harness import LEMMAS, POINT_FIELDS, SWEEP_FIELDS, run_all, run_lemma
from .protocol import SimConfig, run_trials

SIM_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(SimConfig))


def _check_out(out: str | None, is_dir: bool) -> None:
    """Fail if a directory that --out needs (out itself if is_dir, each parent) is a file,
    or if out is a directory where a file is written (not is_dir).

    The walk stops at the first existing directory, whose parents are all directories.
    """
    if out == "":
        raise UsageError("--out must name a path, got an empty string")
    if out is not None:
        if not is_dir and Path(out).is_dir():
            raise IsADirectoryError(f"Directory exists where --out {out} needs a file")
        for path in ([Path(out)] if is_dir else []) + list(Path(out).parents):
            if path.is_dir():
                return
            if path.exists():
                raise FileExistsError(f"File exists where --out {out} needs a directory: {path}")


def _write_json(payload: dict, path: Path | str | None = None) -> None:
    """The payload as indented JSON to the file path (its directory made), else to stdout."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def _write_csv(path: Path, header, rows) -> None:
    """A header line, then one line per row, to the CSV file path (its directory made)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_duel(args) -> int:
    duel = exact_duel(args.k, args.p, args.q)
    payload = {
        "k": args.k,
        "p": args.p,
        "q": args.q,
        "p_lt": duel.p_lt,
        "p_eq": duel.p_eq,
        "p_gt": duel.p_gt,
    }
    if args.bounds:
        lo, hi = min(args.p, args.q), max(args.p, args.q)
        if lo < hi:
            payload["hoeffding_lower_bound_p_lt"] = hoeffding_duel_bound(args.k, lo, hi)
            payload["underdog_lower_bound_p_gt"] = underdog_lower_bound(args.k, lo, hi)
        else:
            payload["hoeffding_lower_bound_p_lt"] = None
            payload["underdog_lower_bound_p_gt"] = None
    _write_json(payload)
    return 0


def _cmd_dynamics(args) -> int:
    check_delta(args.delta)
    fp = flip_probs(args.x, args.y, args.ell)
    payload = {
        "x_t": args.x,
        "x_t1": args.y,
        "n": args.n,
        "ell": args.ell,
        "g": expected_next_fraction(args.x, args.y, args.n, args.ell),
        "p_keep_one": fp.p_keep_one,
        "p_gain_one": fp.p_gain_one,
        "speed": abs(args.y - args.x),
    }
    try:
        payload["fixed_point"] = fixed_point_f(args.x, args.ell, args.n, args.delta)
    except DomainError:
        payload["fixed_point"] = None
    _write_json(payload)
    return 0


def _cmd_classify(args) -> int:
    for flag, value in (("--x", args.x), ("--y", args.y)):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise UsageError(f"{flag} must be a fraction in [0, 1], got {value!r}")
    constants = AnalysisConstants.for_population(
        args.n, delta=args.delta, c_sample=args.c_sample
    )
    _write_json(
        {
            "x_t": args.x,
            "x_t1": args.y,
            "n": args.n,
            "delta": args.delta,
            "domain": DOMAINS[classify(args.x, args.y, constants)].value,
            "yellow": AREAS[classify_yellow(args.x, args.y, constants)].value,
        }
    )
    return 0


def _cmd_audit(args) -> int:
    constants = AnalysisConstants.for_population(
        args.n, delta=args.delta, c_sample=args.c_sample
    )
    _write_json(audit_partition(constants), args.out)
    if args.out:
        print(f"audit report written to {args.out}", file=sys.stderr)
    return 0


def _sim_config_from_settings(settings: dict) -> SimConfig:
    known = {*SIM_CONFIG_KEYS, "preset", "trials"}
    unknown = sorted(set(settings) - known)
    if unknown:
        raise UsageError(f"unknown simulate config key(s) {unknown}; known: {sorted(known)}")
    kwargs = {k: settings[k] for k in SIM_CONFIG_KEYS if k in settings}
    if "n" not in kwargs:
        raise DomainError("config must set n")
    return SimConfig(**kwargs)


def _cmd_simulate(args) -> int:
    settings = parse_config_file(args.config)
    if args.preset is not None:
        settings["preset"] = args.preset
    if args.trials is not None:
        settings["trials"] = args.trials
    trials = settings.get("trials", 1)
    config = _sim_config_from_settings(settings)
    preset = settings.get("preset", "all_wrong")
    out_dir = Path(args.out)

    counts, lengths = run_trials(config, preset, trials)  # before any output directory
    domains, yellows = label_paths(counts, config.n, config.delta, config.ell)
    ends = np.cumsum(lengths)
    for t, (start, end) in enumerate(zip((ends - lengths).tolist(), ends.tolist())):
        # Row t holds x_t and the labels of the pair (x_t, x_{t+1}); the
        # final row has no successor, so its labels are empty.
        domain_names = [DOMAINS[p].value for p in domains[start : end - 1].tolist()] + [""]
        yellow_names = [AREAS[p].value for p in yellows[start : end - 1].tolist()] + [""]
        _write_csv(out_dir / f"trial_{t}.csv", ["round", "x_t", "domain", "yellow_label"], (
            [r, repr(k / config.n), domain_names[r], yellow_names[r]]
            for r, k in enumerate(counts[start:end].tolist())
        ))
    # Every slot but each path's last is a pair of that path.
    visits = np.bincount(np.delete(domains, ends[:-1] - 1), minlength=len(DOMAINS))
    converged = counts[ends - 1] == config.n * config.source_opinion
    rounds = np.sort((lengths - 1)[converged]).tolist()
    quantiles = {}
    if rounds:
        def q(frac: float) -> float:
            return float(rounds[min(len(rounds) - 1, int(frac * (len(rounds) - 1)))])

        quantiles = {"q50": q(0.5), "q90": q(0.9), "q99": q(0.99)}
    summary = {
        "preset": str(preset),
        "trials": trials,
        "converged_round_per_trial": [
            r if ok else None for r, ok in zip((lengths - 1).tolist(), converged.tolist())
        ],
        "converged_fraction": len(rounds) / trials,
        "quantiles": quantiles,
        "domain_visit_counts": dict(
            sorted((label.value, int(v)) for label, v in zip(DOMAINS, visits) if v)
        ),
    }
    _write_json(summary, out_dir / "summary.json")
    print(f"{trials} trial file(s) + summary.json written to {out_dir}", file=sys.stderr)
    return 0


def _parse_pair_state(text: str, n: int) -> tuple[int, int]:
    """The --from value "KT,KT1" as a pair state of the n-agent chain."""
    try:  # a non-integer part and a part count other than two both raise
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--from must be two integers KT,KT1, got {text!r}") from None
    if not (0 <= a <= n and 1 <= b <= n):
        raise UsageError(f"--from needs 0 <= KT <= n and 1 <= KT1 <= n = {n}, got {text!r}")
    return a, b


def _cmd_chain(args) -> int:
    from .markov import absorption_times, build_kernel  # scipy loads here only

    from_state = None if args.from_state is None else _parse_pair_state(args.from_state, args.n)
    start = time.perf_counter()
    kernel = build_kernel(args.n, args.ell)
    built = time.perf_counter()
    print(f"build_kernel: {built - start:.3f}s, nnz {kernel.matrix.nnz}, "
          f"pruned mass {kernel.pruned_mass:.3e}", file=sys.stderr)
    times = absorption_times(kernel)
    print(f"absorption_times: {time.perf_counter() - built:.3f}s", file=sys.stderr)
    payload = {
        "n": args.n,
        "ell": args.ell,
        "pruned_mass": kernel.pruned_mass,
        "max_expected_rounds": float(times.max()),
        "expected_rounds_from_corner": float(times[kernel.state_index(1, 1)]),
    }
    if from_state is not None:
        payload["from_state"] = list(from_state)
        payload["expected_rounds_from_state"] = float(times[kernel.state_index(*from_state)])
    _write_json(payload, args.out)
    if args.out:
        print(f"chain report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    settings = parse_config_file(args.config) if args.config is not None else {}
    suite = args.lemma == "all"
    reports = run_all(settings) if suite else {args.lemma: run_lemma(args.lemma, settings)}
    verdicts = {lemma: report.verdict for lemma, report in reports.items()}
    if args.out:
        for lemma, report in reports.items():
            # The emitted fields only: runtime and trial cells go to stderr.
            _write_json(report.to_dict(), Path(args.out, f"{lemma}.json"))
            fields, rows = ((POINT_FIELDS, report.points) if report.kind == "pointwise"
                            else (SWEEP_FIELDS, report.sweep))
            _write_csv(Path(args.out, f"{lemma}.csv"), fields,
                       ([row[key] for key in fields] for row in rows))
        if suite:
            _write_json(verdicts, Path(args.out, "summary.json"))
    _write_json(verdicts)
    for lemma, report in reports.items():
        simulated, reused = report.trial_cells
        line = (f"runtime {lemma}: {report.runtime_s:.2f}s "
                f"(trial cells: {simulated} simulated, {reused} reused)")
        print(line if suite else f"runtime: {report.runtime_s:.2f}s", file=sys.stderr)
    return 0 if all(v == "PASS" for v in verdicts.values()) else 1


_INT, _FLOAT = {"type": int, "required": True}, {"type": float, "required": True}
_DELTA, _OUT = ("--delta", {"type": float, "default": 0.05}), ("--out", {})
_C_SAMPLE = ("--c-sample", {"type": float, "default": 3.0, "dest": "c_sample"})
# Subcommand: (help, handler, ((flag, add_argument keywords), ...)).
_COMMANDS = {
    "duel": ("exact binomial duel probabilities", _cmd_duel, (
        ("--k", _INT), ("--p", _FLOAT), ("--q", _FLOAT),
        ("--bounds", {"action": "store_true", "help": "include closed-form bounds"}))),
    "dynamics": ("expectation map and fixed point", _cmd_dynamics, (
        ("--x", _FLOAT), ("--y", _FLOAT), ("--n", _INT), ("--ell", _INT), _DELTA)),
    "classify": ("domain label of a grid point", _cmd_classify, (
        ("--x", _FLOAT), ("--y", _FLOAT), ("--n", _INT), _DELTA, _C_SAMPLE)),
    "audit": ("partition coverage audit", _cmd_audit, (("--n", _INT), _DELTA, _C_SAMPLE, _OUT)),
    "simulate": ("Monte-Carlo trials from a config file", _cmd_simulate, (
        ("--config", {"required": True}), ("--preset", {}), ("--trials", {"type": int}),
        ("--out", {"default": "simulate-out"}))),
    "chain": ("exact kernel and absorption times", _cmd_chain, (
        ("--n", _INT), ("--ell", _INT),
        ("--from", {"dest": "from_state", "metavar": "KT,KT1"}), _OUT)),
    "verify": ("lemma verification suite", _cmd_verify, (
        ("--lemma", {"choices": list(LEMMAS) + ["all"], "required": True}),
        ("--config", {}), _OUT)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """All subcommands, but only ``command``'s arguments: each add_argument builds a formatter."""
    parser = argparse.ArgumentParser(
        prog="fetsim",
        description="FET bit-dissemination protocol workbench",
    )
    parser.add_argument("--version", action="version", version=f"fetsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments if name == command else ():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level options take no value, so the first bare token names the subcommand.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:  # an unusable --out path fails here, before any trial, kernel or audit
        _check_out(getattr(args, "out", None), is_dir=args.command in ("simulate", "verify"))
        return args.func(args)
    except (FetsimError, OSError) as exc:  # OSError: an unusable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
