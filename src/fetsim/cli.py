"""Command line interface.

Subcommands:
    duel      exact duel triple (optionally with the closed-form bounds)
    dynamics  expectation map, flip probabilities, speed, fixed point
    classify  domain and Yellow-area label of one grid point
    audit     exhaustive partition coverage report
    simulate  Monte-Carlo trials from a config file, CSV + summary out
    chain     exact kernel and absorption times for small n
    verify    per-lemma statistical checks, CSV + JSON out

All structured output is JSON on stdout or files under --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import check_delta, parse_config_file
from .domains import audit_partition, classify, classify_yellow, label_paths
from .duel import exact_duel, hoeffding_duel_bound, underdog_lower_bound
from .dynamics import (
    AnalysisConstants,
    expected_next_fraction,
    fixed_point_f,
    flip_probs,
    speed,
)
from .errors import DomainError, FetsimError, UsageError
from .harness import LEMMAS, _check, emit, run_all, run_lemma
from .markov import absorption_times, build_kernel
from .protocol import SimConfig, run_trials

SIM_CONFIG_KEYS = (
    "n",
    "ell",
    "c_sample",
    "delta",
    "source_opinion",
    "max_rounds",
    "seed",
    "backend",
    "variant",
)


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


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
    _print_json(payload)
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
        "speed": speed(args.x, args.y),
    }
    try:
        payload["fixed_point"] = fixed_point_f(args.x, args.ell, args.n, args.delta)
    except DomainError:
        payload["fixed_point"] = None
    _print_json(payload)
    return 0


def _cmd_classify(args) -> int:
    for flag, value in (("--x", args.x), ("--y", args.y)):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise UsageError(f"{flag} must be a fraction in [0, 1], got {value!r}")
    constants = AnalysisConstants.for_population(
        args.n, delta=args.delta, c_sample=args.c_sample
    )
    point = (args.x, args.y)
    _print_json(
        {
            "x_t": args.x,
            "x_t1": args.y,
            "n": args.n,
            "delta": args.delta,
            "domain": classify(point, args.n, constants).value,
            "yellow": classify_yellow(point, constants).value,
        }
    )
    return 0


def _cmd_audit(args) -> int:
    constants = AnalysisConstants.for_population(
        args.n, delta=args.delta, c_sample=args.c_sample
    )
    report = audit_partition(args.n, constants).to_dict()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"audit report written to {args.out}", file=sys.stderr)
    else:
        _print_json(report)
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
    if args.preset:
        settings["preset"] = args.preset
    if args.trials is not None:
        settings["trials"] = args.trials
    trials = settings.get("trials", 1)
    _check(trials=trials)
    config = _sim_config_from_settings(settings)
    preset = settings.get("preset", "all_wrong")
    out_dir = Path(args.out) if args.out else Path("simulate-out")

    summary_rows = []
    domain_visits: dict[str, int] = {}
    trajectories = run_trials(config, preset, trials)  # first, so a bad preset leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = label_paths([t.counts for t in trajectories], config.n, config.delta, config.ell)
    for t, (traj, (domains, yellows)) in enumerate(zip(trajectories, labels)):
        # Row t holds x_t and the labels of the pair (x_t, x_{t+1}); the
        # final row has no successor, so its labels are empty.
        with (out_dir / f"trial_{t}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "x_t", "domain", "yellow_label"])
            domain_names = [label.value for label in domains] + [""]
            yellow_names = [label.value for label in yellows] + [""]
            for r, k in enumerate(traj.counts):
                writer.writerow([r, repr(k / config.n), domain_names[r], yellow_names[r]])
        for label in domains:
            domain_visits[label.value] = domain_visits.get(label.value, 0) + 1
        summary_rows.append(traj.converged_round)

    converged = [r for r in summary_rows if r is not None]
    quantiles = {}
    if converged:
        converged_sorted = sorted(converged)

        def q(frac: float) -> float:
            idx = min(len(converged_sorted) - 1, int(frac * (len(converged_sorted) - 1)))
            return float(converged_sorted[idx])

        quantiles = {"q50": q(0.5), "q90": q(0.9), "q99": q(0.99)}
    summary = {
        "preset": str(preset),
        "trials": trials,
        "converged_round_per_trial": summary_rows,
        "converged_fraction": len(converged) / trials,
        "quantiles": quantiles,
        "domain_visit_counts": dict(sorted(domain_visits.items())),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
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
    from_state = None if args.from_state is None else _parse_pair_state(args.from_state, args.n)
    kernel = build_kernel(args.n, args.ell)
    times = absorption_times(kernel)
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
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"chain report written to {args.out}", file=sys.stderr)
    else:
        _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    out_dir = Path(args.out) if args.out else None
    if args.lemma == "all":
        reports = run_all(settings, out_dir)
        summary = {lemma: report.verdict for lemma, report in reports.items()}
        _print_json(summary)
        return 0 if all(v == "PASS" for v in summary.values()) else 1
    report = run_lemma(args.lemma, settings)
    if out_dir is not None:
        emit(report, out_dir)
    _print_json({args.lemma: report.verdict})
    print(f"runtime: {report.runtime_s:.2f}s", file=sys.stderr)
    return 0 if report.verdict == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetsim",
        description="FET bit-dissemination protocol workbench",
    )
    parser.add_argument("--version", action="version", version=f"fetsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("duel", help="exact binomial duel probabilities")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--bounds", action="store_true", help="include closed-form bounds")
    p.set_defaults(func=_cmd_duel)

    p = sub.add_parser("dynamics", help="expectation map and fixed point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("classify", help="domain label of a grid point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--c-sample", type=float, default=3.0, dest="c_sample")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("audit", help="partition coverage audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--c-sample", type=float, default=3.0, dest="c_sample")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("simulate", help="Monte-Carlo trials from a config file")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--preset", type=str, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("chain", help="exact kernel and absorption times")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--from", type=str, default=None, dest="from_state", metavar="KT,KT1")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("verify", help="lemma verification suite")
    p.add_argument("--lemma", choices=list(LEMMAS) + ["all"], required=True)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FetsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
