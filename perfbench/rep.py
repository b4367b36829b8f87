"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload lemma_suite --seed 1 --trace 0 \
        --scale full --work DIR --result FILE [--spans FILE]
    python3 perfbench/rep.py --warmup

``run.py`` starts this script once per repetition, so the process-global
``duel.exact_duel_cached`` cache and the peak-RSS high-water mark start
empty in every repetition, as they do for a user's ``fetsim`` command.

The script pins itself to one CPU and starts the speed probe
(``probe.py``), imports fetsim from the checkout's ``src`` and builds the
workload's inputs (timed together as set-up), runs the workload once
(timed as wall time), checks its outputs and writes one JSON result
with both times raw and rescaled to the probe's reference speed.
With ``--trace 1`` the public functions of every layer are wrapped in
spans before the timed call.  ``--warmup`` only imports fetsim, which
compiles its bytecode before any repetition is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe, pin_to_one_cpu
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LEMMAS = ("green", "purple", "red", "cyan", "yellow", "convergence")
# Verdicts of `fetsim verify --lemma all` at its documented defaults.
# Yellow's FAIL is the documented known red (its R^2 rule), so it is
# the expected verdict, not a failure.
EXPECTED_VERDICTS = dict.fromkeys(LEMMAS, "PASS") | {"yellow": "FAIL"}
# The tiny scale only checks that the suite runs and writes its files;
# the verdicts above are calibrated for the defaults.
TINY_VERIFY_CONFIG = """\
trials = 10
cyan_n = 256
yellow_n_list = 64, 128
convergence_n_list = 64, 128
"""

LARGE_N_PRESETS = ("all_wrong_max_counters", "yellow_center")
# (n, trials per preset)
LARGE_N_SIZE = {"full": (1 << 20, 2), "tiny": (1 << 12, 1)}
CHAIN_N = {"full": 96, "tiny": 16}

# (module, function, span name) for every traced function.  Each is
# wrapped wherever fetsim binds it, so `flip_probs` is traced in
# protocol and markov, `step_aggregate` in protocol, harness and markov,
# `classify` in protocol and harness, `exact_duel_cached` in dynamics,
# `run_trial` in harness and cli, and `build_kernel` and
# `absorption_times` in markov and cli.
SPANS = (
    ("protocol", "step_agent_level", "protocol.step_agent_level"),
    ("protocol", "step_aggregate", "protocol.step_aggregate"),
    ("protocol", "run_trial", "protocol.run_trial"),
    ("protocol", "init_adversarial", "protocol.init_adversarial"),
    ("duel", "exact_duel_cached", "duel.exact_duel_cached"),
    ("duel", "binomial_pmf_vector", "duel.binomial_pmf_vector"),
    ("dynamics", "flip_probs", "dynamics.flip_probs"),
    ("dynamics", "expected_next_fraction", "dynamics.expected_next_fraction"),
    ("domains", "classify", "domains.classify"),
    ("domains", "classify_yellow", "domains.classify_yellow"),
    ("markov", "build_kernel", "markov.build_kernel"),
    ("markov", "absorption_times", "markov.absorption_times"),
    ("cli", "main", "cli.main"),
)
INDEX_BYTES = "protocol.step_agent_level.index_bytes"


def _index_bytes(pop, config, *_args, **_kwargs) -> int:
    """Bytes of the n x 2*ell int64 sample-index array of one agent round."""
    return pop.n * 2 * config.ell * 8


def _lemma_span(lemma, *_args, **_kwargs) -> str:
    return f"harness.run_lemma.{lemma}"


TARGETS = tuple(
    (module, attr, name, (INDEX_BYTES, _index_bytes) if attr == "step_agent_level" else None)
    for module, attr, name in SPANS
) + (("harness", "run_lemma", _lemma_span, None),)


def _digest(directory: Path) -> str:
    """sha256 over the relative path and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _quiet(fn, *args):
    """Call ``fn`` with its stdout discarded, so only this script's files carry results."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def lemma_suite(work: Path, seed: int, scale: str):
    from fetsim import cli

    out = work / "reports"
    argv = ["verify", "--lemma", "all", "--out", str(out)]
    if scale == "tiny":
        config = work / "verify.cfg"
        config.write_text(TINY_VERIFY_CONFIG)
        argv += ["--config", str(config)]

    def run():
        _quiet(cli.main, argv)

    def check() -> dict:
        try:
            verdicts = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError):
            verdicts = {}
        problems = []
        for lemma in LEMMAS:
            got = verdicts.get(lemma)
            want = EXPECTED_VERDICTS[lemma] if scale == "full" else got
            files = all((out / f"{lemma}.{ext}").is_file() for ext in ("csv", "json"))
            if got not in ("PASS", "FAIL") or got != want or not files:
                problems.append(
                    f"{lemma}: verdict {got!r}, expected {want!r}, files written: {files}"
                )
        return {
            "attempted": len(LEMMAS),
            "failed": len(problems),
            "problems": problems,
            "digest": _digest(out),
        }

    return run, check


def large_n(work: Path, seed: int, scale: str):
    from fetsim import cli

    n, trials = LARGE_N_SIZE[scale]
    config = work / "simulate.cfg"
    config.write_text(f"n = {n}\nseed = {seed}\nbackend = aggregate\n")
    argvs = [
        ["simulate", "--config", str(config), "--preset", preset,
         "--trials", str(trials), "--out", str(work / preset)]
        for preset in LARGE_N_PRESETS
    ]

    def run():
        for argv in argvs:
            _quiet(cli.main, argv)

    def check() -> dict:
        problems = []
        for preset in LARGE_N_PRESETS:
            try:
                summary = json.loads((work / preset / "summary.json").read_text())
                rounds = summary["converged_round_per_trial"]
            except (OSError, ValueError, KeyError):
                rounds = []
            for t in range(trials):
                converged = t < len(rounds) and rounds[t] is not None
                if not converged or not (work / preset / f"trial_{t}.csv").is_file():
                    problems.append(f"{preset} trial {t}: did not converge or wrote no CSV")
        return {
            "attempted": trials * len(LARGE_N_PRESETS),
            "failed": len(problems),
            "problems": problems,
            "digest": _digest(work),
        }

    return run, check


def exact_chain(work: Path, seed: int, scale: str):
    import numpy as np
    from fetsim import markov

    n = CHAIN_N[scale]
    ell = math.ceil(3 * math.log(n))
    result = {}

    def run():
        result["kernel"] = kernel = markov.build_kernel(n, ell)
        result["h"] = markov.absorption_times(kernel)

    def check() -> dict:
        kernel, h = result["kernel"], np.asarray(result["h"], dtype=float)
        matrix = kernel.matrix.tocsr()
        row_error = float(np.abs(np.asarray(matrix.sum(axis=1)).ravel() - 1.0).max())
        transient = np.arange(matrix.shape[0]) != kernel.absorbing_index
        q = matrix[transient][:, transient]
        h_t = h[transient]
        ones = np.ones(h_t.shape[0])
        residual = float(np.linalg.norm(h_t - q @ h_t - ones) / np.linalg.norm(ones))
        problems = []
        if not row_error <= 1e-10:
            problems.append(f"a kernel row sums to 1 only within {row_error:.3e}")
        if not residual <= 1e-10:
            problems.append(f"solve residual {residual:.3e} exceeds 1e-10")
        if not np.isfinite(h).all():
            problems.append("absorption times are not all finite")
        return {
            "attempted": 1,
            "failed": 1 if problems else 0,
            "problems": problems,
            "digest": hashlib.sha256(h.tobytes()).hexdigest(),
            "kernel_facts": {
                "markov.kernel.nnz": int(matrix.nnz),
                "markov.kernel.pruned_mass": float(kernel.pruned_mass),
                "markov.solve.residual": residual,
            },
        }

    return run, check


WORKLOADS = {"lemma_suite": lemma_suite, "large_n": large_n, "exact_chain": exact_chain}


def _layer_metrics(tracer: Tracer, cache_info, kernel_facts: dict) -> dict:
    layers = {
        "markov.kernel.nnz": 0,
        "markov.kernel.pruned_mass": 0.0,
        "markov.solve.residual": 0.0,
        **kernel_facts,
    }
    for _module, _attr, name in SPANS:
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
        layers[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9
    for lemma in LEMMAS:
        name = f"harness.run_lemma.{lemma}"
        layers[f"{name}.s"] = tracer.total_ns.get(name, 0) / 1e9
    layers[INDEX_BYTES] = tracer.counters.get(INDEX_BYTES, 0)
    hits, misses = (cache_info.hits, cache_info.misses) if cache_info else (0, 0)
    layers["duel.exact_duel_cached.hits"] = hits
    layers["duel.exact_duel_cached.misses"] = misses
    layers["duel.exact_duel_cached.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return layers


def main(argv=None) -> int:
    start = time.perf_counter()
    cpu = pin_to_one_cpu()
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fetsim.cli  # noqa: F401  (numpy and scipy come with it)
    from fetsim import duel

    if not Path(fetsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported fetsim from {fetsim.__file__}, not from {SRC}")
    if args.warmup:
        probe.stop()
        return 0
    if args.workload is None or args.work is None or args.result is None:
        parser.error("--workload, --work and --result are required")

    args.work.mkdir(parents=True, exist_ok=True)
    run, check = WORKLOADS[args.workload](args.work, args.seed, args.scale)
    setup_end = time.perf_counter()
    setup_s = setup_end - start

    tracer = None
    missing: list[str] = []
    cached = getattr(duel, "exact_duel_cached", None)
    if args.trace:
        tracer = Tracer()
        missing = tracer.instrument("fetsim", TARGETS)

    t0 = time.perf_counter()
    run()
    t1 = time.perf_counter()
    wall_s = t1 - t0
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = check()
    kernel_facts = outcome.pop("kernel_facts", {})
    layers = {}
    if tracer is not None:
        cache_info = cached.cache_info() if hasattr(cached, "cache_info") else None
        layers = _layer_metrics(tracer, cache_info, kernel_facts)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)

    import numpy
    import scipy

    result = {
        "setup_s": probe.normalise(setup_s, start, setup_end),
        "wall_norm_s": probe.normalise(wall_s, t0, t1),
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "cpu": cpu,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(args.trace),
        **outcome,
        "layers": layers,
        "missing_targets": missing,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
