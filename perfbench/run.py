"""fetsim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lemma_suite --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports fetsim from ``src``.
Each repetition of the workload is a fresh process (``rep.py``); they
run one after another while one more, as long as the longest so far,
would still end within ``--seconds``.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give every metric with its unit, median
and range over the repetitions, and the machine.

``--seed`` keys the random streams of ``large_n``.  ``lemma_suite`` runs
``verify`` at its documented defaults, which fix its own seed, and
``exact_chain`` has no random input, so for those two every seed gives
the same inputs.

Times are reported rescaled to a reference host speed: ``wall_norm_s``
and ``setup_s`` are the raw wall and set-up times of a repetition times
the probe's reference loop time over its mean loop time in the same
window (``probe.py``).  The raw times drift with the speed of the shared
host and are printed, and kept in the results file, beside them.  Each
repetition is pinned to one CPU, so BLAS and OpenMP are capped at one
thread.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced wall time).
Spans of each traced repetition are written to ``.perfbench_out/spans``
and the full result to ``.perfbench_out/results``.

A repetition counts as correct when its outputs pass the workload's
checks (see ``rep.py``), and a run when every repetition does and every
repetition produced byte-identical outputs, traced or not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "lemma_suite": "the `verify --lemma all` report at its documented defaults, the only "
    "workload where harness, domains and the cached duel do real work",
    "large_n": "a handful of 2^20-agent trials from two presets, where the O(n*ell) "
    "agent-level first round sets both wall time and peak memory",
    "exact_chain": "the exact pair-state kernel at n = 96 and its absorption-time solve, "
    "which exercises markov and an uncached duel and bypasses protocol",
}
# Operations per repetition, counted as failed when a repetition crashes.
OPERATIONS = {"lemma_suite": 6, "large_n": 4, "exact_chain": 1}

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
RAW_TIMES = ("wall_raw_s", "setup_raw_s")
_SPAN_NAMES = (
    "protocol.step_agent_level",
    "protocol.step_aggregate",
    "protocol.run_trial",
    "protocol.init_adversarial",
    "duel.exact_duel_cached",
    "duel.binomial_pmf_vector",
    "dynamics.flip_probs",
    "dynamics.expected_next_fraction",
    "domains.classify",
    "domains.classify_yellow",
    "markov.build_kernel",
    "markov.absorption_times",
    "cli.main",
)
PER_LAYER = {
    **{
        f"{name}.{kind}": unit
        for name in _SPAN_NAMES
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "protocol.step_agent_level.index_bytes": "B",
    "duel.exact_duel_cached.hits": "count",
    "duel.exact_duel_cached.misses": "count",
    "duel.exact_duel_cached.hit_ratio": "ratio",
    "markov.kernel.nnz": "count",
    "markov.kernel.pruned_mass": "prob",
    "markov.solve.residual": "ratio",
    **{
        f"harness.run_lemma.{lemma}.s": "s"
        for lemma in ("green", "purple", "red", "cyan", "yellow", "convergence")
    },
    "trace.overhead_s": "s",
}
# Per-layer values that must repeat exactly in every traced repetition.
EXACT = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "B")
) + ("markov.kernel.pruned_mass",)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A run must end within 180 s; stop starting repetitions well before.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0


def machine_facts(thread_caps: dict) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "thread_caps": thread_caps,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def run_rep(args, index: int, traced: bool, env: dict, timeout: float) -> dict:
    """Run one repetition in a fresh process and return its result."""
    tag = f"{args.workload}-seed{args.seed}-rep{index}{'-traced' if traced else ''}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    result_file = work.with_name(work.name + ".json")
    shutil.rmtree(work, ignore_errors=True)
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--scale", args.scale,
        "--work", str(work), "--result", str(result_file),
    ]
    if traced:
        command += ["--spans", str(OUT / "spans" / f"{tag}.npz")]
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
        error = proc.stderr[-2000:] if proc.returncode != 0 else None
    except subprocess.TimeoutExpired:
        error = f"repetition timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - started
    try:
        result = json.loads(result_file.read_text()) if error is None else None
    except (OSError, ValueError) as exc:
        error = f"no result from repetition: {exc}"
        result = None
    shutil.rmtree(work, ignore_errors=True)
    result_file.unlink(missing_ok=True)
    if result is None:
        n_ops = OPERATIONS[args.workload]
        result = {"attempted": n_ops, "failed": n_ops, "problems": [error], "crashed": True}
    result.update(traced=traced, elapsed_s=elapsed)
    return result


def summarize(values: list[float]) -> str:
    return f"median of {len(values)}, range {min(values):.6g} .. {max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every workload for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "fetsim" / "__init__.py").is_file():
        print(f"perfbench: no fetsim sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    thread_caps = dict.fromkeys(THREAD_VARS, "1")
    env = {**os.environ, **thread_caps}
    warmup = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--warmup"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if warmup.returncode != 0:
        print(f"perfbench: cannot import fetsim:\n{warmup.stderr[-2000:]}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        reps.append(run_rep(args, len(reps), traced, env, CHILD_TIMEOUT_S - elapsed))
        elapsed = time.perf_counter() - start
        longest = max(r["elapsed_s"] for r in reps)
        have_traced = not args.trace or any(r["traced"] for r in reps)
        if reps[-1].get("crashed") or elapsed + longest > RUN_LIMIT_S:
            break
        # Stop when one more repetition as long as the longest so far
        # would end past --seconds.
        if have_traced and elapsed + longest > args.seconds:
            break

    good = [r for r in reps if not r.get("crashed")]
    untraced = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    problems = [p for r in reps for p in r["problems"]]
    digests = {r["digest"] for r in good}
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions: {len(digests)} distinct digests")
    if not untraced or (args.trace and not traced_reps):
        problems.append("no repetition of the needed kind completed")
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1

    samples: dict[str, list[float]] = {}
    if args.trace:
        emitted = {name for r in traced_reps for name in r["layers"]} | {"trace.overhead_s"}
        if emitted != set(PER_LAYER):
            differing = sorted(emitted ^ set(PER_LAYER))
            problems.append(f"layer metrics differ from the list: {differing}")
        for name in PER_LAYER:
            samples[name] = [r["layers"].get(name, 0) for r in traced_reps]
        wall = statistics.median(r["wall_norm_s"] for r in untraced)
        samples["trace.overhead_s"] = [r["wall_norm_s"] - wall for r in traced_reps]
        for name in EXACT:
            if len(set(samples[name])) > 1:
                problems.append(f"{name} differs between traced repetitions: {samples[name]}")
        units = PER_LAYER
    else:
        for name in END_TO_END:
            samples[name] = [r[name] for r in untraced]
        units = END_TO_END
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
    }

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not problems and failed == 0
    facts = machine_facts(thread_caps)
    facts.update({k: v for k, v in good[0]["versions"].items() if k != "python"})
    missing = sorted({t for r in good for t in r.get("missing_targets", [])})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
          f"{len(untraced)} untraced + {len(traced_reps)} traced repetitions, "
          f"{time.perf_counter() - start:.1f} s")
    print(f"why: {WORKLOADS[args.workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items() if k != "thread_caps")
          + f", each repetition pinned to CPU {good[0]['cpu']} with threads capped at 1")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} ({summarize(samples[name])})")
    for name in RAW_TIMES:
        raw = [r[name] for r in untraced]
        print(f"  {name} = {statistics.median(raw):.6g} s (untraced, not rescaled; {summarize(raw)})")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"output digests: {len(digests)} distinct over {len(good)} repetitions "
          f"({', '.join(sorted(d[:12] for d in digests))})")
    if missing:
        print(f"traced functions not found (reported as 0): {', '.join(missing)}")
    for p in problems:
        print(f"problem: {p}")

    payload = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**payload, "machine": facts, "why": WORKLOADS[args.workload],
                    "samples": samples, "problems": problems, "repetitions": reps}, indent=1)
    )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
