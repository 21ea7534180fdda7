#!/usr/bin/env python3
"""policylab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref_zoo --seed 0 --seconds 30 --trace 0

Runs one workload (ref_zoo, wide_entropy_reg or gradcheck_zoo, see
``perfbench/README.md``) against the checkout's own ``src/policylab``, as
a closed loop with one caller in one process, repeating rounds of the
workload until ``--seconds`` have passed. Every operation's output is
checked. Human-readable facts and metrics go to stdout, followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``, holding the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.

The untraced run measures end-to-end numbers with only the per-step hook
installed. The traced run alternates untraced and traced rounds of the
same seed, so ``trace.overhead_frac`` compares like with like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5


def cap_blas_threads() -> int:
    """Cap numpy's BLAS pools at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Put the checkout's src first on the path; refuse to run without it."""
    if not (SRC / "policylab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no policylab sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import policylab
    if Path(policylab.__file__).resolve().parent != SRC / "policylab":
        sys.exit(f"perfbench: imported policylab from {policylab.__file__}, not {SRC}")
    return policylab


def load_goldens() -> dict:
    return json.loads((HERE / "goldens.json").read_text())


def prepare(workload: str, seed: int, workdir: Path):
    """Everything before the first timed step: config build, validation, warm-up."""
    from workloads import WORKLOADS
    instance = WORKLOADS[workload](seed, workdir, load_goldens())
    instance.setup()
    return instance


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from a fresh interpreter to a prepared workload, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return times


def facts(nproc: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(1 for path in sorted((SRC / "policylab").rglob("*.py"))
                    for line in path.read_text().splitlines() if line.strip())
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_thread_cap": nproc, "git_commit": commit,
            "src_nonblank_lines": src_lines}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_rounds(workload, seconds: float, trace: bool):
    """Repeat rounds until the time is up; with trace, alternate plain/traced."""
    from tracer import StepHook, Tracer
    hook = StepHook()
    tracer = Tracer() if trace else None
    plain, traced = [], []
    hook.install()
    try:
        start = time.perf_counter()
        while True:
            plain.append(workload.run_round(hook))
            if trace:
                traced.append(workload.run_round(hook, tracer))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        hook.remove()
        if tracer is not None:
            tracer.remove()
    return plain, traced, tracer


def end_to_end(rounds, setup_times) -> tuple[dict, dict]:
    """Contract metrics, plus workload-specific figures printed for reference."""
    by_op: dict[str, list[float]] = {}
    for r in rounds:
        for key, times in r.step_times.items():
            by_op.setdefault(key, []).extend(times)
    step_times = [t for times in by_op.values() for t in times]
    # training (or gradcheck) time only: analyze ops have their own figure
    wall = sum(r.wall - r.analyze_wall for r in rounds)
    steps = sum(r.steps for r in rounds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        # configs (and gradchecks) differ up to 4x in step cost, so the median of the
        # pooled steps jumps between them; the geometric mean of their medians does not
        "step_ms_p50": 1e3 * statistics.geometric_mean(
            statistics.median(times) for times in by_op.values()),
        "step_ms_p90": 1e3 * percentile(step_times, 90),
        "steps_per_s": steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"step_samples": len(step_times),
             "step_samples_beyond_p90": sum(t > metrics["step_ms_p90"] / 1e3 for t in step_times)}
    rewards = [x for r in rounds for x in r.final_rewards]
    if rewards:
        extra["mean_reward_final"] = sum(rewards) / len(rewards)
    analyze_wall = sum(r.analyze_wall for r in rounds)
    if analyze_wall:
        extra["analyze_tokens_per_s"] = sum(r.analyze_tokens for r in rounds) / analyze_wall
    fd_evals = sum(r.fd_evals for r in rounds)
    if fd_evals:
        extra["fd_evals_per_s"] = fd_evals / wall
    return metrics, extra


def per_layer(plain, traced, tracer, hook_overhead_s: float) -> dict:
    """Per-step (per-check for gradcheck) layer figures from the traced rounds."""
    steps = sum(r.steps for r in traced)
    summary = tracer.summary()
    metrics = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = row["calls"] / steps
        metrics[f"{name}.self_ms"] = 1e3 * row["self_s"] / steps
        metrics[f"{name}.total_ms"] = 1e3 * row["total_s"] / steps
    counters = tracer.counters
    metrics["env.tokens_sampled"] = counters["tokens_sampled"] / steps
    metrics["advantage.dynamic_sampling_filter.kept_ratio"] = (
        counters["groups_kept"] / counters["groups_sampled"] if counters["groups_sampled"] else 0.0)
    metrics["trainer.useful_token_ratio"] = (
        counters["tokens_batched"] / counters["tokens_sampled"] if counters["tokens_sampled"] else 0.0)
    plain_wall = sum(r.wall for r in plain)
    metrics["trace.overhead_frac"] = sum(r.wall for r in traced) / plain_wall - 1.0
    plain_steps = sum(r.steps for r in plain)
    metrics["hook.overhead_frac"] = hook_overhead_s * plain_steps / plain_wall
    return metrics


def declared_metrics(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="policylab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("ref_zoo", "wide_entropy_reg", "gradcheck_zoo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = cap_blas_threads()
    import_package()
    workdir = WORK / f"run-{os.getpid()}"
    if args.setup_probe:
        prepare(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts(nproc), "info": {}}
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    try:
        workload = prepare(args.workload, args.seed, workdir)
        record["facts"]["golden_source"] = workload.golden_source
        plain, traced, tracer = run_rounds(workload, args.seconds, bool(args.trace))
        if args.trace:
            from tracer import measure_hook_overhead
            tracer.write(WORK / f"spans-{args.workload}.npz")
            computed = per_layer(plain, traced, tracer, measure_hook_overhead())
        else:
            computed, record["info"] = end_to_end(plain, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in plain + traced for op in r.ops]
    failed = [op for op in ops if not op[1]]
    record["info"].update(rounds=len(plain) + len(traced), ops_attempted=len(ops),
                          ops_failed=len(failed), failed_ops_frac=len(failed) / len(ops))
    record["failed_ops"] = [f"{label}: {problem}" for label, _, problem in failed]
    record["metrics"] = {spec["name"]: {"value": computed[spec["name"]], "unit": spec["unit"]}
                         for spec in declared}
    for key, value in record["facts"].items():
        print(f"fact {key} = {value}")
    for key, value in record["info"].items():
        print(f"info {key} = {value:.6g}")
    for line in record["failed_ops"]:
        print(f"FAILED {line}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
