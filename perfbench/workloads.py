"""The benchmark's workloads and the correctness check of every operation.

An operation ("op") is one training run, one ``policylab analyze`` or one
gradcheck (batch build + check). A round runs every op of a workload
once; the benchmark repeats rounds with the same seed until its time is
up, so every round must reproduce the same outputs.

Training ops pass when the sha256 of their final logits equals the golden
value for (workload, seed, config), when ``metrics.csv`` has the canonical
14 columns, one row per step and only finite values, when the step hook
fired once per step, and when every logged reward recomputes with
``env.verify_reward``. The golden is a logits hash and not a ``metrics.csv``
hash on purpose: a reporting fix may change CSV columns without changing
any update. For a seed with no stored golden the first round's hash is
the reference, so later rounds still check determinism.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# entry points are called through their modules so that a tracer installed
# on the package sees them
from policylab import cli, gradcheck, trainer
from policylab.env import ModSumTask, Trajectory, verify_reward
from policylab.objectives import ALGORITHMS, ObjectiveSpec
from policylab.policy import TabularPolicy
from policylab.trainer import CSV_COLUMNS, suite_configs

REF_STEPS = 30
WIDE_STEPS = 10
WIDE_DIMS = {"vocab_size": 32, "seq_len": 12, "modulus": 16}
GRADCHECK_SEEDS_PER_ROUND = 2
GRADCHECK_SETTINGS = {"n_trajectories": 64, "min_branch_count": 16, "h": 1e-5}


@dataclass
class RoundResult:
    """What one round did: timed work, per-step latencies and op verdicts."""

    wall: float = 0.0            # seconds inside timed op calls, analyze included
    steps: int = 0               # training steps, or gradchecks
    step_times: dict[str, list[float]] = field(default_factory=dict)  # by config, or by check
    ops: list[tuple[str, bool, str]] = field(default_factory=list)  # (label, ok, problem)
    final_rewards: list[float] = field(default_factory=list)
    analyze_tokens: int = 0
    analyze_wall: float = 0.0
    fd_evals: int = 0

    def op(self, label: str, problems: list[str]) -> None:
        self.ops.append((label, not problems, "; ".join(problems)))


def timed_call(tracer, call):
    """Run call(), traced when a tracer is given; the wall time excludes installing it.

    ``call`` must look its entry point up through the module when it runs,
    so that it reaches the tracer's wrapper.
    """
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        value = call()
        return value, time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()


def logits_digest(policy: TabularPolicy) -> str:
    return hashlib.sha256(policy.logits.tobytes()).hexdigest()


def check_training_run(run_dir: Path, steps: int, hook_marks: int,
                       expected_digest: str | None) -> tuple[str, list[str], float, int]:
    """Check one training run's outputs.

    Returns (logits digest, problems, mean reward over the last tenth of
    steps, logged token count).
    """
    problems = []
    if hook_marks != steps:
        problems.append(f"step hook fired {hook_marks} times for {steps} steps")
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    if manifest["status"] != "completed" or manifest["steps_completed"] != steps:
        problems.append(f"manifest status {manifest['status']} after "
                        f"{manifest['steps_completed']} of {steps} steps")
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        problems.append(f"metrics.csv header {rows[0] if rows else None}")
        rows = [list(CSV_COLUMNS)]
    body = rows[1:]
    if len(body) != steps:
        problems.append(f"metrics.csv has {len(body)} rows for {steps} steps")
    values = [[float(cell) for cell in row] for row in body if len(row) == len(CSV_COLUMNS)]
    if len(values) != len(body) or not all(math.isfinite(v) for row in values for v in row):
        problems.append("metrics.csv has a short row or a non-finite value")
    if [int(row[0]) for row in values] != list(range(len(values))):
        problems.append("metrics.csv step column is not 0..steps-1")
    tail = values[-max(1, len(values) // 10):] if values else []
    reward_col = CSV_COLUMNS.index("mean_reward")
    final_reward = sum(row[reward_col] for row in tail) / len(tail) if tail else math.nan

    policy, _ = TabularPolicy.load(run_dir / "policy.json")
    digest = logits_digest(policy)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"final logits sha256 {digest[:12]} != golden {expected_digest[:12]}")

    log_tokens = 0
    log = run_dir / "rollouts.jsonl"
    if log.exists():
        bad = 0
        with open(log) as fh:
            for line in fh:
                doc = json.loads(line)
                task = ModSumTask(doc["vocab_size"], doc["seq_len"], doc["modulus"],
                                  doc["target"])
                n = len(doc["actions"])
                traj = Trajectory(task, doc["actions"], doc["old_logprobs"], [0] * n,
                                  doc["reward"])
                bad += verify_reward(traj) != doc["reward"]
                log_tokens += n
        if bad:
            problems.append(f"{bad} logged rewards disagree with verify_reward")
    return digest, problems, final_reward, log_tokens


class _TrainingWorkload:
    """Shared round logic of the two training workloads."""

    name = ""
    steps = 0

    def __init__(self, seed: int, workdir: Path, goldens: dict):
        self.seed = seed
        self.workdir = workdir
        self.configs = self.build_configs(seed)
        stored = goldens.get(self.name, {}).get(str(seed))
        self.golden_source = "stored" if stored else "first round"
        self.expected: dict[str, str] = dict(stored or {})
        self.rounds = 0

    def build_configs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Warm-up: two untimed steps of the first config, no outputs."""
        first = next(iter(self.configs.values()))
        trainer.train(dataclasses.replace(first, total_steps=2, log_rollouts=False))

    def _check(self, result: RoundResult, name: str, run_dir: Path,
               marks: list[tuple[int, float]], hook) -> int:
        try:
            digest, problems, final_reward, log_tokens = check_training_run(
                run_dir, self.steps, len(marks), self.expected.get(name))
        except (OSError, ValueError, KeyError) as exc:
            result.op(f"train {name}", [f"outputs unreadable: {exc!r}"])
            return 0
        self.expected.setdefault(name, digest)
        result.op(f"train {name}", problems)
        result.final_rewards.append(final_reward)
        result.step_times.setdefault(name, []).extend(hook.step_latencies(marks))
        result.steps += len(marks)
        return log_tokens

    def round_dir(self) -> Path:
        self.rounds += 1
        out = self.workdir / f"{self.name}-round{self.rounds}"
        shutil.rmtree(out, ignore_errors=True)
        return out


class RefZoo(_TrainingWorkload):
    name = "ref_zoo"
    steps = REF_STEPS

    def build_configs(self, seed: int) -> dict:
        return suite_configs("baseline_zoo", seed=seed, total_steps=self.steps)

    def run_round(self, hook, tracer=None) -> RoundResult:
        result = RoundResult()
        out = self.round_dir()
        try:
            _, wall = timed_call(tracer, lambda: trainer.run_experiment_suite(
                "baseline_zoo", out_dir=out, seed=self.seed, total_steps=self.steps))
        except Exception as exc:  # an op failure is reported, never fatal
            hook.take_runs()
            for name in self.configs:
                result.op(f"train {name}", [f"suite raised {exc!r}"])
            return result
        result.wall += wall
        runs = hook.take_runs()
        if len(runs) != len(self.configs):
            for name in self.configs:
                result.op(f"train {name}", [f"step hook saw {len(runs)} runs"])
            return result
        for name, marks in zip(self.configs, runs):
            self._check(result, name, out / name, marks, hook)
        shutil.rmtree(out, ignore_errors=True)
        return result


class WideEntropyReg(_TrainingWorkload):
    name = "wide_entropy_reg"
    steps = WIDE_STEPS

    def build_configs(self, seed: int) -> dict:
        return {name: dataclasses.replace(cfg, log_rollouts=True, **WIDE_DIMS)
                for name, cfg in suite_configs("entropy_reg", seed=seed,
                                               total_steps=self.steps).items()}

    def run_round(self, hook, tracer=None) -> RoundResult:
        result = RoundResult()
        out = self.round_dir()
        for name, cfg in self.configs.items():
            run_dir = out / name
            try:
                _, wall = timed_call(tracer, lambda: trainer.train(cfg, out_dir=run_dir))
            except Exception as exc:
                hook.take_runs()
                result.op(f"train {name}", [f"train raised {exc!r}"])
                continue
            result.wall += wall
            runs = hook.take_runs()
            log_tokens = self._check(result, name, run_dir, runs[0] if runs else [], hook)
            self._analyze(result, name, run_dir, log_tokens, tracer)
        shutil.rmtree(out, ignore_errors=True)
        return result

    @staticmethod
    def _analyze(result: RoundResult, name: str, run_dir: Path, log_tokens: int,
                 tracer) -> None:
        argv = ["analyze", "--log", str(run_dir / "rollouts.jsonl"),
                "--checkpoint", str(run_dir / "policy.json")]
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code, wall = timed_call(tracer, lambda: cli.main(argv))
        except Exception as exc:
            result.op(f"analyze {name}", [f"analyze raised {exc!r}"])
            return
        result.wall += wall
        result.analyze_wall += wall
        problems = []
        if code != 0:
            problems.append(f"analyze exited {code}")
        else:
            try:
                n_tokens = json.loads(captured.getvalue())["n_tokens"]
            except (ValueError, KeyError, TypeError) as exc:
                result.op(f"analyze {name}", [f"analyze output unreadable: {exc!r}"])
                return
            if n_tokens != log_tokens:
                problems.append(f"analyze n_tokens {n_tokens} != logged {log_tokens}")
            result.analyze_tokens += n_tokens
        result.op(f"analyze {name}", problems)


class GradcheckZoo:
    """Finite-difference gradchecks of every algorithm at the acceptance settings."""

    name = "gradcheck_zoo"

    def __init__(self, seed: int, workdir: Path, goldens: dict):
        self.check_seeds = [seed * GRADCHECK_SEEDS_PER_ROUND + i
                            for i in range(GRADCHECK_SEEDS_PER_ROUND)]
        self.specs = [ObjectiveSpec.for_algorithm(alg) for alg in ALGORITHMS]
        self.golden_source = "not used (checks compare against finite differences)"

    def setup(self) -> None:
        """Warm-up: one batch build, untimed."""
        gradcheck.build_gradcheck_batch(self.specs[0], seed=self.check_seeds[0],
                                        **GRADCHECK_SETTINGS)

    @staticmethod
    def _check_one(spec: ObjectiveSpec, seed: int):
        batch, policy = gradcheck.build_gradcheck_batch(spec, seed=seed, **GRADCHECK_SETTINGS)
        report = gradcheck.check_objective_gradient(
            spec, batch, policy, h=GRADCHECK_SETTINGS["h"],
            min_branch_count=GRADCHECK_SETTINGS["min_branch_count"])
        return policy, report

    def run_round(self, hook, tracer=None) -> RoundResult:
        result = RoundResult()
        for seed in self.check_seeds:
            for spec in self.specs:
                label = f"gradcheck {spec.algorithm} seed {seed}"
                try:
                    (policy, report), wall = timed_call(
                        tracer, lambda: self._check_one(spec, seed))
                except Exception as exc:
                    result.op(label, [f"raised {exc!r}"])
                    continue
                result.wall += wall
                result.steps += 1
                result.step_times.setdefault(label, []).append(wall)
                result.fd_evals += 2 * policy.logits.size
                problems = []
                if report.rejected or not report.passed:
                    problems.append(f"passed={report.passed} rejected={report.rejected} "
                                    f"max_rel_error={report.max_rel_error:.3g}")
                result.op(label, problems)
        return result


WORKLOADS = {cls.name: cls for cls in (RefZoo, WideEntropyReg, GradcheckZoo)}
