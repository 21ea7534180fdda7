"""The full RL loop: rollouts, advantages, mini-epoch updates, metrics.

One step is _step: it rolls out groups from the policy as it stands at
the start of the step (the snapshot), and then runs several minibatched
gradient passes in which importance ratios are recomputed against the
live policy, so clipping genuinely activates from the second pass on.
Only the logits cross a step boundary, so a step is _step(config, policy,
step): RunConfig.env, train_tasks and eval_tasks (env.task of each
target) are built once per config, and each group's task is one of
train_tasks. train is its checks, the initial policy (a checkpoint, or
TabularPolicy.random, whose scale 0 is the uniform table), a loop over
_step and the writes. Logits are read-only and an update rebinds them,
so the snapshot needs no copy: the rollouts, the snapshot's probability
rows and the last good logits are taken before the first update and no
update can reach them.

Every random draw comes from a stream named by (seed, purpose, step,
...); identical configs produce byte-identical metrics CSVs. Each policy
version's softmax is computed once: rollouts and evaluation sample whole
groups in lockstep from it, and ratios, entropies and KLs are gathered
from it as arrays. A rollout group is a set of (G, T) arrays, and the
step's reward, sampled entropy and visited states are reduced from those
blocks.

A step gathers its training data once and then only slices it. The
token batch is concatenated straight from the retained groups' arrays
(no per-episode objects), and TokenBatch.from_groups takes their
advantages from one row-wise standardization of the (n_groups, G)
rewards (a group the dynamic-sampling filter keeps has mixed 0/1
rewards, so it is never degenerate). Its flat (state, action) cell index
is checked once, against the live table. Each mini-epoch gathers the
batch once in its permuted order, and its minibatches are contiguous row
slices (views) of that gather.

Metric conventions (each a deliberate choice, fixed here):
  - entropy_exact / entropy_sampled describe the snapshot policy at
    rollout time, so the exact value and the sampled estimator measure
    the same distribution. entropy_exact averages over the states visited
    by the step's rollouts, weighted by visit count.
  - kl is KL(snapshot || updated policy) after the step's passes,
    averaged over the same visited states with the same weights.
  - grad_norm is the mean Frobenius norm of the applied updates.
  - mean_reward covers all sampled trajectories, before any filtering.
  - quadrant fractions are the step batch's own, counted once per step,
    with token probabilities taken at rollout time and the high/low
    threshold at the uniform level 1/V. Each mini-epoch passes over every
    batch token once, so its passes would give the same fractions.
  - clip_left / clip_right add up each pass's branch-code counts: the
    shares of the step's token evaluations on the objective's own
    clipped branches (objectives.clip_terms), so gspo counts whole
    clipped sequences and cispo clips on either sign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .advantage import dynamic_sampling_filter
from .entropy_dynamics import quadrant_taxonomy
from .env import (
    EnvConfig,
    ModSumTask,
    RolloutGroup,
    _is_int,
    _is_number,
    residue_set,
    rollout_group,
    sample_episodes,
    sample_task,
    write_rollout_log,
)
from .objectives import (
    BRANCHES,
    CODE_INTERIOR,
    CODE_LEFT,
    CODE_RIGHT,
    ObjectiveSpec,
    TokenBatch,
    analytic_objective_gradient,
    batch_token_terms,
)
from .policy import TabularPolicy, entropy_rows, kl_rows, state_visits, visit_weighted_mean
from .seeding import named_stream

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


@contextmanager
def config_errors(context: str = ""):
    """The one input-error rule: an OSError, TypeError, ValueError or RecursionError (JSON
    nested past the recursion limit) raised inside is a ConfigError, prefixed by context."""
    try:
        yield
    except (OSError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{context}{exc}") from exc


# a field's annotation -> (the test its value must pass, what the message asks for)
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a path string or null"),
}


# the lower bound of each integer field; EnvConfig bounds vocab_size, seq_len and modulus
_MINIMUMS = {"seed": 0, "mini_epochs": 1, "total_steps": 1, "group_size": 2,
             "prompts_per_batch": 1, "eval_samples": 1, "max_filter_retries": 1}


class StabilityAlarm(RuntimeError):
    """Non-finite value detected; run halted at the last good state (exit 3)."""

    status = "stability_alarm"  # the manifest status of a run it ends


class EmptyBatchError(RuntimeError):
    """Dynamic sampling drained every group despite resampling (exit 4)."""

    status = "empty_batch_abort"


def objective_from_dict(doc: dict) -> ObjectiveSpec:
    """The objective a JSON config names: ObjectiveSpec.for_algorithm's
    defaults for its algorithm (ce_gppo when it names none), overridden by
    the keys it gives."""
    if not isinstance(doc, dict):
        raise ConfigError("objective must be an object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(ObjectiveSpec)}
    if unknown:
        raise ConfigError(f"unknown objective keys: {sorted(unknown)}")
    with config_errors("invalid objective: "):
        return ObjectiveSpec.for_algorithm(**{"algorithm": "ce_gppo", **doc})


@dataclass(frozen=True)
class RunConfig:
    """Everything that identifies a training run; where its outputs go is
    train's out_dir, not part of it.

    train_targets and eval_targets are resolved by train_tasks and
    eval_tasks. eval_targets defaults to the residues not trained on; when
    every residue trains, evaluation reuses them (with fresh sampling
    streams) and the manifest says so.
    """

    seed: int = 0
    vocab_size: int = 8
    seq_len: int = 6
    modulus: int = 5
    train_targets: tuple[int, ...] | str | None = None
    eval_targets: tuple[int, ...] | None = None
    group_size: int = 8
    prompts_per_batch: int = 8
    mini_epochs: int = 4
    minibatch_fraction: float = 0.25
    # plain ascent on tabular logits needs a far larger step than LLM-scale
    # optimizers; 4.0 is calibrated so clipping activates and entropy
    # phenomena play out within a few hundred steps
    learning_rate: float = 4.0
    total_steps: int = 500
    objective: ObjectiveSpec = field(default_factory=lambda: ObjectiveSpec.for_algorithm("ce_gppo"))
    dynamic_sampling: bool = False
    beta_schedule: tuple[tuple[int, float, float], ...] = ()
    eval_samples: int = 32
    max_filter_retries: int = 5
    init_logit_scale: float = 0.0
    init_checkpoint: str | None = None
    log_rollouts: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _KINDS and not _KINDS[f.type][0](value):
                raise ConfigError(f"{f.name} must be {_KINDS[f.type][1]}, got {value!r}")
        for name, minimum in _MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.minibatch_fraction <= 1.0:
            raise ConfigError(
                f"minibatch_fraction must be in (0, 1], got {self.minibatch_fraction}")
        if self.max_filter_retries != RunConfig.max_filter_retries and not self.dynamic_sampling:
            # off its default: without the filter the first attempt keeps its batch
            raise ConfigError("max_filter_retries acts only with dynamic_sampling")
        if self.init_logit_scale < 0.0 or not np.isfinite(self.init_logit_scale):
            raise ConfigError(f"init_logit_scale must be finite and >= 0, "
                              f"got {self.init_logit_scale}")
        if self.init_checkpoint == "":  # a second spelling of null would change config_hash
            raise ConfigError("init_checkpoint must not be empty: null means no checkpoint")
        if self.init_logit_scale > 0.0 and self.init_checkpoint:
            raise ConfigError("init_logit_scale does not act when init_checkpoint is set")
        if self.beta_schedule and self.objective.algorithm != "ce_gppo":
            raise ConfigError(
                f"beta_schedule acts only on ce_gppo, not on {self.objective.algorithm}")
        schedule = []
        with config_errors("beta_schedule entries must be [step, beta1, beta2]: "):
            for s, b1, b2 in self.beta_schedule:
                self.objective.with_betas(b1, b2)  # a switch's betas obey the objective's own rule
                if not (_is_int(s) and s >= 0):
                    raise ValueError(f"need an integer step >= 0, got {[s, b1, b2]}")
                schedule.append((int(s), float(b1), float(b2)))
        steps = [s for s, _, _ in schedule]
        if steps != sorted(set(steps)):
            raise ConfigError(f"beta_schedule steps must be strictly increasing, got {steps}")
        object.__setattr__(self, "beta_schedule", tuple(schedule))
        if isinstance(self.train_targets, str) and self.train_targets != "all":
            raise ConfigError(f"train_targets must be a list, \"all\" or null, "
                              f"got {self.train_targets!r}")
        with config_errors():  # the first read of self.env builds and checks the environment
            self.env.check_samples(self.prompts_per_batch * self.group_size,
                                   "prompts_per_batch, group_size and seq_len")
            self.env.check_samples(self.eval_samples, "eval_samples and seq_len")
            if self.eval_targets is not None:
                object.__setattr__(self, "eval_targets",
                                   residue_set("eval_targets", self.eval_targets, self.modulus))
            if self.train_targets is not None and not isinstance(self.train_targets, str):
                object.__setattr__(self, "train_targets",
                                   residue_set("train_targets", self.train_targets, self.modulus))

    @cached_property
    def env(self) -> EnvConfig:
        return EnvConfig(self.vocab_size, self.seq_len, self.modulus)

    @cached_property
    def train_tasks(self) -> tuple[ModSumTask, ...]:
        """The one target rule: null holds out the top residue when M > 2, "all"
        and a null with M = 2 train on every residue, and a list trains on its own."""
        targets = self.train_targets
        if targets is None and self.modulus > 2:
            targets = range(self.modulus - 1)
        elif targets is None or targets == "all":
            targets = range(self.modulus)
        return tuple(map(self.env.task, targets))

    @cached_property
    def eval_tasks(self) -> tuple[ModSumTask, ...]:
        trained = {task.target for task in self.train_tasks}
        held_out = [t for t in range(self.modulus) if t not in trained]
        return tuple(map(self.env.task, self.eval_targets or held_out or range(self.modulus)))

    def objective_at(self, step: int) -> ObjectiveSpec:
        spec = self.objective
        for switch_step, b1, b2 in self.beta_schedule:
            if step >= switch_step:
                spec = self.objective.with_betas(b1, b2)
        return spec

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "schema_version": CONFIG_SCHEMA_VERSION}

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        doc = dict(doc)
        version = doc.pop("schema_version", None)
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"config schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "objective" in doc:
            doc["objective"] = objective_from_dict(doc["objective"])
        with config_errors():
            return cls(**doc)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with config_errors(f"cannot read config {path}: "):
            doc = json.loads(Path(path).read_text())
        return cls.from_dict(doc)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


@dataclass
class StepMetrics:
    """Per-update record. The first 14 fields are the canonical CSV columns;
    the trailing fields are auxiliary diagnostics (NaN when undefined) and
    exempt from the stability check."""

    step: int
    entropy_exact: float
    entropy_sampled: float
    kl: float
    grad_norm: float
    mean_reward: float
    accuracy: float
    clip_left: float
    clip_right: float
    frac_pahp: float
    frac_nalp: float
    frac_palp: float
    frac_nahp: float
    filtered_groups: int
    prob_clipped_mean: float = float("nan")
    prob_unclipped_mean: float = float("nan")
    offpolicy_fraction: float = 0.0

    def csv_row(self) -> str:
        values = (getattr(self, col) for col in CSV_COLUMNS)
        return ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values)

    def finite(self) -> bool:
        return all(np.isfinite(getattr(self, col)) for col in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(StepMetrics))[:14]


def write_metrics_csv(path: str | Path, metrics: list[StepMetrics]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(m.csv_row() for m in metrics)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class RunResult:
    metrics: list[StepMetrics]
    policy: TabularPolicy
    manifest: dict


def evaluate(policy: TabularPolicy, tasks: Sequence[ModSumTask], samples_per_prompt: int,
             rng: np.random.Generator) -> float:
    """Mean success rate over tasks x samples (the avg@k estimator)."""
    if not tasks:
        raise ValueError("empty evaluation task set")
    total = 0
    for task in tasks:
        rewards = sample_episodes(policy, task, samples_per_prompt, rng)[3]
        total += int(np.count_nonzero(rewards))
    return total / (len(tasks) * samples_per_prompt)


def _step(config: RunConfig, policy: TabularPolicy,
          step: int) -> tuple[StepMetrics, list[RolloutGroup]]:
    """One training step from the policy as it stands; updates policy in place.

    Returns the step's record and every group it sampled, the ones dynamic
    sampling filtered out included. Raises EmptyBatchError when every
    resampling attempt is drained and StabilityAlarm on a non-finite value,
    with policy possibly part-updated: the caller keeps the last good logits.
    """
    spec = config.objective_at(step)

    # rollout, with bounded resampling when dynamic sampling drains the batch
    all_groups: list[RolloutGroup] = []
    for attempt in range(config.max_filter_retries):
        task_rng = named_stream(config.seed, "tasks", step, attempt)
        groups = [rollout_group(policy, sample_task(config.train_tasks, task_rng),
                                config.group_size,
                                named_stream(config.seed, "rollout", step, attempt, g))
                  for g in range(config.prompts_per_batch)]
        all_groups.extend(groups)
        retained = dynamic_sampling_filter(groups) if config.dynamic_sampling else groups
        if retained:
            break
    else:
        raise EmptyBatchError(f"all rollout groups shared identical correctness for "
                              f"{config.max_filter_retries} resampling attempts at step {step}")

    mean_reward = float(np.concatenate([g.rewards for g in all_groups]).mean())
    old_logprobs = np.concatenate([g.old_logprobs for g in all_groups])
    entropy_sampled = float(np.mean(-old_logprobs.mean(axis=1)))
    visited, visit_counts = state_visits(policy, np.concatenate([g.states for g in all_groups]))
    snapshot_rows = policy.probability_matrix()[visited]
    entropy_exact = visit_weighted_mean(entropy_rows(snapshot_rows), visit_counts)

    batch = TokenBatch.from_groups(retained)
    update_rng = named_stream(config.seed, "update", step)
    n_traj = batch.n_trajectories
    chunk = max(1, round(config.minibatch_fraction * n_traj))
    # per-pass sums: branch-code counts and rollout-time probabilities per code,
    # update norms, and off-policy tokens of the passes from the second mini-epoch on
    counts, prob_sums = np.zeros(len(BRANCHES), dtype=np.int64), np.zeros(len(BRANCHES))
    grad_norms, offpolicy_tokens, late_pass_tokens = [], 0, 0
    try:
        batch.cell_index(policy)  # checked once; gathers and slices inherit it
        for epoch in range(config.mini_epochs):
            shuffled = batch.subset(update_rng.permutation(n_traj))
            for start in range(0, n_traj, chunk):
                sub = shuffled.rows(start, start + chunk)
                terms = batch_token_terms(spec, sub, policy)
                _, grad = analytic_objective_gradient(spec, sub, policy, terms)
                counts += np.bincount(terms.branch_codes, minlength=len(BRANCHES))
                prob_sums += np.bincount(terms.branch_codes, weights=np.exp(sub.old_logprobs),
                                         minlength=len(BRANCHES))
                grad_norms.append(float(np.linalg.norm(grad)))
                if epoch >= 1:
                    offpolicy_tokens += int((terms.deltas != 1.0).sum())
                    late_pass_tokens += len(terms.deltas)
                policy.apply_gradient(grad, config.learning_rate)
        kl = visit_weighted_mean(
            kl_rows(snapshot_rows, policy.probability_matrix()[visited]), visit_counts)
    except ValueError as exc:
        raise StabilityAlarm(f"stability alarm at step {step}: {exc}") from exc

    accuracy = evaluate(policy, config.eval_tasks, config.eval_samples,
                        named_stream(config.seed, "eval", step))
    fractions = quadrant_taxonomy(batch.advantages, np.exp(batch.old_logprobs),
                                  1.0 / config.vocab_size)[1]
    n_clipped = counts[CODE_LEFT] + counts[CODE_RIGHT]
    record = StepMetrics(
        step=step, entropy_exact=entropy_exact, entropy_sampled=entropy_sampled, kl=kl,
        grad_norm=float(np.mean(grad_norms)), mean_reward=mean_reward, accuracy=accuracy,
        clip_left=float(counts[CODE_LEFT] / counts.sum()),
        clip_right=float(counts[CODE_RIGHT] / counts.sum()),
        frac_pahp=fractions["pa_hp"], frac_nalp=fractions["na_lp"],
        frac_palp=fractions["pa_lp"], frac_nahp=fractions["na_hp"],
        filtered_groups=len(all_groups) - len(retained),  # earlier attempts kept none
        prob_clipped_mean=(float((prob_sums[CODE_LEFT] + prob_sums[CODE_RIGHT]) / n_clipped)
                           if n_clipped else float("nan")),
        prob_unclipped_mean=(float(prob_sums[CODE_INTERIOR] / counts[CODE_INTERIOR])
                             if counts[CODE_INTERIOR] else float("nan")),
        offpolicy_fraction=(offpolicy_tokens / late_pass_tokens if late_pass_tokens else 0.0))
    if not record.finite():
        raise StabilityAlarm(f"stability alarm at step {step}: non-finite value in step metrics")
    return record, all_groups


def _run_files(config: RunConfig) -> tuple[str, ...]:
    """The files train writes into its out_dir."""
    names = ("metrics.csv", "run_manifest.json", "policy.json", "rollouts.jsonl")
    return names if config.log_rollouts else names[:3]


def _make_output_dir(out: Path, names: tuple[str, ...]) -> None:
    """Make out; ConfigError if it cannot be made or a named path in it is not a regular file."""
    with config_errors(f"output directory {out}: "):
        out.mkdir(parents=True, exist_ok=True)
    for path in (out / name for name in names):
        if path.exists() and not path.is_file():
            raise ConfigError(f"output file {path}: exists and is not a regular file")


def train(config: RunConfig, out_dir: str | Path | None = None,
          progress: bool = False) -> RunResult:
    """Run the configured training loop; returns metrics and the final policy.

    Writes metrics.csv, run_manifest.json and policy.json when out_dir is
    given, and rollouts.jsonl with log_rollouts. ConfigError comes before
    step 0 for log_rollouts without out_dir, an init checkpoint that does
    not load or fit, initial draws that overflow and outputs _make_output_dir
    refuses. On a stability alarm or an empty batch the outputs are still
    written, the checkpoint holding the last good state (the failing step's
    snapshot), and the exception is raised after.
    """
    out = Path(out_dir) if out_dir is not None else None
    if config.log_rollouts and out is None:
        raise ConfigError("log_rollouts needs an output directory to write rollouts.jsonl to")
    env = config.env
    if config.init_checkpoint:
        with config_errors(f"init checkpoint {config.init_checkpoint}: "):
            policy, _ = TabularPolicy.load(config.init_checkpoint)
            env.check_table(policy)
    else:
        try:  # scale 0 draws +0.0 logits, the uniform table bit for bit
            policy = TabularPolicy.random(env.num_states, env.vocab_size, config.init_logit_scale,
                                          named_stream(config.seed, "init"))
        except ValueError as exc:  # a draw overflowed float64
            raise ConfigError(f"init_logit_scale {config.init_logit_scale} draws initial logits "
                              f"that are not finite") from exc
    if out is not None:  # before step 0: an output path that cannot be written costs no step
        _make_output_dir(out, _run_files(config))

    metrics: list[StepMetrics] = []
    logged_groups: list[RolloutGroup] = []
    status, failure = "completed", None
    for step in range(config.total_steps):
        last_good = policy.logits
        try:
            record, groups = _step(config, policy, step)
        except (StabilityAlarm, EmptyBatchError) as exc:
            status, failure, policy = exc.status, exc, TabularPolicy(last_good)
            break
        metrics.append(record)
        if config.log_rollouts:
            logged_groups.extend(groups)
        if progress and (step % 50 == 0 or step == config.total_steps - 1):
            print(f"step {step:>5}  H={record.entropy_exact:.4f}  reward={record.mean_reward:.3f}"
                  f"  acc={record.accuracy:.3f}  kl={record.kl:.5f}")

    manifest = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "code_version": __version__,
        "status": status,
        "steps_completed": len(metrics),
        "train_targets": [task.target for task in config.train_tasks],
        "eval_targets": [task.target for task in config.eval_tasks],
        "eval_reuses_training_targets": not set(config.eval_tasks).isdisjoint(config.train_tasks),
    }
    if failure is not None:
        manifest["failure"] = str(failure)

    if out is not None:
        write_metrics_csv(out / "metrics.csv", metrics)
        (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
        policy.save(out / "policy.json",
                    rng_lineage={"seed": config.seed, "config_hash": config.config_hash(),
                                 "steps_completed": len(metrics)})
        if config.log_rollouts:
            write_rollout_log(out / "rollouts.jsonl", logged_groups)

    if failure is not None:
        raise failure
    return RunResult(metrics, policy, manifest)


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("beta_sweep", "baseline_zoo", "entropy_reg", "schedule_switch")


def suite_configs(name: str, seed: int = 0, total_steps: int = 300) -> dict[str, RunConfig]:
    """Preconfigured comparison sets sharing one seed; dapo samples dynamically."""
    def run(algorithm: str, beta_schedule=(), **objective) -> RunConfig:
        return RunConfig(seed=seed, total_steps=total_steps,
                         objective=ObjectiveSpec.for_algorithm(algorithm, **objective),
                         dynamic_sampling=algorithm == "dapo", beta_schedule=beta_schedule)

    if name == "beta_sweep":
        return {f"ce_gppo_b{b1}_{b2}": run("ce_gppo", beta1=b1, beta2=b2)
                for b1, b2 in ((1.0, 0.5), (0.5, 1.0), (0.75, 1.0), (0.0, 1.0))}
    if name == "baseline_zoo":
        return {algo: run(algo) for algo in ("grpo", "dapo", "cispo", "gspo", "ce_gppo")}
    if name == "entropy_reg":
        return {"grpo": run("grpo"), "grpo_alpha_0.001": run("grpo", alpha=0.001),
                "grpo_alpha_0.003": run("grpo", alpha=0.003), "dapo": run("dapo"),
                "ce_gppo": run("ce_gppo")}
    if name == "schedule_switch":
        return {"ce_gppo_b0_1_constant": run("ce_gppo", beta1=0.0, beta2=1.0),
                "ce_gppo_b0_1_to_b0.5_1": run("ce_gppo", ((total_steps // 2, 0.5, 1.0),),
                                              beta1=0.0, beta2=1.0)}
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")


def run_experiment_suite(name: str, out_dir: str | Path | None = None, seed: int = 0,
                         total_steps: int = 300, progress: bool = False) -> dict:
    """Run a named suite over a shared seed and summarize the paired runs; an out_dir
    that cannot hold summary.json or a run's outputs raises ConfigError before
    the first run."""
    configs = suite_configs(name, seed=seed, total_steps=total_steps)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        _make_output_dir(out, ("summary.json",))
        for run_name, cfg in configs.items():
            _make_output_dir(out / run_name, _run_files(cfg))
    summary: dict = {"suite": name, "seed": seed, "total_steps": total_steps, "runs": {}}
    for run_name, cfg in configs.items():
        run_out = out / run_name if out is not None else None
        if progress:
            print(f"[{name}] running {run_name} ...")
        result = train(cfg, out_dir=run_out)
        series = result.metrics
        kls = [m.kl for m in series]
        summary["runs"][run_name] = {
            "final_entropy_exact": series[-1].entropy_exact,
            "initial_entropy_exact": series[0].entropy_exact,
            "final_accuracy": series[-1].accuracy,
            "final_mean_reward": series[-1].mean_reward,
            "mean_kl": float(np.mean(kls)),
            "max_kl": float(np.max(kls)),
            "steps": len(series),
        }
    if out is not None:
        (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def format_suite_table(summary: dict) -> str:
    header = f"{'run':<28} {'H_final':>8} {'acc':>6} {'reward':>7} {'kl_mean':>8} {'kl_max':>8}"
    lines = [f"suite: {summary['suite']} (seed {summary['seed']}, "
             f"{summary['total_steps']} steps)", header, "-" * len(header)]
    for run_name, row in summary["runs"].items():
        lines.append(
            f"{run_name:<28} {row['final_entropy_exact']:>8.4f} {row['final_accuracy']:>6.3f} "
            f"{row['final_mean_reward']:>7.3f} {row['mean_kl']:>8.5f} {row['max_kl']:>8.5f}")
    return "\n".join(lines)
