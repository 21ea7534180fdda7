"""The full RL loop: rollouts, advantages, mini-epoch updates, metrics.

Each step snapshots the policy, rolls out groups against the snapshot,
and then runs several minibatched gradient passes in which importance
ratios are recomputed against the live policy, so clipping genuinely
activates from the second pass on. Every random draw comes from a stream
named by (seed, purpose, step, ...); identical configs produce
byte-identical metrics CSVs. Each policy version's softmax is computed
once: rollouts and evaluation sample whole groups in lockstep from it, and
ratios, entropies and KLs are gathered from it as arrays. A rollout group
is a set of (G, T) arrays, and the step's reward, sampled entropy and
visited states are reduced from those blocks.

Metric conventions (each a deliberate choice, fixed here):
  - entropy_exact / entropy_sampled describe the snapshot policy at
    rollout time, so the exact value and the sampled estimator measure
    the same distribution. entropy_exact averages over the states visited
    by the step's rollouts, visit-count weighted by default
    (entropy_weighting="uniform" switches to a plain mean).
  - kl is KL(snapshot || updated policy) after the step's passes,
    averaged over the same visited states with the same weighting.
  - grad_norm is the mean Frobenius norm of the applied updates.
  - mean_reward covers all sampled trajectories, before any filtering.
  - clip/quadrant fractions aggregate over every minibatch evaluation of
    the step, with token probabilities taken at rollout time and the
    high/low probability threshold at the uniform level 1/V.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .advantage import dynamic_sampling_filter, group_advantages
from .entropy_dynamics import quadrant_stats_arrays
from .env import (
    EnvConfig,
    ModSumTask,
    RolloutGroup,
    rollout_group,
    sample_episodes,
    sample_task,
    write_rollout_log,
)
from .objectives import (
    ObjectiveSpec,
    TokenBatch,
    aggregate_objective,
    batch_token_terms,
    entropy_bonus,
)
from .policy import PolicySnapshot, TabularPolicy, entropy_rows, kl_rows
from .seeding import named_stream

CONFIG_SCHEMA_VERSION = 1

CSV_COLUMNS = ("step", "entropy_exact", "entropy_sampled", "kl", "grad_norm",
               "mean_reward", "accuracy", "clip_left", "clip_right",
               "frac_pahp", "frac_nalp", "frac_palp", "frac_nahp", "filtered_groups")


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class StabilityAlarm(RuntimeError):
    """Non-finite value detected; run halted at the last good state (exit 3)."""

    def __init__(self, reason: str, step: int, metrics: list["StepMetrics"]):
        super().__init__(f"stability alarm at step {step}: {reason}")
        self.reason = reason
        self.step = step
        self.metrics = metrics


class EmptyBatchError(RuntimeError):
    """Dynamic sampling drained every group despite resampling (exit 4)."""

    def __init__(self, message: str, step: int, metrics: list["StepMetrics"]):
        super().__init__(message)
        self.step = step
        self.metrics = metrics


@dataclass(frozen=True)
class RunConfig:
    """Everything that identifies a training run.

    train_targets: None holds out the top residue (train on 0..M-2) when
    M > 2; "all" trains on every residue; an explicit list is used as
    given. eval_targets defaults to the residues not trained on; when
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
    kl_ceiling: float = 1.0
    eval_samples: int = 32
    entropy_weighting: str = "visits"
    max_filter_retries: int = 5
    init_logit_scale: float = 0.0
    init_checkpoint: str | None = None
    log_rollouts: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        if self.mini_epochs < 1:
            raise ConfigError(f"mini_epochs must be >= 1, got {self.mini_epochs}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 < self.minibatch_fraction <= 1.0:
            raise ConfigError(
                f"minibatch_fraction must be in (0, 1], got {self.minibatch_fraction}")
        if self.group_size < 2:
            raise ConfigError(f"group_size must be >= 2, got {self.group_size}")
        if self.prompts_per_batch < 1:
            raise ConfigError(f"prompts_per_batch must be >= 1, got {self.prompts_per_batch}")
        if self.eval_samples < 1:
            raise ConfigError(f"eval_samples must be >= 1, got {self.eval_samples}")
        if self.entropy_weighting not in ("visits", "uniform"):
            raise ConfigError(f"entropy_weighting must be visits|uniform, "
                              f"got {self.entropy_weighting!r}")
        if self.max_filter_retries < 1:
            raise ConfigError(f"max_filter_retries must be >= 1, got {self.max_filter_retries}")
        if self.init_logit_scale < 0.0 or not np.isfinite(self.init_logit_scale):
            raise ConfigError(f"init_logit_scale must be finite and >= 0, "
                              f"got {self.init_logit_scale}")
        if not self.kl_ceiling > 0.0:
            raise ConfigError(f"kl_ceiling must be > 0, got {self.kl_ceiling}")
        schedule = tuple((int(s), float(b1), float(b2)) for s, b1, b2 in self.beta_schedule)
        steps = [s for s, _, _ in schedule]
        if steps != sorted(set(steps)):
            raise ConfigError(f"beta_schedule steps must be strictly increasing, got {steps}")
        if any(b < 0 or not np.isfinite(b) for _, b1, b2 in schedule for b in (b1, b2)):
            raise ConfigError("beta_schedule betas must be finite and >= 0")
        object.__setattr__(self, "beta_schedule", schedule)
        if isinstance(self.train_targets, str) and self.train_targets != "all":
            raise ConfigError(f"train_targets must be a list, \"all\" or null, "
                              f"got {self.train_targets!r}")
        if self.train_targets is not None and not isinstance(self.train_targets, str):
            object.__setattr__(self, "train_targets",
                               tuple(int(t) for t in self.train_targets))
        if self.eval_targets is not None:
            object.__setattr__(self, "eval_targets",
                               tuple(int(t) for t in self.eval_targets))
        try:
            self.env_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for t in self.resolved_eval_targets():
            if not 0 <= t < self.modulus:
                raise ConfigError(f"eval target {t} outside [0, {self.modulus})")

    def env_config(self) -> EnvConfig:
        if self.train_targets == "all":
            targets = None
        elif self.train_targets is None:
            targets = tuple(range(self.modulus - 1)) if self.modulus > 2 else None
        else:
            targets = self.train_targets
        return EnvConfig(self.vocab_size, self.seq_len, self.modulus, targets)

    def resolved_eval_targets(self) -> tuple[int, ...]:
        if self.eval_targets is not None:
            return self.eval_targets
        trained = set(self.env_config().allowed_targets())
        held_out = tuple(t for t in range(self.modulus) if t not in trained)
        return held_out if held_out else tuple(range(self.modulus))

    def eval_reuses_training_targets(self) -> bool:
        trained = set(self.env_config().allowed_targets())
        return any(t in trained for t in self.resolved_eval_targets())

    def objective_at(self, step: int) -> ObjectiveSpec:
        spec = self.objective
        for switch_step, b1, b2 in self.beta_schedule:
            if step >= switch_step:
                spec = self.objective.with_betas(b1, b2)
        return spec

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["schema_version"] = CONFIG_SCHEMA_VERSION
        doc["objective"] = self.objective.to_dict()
        doc["beta_schedule"] = [list(entry) for entry in self.beta_schedule]
        if self.train_targets is not None and not isinstance(self.train_targets, str):
            doc["train_targets"] = list(self.train_targets)
        if self.eval_targets is not None:
            doc["eval_targets"] = list(self.eval_targets)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
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
            if not isinstance(doc["objective"], dict):
                raise ConfigError("objective must be an object")
            spec_known = {f.name for f in dataclasses.fields(ObjectiveSpec)}
            spec_unknown = set(doc["objective"]) - spec_known
            if spec_unknown:
                raise ConfigError(f"unknown objective keys: {sorted(spec_unknown)}")
            try:
                doc["objective"] = ObjectiveSpec(**doc["objective"])
            except ValueError as exc:
                raise ConfigError(f"invalid objective: {exc}") from exc
        if "beta_schedule" in doc:
            doc["beta_schedule"] = tuple(tuple(entry) for entry in doc["beta_schedule"])
        for key in ("train_targets", "eval_targets"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(doc[key])
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
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

    def canonical_values(self) -> list:
        return [getattr(self, col) for col in CSV_COLUMNS]

    def csv_row(self) -> str:
        cells = []
        for col in CSV_COLUMNS:
            v = getattr(self, col)
            cells.append(str(v) if isinstance(v, int) else repr(float(v)))
        return ",".join(cells)

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in self.canonical_values())


def write_metrics_csv(path: str | Path, metrics: list[StepMetrics]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(m.csv_row() for m in metrics)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class RunResult:
    config: RunConfig
    metrics: list[StepMetrics]
    policy: TabularPolicy
    manifest: dict
    out_dir: Path | None = None


def evaluate(policy: TabularPolicy, tasks: list[ModSumTask], samples_per_prompt: int,
             rng: np.random.Generator) -> float:
    """Mean success rate over tasks x samples (the avg@k estimator)."""
    if not tasks:
        raise ValueError("empty evaluation task set")
    total = 0
    for task in tasks:
        rewards = sample_episodes(policy, task, samples_per_prompt, rng)[3]
        total += int(np.count_nonzero(rewards))
    return total / (len(tasks) * samples_per_prompt)


def _rollout_batch(snapshot: PolicySnapshot, tasks: list[ModSumTask], config: RunConfig,
                   step: int, attempt: int) -> list[RolloutGroup]:
    return [rollout_group(snapshot, task, config.group_size,
                          named_stream(config.seed, "rollout", step, attempt, g))
            for g, task in enumerate(tasks)]


def _weighted_state_mean(values: np.ndarray, counts: np.ndarray, weighting: str) -> float:
    """Mean of per-state values, visit-count weighted or plain.

    Sums run sequentially in state order (np.add.accumulate), the order a
    scalar loop over the states adds in.
    """
    if weighting == "visits":
        return float(np.add.accumulate(values * counts)[-1] / counts.sum())
    return float(np.add.accumulate(values)[-1] / len(values))


class _StepAccumulator:
    """Clip/quadrant/off-policy statistics over one step's minibatch passes."""

    def __init__(self, prob_threshold: float, bounds: tuple[float, float]):
        self.prob_threshold = prob_threshold
        self.lo, self.hi = bounds
        self.grad_norms: list[float] = []
        self.deltas: list[np.ndarray] = []
        self.advs: list[np.ndarray] = []
        self.probs: list[np.ndarray] = []
        self.offpolicy_tokens = 0
        self.late_pass_tokens = 0

    def add(self, deltas: np.ndarray, advs: np.ndarray, old_probs: np.ndarray,
            grad_norm: float, late_pass: bool) -> None:
        self.deltas.append(deltas)
        self.advs.append(advs)
        self.probs.append(old_probs)
        self.grad_norms.append(grad_norm)
        if late_pass:
            self.offpolicy_tokens += int((deltas != 1.0).sum())
            self.late_pass_tokens += len(deltas)

    def summarize(self) -> dict:
        deltas = np.concatenate(self.deltas)
        advs = np.concatenate(self.advs)
        probs = np.concatenate(self.probs)
        stats = quadrant_stats_arrays(deltas, advs, probs, 1.0 - self.lo, self.hi - 1.0,
                                      self.prob_threshold)
        clipped = ((advs < 0) & (deltas < self.lo)) | ((advs > 0) & (deltas > self.hi))
        return {
            "grad_norm": float(np.mean(self.grad_norms)),
            "clip_left": stats.left_clip_fraction,
            "clip_right": stats.right_clip_fraction,
            "frac_pahp": stats.fractions["pa_hp"],
            "frac_nalp": stats.fractions["na_lp"],
            "frac_palp": stats.fractions["pa_lp"],
            "frac_nahp": stats.fractions["na_hp"],
            "prob_clipped_mean": float(probs[clipped].mean()) if clipped.any() else float("nan"),
            "prob_unclipped_mean": float(probs[~clipped].mean()) if (~clipped).any() else float("nan"),
            "offpolicy_fraction": (self.offpolicy_tokens / self.late_pass_tokens
                                   if self.late_pass_tokens else 0.0),
        }


def train(config: RunConfig, out_dir: str | Path | None = None,
          progress: bool = False) -> RunResult:
    """Run the configured training loop; returns metrics and the final policy.

    Writes metrics.csv, run_manifest.json and policy.json when an output
    directory is configured. On a stability alarm the checkpoint written
    is the last good state (the failing step's snapshot) and the
    exception carries the metrics collected so far.
    """
    out = Path(out_dir) if out_dir is not None else (
        Path(config.out_dir) if config.out_dir else None)
    env_cfg = config.env_config()
    if config.init_checkpoint:
        policy, _ = TabularPolicy.load(config.init_checkpoint)
        if (policy.num_states, policy.num_actions) != (env_cfg.num_states, env_cfg.vocab_size):
            raise ConfigError(
                f"init checkpoint is {policy.num_states}x{policy.num_actions}, environment "
                f"needs {env_cfg.num_states}x{env_cfg.vocab_size}")
    elif config.init_logit_scale > 0.0:
        policy = TabularPolicy.random(env_cfg.num_states, env_cfg.vocab_size,
                                      config.init_logit_scale,
                                      named_stream(config.seed, "init"))
    else:
        policy = TabularPolicy.uniform(env_cfg.num_states, env_cfg.vocab_size)
    eval_tasks = [ModSumTask(config.vocab_size, config.seq_len, config.modulus, t)
                  for t in config.resolved_eval_targets()]
    prob_threshold = 1.0 / config.vocab_size
    metrics: list[StepMetrics] = []
    logged_groups: list[RolloutGroup] = []
    status = "completed"
    failure: Exception | None = None
    last_good = policy.logits.copy()

    try:
        for step in range(config.total_steps):
            spec = config.objective_at(step)
            last_good = policy.logits.copy()
            snapshot = policy.snapshot()

            # rollout, with bounded resampling when dynamic sampling drains the batch
            filtered_groups = 0
            all_groups: list[RolloutGroup] = []
            retained: list[RolloutGroup] = []
            for attempt in range(config.max_filter_retries):
                task_rng = named_stream(config.seed, "tasks", step, attempt)
                tasks = [sample_task(env_cfg, task_rng)
                         for _ in range(config.prompts_per_batch)]
                groups = _rollout_batch(snapshot, tasks, config, step, attempt)
                all_groups.extend(groups)
                if not config.dynamic_sampling:
                    retained = groups
                    break
                kept = dynamic_sampling_filter(groups)
                filtered_groups += len(groups) - len(kept)
                if kept:
                    retained = kept
                    break
            else:
                raise EmptyBatchError(
                    f"all rollout groups shared identical correctness for "
                    f"{config.max_filter_retries} resampling attempts at step {step}",
                    step, metrics)
            if config.log_rollouts:
                logged_groups.extend(all_groups)

            mean_reward = float(np.concatenate([g.rewards for g in all_groups]).mean())
            old_logprobs = np.concatenate([g.old_logprobs for g in all_groups])
            entropy_sampled = float(np.mean(-old_logprobs.mean(axis=1)))
            visited, visit_counts = np.unique(
                np.concatenate([g.states for g in all_groups]), return_counts=True)
            snapshot_rows = snapshot.probability_matrix()[visited]
            entropy_exact = _weighted_state_mean(
                entropy_rows(snapshot_rows), visit_counts, config.entropy_weighting)

            degenerate_policy = "filter" if config.dynamic_sampling else "zero"
            trajectories, advantages = [], []
            for group in retained:
                adv = group_advantages(group, degenerate_policy)
                if adv is None:  # cannot happen after the filter; guard anyway
                    continue
                trajectories.extend(group.trajectories)
                advantages.extend(adv.advantages.tolist())
            batch = TokenBatch.from_trajectories(trajectories, advantages)

            acc = _StepAccumulator(prob_threshold, spec.clip_bounds())
            update_rng = named_stream(config.seed, "update", step)
            n_traj = batch.n_trajectories
            chunk = max(1, round(config.minibatch_fraction * n_traj))
            try:
                for epoch in range(config.mini_epochs):
                    perm = update_rng.permutation(n_traj)
                    for start in range(0, n_traj, chunk):
                        sub = batch.subset(perm[start:start + chunk])
                        terms = batch_token_terms(spec, sub, policy)
                        _, grad = aggregate_objective(terms, sub, policy, spec.aggregation)
                        if spec.alpha > 0.0:
                            grad = grad + entropy_bonus(policy, np.unique(sub.states),
                                                        spec.alpha)[1]
                        grad_norm = float(np.linalg.norm(grad))
                        acc.add(terms.deltas, sub.advantages, np.exp(sub.old_logprobs),
                                grad_norm, late_pass=epoch >= 1)
                        policy.apply_gradient(grad, config.learning_rate)
                kl = _weighted_state_mean(
                    kl_rows(snapshot_rows, policy.probability_matrix()[visited]),
                    visit_counts, config.entropy_weighting)
            except ValueError as exc:
                raise StabilityAlarm(str(exc), step, metrics) from exc

            accuracy = evaluate(policy, eval_tasks, config.eval_samples,
                                named_stream(config.seed, "eval", step))
            summary = acc.summarize()
            record = StepMetrics(
                step=step, entropy_exact=entropy_exact, entropy_sampled=entropy_sampled,
                kl=kl, mean_reward=mean_reward, accuracy=accuracy,
                filtered_groups=filtered_groups, **summary)
            if not record.finite():
                raise StabilityAlarm("non-finite value in step metrics", step, metrics)
            metrics.append(record)
            if progress and (step % 50 == 0 or step == config.total_steps - 1):
                print(f"step {step:>5}  H={entropy_exact:.4f}  reward={mean_reward:.3f}  "
                      f"acc={accuracy:.3f}  kl={kl:.5f}")
    except StabilityAlarm as exc:
        status, failure = "stability_alarm", exc
        policy = TabularPolicy(last_good)
    except EmptyBatchError as exc:
        status, failure = "empty_batch_abort", exc

    manifest = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "code_version": __version__,
        "status": status,
        "steps_completed": len(metrics),
        "train_targets": list(config.env_config().allowed_targets()),
        "eval_targets": list(config.resolved_eval_targets()),
        "eval_reuses_training_targets": config.eval_reuses_training_targets(),
    }
    if failure is not None:
        manifest["failure"] = str(failure)

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out / "metrics.csv", metrics)
        (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
        policy.save(out / "policy.json",
                    rng_lineage={"seed": config.seed, "config_hash": config.config_hash(),
                                 "steps_completed": len(metrics)})
        if config.log_rollouts:
            write_rollout_log(out / "rollouts.jsonl", logged_groups)

    if failure is not None:
        raise failure
    return RunResult(config, metrics, policy, manifest, out)


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("beta_sweep", "baseline_zoo", "entropy_reg", "schedule_switch")


def suite_configs(name: str, seed: int = 0, total_steps: int = 300) -> dict[str, RunConfig]:
    """Preconfigured comparison sets sharing one seed."""
    base = dict(seed=seed, total_steps=total_steps)
    if name == "beta_sweep":
        return {
            f"ce_gppo_b{b1}_{b2}": RunConfig(
                objective=ObjectiveSpec.for_algorithm("ce_gppo", beta1=b1, beta2=b2), **base)
            for b1, b2 in ((1.0, 0.5), (0.5, 1.0), (0.75, 1.0), (0.0, 1.0))
        }
    if name == "baseline_zoo":
        return {
            "grpo": RunConfig(objective=ObjectiveSpec.for_algorithm("grpo"), **base),
            "dapo": RunConfig(objective=ObjectiveSpec.for_algorithm("dapo"),
                              dynamic_sampling=True, **base),
            "cispo": RunConfig(objective=ObjectiveSpec.for_algorithm("cispo"), **base),
            "gspo": RunConfig(objective=ObjectiveSpec.for_algorithm("gspo"), **base),
            "ce_gppo": RunConfig(objective=ObjectiveSpec.for_algorithm("ce_gppo"), **base),
        }
    if name == "entropy_reg":
        return {
            "grpo": RunConfig(objective=ObjectiveSpec.for_algorithm("grpo"), **base),
            "grpo_alpha_0.001": RunConfig(
                objective=ObjectiveSpec.for_algorithm("grpo", alpha=0.001), **base),
            "grpo_alpha_0.003": RunConfig(
                objective=ObjectiveSpec.for_algorithm("grpo", alpha=0.003), **base),
            "dapo": RunConfig(objective=ObjectiveSpec.for_algorithm("dapo"),
                              dynamic_sampling=True, **base),
            "ce_gppo": RunConfig(objective=ObjectiveSpec.for_algorithm("ce_gppo"), **base),
        }
    if name == "schedule_switch":
        explorer = ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=1.0)
        return {
            "ce_gppo_b0_1_constant": RunConfig(objective=explorer, **base),
            "ce_gppo_b0_1_to_b0.5_1": RunConfig(
                objective=explorer,
                beta_schedule=((total_steps // 2, 0.5, 1.0),), **base),
        }
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")


def run_experiment_suite(name: str, out_dir: str | Path | None = None, seed: int = 0,
                         total_steps: int = 300, progress: bool = False) -> dict:
    """Run a named suite over a shared seed and summarize the paired runs."""
    configs = suite_configs(name, seed=seed, total_steps=total_steps)
    out = Path(out_dir) if out_dir is not None else None
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
        out.mkdir(parents=True, exist_ok=True)
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
