"""ModSum: a synthetic verifiable-reward sequence environment.

An episode emits T tokens from a vocabulary of size V; the binary reward
is 1 iff the sum of token ids is congruent to the task's target residue
mod M. The state is the exact pair (position, running residue), encoded
as state_id = position * M + residue, plus one terminal state, so a
tabular policy over T*M + 1 states sees the full environment state and
every policy-side quantity stays exact.

Every episode has exactly T tokens, so n episodes are a rectangle: the
sampler returns C-contiguous (n, T) arrays of states, actions and
log-probs plus an (n,) reward array, and a RolloutGroup holds its G
episodes in that form. Trajectory objects are the per-episode view of
those rows, built only where a caller wants one episode at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .policy import PolicySnapshot, _SoftmaxTable


@dataclass(frozen=True)
class EnvConfig:
    """Environment dimensions plus the residues tasks may target."""

    vocab_size: int = 8
    seq_len: int = 6
    modulus: int = 5
    # None -> targets drawn from all residues [0, M)
    train_targets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.modulus < 2:
            raise ValueError(
                f"modulus must be >= 2, got {self.modulus} (reward would be constant)")
        if self.train_targets is not None:
            targets = tuple(int(t) for t in self.train_targets)
            if not targets:
                raise ValueError("train_targets must be non-empty when given")
            if any(not 0 <= t < self.modulus for t in targets):
                raise ValueError(f"train_targets {targets} outside [0, {self.modulus})")
            if len(set(targets)) != len(targets):
                raise ValueError(f"train_targets {targets} contain duplicates")
            object.__setattr__(self, "train_targets", targets)

    @property
    def num_states(self) -> int:
        return self.seq_len * self.modulus + 1

    def allowed_targets(self) -> tuple[int, ...]:
        if self.train_targets is None:
            return tuple(range(self.modulus))
        return self.train_targets


@dataclass(frozen=True)
class ModSumTask:
    vocab_size: int
    seq_len: int
    modulus: int
    target: int

    def __post_init__(self):
        if self.vocab_size < 2 or self.seq_len < 1 or self.modulus < 2:
            raise ValueError(
                f"invalid task dimensions V={self.vocab_size} T={self.seq_len} M={self.modulus}")
        if not 0 <= self.target < self.modulus:
            raise ValueError(f"target {self.target} outside [0, {self.modulus})")

    @property
    def num_states(self) -> int:
        return self.seq_len * self.modulus + 1

    @property
    def terminal_state(self) -> int:
        return self.seq_len * self.modulus

    def state_id(self, position: int, residue: int) -> int:
        if not 0 <= position < self.seq_len:
            raise ValueError(f"position {position} outside [0, {self.seq_len})")
        if not 0 <= residue < self.modulus:
            raise ValueError(f"residue {residue} outside [0, {self.modulus})")
        return position * self.modulus + residue

    def to_dict(self) -> dict:
        return {"vocab_size": self.vocab_size, "seq_len": self.seq_len,
                "modulus": self.modulus, "target": self.target}


@dataclass(eq=False)
class Trajectory:
    """One complete episode with the snapshot log-probs it was drawn under."""

    task: ModSumTask
    actions: np.ndarray      # int, length T
    old_logprobs: np.ndarray  # float, length T
    states: np.ndarray       # int, length T: state where each action was taken
    reward: int

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.old_logprobs = np.asarray(self.old_logprobs, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.int64)
        if not (len(self.actions) == len(self.old_logprobs) == len(self.states)):
            raise ValueError("actions, old_logprobs and states must have equal length")
        if self.reward not in (0, 1):
            raise ValueError(f"reward must be 0 or 1, got {self.reward}")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(eq=False)
class RolloutGroup:
    """G episodes of one task, all sampled from the same snapshot.

    The episodes are rows of C-contiguous (G, T) arrays ``states``,
    ``actions`` and ``old_logprobs``; ``rewards`` holds the G rewards as
    float64. Row order is sampling order.
    """

    task: ModSumTask
    states: np.ndarray        # int64 (G, T): state where each action was taken
    actions: np.ndarray       # int64 (G, T)
    old_logprobs: np.ndarray  # float64 (G, T): log-probs under the snapshot
    rewards: np.ndarray       # float64 (G,)
    snapshot: PolicySnapshot

    def __post_init__(self):
        size = len(self.rewards)
        if size < 2:
            raise ValueError(
                f"group size must be >= 2 (got {size}); "
                "group-relative normalization is undefined for a single sample")
        shape = (size, self.task.seq_len)
        if not self.states.shape == self.actions.shape == self.old_logprobs.shape == shape:
            raise ValueError(f"episode arrays must all have shape {shape}")

    @cached_property
    def trajectories(self) -> list[Trajectory]:
        """The episodes as Trajectory objects over the rows, built on first access."""
        return [Trajectory(self.task, actions, logprobs, states, int(reward))
                for states, actions, logprobs, reward
                in zip(self.states, self.actions, self.old_logprobs, self.rewards)]


def sample_task(config: EnvConfig, rng: np.random.Generator) -> ModSumTask:
    """Draw a task with target uniform over the config's allowed residues."""
    targets = config.allowed_targets()
    target = int(targets[rng.integers(len(targets))])
    return ModSumTask(config.vocab_size, config.seq_len, config.modulus, target)


def verify_reward(trajectory: Trajectory) -> int:
    """Recompute the modular-sum predicate from scratch. Pure function."""
    task = trajectory.task
    if len(trajectory.actions) != task.seq_len:
        raise ValueError(
            f"incomplete trajectory: {len(trajectory.actions)} of {task.seq_len} actions")
    return int(int(trajectory.actions.sum()) % task.modulus == task.target)


def sample_episodes(policy: _SoftmaxTable, task: ModSumTask, n: int,
                    rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample n episodes of one task in lockstep from the given (usually snapshot) policy.

    Returns C-contiguous (n, T) states, actions and log-probs and the (n,)
    float64 rewards. The stream advances by exactly n * seq_len uniform
    draws, taken episode by episode, and each token is the inverse-CDF
    pick sample_action would make from the same draw, so the episodes
    equal n sequential single-token rollouts bit for bit, log-probs
    included.
    """
    if policy.num_states != task.num_states or policy.num_actions != task.vocab_size:
        raise ValueError(
            f"policy table ({policy.num_states} states, {policy.num_actions} actions) does not "
            f"match task state space ({task.num_states} states, {task.vocab_size} actions)")
    cdf = policy.sampling_cdf()
    seq_len, modulus = task.seq_len, task.modulus
    draws = rng.random((n, seq_len))
    residues = np.empty((n, seq_len), dtype=np.int64)
    actions = np.empty((n, seq_len), dtype=np.int64)
    residue = np.zeros(n, dtype=np.int64)
    for t in range(seq_len):
        residues[:, t] = residue
        # count of cdf entries <= u, i.e. searchsorted(cdf, u, side="right")
        # over the first V-1 columns, which is at most V-1
        picks = (cdf[t * modulus + residue] <= draws[:, t, None]).sum(axis=1)
        actions[:, t] = picks
        residue = (residue + picks) % modulus
    states = residues + np.arange(seq_len) * modulus
    with np.errstate(divide="ignore"):
        logprobs = np.log(policy.probability_matrix()[states, actions])
    rewards = (actions.sum(axis=1) % modulus == task.target).astype(np.float64)
    return states, actions, logprobs, rewards


def sample_trajectories(policy: _SoftmaxTable, task: ModSumTask, n: int,
                        rng: np.random.Generator) -> list[Trajectory]:
    """sample_episodes as n Trajectory objects."""
    states, actions, logprobs, rewards = sample_episodes(policy, task, n, rng)
    return [Trajectory(task, actions[i], logprobs[i], states[i], int(rewards[i]))
            for i in range(n)]


def rollout_trajectory(policy: _SoftmaxTable, task: ModSumTask,
                       rng: np.random.Generator) -> Trajectory:
    """Sample one episode from the given (usually snapshot) policy."""
    return sample_trajectories(policy, task, 1, rng)[0]


def rollout_group(policy: _SoftmaxTable, task: ModSumTask, group_size: int,
                  rng: np.random.Generator) -> RolloutGroup:
    """Snapshot the policy, then sample a group of episodes from the snapshot."""
    if group_size < 2:
        raise ValueError(f"group_size must be >= 2, got {group_size}")
    snapshot = policy.snapshot()
    return RolloutGroup(task, *sample_episodes(snapshot, task, group_size, rng), snapshot)


def write_rollout_log(path: str | Path, groups: list[RolloutGroup],
                      append: bool = False) -> None:
    """Dump trajectories as line-delimited JSON for offline analysis.

    One line per trajectory: task fields, group index, actions,
    old_logprobs, reward. Floats round-trip exactly (json uses repr).
    """
    mode = "a" if append else "w"
    with open(path, mode) as fh:
        for gi, group in enumerate(groups):
            for traj in group.trajectories:
                fh.write(json.dumps({
                    **traj.task.to_dict(),
                    "group": gi,
                    "actions": traj.actions.tolist(),
                    "old_logprobs": traj.old_logprobs.tolist(),
                    "reward": traj.reward,
                }) + "\n")


def read_rollout_log(path: str | Path) -> list[dict]:
    """Parse a rollout log back into dicts (tasks reconstructed)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            task = ModSumTask(doc["vocab_size"], doc["seq_len"], doc["modulus"], doc["target"])
            actions = np.array(doc["actions"], dtype=np.int64)
            residues = np.concatenate(([0], np.cumsum(actions) % task.modulus))[:-1]
            states = np.arange(task.seq_len) * task.modulus + residues
            records.append({
                "task": task,
                "group": doc["group"],
                "trajectory": Trajectory(task, actions, np.array(doc["old_logprobs"]),
                                         states, doc["reward"]),
            })
    return records
