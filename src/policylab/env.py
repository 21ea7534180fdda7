"""ModSum: a synthetic verifiable-reward sequence environment.

An episode emits T tokens from a vocabulary of size V; the binary reward
is 1 iff the sum of token ids is congruent to the task's target residue
mod M. The state is the pair (position, running residue), encoded as
state_id = position * M + residue, plus one terminal state, so every
policy-side quantity over the T*M + 1 states stays exact. The state
holds no target: a tabular policy cannot tell the tasks apart.

Every episode has exactly T tokens, so n episodes are a rectangle.
Sampling and scoring are apart: sample_episodes walks any number of rows
in lockstep, given their (n, T) uniforms, and returns C-contiguous (n, T)
arrays of states, actions and log-probs; the state holds no target, so
the rows of many tasks share one walk. rollout_group turns one task's
block of those rows into its RolloutGroup under the one reward rule,
sampling nothing. A training step or a gradcheck attempt walks all of
its groups' rows at once and assembles each group from its row block;
training, the gradcheck and the rollout log all read those arrays.
Trajectory objects are the per-episode view of the rows, built only
where a caller wants one episode at a time.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .policy import PHYSICAL_MEMORY, _SoftmaxTable, check_table_size


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which numbers.Integral counts as an integer
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number (no bool) that a float can hold: a 400-digit integer is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def residue_set(name: str, values, modulus: int) -> tuple[int, ...]:
    """The one residue-set rule: values as a tuple of one or more distinct ints in
    [0, modulus); anything else (a bool or a non-iterable included) raises ValueError
    naming the field."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of integers, got {values!r}") from None
    if not all(map(_is_int, values)):
        raise ValueError(f"{name} must be integers, got {list(values)}")
    residues = tuple(map(int, values))
    if not residues or len(set(residues)) < len(residues) or not all(
            0 <= r < modulus for r in residues):
        raise ValueError(f"{name} must be one or more distinct residues in "
                         f"[0, {modulus}), got {list(residues)}")
    return residues


@dataclass(frozen=True)
class EnvConfig:
    """V actions, T tokens and modulus M: the shape an environment and its tasks share."""

    vocab_size: int
    seq_len: int
    modulus: int

    def __post_init__(self):
        if self.vocab_size < 2 or self.seq_len < 1 or self.modulus < 2:
            # M = 1 would make the reward constant
            raise ValueError(
                f"invalid dimensions vocab_size={self.vocab_size} seq_len={self.seq_len} "
                f"modulus={self.modulus}: need vocab_size >= 2, seq_len >= 1 and modulus >= 2")
        check_table_size(self.num_states, self.vocab_size, "vocab_size, seq_len and modulus")

    @property
    def num_states(self) -> int:
        return self.seq_len * self.modulus + 1

    def check_table(self, table: _SoftmaxTable) -> None:
        """The one table-fit rule: a policy for this shape is a (T*M + 1) x V table."""
        if table.num_states != self.num_states or table.num_actions != self.vocab_size:
            raise ValueError(
                f"policy table ({table.num_states} states, {table.num_actions} actions) does "
                f"not match state space ({self.num_states} states, {self.vocab_size} actions)")

    def check_samples(self, episodes: int, names: str) -> None:
        """The one sample-size rule: n episodes are (n, T) arrays, bounded as a table is,
        and sampling them holds sample_bytes_per_episode(V, T) bytes each at its peak."""
        check_table_size(episodes, self.seq_len, names, "sample array", "log-probs")
        peak = episodes * sample_bytes_per_episode(self.vocab_size, self.seq_len)
        if peak > PHYSICAL_MEMORY:
            raise ValueError(f"{names} make {episodes} episodes whose sampling holds {peak} "
                             f"bytes at its peak, more than the {PHYSICAL_MEMORY} bytes of "
                             f"physical memory")

    def task(self, target: int) -> ModSumTask:
        """The one task rule: the task of this shape whose target residue is target."""
        return ModSumTask(self.vocab_size, self.seq_len, self.modulus, target)


@dataclass(frozen=True)
class ModSumTask(EnvConfig):
    target: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.target < self.modulus:
            raise ValueError(f"target {self.target} outside [0, {self.modulus})")

    def to_dict(self) -> dict:
        return asdict(self)


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
    """G episodes of one task, all sampled from the same policy version.

    The episodes are rows of C-contiguous (G, T) arrays ``states``,
    ``actions`` and ``old_logprobs``; ``rewards`` holds the G rewards as
    float64. Row order is sampling order. The log-probs are all a later
    importance ratio needs of the sampling policy, so the group keeps no
    reference to it.
    """

    task: ModSumTask
    states: np.ndarray        # int64 (G, T): state where each action was taken
    actions: np.ndarray       # int64 (G, T)
    old_logprobs: np.ndarray  # float64 (G, T): log-probs under the sampling policy
    rewards: np.ndarray       # float64 (G,)

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


def sample_task(tasks: Sequence[ModSumTask], rng: np.random.Generator) -> ModSumTask:
    """Draw one of tasks uniformly: one integer draw from rng."""
    return tasks[rng.integers(len(tasks))]


def verify_reward(trajectory: Trajectory) -> int:
    """Recompute the modular-sum predicate from scratch. Pure function."""
    task = trajectory.task
    if len(trajectory.actions) != task.seq_len:
        raise ValueError(
            f"incomplete trajectory: {len(trajectory.actions)} of {task.seq_len} actions")
    return int(_rewards(trajectory.actions, task))


def _rewards(actions: np.ndarray, task: ModSumTask) -> np.ndarray:
    """1.0 where an episode's actions (the last axis) sum to the target mod M, else 0.0.

    The one statement of the reward rule: rollout_group, evaluate, verify_reward
    and the log reader all apply it.
    """
    return (actions.sum(axis=-1) % task.modulus == task.target).astype(np.float64)


def sample_bytes_per_episode(vocab_size: int, seq_len: int) -> int:
    """A bound on the bytes per episode that a walk holds live at once.

    The token loop holds the (n, T) draws and actions, one position's (n, V-1)
    float64 cdf gather with its bool comparison, and (n,) int64 residues and
    picks; the log-prob lookup holds six (n, T) 8-byte arrays (draws, actions,
    states, flat cells, gathered probabilities, their logs). Their sum bounds both.
    """
    return 48 * seq_len + 9 * (vocab_size - 1) + 32


def sample_episodes(policy: _SoftmaxTable, env: EnvConfig, draws: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk len(draws) episodes of env's shape in lockstep from the given (usually
    snapshot) policy, row i driven by the T uniforms of draws[i].

    Returns C-contiguous (n, T) states, actions and log-probs, new arrays
    that no later update can reach. Each token is the inverse-CDF pick
    (searchsorted side="right" on its row's cumulative sum, clamped to the
    last action) of its draw, and a row depends on its own draws alone, so
    any block of rows equals a walk of that block by itself bit for bit,
    log-probs included.
    """
    env.check_table(policy)
    seq_len, modulus = env.seq_len, env.modulus
    if draws.ndim != 2 or draws.shape[1] != seq_len:
        raise ValueError(f"draws must be an (n, {seq_len}) array, got shape {draws.shape}")
    cdf = policy.sampling_cdf()
    actions = np.empty(draws.shape, dtype=np.int64)
    residue = np.zeros(len(draws), dtype=np.int64)  # each episode's residue before token t
    for t in range(seq_len):
        # count of cdf entries <= u, i.e. searchsorted(cdf, u, side="right")
        # over the first V-1 columns, which is at most V-1
        picks = (cdf[t * modulus + residue] <= draws[:, t, None]).sum(axis=1)
        actions[:, t] = picks
        residue = (residue + picks) % modulus
    states = _episode_states(actions, modulus)
    return states, actions, policy.log_probs(states * policy.num_actions + actions)


def _episode_states(actions: np.ndarray, modulus: int) -> np.ndarray:
    """(n, T) state ids of (n, T) int64 actions: t * M + (sum of the tokens before t) mod M."""
    residues = (np.cumsum(actions, axis=1) - actions) % modulus
    return residues + np.arange(actions.shape[1]) * modulus


def rollout_group(task: ModSumTask, states: np.ndarray, actions: np.ndarray,
                  old_logprobs: np.ndarray) -> RolloutGroup:
    """One task's block of sampled (G, T) rows as its group, rewarded by the one reward
    rule. It samples nothing: the rows come from a sample_episodes walk, and the
    group holds them as given (row-block views of the walk's arrays included)."""
    return RolloutGroup(task, states, actions, old_logprobs, _rewards(actions, task))


_TASK_FIELDS = tuple(f.name for f in fields(ModSumTask))
_LOG_FIELDS = (*_TASK_FIELDS, "group", "actions", "old_logprobs", "reward")


def write_rollout_log(path: str | Path, groups: list[RolloutGroup]) -> None:
    """Dump trajectories as line-delimited JSON for offline analysis.

    One line per trajectory: task fields, group index, actions,
    old_logprobs, reward. Floats round-trip exactly (json uses repr).
    """
    with open(path, "w") as fh:
        for gi, group in enumerate(groups):
            task = group.task.to_dict()
            for actions, logprobs, reward in zip(group.actions.tolist(),
                                                 group.old_logprobs.tolist(), group.rewards):
                fh.write(json.dumps({
                    **task,
                    "group": gi,
                    "actions": actions,
                    "old_logprobs": logprobs,
                    "reward": int(reward),
                }) + "\n")


def read_rollout_log(path: str | Path) -> list[RolloutGroup]:
    """Parse a rollout log back into its rollout groups.

    One group per distinct group id, in first-seen order, with rows in
    log order and states rebuilt from the actions. A group's rows go to
    flat typed buffers (int64 actions, float64 log-probs), a reward list
    and sets of task tuples and row lengths, and its arrays are built
    once, so no per-row object outlives its line. Raises ValueError,
    naming the line, for a line that is not JSON (nesting past the
    recursion limit included) or not a JSON object, lacks one of
    the fields the writer writes, has a task field, group id or reward
    that is not an integer, actions and old_logprobs that are not lists
    of integers and of numbers (no bools; JSON's -Infinity is a float) or
    do not fit int64 and float64, or a log-prob above 0 or NaN and,
    naming the group, for a group with fewer than 2 rows, rows of more
    than one task, rows whose length is not the task's seq_len, an action
    outside [0, V) or a reward that is not the one its actions earn.
    """
    from array import array  # here, so only a log reader loads the extension module
    rows: dict[int, tuple] = {}  # group id -> its rows' flat buffers, first-seen order
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    doc = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:  # its "line 1" is the parser's
                    raise ValueError(f"line {number}: {exc}") from exc
                if not isinstance(doc, dict):
                    raise ValueError(f"line {number} is not a JSON object")
                missing = [key for key in _LOG_FIELDS if key not in doc]
                if missing:
                    raise ValueError(f"line {number} lacks {missing}")
                not_int = [k for k in (*_TASK_FIELDS, "group", "reward") if type(doc[k]) is not int]
                if not_int:
                    raise ValueError(f"line {number}: {not_int} must be integers")
                if not (_list_of(doc["actions"], int)
                        and _list_of(doc["old_logprobs"], int, float)):
                    raise ValueError(f"line {number}: actions and old_logprobs must be lists "
                                     f"of integers and of numbers")
                if doc["group"] not in rows:
                    rows[doc["group"]] = (array("q"), array("d"), [], set(), set())
                actions, logprobs, rewards, tasks, lengths = rows[doc["group"]]
                try:
                    actions.extend(doc["actions"])
                    logprobs.extend(doc["old_logprobs"])
                except OverflowError as exc:
                    raise ValueError(f"line {number}: actions and old_logprobs must fit int64 "
                                     f"and float64: {exc}") from exc
                if not all(map((0.0).__ge__, doc["old_logprobs"])):  # NaN compares false
                    raise ValueError(f"line {number}: old_logprobs must be log-probabilities "
                                     f"<= 0 (no NaN)")
                rewards.append(doc["reward"])
                tasks.add(tuple(doc[key] for key in _TASK_FIELDS))
                lengths.update((len(doc["actions"]), len(doc["old_logprobs"])))
    groups = []
    for gid in list(rows):
        try:  # popped, so a group's buffers are freed once its arrays are built
            groups.append(_group_from_rows(*rows.pop(gid)))
        except ValueError as exc:
            raise ValueError(f"log group {gid}: {exc}") from exc
    return groups


def _list_of(value, *types: type) -> bool:
    """Whether value is a list whose items are all of exactly these types (no bool)."""
    return isinstance(value, list) and set(map(type, value)) <= set(types)


def _group_from_rows(actions, logprobs, rewards: list[int], tasks: set[tuple],
                     lengths: set[int]) -> RolloutGroup:
    """One group's int64 and float64 buffers, rewards, task tuples and row lengths
    (see read_rollout_log) as a C-contiguous RolloutGroup."""
    if len(tasks) > 1:
        raise ValueError(f"rows of {len(tasks)} different tasks")
    task = ModSumTask(*next(iter(tasks)))
    if lengths != {task.seq_len}:
        raise ValueError(f"rows whose length is not seq_len {task.seq_len}")
    actions = np.frombuffer(actions, dtype=np.int64).reshape(-1, task.seq_len).copy()
    if actions.min() < 0 or actions.max() >= task.vocab_size:
        raise ValueError(f"actions outside [0, {task.vocab_size})")
    earned = _rewards(actions, task)
    if rewards != earned.tolist():  # compared as Python numbers, so no reward overflows
        raise ValueError(f"rewards that contradict their actions: the reward is 1 iff "
                         f"sum(actions) % {task.modulus} == {task.target}")
    return RolloutGroup(task, _episode_states(actions, task.modulus), actions,
                        np.frombuffer(logprobs).reshape(-1, task.seq_len).copy(), earned)
