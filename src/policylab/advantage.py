"""Group-relative advantage estimation and the dynamic-sampling filter.

Each trajectory's scalar advantage is its reward standardized against the
group: A_i = (r_i - mean(r)) / std(r), with the population std (divide by
G). The population choice puts the two-sample case (1, 0) at exactly
(+1, -1). No epsilon is folded into the std: a zero-variance group either
gets all-zero advantages or is filtered out, decided explicitly by the
caller. standardize_groups states the rule once, row-wise over an
(n_groups, G) reward matrix; the one-group functions are its 1-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .env import RolloutGroup

DEGENERATE_STD = 1e-8

DegeneratePolicy = Literal["zero", "filter"]


@dataclass(eq=False)
class AdvantageBatch:
    """Per-trajectory advantages for one group, plus the group statistics."""

    advantages: np.ndarray
    mean: float
    std: float
    degenerate: bool


def standardize_groups(rewards: np.ndarray,
                       degenerate_policy: DegeneratePolicy = "zero",
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Standardize each row of an (n_groups, G) reward matrix within its row.

    Returns (advantages, means, stds, kept). means and stds have one entry
    per row; a row whose std is below DEGENERATE_STD is degenerate. kept
    indexes the rows degenerate_policy keeps: every row under "zero",
    where a degenerate row's advantages are all zero, and the
    non-degenerate rows under "filter". advantages has one row per kept
    index.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 2:
        raise ValueError(f"rewards must be an (n_groups, G) matrix, got shape {rewards.shape}")
    if rewards.shape[1] < 2:
        raise ValueError(f"group must have >= 2 rewards, got {rewards.shape[1]}")
    if degenerate_policy not in ("zero", "filter"):
        raise ValueError(f"unknown degenerate_policy {degenerate_policy!r}")
    means = rewards.mean(axis=1)
    stds = rewards.std(axis=1)  # population std
    degenerate = stds < DEGENERATE_STD
    scale = np.where(degenerate, 1.0, stds)  # no division by a zero std
    advantages = np.where(degenerate[:, None], 0.0, (rewards - means[:, None]) / scale[:, None])
    if degenerate_policy == "filter":
        kept = np.flatnonzero(~degenerate)
        return advantages[kept], means, stds, kept
    return advantages, means, stds, np.arange(len(rewards))


def advantages_from_rewards(rewards: np.ndarray,
                            degenerate_policy: DegeneratePolicy = "zero",
                            ) -> AdvantageBatch | None:
    """Standardize rewards within a group; None means "filtered out".

    The one-row case of standardize_groups.
    """
    advantages, means, stds, kept = standardize_groups(
        np.asarray(rewards, dtype=np.float64).reshape(1, -1), degenerate_policy)
    if not kept.size:
        return None
    std = float(stds[0])
    return AdvantageBatch(advantages[0], float(means[0]), std, degenerate=std < DEGENERATE_STD)


def group_advantages(group: RolloutGroup,
                     degenerate_policy: DegeneratePolicy = "zero",
                     ) -> AdvantageBatch | None:
    """Group-relative advantages for a rollout group.

    The scalar advantage of trajectory i is broadcast to all its tokens
    downstream (the normalization is response-level).
    """
    return advantages_from_rewards(group.rewards, degenerate_policy)


def dynamic_sampling_filter(groups: list[RolloutGroup]) -> list[RolloutGroup]:
    """Drop groups whose responses all share identical correctness.

    Such groups carry zero normalized advantage and therefore no signal.
    Order of the retained groups is preserved. An empty result is the
    caller's cue to resample.
    """
    retained = []
    for group in groups:
        rewards = group.rewards
        if rewards.max() != rewards.min():
            retained.append(group)
    return retained
