"""Group-relative advantage estimation and the dynamic-sampling filter.

Each trajectory's scalar advantage is its reward standardized against the
group: A_i = (r_i - mean(r)) / std(r), with the population std (divide by
G). The population choice puts the two-sample case (1, 0) at exactly
(+1, -1). No epsilon is folded into the std: a zero-variance group gets
all-zero advantages. Dropping such groups is the dynamic-sampling
filter's job, before advantages are taken. standardize_groups states the
rule once, row-wise over an (n_groups, G) reward matrix; group_advantages
is its 1-row case.
"""

from __future__ import annotations

import numpy as np

from .env import RolloutGroup

DEGENERATE_STD = 1e-8


def standardize_groups(rewards: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize each row of an (n_groups, G) reward matrix within its row.

    Returns (advantages, means, stds), the last two with one entry per
    row. A row whose std is below DEGENERATE_STD is degenerate, and its
    advantages are all zero.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 2:
        raise ValueError(f"rewards must be an (n_groups, G) matrix, got shape {rewards.shape}")
    if rewards.shape[1] < 2:
        raise ValueError(f"group must have >= 2 rewards, got {rewards.shape[1]}")
    means = rewards.mean(axis=1)
    stds = rewards.std(axis=1)  # population std
    degenerate = stds < DEGENERATE_STD
    scale = np.where(degenerate, 1.0, stds)  # no division by a zero std
    advantages = np.where(degenerate[:, None], 0.0, (rewards - means[:, None]) / scale[:, None])
    return advantages, means, stds


def group_advantages(group: RolloutGroup) -> np.ndarray:
    """The (G,) advantages of one rollout group: the 1-row case of standardize_groups."""
    return standardize_groups(group.rewards[None])[0][0]


def dynamic_sampling_filter(groups: list[RolloutGroup]) -> list[RolloutGroup]:
    """Drop the groups standardize_groups calls degenerate (std below DEGENERATE_STD):
    their advantages are all zero, so they carry no signal (with 0/1 rewards,
    every response shares one correctness). Groups must share a size; the
    retained keep their order, and an empty result is the caller's cue to resample."""
    if not groups:  # np.stack needs at least one row
        return []
    stds = standardize_groups(np.stack([group.rewards for group in groups]))[2]
    return [group for group, std in zip(groups, stds) if std >= DEGENERATE_STD]
