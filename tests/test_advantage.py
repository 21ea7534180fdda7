import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policylab import (
    TabularPolicy,
    TokenBatch,
    dynamic_sampling_filter,
    group_advantages,
    named_stream,
    rollout_group,
    sample_task,
    standardize_groups,
)
from policylab.advantage import DEGENERATE_STD
from policylab.gradcheck import ENV
from policylab.env import ModSumTask, RolloutGroup
from walks import sample_rows


def _groups(n, seed=0):
    tasks = [ENV.task(t) for t in range(ENV.modulus)]
    policy = TabularPolicy.uniform(ENV.num_states, 8)
    rng = named_stream(seed, "adv-groups")
    groups = []
    for _ in range(n):
        task = sample_task(tasks, rng)
        groups.append(rollout_group(task, *sample_rows(policy, task, 8, rng)))
    return groups


def _row(rewards):
    """standardize_groups of one reward row: (advantages, mean, std)."""
    advantages, means, stds = standardize_groups(np.asarray(rewards, dtype=float)[None])
    return advantages[0], float(means[0]), float(stds[0])


def _group(rewards):
    rewards = np.asarray(rewards, dtype=np.float64)
    zeros = np.zeros((len(rewards), 3), dtype=np.int64)
    return RolloutGroup(ModSumTask(8, 3, 5, 0), zeros, zeros, zeros.astype(float), rewards)


def test_two_sample_hand_computation():
    advantages, mean, std = _row([1.0, 0.0])
    # mean 0.5, population std 0.5
    assert np.allclose(advantages, [1.0, -1.0])
    assert mean == 0.5 and std == 0.5
    assert not std < DEGENERATE_STD


def test_four_sample_hand_computation():
    advantages, _, _ = _row([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(advantages, [1.0, 1.0, -1.0, -1.0])


def test_degenerate_zero_policy():
    advantages, _, std = _row(np.ones(8))
    assert std < DEGENERATE_STD
    assert np.array_equal(advantages, np.zeros(8))


def test_group_size_and_policy_validation():
    # a one-sample group is rejected both as a rollout group and as a reward row
    with pytest.raises(ValueError, match="group size must be >= 2"):
        _group([1.0])
    with pytest.raises(ValueError, match=">= 2 rewards"):
        _row([1.0])


def test_normalization_invariants():
    rng = named_stream(1, "norm")
    for _ in range(200):
        advantages, _, std = _row(rng.normal(0, 3, size=rng.integers(2, 12)))
        if std < DEGENERATE_STD:
            continue
        assert abs(advantages.mean()) < 1e-9
        assert abs(advantages.std() - 1.0) < 1e-9


def _one_group_reference(rewards):
    """The per-group rule the row-wise one replaced: 1-D mean and population std."""
    mean, std = float(rewards.mean()), float(rewards.std())
    if std < DEGENERATE_STD:
        return np.zeros_like(rewards), mean, std
    return (rewards - mean) / std, mean, std


@pytest.mark.parametrize("group_size", [2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 64, 130, 300])
def test_standardize_groups_matches_per_group_rule(group_size):
    rng = named_stream(group_size, "standardize-groups")
    rewards = rng.normal(0.0, 2.0, size=(12, group_size))
    rewards[3] = 1.5  # degenerate: constant
    rewards[5] = 0.0
    rewards[8] = 0.3 + 1e-10 * rng.normal(size=group_size)  # degenerate: std ~1e-10
    rewards[10] = rng.integers(2, size=group_size)  # 0/1 rewards, as rollouts give
    advantages, means, stds = standardize_groups(rewards)
    assert advantages.shape == rewards.shape
    for i, row in enumerate(rewards):
        ref_adv, ref_mean, ref_std = _one_group_reference(row)
        # bit for bit, and the row-wise statistics equal the 1-D ones
        assert np.array_equal(advantages[i], ref_adv)
        assert not np.signbit(advantages[i][advantages[i] == 0.0]).any()
        assert means[i] == ref_mean and stds[i] == ref_std
        # the one-group API is the 1-row case of the same rule
        assert np.array_equal(group_advantages(_group(row)), ref_adv)
    # the degenerate rows really are degenerate
    assert {3, 5, 8} <= set(np.flatnonzero(stds < DEGENERATE_STD).tolist())


def test_standardize_groups_validation():
    with pytest.raises(ValueError, match="matrix"):
        standardize_groups(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=">= 2 rewards"):
        standardize_groups(np.ones((3, 1)))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=16),
       st.floats(-5, 5), st.floats(0.01, 100))
@settings(max_examples=300, deadline=None)
def test_shift_and_scale_invariance(rewards, shift, scale):
    rewards = np.array(rewards, dtype=float)
    base, _, base_std = _row(rewards)
    shifted, _, shifted_std = _row(rewards + shift)
    scaled, _, scaled_std = _row(rewards * scale)
    if base_std < DEGENERATE_STD:
        assert shifted_std < DEGENERATE_STD and scaled_std < DEGENERATE_STD
        return
    assert np.allclose(base, shifted, atol=1e-9)
    assert np.allclose(base, scaled, atol=1e-9)


def test_group_advantages_from_rollout_group():
    group = next(g for g in _groups(20) if 0 < g.rewards.sum() < len(g.trajectories))
    advantages = group_advantages(group)
    assert abs(advantages.mean()) < 1e-9
    recomputed = (group.rewards - group.rewards.mean()) / group.rewards.std()
    assert np.allclose(advantages, recomputed)


def test_broadcast_to_tokens():
    # every token of trajectory i carries exactly the trajectory's scalar advantage
    group = next(g for g in _groups(20, seed=3) if 0 < g.rewards.sum() < 8)
    advantages = group_advantages(group)
    tokens = TokenBatch.from_trajectories(group.trajectories, advantages)
    T = tokens.seq_len
    for i, adv in enumerate(advantages):
        assert np.all(tokens.advantages[i * T:(i + 1) * T] == adv)


def test_dynamic_sampling_filter_removes_uniform_groups():
    groups = _groups(30, seed=5)
    retained = dynamic_sampling_filter(groups)
    retained_ids = {id(g) for g in retained}
    for group in retained:
        assert group.rewards.max() != group.rewards.min()
    for group in groups:
        if id(group) not in retained_ids:
            assert group.rewards.max() == group.rewards.min()
    # order preserved
    it = iter(groups)
    for group in retained:
        while next(it) is not group:
            pass


def test_dynamic_sampling_filter_examples():
    groups = _groups(40, seed=9)
    all_same = [g for g in groups if g.rewards.max() == g.rewards.min()]
    mixed = [g for g in groups if g.rewards.max() != g.rewards.min()]
    assert all_same and mixed  # the seed provides both kinds
    batch = [mixed[0], all_same[0], mixed[1]]
    retained = dynamic_sampling_filter(batch)
    assert retained == [mixed[0], mixed[1]]
    assert dynamic_sampling_filter([all_same[0]]) == []
    assert dynamic_sampling_filter([]) == []
