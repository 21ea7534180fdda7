import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policylab import (
    EnvConfig,
    TabularPolicy,
    TokenBatch,
    advantages_from_rewards,
    dynamic_sampling_filter,
    group_advantages,
    named_stream,
    rollout_group,
    sample_task,
)


def _groups(n, seed=0):
    config = EnvConfig()
    policy = TabularPolicy.uniform(config.num_states, 8)
    rng = named_stream(seed, "adv-groups")
    return [rollout_group(policy, sample_task(config, rng), 8, rng) for _ in range(n)]


def test_two_sample_hand_computation():
    batch = advantages_from_rewards(np.array([1.0, 0.0]))
    # mean 0.5, population std 0.5
    assert np.allclose(batch.advantages, [1.0, -1.0])
    assert batch.mean == 0.5 and batch.std == 0.5
    assert not batch.degenerate


def test_four_sample_hand_computation():
    batch = advantages_from_rewards(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(batch.advantages, [1.0, 1.0, -1.0, -1.0])


def test_degenerate_zero_policy():
    batch = advantages_from_rewards(np.ones(8), "zero")
    assert batch.degenerate
    assert np.array_equal(batch.advantages, np.zeros(8))


def test_degenerate_filter_policy():
    assert advantages_from_rewards(np.ones(8), "filter") is None


def test_group_size_and_policy_validation():
    with pytest.raises(ValueError):
        advantages_from_rewards(np.array([1.0]))
    with pytest.raises(ValueError):
        advantages_from_rewards(np.array([1.0, 0.0]), "explode")


def test_normalization_invariants():
    rng = named_stream(1, "norm")
    for _ in range(200):
        rewards = rng.normal(0, 3, size=rng.integers(2, 12))
        batch = advantages_from_rewards(rewards)
        if batch.degenerate:
            continue
        assert abs(batch.advantages.mean()) < 1e-9
        assert abs(batch.advantages.std() - 1.0) < 1e-9


@given(st.lists(st.integers(0, 1), min_size=2, max_size=16),
       st.floats(-5, 5), st.floats(0.01, 100))
@settings(max_examples=300, deadline=None)
def test_shift_and_scale_invariance(rewards, shift, scale):
    rewards = np.array(rewards, dtype=float)
    base = advantages_from_rewards(rewards)
    shifted = advantages_from_rewards(rewards + shift)
    scaled = advantages_from_rewards(rewards * scale)
    if base is None or base.degenerate:
        assert shifted.degenerate and scaled.degenerate
        return
    assert np.allclose(base.advantages, shifted.advantages, atol=1e-9)
    assert np.allclose(base.advantages, scaled.advantages, atol=1e-9)


def test_group_advantages_from_rollout_group():
    group = next(g for g in _groups(20) if 0 < g.rewards.sum() < len(g.trajectories))
    batch = group_advantages(group, "zero")
    assert abs(batch.advantages.mean()) < 1e-9
    recomputed = (group.rewards - group.rewards.mean()) / group.rewards.std()
    assert np.allclose(batch.advantages, recomputed)


def test_broadcast_to_tokens():
    # every token of trajectory i carries exactly the trajectory's scalar advantage
    group = next(g for g in _groups(20, seed=3) if 0 < g.rewards.sum() < 8)
    batch = group_advantages(group, "zero")
    tokens = TokenBatch.from_trajectories(group.trajectories, batch.advantages)
    T = tokens.seq_len
    for i, adv in enumerate(batch.advantages):
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
