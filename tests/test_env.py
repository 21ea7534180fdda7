import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from policylab import (
    EnvConfig,
    ModSumTask,
    TabularPolicy,
    Trajectory,
    named_stream,
    read_rollout_log,
    rollout_group,
    sample_episodes,
    sample_task,
    verify_reward,
    write_rollout_log,
)
from policylab.env import RolloutGroup, _episode_states
from policylab.seeding import stream_key


def modsum_success_probability(vocab_size, seq_len, modulus, target):
    """Oracle: exact distribution of (sum of seq_len uniform tokens) mod M
    via dynamic programming over residues."""
    step = np.zeros(modulus)
    for a in range(vocab_size):
        step[a % modulus] += 1.0 / vocab_size
    dist = np.zeros(modulus)
    dist[0] = 1.0
    for _ in range(seq_len):
        nxt = np.zeros(modulus)
        for r in range(modulus):
            for d in range(modulus):
                nxt[(r + d) % modulus] += dist[r] * step[d]
        dist = nxt
    return dist[target]


def test_dp_oracle_matches_brute_force_enumeration():
    # all 4^4 sequences, V=4 T=4 M=5
    counts = [0] * 5
    for seq in product(range(4), repeat=4):
        counts[sum(seq) % 5] += 1
    assert counts == [51, 52, 51, 51, 51]
    for target in range(5):
        assert abs(modsum_success_probability(4, 4, 5, target) - counts[target] / 256) < 1e-12


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(modulus=1)  # reward would be constant
    with pytest.raises(ValueError):
        EnvConfig(vocab_size=1)
    with pytest.raises(ValueError):
        EnvConfig(seq_len=0)
    with pytest.raises(ValueError):
        EnvConfig(train_targets=(5,))
    with pytest.raises(ValueError):
        EnvConfig(train_targets=())
    # a non-integer target is refused, not truncated
    for targets in ((1.5, 2.9), (True,), ("1",)):
        with pytest.raises(ValueError, match="train_targets must be integers"):
            EnvConfig(train_targets=targets)
    with pytest.raises(ValueError, match="train_targets must be a list of integers, got 5"):
        EnvConfig(train_targets=5)
    assert EnvConfig(train_targets=[np.int64(3), 1]).train_targets == (3, 1)
    # a table no machine can hold is refused before the targets are built: sizes that
    # allocate nothing, 10**18 cells (8 EB) and a modulus of 10**12 (a 384 TB table)
    for dims in ((10 ** 6, 10 ** 6, 10 ** 6), (8, 6, 10 ** 12)):
        with pytest.raises(ValueError, match="table whose float64 logits exceed the"):
            EnvConfig(*dims)
    assert EnvConfig().train_targets == (0, 1, 2, 3, 4)  # None resolves to every residue
    assert EnvConfig().num_states == 31


def test_task_validation():
    with pytest.raises(ValueError):
        ModSumTask(8, 6, 5, 5)
    with pytest.raises(ValueError):
        ModSumTask(8, 6, 1, 0)
    task = ModSumTask(8, 6, 5, 2)
    assert task.num_states == 31
    states = _episode_states(np.array([[1, 1, 0, 4, 0, 0]]), task.modulus)[0]
    assert states[0] == 0  # position 0, residue 0
    assert states[3] == 17  # position 3, residue 1 + 1 + 0 = 2


def test_sample_task_reproducible_and_in_range():
    config = EnvConfig()
    targets1 = [sample_task(config, named_stream(4, "t", i)).target for i in range(20)]
    targets2 = [sample_task(config, named_stream(4, "t", i)).target for i in range(20)]
    assert targets1 == targets2
    assert all(0 <= t < 5 for t in targets1)


@pytest.mark.parametrize("root", [0, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3])
def test_named_stream_is_the_seed_sequence_of_its_path(root):
    # the stream is SeedSequence([root, *keys]), whatever the number of
    # 32-bit words a key takes
    for path in [(), ("rollout", 3, 0, 1), (2**32, "update", 0), (2**64 - 1, 2**96 + 1)]:
        keys = [stream_key(p) if isinstance(p, str) else p for p in path]
        expected = np.random.default_rng(np.random.SeedSequence([root, *keys]))
        assert (named_stream(root, *path).bit_generator.state
                == expected.bit_generator.state)


@pytest.mark.parametrize("path", [(-1,), ("label", -3)])
def test_named_stream_refuses_negative_integers(path):
    with pytest.raises(ValueError, match="non-negative"):
        named_stream(0, *path)
    with pytest.raises(ValueError, match="non-negative"):
        named_stream(-1, *path[1:])


def test_sample_task_target_frequencies():
    config = EnvConfig()
    rng = named_stream(13, "freq")
    targets = np.array([sample_task(config, rng).target for _ in range(10_000)])
    freqs = np.bincount(targets, minlength=5) / len(targets)
    assert np.all(freqs >= 0.17) and np.all(freqs <= 0.23)


def test_sample_task_restricted_targets():
    config = EnvConfig(train_targets=(1, 3))
    rng = named_stream(2, "restricted")
    targets = {sample_task(config, rng).target for _ in range(200)}
    assert targets == {1, 3}


def test_verify_reward_examples():
    task = ModSumTask(8, 3, 5, 0)
    t = Trajectory(task, [1, 2, 2], [-1.0, -1.0, -1.0], [0, 1, 8], 1)
    assert verify_reward(t) == 1  # 5 mod 5 == 0
    t = Trajectory(task, [1, 1, 1], [-1.0, -1.0, -1.0], [0, 1, 7], 0)
    assert verify_reward(t) == 0


def test_verify_reward_incomplete():
    task = ModSumTask(8, 3, 5, 0)
    t = Trajectory(ModSumTask(8, 2, 5, 0), [1, 2], [-1.0, -1.0], [0, 1], 1)
    object.__setattr__  # (trajectory is mutable; rebuild with wrong task instead)
    t.task = task
    with pytest.raises(ValueError, match="incomplete"):
        verify_reward(t)


def test_rollout_reward_matches_independent_recomputation():
    config = EnvConfig()
    policy = TabularPolicy.random(config.num_states, 8, 1.0, named_stream(1, "p"))
    rng = named_stream(1, "roll")
    for i in range(50):
        task = sample_task(config, rng)
        for traj in rollout_group(policy, task, 4, rng).trajectories:
            assert traj.reward == int(int(traj.actions.sum()) % task.modulus == task.target)


def test_state_transition_brute_force():
    # exhaustive check of the encoding at V=4, T=3, M=3: from each reachable
    # state (t, r), action a must lead to (t+1, (r + a) mod 3)
    task = ModSumTask(4, 3, 3, 0)
    for t in range(task.seq_len - 1):
        for r in range(task.modulus) if t else (0,):  # position 0 holds residue 0
            for a in range(task.vocab_size):
                row = ([r] + [0] * (t - 1) if t else []) + [a]  # residue r at t, then a
                row += [0] * (task.seq_len - len(row))
                states = _episode_states(np.array([row]), task.modulus)[0]
                here, there = states[t], states[t + 1]
                assert here == t * task.modulus + r
                assert there == (t + 1) * task.modulus + (r + a) % task.modulus
    # and sampled trajectories actually follow it
    policy = TabularPolicy.uniform(task.num_states, 4)
    states, actions, _, _ = sample_episodes(policy, task, 300, named_stream(8, "trans"))
    for row_states, row_actions in zip(states, actions):
        running = 0
        for t in range(3):
            assert row_states[t] == t * 3 + running
            running = (running + int(row_actions[t])) % 3


def test_rollout_group_snapshot_and_determinism():
    config = EnvConfig()
    policy = TabularPolicy.uniform(config.num_states, 8)
    task = ModSumTask(8, 6, 5, 2)
    g1 = rollout_group(policy, task, 8, named_stream(3, "g"))
    g2 = rollout_group(policy, task, 8, named_stream(3, "g"))
    for a, b in zip(g1.trajectories, g2.trajectories):
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.old_logprobs, b.old_logprobs)
        assert a.reward == b.reward


def test_rollout_group_deterministic_policy_identical_members():
    config = EnvConfig(vocab_size=4, seq_len=3, modulus=3)
    logits = np.zeros((config.num_states, 4))
    logits[:, 2] = 60.0  # always action 2
    policy = TabularPolicy(logits)
    group = rollout_group(policy, ModSumTask(4, 3, 3, 0), 4, named_stream(0, "det"))
    first = group.trajectories[0]
    for traj in group.trajectories:
        assert np.array_equal(traj.actions, first.actions)
        assert traj.reward == first.reward
    assert np.array_equal(first.actions, [2, 2, 2])
    assert first.reward == 1  # 6 mod 3 == 0


def test_rollout_group_errors():
    config = EnvConfig()
    policy = TabularPolicy.uniform(config.num_states, 8)
    task = ModSumTask(8, 6, 5, 0)
    with pytest.raises(ValueError, match=">= 2"):
        rollout_group(policy, task, 1, named_stream(0, "x"))
    small = TabularPolicy.uniform(7, 8)
    with pytest.raises(ValueError, match="state space"):
        rollout_group(small, task, 4, named_stream(0, "x"))
    group = rollout_group(policy, task, 4, named_stream(0, "x"))
    for name in ("states", "actions", "old_logprobs"):  # each (G, T) array, cut short
        arrays = {n: getattr(group, n) for n in ("states", "actions", "old_logprobs")}
        arrays[name] = arrays[name][:, :-1]
        with pytest.raises(ValueError, match=r"episode arrays must all have shape \(4, 6\)"):
            RolloutGroup(task, rewards=group.rewards, **arrays)


def test_uniform_policy_mean_reward_matches_enumeration_oracle():
    config = EnvConfig()
    task = ModSumTask(8, 6, 5, 0)
    expected = modsum_success_probability(8, 6, 5, 0)
    assert abs(expected - 0.2) < 1e-3
    policy = TabularPolicy.uniform(config.num_states, 8)
    rewards = sample_episodes(policy, task, 10_000, named_stream(21, "mc"))[3]
    assert abs(np.mean(rewards) - expected) < 0.02


def test_rollout_log_roundtrip(tmp_path):
    config = EnvConfig()
    policy = TabularPolicy.random(config.num_states, 8, 0.7, named_stream(5, "p"))
    rng = named_stream(5, "roll")
    groups = [rollout_group(policy, sample_task(config, rng), 4, rng) for _ in range(3)]
    path = tmp_path / "rollouts.jsonl"
    write_rollout_log(path, groups)
    read = read_rollout_log(path)
    assert len(read) == 3
    for got, orig in zip(read, groups):
        assert got.task == orig.task
        for name in ("states", "actions", "old_logprobs", "rewards"):
            block = getattr(got, name)
            assert block.dtype == getattr(orig, name).dtype
            assert np.array_equal(block, getattr(orig, name))  # bit-exact
            assert block.flags.c_contiguous


def _log_line(group=0, target=0, actions=(1, 2, 3), reward=0, **task):
    doc = {"vocab_size": 8, "seq_len": 3, "modulus": 5, "target": target, **task,
           "group": group, "actions": list(actions),
           "old_logprobs": [-2.0794415416798357] * len(actions), "reward": reward}
    return json.dumps(doc)


def test_rollout_log_groups_by_id_in_first_seen_order(tmp_path):
    # rows join their group wherever they appear; a group keeps its rows in log order
    lines = [_log_line(7, actions=(0, 1, 2)), _log_line(3, target=4),
             _log_line(7, actions=(1, 2, 2), reward=1),
             _log_line(3, target=4, actions=(4, 4, 4))]
    path = tmp_path / "rollouts.jsonl"
    path.write_text("\n".join(lines) + "\n\n")
    first, second = read_rollout_log(path)
    assert first.task.target == 0 and second.task.target == 4
    assert first.actions.tolist() == [[0, 1, 2], [1, 2, 2]]
    assert first.rewards.tolist() == [0.0, 1.0]
    assert first.states.tolist() == [[0, 5, 11], [0, 6, 13]]
    assert second.states.tolist() == [[0, 6, 13], [0, 9, 13]]


def test_log_reader_holds_no_per_row_objects(tmp_path):
    # two interleaved groups of 500 rows, T=6: the reader's traced peak stays
    # below 2.5x the bytes it returns (no RSS or timing bound), and its arrays
    # equal per-row np.array references
    rng = named_stream(11, "log")
    task_of = {9: ModSumTask(8, 6, 5, 3), 4: ModSumTask(8, 6, 5, 1)}
    rows = {gid: [] for gid in task_of}
    lines = []
    for i in range(1000):
        gid = (9, 4)[i % 2]
        actions = rng.integers(0, 8, 6).tolist()
        logprobs = (-rng.exponential(2.0, 6)).tolist()
        reward = int(sum(actions) % 5 == task_of[gid].target)
        rows[gid].append((actions, logprobs, reward))
        lines.append(json.dumps({**task_of[gid].to_dict(), "group": gid, "actions": actions,
                                 "old_logprobs": logprobs, "reward": reward}))
    path = tmp_path / "rollouts.jsonl"
    path.write_text("\n".join(lines) + "\n")

    tracemalloc.start()
    try:
        groups = read_rollout_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = ("states", "actions", "old_logprobs", "rewards")
    returned = sum(getattr(g, name).nbytes for g in groups for name in names)
    assert peak < 2.5 * returned, (peak, returned)

    assert [g.task for g in groups] == list(task_of.values())  # first-seen order
    for group, gid in zip(groups, task_of):
        actions = np.array([a for a, _, _ in rows[gid]], dtype=np.int64)
        reference = {
            "actions": actions,
            "old_logprobs": np.array([lp for _, lp, _ in rows[gid]], dtype=np.float64),
            "rewards": np.array([r for _, _, r in rows[gid]], dtype=np.float64),
            "states": np.array([[t * 5 + sum(row[:t]) % 5 for t in range(6)]
                                for row in actions.tolist()], dtype=np.int64),
        }
        for name, want in reference.items():
            got = getattr(group, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name


MALFORMED_LOGS = {
    "single_row": [_log_line(1), _log_line(0), _log_line(1)],
    "mixed_tasks": [_log_line(0, target=0), _log_line(0, target=1)],
    "ragged_rows": [_log_line(0), _log_line(0, actions=(1, 2))],
    "action_out_of_range": [_log_line(0), _log_line(0, actions=(1, 8, 0))],
    "reward_not_binary": [_log_line(0), _log_line(0, reward=2)],
}


def test_rollout_log_reads_integer_and_infinite_logprobs(tmp_path):
    # json writes an underflowed log-prob as -Infinity, which parses to a float
    doc = {**json.loads(_log_line()), "old_logprobs": [float("-inf"), -1, -2.5]}
    path = tmp_path / "rollouts.jsonl"
    path.write_text(json.dumps(doc) + "\n" + _log_line(actions=(1, 2, 2), reward=1) + "\n")
    assert "-Infinity" in path.read_text()
    (group,) = read_rollout_log(path)
    assert group.old_logprobs[0].tolist() == [-np.inf, -1.0, -2.5]


@pytest.mark.parametrize("name", sorted(MALFORMED_LOGS))
def test_rollout_log_malformed_groups_raise(name, tmp_path):
    path = tmp_path / "rollouts.jsonl"
    path.write_text("\n".join(MALFORMED_LOGS[name]) + "\n")
    with pytest.raises(ValueError, match="log group 0: "):
        read_rollout_log(path)
