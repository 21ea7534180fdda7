"""Bit-exactness of the array paths against token-at-a-time and row-at-a-time forms.

Sampling, ratio lookup, entropy and KL are computed from one probability
matrix per policy version. Each test here pins an array path to the
scalar form it replaced with ``array_equal``/``==``, not a tolerance, on
random tables and on peaked rows whose small probabilities underflow.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from policylab import (
    EmptyBatchError,
    ModSumTask,
    ObjectiveSpec,
    RunConfig,
    TabularPolicy,
    TokenBatch,
    aggregate_objective,
    batch_token_terms,
    clip_terms,
    dynamic_sampling_filter,
    entropy_bonus,
    named_stream,
    standardize_groups,
    verify_reward,
)
from policylab import objectives, trainer
from policylab.env import (
    RolloutGroup,
    Trajectory,
    _rewards,
    rollout_group,
    sample_episodes,
    sample_task,
)
from policylab.gradcheck import ENV
from policylab.objectives import BatchTerms, new_logprob_lookup, token_weights
from policylab.policy import (
    entropy_and_gradient_rows,
    entropy_rows,
    exact_kl,
    kl_rows,
    softmax_rows,
    state_visits,
)
from policylab.trainer import _step
from walks import sample_rows, walk_sizes

MODULUS = 5


def _table(num_states: int, num_actions: int, seed: int) -> TabularPolicy:
    """Random logits with some peaked rows: one dominant action, and some
    actions far enough below it that their probabilities underflow."""
    rng = named_stream(seed, "array-paths")
    logits = rng.normal(0.0, 2.0, size=(num_states, num_actions))
    for s in rng.choice(num_states, size=max(1, num_states // 3), replace=False):
        logits[s, rng.integers(num_actions)] += 760.0
    for s in rng.choice(num_states, size=max(1, num_states // 4), replace=False):
        low = rng.choice(num_actions, size=max(1, num_actions // 2), replace=False)
        logits[s, low] -= 800.0
    return TabularPolicy(logits)


def _sample_action(policy, state, u: float) -> tuple[int, float]:
    """The reference draw: inverse CDF on the uniform u, clamped to the last action."""
    probs = policy.action_probabilities(state)
    cdf = np.cumsum(probs)
    action = int(np.searchsorted(cdf, u, side="right"))
    action = min(action, policy.num_actions - 1)
    return action, float(np.log(probs[action]))


def _one_at_a_time(rng, n, seq_len) -> np.ndarray:
    """n x seq_len uniforms, each from its own scalar rng.random() call."""
    return np.array([[rng.random() for _ in range(seq_len)] for _ in range(n)])


def _token_at_a_time(policy, task, draws) -> list[Trajectory]:
    """The reference sampler: one _sample_action call per token, on its draws[i, t]."""
    out = []
    for row in draws:
        states, actions, logprobs, residue = [], [], [], 0
        for t in range(task.seq_len):
            state = t * task.modulus + residue
            action, lp = _sample_action(policy, state, float(row[t]))
            states.append(state)
            actions.append(action)
            logprobs.append(lp)
            residue = (residue + action) % task.modulus
        traj = Trajectory(task, actions, logprobs, states, reward=0)
        traj.reward = verify_reward(traj)
        out.append(traj)
    return out


def _as_trajectories(task, episodes) -> list[Trajectory]:
    """A walk's (states, actions, logprobs) rows as Trajectory objects of task."""
    return [Trajectory(task, actions, logprobs, states, int(reward))
            for states, actions, logprobs, reward in zip(*episodes, _rewards(episodes[1], task))]


def _assert_same_trajectories(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.old_logprobs, b.old_logprobs)
        assert a.reward == b.reward


@pytest.mark.parametrize("vocab", [2, 8, 9, 32])
@pytest.mark.parametrize("seq_len", [1, 6, 12])
def test_lockstep_sampler_matches_token_at_a_time(vocab, seq_len):
    task = ModSumTask(vocab, seq_len, MODULUS, 3)
    for seed in range(50):
        policy = _table(task.num_states, vocab, seed)
        for n in (1, 4):
            ref_rng = named_stream(seed, "sample", n)
            rng = named_stream(seed, "sample", n)
            expected = _token_at_a_time(policy, task, _one_at_a_time(ref_rng, n, seq_len))
            episodes = sample_rows(policy, task, n, rng)
            _assert_same_trajectories(_as_trajectories(task, episodes), expected)
            # both consumed exactly n * seq_len draws
            assert rng.random() == ref_rng.random()


def test_lockstep_sampler_boundary_draws():
    # draws exactly on a cdf entry go right (side="right"), and a draw at
    # or past the last cdf entry, which can fall short of 1, clamps to the
    # last action; both samplers must agree on every such draw
    task = ModSumTask(3, 1, 2, 0)
    probs = np.array([0.1, 0.2, 0.7])
    policy = TabularPolicy(np.log(np.tile(probs, (task.num_states, 1))))
    cdf = np.cumsum(policy.probability_matrix()[0])
    draws = np.array([0.0, cdf[0], np.nextafter(cdf[0], 0.0), cdf[1], cdf[2],
                      np.nextafter(1.0, 0.0), 0.5])[:, None]  # one episode of one token each
    expected = _token_at_a_time(policy, task, draws)
    got = _as_trajectories(task, sample_episodes(policy, task, draws))
    _assert_same_trajectories(got, expected)
    assert [int(t.actions[0]) for t in got] == [0, 1, 0, 2, 2, 2, 2]


def _assert_groups_are_walks_of_their_own(config, snapshot, step, groups):
    """Each of _step's groups, attempt by attempt, equals a walk of that group alone on
    its own stream's (G, T) uniforms from the snapshot the step started from, bit for bit."""
    n_groups, size = config.prompts_per_batch, config.group_size
    assert groups and len(groups) % n_groups == 0
    for attempt in range(len(groups) // n_groups):
        task_rng = named_stream(config.seed, "tasks", step, attempt)
        for g in range(n_groups):
            task = sample_task(config.train_tasks, task_rng)
            alone = rollout_group(task, *sample_rows(
                snapshot, task, size, named_stream(config.seed, "rollout", step, attempt, g)))
            group = groups[attempt * n_groups + g]
            assert group.task == task
            for name in ("states", "actions", "old_logprobs", "rewards"):
                assert np.array_equal(getattr(group, name), getattr(alone, name)), name


def _lockstep_config(seed, dapo):
    return RunConfig(seed=seed, mini_epochs=1, eval_samples=8, dynamic_sampling=dapo,
                     objective=ObjectiveSpec.for_algorithm("dapo" if dapo else "grpo"))


def _near_deterministic(config, logit=8.0) -> TabularPolicy:
    """Action 0 in every state with all but about 7e-4 of the mass: most dapo groups
    share one reward, so a step resamples (seed 0, step 0: 4 attempts)."""
    logits = np.zeros((config.env.num_states, config.vocab_size))
    logits[:, 0] = logit
    return TabularPolicy(logits)


def test_a_steps_groups_are_rows_of_one_lockstep_pass():
    # _step walks every group of a resampling attempt in one sample_episodes pass;
    # its groups must be the ones 8 independent per-group walks give
    for seed in range(20):
        config = _lockstep_config(seed, dapo=seed % 2 == 1)
        snapshot = _table(config.env.num_states, config.vocab_size, seed)
        step = seed % 7
        _, groups = _step(config, TabularPolicy(snapshot.logits), step)
        _assert_groups_are_walks_of_their_own(config, snapshot, step, groups)
    config = _lockstep_config(0, dapo=True)  # and across the attempts of a step that retries
    _, groups = _step(config, _near_deterministic(config), 0)
    assert len(groups) == 4 * config.prompts_per_batch
    _assert_groups_are_walks_of_their_own(config, _near_deterministic(config), 0, groups)


@pytest.mark.parametrize("seed, attempts", [(1, 1), (0, 4), (3, None)])  # None: every one drains
def test_a_step_walks_once_per_resampling_attempt(monkeypatch, seed, attempts):
    config = _lockstep_config(seed, dapo=True)
    rows = config.prompts_per_batch * config.group_size
    sizes = walk_sizes(monkeypatch, trainer)
    if attempts is None:
        with pytest.raises(EmptyBatchError):
            _step(config, _near_deterministic(config), 0)
        assert sizes == [rows] * config.max_filter_retries
        return
    _, groups = _step(config, _near_deterministic(config), 0)
    assert len(groups) == attempts * config.prompts_per_batch
    # then evaluation walks each eval task's samples once
    assert sizes == [rows] * attempts + [config.eval_samples] * len(config.eval_tasks)


@pytest.mark.parametrize("vocab", [2, 8, 9, 32])
def test_probability_matrix_rows_match_row_forms(vocab):
    for seed in range(20):
        policy = _table(3 * MODULUS + 1, vocab, seed)
        probs = policy.probability_matrix()
        cdf = np.cumsum(probs, axis=1)
        for s in range(policy.num_states):
            # the one-row softmax, written out as a reference
            shifted = policy.logits[s] - policy.logits[s].max()
            row = np.exp(shifted) / np.exp(shifted).sum()
            assert np.array_equal(probs[s], row)
            assert np.array_equal(softmax_rows(policy.logits[s][None])[0], row)
            assert np.array_equal(policy.action_probabilities(s), row)
            assert np.array_equal(cdf[s], np.cumsum(row))


def test_probability_matrix_cached_per_logits_version():
    policy = _table(7, 4, 0)
    first = policy.probability_matrix()
    assert policy.probability_matrix() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        policy.logits[0, 0] = 1.0
    policy.apply_gradient(np.ones((7, 4)) * np.arange(4), 0.5)
    second = policy.probability_matrix()
    assert second is not first
    assert np.array_equal(second, TabularPolicy(policy.logits).probability_matrix())


def test_new_logprob_lookup_matches_row_lookup():
    policy = _table(6 * MODULUS + 1, 8, 4)
    rng = named_stream(4, "lookup")
    states = rng.integers(policy.num_states, size=500)
    actions = rng.integers(8, size=500)
    got = new_logprob_lookup(policy, states, actions)
    with np.errstate(divide="ignore"):
        expected = np.array([np.log(policy.action_probabilities(s)[a])
                             for s, a in zip(states, actions)])
    assert np.array_equal(got, expected)


def test_new_logprob_lookup_underflow_is_minus_inf_without_warning():
    logits = np.zeros((2, 3))
    logits[0, 1] = -800.0  # exp underflows: pi(1|0) == 0
    policy = TabularPolicy(logits)
    assert policy.action_probabilities(0)[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lps = new_logprob_lookup(policy, np.array([0, 0, 1]), np.array([1, 0, 2]))
    assert lps[0] == -np.inf
    assert np.isfinite(lps[1:]).all()
    for bad_state in (-1, 2):  # out of range, never wrapped around
        with pytest.raises(ValueError):
            new_logprob_lookup(policy, np.array([bad_state]), np.array([0]))


def _masked_entropy(probs):
    nz = probs > 0.0
    return float(-(probs[nz] * np.log(probs[nz])).sum())


def _masked_kl(pp, qp):
    support = pp > 0.0
    if np.any(qp[support] == 0.0):
        return float("inf")
    return float((pp[support] * (np.log(pp[support]) - np.log(qp[support]))).sum())


@pytest.mark.parametrize("vocab", [2, 8, 9, 32])
def test_entropy_and_kl_rows_match_per_state_forms(vocab):
    for seed in range(20):
        p = _table(4 * MODULUS + 1, vocab, seed)
        q = _table(4 * MODULUS + 1, vocab, seed + 1000)
        states = np.arange(p.num_states)
        pr, qr = p.probability_matrix()[states], q.probability_matrix()[states]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ent, kl, grad = entropy_rows(pr), kl_rows(pr, qr), entropy_and_gradient_rows(pr)[1]
        for s in states:
            assert ent[s] == p.exact_entropy(s)
            assert kl[s] == exact_kl(p, q, s)
            assert np.array_equal(grad[s], entropy_and_gradient_rows(pr[s][None])[1][0])
            # and against the masked row formulas they replaced: bit for bit
            # where no probability underflowed
            if (pr[s] > 0).all():
                assert ent[s] == _masked_entropy(pr[s])
                assert kl[s] == _masked_kl(pr[s], qr[s])
            else:
                assert ent[s] == pytest.approx(_masked_entropy(pr[s]), rel=1e-15, abs=1e-300)


def test_kl_rows_infinite_sentinel():
    p = TabularPolicy(np.array([[0.0, 0.0], [0.0, -800.0], [0.0, 0.0]]))
    q = TabularPolicy(np.array([[0.0, -800.0], [0.0, -800.0], [0.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kl = kl_rows(p.probability_matrix(), q.probability_matrix())
    # q misses p's support in row 0; row 1 shares the zero, so it is finite
    assert kl[0] == np.inf and exact_kl(p, q, 0) == float("inf")
    assert kl[1] == 0.0 and exact_kl(p, q, 1) == 0.0
    assert kl[2] == 0.0


def _saturated_table(num_states: int, num_actions: int, seed: int) -> TabularPolicy:
    """Logits of -800, 0 and +800: every row with an 800 has underflowed zeros."""
    rng = named_stream(seed, "saturated")
    return TabularPolicy(rng.choice([-800.0, 0.0, 800.0], size=(num_states, num_actions)))


def test_entropy_bonus_matches_per_state_loop():
    for make_table in (_table, _saturated_table):
        _check_entropy_bonus_against_rows(make_table(6 * MODULUS + 1, 8, 9))


def _check_entropy_bonus_against_rows(policy):
    visited = named_stream(9, "visits").integers(policy.num_states, size=60)
    value, grad = entropy_bonus(policy, visited, 0.003)
    states = sorted(set(visited.tolist()))
    expected_value, expected_grad = 0.0, np.zeros_like(grad)
    for s in states:
        expected_value += policy.exact_entropy(s)
        expected_grad[s] = entropy_and_gradient_rows(policy.action_probabilities(s)[None])[1][0]
    assert value == 0.003 * expected_value / len(states)
    assert np.array_equal(grad, (0.003 / len(states)) * expected_grad)
    # the one-log pair equals entropy_rows and a repeat call, and both equal the formulas
    # written out with their own log and row sum, in the same operation order
    probs = policy.probability_matrix()[states]
    assert (probs == 0.0).any()  # underflowed zeros among the visited rows
    entropies, gradients = entropy_and_gradient_rows(probs)
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0.0, np.log(probs), 0.0)
    assert np.array_equal(entropies, entropy_rows(probs))
    assert np.array_equal(entropies, -(probs * logp).sum(axis=1))
    assert np.array_equal(gradients, entropy_and_gradient_rows(probs)[1])
    assert np.array_equal(gradients, -probs * (logp - (probs * logp).sum(axis=1, keepdims=True)))
    with pytest.raises(ValueError):
        entropy_bonus(policy, [policy.num_states], 0.003)


@pytest.mark.parametrize("states", [
    named_stream(3, "visits").integers(193, size=500),
    np.array([3, 3, 3, 1, 1, 3]),
    np.array([7]),
    np.array([192, 0, 0, 192, 5]),
    np.array([], dtype=np.int64),
    named_stream(4, "visits").integers(193, size=(8, 12)),
], ids=["random", "repeated", "single_state", "boundary", "empty", "group_matrix"])
def test_state_visits_matches_numpy_unique(states):
    table = TabularPolicy.uniform(193, 4)
    visited, counts = state_visits(table, states)
    expected_visited, expected_counts = np.unique(states, return_counts=True)
    for got, expected in ((visited, expected_visited), (counts, expected_counts)):
        assert got.dtype == np.int64 == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("bad", [-1, 193])
def test_state_visits_rejects_states_outside_the_table(bad):
    table = TabularPolicy.uniform(193, 4)
    with pytest.raises(ValueError, match=r"states outside \[0, 193\)"):
        state_visits(table, np.array([0, bad, 5]))


@pytest.mark.parametrize("seq_len", [3, 12])
def test_vectorized_gspo_matches_sequence_terms(seq_len):
    spec = ObjectiveSpec.for_algorithm("gspo", eps_low=0.05, eps_high=0.05)
    n_traj = 40
    rng = named_stream(seq_len, "gspo")
    n = n_traj * seq_len
    states = rng.integers(10, size=n)
    actions = rng.integers(6, size=n)
    live = TabularPolicy(rng.normal(0.0, 1.0, size=(10, 6)))
    old_logprobs = new_logprob_lookup(live, states, actions) + rng.normal(0.0, 0.1, size=n)
    advantages = np.repeat(rng.normal(0.0, 1.0, size=n_traj), seq_len)
    slices = [slice(i * seq_len, (i + 1) * seq_len) for i in range(n_traj)]
    batch = TokenBatch(states, actions, old_logprobs, advantages, seq_len=seq_len)
    terms = batch_token_terms(spec, batch, live)
    codes = set()
    for sl in slices:
        # one sequence at a time: the (n, T) row mean and repeat must not mix rows
        values, weights, seq_codes = clip_terms(spec, terms.deltas[sl], advantages[sl], seq_len)
        assert terms.values[sl].tolist() == values.tolist()
        assert terms.grad_weights[sl].tolist() == weights.tolist()
        assert terms.branch_codes[sl].tolist() == seq_codes.tolist()
        codes.update(seq_codes.tolist())
    assert codes == {0, 1, 2}


# -- the (n, T) layout of rollout groups and token batches ----------------------


def test_rollout_group_rows_match_token_at_a_time():
    for vocab, seq_len in ((8, 6), (32, 12)):
        task = ModSumTask(vocab, seq_len, MODULUS, 2)
        for seed in range(10):
            policy = _table(task.num_states, vocab, seed)
            group = rollout_group(task, *sample_rows(policy, task, 8, named_stream(seed, "group")))
            expected = _token_at_a_time(
                policy, task, _one_at_a_time(named_stream(seed, "group"), 8, seq_len))
            _assert_same_trajectories(group.trajectories, expected)
            assert all(t.task == task for t in group.trajectories)
            assert group.rewards.dtype == np.float64
            assert group.rewards.tolist() == [t.reward for t in expected]
            for name in ("states", "actions", "old_logprobs"):
                block = getattr(group, name)
                assert block.shape == (8, seq_len)
                assert block.flags.c_contiguous


def test_entropy_sampled_from_blocks_matches_stacked_rows():
    # the trainer reduces concatenated group blocks; the stack of
    # trajectory rows it replaced is the reference
    task = ModSumTask(32, 12, 16, 5)
    for seed in range(10):
        policy = TabularPolicy.random(task.num_states, 32, 0.8, named_stream(seed, "ent"))
        rng = named_stream(seed, "ent-rollout")
        groups = [rollout_group(task, *sample_rows(policy, task, 8, rng)) for _ in range(4)]
        blocks = np.concatenate([g.old_logprobs for g in groups])
        stacked = np.stack([t.old_logprobs for g in groups for t in g.trajectories])
        got = float(np.mean(-blocks.mean(axis=1)))
        assert got == float(np.mean(-stacked.mean(axis=1)))


def test_sampling_cdf_is_the_cumsum_without_its_last_column():
    policy = _table(3 * MODULUS + 1, 9, 4)
    cdf = policy.sampling_cdf()
    assert np.array_equal(cdf, np.cumsum(policy.probability_matrix(), axis=1)[:, :-1])
    assert cdf.flags.c_contiguous and not cdf.flags.writeable
    assert policy.sampling_cdf() is cdf
    policy.apply_gradient(np.ones_like(policy.logits), 0.1)
    assert policy.sampling_cdf() is not cdf


def _slice_gather_subset(batch, traj_indices):
    """The slice-list subset the fixed-length index computation replaced."""
    T = batch.seq_len
    slices = [slice(i * T, (i + 1) * T) for i in range(batch.n_trajectories)]
    take = np.concatenate([np.arange(slices[i].start, slices[i].stop) for i in traj_indices])
    return [getattr(batch, name)[take]
            for name in ("states", "actions", "old_logprobs", "advantages")]


def test_subset_matches_slice_gather():
    for seed in range(25):
        rng = named_stream(seed, "subset")
        n_traj, seq_len = int(rng.integers(1, 20)), int(rng.integers(1, 13))
        n = n_traj * seq_len
        batch = TokenBatch(rng.integers(10, size=n), rng.integers(6, size=n),
                           rng.normal(size=n),
                           np.repeat(rng.normal(size=n_traj), seq_len), seq_len=seq_len)
        picks = rng.integers(n_traj, size=int(rng.integers(1, 2 * n_traj + 1)))
        sub = batch.subset(picks)  # repeats included
        expected = _slice_gather_subset(batch, picks)
        assert sub.seq_len == seq_len and sub.n_trajectories == len(picks)
        for got, ref in zip((sub.states, sub.actions, sub.old_logprobs, sub.advantages),
                            expected):
            assert np.array_equal(got, ref)
        # an ndarray slice, as the trainer passes, and a plain list agree
        assert np.array_equal(batch.subset(picks.tolist()).states, sub.states)


def test_bincount_scatter_matches_add_at_with_repeated_pairs():
    spec = ObjectiveSpec.for_algorithm("ce_gppo")
    for seed in range(20):
        rng = named_stream(seed, "scatter")
        # few states and actions, so (state, action) pairs repeat many times
        n = 6 * 16
        states, actions = rng.integers(3, size=n), rng.integers(4, size=n)
        live = TabularPolicy(rng.normal(0.0, 1.0, size=(3, 4)))
        old_logprobs = new_logprob_lookup(live, states, actions) + rng.normal(0.0, 0.3, size=n)
        batch = TokenBatch(states, actions, old_logprobs,
                           np.repeat(rng.normal(size=16), 6), seq_len=6)
        terms = batch_token_terms(spec, batch, live)
        _, grad = aggregate_objective(terms, batch, live)
        coeff = token_weights(batch) * terms.grad_weights * batch.advantages
        expected = np.zeros((3, 4))
        np.add.at(expected, (states, actions), coeff)
        state_coeff = np.bincount(states, weights=coeff, minlength=3)
        expected -= state_coeff[:, None] * live.probability_matrix()
        assert np.array_equal(grad, expected)


def test_aggregate_rejects_out_of_range_actions():
    # a flat state * V + action index would alias such a token to another cell
    policy = TabularPolicy.uniform(3, 4)
    for bad in (-1, 4):
        batch = TokenBatch(np.array([0, 1]), np.array([0, bad]), np.zeros(2), np.ones(2),
                           seq_len=2)
        terms = BatchTerms(np.ones(2), np.ones(2), np.zeros(2, dtype=np.int64), np.ones(2))
        with pytest.raises(ValueError, match="actions outside"):
            aggregate_objective(terms, batch, policy)


def test_from_groups_matches_from_trajectories():
    config = ENV
    tasks = [config.task(t) for t in range(config.modulus)]
    dropped = 0
    for seed in range(6):
        rng = named_stream(seed, "from-groups")
        policy = TabularPolicy.random(config.num_states, config.vocab_size, 1.0, rng)
        groups = []
        for _ in range(12):
            task = sample_task(tasks, rng)
            groups.append(rollout_group(task, *sample_rows(policy, task, 8, rng)))
        # dapo-style: the dynamic-sampling filter drops groups, then advantages
        retained = dynamic_sampling_filter(groups)
        dropped += len(groups) - len(retained)
        got = TokenBatch.from_groups(retained)
        # the batch's advantages: each group's row of the stacked rewards'
        # standardization, repeated over its trajectories' tokens
        advantages = standardize_groups(np.stack([g.rewards for g in retained]))[0]
        assert np.array_equal(got.advantages, np.repeat(advantages.ravel(), got.seq_len))
        ref = TokenBatch.from_trajectories(
            [t for g in retained for t in g.trajectories], advantages.ravel().tolist())
        assert got.seq_len == ref.seq_len
        for name in ("states", "actions", "old_logprobs", "advantages"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert np.array_equal(a, b)
    assert dropped > 0  # the filter acted


def _error(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_from_groups_rejects_what_from_trajectories_rejects():
    def group(seq_len):
        zeros = np.zeros((2, seq_len), dtype=np.int64)
        return RolloutGroup(ModSumTask(8, seq_len, 5, 0), zeros, zeros, zeros.astype(float),
                            np.array([0.0, 1.0]))

    assert _error(lambda: TokenBatch.from_groups([])) == _error(
        lambda: TokenBatch.from_trajectories([], [])) == "token batch is empty"
    mixed = [group(2), group(3)]
    message = _error(lambda: TokenBatch.from_groups(mixed))
    assert "mixed lengths" in message
    assert message == _error(lambda: TokenBatch.from_trajectories(
        [t for g in mixed for t in g.trajectories], [-1.0, 1.0, -1.0, 1.0]))


@pytest.mark.parametrize("states, actions, message", [
    ([0, 3], [0, 1], "states outside"),
    ([-1, 0], [0, 1], "states outside"),
    ([0, 1], [0, 4], "actions outside"),
    ([0, 1], [-1, 0], "actions outside"),
], ids=["state_high", "state_negative", "action_high", "action_negative"])
def test_out_of_range_tokens_raise(states, actions, message):
    # a flat state * V + action index would alias such a token to another cell
    policy = TabularPolicy.uniform(3, 4)
    spec = ObjectiveSpec.for_algorithm("grpo")

    def batch():
        return TokenBatch(np.array(states), np.array(actions), np.zeros(2), np.ones(2),
                          seq_len=2)

    terms = BatchTerms(np.ones(2), np.ones(2), np.zeros(2, dtype=np.int64), np.ones(2))
    with pytest.raises(ValueError, match=message):
        batch_token_terms(spec, batch(), policy)
    with pytest.raises(ValueError, match=message):
        aggregate_objective(terms, batch(), policy)
    with pytest.raises(ValueError, match=message):
        new_logprob_lookup(policy, np.array(states), np.array(actions))


def test_cell_index_is_checked_per_table_shape():
    batch = TokenBatch(np.array([0, 5, 2, 6]), np.array([1, 0, 3, 2]), np.zeros(4),
                       np.ones(4), seq_len=2)
    cells = batch.cell_index(TabularPolicy.uniform(7, 4))
    assert cells.tolist() == [1, 20, 11, 26]
    # cached for the shape, whichever table of that shape asks
    assert batch.cell_index(TabularPolicy.uniform(7, 4)) is cells
    # another shape is another index, checked again
    assert batch.cell_index(TabularPolicy.uniform(7, 5)).tolist() == [1, 25, 13, 32]
    spec = ObjectiveSpec.for_algorithm("grpo")
    with pytest.raises(ValueError, match="states outside"):
        batch_token_terms(spec, batch, TabularPolicy.uniform(6, 5))
    with pytest.raises(ValueError, match="actions outside"):
        batch_token_terms(spec, batch, TabularPolicy.uniform(7, 3))


def test_gathers_and_slices_of_a_checked_batch_inherit_its_cells(monkeypatch):
    rng = named_stream(2, "inherit")
    n_traj, seq_len = 10, 3
    n = n_traj * seq_len
    batch = TokenBatch(rng.integers(31, size=n), rng.integers(8, size=n), rng.normal(size=n),
                       np.repeat(rng.normal(size=n_traj), seq_len), seq_len=seq_len)
    policy = TabularPolicy.uniform(31, 8)
    unchecked_perm = rng.permutation(n_traj)
    unchecked = batch.subset(unchecked_perm)  # taken before any check
    batch.cell_index(policy)
    checks = []
    original = objectives.flat_cell_index
    monkeypatch.setattr(objectives, "flat_cell_index",
                        lambda *args: checks.append(1) or original(*args))
    perm = rng.permutation(n_traj)
    shuffled = batch.subset(perm)
    chunk = 4
    for start in range(0, n_traj, chunk):
        sub = shuffled.rows(start, start + chunk)
        # the minibatch the trainer took before: a gather of the permutation's chunk
        ref = TokenBatch(*(getattr(batch.subset(perm[start:start + chunk]), name)
                           for name in ("states", "actions", "old_logprobs", "advantages")),
                         seq_len=seq_len)
        assert sub.n_trajectories == ref.n_trajectories == len(perm[start:start + chunk])
        for name in ("states", "actions", "old_logprobs", "advantages"):
            assert np.array_equal(getattr(sub, name), getattr(ref, name))
            assert np.shares_memory(getattr(sub, name), getattr(shuffled, name))
        assert np.array_equal(sub.cell_index(policy), sub.states * 8 + sub.actions)
        assert np.shares_memory(sub.cell_index(policy), shuffled.cell_index(policy))
    assert checks == []  # every part inherited its cells
    assert np.array_equal(ref.cell_index(policy), ref.states * 8 + ref.actions)
    assert np.array_equal(unchecked.cell_index(policy), unchecked.states * 8 + unchecked.actions)
    assert len(checks) == 2  # the fresh batch and the one gathered before the check
