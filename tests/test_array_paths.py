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
    Branch,
    ModSumTask,
    ObjectiveSpec,
    TabularPolicy,
    TokenBatch,
    TokenTerm,
    aggregate_objective,
    batch_token_terms,
    entropy_bonus,
    gspo_sequence_terms,
    named_stream,
    verify_reward,
)
from policylab.env import Trajectory, rollout_group, rollout_trajectory, sample_trajectories
from policylab.objectives import new_logprob_lookup, token_weights
from policylab.policy import (
    entropy_gradient_rows,
    entropy_logit_gradient,
    entropy_rows,
    exact_kl,
    kl_rows,
    softmax_rows,
)

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


def _token_at_a_time(policy, task, n, rng) -> list[Trajectory]:
    """The reference sampler: one sample_action call per token."""
    out = []
    for _ in range(n):
        states, actions, logprobs, residue = [], [], [], 0
        for t in range(task.seq_len):
            state = task.state_id(t, residue)
            action, lp = policy.sample_action(state, rng)
            states.append(state)
            actions.append(action)
            logprobs.append(lp)
            residue = (residue + action) % task.modulus
        traj = Trajectory(task, actions, logprobs, states, reward=0)
        traj.reward = verify_reward(traj)
        out.append(traj)
    return out


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
            expected = _token_at_a_time(policy.snapshot(), task, n, ref_rng)
            _assert_same_trajectories(sample_trajectories(policy.snapshot(), task, n, rng),
                                      expected)
            # both consumed exactly n * seq_len draws
            assert rng.random() == ref_rng.random()
        one = rollout_trajectory(policy, task, named_stream(seed, "one"))
        _assert_same_trajectories([one], _token_at_a_time(policy, task, 1,
                                                          named_stream(seed, "one")))


class _ScriptedDraws:
    """Stands in for a Generator: returns the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        count = int(np.prod(size))
        taken, self.values = self.values[:count], self.values[count:]
        return np.array(taken).reshape(size)


def test_lockstep_sampler_boundary_draws():
    # draws exactly on a cdf entry go right (side="right"), and a draw at
    # or past the last cdf entry, which can fall short of 1, clamps to the
    # last action; both samplers must agree on every such draw
    task = ModSumTask(3, 1, 2, 0)
    probs = np.array([0.1, 0.2, 0.7])
    policy = TabularPolicy(np.log(np.tile(probs, (task.num_states, 1))))
    cdf = np.cumsum(policy.probability_matrix()[0])
    draws = [0.0, cdf[0], np.nextafter(cdf[0], 0.0), cdf[1], cdf[2],
             np.nextafter(1.0, 0.0), 0.5]
    expected = _token_at_a_time(policy, task, len(draws), _ScriptedDraws(draws))
    got = sample_trajectories(policy, task, len(draws), _ScriptedDraws(draws))
    _assert_same_trajectories(got, expected)
    assert [int(t.actions[0]) for t in got] == [0, 1, 0, 2, 2, 2, 2]


@pytest.mark.parametrize("vocab", [2, 8, 9, 32])
def test_probability_matrix_rows_match_row_forms(vocab):
    for seed in range(20):
        policy = _table(3 * MODULUS + 1, vocab, seed)
        probs = policy.probability_matrix()
        cdf = np.cumsum(probs, axis=1)
        with np.errstate(divide="ignore"):
            logs = np.log(probs)
        for s in range(policy.num_states):
            # the one-row softmax, written out as a reference
            shifted = policy.logits[s] - policy.logits[s].max()
            row = np.exp(shifted) / np.exp(shifted).sum()
            assert np.array_equal(probs[s], row)
            assert np.array_equal(softmax_rows(policy.logits[s][None])[0], row)
            assert np.array_equal(policy.action_probabilities(s), row)
            assert np.array_equal(cdf[s], np.cumsum(row))
            assert np.array_equal(logs[s], policy.log_probabilities(s))


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
    snap = policy.snapshot()
    assert snap.snapshot() is snap


def test_new_logprob_lookup_matches_row_lookup():
    policy = _table(6 * MODULUS + 1, 8, 4)
    rng = named_stream(4, "lookup")
    states = rng.integers(policy.num_states, size=500)
    actions = rng.integers(8, size=500)
    got = new_logprob_lookup(policy, states, actions)
    expected = np.array([policy.log_probabilities(int(s))[a] for s, a in zip(states, actions)])
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
            ent, kl, grad = entropy_rows(pr), kl_rows(pr, qr), entropy_gradient_rows(pr)
        for s in states:
            assert ent[s] == p.exact_entropy(s)
            assert kl[s] == exact_kl(p, q, s)
            assert np.array_equal(grad[s], entropy_logit_gradient(p, s))
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


def test_entropy_bonus_matches_per_state_loop():
    policy = _table(6 * MODULUS + 1, 8, 9)
    visited = named_stream(9, "visits").integers(policy.num_states, size=60)
    value, grad = entropy_bonus(policy, visited, 0.003)
    states = sorted(set(visited.tolist()))
    expected_value, expected_grad = 0.0, np.zeros_like(grad)
    for s in states:
        expected_value += policy.exact_entropy(s)
        expected_grad[s] = entropy_logit_gradient(policy, s)
    assert value == 0.003 * expected_value / len(states)
    assert np.array_equal(grad, (0.003 / len(states)) * expected_grad)
    with pytest.raises(ValueError):
        entropy_bonus(policy, [policy.num_states], 0.003)


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
        expected = gspo_sequence_terms(terms.deltas[sl], float(advantages[sl.start]),
                                       spec.eps_low, spec.eps_high)
        assert terms.values[sl].tolist() == [t.value for t in expected]
        assert terms.grad_weights[sl].tolist() == [t.grad_weight for t in expected]
        assert terms.branches()[sl] == [t.branch for t in expected]
        codes.update(terms.branch_codes[sl].tolist())
    assert codes == {0, 1, 2}


# -- the (n, T) layout of rollout groups and token batches ----------------------


def test_rollout_group_rows_match_sample_trajectories():
    for vocab, seq_len in ((8, 6), (32, 12)):
        task = ModSumTask(vocab, seq_len, MODULUS, 2)
        for seed in range(10):
            policy = _table(task.num_states, vocab, seed)
            group = rollout_group(policy, task, 8, named_stream(seed, "group"))
            expected = sample_trajectories(policy.snapshot(), task, 8,
                                           named_stream(seed, "group"))
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
        groups = [rollout_group(policy, task, 8, rng) for _ in range(4)]
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
        _, grad = aggregate_objective(terms, batch, live, spec.aggregation)
        coeff = token_weights(batch, spec.aggregation) * terms.grad_weights * batch.advantages
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
        terms = [TokenTerm(1.0, 1.0, Branch.INTERIOR)] * 2
        with pytest.raises(ValueError, match="actions outside"):
            aggregate_objective(terms, batch, policy, "token_mean")
