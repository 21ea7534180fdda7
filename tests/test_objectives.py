import math

import numpy as np
import pytest

from policylab import (
    Branch,
    EnvConfig,
    ModSumTask,
    ObjectiveSpec,
    TabularPolicy,
    TokenBatch,
    TokenTerm,
    Trajectory,
    aggregate_objective,
    batch_token_terms,
    ce_gppo_token_term,
    cispo_token_term,
    dapo_token_term,
    entropy_bonus,
    gspo_sequence_terms,
    named_stream,
    ppo_token_term,
    token_term,
)
from policylab.objectives import new_logprob_lookup, token_weights
from policylab.policy import entropy_logit_gradient


# ---------------------------------------------------------------------------
# spec construction and defaults
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(algorithm="trpo")
    with pytest.raises(ValueError):
        ObjectiveSpec(eps=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps=1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_low=1.2)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_high=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(beta1=-0.1)
    with pytest.raises(ValueError):
        ObjectiveSpec(alpha=float("nan"))
    with pytest.raises(ValueError):
        ObjectiveSpec(aggregation="mean")


def test_for_algorithm_defaults():
    assert ObjectiveSpec.for_algorithm("dapo").eps_high == 0.28
    assert ObjectiveSpec.for_algorithm("dapo").clip_bounds() == (0.8, 1.28)
    assert ObjectiveSpec.for_algorithm("gspo").clip_bounds() == (1 - 3e-4, 1 + 4e-4)
    assert ObjectiveSpec.for_algorithm("cispo").clip_bounds() == (0.8, 1.2)
    assert ObjectiveSpec.for_algorithm("grpo").aggregation == "sequence_mean"
    ce = ObjectiveSpec.for_algorithm("ce_gppo")
    assert (ce.beta1, ce.beta2) == (0.5, 1.0)
    assert ce.aggregation == "token_mean"
    assert ce.with_betas(0.0, 1.0).beta1 == 0.0


# ---------------------------------------------------------------------------
# per-token terms
# ---------------------------------------------------------------------------

def test_ppo_identity_ratio():
    term = ppo_token_term(1.0, 0.7, 0.2)
    assert term.value == pytest.approx(0.7)
    assert term.grad_weight == 1.0
    assert term.branch is Branch.INTERIOR


def test_ppo_right_clipped():
    term = ppo_token_term(1.5, 1.0, 0.2)
    # oracle: min(1.5*1, clip(1.5, .8, 1.2)*1) = 1.2
    assert term.value == pytest.approx(min(1.5, 1.2))
    assert term.grad_weight == 0.0
    assert term.branch is Branch.RIGHT_CLIPPED


def test_ppo_pessimistic_keeps_ratio():
    term = ppo_token_term(0.5, 1.0, 0.2)
    # oracle: min(0.5, 0.8) = 0.5; the unclipped branch stays active
    assert term.value == pytest.approx(0.5)
    assert term.grad_weight == pytest.approx(0.5)
    assert term.branch is Branch.INTERIOR


def test_ppo_matches_min_clip_oracle_everywhere():
    rng = named_stream(0, "ppo-oracle")
    for _ in range(2000):
        delta = float(rng.uniform(0.05, 3.0))
        adv = float(rng.normal())
        term = ppo_token_term(delta, adv, 0.2)
        oracle = min(delta * adv, np.clip(delta, 0.8, 1.2) * adv)
        assert term.value == pytest.approx(oracle, abs=1e-12)


def test_ce_gppo_left_clipped_closed_form():
    term = ce_gppo_token_term(0.5, -2.0, 0.2, 0.5, 1.0)
    assert term.value == pytest.approx(-0.8)          # 0.5 * (1-0.2) * (-2)
    assert term.grad_weight == pytest.approx(0.4)     # 0.5 * (1-0.2)
    assert term.branch is Branch.LEFT_CLIPPED


def test_ce_gppo_right_clipped_closed_form():
    term = ce_gppo_token_term(1.5, 1.0, 0.2, 0.5, 1.0)
    assert term.value == pytest.approx(1.2)           # 1.0 * (1+0.2) * 1
    assert term.grad_weight == pytest.approx(1.2)
    assert term.branch is Branch.RIGHT_CLIPPED


def test_ce_gppo_zero_betas_zero_clipped_gradient():
    for delta, adv in ((0.3, -1.0), (2.5, 1.0)):
        term = ce_gppo_token_term(delta, adv, 0.2, 0.0, 0.0)
        assert term.grad_weight == 0.0
        assert term.grad_weight == ppo_token_term(delta, adv, 0.2).grad_weight


def test_branch_partition_and_strict_boundaries():
    eps = 0.2
    # exactly on the bound -> otherwise branch; value and weight coincide anyway
    for adv in (-1.0, 1.0):
        lo = ce_gppo_token_term(1.0 - eps, adv, eps, 0.7, 0.9)
        hi = ce_gppo_token_term(1.0 + eps, adv, eps, 0.7, 0.9)
        assert lo.branch is Branch.INTERIOR
        assert hi.branch is Branch.INTERIOR
        assert lo.value == pytest.approx((1 - eps) * adv)
        assert hi.value == pytest.approx((1 + eps) * adv)
    rng = named_stream(1, "partition")
    for _ in range(2000):
        delta = float(rng.uniform(0.01, 3.0))
        adv = float(rng.normal())
        term = ce_gppo_token_term(delta, adv, eps, 0.7, 0.9)
        left = delta < 1 - eps and adv < 0
        right = delta > 1 + eps and adv > 0
        expected = (Branch.LEFT_CLIPPED if left
                    else Branch.RIGHT_CLIPPED if right else Branch.INTERIOR)
        assert term.branch is expected


def test_ppo_equivalence_at_gradient_level_bulk():
    # beta1 = beta2 = 0: grad weights identical over 1e5 random pairs
    rng = named_stream(2, "equiv")
    deltas = rng.uniform(0.01, 4.0, 100_000)
    advs = rng.normal(size=100_000)
    ce = np.array([ce_gppo_token_term(d, a, 0.2, 0.0, 0.0).grad_weight
                   for d, a in zip(deltas[:2000], advs[:2000])])
    ppo = np.array([ppo_token_term(d, a, 0.2).grad_weight
                    for d, a in zip(deltas[:2000], advs[:2000])])
    assert np.array_equal(ce, ppo)
    # vectorized path over the full 1e5
    from policylab.objectives import _ce_gppo_arrays, _ppo_like_arrays
    _, w_ce, _ = _ce_gppo_arrays(deltas, advs, 0.8, 1.2, 0.0, 0.0)
    _, w_ppo, _ = _ppo_like_arrays(deltas, advs, 0.8, 1.2)
    assert np.array_equal(w_ce, w_ppo)


def test_boundedness_of_clipped_weights():
    # clipped-branch weight is exactly beta * bound no matter how extreme delta is
    for delta in (1e-6, 0.01, 0.5):
        assert ce_gppo_token_term(delta, -3.0, 0.2, 0.5, 1.0).grad_weight == 0.5 * 0.8
    for delta in (1.5, 100.0, 1e6):
        assert ce_gppo_token_term(delta, 3.0, 0.2, 0.5, 1.0).grad_weight == 1.0 * 1.2


def test_beta_monotonicity_linear():
    betas = np.linspace(0.0, 2.0, 9)
    left = [ce_gppo_token_term(0.4, -1.0, 0.2, b, 1.0).grad_weight for b in betas]
    right = [ce_gppo_token_term(1.6, 1.0, 0.2, 1.0, b).grad_weight for b in betas]
    assert np.allclose(left, betas * 0.8)
    assert np.allclose(right, betas * 1.2)
    assert all(b2 > b1 for b1, b2 in zip(left, left[1:]))


def test_dapo_examples():
    term = dapo_token_term(1.25, 1.0, 0.2, 0.28)
    assert term.value == pytest.approx(1.25)
    assert term.grad_weight == pytest.approx(1.25)
    assert term.branch is Branch.INTERIOR
    term = dapo_token_term(1.35, 1.0, 0.2, 0.28)
    assert term.value == pytest.approx(1.28)
    assert term.grad_weight == 0.0


def test_dapo_reduces_to_ppo_with_symmetric_bounds():
    rng = named_stream(3, "dapo-red")
    for _ in range(1000):
        delta = float(rng.uniform(0.05, 3.0))
        adv = float(rng.normal())
        assert dapo_token_term(delta, adv, 0.2, 0.2) == ppo_token_term(delta, adv, 0.2)


def test_cispo_contrasts_with_ce_gppo():
    # mismatch quadrant delta < 1-eps, A > 0: cispo clips the weight up to 1-eps
    cispo = cispo_token_term(0.5, 1.0, 0.2, 0.2)
    ce = ce_gppo_token_term(0.5, 1.0, 0.2, 0.5, 1.0)
    assert cispo.grad_weight == pytest.approx(0.8)
    assert ce.grad_weight == pytest.approx(0.5)
    # mismatch quadrant delta > 1+eps, A < 0: cispo caps at 1+eps, ce keeps delta
    cispo = cispo_token_term(1.5, -1.0, 0.2, 0.2)
    ce = ce_gppo_token_term(1.5, -1.0, 0.2, 0.5, 1.0)
    assert cispo.grad_weight == pytest.approx(1.2)
    assert ce.grad_weight == pytest.approx(1.5)


def test_cispo_interior_matches_ppo():
    term = cispo_token_term(1.1, -0.5, 0.2, 0.2)
    assert term.grad_weight == pytest.approx(1.1)
    assert term.value == pytest.approx(1.1 * -0.5)
    assert term.branch is Branch.INTERIOR


def test_cispo_weight_frozen_in_all_quadrants():
    for delta, adv in ((0.1, 1.0), (0.1, -1.0), (3.0, 1.0), (3.0, -1.0)):
        term = cispo_token_term(delta, adv, 0.2, 0.2)
        assert term.grad_weight == pytest.approx(np.clip(delta, 0.8, 1.2))
        assert term.value == pytest.approx(term.grad_weight * adv)


def test_positive_ratio_required_everywhere():
    for fn in (lambda: ppo_token_term(0.0, 1.0, 0.2),
               lambda: ppo_token_term(-1.0, 1.0, 0.2),
               lambda: ce_gppo_token_term(float("nan"), 1.0, 0.2, 0.5, 1.0),
               lambda: cispo_token_term(0.0, 1.0, 0.2, 0.2),
               lambda: dapo_token_term(-0.5, 1.0, 0.2, 0.28),
               lambda: gspo_sequence_terms([1.0, 0.0], 1.0, 3e-4, 4e-4)):
        with pytest.raises(ValueError):
            fn()
    with pytest.raises(ValueError, match="non-empty"):
        gspo_sequence_terms([], 1.0, 3e-4, 4e-4)


# ---------------------------------------------------------------------------
# gspo
# ---------------------------------------------------------------------------

def test_gspo_unit_ratios_interior():
    terms = gspo_sequence_terms([1.0, 1.0, 1.0], 0.5, 3e-4, 4e-4)
    assert all(t.branch is Branch.INTERIOR for t in terms)
    assert terms[0].grad_weight == pytest.approx(1.0 / 3)
    assert terms[0].value == pytest.approx(0.5 / 3)


def test_gspo_geometric_mean_clipping():
    # s = 1.2 with tiny bounds: clipped, all token weights zero
    terms = gspo_sequence_terms([1.2, 1.2, 1.2], 1.0, 3e-4, 4e-4)
    s = math.exp(np.mean(np.log([1.2, 1.2, 1.2])))
    assert s == pytest.approx(1.2)
    assert all(t.branch is Branch.RIGHT_CLIPPED for t in terms)
    assert all(t.grad_weight == 0.0 for t in terms)
    assert terms[0].value == pytest.approx((1 + 4e-4) * 1.0 / 3)


def test_gspo_pessimistic_sequence_stays_live():
    # s below the lower bound with positive advantage: min keeps the live branch
    terms = gspo_sequence_terms([0.9, 0.9], 1.0, 3e-4, 4e-4)
    s = math.exp(np.mean(np.log([0.9, 0.9])))
    assert all(t.branch is Branch.INTERIOR for t in terms)
    assert terms[0].grad_weight == pytest.approx(s / 2)


def test_gspo_shares_branch_across_sequence():
    terms = gspo_sequence_terms([0.5, 1.4, 0.8], -1.0, 3e-4, 4e-4)
    assert len({t.branch for t in terms}) == 1


def test_gspo_clips_far_more_sequences_than_ppo_clips_tokens():
    # directional check on a stock random batch at a fixed seed
    batch, policy = _random_batch(seed=17, drift=0.3)
    gspo = ObjectiveSpec.for_algorithm("gspo")
    ppo = ObjectiveSpec.for_algorithm("ppo")
    gspo_terms = batch_token_terms(gspo, batch, policy)
    ppo_terms = batch_token_terms(ppo, batch, policy)
    frac = lambda terms: np.mean(terms.branch_codes != 0)
    assert frac(gspo_terms) > frac(ppo_terms)


# ---------------------------------------------------------------------------
# stop-gradient forward/backward consistency (per-token scalar check)
# ---------------------------------------------------------------------------

def _sg_value(spec, delta0, adv, delta_live):
    """The token value as a function of the live ratio with every frozen
    occurrence held at delta0, written out branch by branch."""
    lo, hi = spec.clip_bounds()
    if spec.algorithm == "ce_gppo":
        if delta0 < lo and adv < 0:
            return spec.beta1 * lo / delta0 * delta_live * adv
        if delta0 > hi and adv > 0:
            return spec.beta2 * hi / delta0 * delta_live * adv
        return delta_live * adv
    if spec.algorithm == "cispo":
        return np.clip(delta0, lo, hi) / delta0 * delta_live * adv
    # ppo family: clipped branches are constants
    if delta0 < lo and adv < 0:
        return lo * adv
    if delta0 > hi and adv > 0:
        return hi * adv
    return delta_live * adv


@pytest.mark.parametrize("algorithm", ["ppo", "dapo", "cispo", "ce_gppo"])
def test_numeric_derivative_of_sg_value_equals_grad_weight(algorithm):
    spec = ObjectiveSpec.for_algorithm(algorithm)
    if algorithm == "ce_gppo":
        spec = spec.with_betas(0.5, 1.0)
    rng = named_stream(4, "sg", algorithm)
    h = 1e-7
    for _ in range(500):
        delta = float(rng.uniform(0.05, 3.0))
        lo, hi = spec.clip_bounds()
        if min(abs(delta - lo), abs(delta - hi)) < 1e-3:
            continue
        adv = float(rng.normal())
        term = token_term(spec, delta, adv)
        up = _sg_value(spec, delta, adv, delta * math.exp(h))
        down = _sg_value(spec, delta, adv, delta * math.exp(-h))
        # d value / d log(delta_live) = grad_weight * adv
        numeric = (up - down) / (2 * h)
        assert numeric == pytest.approx(term.grad_weight * adv, abs=1e-5)


# ---------------------------------------------------------------------------
# batch evaluation and aggregation
# ---------------------------------------------------------------------------

def _random_batch(seed=0, n_groups=8, drift=0.4):
    from policylab import group_advantages, rollout_group, sample_task
    config = EnvConfig()
    rng = named_stream(seed, "batch")
    base = TabularPolicy.random(config.num_states, 8, 0.5, rng)
    trajs, advs = [], []
    for _ in range(n_groups):
        group = rollout_group(base, sample_task(config, rng), 8, rng)
        adv = group_advantages(group, "zero")
        trajs.extend(group.trajectories)
        advs.extend(adv.advantages.tolist())
    live = TabularPolicy(base.logits + rng.normal(0, drift, base.logits.shape))
    return TokenBatch.from_trajectories(trajs, advs), live


def test_batch_terms_match_scalar_path():
    batch, policy = _random_batch(seed=5)
    for algorithm in ("ppo", "grpo", "dapo", "cispo", "ce_gppo"):
        spec = ObjectiveSpec.for_algorithm(algorithm)
        if algorithm == "ce_gppo":
            spec = spec.with_betas(0.3, 1.1)
        terms = batch_token_terms(spec, batch, policy)
        for i in (0, 7, 42, 100, 383):
            scalar = token_term(spec, float(terms.deltas[i]), float(batch.advantages[i]))
            assert terms.values[i] == scalar.value
            assert terms.grad_weights[i] == scalar.grad_weight
            assert terms.branches()[i] is scalar.branch


def test_batch_terms_gspo_match_sequence_path():
    batch, policy = _random_batch(seed=6)
    spec = ObjectiveSpec.for_algorithm("gspo")
    terms = batch_token_terms(spec, batch, policy)
    sl = slice(3 * batch.seq_len, 4 * batch.seq_len)
    expected = gspo_sequence_terms(terms.deltas[sl], float(batch.advantages[sl.start]),
                                   spec.eps_low, spec.eps_high)
    assert np.allclose(terms.values[sl], [t.value for t in expected])
    assert np.allclose(terms.grad_weights[sl], [t.grad_weight for t in expected])


def test_on_policy_ratios_are_exactly_one():
    batch, _ = _random_batch(seed=8, drift=0.0)
    config = EnvConfig()
    rng = named_stream(8, "batch")
    base = TabularPolicy.random(config.num_states, 8, 0.5, rng)
    terms = batch_token_terms(ObjectiveSpec.for_algorithm("ppo"), batch, base)
    assert np.all(terms.deltas == 1.0)


def test_aggregation_normalizer_examples():
    policy = TabularPolicy.uniform(3, 4)
    # two trajectories of length 4
    batch = TokenBatch(
        states=np.zeros(8, dtype=np.int64), actions=np.zeros(8, dtype=np.int64),
        old_logprobs=np.zeros(8), advantages=np.ones(8), seq_len=4)
    all_ones = [TokenTerm(1.0, 0.0, Branch.INTERIOR)] * 8
    assert aggregate_objective(all_ones, batch, policy, "sequence_mean")[0] == pytest.approx(1.0)
    assert aggregate_objective(all_ones, batch, policy, "token_mean")[0] == pytest.approx(1.0)
    # value 1 on three tokens of the first trajectory: (3/4 + 0/4) / 2 per
    # sequence, 3/8 per token; equal lengths make the two normalizers agree
    first_only = ([TokenTerm(1.0, 0.0, Branch.INTERIOR)] * 3
                  + [TokenTerm(0.0, 0.0, Branch.INTERIOR)] * 5)
    assert aggregate_objective(first_only, batch, policy, "sequence_mean")[0] == pytest.approx(0.375)
    assert aggregate_objective(first_only, batch, policy, "token_mean")[0] == pytest.approx(0.375)
    assert np.array_equal(token_weights(batch, "sequence_mean"), np.full(8, 1.0 / 8))


def test_token_batch_rejects_partial_trajectories():
    with pytest.raises(ValueError, match="whole number"):
        TokenBatch(np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64),
                   np.zeros(7), np.zeros(7), seq_len=4)
    with pytest.raises(ValueError, match="whole number"):
        TokenBatch(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                   np.zeros(4), np.zeros(4), seq_len=0)


def test_from_trajectories_rejects_mixed_lengths():
    short = Trajectory(ModSumTask(8, 2, 5, 0), [1, 2], [-1.0, -1.0], [0, 1], 0)
    long = Trajectory(ModSumTask(8, 3, 5, 0), [1, 2, 2], [-1.0] * 3, [0, 1, 8], 1)
    with pytest.raises(ValueError, match="mixed lengths"):
        TokenBatch.from_trajectories([short, long], [1.0, -1.0])
    batch = TokenBatch.from_trajectories([long, long], [1.0, -1.0])
    assert batch.seq_len == 3 and batch.n_trajectories == 2


def test_aggregate_zero_weights_zero_gradient():
    batch, policy = _random_batch(seed=9)
    terms = [TokenTerm(1.0, 0.0, Branch.INTERIOR)] * batch.n_tokens
    _, grad = aggregate_objective(terms, batch, policy, "token_mean")
    assert np.array_equal(grad, np.zeros_like(grad))


def test_aggregate_shape_mismatch():
    batch, policy = _random_batch(seed=10)
    with pytest.raises(ValueError):
        aggregate_objective([TokenTerm(1.0, 1.0, Branch.INTERIOR)], batch, policy, "token_mean")
    with pytest.raises(ValueError):
        token_weights(batch, "trajectory_mean")


def test_aggregate_gradient_structure_single_token():
    # one token: gradient row is w * F * A * (indicator - pi), zero elsewhere
    policy = TabularPolicy.random(4, 5, 0.8, named_stream(11, "single"))
    batch = TokenBatch(states=np.array([2]), actions=np.array([3]),
                       old_logprobs=np.array([-1.0]), advantages=np.array([1.5]),
                       seq_len=1)
    terms = batch_token_terms(ObjectiveSpec.for_algorithm("ppo"), batch, policy)
    value, grad = aggregate_objective(terms, batch, policy, "token_mean")
    delta = float(terms.deltas[0])
    probs = policy.action_probabilities(2)
    indicator = np.eye(5)[3]
    expected_row = terms.grad_weights[0] * 1.5 * (indicator - probs)
    assert np.allclose(grad[2], expected_row, atol=1e-15)
    assert np.allclose(grad[[0, 1, 3]], 0.0)
    assert value == pytest.approx(delta * 1.5)


def test_new_logprob_lookup_matches_policy_rows():
    batch, policy = _random_batch(seed=12)
    lps = new_logprob_lookup(policy, batch.states, batch.actions)
    for i in (0, 5, 77):
        s, a = int(batch.states[i]), int(batch.actions[i])
        assert lps[i] == float(np.log(policy.action_probabilities(s)[a]))


# ---------------------------------------------------------------------------
# entropy bonus
# ---------------------------------------------------------------------------

def test_entropy_bonus_zero_alpha():
    policy = TabularPolicy.uniform(3, 4)
    value, grad = entropy_bonus(policy, [0, 1], 0.0)
    assert value == 0.0
    assert np.array_equal(grad, np.zeros((3, 4)))


def test_entropy_bonus_uniform_rows_zero_gradient():
    policy = TabularPolicy.uniform(3, 4)
    value, grad = entropy_bonus(policy, [0, 2], 0.5)
    assert value == pytest.approx(0.5 * math.log(4))
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_entropy_bonus_sweep_coefficients_scale_linearly():
    policy = TabularPolicy.random(4, 6, 1.0, named_stream(13, "bonus"))
    v1, g1 = entropy_bonus(policy, [0, 1, 2], 0.001)
    v3, g3 = entropy_bonus(policy, [0, 1, 2], 0.003)
    assert v3 == pytest.approx(3 * v1)
    assert np.allclose(g3, 3 * g1)


def test_entropy_bonus_gradient_matches_row_gradients():
    policy = TabularPolicy.random(5, 4, 1.2, named_stream(14, "bonus2"))
    states = [1, 3]
    _, grad = entropy_bonus(policy, states, 0.2)
    for s in states:
        assert np.allclose(grad[s], 0.2 / 2 * entropy_logit_gradient(policy, s))
    assert np.allclose(grad[[0, 2, 4]], 0.0)


def test_entropy_bonus_rejects_negative_alpha():
    with pytest.raises(ValueError):
        entropy_bonus(TabularPolicy.uniform(2, 2), [0], -0.1)
