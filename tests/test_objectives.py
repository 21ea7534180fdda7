import dataclasses
import math
from collections import namedtuple

import numpy as np
import pytest

from policylab import (
    ModSumTask,
    ObjectiveSpec,
    TabularPolicy,
    TokenBatch,
    Trajectory,
    aggregate_objective,
    batch_token_terms,
    clip_terms,
    entropy_bonus,
    named_stream,
)
from policylab.objectives import (
    ALGORITHMS,
    BRANCHES,
    CODE_INTERIOR,
    CODE_LEFT,
    CODE_RIGHT,
    BatchTerms,
    new_logprob_lookup,
    token_weights,
)
from policylab.gradcheck import ENV, analytic_objective_gradient
from policylab.policy import entropy_and_gradient_rows

Term = namedtuple("Term", "value grad_weight branch")
INTERIOR, LEFT_CLIPPED, RIGHT_CLIPPED = "interior_or_pessimistic", "left_clipped", "right_clipped"
BRANCH_OF_CODE = {CODE_INTERIOR: INTERIOR, CODE_LEFT: LEFT_CLIPPED, CODE_RIGHT: RIGHT_CLIPPED}

PPO = ObjectiveSpec(algorithm="ppo", eps_low=0.2, eps_high=0.2)
DAPO = ObjectiveSpec(algorithm="dapo", eps_low=0.2, eps_high=0.28)
CISPO = ObjectiveSpec(algorithm="cispo", eps_low=0.2, eps_high=0.2)


def ce_gppo(beta1, beta2, eps=0.2):
    return ObjectiveSpec(algorithm="ce_gppo", eps_low=eps, eps_high=eps, beta1=beta1,
                         beta2=beta2)


def gspo_spec(eps_low=3e-4, eps_high=4e-4):
    return ObjectiveSpec(algorithm="gspo", eps_low=eps_low, eps_high=eps_high)


# ---------------------------------------------------------------------------
# scalar reference: the per-token branch functions clip_terms replaced,
# kept as the oracle it must match bit for bit
# ---------------------------------------------------------------------------

def test_branches_are_named_by_their_codes():
    assert dict(enumerate(BRANCHES)) == BRANCH_OF_CODE


def reference_token_term(spec, delta, adv):
    """(value, grad_weight, branch) of one token of a token-level algorithm."""
    lo, hi = spec.clip_bounds()
    if spec.algorithm == "cispo":
        # frozen clipped weight on either advantage sign; value = weight * A
        if delta < lo:
            return Term(lo * adv, lo, LEFT_CLIPPED)
        if delta > hi:
            return Term(hi * adv, hi, RIGHT_CLIPPED)
        return Term(delta * adv, delta, INTERIOR)
    if spec.algorithm == "ce_gppo":
        # clipped tokens keep a gradient of weight beta * bound
        if delta < lo and adv < 0.0:
            return Term(spec.beta1 * lo * adv, spec.beta1 * lo, LEFT_CLIPPED)
        if delta > hi and adv > 0.0:
            return Term(spec.beta2 * hi * adv, spec.beta2 * hi, RIGHT_CLIPPED)
        return Term(delta * adv, delta, INTERIOR)
    assert spec.algorithm in ("ppo", "grpo", "dapo")
    # min(delta * A, clip(delta) * A): the pessimistic quadrants keep delta
    if delta < lo and adv < 0.0:
        return Term(lo * adv, 0.0, LEFT_CLIPPED)
    if delta > hi and adv > 0.0:
        return Term(hi * adv, 0.0, RIGHT_CLIPPED)
    return Term(delta * adv, delta, INTERIOR)


def reference_gspo_sequence_terms(token_ratios, adv, eps_low, eps_high):
    """Per-token terms of one gspo sequence: the ppo rule on the geometric-mean
    ratio s, each token carrying a 1/|y| share of value and weight."""
    ratios = np.asarray(token_ratios, dtype=np.float64)
    n = ratios.size
    seq_ratio = float(np.exp(np.log(ratios).mean()))
    lo, hi = 1.0 - eps_low, 1.0 + eps_high
    if seq_ratio < lo and adv < 0.0:
        return [Term(lo * adv / n, 0.0, LEFT_CLIPPED)] * n
    if seq_ratio > hi and adv > 0.0:
        return [Term(hi * adv / n, 0.0, RIGHT_CLIPPED)] * n
    return [Term(seq_ratio * adv / n, seq_ratio / n, INTERIOR)] * n


def as_terms(values, weights, codes):
    return [Term(v, w, BRANCH_OF_CODE[c])
            for v, w, c in zip(values.tolist(), weights.tolist(), codes.tolist())]


def one_token(spec, delta, adv):
    """clip_terms of a single token."""
    return as_terms(*clip_terms(spec, np.array([delta]), np.array([adv]), 1))[0]


def gspo_sequence(ratios, adv, eps_low=3e-4, eps_high=4e-4):
    """clip_terms of one gspo sequence."""
    ratios = np.asarray(ratios, dtype=np.float64)
    return as_terms(*clip_terms(gspo_spec(eps_low, eps_high), ratios,
                                np.full(ratios.size, adv), ratios.size))


# ---------------------------------------------------------------------------
# spec construction and defaults
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(algorithm="trpo")
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_low=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_low=1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_low=1.2)
    with pytest.raises(ValueError):
        ObjectiveSpec(eps_high=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(beta1=-0.1)
    with pytest.raises(ValueError):
        ObjectiveSpec(alpha=float("nan"))
    for retired in ("aggregation", "eps"):  # retired keys, not settings
        with pytest.raises(TypeError):
            ObjectiveSpec(**{retired: 0.2})
    for algorithm in set(ALGORITHMS) - {"ce_gppo"}:  # betas act only on ce_gppo
        for beta in ("beta1", "beta2"):
            with pytest.raises(ValueError, match="act only on ce_gppo"):
                ObjectiveSpec.for_algorithm(algorithm, **{beta: 0.5})


def test_for_algorithm_defaults():
    assert ObjectiveSpec.for_algorithm("dapo").eps_high == 0.28
    assert ObjectiveSpec.for_algorithm("dapo").clip_bounds() == (0.8, 1.28)
    assert ObjectiveSpec.for_algorithm("gspo").clip_bounds() == (1 - 3e-4, 1 + 4e-4)
    for algorithm in ("ppo", "grpo", "cispo", "ce_gppo"):
        assert ObjectiveSpec.for_algorithm(algorithm).clip_bounds() == (0.8, 1.2)
    ce = ObjectiveSpec.for_algorithm("ce_gppo")
    assert (ce.beta1, ce.beta2) == (0.5, 1.0)
    assert ce.with_betas(0.0, 1.0).beta1 == 0.0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_spec_field_acts(algorithm):
    # moving any field off the algorithm's default either changes what a
    # training step computes from the spec, or the spec rejects it
    deltas = np.concatenate([np.linspace(0.05, 3.0, 600), 1.0 + np.linspace(-0.01, 0.01, 401)])
    grid_deltas = np.tile(deltas, 4)
    grid_advs = np.repeat([-1.0, -0.5, 0.5, 1.0], deltas.size)
    batch, policy = _random_batch(seed=1, n_groups=2)

    def response(spec):
        # clip_terms on the (delta, A) grid, and the objective with its entropy bonus
        return (*clip_terms(spec, grid_deltas, grid_advs, 1),
                *analytic_objective_gradient(spec, batch, policy))

    base = ObjectiveSpec.for_algorithm(algorithm)
    expected = response(base)
    fields = [f.name for f in dataclasses.fields(ObjectiveSpec) if f.name != "algorithm"]
    assert fields == ["eps_low", "eps_high", "beta1", "beta2", "alpha"]
    for name in fields:
        value = getattr(base, name)
        try:
            moved = dataclasses.replace(base, **{name: 0.5 * value if value else 0.5})
        except ValueError:
            continue
        got = response(moved)
        assert any(not np.array_equal(a, b) for a, b in zip(got, expected)), name


# ---------------------------------------------------------------------------
# clip_terms against the scalar reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clip_terms_match_reference_on_random_grids(algorithm):
    spec = ObjectiveSpec.for_algorithm(algorithm)
    if algorithm == "ce_gppo":
        spec = spec.with_betas(0.3, 1.1)
    rng = named_stream(20, "grid", algorithm)
    if algorithm == "gspo":
        spec = gspo_spec(0.05, 0.05)  # bounds the random sequences land on both sides of
        for seq_len in (1, 3, 12):
            n_seq = 300
            deltas = np.exp(rng.normal(0.0, 0.15, n_seq * seq_len))
            seq_advs = np.where(rng.random(n_seq) < 0.1, 0.0, rng.normal(size=n_seq))
            got = as_terms(*clip_terms(spec, deltas, np.repeat(seq_advs, seq_len), seq_len))
            expected = []
            for i, adv in enumerate(seq_advs.tolist()):
                expected += reference_gspo_sequence_terms(
                    deltas[i * seq_len:(i + 1) * seq_len], adv, spec.eps_low, spec.eps_high)
            assert got == expected
            assert {t.branch for t in got} == set(BRANCHES)
        return
    deltas = np.exp(rng.uniform(-3.0, 3.0, 4000))
    advs = np.where(rng.random(4000) < 0.1, 0.0, rng.normal(size=4000))
    got = as_terms(*clip_terms(spec, deltas, advs, 1))
    assert got == [reference_token_term(spec, d, a)
                   for d, a in zip(deltas.tolist(), advs.tolist())]
    assert {t.branch for t in got} == set(BRANCHES)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clip_terms_bounds_are_interior(algorithm):
    # a ratio exactly on a clip bound takes the interior branch, for either sign
    spec = ObjectiveSpec.for_algorithm(algorithm)
    advs = np.array([-1.5, 1.5, -1.5, 1.5])
    if algorithm == "gspo":
        # sequences whose geometric-mean ratio is exactly a bound: for s in
        # [0.5, 2], 1 - (1 - s) and 1 + (s - 1) are exact
        below, above = np.array([0.9, 0.95, 0.97]), np.array([1.02, 1.1, 1.01])
        s_lo = float(np.exp(np.log(below).mean()))
        s_hi = float(np.exp(np.log(above).mean()))
        spec = gspo_spec(1.0 - s_lo, s_hi - 1.0)
        assert spec.clip_bounds() == (s_lo, s_hi)
        deltas = np.concatenate([below, below, above, above])
        got = as_terms(*clip_terms(spec, deltas, np.repeat(advs, 3), 3))
        assert {t.branch for t in got} == {INTERIOR}
        expected = []
        for i, adv in enumerate(advs.tolist()):
            expected += reference_gspo_sequence_terms(deltas[3 * i:3 * i + 3], adv,
                                                      spec.eps_low, spec.eps_high)
        assert got == expected
        return
    lo, hi = spec.clip_bounds()
    deltas = np.array([lo, lo, hi, hi])
    got = as_terms(*clip_terms(spec, deltas, advs, 1))
    assert {t.branch for t in got} == {INTERIOR}
    assert got == [reference_token_term(spec, d, a)
                   for d, a in zip(deltas.tolist(), advs.tolist())]


# ---------------------------------------------------------------------------
# per-token terms
# ---------------------------------------------------------------------------

def test_ppo_identity_ratio():
    term = one_token(PPO, 1.0, 0.7)
    assert term.value == pytest.approx(0.7)
    assert term.grad_weight == 1.0
    assert term.branch == INTERIOR


def test_ppo_right_clipped():
    term = one_token(PPO, 1.5, 1.0)
    # oracle: min(1.5*1, clip(1.5, .8, 1.2)*1) = 1.2
    assert term.value == pytest.approx(min(1.5, 1.2))
    assert term.grad_weight == 0.0
    assert term.branch == RIGHT_CLIPPED


def test_ppo_pessimistic_keeps_ratio():
    term = one_token(PPO, 0.5, 1.0)
    # oracle: min(0.5, 0.8) = 0.5; the unclipped branch stays active
    assert term.value == pytest.approx(0.5)
    assert term.grad_weight == pytest.approx(0.5)
    assert term.branch == INTERIOR


def test_ppo_matches_min_clip_oracle_everywhere():
    rng = named_stream(0, "ppo-oracle")
    deltas = rng.uniform(0.05, 3.0, 2000)
    advs = rng.normal(size=2000)
    values = clip_terms(PPO, deltas, advs, 1)[0]
    oracle = np.minimum(deltas * advs, np.clip(deltas, 0.8, 1.2) * advs)
    assert np.allclose(values, oracle, rtol=0.0, atol=1e-12)


def test_ce_gppo_left_clipped_closed_form():
    term = one_token(ce_gppo(0.5, 1.0), 0.5, -2.0)
    assert term.value == pytest.approx(-0.8)          # 0.5 * (1-0.2) * (-2)
    assert term.grad_weight == pytest.approx(0.4)     # 0.5 * (1-0.2)
    assert term.branch == LEFT_CLIPPED


def test_ce_gppo_right_clipped_closed_form():
    term = one_token(ce_gppo(0.5, 1.0), 1.5, 1.0)
    assert term.value == pytest.approx(1.2)           # 1.0 * (1+0.2) * 1
    assert term.grad_weight == pytest.approx(1.2)
    assert term.branch == RIGHT_CLIPPED


def test_ce_gppo_zero_betas_zero_clipped_gradient():
    for delta, adv in ((0.3, -1.0), (2.5, 1.0)):
        term = one_token(ce_gppo(0.0, 0.0), delta, adv)
        assert term.grad_weight == 0.0
        assert term.grad_weight == one_token(PPO, delta, adv).grad_weight


def test_branch_partition_and_strict_boundaries():
    eps = 0.2
    spec = ce_gppo(0.7, 0.9, eps)
    # exactly on the bound -> otherwise branch; value and weight coincide anyway
    for adv in (-1.0, 1.0):
        lo = one_token(spec, 1.0 - eps, adv)
        hi = one_token(spec, 1.0 + eps, adv)
        assert lo.branch == INTERIOR
        assert hi.branch == INTERIOR
        assert lo.value == pytest.approx((1 - eps) * adv)
        assert hi.value == pytest.approx((1 + eps) * adv)
    rng = named_stream(1, "partition")
    deltas = rng.uniform(0.01, 3.0, 2000)
    advs = rng.normal(size=2000)
    codes = clip_terms(spec, deltas, advs, 1)[2]
    left = (deltas < 1 - eps) & (advs < 0)
    right = (deltas > 1 + eps) & (advs > 0)
    expected = np.where(left, CODE_LEFT, np.where(right, CODE_RIGHT, CODE_INTERIOR))
    assert np.array_equal(codes, expected)


def test_ppo_equivalence_at_gradient_level_bulk():
    # beta1 = beta2 = 0: grad weights identical over 1e5 random pairs
    rng = named_stream(2, "equiv")
    deltas = rng.uniform(0.01, 4.0, 100_000)
    advs = rng.normal(size=100_000)
    _, w_ce, _ = clip_terms(ce_gppo(0.0, 0.0), deltas, advs, 1)
    _, w_ppo, _ = clip_terms(PPO, deltas, advs, 1)
    assert np.array_equal(w_ce, w_ppo)


def test_boundedness_of_clipped_weights():
    # clipped-branch weight is exactly beta * bound no matter how extreme delta is
    spec = ce_gppo(0.5, 1.0)
    for delta in (1e-6, 0.01, 0.5):
        assert one_token(spec, delta, -3.0).grad_weight == 0.5 * 0.8
    for delta in (1.5, 100.0, 1e6):
        assert one_token(spec, delta, 3.0).grad_weight == 1.0 * 1.2


def test_beta_monotonicity_linear():
    betas = np.linspace(0.0, 2.0, 9)
    left = [one_token(ce_gppo(b, 1.0), 0.4, -1.0).grad_weight for b in betas]
    right = [one_token(ce_gppo(1.0, b), 1.6, 1.0).grad_weight for b in betas]
    assert np.allclose(left, betas * 0.8)
    assert np.allclose(right, betas * 1.2)
    assert all(b2 > b1 for b1, b2 in zip(left, left[1:]))


def test_dapo_examples():
    term = one_token(DAPO, 1.25, 1.0)
    assert term.value == pytest.approx(1.25)
    assert term.grad_weight == pytest.approx(1.25)
    assert term.branch == INTERIOR
    term = one_token(DAPO, 1.35, 1.0)
    assert term.value == pytest.approx(1.28)
    assert term.grad_weight == 0.0


def test_dapo_reduces_to_ppo_with_symmetric_bounds():
    rng = named_stream(3, "dapo-red")
    deltas = rng.uniform(0.05, 3.0, 1000)
    advs = rng.normal(size=1000)
    symmetric = ObjectiveSpec(algorithm="dapo", eps_low=0.2, eps_high=0.2)
    for got, expected in zip(clip_terms(symmetric, deltas, advs, 1),
                             clip_terms(PPO, deltas, advs, 1)):
        assert np.array_equal(got, expected)


def test_cispo_contrasts_with_ce_gppo():
    # mismatch quadrant delta < 1-eps, A > 0: cispo clips the weight up to 1-eps
    cispo = one_token(CISPO, 0.5, 1.0)
    ce = one_token(ce_gppo(0.5, 1.0), 0.5, 1.0)
    assert cispo.grad_weight == pytest.approx(0.8)
    assert ce.grad_weight == pytest.approx(0.5)
    # mismatch quadrant delta > 1+eps, A < 0: cispo caps at 1+eps, ce keeps delta
    cispo = one_token(CISPO, 1.5, -1.0)
    ce = one_token(ce_gppo(0.5, 1.0), 1.5, -1.0)
    assert cispo.grad_weight == pytest.approx(1.2)
    assert ce.grad_weight == pytest.approx(1.5)


def test_cispo_interior_matches_ppo():
    term = one_token(CISPO, 1.1, -0.5)
    assert term.grad_weight == pytest.approx(1.1)
    assert term.value == pytest.approx(1.1 * -0.5)
    assert term.branch == INTERIOR


def test_cispo_weight_frozen_in_all_quadrants():
    for delta, adv in ((0.1, 1.0), (0.1, -1.0), (3.0, 1.0), (3.0, -1.0)):
        term = one_token(CISPO, delta, adv)
        assert term.grad_weight == pytest.approx(np.clip(delta, 0.8, 1.2))
        assert term.value == pytest.approx(term.grad_weight * adv)


def test_positive_ratio_required_everywhere():
    # ratios are checked where they are made: a live probability that
    # underflowed to 0 (logit gap above ~745) or an old log-prob of -inf
    # has no importance ratio, for every algorithm
    peaked = np.zeros((2, 4))
    peaked[0, 1] = -800.0
    underflow = (TabularPolicy(peaked), np.full(2, math.log(0.25)))
    minus_inf = (TabularPolicy.uniform(2, 4), np.array([math.log(0.25), -math.inf]))
    assert new_logprob_lookup(underflow[0], np.array([0]), np.array([1]))[0] == -math.inf
    for policy, old_logprobs in (underflow, minus_inf):
        batch = TokenBatch(np.array([0, 0]), np.array([0, 1]), old_logprobs,
                           np.array([1.0, 1.0]), seq_len=2)
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match="ratios must be finite and > 0"):
                batch_token_terms(ObjectiveSpec.for_algorithm(algorithm), batch, policy)
    with pytest.raises(ValueError, match="empty"):
        TokenBatch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0), np.zeros(0), seq_len=1)


# ---------------------------------------------------------------------------
# gspo
# ---------------------------------------------------------------------------

def test_gspo_unit_ratios_interior():
    terms = gspo_sequence([1.0, 1.0, 1.0], 0.5)
    assert all(t.branch == INTERIOR for t in terms)
    assert terms[0].grad_weight == pytest.approx(1.0 / 3)
    assert terms[0].value == pytest.approx(0.5 / 3)


def test_gspo_geometric_mean_clipping():
    # s = 1.2 with tiny bounds: clipped, all token weights zero
    terms = gspo_sequence([1.2, 1.2, 1.2], 1.0)
    s = math.exp(np.mean(np.log([1.2, 1.2, 1.2])))
    assert s == pytest.approx(1.2)
    assert all(t.branch == RIGHT_CLIPPED for t in terms)
    assert all(t.grad_weight == 0.0 for t in terms)
    assert terms[0].value == pytest.approx((1 + 4e-4) * 1.0 / 3)


def test_gspo_pessimistic_sequence_stays_live():
    # s below the lower bound with positive advantage: min keeps the live branch
    terms = gspo_sequence([0.9, 0.9], 1.0)
    s = math.exp(np.mean(np.log([0.9, 0.9])))
    assert all(t.branch == INTERIOR for t in terms)
    assert terms[0].grad_weight == pytest.approx(s / 2)


def test_gspo_shares_branch_across_sequence():
    terms = gspo_sequence([0.5, 1.4, 0.8], -1.0)
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
        term = one_token(spec, delta, adv)
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
    tasks = [ENV.task(t) for t in range(ENV.modulus)]
    rng = named_stream(seed, "batch")
    base = TabularPolicy.random(ENV.num_states, 8, 0.5, rng)
    trajs, advs = [], []
    for _ in range(n_groups):
        group = rollout_group(base, sample_task(tasks, rng), 8, rng)
        trajs.extend(group.trajectories)
        advs.extend(group_advantages(group).tolist())
    live = TabularPolicy(base.logits + rng.normal(0, drift, base.logits.shape))
    return TokenBatch.from_trajectories(trajs, advs), live


def test_batch_terms_match_scalar_path():
    batch, policy = _random_batch(seed=5)
    for algorithm in ("ppo", "grpo", "dapo", "cispo", "ce_gppo"):
        spec = ObjectiveSpec.for_algorithm(algorithm)
        if algorithm == "ce_gppo":
            spec = spec.with_betas(0.3, 1.1)
        terms = batch_token_terms(spec, batch, policy)
        expected = [reference_token_term(spec, d, a)
                    for d, a in zip(terms.deltas.tolist(), batch.advantages.tolist())]
        assert as_terms(terms.values, terms.grad_weights, terms.branch_codes) == expected


def test_batch_terms_gspo_match_sequence_path():
    batch, policy = _random_batch(seed=6)
    spec = ObjectiveSpec.for_algorithm("gspo")
    terms = batch_token_terms(spec, batch, policy)
    sl = slice(3 * batch.seq_len, 4 * batch.seq_len)
    expected = reference_gspo_sequence_terms(terms.deltas[sl], float(batch.advantages[sl.start]),
                                             spec.eps_low, spec.eps_high)
    assert np.allclose(terms.values[sl], [t.value for t in expected])
    assert np.allclose(terms.grad_weights[sl], [t.grad_weight for t in expected])


def test_on_policy_ratios_are_exactly_one():
    batch, _ = _random_batch(seed=8, drift=0.0)
    rng = named_stream(8, "batch")
    base = TabularPolicy.random(ENV.num_states, 8, 0.5, rng)
    terms = batch_token_terms(ObjectiveSpec.for_algorithm("ppo"), batch, base)
    assert np.all(terms.deltas == 1.0)


def _terms(values, grad_weights):
    """BatchTerms carrying the given values and weights, all interior."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    return BatchTerms(values, np.asarray(grad_weights, dtype=np.float64),
                      np.full(n, CODE_INTERIOR), np.ones(n))


def test_aggregation_normalizer_examples():
    policy = TabularPolicy.uniform(3, 4)
    # two trajectories of length 4
    batch = TokenBatch(
        states=np.zeros(8, dtype=np.int64), actions=np.zeros(8, dtype=np.int64),
        old_logprobs=np.zeros(8), advantages=np.ones(8), seq_len=4)
    all_ones = _terms(np.ones(8), np.zeros(8))
    assert aggregate_objective(all_ones, batch, policy)[0] == pytest.approx(1.0)
    # value 1 on three tokens of the first trajectory: (3/4 + 0/4) / 2 per
    # sequence, 3/8 per token; equal lengths make the two normalizers agree
    first_only = _terms([1.0] * 3 + [0.0] * 5, np.zeros(8))
    assert aggregate_objective(first_only, batch, policy)[0] == pytest.approx(0.375)
    assert np.array_equal(token_weights(batch), np.full(8, 1.0 / 8))


def test_token_batch_rejects_partial_trajectories():
    with pytest.raises(ValueError, match="whole number"):
        TokenBatch(np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64),
                   np.zeros(7), np.zeros(7), seq_len=4)
    with pytest.raises(ValueError, match="whole number"):
        TokenBatch(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                   np.zeros(4), np.zeros(4), seq_len=0)
    with pytest.raises(ValueError, match="token arrays must share a length"):
        TokenBatch(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                   np.zeros(4), np.zeros(3), seq_len=2)


def test_from_trajectories_rejects_mixed_lengths():
    short = Trajectory(ModSumTask(8, 2, 5, 0), [1, 2], [-1.0, -1.0], [0, 1], 0)
    long = Trajectory(ModSumTask(8, 3, 5, 0), [1, 2, 2], [-1.0] * 3, [0, 1, 8], 1)
    with pytest.raises(ValueError, match="mixed lengths"):
        TokenBatch.from_trajectories([short, long], [1.0, -1.0])
    with pytest.raises(ValueError, match="one advantage per trajectory required"):
        TokenBatch.from_trajectories([long, long], [1.0])
    batch = TokenBatch.from_trajectories([long, long], [1.0, -1.0])
    assert batch.seq_len == 3 and batch.n_trajectories == 2


def test_aggregate_zero_weights_zero_gradient():
    batch, policy = _random_batch(seed=9)
    terms = _terms(np.ones(batch.n_tokens), np.zeros(batch.n_tokens))
    _, grad = aggregate_objective(terms, batch, policy)
    assert np.array_equal(grad, np.zeros_like(grad))


def test_aggregate_shape_mismatch():
    batch, policy = _random_batch(seed=10)
    with pytest.raises(ValueError):
        aggregate_objective(_terms([1.0], [1.0]), batch, policy)


def test_aggregate_gradient_structure_single_token():
    # one token: gradient row is w * F * A * (indicator - pi), zero elsewhere
    policy = TabularPolicy.random(4, 5, 0.8, named_stream(11, "single"))
    batch = TokenBatch(states=np.array([2]), actions=np.array([3]),
                       old_logprobs=np.array([-1.0]), advantages=np.array([1.5]),
                       seq_len=1)
    terms = batch_token_terms(ObjectiveSpec.for_algorithm("ppo"), batch, policy)
    value, grad = aggregate_objective(terms, batch, policy)
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
    row_grads = entropy_and_gradient_rows(policy.probability_matrix())[1]
    for s in states:
        assert np.allclose(grad[s], 0.2 / 2 * row_grads[s])
    assert np.allclose(grad[[0, 2, 4]], 0.0)


def test_entropy_bonus_rejects_negative_alpha():
    with pytest.raises(ValueError):
        entropy_bonus(TabularPolicy.uniform(2, 2), [0], -0.1)
