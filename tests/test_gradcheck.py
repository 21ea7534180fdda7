import hashlib
import json

import numpy as np
import pytest

from policylab import (
    EnvConfig,
    ObjectiveSpec,
    TabularPolicy,
    TokenBatch,
    build_gradcheck_batch,
    check_objective_gradient,
    named_stream,
    numeric_gradient,
)
from policylab.advantage import group_advantages
from policylab.env import rollout_group, sample_task
from policylab.gradcheck import (
    _boundary_safe_trajectories,
    analytic_objective_gradient,
    frozen_surrogate_evaluator,
)
from policylab.objectives import (
    batch_token_terms,
    entropy_bonus,
    new_logprob_lookup,
    token_weights,
)

ALL_ALGORITHMS = ("ppo", "grpo", "dapo", "cispo", "gspo", "ce_gppo")
SMALL_ENV = EnvConfig(vocab_size=8, seq_len=3, modulus=3)


def _spec(algorithm):
    spec = ObjectiveSpec.for_algorithm(algorithm)
    if algorithm == "ce_gppo":
        spec = spec.with_betas(0.5, 1.0)
    return spec


# -- full-table reference ----------------------------------------------------
# The evaluator and the coordinate loop the row-local path replaced: every
# perturbed objective rebuilds the whole policy and recomputes every token.


def reference_evaluator(spec, batch, policy):
    terms = batch_token_terms(spec, batch, policy)
    frozen_scale = terms.grad_weights / terms.deltas
    frozen_offset = terms.values - terms.grad_weights * batch.advantages
    weights = token_weights(batch, spec.aggregation)
    visited = np.unique(batch.states)

    def evaluate(logits):
        live = TabularPolicy(logits)
        new_lp = new_logprob_lookup(live, batch.states, batch.actions)
        deltas = np.exp(new_lp - batch.old_logprobs)
        token_values = frozen_scale * deltas * batch.advantages + frozen_offset
        value = float(weights @ token_values)
        if spec.alpha > 0.0:
            value += entropy_bonus(live, visited, spec.alpha)[0]
        return value

    return evaluate


def reference_numeric_gradient(evaluator, policy, h):
    base = policy.logits.copy()
    grad = np.zeros_like(base)
    flagged = []
    work = base.copy()
    for s in range(base.shape[0]):
        for a in range(base.shape[1]):
            work[s, a] = base[s, a] + h
            plus = evaluator(work)
            work[s, a] = base[s, a] - h
            minus = evaluator(work)
            work[s, a] = base[s, a]
            if not (np.isfinite(plus) and np.isfinite(minus)):
                flagged.append((s, a))
                continue
            grad[s, a] = (plus - minus) / (2.0 * h)
    return grad, flagged


def assert_matches_reference(spec, batch, policy, h=1e-5):
    grad, flagged = numeric_gradient(frozen_surrogate_evaluator(spec, batch, policy), policy, h)
    ref_grad, ref_flagged = reference_numeric_gradient(
        reference_evaluator(spec, batch, policy), policy, h)
    assert np.array_equal(grad, ref_grad)
    assert flagged == ref_flagged


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_row_evaluator_bit_identical_to_full_table(algorithm):
    # 20 seeds on a 10x8 table keep the reference's cost down; the default
    # 31x8 table is covered by the report goldens and the cases below
    spec = _spec(algorithm)
    for seed in range(20):
        batch, policy = build_gradcheck_batch(spec, seed=seed, n_trajectories=16,
                                              env_config=SMALL_ENV, min_branch_count=2)
        assert_matches_reference(spec, batch, policy)


@pytest.mark.parametrize("env_config", [SMALL_ENV, None])
def test_row_evaluator_bit_identical_with_entropy_bonus(env_config):
    spec = ObjectiveSpec.for_algorithm("grpo", alpha=0.003)
    for seed in range(5):
        batch, policy = build_gradcheck_batch(spec, seed=seed, n_trajectories=16,
                                              env_config=env_config, min_branch_count=2)
        assert_matches_reference(spec, batch, policy)


@pytest.mark.parametrize("alpha", [0.0, 0.003])
def test_row_evaluator_bit_identical_with_unvisited_states(alpha):
    # three trajectories touch only a few of the 31 states
    spec = ObjectiveSpec.for_algorithm("ce_gppo", alpha=alpha)
    batch, policy = build_gradcheck_batch(spec, seed=3, n_trajectories=16, min_branch_count=2)
    batch = batch.subset([0, 1, 2])
    unvisited = np.setdiff1d(np.arange(policy.num_states), batch.states)
    assert unvisited.size > 10
    assert_matches_reference(spec, batch, policy)
    grad, _ = numeric_gradient(frozen_surrogate_evaluator(spec, batch, policy), policy, 1e-5)
    assert not grad[unvisited].any()


# -- boundary exclusion ---------------------------------------------------------


def reference_boundary_safe(spec, batch, policy, h):
    # the per-trajectory loop the masked version replaced
    deltas_all = batch_token_terms(spec, batch, policy).deltas
    lo, hi = spec.clip_bounds()
    band = 10.0 * h
    keep = []
    T = batch.seq_len
    for i in range(batch.n_trajectories):
        deltas = deltas_all[i * T:(i + 1) * T]
        near = (np.abs(deltas - lo) < band) | (np.abs(deltas - hi) < band)
        if spec.algorithm == "gspo":
            seq_ratio = float(np.exp(np.log(deltas).mean()))
            if min(abs(seq_ratio - lo), abs(seq_ratio - hi)) < band:
                continue
        if not near.any():
            keep.append(i)
    return keep


def unfiltered_batch(seed, n_groups=8, group_size=8, drift=0.35):
    config = EnvConfig()
    rng = named_stream(seed, "boundary-test")
    base = TabularPolicy.random(config.num_states, config.vocab_size, 0.6, rng)
    trajectories, advantages = [], []
    for _ in range(n_groups):
        group = rollout_group(base, sample_task(config, rng), group_size, rng)
        trajectories.extend(group.trajectories)
        advantages.extend(group_advantages(group, "zero").advantages.tolist())
    live = TabularPolicy(base.logits + rng.normal(0.0, drift, base.logits.shape))
    return TokenBatch.from_trajectories(trajectories, advantages), live


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_boundary_safe_trajectories_match_loop_reference(algorithm):
    spec = _spec(algorithm)
    kept = dropped = 0
    for seed in range(10):
        batch, policy = unfiltered_batch(seed)
        for h in (1e-5, 1e-3):
            keep = _boundary_safe_trajectories(spec, batch, policy, h)
            assert keep == reference_boundary_safe(spec, batch, policy, h)
            kept += len(keep)
            dropped += batch.n_trajectories - len(keep)
    assert kept and dropped  # both outcomes exercised


# -- the row interface ----------------------------------------------------------


def test_numeric_gradient_constant_objective_is_zero():
    policy = TabularPolicy.uniform(3, 4)
    grad, flagged = numeric_gradient(lambda state, rows: np.full(len(rows), 7.5), policy, 1e-5)
    assert np.array_equal(grad, np.zeros((3, 4)))
    assert flagged == []


def test_numeric_gradient_flags_nonfinite_coordinates():
    policy = TabularPolicy.uniform(2, 2)

    def evaluator(state, rows):
        # J = sum of all logits, with row `state` replaced by each of rows
        rest = policy.logits.sum() - policy.logits[state].sum()
        values = rest + rows.sum(axis=1)
        if state == 0:
            values[rows[:, 1] > 0.0] = float("inf")
        return values

    grad, flagged = numeric_gradient(evaluator, policy, 1e-5)
    assert flagged == [(0, 1)]
    assert grad[0, 1] == 0.0
    assert grad[1, 0] == pytest.approx(1.0, abs=1e-6)


def test_numeric_gradient_requires_positive_step():
    with pytest.raises(ValueError):
        numeric_gradient(lambda state, rows: np.zeros(len(rows)), TabularPolicy.uniform(1, 2), 0.0)


def test_numeric_gradient_calls_evaluator_once_per_state():
    policy = TabularPolicy.random(4, 3, 0.7, named_stream(2, "rows"))
    h = 1e-3
    calls = []

    def evaluator(state, rows):
        calls.append((state, rows.copy()))
        return np.zeros(len(rows))

    numeric_gradient(evaluator, policy, h)
    assert [state for state, _ in calls] == [0, 1, 2, 3]
    base = policy.logits
    for state, rows in calls:
        assert rows.shape == (6, 3)
        for sign, block in ((1.0, rows[:3]), (-1.0, rows[3:])):
            expected = np.tile(base[state], (3, 1))
            expected[np.arange(3), np.arange(3)] = base[state] + sign * h
            assert np.array_equal(block, expected)


def test_single_token_interior_closed_form():
    # numeric gradient of a one-token batch equals delta*A*(indicator - pi)
    policy = TabularPolicy.random(3, 5, 0.7, named_stream(0, "single"))
    batch = TokenBatch(states=np.array([1]), actions=np.array([2]),
                       old_logprobs=np.array([-1.3]), advantages=np.array([0.8]),
                       seq_len=1)
    spec = ObjectiveSpec.for_algorithm("ppo")
    evaluator = frozen_surrogate_evaluator(spec, batch, policy)
    numeric, flagged = numeric_gradient(evaluator, policy, 1e-5)
    assert not flagged
    delta = float(np.exp(np.log(policy.action_probabilities(1)[2]) + 1.3))
    expected = np.zeros((3, 5))
    expected[1] = delta * 0.8 * (np.eye(5)[2] - policy.action_probabilities(1))
    assert np.max(np.abs(numeric - expected)) < 1e-7


def test_central_difference_error_quadratic_in_h():
    # halving h reduces the error against the analytic gradient by ~4x
    policy = TabularPolicy.random(3, 5, 0.7, named_stream(1, "hconv"))
    batch = TokenBatch(states=np.array([0]), actions=np.array([1]),
                       old_logprobs=np.array([-1.0]), advantages=np.array([1.0]),
                       seq_len=1)
    spec = ObjectiveSpec.for_algorithm("ppo")
    _, analytic = analytic_objective_gradient(spec, batch, policy)
    evaluator = frozen_surrogate_evaluator(spec, batch, policy)
    errors = []
    for h in (4e-4, 2e-4, 1e-4, 5e-5):
        numeric, _ = numeric_gradient(evaluator, policy, h)
        errors.append(np.max(np.abs(numeric - analytic)))
    for bigger, smaller in zip(errors, errors[1:]):
        assert 3.0 < bigger / smaller < 5.0  # still above the round-off floor


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_check_passes_for_every_objective(algorithm):
    spec = _spec(algorithm)
    batch, policy = build_gradcheck_batch(spec, seed=11, n_trajectories=32,
                                          min_branch_count=4)
    report = check_objective_gradient(spec, batch, policy, min_branch_count=4)
    assert report.passed, report.to_dict()
    assert not report.rejected
    assert all(count >= 4 for count in report.branch_counts.values())
    assert report.max_abs_error < 1e-8


def test_check_includes_entropy_bonus():
    spec = ObjectiveSpec.for_algorithm("grpo", alpha=0.003)
    batch, policy = build_gradcheck_batch(spec, seed=12, n_trajectories=32,
                                          min_branch_count=4)
    report = check_objective_gradient(spec, batch, policy, min_branch_count=4)
    assert report.passed, report.to_dict()


def test_zero_beta_gradient_bit_identical_to_ppo():
    ce = ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=0.0,
                                     aggregation="sequence_mean")
    ppo = ObjectiveSpec.for_algorithm("ppo")
    batch, policy = build_gradcheck_batch(ppo, seed=13, n_trajectories=32,
                                          min_branch_count=4)
    _, g_ce = analytic_objective_gradient(ce, batch, policy)
    _, g_ppo = analytic_objective_gradient(ppo, batch, policy)
    assert np.linalg.norm(g_ce - g_ppo) < 1e-12


def test_branch_coverage_rejection():
    spec = _spec("ce_gppo")
    batch, policy = build_gradcheck_batch(spec, seed=14, n_trajectories=16,
                                          min_branch_count=2)
    report = check_objective_gradient(spec, batch, policy, min_branch_count=10_000)
    assert report.rejected
    assert not report.passed
    assert "coverage" in report.rejection_reason
    assert report.branch_counts  # diagnostic includes the observed counts


def test_report_json_roundtrip():
    spec = _spec("ppo")
    batch, policy = build_gradcheck_batch(spec, seed=15, n_trajectories=16,
                                          min_branch_count=2)
    report = check_objective_gradient(spec, batch, policy, min_branch_count=2)
    doc = report.to_dict()
    assert doc["algorithm"] == "ppo"
    assert set(doc["branch_counts"]) == {
        "interior_or_pessimistic", "left_clipped", "right_clipped"}
    assert isinstance(doc["worst_coordinate"], list)


def test_builder_avoids_clip_boundaries():
    spec = _spec("ce_gppo")
    batch, policy = build_gradcheck_batch(spec, seed=16, n_trajectories=32,
                                          min_branch_count=4, h=1e-5)
    deltas = batch_token_terms(spec, batch, policy).deltas
    lo, hi = spec.clip_bounds()
    assert np.min(np.abs(deltas - lo)) >= 1e-4
    assert np.min(np.abs(deltas - hi)) >= 1e-4


# sha256 of the sorted-key JSON of GradCheckReport.to_dict() at the benchmark's
# gradcheck settings, per (algorithm, seed)
REPORT_SETTINGS = {"n_trajectories": 64, "min_branch_count": 16, "h": 1e-5}
REPORT_GOLDEN = {
    ("ppo", 0): "4cd093d8304ebda74b66e3a6d5d5e10a0af8244517e51df1597337ab1c2a07ae",
    ("grpo", 0): "343f1d68815eb924f64b561be26046b259595b324d8b0ba6e912a40a5a9852be",
    ("dapo", 0): "9ff7ee0641f6b6f40af378003093d413957db119bd029864c7a39601bfc03a62",
    ("cispo", 0): "3a25be72e7639d5f2826074d0cfc8d398b27c5dd2ae0ecdd97ec9298ca06fad7",
    ("gspo", 0): "2352ca88a85a5c67922541463a2d11cc09c41750d25a662d9f63d9d3dde92ec9",
    ("ce_gppo", 0): "f5c714482eb073a407394ec4bd9c6d731ac28481ffd55029e47eea3847ef59e1",
    ("ppo", 1): "b2b541dd7d609506950654351b81e9960b49590bce7c31aefa5871fdf535ddc6",
    ("grpo", 1): "0a0f27ba196b26acfcdb87e6b16086a4d858f36debb85448ed98cc8fb72f8ae8",
    ("dapo", 1): "2f51d782b4e4d1ce46836da21f7c34e3f29df835602d2f1d3d50e2611a614cf9",
    ("cispo", 1): "dc294b83fe1d4ea1682b41ffcbb309a12433efe3f6769c611b78ec4bd0b2e15f",
    ("gspo", 1): "98efd9fc91f3414a98055f90da7c172b514e0a0f5eadc9513ff72d6f32b5b466",
    ("ce_gppo", 1): "683a98c128c1163b09182a4c3c2ba41b55699d7aa7a59b6d391829cdc746448f",
}


@pytest.mark.parametrize("algorithm,seed", sorted(REPORT_GOLDEN))
def test_report_golden(algorithm, seed):
    spec = ObjectiveSpec.for_algorithm(algorithm)
    batch, policy = build_gradcheck_batch(spec, seed=seed, **REPORT_SETTINGS)
    report = check_objective_gradient(spec, batch, policy, h=REPORT_SETTINGS["h"],
                                      min_branch_count=REPORT_SETTINGS["min_branch_count"])
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_GOLDEN[(algorithm, seed)]
