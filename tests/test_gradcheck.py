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
from policylab.env import Trajectory, rollout_group, sample_task
from policylab import gradcheck
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
# The evaluator and the coordinate loop the batched path replaced: every
# perturbed objective rebuilds the whole policy and recomputes every token.


def reference_evaluator(spec, batch, policy):
    terms = batch_token_terms(spec, batch, policy)
    frozen_scale = terms.grad_weights / terms.deltas
    frozen_offset = terms.values - terms.grad_weights * batch.advantages
    weights = token_weights(batch)
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
        advantages.extend(group_advantages(group).tolist())
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


# -- the batched interface ------------------------------------------------------


def test_numeric_gradient_constant_objective_is_zero():
    policy = TabularPolicy.uniform(3, 4)
    grad, flagged = numeric_gradient(lambda rows: np.full(rows.shape[:2], 7.5), policy, 1e-5)
    assert np.array_equal(grad, np.zeros((3, 4)))
    assert flagged == []


def test_numeric_gradient_flags_nonfinite_coordinates():
    policy = TabularPolicy.uniform(2, 2)

    def evaluator(rows):
        # J = sum of all logits, with row s replaced by each of rows[s]
        rest = policy.logits.sum() - policy.logits.sum(axis=1)
        values = rest[:, None] + rows.sum(axis=2)
        values[0, rows[0, :, 1] > 0.0] = float("inf")
        return values

    grad, flagged = numeric_gradient(evaluator, policy, 1e-5)
    assert flagged == [(0, 1)]
    assert grad[0, 1] == 0.0
    assert grad[1, 0] == pytest.approx(1.0, abs=1e-6)


def test_numeric_gradient_flags_in_row_major_order():
    policy = TabularPolicy.uniform(3, 3)

    def evaluator(rows):
        values = np.zeros(rows.shape[:2])
        values[2, 0] = values[0, 4] = values[1, 3] = float("nan")  # (2,0) (0,1) (1,0)
        return values

    _, flagged = numeric_gradient(evaluator, policy, 1e-5)
    assert flagged == [(0, 1), (1, 0), (2, 0)]


def test_numeric_gradient_requires_positive_step():
    with pytest.raises(ValueError):
        numeric_gradient(lambda rows: np.zeros(rows.shape[:2]), TabularPolicy.uniform(1, 2), 0.0)


def test_numeric_gradient_calls_evaluator_once():
    policy = TabularPolicy.random(4, 3, 0.7, named_stream(2, "rows"))
    h = 1e-3
    calls = []

    def evaluator(rows):
        calls.append(rows.copy())
        return np.zeros(rows.shape[:2])

    numeric_gradient(evaluator, policy, h)
    assert len(calls) == 1
    rows = calls[0]
    assert rows.shape == (4, 6, 3)
    base = policy.logits
    for state in range(4):
        for sign, block in ((1.0, rows[state, :3]), (-1.0, rows[state, 3:])):
            for a in range(3):
                expected = base[state].copy()
                expected[a] = base[state, a] + sign * h
                assert np.array_equal(block[a], expected)


@pytest.mark.parametrize("alpha", [0.0, 0.003])
def test_evaluator_chunking_leaves_gradient_unchanged(monkeypatch, alpha):
    # chunks of 1, 2 and 3 states, each at the smallest and largest budget
    # that gives it, against a budget that holds the whole table
    spec = ObjectiveSpec.for_algorithm("ce_gppo", alpha=alpha)
    batch, policy = build_gradcheck_batch(spec, seed=0, n_trajectories=16, min_branch_count=2)
    n_visited = len(np.unique(batch.states))
    assert n_visited % 2 and n_visited % 3  # the last chunk of 2 or 3 states is partial
    state_cells = 2 * policy.num_actions * batch.n_tokens
    monkeypatch.setattr(gradcheck, "TILE_CELL_BUDGET", policy.num_states * state_cells)
    whole, whole_flagged = numeric_gradient(
        frozen_surrogate_evaluator(spec, batch, policy), policy, 1e-5)
    for budget in (1, state_cells, 2 * state_cells - 1, 2 * state_cells,
                   3 * state_cells - 1, 3 * state_cells, 4 * state_cells - 1):
        monkeypatch.setattr(gradcheck, "TILE_CELL_BUDGET", budget)
        grad, flagged = numeric_gradient(
            frozen_surrogate_evaluator(spec, batch, policy), policy, 1e-5)
        assert np.array_equal(grad, whole)
        assert flagged == whole_flagged


def _closure_arrays(fn):
    """The ndarrays an evaluator keeps between calls, nested closures included."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value) and hasattr(value, "__closure__"):
            yield from _closure_arrays(value)


@pytest.mark.parametrize("alpha", [0.0, 0.003])
def test_evaluator_keeps_no_per_perturbation_arrays(alpha):
    # what the evaluator holds between calls is per token or per state, never
    # one entry per (perturbation, token) pair
    spec = ObjectiveSpec.for_algorithm("ce_gppo", alpha=alpha)
    batch, policy = build_gradcheck_batch(spec, seed=0, n_trajectories=16, min_branch_count=2)
    arrays = list(_closure_arrays(frozen_surrogate_evaluator(spec, batch, policy)))
    assert arrays
    assert max(a.size for a in arrays) <= batch.n_tokens


def test_stacked_matmul_rounds_like_per_row_dot():
    # the evaluator sums each perturbed objective with a stacked 1 x n matmul
    # and must round as the per-row dot of a full recompute; a plain
    # matrix-vector product does not
    rng = named_stream(0, "stacked-matmul")
    for n in (5, 17, 384, 4097):
        for scale in (1e-8, 1.0, 1e8):
            tile = rng.normal(size=(33, n)) * scale
            weights = rng.random(n)
            stacked = np.matmul(tile[:, None, :], weights)[:, 0]
            assert np.array_equal(stacked, np.array([weights @ v for v in tile]))


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
    ce = ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=0.0)
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


def test_flagged_coordinates_leave_the_error(monkeypatch):
    # a coordinate numeric_gradient flags is listed and excluded, however wrong its entry
    spec = _spec("ce_gppo")
    batch, policy = build_gradcheck_batch(spec, seed=3, n_trajectories=16, min_branch_count=1)
    numeric_gradient = gradcheck.numeric_gradient
    cell = (int(batch.states[0]), int(batch.actions[0]))

    def flag_one(evaluator, policy, h):
        grad, flagged = numeric_gradient(evaluator, policy, h)
        grad[cell] = 1e6
        return grad, flagged + [cell]

    clean = check_objective_gradient(spec, batch, policy)
    monkeypatch.setattr(gradcheck, "numeric_gradient", flag_one)
    report = check_objective_gradient(spec, batch, policy)
    assert clean.passed and clean.flagged_coordinates == []
    assert report.passed and report.flagged_coordinates == [cell]
    assert report.max_abs_error <= clean.max_abs_error
    assert report.n_coordinates == clean.n_coordinates - 1


def test_builder_failure_when_no_attempt_keeps_two_trajectories():
    # one trajectory per attempt can never make a 2-trajectory batch
    with pytest.raises(RuntimeError, match="no attempt kept 2 boundary-safe trajectories"):
        build_gradcheck_batch(_spec("ce_gppo"), seed=0, n_trajectories=1, max_attempts=2)


def test_builder_failure_reports_last_branch_counts():
    with pytest.raises(RuntimeError, match=r"last counts: \{'interior"):
        build_gradcheck_batch(_spec("ce_gppo"), seed=0, n_trajectories=8,
                              min_branch_count=10_000, max_attempts=2)


def test_builder_builds_no_trajectory(monkeypatch):
    built = []
    original = Trajectory.__init__
    monkeypatch.setattr(Trajectory, "__init__",
                        lambda self, *args: built.append(1) or original(self, *args))
    batch, _ = build_gradcheck_batch(_spec("ce_gppo"), seed=0, n_trajectories=20,
                                     min_branch_count=1)
    assert batch.n_trajectories <= 20
    assert built == []


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
