"""Acceptance gate: the package's ten verification criteria.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Every tolerance is pinned here; nothing is deferred to later calibration.
Runs are fully seeded, so every number below is reproducible bit-for-bit.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from policylab import (
    ModSumTask,
    ObjectiveSpec,
    RunConfig,
    TabularPolicy,
    build_gradcheck_batch,
    center_advantages,
    check_objective_gradient,
    clip_terms,
    entropy_covariance,
    evaluate,
    named_stream,
    train,
    verify_predictor_convergence,
)
from policylab.gradcheck import analytic_objective_gradient

ALL_ALGORITHMS = ("ppo", "grpo", "dapo", "cispo", "gspo", "ce_gppo")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} [{name}] {status}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _spec(algorithm: str) -> ObjectiveSpec:
    spec = ObjectiveSpec.for_algorithm(algorithm)
    if algorithm == "ce_gppo":
        spec = spec.with_betas(0.5, 1.0)
    return spec


@lru_cache(maxsize=None)
def _train300(algorithm: str, beta1: float, beta2: float, seed: int):
    if algorithm == "grpo":
        objective = ObjectiveSpec.for_algorithm("grpo")
    else:
        objective = ObjectiveSpec.for_algorithm("ce_gppo", beta1=beta1, beta2=beta2)
    config = RunConfig(total_steps=300, seed=seed, objective=objective)
    result = train(config)
    return result


def test_c01_gradient_correctness_all_objectives():
    start = time.time()
    worst = {}
    for algorithm in ALL_ALGORITHMS:
        spec = _spec(algorithm)
        batch, policy = build_gradcheck_batch(spec, seed=7, n_trajectories=64,
                                              min_branch_count=16, h=1e-5)
        report = check_objective_gradient(spec, batch, policy, h=1e-5, min_branch_count=16)
        assert not report.rejected, report.rejection_reason
        assert min(report.branch_counts.values()) >= 16
        worst[algorithm] = (report.passed, report.max_rel_error, report.max_abs_error)
    elapsed = time.time() - start
    ok = all(passed for passed, _, _ in worst.values()) and elapsed < 60
    detail = ("max_rel " + ", ".join(f"{a}={r:.1e}" for a, (_, r, _) in worst.items())
              + f"; every branch >= 16 hits; {elapsed:.1f}s")
    _report(1, "gradient correctness", ok, detail)


def test_c02_ppo_reduction_bit_identical():
    start = time.time()
    ppo = ObjectiveSpec.for_algorithm("ppo")
    ce0 = ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=0.0)
    max_diff = 0.0
    for seed in range(100):
        batch, policy = build_gradcheck_batch(ppo, seed=1000 + seed, n_trajectories=8,
                                              min_branch_count=0, max_attempts=3)
        _, g_ppo = analytic_objective_gradient(ppo, batch, policy)
        _, g_ce = analytic_objective_gradient(ce0, batch, policy)
        max_diff = max(max_diff, float(np.linalg.norm(g_ce - g_ppo)))
    elapsed = time.time() - start
    ok = max_diff < 1e-12
    _report(2, "ppo reduction at beta=0", ok,
            f"max gradient difference norm {max_diff:.2e} over 100 batches; {elapsed:.1f}s")


def test_c03_entropy_predictor_second_order():
    start = time.time()
    rng = named_stream(1234, "c3")
    etas = [0.02, 0.01, 0.005, 0.0025]
    instances = 0
    failures = []
    while instances < 150:
        n = int(rng.integers(4, 11))
        policy = TabularPolicy.random(1, n, float(rng.uniform(0.3, 1.5)), rng)
        adv = center_advantages(policy, [0], rng.normal(size=(1, n)))
        report = verify_predictor_convergence(policy, [0], adv, etas[0])[0]
        if report.degenerate:
            continue
        instances += 1
        if not report.passed:
            failures.append(report.ratios)
    elapsed = time.time() - start
    ok = not failures and instances >= 100 and elapsed < 60
    _report(3, "entropy predictor converges at second order", ok,
            f"{instances} instances, {len(failures)} outside ratio band [3, 5]; "
            f"{elapsed:.1f}s")


def test_c04_covariance_sign_semantics():
    rng = named_stream(77, "c4")
    checked = 0
    violations = 0
    while checked < 1000:
        n = int(rng.integers(3, 12))
        policy = TabularPolicy.random(1, n, float(rng.uniform(0.2, 2.5)), rng)
        probs = policy.action_probabilities(0)
        if probs.max() - probs.min() < 1e-9:
            continue
        checked += 1
        # rows: one-hot advantage on the most, then the least probable action
        boosts = center_advantages(policy, [0, 0],
                                   np.eye(n)[[int(np.argmax(probs)), int(np.argmin(probs))]])
        cov_max, cov_min = entropy_covariance(policy, [0, 0], boosts)
        if not cov_max > 0:
            violations += 1
        if not cov_min < 0:
            violations += 1
    ok = violations == 0
    _report(4, "covariance sign semantics", ok,
            f"{checked} policies, {violations} sign violations (zero tolerance)")


def test_c05_clipped_tokens_are_low_probability():
    # differentiated start (the analogue of a pretrained policy), multi-mini-epoch
    config = RunConfig(total_steps=150, seed=0, init_logit_scale=1.5)
    metrics = train(config).metrics
    after = [m for m in metrics if m.step > 10]
    missing = [m.step for m in after if np.isnan(m.prob_clipped_mean)]
    violating = [m.step for m in after if not np.isnan(m.prob_clipped_mean)
                 and not (m.prob_clipped_mean < m.prob_unclipped_mean)]
    ok = not missing and not violating
    _report(5, "clipped tokens are low-probability", ok,
            f"{len(after)} steps after step 10: {len(missing)} without clipped tokens, "
            f"{len(violating)} violating clipped < unclipped")


def test_c06_directional_entropy_control():
    start = time.time()
    fast = [_train300("ce_gppo", 1.0, 0.5, seed).metrics for seed in range(5)]
    slow = [_train300("ce_gppo", 0.5, 1.0, seed).metrics for seed in range(5)]
    initial = float(np.mean([m[0].entropy_exact for m in fast + slow]))
    fast_final = float(np.mean([m[-1].entropy_exact for m in fast]))
    slow_final = float(np.mean([m[-1].entropy_exact for m in slow]))
    margin = slow_final - fast_final
    required = 0.05 * initial
    elapsed = time.time() - start
    ok = fast_final < slow_final and margin >= required and elapsed < 600
    _report(6, "beta steers entropy directionally", ok,
            f"5 paired seeds at 300 steps: mean H(beta 1,0.5)={fast_final:.4f} < "
            f"mean H(beta 0.5,1)={slow_final:.4f}, margin {margin:.4f} >= {required:.4f}; "
            f"{elapsed:.0f}s")


def test_c07_collapse_vs_stabilization():
    grpo = _train300("grpo", 0.0, 0.0, 0)
    ce = _train300("ce_gppo", 0.5, 1.0, 0)
    initial = grpo.metrics[0].entropy_exact
    grpo_final = grpo.metrics[-1].entropy_exact
    ce_final = ce.metrics[-1].entropy_exact
    held_out = [ModSumTask(8, 6, 5, 4)]
    grpo_acc = evaluate(grpo.policy, held_out, 1000, named_stream(0, "c7-eval", 0))
    ce_acc = evaluate(ce.policy, held_out, 1000, named_stream(0, "c7-eval", 1))
    ok = (grpo_final < 0.2 * initial and ce_final > 0.4 * initial
          and ce_acc >= grpo_acc)
    _report(7, "collapse vs stabilization", ok,
            f"grpo H {grpo_final:.4f} < {0.2 * initial:.4f}, "
            f"ce_gppo H {ce_final:.4f} > {0.4 * initial:.4f}, "
            f"P(token sum mod 5 = 4), a residue no training target rewards, "
            f"{ce_acc:.4f} >= {grpo_acc:.4f}")


def test_c08_stability_of_default_run():
    config = RunConfig(seed=0)  # default objective, 500 steps
    result = train(config)
    metrics = result.metrics
    finite = all(m.finite() for m in metrics)
    below = sum(1 for m in metrics if m.kl < 1.0)
    fraction = below / len(metrics)
    ok = (result.manifest["status"] == "completed" and finite
          and len(metrics) == 500 and fraction >= 0.99)
    _report(8, "training stability", ok,
            f"500 steps, all metrics finite={finite}, KL < 1.0 at "
            f"{fraction:.1%} of steps (max KL {max(m.kl for m in metrics):.4f})")


def test_c09_pessimism_contrast_grid():
    violations = []
    eps = 0.2
    ce_spec = ObjectiveSpec(algorithm="ce_gppo", eps_low=eps, eps_high=eps, beta1=0.5,
                            beta2=1.0)
    ci_spec = ObjectiveSpec(algorithm="cispo", eps_low=eps, eps_high=eps)
    grid = [k / 10 for k in range(1, 31)]
    deltas = np.repeat(grid, 2)
    advs = np.tile([-1.0, 1.0], len(grid))
    ce_weights = clip_terms(ce_spec, deltas, advs, 1)[1]
    ci_weights = clip_terms(ci_spec, deltas, advs, 1)[1]
    for delta, adv, ce, ci in zip(deltas, advs, ce_weights, ci_weights):
        if delta < 1 - eps and adv > 0 and not ce < ci:
            violations.append((delta, adv))
        if delta > 1 + eps and adv < 0 and not ce > ci:
            violations.append((delta, adv))
    ok = not violations
    _report(9, "pessimism contrast with frozen-weight clipping", ok,
            f"grid delta in [0.1, 3.0] x A in {{-1, +1}}: {len(violations)} "
            "ordering violations (zero tolerance)")


def test_c10_byte_identical_determinism(tmp_path):
    configs = {
        "ce_gppo": RunConfig(total_steps=25, seed=3),
        "dapo_dynamic": RunConfig(total_steps=25, seed=4, dynamic_sampling=True,
                                  objective=ObjectiveSpec.for_algorithm("dapo")),
    }
    identical = {}
    for name, config in configs.items():
        train(config, out_dir=tmp_path / f"{name}_a")
        train(config, out_dir=tmp_path / f"{name}_b")
        identical[name] = ((tmp_path / f"{name}_a/metrics.csv").read_bytes()
                           == (tmp_path / f"{name}_b/metrics.csv").read_bytes())
    ok = all(identical.values())
    _report(10, "byte-identical determinism", ok,
            "repeated runs produce identical metrics CSVs: "
            + ", ".join(f"{k}={v}" for k, v in identical.items()))
