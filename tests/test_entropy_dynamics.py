import math

import numpy as np
import pytest

from policylab import (
    ObjectiveSpec,
    TabularPolicy,
    center_advantages,
    clip_terms,
    entropy_covariance,
    named_stream,
    predict_entropy_change,
    verify_predictor_convergence,
)
from policylab.entropy_dynamics import HISTOGRAM_EDGES, quadrant_stats_arrays
from policylab.policy import entropy_gradient_rows

# the PPO clip rule with bounds (0.8, 1.2)
PPO_RULE = ObjectiveSpec(algorithm="dapo", eps_low=0.2, eps_high=0.2)


def _policy_from_probs(probs):
    return TabularPolicy(np.log(np.array([probs])))


def _stats(deltas, advs, probs, prob_threshold, spec=PPO_RULE):
    """quadrant_stats_arrays with the branch codes of spec's clip rule."""
    deltas, advs = np.asarray(deltas, dtype=np.float64), np.asarray(advs, dtype=np.float64)
    codes = clip_terms(spec, deltas, advs, 1)[2]
    return quadrant_stats_arrays(deltas, advs, probs, codes, prob_threshold)


def _classify(delta, adv, prob, prob_threshold=0.5):
    """(quadrant, clip side) of one token, read off its batch statistics."""
    stats = _stats([delta], [adv], [prob], prob_threshold)
    quadrant = "neutral" if stats.n_neutral else next(
        k for k, c in stats.counts.items() if c)
    clip = ("left" if stats.left_clip_fraction else
            "right" if stats.right_clip_fraction else "none")
    return quadrant, clip


# ---------------------------------------------------------------------------
# token classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert _classify(1.0, 1.0, 0.9) == ("pa_hp", "none")
    assert _classify(1.5, 1.0, 0.05) == ("pa_lp", "right")
    assert _classify(0.5, -1.0, 0.05) == ("na_lp", "left")
    assert _classify(0.5, -1.0, 0.9) == ("na_hp", "left")
    assert _classify(1.0, 0.0, 0.5) == ("neutral", "none")


def test_classify_clip_needs_matching_advantage_sign():
    # ratio beyond a bound with the wrong advantage sign is not clipped
    assert _classify(0.5, 1.0, 0.05)[1] == "none"
    assert _classify(1.5, -1.0, 0.05)[1] == "none"


# ---------------------------------------------------------------------------
# covariance and the one-step predictor
# ---------------------------------------------------------------------------

def test_covariance_identity_two_forms():
    rng = named_stream(0, "cov-id")
    for _ in range(300):
        n = int(rng.integers(2, 10))
        policy = TabularPolicy.random(1, n, rng.uniform(0.2, 2.5), rng)
        adv = rng.normal(size=n)
        probs = policy.action_probabilities(0)
        x = np.log(probs)
        y = probs * adv
        definitional = float(
            (probs * (x - probs @ x) * (y - probs @ y)).sum())
        assert abs(entropy_covariance(policy, 0, adv) - definitional) < 1e-12


def test_uniform_policy_zero_covariance():
    policy = TabularPolicy.uniform(1, 8)
    adv = center_advantages(policy, 0, np.arange(8.0))
    prediction = predict_entropy_change(policy, 0, adv, 0.01)
    assert abs(prediction.covariance) < 1e-12
    assert abs(prediction.predicted_delta_h) < 1e-14


def test_hand_computed_prediction_point_eight():
    # centered form of (+1, -1) under (0.8, 0.2) is (0.4, -1.6)
    policy = _policy_from_probs([0.8, 0.2])
    adv = center_advantages(policy, 0, [1.0, -1.0])
    assert np.allclose(adv, [0.4, -1.6])
    prediction = predict_entropy_change(policy, 0, adv, 0.01)
    assert prediction.covariance == pytest.approx(0.1420, abs=1e-4)
    assert prediction.predicted_delta_h == pytest.approx(-0.001420, abs=1e-6)
    assert prediction.predicted_delta_h == -0.01 * prediction.covariance
    assert prediction.abs_error < 1e-6  # second order in eta


def test_low_probability_boost_negative_covariance():
    # positive advantage on the low-probability action: entropy predicted to rise
    policy = _policy_from_probs([0.2, 0.8])
    adv = center_advantages(policy, 0, [1.0, -1.0])
    prediction = predict_entropy_change(policy, 0, adv, 0.01)
    assert prediction.covariance == pytest.approx(-0.1420, abs=1e-4)
    assert prediction.predicted_delta_h > 0
    assert prediction.actual_delta_h > 0


def test_prediction_requires_centered_advantages():
    policy = _policy_from_probs([0.8, 0.2])
    with pytest.raises(ValueError, match="E_pi\\[A\\] = 6"):
        predict_entropy_change(policy, 0, [1.0, -1.0], 0.01)


def test_prediction_validation():
    policy = _policy_from_probs([0.5, 0.5])
    with pytest.raises(ValueError):
        predict_entropy_change(policy, 0, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        predict_entropy_change(policy, 0, [0.0, 0.0, 0.0], 0.01)


def test_prediction_shift_invariance():
    rng = named_stream(1, "shift")
    logits = rng.normal(0, 1, (1, 6))
    p1 = TabularPolicy(logits)
    p2 = TabularPolicy(logits + 123.0)
    adv = center_advantages(p1, 0, rng.normal(size=6))
    a = predict_entropy_change(p1, 0, adv, 0.02)
    b = predict_entropy_change(p2, 0, adv, 0.02)
    assert a.covariance == pytest.approx(b.covariance, abs=1e-12)
    assert a.predicted_delta_h == pytest.approx(b.predicted_delta_h, abs=1e-12)


def test_entropy_gradient_along_pg_step_is_minus_covariance():
    # the first-order entropy change of an update u is <dH/dz, u>; along the
    # idealized step u = pi * A it is the -Cov(log pi, pi * A) the predictor uses
    for seed in range(20):
        policy = TabularPolicy.random(1, 6, 1.0, named_stream(seed, "upd"))
        adv = center_advantages(policy, 0, named_stream(seed, "adv").normal(size=6))
        probs = policy.probability_matrix()
        first_order = float(entropy_gradient_rows(probs)[0] @ (probs[0] * adv))
        assert first_order == pytest.approx(-entropy_covariance(policy, 0, adv), abs=1e-12)
        prediction = predict_entropy_change(policy, 0, adv, 0.02)
        assert prediction.predicted_delta_h == -0.02 * prediction.covariance
        assert prediction.mode == "policy_gradient"


def test_sign_semantics_boost_most_and_least_probable():
    # property over 1000 random >= 3-action policies, zero tolerance on sign
    rng = named_stream(3, "signs")
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        policy = TabularPolicy.random(1, n, rng.uniform(0.2, 2.5), rng)
        probs = policy.action_probabilities(0)
        if probs.max() - probs.min() < 1e-9:
            continue
        for which, comparator in (("max", lambda c: c > 0), ("min", lambda c: c < 0)):
            a = int(np.argmax(probs)) if which == "max" else int(np.argmin(probs))
            adv = center_advantages(policy, 0, np.eye(n)[a])
            cov = entropy_covariance(policy, 0, adv)
            assert comparator(cov), (which, probs, cov)


# ---------------------------------------------------------------------------
# convergence verification
# ---------------------------------------------------------------------------

def test_convergence_quadratic_shrinkage():
    policy = TabularPolicy.random(1, 8, 1.0, named_stream(4, "conv"))
    adv = center_advantages(policy, 0, named_stream(4, "conv-adv").normal(size=8))
    report = verify_predictor_convergence(policy, 0, adv, [0.04, 0.02, 0.01, 0.005])
    assert report.passed and not report.degenerate
    assert len(report.ratios) == 3
    for ratio in report.ratios[-2:]:
        assert 3.0 <= ratio <= 5.0


def test_convergence_zero_advantages_degenerate():
    policy = TabularPolicy.random(1, 6, 1.0, named_stream(5, "conv0"))
    report = verify_predictor_convergence(policy, 0, np.zeros(6),
                                          [0.04, 0.02, 0.01, 0.005])
    assert report.passed and report.degenerate
    assert "floor" in report.reason


def test_convergence_near_deterministic_policy_excluded():
    policy = TabularPolicy(np.array([[200.0, 0.0, 0.0]]))
    assert policy.exact_entropy(0) < 1e-6
    report = verify_predictor_convergence(policy, 0, np.zeros(3),
                                          [0.04, 0.02, 0.01, 0.005])
    assert report.degenerate
    assert "entropy" in report.reason


def test_convergence_sequence_validation():
    policy = TabularPolicy.uniform(1, 4)
    with pytest.raises(ValueError):
        verify_predictor_convergence(policy, 0, np.zeros(4), [0.04, 0.02, 0.01])
    with pytest.raises(ValueError):
        verify_predictor_convergence(policy, 0, np.zeros(4), [0.04, 0.03, 0.02, 0.01])


def test_convergence_failure_reports_measured_sequence():
    # a sequence of etas too large for the first-order regime on a sharp policy
    policy = _policy_from_probs([0.97, 0.01, 0.01, 0.01])
    adv = center_advantages(policy, 0, np.array([5.0, -30.0, 20.0, -10.0]))
    report = verify_predictor_convergence(policy, 0, adv, [8.0, 4.0, 2.0, 1.0])
    if not report.passed:
        assert "measured sequence" in report.reason
        assert len(report.errors) == 4


# ---------------------------------------------------------------------------
# batch quadrant statistics
# ---------------------------------------------------------------------------

def test_quadrant_stats_all_unit_ratios():
    stats = _stats(np.ones(100), np.r_[np.ones(50), -np.ones(50)], np.full(100, 0.2), 0.125)
    assert stats.left_clip_fraction == 0.0
    assert stats.right_clip_fraction == 0.0


def test_quadrant_stats_constructed_right_clip_fraction():
    # 10% of tokens at delta 1.5 with positive advantage
    deltas = np.ones(100)
    deltas[:10] = 1.5
    advs = np.ones(100)
    stats = _stats(deltas, advs, np.full(100, 0.3), 0.125)
    assert stats.right_clip_fraction == pytest.approx(0.10)
    assert stats.left_clip_fraction == 0.0


def test_quadrant_fractions_sum_to_one_over_signed_tokens():
    rng = named_stream(6, "qs")
    deltas = rng.uniform(0.3, 2.0, 500)
    advs = np.where(rng.random(500) < 0.2, 0.0, rng.normal(size=500))
    probs = rng.uniform(0.01, 1.0, 500)
    stats = _stats(deltas, advs, probs, 0.125)
    assert sum(stats.fractions.values()) == pytest.approx(1.0)
    assert stats.n_neutral == int((advs == 0).sum())
    assert sum(stats.counts.values()) + stats.n_neutral == 500


def test_histogram_fixed_edges_and_overflow():
    assert len(HISTOGRAM_EDGES) == 41
    assert HISTOGRAM_EDGES[0] == pytest.approx(math.exp(-3))
    assert HISTOGRAM_EDGES[-1] == pytest.approx(math.exp(3))
    deltas = np.array([1e-3, 1.0, 1e3])
    stats = _stats(deltas, np.ones(3), np.full(3, 0.5), 0.5)
    assert len(stats.histogram_counts) == 42
    assert stats.histogram_counts[0] == 1    # underflow
    assert stats.histogram_counts[-1] == 1   # overflow
    assert sum(stats.histogram_counts) == 3


def test_batch_quadrant_stats_from_records():
    # (old prob, new prob, advantage) per token
    records = np.array([
        [0.05, 0.09, 1.0],    # ratio 1.8, PA&LP right
        [0.5, 0.5, -1.0],     # ratio 1.0, NA&HP
        [0.04, 0.01, -1.0],   # ratio .25, NA&LP left
        [0.3, 0.3, 0.0],      # neutral
    ])
    old_probs, advs = records[:, 0], records[:, 2]
    deltas = np.exp(np.log(records[:, 1]) - np.log(old_probs))
    stats = _stats(deltas, advs, old_probs, 0.125, spec=ObjectiveSpec.for_algorithm("ppo"))
    assert stats.counts["pa_lp"] == 1
    assert stats.counts["na_hp"] == 1
    assert stats.counts["na_lp"] == 1
    assert stats.n_neutral == 1
    assert stats.right_clip_fraction == pytest.approx(0.25)
    assert stats.left_clip_fraction == pytest.approx(0.25)
    assert deltas[0] == pytest.approx(1.8)


def test_clip_fractions_count_the_branch_codes():
    # the clip fractions are the objective's verdict: cispo clips on either
    # sign, gspo whole sequences, and nothing is re-derived from the ratios
    deltas = np.array([0.5, 0.5, 1.5, 1.5, 1.0, 1.0])
    advs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    probs = np.full(6, 0.3)
    cispo = _stats(deltas, advs, probs, 0.125, spec=ObjectiveSpec.for_algorithm("cispo"))
    assert (cispo.left_clip_fraction, cispo.right_clip_fraction) == (2 / 6, 2 / 6)
    ppo = _stats(deltas, advs, probs, 0.125)
    assert (ppo.left_clip_fraction, ppo.right_clip_fraction) == (1 / 6, 1 / 6)
    codes = np.array([0, 1, 1, 2, 2, 2])
    stats = quadrant_stats_arrays(np.ones(6), advs, probs, codes, 0.125)
    assert (stats.left_clip_fraction, stats.right_clip_fraction) == (2 / 6, 3 / 6)
    with pytest.raises(ValueError, match="branch codes"):
        quadrant_stats_arrays(np.ones(6), advs, probs, codes[:5], 0.125)
