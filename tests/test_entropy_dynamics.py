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
from policylab.entropy_dynamics import (
    CENTERING_TOLERANCE,
    DEGENERATE_ENTROPY,
    ERROR_FLOOR,
    HISTOGRAM_EDGES,
    RATIO_BAND,
    ConvergenceReport,
    EntropyPrediction,
    quadrant_stats_arrays,
)
from policylab.policy import entropy_and_gradient_rows, entropy_rows, softmax_rows

# the PPO clip rule with bounds (0.8, 1.2)
PPO_RULE = ObjectiveSpec(algorithm="dapo", eps_low=0.2, eps_high=0.2)


def _policy_from_probs(probs):
    return TabularPolicy(np.log(np.array([probs])))


def _one(fn, policy, adv, *args):
    """fn over the single state 0 of policy, with one advantage row."""
    return fn(policy, [0], np.asarray(adv, dtype=np.float64)[None], *args)[0]


# ---------------------------------------------------------------------------
# the per-state predictor, kept as the reference the row functions must match
# ---------------------------------------------------------------------------

def _center_ref(policy, state, adv):
    return adv - float(policy.action_probabilities(state) @ adv)


def _covariance_ref(policy, state, adv):
    probs = policy.action_probabilities(state)
    support = probs > 0.0
    p = probs[support]
    x = np.log(p)
    y = p * adv[support]
    return float((p * x * y).sum() - (p * x).sum() * (p * y).sum())


def _predict_ref(policy, state, adv, eta):
    probs = policy.action_probabilities(state)
    assert abs(float(probs @ adv)) < CENTERING_TOLERANCE
    cov = _covariance_ref(policy, state, adv)
    predicted = -eta * cov
    row = policy.logits[state]
    h_before, h_after = entropy_rows(softmax_rows(np.stack([row, row + eta * probs * adv])))
    actual = float(h_after - h_before)
    return EntropyPrediction(state, eta, cov, predicted, actual, abs(actual - predicted),
                             mode="policy_gradient")


def _convergence_ref(policy, state, adv, etas):
    def degenerate(reason):
        return ConvergenceReport(state, etas, errors, [], passed=True, degenerate=True,
                                 reason=reason)

    errors = []
    if policy.exact_entropy(state) < DEGENERATE_ENTROPY:
        return degenerate("row entropy below smooth regime")
    errors = [_predict_ref(policy, state, adv, eta).abs_error for eta in etas]
    if all(e < ERROR_FLOOR for e in errors):
        return degenerate("errors at floating-point floor")
    if any(e < ERROR_FLOOR for e in errors[-3:]):
        return degenerate("final-pair errors at floating-point floor")
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    lo, hi = RATIO_BAND
    passed = all(lo <= r <= hi for r in ratios[-2:])
    reason = "" if passed else (
        f"final error ratios {ratios[-2:]} outside [{lo}, {hi}]; "
        f"measured sequence errors={errors} ratios={ratios}")
    return ConvergenceReport(state, etas, errors, ratios, passed, degenerate=False,
                             reason=reason)


def _random_rows(seed, num_states, num_actions, underflow):
    """A random table, all its states and raw N(0, 1) advantage rows.

    With underflow, one to num_actions - 1 actions of every row sit 800
    nats below the rest, so their probabilities are exactly 0.
    """
    rng = named_stream(seed, "rows")
    logits = rng.normal(0.0, float(rng.uniform(0.2, 2.5)), (num_states, num_actions))
    if underflow:
        for row in logits:
            k = int(rng.integers(1, num_actions))
            row[rng.choice(num_actions, size=k, replace=False)] -= 800.0
    policy = TabularPolicy(logits)
    return policy, np.arange(num_states), rng.normal(0.0, 1.0, (num_states, num_actions))


TABLES = [(31, 8)] * 10 + [(193, 32)] * 4 + [(40, 3)] * 10
ETAS = [0.04, 0.02, 0.01, 0.005]


def test_row_functions_equal_per_state_reference_on_full_support():
    rows = 0
    for seed, (num_states, num_actions) in enumerate(TABLES):
        policy, states, raw = _random_rows(seed, num_states, num_actions, underflow=False)
        assert (policy.probability_matrix() > 0.0).all()
        adv = center_advantages(policy, states, raw)
        cov = entropy_covariance(policy, states, adv)
        predictions = predict_entropy_change(policy, states, adv, ETAS[0])
        reports = verify_predictor_convergence(policy, states, adv, ETAS[0])
        for s in states.tolist():
            centered = _center_ref(policy, s, raw[s])
            assert np.array_equal(adv[s], centered)
            assert cov[s] == _covariance_ref(policy, s, centered)
            assert predictions[s] == _predict_ref(policy, s, centered, ETAS[0])
            assert reports[s] == _convergence_ref(policy, s, centered, ETAS)
            rows += 1
    assert rows == 10 * 31 + 4 * 193 + 10 * 40


def _covariance_scale(policy, state, adv):
    """sum |p x y| + sum |p x| * sum |p y|: the size of what the covariance subtracts."""
    p = policy.action_probabilities(state)
    x = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    y = p * adv
    return float(np.abs(p * x * y).sum() + np.abs(p * x).sum() * np.abs(p * y).sum())


def test_row_functions_near_per_state_reference_with_underflowed_actions():
    # the reference sums only the supported actions and the rows add a zero
    # term for each underflowed one, so the covariance may round differently;
    # the gap is bounded relative to the terms the covariance is a difference
    # of, since a covariance near 0 can be a cancellation of larger terms.
    # Centering and the exact entropies still agree bit for bit.
    for seed, (num_states, num_actions) in enumerate(TABLES):
        policy, states, raw = _random_rows(seed, num_states, num_actions, underflow=True)
        assert (policy.probability_matrix() == 0.0).any(axis=1).all()
        adv = center_advantages(policy, states, raw)
        cov = entropy_covariance(policy, states, adv)
        predictions = predict_entropy_change(policy, states, adv, ETAS[0])
        for s in states.tolist():
            centered = _center_ref(policy, s, raw[s])
            assert np.array_equal(adv[s], centered)
            reference = _predict_ref(policy, s, centered, ETAS[0])
            bound = 1e-12 * _covariance_scale(policy, s, centered)
            assert abs(cov[s] - reference.covariance) <= bound
            assert abs(predictions[s].predicted_delta_h
                       - reference.predicted_delta_h) <= ETAS[0] * bound
            assert predictions[s].actual_delta_h == reference.actual_delta_h


def test_rows_are_independent_of_batch_and_order():
    policy, states, raw = _random_rows(99, 31, 8, underflow=False)
    order = named_stream(99, "order").permutation(states)
    adv = center_advantages(policy, states, raw)
    shuffled = predict_entropy_change(policy, order, adv[order], 0.02)
    whole = predict_entropy_change(policy, states, adv, 0.02)
    assert [whole[s] for s in order.tolist()] == shuffled
    repeated = predict_entropy_change(policy, [3, 3], adv[[3, 3]], 0.02)
    assert repeated == [whole[3], whole[3]]


def test_row_function_input_validation():
    policy = TabularPolicy.uniform(3, 4)
    for states, adv in ((0, np.zeros(4)), ([0], np.zeros(4)), ([0, 1], np.zeros((1, 4))),
                        ([0], np.zeros((1, 3)))):
        with pytest.raises(ValueError, match="one advantage row per state"):
            center_advantages(policy, states, adv)
    with pytest.raises(ValueError, match="states outside"):
        entropy_covariance(policy, [3], np.zeros((1, 4)))
    with pytest.raises(ValueError, match="at state 2 are not baseline-centered"):
        predict_entropy_change(policy, [0, 2], [[0.0] * 4, [1.0] * 4], 0.01)
    assert predict_entropy_change(policy, [], np.zeros((0, 4)), 0.01) == []


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
        assert abs(_one(entropy_covariance, policy, adv) - definitional) < 1e-12


def test_uniform_policy_zero_covariance():
    policy = TabularPolicy.uniform(1, 8)
    adv = _one(center_advantages, policy, np.arange(8.0))
    prediction = _one(predict_entropy_change, policy, adv, 0.01)
    assert abs(prediction.covariance) < 1e-12
    assert abs(prediction.predicted_delta_h) < 1e-14


def test_hand_computed_prediction_point_eight():
    # centered form of (+1, -1) under (0.8, 0.2) is (0.4, -1.6)
    policy = _policy_from_probs([0.8, 0.2])
    adv = _one(center_advantages, policy, [1.0, -1.0])
    assert np.allclose(adv, [0.4, -1.6])
    prediction = _one(predict_entropy_change, policy, adv, 0.01)
    assert prediction.covariance == pytest.approx(0.1420, abs=1e-4)
    assert prediction.predicted_delta_h == pytest.approx(-0.001420, abs=1e-6)
    assert prediction.predicted_delta_h == -0.01 * prediction.covariance
    assert prediction.abs_error < 1e-6  # second order in eta


def test_low_probability_boost_negative_covariance():
    # positive advantage on the low-probability action: entropy predicted to rise
    policy = _policy_from_probs([0.2, 0.8])
    adv = _one(center_advantages, policy, [1.0, -1.0])
    prediction = _one(predict_entropy_change, policy, adv, 0.01)
    assert prediction.covariance == pytest.approx(-0.1420, abs=1e-4)
    assert prediction.predicted_delta_h > 0
    assert prediction.actual_delta_h > 0


def test_prediction_requires_centered_advantages():
    policy = _policy_from_probs([0.8, 0.2])
    with pytest.raises(ValueError, match="E_pi\\[A\\] = 6"):
        _one(predict_entropy_change, policy, [1.0, -1.0], 0.01)


def test_prediction_validation():
    policy = _policy_from_probs([0.5, 0.5])
    with pytest.raises(ValueError):
        _one(predict_entropy_change, policy, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        _one(predict_entropy_change, policy, [0.0, 0.0, 0.0], 0.01)


def test_prediction_shift_invariance():
    rng = named_stream(1, "shift")
    logits = rng.normal(0, 1, (1, 6))
    p1 = TabularPolicy(logits)
    p2 = TabularPolicy(logits + 123.0)
    adv = _one(center_advantages, p1, rng.normal(size=6))
    a = _one(predict_entropy_change, p1, adv, 0.02)
    b = _one(predict_entropy_change, p2, adv, 0.02)
    assert a.covariance == pytest.approx(b.covariance, abs=1e-12)
    assert a.predicted_delta_h == pytest.approx(b.predicted_delta_h, abs=1e-12)


def test_entropy_gradient_along_pg_step_is_minus_covariance():
    # the first-order entropy change of an update u is <dH/dz, u>; along the
    # idealized step u = pi * A it is the -Cov(log pi, pi * A) the predictor uses
    for seed in range(20):
        policy = TabularPolicy.random(1, 6, 1.0, named_stream(seed, "upd"))
        adv = _one(center_advantages, policy, named_stream(seed, "adv").normal(size=6))
        probs = policy.probability_matrix()
        first_order = float(entropy_and_gradient_rows(probs)[1][0] @ (probs[0] * adv))
        assert first_order == pytest.approx(-_one(entropy_covariance, policy, adv), abs=1e-12)
        prediction = _one(predict_entropy_change, policy, adv, 0.02)
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
            adv = _one(center_advantages, policy, np.eye(n)[a])
            cov = _one(entropy_covariance, policy, adv)
            assert comparator(cov), (which, probs, cov)


# ---------------------------------------------------------------------------
# convergence verification
# ---------------------------------------------------------------------------

def test_convergence_quadratic_shrinkage():
    policy = TabularPolicy.random(1, 8, 1.0, named_stream(4, "conv"))
    adv = _one(center_advantages, policy, named_stream(4, "conv-adv").normal(size=8))
    report = _one(verify_predictor_convergence, policy, adv, 0.04)
    assert report.passed and not report.degenerate
    assert len(report.ratios) == 3
    for ratio in report.ratios[-2:]:
        assert 3.0 <= ratio <= 5.0


def test_convergence_zero_advantages_degenerate():
    policy = TabularPolicy.random(1, 6, 1.0, named_stream(5, "conv0"))
    report = _one(verify_predictor_convergence, policy, np.zeros(6), 0.04)
    assert report.passed and report.degenerate
    assert "floor" in report.reason


def test_convergence_near_deterministic_policy_excluded():
    policy = TabularPolicy(np.array([[200.0, 0.0, 0.0]]))
    assert policy.exact_entropy(0) < 1e-6
    report = _one(verify_predictor_convergence, policy, np.zeros(3), 0.04)
    assert report.degenerate
    assert "entropy" in report.reason


def test_convergence_sequence_validation():
    # the check builds eta, eta/2, eta/4, eta/8 itself; a first eta <= 0 is refused
    policy = TabularPolicy.uniform(1, 4)
    for eta in (0.0, -0.04, float("nan")):
        with pytest.raises(ValueError, match="eta must be > 0"):
            _one(verify_predictor_convergence, policy, np.zeros(4), eta)


def test_convergence_failure_reports_measured_sequence():
    # a sequence of etas too large for the first-order regime on a sharp policy
    policy = _policy_from_probs([0.97, 0.01, 0.01, 0.01])
    adv = _one(center_advantages, policy, np.array([5.0, -30.0, 20.0, -10.0]))
    report = _one(verify_predictor_convergence, policy, adv, 16.0)
    assert not report.passed
    assert not report.degenerate
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


def test_ratio_histogram_buckets_partition_the_tokens():
    # bucket 0 is below e_0, bucket k is [e_(k-1), e_k), bucket 41 is >= e_40:
    # a ratio on an edge lands in the bucket that edge opens, and only there
    e = HISTOGRAM_EDGES
    deltas = np.array([e[0], e[-1], e[-1], (e[20] + e[21]) / 2, 1e-3, 1e3])
    stats = _stats(deltas, np.ones(6), np.full(6, 0.5), 0.5)
    expected = [0] * 42
    for bucket in (1, 41, 41, 21, 0, 41):
        expected[bucket] += 1
    assert stats.histogram_counts == expected
    assert sum(stats.histogram_counts) == stats.n_tokens == 6


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
