import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policylab import (
    ModSumTask,
    TabularPolicy,
    exact_kl,
    named_stream,
    rollout_group,
)
from policylab.policy import entropy_and_gradient_rows
from walks import sample_rows


def test_uniform_row_probabilities():
    policy = TabularPolicy.uniform(3, 4)
    assert np.allclose(policy.action_probabilities(0), 0.25, atol=1e-15)
    assert abs(policy.action_probabilities(1).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("shape", [(31, 8), (193, 32)])
def test_random_at_scale_zero_is_the_uniform_table(shape):
    # normal(0, 0) draws +0.0, so a run at init_logit_scale 0 starts from the uniform table
    drawn = TabularPolicy.random(*shape, 0.0, named_stream(0, "init"))
    assert drawn.logits.tobytes() == TabularPolicy.uniform(*shape).logits.tobytes()


def test_softmax_shift_invariance_example():
    base = TabularPolicy(np.array([[math.log(4.0), 0.0]]))
    shifted = TabularPolicy(np.array([[math.log(4.0) + 10.0, 10.0]]))
    assert np.allclose(base.action_probabilities(0), [0.8, 0.2], atol=1e-12)
    assert np.allclose(shifted.action_probabilities(0),
                       base.action_probabilities(0), atol=1e-12)


def test_softmax_against_direct_normalization():
    # oracle: raw exp / normalize, no max subtraction
    logits = [1.0, 0.0, 0.0]
    raw = [math.exp(z) for z in logits]
    expected = [r / sum(raw) for r in raw]
    probs = TabularPolicy(np.array([logits])).action_probabilities(0)
    assert np.allclose(probs, expected, atol=1e-12)
    assert np.allclose(probs, [0.5761, 0.2119, 0.2119], atol=1e-4)


def test_state_out_of_range():
    policy = TabularPolicy.uniform(3, 4)
    with pytest.raises(ValueError):
        policy.action_probabilities(3)
    with pytest.raises(ValueError):
        policy.exact_entropy(-1)


def test_entropy_uniform_is_log_v():
    policy = TabularPolicy.uniform(2, 8)
    assert abs(policy.exact_entropy(0) - math.log(8)) < 1e-12


def test_entropy_degenerate_row():
    policy = TabularPolicy(np.array([[50.0, 0.0, 0.0]]))
    assert policy.exact_entropy(0) < 1e-10


def test_entropy_hand_computed():
    policy = TabularPolicy(np.array([[math.log(0.8), math.log(0.2)]]))
    expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert abs(policy.exact_entropy(0) - expected) < 1e-12
    assert abs(policy.exact_entropy(0) - 0.5004) < 1e-4


def test_kl_identical_policies_zero():
    rng = named_stream(0, "kl")
    p = TabularPolicy.random(4, 6, 1.0, rng)
    assert exact_kl(p, TabularPolicy(p.logits), 2) == 0.0


def test_kl_hand_computed():
    p = TabularPolicy(np.array([[math.log(0.8), math.log(0.2)]]))
    q = TabularPolicy(np.zeros((1, 2)))
    expected = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
    assert abs(exact_kl(p, q, 0) - expected) < 1e-12
    assert abs(exact_kl(p, q, 0) - 0.1927) < 1e-4


def test_kl_divergent_support_returns_inf():
    p = TabularPolicy(np.zeros((1, 2)))
    q = TabularPolicy(np.array([[0.0, -800.0]]))  # second action underflows to 0
    assert q.action_probabilities(0)[1] == 0.0
    assert exact_kl(p, q, 0) == float("inf")


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        exact_kl(TabularPolicy.uniform(2, 3), TabularPolicy.uniform(2, 4), 0)


def test_kl_nonnegative_over_random_pairs():
    # Gibbs' inequality over 1000 random pairs
    rng = named_stream(7, "gibbs")
    for _ in range(1000):
        p = TabularPolicy.random(1, 5, rng.uniform(0.1, 3.0), rng)
        q = TabularPolicy.random(1, 5, rng.uniform(0.1, 3.0), rng)
        assert exact_kl(p, q, 0) >= 0.0


def _state_zero_draws(row, n, rng):
    """n draws from one logit row: a walk of a one-token task, whose
    episodes all start in state 0, with the row in every state."""
    row = np.asarray(row, dtype=np.float64)
    task = ModSumTask(len(row), 1, 2, 0)
    policy = TabularPolicy(np.tile(row, (task.num_states, 1)))
    _, actions, logprobs = sample_rows(policy, task, n, rng)
    return actions[:, 0], logprobs[:, 0]


def test_sample_deterministic_row():
    actions, logprobs = _state_zero_draws([0.0, 0.0, 0.0, 60.0], 20, named_stream(0, "sample"))
    assert actions.tolist() == [3] * 20
    assert logprobs.tolist() == [0.0] * 20


def test_sample_logprob_matches_probabilities_exactly():
    rng = named_stream(3, "consistency")
    policy = TabularPolicy.random(5, 7, 1.5, rng)
    task = ModSumTask(7, 2, 2, 0)  # 5 states; episodes visit 0, then 2 or 3
    states, actions, logprobs = sample_rows(policy, task, 100, rng)
    assert np.unique(states).tolist() == [0, 2, 3]
    for s, a, lp in zip(states.ravel(), actions.ravel(), logprobs.ravel()):
        assert lp == float(np.log(policy.action_probabilities(s)[a]))


def test_sample_frequencies_uniform():
    draws, _ = _state_zero_draws(np.zeros(8), 80_000, named_stream(11, "freq"))
    freqs = np.bincount(draws, minlength=8) / len(draws)
    assert np.all(freqs >= 0.115) and np.all(freqs <= 0.135)


def test_sample_seed_reproducibility():
    row = np.zeros(6)
    seq1 = [_state_zero_draws(row, 1, named_stream(5, "rep", i))[0][0] for i in range(10)]
    seq2 = [_state_zero_draws(row, 1, named_stream(5, "rep", i))[0][0] for i in range(10)]
    assert seq1 == seq2
    assert len(set(seq1)) > 1


def test_apply_gradient_zero_is_identity():
    policy = TabularPolicy.uniform(3, 4)
    before = policy.logits.copy()
    policy.apply_gradient(np.zeros((3, 4)), 0.1)
    assert np.array_equal(policy.logits, before)


def test_apply_gradient_ascent_direction():
    policy = TabularPolicy.uniform(1, 2)
    grad = np.array([[1.0, -1.0]])
    policy.apply_gradient(grad, 0.5)
    assert np.allclose(policy.logits, [[0.5, -0.5]])
    assert policy.action_probabilities(0)[0] > 0.5


def test_apply_gradient_rejects_nonfinite():
    policy = TabularPolicy.uniform(2, 2)
    before = policy.logits.copy()
    bad = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        policy.apply_gradient(bad, 0.1)
    assert np.array_equal(policy.logits, before)


@pytest.mark.parametrize("gradient, lr, message", [
    ([[0.0, 0.0], [np.inf, 0.0]], 0.1,
     r"non-finite gradient entry at \(state=1, action=0\)"),
    ([[0.0, 1e308], [0.0, 0.0]], 1e10, r"logit overflow at \(state=0, action=1\)"),
], ids=["non_finite_gradient", "overflow"])
def test_apply_gradient_rejection_messages(gradient, lr, message):
    # only a rejected update looks at the gradient, to name which one it is
    policy = TabularPolicy.uniform(2, 2)
    before = policy.logits
    with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
        policy.apply_gradient(np.array(gradient), lr)
    assert policy.logits is before


def test_apply_gradient_rejects_bad_lr_and_shape():
    policy = TabularPolicy.uniform(2, 2)
    with pytest.raises(ValueError):
        policy.apply_gradient(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        policy.apply_gradient(np.zeros((2, 3)), 0.1)


def test_snapshot_immutable_and_isolated():
    # what the policy hands out before an update is the snapshot: the update
    # rebinds the logits, so it cannot reach a matrix or rollout taken earlier
    task = ModSumTask(4, 3, 5, 0)
    policy = TabularPolicy.random(task.num_states, 4, 1.0, named_stream(3, "snap"))
    logits, probs = policy.logits, policy.probability_matrix()
    group = rollout_group(task, *sample_rows(policy, task, 6, named_stream(3, "snap-group")))
    before = [a.copy() for a in (logits, probs, group.actions, group.old_logprobs)]
    policy.apply_gradient(np.ones((task.num_states, 4)) * np.arange(4.0), 1.0)
    assert not np.array_equal(policy.probability_matrix(), probs)
    after = (logits, probs, group.actions, group.old_logprobs)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    for frozen in (logits, probs):
        with pytest.raises(ValueError):
            frozen[0, 0] = 1.0


def test_logits_validation():
    with pytest.raises(ValueError):
        TabularPolicy(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        TabularPolicy(np.zeros(4))
    with pytest.raises(ValueError):
        TabularPolicy(np.array([[np.nan, 0.0]]))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = named_stream(9, "ckpt")
    policy = TabularPolicy.random(7, 5, 2.3, rng)
    path = tmp_path / "policy.json"
    policy.save(path, rng_lineage={"seed": 9, "note": "test"})
    loaded, lineage = TabularPolicy.load(path)
    assert np.array_equal(loaded.logits, policy.logits)
    assert lineage == {"seed": 9, "note": "test"}
    doc = json.loads(path.read_text())
    assert doc["schema"] == "tabular-policy/v1"
    assert len(doc["logits"]) == 35


def test_checkpoint_rejects_other_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError):
        TabularPolicy.load(path)


@pytest.mark.parametrize("key", ["num_states", "num_actions", "logits"])
def test_checkpoint_missing_key_names_it(key, tmp_path):
    path = tmp_path / "policy.json"
    TabularPolicy.uniform(2, 3).save(path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"lacks \\['{key}'\\]"):
        TabularPolicy.load(path)


@pytest.mark.parametrize("key, value", [("num_states", 2.0), ("num_actions", "3"),
                                        ("num_states", True), ("num_actions", 0)],
                         ids=["float", "string", "bool", "zero"])
def test_checkpoint_dimension_must_be_positive_integer(key, value, tmp_path):
    path = tmp_path / "policy.json"
    TabularPolicy.uniform(2, 3).save(path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
        TabularPolicy.load(path)


def test_checkpoint_logit_count_must_match_dimensions(tmp_path):
    path = tmp_path / "policy.json"
    TabularPolicy.uniform(2, 3).save(path)
    doc = json.loads(path.read_text())
    doc["logits"] = doc["logits"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint logit count does not match dimensions"):
        TabularPolicy.load(path)


@pytest.mark.parametrize("logits", [3, "0.5", None, [None] * 6, ["a"] * 6, [True] * 6,
                                    [[0.0] * 3] * 2, [10 ** 400] * 6,
                                    # a bad last entry, after load has converted good ones
                                    [0.5, "1", True], [0.5, "1", [0.0]], [0.5, "1", "abc"],
                                    [0.5, "1", 10 ** 400]],
                         ids=["int", "string", "null", "null_entries", "text_entries",
                              "bool_entries", "nested", "overflow", "bool_last", "nested_last",
                              "abc_last", "overflow_last"])
def test_checkpoint_logits_must_be_numbers(logits, tmp_path):
    path = tmp_path / "policy.json"
    TabularPolicy.uniform(2, 3).save(path)
    doc = json.loads(path.read_text())
    doc["logits"] = logits
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="logits must be a list of numbers or numeric strings"):
        TabularPolicy.load(path)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             1e16, 0.1]


def _one_dumps_checkpoint(logits: np.ndarray, rng_lineage: dict | None) -> bytes:
    """The checkpoint as one json.dumps of its document: the reference save must match."""
    return json.dumps({
        "schema": "tabular-policy/v1",
        "num_states": logits.shape[0],
        "num_actions": logits.shape[1],
        "logits": [format(x, ".17g") for x in logits.ravel(order="C")],
        "rng_lineage": rng_lineage or {},
    }).encode()


def _extreme_tables(shape):
    """Random normal tables of the shape holding every extreme value; a 1x1 table per value."""
    if shape == (1, 1):
        return [np.array([[x]]) for x in _EXTREMES + [-1.2345678901234567]]
    rng = np.random.default_rng(shape[0])
    logits = rng.normal(0.0, 1.0, size=shape)
    logits.ravel()[rng.choice(logits.size, len(_EXTREMES), replace=False)] = _EXTREMES
    return [logits]


@pytest.mark.parametrize("shape", [(1, 1), (31, 8), (193, 32)])
@pytest.mark.parametrize("rng_lineage", [None, {"seed": 7, "config_hash": "9f2c",
                                                "steps_completed": 6}],
                         ids=["no_lineage", "lineage"])
def test_checkpoint_bytes_are_one_json_dumps_and_load_bit_for_bit(shape, rng_lineage, tmp_path):
    path = tmp_path / "policy.json"
    for logits in _extreme_tables(shape):
        TabularPolicy(logits).save(path, rng_lineage=rng_lineage)
        assert path.read_bytes() == _one_dumps_checkpoint(logits, rng_lineage)
        loaded, lineage = TabularPolicy.load(path)
        assert loaded.logits.tobytes() == logits.tobytes()  # -0.0 kept apart from 0.0
        assert lineage == (rng_lineage or {})


def test_checkpoint_loads_numeric_logits(tmp_path):
    # save writes decimal strings; plain JSON numbers load to the same table
    path = tmp_path / "policy.json"
    TabularPolicy.uniform(2, 3).save(path)
    doc = json.loads(path.read_text())
    doc["logits"] = [0, 0.5, -1, "2.5", 1e300, 0]
    path.write_text(json.dumps(doc))
    policy, _ = TabularPolicy.load(path)
    assert policy.logits.tolist() == [[0.0, 0.5, -1.0], [2.5, 1e300, 0.0]]


def test_entropy_logit_gradient_uniform_row_is_zero():
    policy = TabularPolicy.uniform(1, 6)
    assert np.allclose(entropy_and_gradient_rows(policy.probability_matrix())[1], 0.0, atol=1e-15)


def test_entropy_logit_gradient_matches_finite_differences():
    rng = named_stream(2, "hgrad")
    policy = TabularPolicy.random(1, 5, 1.2, rng)
    analytic = entropy_and_gradient_rows(policy.probability_matrix())[1][0]
    h = 1e-6
    for a in range(5):
        bumped = policy.logits.copy()
        bumped[0, a] += h
        up = TabularPolicy(bumped).exact_entropy(0)
        bumped[0, a] -= 2 * h
        down = TabularPolicy(bumped).exact_entropy(0)
        assert abs((up - down) / (2 * h) - analytic[a]) < 1e-8


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=10),
       st.floats(-100, 100))
@settings(max_examples=200, deadline=None)
def test_shift_invariance_property(logits, shift):
    base = TabularPolicy(np.array([logits]))
    shifted = TabularPolicy(np.array([logits]) + shift)
    assert np.allclose(base.action_probabilities(0),
                       shifted.action_probabilities(0), atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_entropy_bounds_property(logits):
    policy = TabularPolicy(np.array([logits]))
    h = policy.exact_entropy(0)
    assert -1e-12 <= h <= math.log(len(logits)) + 1e-12
