import argparse
import dataclasses
import gc
import json
import subprocess
import sys

import numpy as np
import pytest

from policylab import (
    ConfigError,
    ModSumTask,
    ObjectiveSpec,
    RunConfig,
    TabularPolicy,
    TokenBatch,
    batch_token_terms,
    named_stream,
    read_rollout_log,
    rollout_group,
    suite_configs,
    train,
)
from policylab import cli, entropy_dynamics, env, trainer
from policylab.cli import main
from policylab.env import RolloutGroup
from policylab.gradcheck import build_gradcheck_batch, check_objective_gradient
from policylab.objectives import ALGORITHMS, CODE_LEFT, CODE_RIGHT, NUMBER_FIELDS, BatchTerms


def _write_config(tmp_path, **overrides):
    doc = RunConfig(seed=0, total_steps=4, learning_rate=4.0, eval_samples=8).to_dict()
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_train_and_eval_roundtrip(tmp_path, capsys):
    config = _write_config(tmp_path)
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "metrics.csv").exists()

    rc = main(["eval", str(tmp_path / "run" / "policy.json"),
               "--targets", "4", "--samples", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["avg_at"] == 16


def test_train_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "learning_rte": 1.0}))
    assert main(["train", "--config", str(path)]) == 2
    path.write_text("{")
    assert main(["train", "--config", str(path)]) == 2
    path.write_text("[1]")
    assert main(["train", "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"objective": {"algorithm": "ce_gppo", "beta1": "0.5"}}, "invalid objective"),
    ({"objective": {"algorithm": "ce_gppo", "eps_low": "0.2"}}, "invalid objective"),
    ({"objective": {"algorithm": "grpo", "beta1": 0.7}}, "act only on ce_gppo"),
    ({"objective": {"algorithm": "grpo"}, "beta_schedule": [[3, 0.5, 1.0]]},
     "beta_schedule acts only on ce_gppo"),
    ({"beta_schedule": [[3, 0.5]]}, "beta_schedule entries must be [step, beta1, beta2]"),
    ({"train_targets": ["a"]}, "train_targets must be integers"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"vocab_size": 8.5}, "vocab_size must be an integer"),
    ({"dynamic_sampling": "false"}, "dynamic_sampling must be true or false"),
    ({"init_checkpoint": 5}, "init_checkpoint must be a path string or null"),
    ({"init_checkpoint": ""}, "init_checkpoint must not be empty: null means no checkpoint"),
    ({"seed": True}, "seed must be an integer"),
    ({"total_steps": True}, "total_steps must be an integer"),
    ({"objective": {"algorithm": "ce_gppo", "beta1": True}}, "beta1 must be a number"),
    ({"beta_schedule": [[2.5, 0.5, 1.0]]}, "an integer step"),
    ({"learning_rate": True}, "learning_rate must be a number"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
    ({"objective": {"algorithm": "ce_gppo", "eps_high": float("inf")}},
     "eps_high must be finite and > 0"),
    ({"eval_targets": []}, "eval_targets must be one or more distinct residues"),
    ({"eval_targets": [4, 4]}, "eval_targets must be one or more distinct residues"),
    ({"max_filter_retries": 2}, "max_filter_retries acts only with dynamic_sampling"),
    ({"init_logit_scale": 0.5, "init_checkpoint": "start.json"},
     "init_logit_scale does not act when init_checkpoint is set"),
    # a table whose flat cell index does not fit int64 (never a size numpy might allocate)
    ({"vocab_size": 10 ** 30}, f"vocab_size, seq_len and modulus make a 31 x {10 ** 30} table "
                               f"whose flat cell index does not fit int64"),
    ({"seq_len": 10 ** 30}, f"vocab_size, seq_len and modulus make a {5 * 10 ** 30 + 1} x 8 "
                            f"table whose flat cell index does not fit int64"),
    ({"modulus": 10 ** 30}, f"vocab_size, seq_len and modulus make a {6 * 10 ** 30 + 1} x 8 "
                            f"table whose flat cell index does not fit int64"),
    # tables whose flat index fits int64 but whose logits fit no machine's memory
    ({"modulus": 10 ** 12}, f"vocab_size, seq_len and modulus make a {6 * 10 ** 12 + 1} x 8 "
                            f"table whose float64 logits exceed the"),
    ({"vocab_size": 10 ** 6, "seq_len": 10 ** 6, "modulus": 10 ** 6},
     f"vocab_size, seq_len and modulus make a {10 ** 12 + 1} x {10 ** 6} table whose float64 "
     f"logits exceed the"),
    ({"train_targets": 5}, "train_targets must be a list of integers, got 5"),
    ({"eval_targets": 5}, "eval_targets must be a list of integers, got 5"),
    ({"objective": 3}, "objective must be an object"),
    ({"init_logit_scale": -0.5}, "init_logit_scale must be finite and >= 0, got -0.5"),
    ({"init_logit_scale": float("nan")}, "init_logit_scale must be finite and >= 0, got nan"),
    ({"init_logit_scale": 1e308},
     "init_logit_scale 1e+308 draws initial logits that are not finite"),
    ({"beta_schedule": [[-5, 0.5, 1.0]]}, "need an integer step >= 0, got [-5, 0.5, 1.0]"),
    # sample arrays whose flat index does not fit int64 or whose entries fit no memory
    ({"group_size": 10 ** 30}, f"prompts_per_batch, group_size and seq_len make a "
                               f"{8 * 10 ** 30} x 6 sample array whose flat cell index"),
    ({"prompts_per_batch": 10 ** 30}, f"prompts_per_batch, group_size and seq_len make a "
                                      f"{8 * 10 ** 30} x 6 sample array whose flat cell index"),
    ({"eval_samples": 10 ** 30}, f"eval_samples and seq_len make a {10 ** 30} x 6 sample array "
                                 f"whose flat cell index does not fit int64"),
    ({"group_size": 10 ** 12}, f"prompts_per_batch, group_size and seq_len make a "
                               f"{8 * 10 ** 12} x 6 sample array whose float64 log-probs exceed"),
    ({"eval_samples": 10 ** 12}, f"eval_samples and seq_len make a {10 ** 12} x 6 sample array "
                                 f"whose float64 log-probs exceed the"),
    # "all" is a train_targets spelling only
    ({"eval_targets": "all"}, "eval_targets must be integers, got ['a', 'l', 'l']"),
], ids=["string_beta1", "string_eps_low", "beta1_on_grpo", "schedule_on_grpo",
        "short_schedule_entry", "string_target", "negative_seed", "fractional_vocab",
        "string_flag", "numeric_path", "empty_path", "bool_seed", "bool_total_steps", "bool_beta1",
        "fractional_schedule_step", "bool_learning_rate", "infinite_learning_rate",
        "infinite_eps_high", "empty_eval_targets", "duplicate_eval_targets",
        "retries_without_dynamic_sampling", "scale_with_checkpoint", "oversized_vocab_size",
        "oversized_seq_len", "oversized_modulus", "unallocatable_modulus",
        "unallocatable_table", "int_train_targets", "int_eval_targets", "numeric_objective",
        "negative_init_logit_scale", "nan_init_logit_scale", "overflowing_init_logit_scale",
        "negative_schedule_step", "oversized_group_size", "oversized_prompts_per_batch",
        "oversized_eval_samples", "unallocatable_group_size", "unallocatable_eval_samples",
        "string_eval_targets"])
def test_train_malformed_config_value_exit_2(overrides, message, tmp_path, capsys):
    # a malformed value is a usage error with one line, not a traceback mid-run
    config = _write_config(tmp_path, **overrides)
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "run").exists()


def test_train_stability_exit_3(tmp_path, capsys):
    config = _write_config(tmp_path, learning_rate=1e8, total_steps=10)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
    # one stderr line, the prefix once, and the manifest's failure text verbatim
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert err == manifest["failure"] + "\n"
    assert err.startswith("stability alarm at step 0: importance ratio underflow/overflow")
    assert err.count("stability alarm") == 1


def test_train_empty_batch_exit_4(tmp_path):
    logits = np.zeros((31, 8))
    logits[:, 0] = 60.0
    TabularPolicy(logits).save(tmp_path / "det.json")
    config = _write_config(tmp_path, dynamic_sampling=True,
                           init_checkpoint=str(tmp_path / "det.json"),
                           max_filter_retries=2)
    assert main(["train", "--config", str(config)]) == 4


def test_gradcheck_json_report(tmp_path, capsys):
    rc = main(["gradcheck", "--objective", "ce_gppo", "--beta1", "0.5", "--beta2", "1.0",
               "--trajectories", "32", "--min-branch-count", "4",
               "--json", str(tmp_path / "report.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] and doc["algorithm"] == "ce_gppo"
    assert min(doc["branch_counts"].values()) >= 4


@pytest.mark.parametrize("flags", [["--eps-low", "1.5"], ["--beta1", "-1"],
                                   ["--objective", "dapo", "--eps-high", "0"]],
                         ids=["eps_low", "beta1", "eps_high"])
def test_gradcheck_out_of_range_flags_exit_2(flags, capsys):
    # a spec the objective rejects is a usage error, not a failed check (exit 1)
    rc = main(["gradcheck", *flags, "--trajectories", "8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_alpha_run_analyze_and_gradcheck_never_call_numpy_unique(tmp_path, monkeypatch, capsys):
    # numpy's unique without a return_* argument takes a hash-table path whose
    # first call raises the process's peak RSS by about 1.2 MB; the visited
    # states come from policy.state_visits on every path, entropy bonus included
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    objective = ObjectiveSpec.for_algorithm("grpo", alpha=0.003).to_dict()
    config = _write_config(tmp_path, log_rollouts=True, total_steps=2, objective=objective)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    assert main(["analyze", "--log", str(run / "rollouts.jsonl"),
                 "--checkpoint", str(run / "policy.json")]) == 0
    assert main(["gradcheck", "--objective", "grpo", "--alpha", "0.003",
                 "--trajectories", "16", "--min-branch-count", "2"]) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_training_builds_no_ratio_histogram_and_analyze_does(algorithm, tmp_path, monkeypatch):
    # a training step counts its clip codes per pass and its quadrants on the
    # batch; only analyze's JSON holds the ratio histogram, which
    # quadrant_stats_arrays alone bins
    def refuse(*args, **kwargs):
        raise AssertionError("quadrant_stats_arrays called")

    calls, real = [], entropy_dynamics.quadrant_stats_arrays
    for module in (entropy_dynamics, cli):  # every policylab module that binds it
        monkeypatch.setattr(module, "quadrant_stats_arrays", refuse)
    config = _write_config(tmp_path, log_rollouts=True, total_steps=3,
                           objective=ObjectiveSpec.for_algorithm(algorithm).to_dict(),
                           dynamic_sampling=algorithm == "dapo")
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    monkeypatch.setattr(cli, "quadrant_stats_arrays",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["analyze", "--log", str(run / "rollouts.jsonl"),
                 "--checkpoint", str(run / "policy.json"),
                 "--json", str(tmp_path / "analysis.json")]) == 0
    assert calls
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert len(doc["quadrant_stats"]["histogram_counts"]) == 42


def test_entropy_predict(capsys):
    rc = main(["entropy-predict", "--instances", "2", "--num-states", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["instances"]) == 2
    for instance in doc["instances"]:
        assert instance["prediction"]["mode"] == "policy_gradient"
        assert instance["convergence"]["passed"]


def test_analyze_pipeline(tmp_path, capsys):
    config = _write_config(tmp_path, log_rollouts=True)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    rc = main(["analyze", "--log", str(tmp_path / "run" / "rollouts.jsonl"),
               "--checkpoint", str(tmp_path / "run" / "policy.json"),
               "--json", str(tmp_path / "analysis.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["n_tokens"] == 4 * 8 * 8 * 6
    assert abs(sum(doc["quadrant_stats"]["fractions"].values()) - 1.0) < 1e-9
    assert doc["prob_threshold"] == pytest.approx(1 / 8)
    for prediction in doc["entropy_predictions"]:
        assert prediction["mode"] == "policy_gradient"
    assert "visitation_weighted_mean" in doc


def test_analyze_mixed_lengths_exit_2(tmp_path, capsys):
    # a log whose two groups have different seq_len cannot form a token batch
    lines = []
    for group, seq_len in ((0, 3), (1, 4)):
        for reward in (0, 1):  # actions summing to 0 mod 5 earn target 0's reward
            lines.append(json.dumps({
                "vocab_size": 8, "seq_len": seq_len, "modulus": 5, "target": 0,
                "group": group, "actions": [1 - reward] * seq_len,
                "old_logprobs": [-2.0794415416798357] * seq_len, "reward": reward}))
    log = tmp_path / "mixed.jsonl"
    log.write_text("\n".join(lines) + "\n")
    (tmp_path / "run_manifest.json").write_text(LOGGING_MANIFEST)
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "policy.json")
    rc = main(["analyze", "--log", str(log), "--checkpoint", str(tmp_path / "policy.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "mixed lengths" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["grpo", "dapo", "cispo", "gspo", "ce_gppo"])
def test_analyze_clip_fractions_follow_the_run_objective(name, tmp_path, capsys):
    # analyze's clip fractions are the shares of the logged run's own branch
    # codes against the final checkpoint, whatever rule the run clips by
    config = suite_configs("baseline_zoo", seed=0, total_steps=10)[name]
    result = train(dataclasses.replace(config, log_rollouts=True), out_dir=tmp_path)
    report = tmp_path / "analysis.json"
    assert main(["analyze", "--log", str(tmp_path / "rollouts.jsonl"),
                 "--checkpoint", str(tmp_path / "policy.json"), "--json", str(report)]) == 0
    groups = read_rollout_log(tmp_path / "rollouts.jsonl")
    batch = TokenBatch.from_groups(groups)
    codes = batch_token_terms(config.objective, batch, result.policy).branch_codes
    stats = json.loads(report.read_text())["quadrant_stats"]
    assert stats["left_clip_fraction"] == np.mean(codes == CODE_LEFT)
    assert stats["right_clip_fraction"] == np.mean(codes == CODE_RIGHT)
    if name == "gspo":  # whole sequences clipped at 3e-4 / 4e-4, not PPO's 0.2 / 0.2
        assert stats["left_clip_fraction"] > 0.4 and stats["right_clip_fraction"] > 0.1


# the manifest of a run that logged its rollouts, at _log_line's V=8, T=3, M=5
LOGGING_MANIFEST = json.dumps({"config": RunConfig(seq_len=3, log_rollouts=True).to_dict()})


def _log_dir_with_manifest(tmp_path, manifest):
    (tmp_path / "rollouts.jsonl").write_text(_log_line(0) + "\n" + _rewarded_line(0) + "\n")
    if manifest is not None:
        (tmp_path / "run_manifest.json").write_text(manifest)
    return tmp_path / "rollouts.jsonl"


@pytest.mark.parametrize("manifest, message", [
    (None, "No such file"),
    ("[]", "config must be a JSON object"),
    (json.dumps({"config": {"schema_version": 1, "objective": {"algorithm": "sgd"}}}),
     "unknown algorithm"),
], ids=["missing", "not_an_object", "invalid_objective"])
def test_analyze_without_a_valid_manifest_exit_2(manifest, message, tmp_path, capsys):
    log = _log_dir_with_manifest(tmp_path, manifest)
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "policy.json")
    rc = main(["analyze", "--log", str(log), "--checkpoint", str(tmp_path / "policy.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: run manifest") and err.count("\n") == 1
    assert message in err


def test_analyze_reads_only_the_manifest_objective(tmp_path):
    # manifests written while out_dir was a config key hold "out_dir": null;
    # analyze reads only the objective, so such a run directory, or one whose
    # manifest holds any retired key, still analyzes to the same report
    run = tmp_path / "run"
    assert main(["train", "--config", str(_write_config(tmp_path, log_rollouts=True)),
                 "--out", str(run)]) == 0
    argv = ["analyze", "--log", str(run / "rollouts.jsonl"),
            "--checkpoint", str(run / "policy.json"), "--json"]
    assert main(argv + [str(tmp_path / "now.json")]) == 0
    manifest = json.loads((run / "run_manifest.json").read_text())
    manifest["config"].update(out_dir=None, rollout_workers=1)
    (run / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
    assert main(argv + [str(tmp_path / "old.json")]) == 0
    assert (tmp_path / "old.json").read_bytes() == (tmp_path / "now.json").read_bytes()


def test_analyze_refuses_a_log_its_run_did_not_write(tmp_path, capsys):
    # a run without log_rollouts, trained into a directory an earlier logging run
    # wrote, replaces the manifest and checkpoint but leaves the earlier rollouts.jsonl
    run = tmp_path / "run"
    logging = _write_config(tmp_path, log_rollouts=True)
    assert main(["train", "--config", str(logging), "--out", str(run)]) == 0
    (tmp_path / "second").mkdir()
    second = _write_config(tmp_path / "second", seed=1, objective={"algorithm": "grpo"})
    assert main(["train", "--config", str(second), "--out", str(run)]) == 0
    capsys.readouterr()
    assert (run / "rollouts.jsonl").exists()  # train deletes nothing it did not write
    message = _config_error(["analyze", "--log", str(run / "rollouts.jsonl"),
                             "--checkpoint", str(run / "policy.json")], capsys)
    assert message.startswith(f"run manifest {run / 'run_manifest.json'} records a run that "
                              f"logged no rollouts")


def test_analyze_underflowed_ratio_exit_2(tmp_path, capsys):
    # the logged tokens take actions 1, 2 and 3; a checkpoint 800 nats down on
    # action 1 gives it probability 0, so the token's ratio cannot be formed
    log = _log_dir_with_manifest(tmp_path, LOGGING_MANIFEST)
    logits = np.zeros((3 * 5 + 1, 8))
    logits[:, 1] = -800.0
    TabularPolicy(logits).save(tmp_path / "policy.json")
    rc = main(["analyze", "--log", str(log), "--checkpoint", str(tmp_path / "policy.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "importance ratio underflow" in err


def _log_line(group, target=0, actions=(1, 2, 3), reward=0):
    return json.dumps({"vocab_size": 8, "seq_len": 3, "modulus": 5, "target": target,
                       "group": group, "actions": list(actions),
                       "old_logprobs": [-2.0794415416798357] * len(actions),
                       "reward": reward})


def _rewarded_line(group):
    return _log_line(group, actions=(1, 2, 2), reward=1)  # 1 + 2 + 2 = 0 mod 5


@pytest.mark.parametrize("lines, message", [
    ([_log_line(0), _rewarded_line(0), _log_line(1)], "log group 1: group size must be >= 2"),
    ([_log_line(0), _log_line(0, target=2)], "log group 0: rows of 2 different tasks"),
    ([_log_line(0), _log_line(0, actions=(1, 2))], "log group 0: rows whose length is not seq_len 3"),
    ([], "token batch is empty"),
    ([_log_line(0), '{"group": 0}'], "line 2 lacks ['vocab_size'"),
    ([_log_line(0), _rewarded_line(0), _log_line(1), _rewarded_line(1),
      _log_line(1)], "groups of different sizes [2, 3]"),
    ([_log_line(0), "3"], "line 2 is not a JSON object"),
    ([_log_line(0), _log_line([1])], "line 2: ['group'] must be integers"),
    ([_log_line(0).replace('"vocab_size": 8', '"vocab_size": "8"')],
     "line 1: ['vocab_size'] must be integers"),
    ([_log_line(0), _log_line(0, actions=("1", "2", "3"))],
     "line 2: actions and old_logprobs must be lists"),
    ([_log_line(0).replace('[-2.0794415416798357', '["-2.0794415416798357"')],
     "line 1: actions and old_logprobs must be lists"),
    ([_log_line(0), _log_line(0, reward="1")], "line 2: ['reward'] must be integers"),
    ([_log_line(0), _log_line(0, actions=(True, 2, 3))],
     "line 2: actions and old_logprobs must be lists"),
    ([_log_line(0), _log_line(0, reward=True)], "line 2: ['reward'] must be integers"),
    ([_log_line(0), _log_line(0).replace('[-2.0794415416798357', '[5.0')],
     "line 2: old_logprobs must be log-probabilities <= 0"),
    ([_log_line(0).replace('[-2.0794415416798357', '[NaN')],
     "line 1: old_logprobs must be log-probabilities <= 0"),
    ([_log_line(0), _log_line(0, reward=1)],
     "log group 0: rewards that contradict their actions"),
    ([_log_line(0), _log_line(0, actions=(1, 2, 2 ** 70))],
     "line 2: actions and old_logprobs must fit int64 and float64"),
    ([_log_line(0), _log_line(0).replace('[-2.0794415416798357', '[-1' + '0' * 400)],
     "line 2: actions and old_logprobs must fit int64 and float64"),
    ([_log_line(0), _log_line(0, reward=10 ** 400)],
     "log group 0: rewards that contradict their actions"),
    ([_log_line(0), _rewarded_line(0), _log_line(1), "{bad"],
     "line 4: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ([_log_line(0), "[" * 100_000 + "]" * 100_000], "line 2: maximum recursion depth exceeded"),
], ids=["single_row_group", "mixed_tasks", "ragged_rows", "empty_log", "missing_field",
        "mixed_group_sizes", "not_an_object", "list_group", "string_vocab_size",
        "string_actions", "string_old_logprobs", "string_reward", "bool_action", "bool_reward",
        "positive_old_logprob", "nan_old_logprob", "flipped_reward", "oversized_action",
        "oversized_old_logprob", "oversized_reward", "not_json", "deep_nesting"])
def test_analyze_malformed_log_exit_2(lines, message, tmp_path, capsys):
    log = tmp_path / "rollouts.jsonl"
    log.write_text("".join(line + "\n" for line in lines))
    (tmp_path / "run_manifest.json").write_text(LOGGING_MANIFEST)
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "policy.json")
    rc = main(["analyze", "--log", str(log), "--checkpoint", str(tmp_path / "policy.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err


def test_analyze_prob_threshold_zero_means_zero(tmp_path, capsys):
    config = _write_config(tmp_path, log_rollouts=True, total_steps=2)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    report = tmp_path / "analysis.json"
    rc = main(["analyze", "--log", str(tmp_path / "run" / "rollouts.jsonl"),
               "--checkpoint", str(tmp_path / "run" / "policy.json"),
               "--prob-threshold", "0", "--json", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["prob_threshold"] == 0.0
    counts = doc["quadrant_stats"]["counts"]
    signed = doc["n_tokens"] - doc["quadrant_stats"]["n_neutral"]
    # every signed token has probability >= 0, so every one is high-probability
    assert signed > 0
    assert counts["pa_lp"] == counts["na_lp"] == 0
    assert counts["pa_hp"] + counts["na_hp"] == signed


@pytest.mark.parametrize("argv", [
    ["eval", "{checkpoint}", "--targets", "9"],
    ["eval", "{checkpoint}", "--targets", "2", "-1"],
    ["eval", "{checkpoint}", "--modulus", "1"],
    ["eval", "{checkpoint}", "--samples", "0"],
    ["eval", "{checkpoint}", "--seed", "-1"],
    ["analyze", "--log", "{log}", "--checkpoint", "{log_checkpoint}", "--eta", "0"],
    ["analyze", "--log", "{log}", "--checkpoint", "{log_checkpoint}", "--prob-threshold", "nan"],
    ["analyze", "--log", "{log}", "--checkpoint", "{log_checkpoint}", "--prob-threshold", "-1"],
    ["analyze", "--log", "{log}", "--checkpoint", "{log_checkpoint}", "--prob-threshold", "2"],
    ["entropy-predict", "--eta", "0"],
    ["entropy-predict", "--eta", "nan"],
    ["entropy-predict", "--num-states", "0"],
    ["entropy-predict", "--num-actions", "0"],
    ["entropy-predict", "--instances", "0"],
    ["gradcheck", "--h", "0"],
    ["gradcheck", "--trajectories", "1"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--seed", "abc"],
    ["gradcheck", "--min-branch-count", "-3"],
    ["gradcheck", "--eps-high", "inf"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")))
def test_out_of_range_cli_input_exit_2(argv, tmp_path, capsys):
    checkpoint = tmp_path / "policy.json"
    TabularPolicy.uniform(6 * 5 + 1, 8).save(checkpoint)
    # a readable log with a table that fits it, so only the flag under test is wrong
    (tmp_path / "log.jsonl").write_text(_log_line(0) + "\n" + _rewarded_line(0) + "\n")
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "log_policy.json")
    paths = {"{checkpoint}": str(checkpoint), "{log}": str(tmp_path / "log.jsonl"),
             "{log_checkpoint}": str(tmp_path / "log_policy.json")}
    argv = [paths.get(a, a) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejected the value
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith(("config error:", "usage:"))


@pytest.mark.parametrize("argv, message", [
    (["eval", "{missing}"], "No such file"),
    (["eval", "{no_num_actions}"], "lacks ['num_actions']"),
    (["eval", "{float_dims}"], "num_states must be an integer >= 1, got 16.0"),
    (["eval", "{int_logits}"], "logits must be a list of numbers or numeric strings"),
    (["eval", "{null_logits}"], "logits must be a list of numbers or numeric strings"),
    (["eval", "{checkpoint}", "--targets", "1", "1"],
     "targets must be one or more distinct residues in [0, 5), got [1, 1]"),
    (["eval", "{one_action}"],
     "policy table (31 states, 1 actions) does not match state space (31 states, 2 actions)"),
    (["eval", "{one_state}"],
     "policy table (1 states, 8 actions) does not match state space (6 states, 8 actions)"),
    (["entropy-predict", "--checkpoint", "{missing}"], "No such file"),
    (["entropy-predict", "--checkpoint", "{checkpoint}", "--num-states", "5",
      "--num-actions", "3"], "--num-states and --num-actions do not act with --checkpoint"),
    (["entropy-predict", "--checkpoint", "{checkpoint}", "--num-actions", "8"],
     "--num-states and --num-actions do not act with --checkpoint"),
    (["analyze", "--log", "{missing}", "--checkpoint", "{checkpoint}"], "No such file"),
    (["analyze", "--log", "{log}", "--checkpoint", "{missing}"], "No such file"),
    (["train", "--config", "{config_missing_init}"], "init checkpoint"),
    (["train", "--config", "{config_log_without_out}"], "log_rollouts needs an output directory"),
    (["gradcheck", "--min-branch-count", "100000", "--trajectories", "8"],
     "could not build a ce_gppo batch"),
    (["gradcheck", "--json", "{under_a_file}"], "cannot write {under_a_file}: "),
    (["entropy-predict", "--json", "{under_a_file}"], "cannot write {under_a_file}: "),
    (["analyze", "--log", "{log}", "--checkpoint", "{checkpoint}", "--json", "{under_a_file}"],
     "cannot write {under_a_file}: "),
    (["eval", "{checkpoint}", "--json", "{a_directory}"], "cannot write {a_directory}: "),
    (["train", "--config", "{config}", "--out", "{checkpoint}"],
     "output directory {checkpoint}: "),
    (["train", "--config", "{config}", "--out", "{under_a_file}"],
     "output directory {under_a_file}: "),
    (["suite", "baseline_zoo", "--steps", "1", "--out", "{checkpoint}"],
     "output directory {checkpoint}: "),
    (["train", "--config", "{config}", "--out", "{csv_is_a_directory}"],
     "output file {csv_is_a_directory}/metrics.csv: "),
    (["eval", "{checkpoint}", "--modulus", str(10 ** 30)],
     f"--modulus: vocab_size, seq_len and modulus make a {10 ** 30 + 1} x 8 table whose flat "
     f"cell index does not fit int64"),
    (["entropy-predict", "--num-states", str(10 ** 30)],
     f"--num-states and --num-actions make a {10 ** 30} x 8 table whose flat cell index does "
     f"not fit int64"),
    (["entropy-predict", "--num-actions", str(10 ** 30)],
     f"--num-states and --num-actions make a 31 x {10 ** 30} table whose flat cell index does "
     f"not fit int64"),
    (["eval", "{checkpoint}", "--modulus", str(10 ** 12)],
     f"--modulus: vocab_size, seq_len and modulus make a {10 ** 12 + 1} x 8 table whose "
     f"float64 logits exceed the"),
    (["entropy-predict", "--num-states", str(10 ** 6), "--num-actions", str(10 ** 6)],
     f"--num-states and --num-actions make a {10 ** 6} x {10 ** 6} table whose float64 "
     f"logits exceed the"),
    # sample counts that cannot be allocated are refused before any sampling
    (["eval", "{checkpoint}", "--samples", str(10 ** 30)],
     f"--samples make a {10 ** 30} x 3 sample array whose flat cell index does not fit int64"),
    (["eval", "{checkpoint}", "--samples", str(10 ** 12)],
     f"--samples make a {10 ** 12} x 3 sample array whose float64 log-probs exceed the"),
    (["gradcheck", "--trajectories", str(10 ** 30)],
     f"--trajectories make a {10 ** 30} x 6 sample array whose flat cell index does not fit "
     f"int64"),
    (["gradcheck", "--trajectories", str(10 ** 12)],
     f"--trajectories make a {10 ** 12} x 6 sample array whose float64 log-probs exceed the"),
], ids=["eval_missing", "eval_no_num_actions", "eval_float_dims", "eval_int_logits",
        "eval_null_logits", "eval_repeated_target", "eval_one_action", "eval_one_state",
        "entropy_predict_missing", "entropy_predict_shape_with_checkpoint",
        "entropy_predict_actions_with_checkpoint", "analyze_no_log",
        "analyze_missing_checkpoint", "train_missing_init", "train_log_without_out",
        "gradcheck_unbuildable", "gradcheck_json_unwritable",
        "entropy_predict_json_unwritable", "analyze_json_unwritable", "eval_json_unwritable",
        "train_out_is_a_file", "train_out_under_a_file", "suite_out_is_a_file",
        "train_output_file_is_a_directory", "eval_oversized_modulus",
        "entropy_predict_oversized_states", "entropy_predict_oversized_actions",
        "eval_unallocatable_modulus", "entropy_predict_unallocatable_table",
        "eval_oversized_samples", "eval_unallocatable_samples", "gradcheck_oversized_trajectories",
        "gradcheck_unallocatable_trajectories"])
def test_usage_errors_exit_2_with_one_line(argv, message, tmp_path, capsys):
    checkpoint = tmp_path / "policy.json"
    TabularPolicy.uniform(3 * 5 + 1, 8).save(checkpoint)
    doc = json.loads(checkpoint.read_text())
    for name, logits in (("int_logits", 3), ("null_logits", [None] * len(doc["logits"]))):
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "logits": logits}))
    del doc["num_actions"]
    (tmp_path / "no_num_actions.json").write_text(json.dumps(doc))
    doc.update(num_states=16.0, num_actions=8.0)
    (tmp_path / "float_dims.json").write_text(json.dumps(doc))
    TabularPolicy.uniform(6 * 5 + 1, 1).save(tmp_path / "one_action.json")
    TabularPolicy.uniform(1, 8).save(tmp_path / "one_state.json")
    (tmp_path / "log.jsonl").write_text(_log_line(0) + "\n" + _rewarded_line(0) + "\n")
    (tmp_path / "run_manifest.json").write_text(LOGGING_MANIFEST)
    for name in ("log_without_out", "plain"):  # _write_config writes one config.json per directory
        (tmp_path / name).mkdir()
    (tmp_path / "run" / "metrics.csv").mkdir(parents=True)
    paths = {"{missing}": str(tmp_path / "missing.json"), "{checkpoint}": str(checkpoint),
             "{under_a_file}": str(checkpoint / "out"), "{a_directory}": str(tmp_path / "plain"),
             "{csv_is_a_directory}": str(tmp_path / "run"),
             "{config}": str(_write_config(tmp_path / "plain")),
             "{no_num_actions}": str(tmp_path / "no_num_actions.json"),
             "{float_dims}": str(tmp_path / "float_dims.json"),
             "{int_logits}": str(tmp_path / "int_logits.json"),
             "{null_logits}": str(tmp_path / "null_logits.json"),
             "{one_action}": str(tmp_path / "one_action.json"),
             "{one_state}": str(tmp_path / "one_state.json"),
             "{log}": str(tmp_path / "log.jsonl"),
             "{config_missing_init}": str(_write_config(
                 tmp_path, init_checkpoint=str(tmp_path / "missing.json"))),
             "{config_log_without_out}": str(_write_config(
                 tmp_path / "log_without_out", log_rollouts=True))}
    for key, path in paths.items():  # an output path's message names it
        argv = [a.replace(key, path) for a in argv]
        message = message.replace(key, path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


_NOT_UTF8 = b"\xff\xfe{}\n"
_DEEP = ("[" * 100_000 + "]" * 100_000 + "\n").encode()


@pytest.mark.parametrize("content", [_NOT_UTF8, _DEEP], ids=["not_utf8", "deep_nesting"])
@pytest.mark.parametrize("reader", ["train_config", "train_init_checkpoint", "eval_checkpoint",
                                    "entropy_predict_checkpoint", "analyze_checkpoint",
                                    "analyze_manifest", "analyze_log"])
def test_unreadable_input_file_exit_2_naming_it(reader, content, tmp_path, capsys):
    # every reader of an outside file takes its bytes through config_errors: a file
    # that is not UTF-8 or nests past the recursion limit is one line and exit 2
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    log = _log_dir_with_manifest(tmp_path, LOGGING_MANIFEST)
    checkpoint = tmp_path / "policy.json"
    TabularPolicy.uniform(3 * 5 + 1, 8).save(checkpoint)
    analyze = ["analyze", "--log", str(log), "--checkpoint", str(checkpoint)]
    if reader == "analyze_manifest":
        (tmp_path / "run_manifest.json").write_bytes(content)
    argv, prefix = {
        "train_config": (["train", "--config", str(bad)], f"cannot read config {bad}: "),
        "train_init_checkpoint": (["train", "--config", str(_write_config(
            tmp_path, init_checkpoint=str(bad)))], f"init checkpoint {bad}: "),
        "eval_checkpoint": (["eval", str(bad)], f"checkpoint {bad}: "),
        "entropy_predict_checkpoint": (["entropy-predict", "--checkpoint", str(bad)],
                                       f"checkpoint {bad}: "),
        "analyze_checkpoint": (analyze[:-1] + [str(bad)], f"checkpoint {bad}: "),
        "analyze_manifest": (analyze, f"run manifest beside {log}: "),
        "analyze_log": (analyze[:2] + [str(bad)] + analyze[3:], f"rollout log {bad}: "),
    }[reader]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: " + prefix) and err.count("\n") == 1, err


def test_eval_checks_the_table_before_building_any_residue_set(tmp_path, monkeypatch, capsys):
    # eval reads no train targets, so a modulus the table does not fit costs no residue set
    def refuse(*args):
        raise AssertionError("a residue set was built")

    monkeypatch.setattr(cli, "residue_set", refuse)
    monkeypatch.setattr(env, "residue_set", refuse)
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "policy.json")
    assert main(["eval", str(tmp_path / "policy.json"), "--modulus", "7"]) == 2
    assert "does not match state space" in capsys.readouterr().err


def test_eval_refuses_a_modulus_the_runs_manifest_contradicts(tmp_path, capsys):
    # a T=6, M=5 table also fits T=10, M=3; only the run manifest beside it tells them apart
    run = tmp_path / "run"
    assert main(["train", "--config", str(_write_config(tmp_path, total_steps=1)),
                 "--out", str(run)]) == 0
    (tmp_path / "bare").mkdir()
    bare = tmp_path / "bare" / "policy.json"
    bare.write_bytes((run / "policy.json").read_bytes())
    capsys.readouterr()
    assert main(["eval", str(run / "policy.json"), "--modulus", "3"]) == 2
    assert capsys.readouterr().err == (f"config error: --modulus 3 contradicts the modulus 5 "
                                       f"of the run manifest beside {run / 'policy.json'}\n")
    # the run's own modulus prints what the checkpoint without its manifest prints
    outputs = []
    for checkpoint in (run / "policy.json", bare):
        assert main(["eval", str(checkpoint), "--modulus", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["targets"] == [0, 1, 2, 3, 4]
    # a checkpoint with no manifest beside it takes the flag as given
    assert main(["eval", str(bare), "--modulus", "3"]) == 0
    (run / "run_manifest.json").write_text("[]")
    assert main(["eval", str(run / "policy.json")]) == 2
    assert capsys.readouterr().err.endswith(
        f"run manifest beside {run / 'policy.json'}: config must be a JSON object\n")


def test_train_output_that_cannot_be_a_directory_fails_before_step_0(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_step", refuse)
    (tmp_path / "taken").write_text("")
    assert main(["train", "--config", str(_write_config(tmp_path)),
                 "--out", str(tmp_path / "taken")]) == 2
    # nor may a file the run writes at its end be a directory
    (tmp_path / "run" / "rollouts.jsonl").mkdir(parents=True)
    assert main(["train", "--config", str(_write_config(tmp_path, log_rollouts=True)),
                 "--out", str(tmp_path / "run")]) == 2


def test_suite_summary_that_is_a_directory_fails_before_the_first_run(tmp_path, monkeypatch,
                                                                     capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_step", refuse)
    (tmp_path / "suite" / "summary.json").mkdir(parents=True)
    message = _config_error(["suite", "schedule_switch", "--steps", "1",
                             "--out", str(tmp_path / "suite")], capsys)
    assert message == (f"output file {tmp_path / 'suite' / 'summary.json'}: "
                       f"exists and is not a regular file")


def test_suite_run_directory_that_is_a_file_fails_before_the_first_run(tmp_path, capsys):
    # cispo is baseline_zoo's third run: grpo and dapo must not train first
    out = tmp_path / "suite"
    out.mkdir()
    (out / "cispo").write_text("")
    message = _config_error(["suite", "baseline_zoo", "--steps", "1", "--out", str(out)], capsys)
    assert message.startswith(f"output directory {out / 'cispo'}: ")
    assert not (out / "grpo" / "metrics.csv").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_every_number_field_reaches_the_gradcheck_spec(field, tmp_path):
    # each flag sets its field: the report is the library's for the spec with that
    # field changed, and differs from the report without the flag
    default = ObjectiveSpec.for_algorithm("ce_gppo")
    value = getattr(default, field) + 0.125

    def report(spec):
        batch, policy = build_gradcheck_batch(spec, seed=1, n_trajectories=16,
                                              min_branch_count=1)
        return json.loads(json.dumps(
            check_objective_gradient(spec, batch, policy, min_branch_count=1).to_dict()))

    path = tmp_path / "report.json"
    rc = main(["gradcheck", "--objective", "ce_gppo", f"--{field.replace('_', '-')}", str(value),
               "--seed", "1", "--trajectories", "16", "--min-branch-count", "1",
               "--json", str(path)])
    expected = report(ObjectiveSpec.for_algorithm("ce_gppo", **{field: value}))
    assert rc == (0 if expected["passed"] else 1)
    assert json.loads(path.read_text()) == expected
    assert expected != report(default)


TOO_BIG = 10 ** 400  # a JSON integer that no float can hold


@pytest.mark.parametrize("doc, field", [
    *(pytest.param({f.name: TOO_BIG}, f.name, id=f.name)
      for f in dataclasses.fields(RunConfig) if f.type == "float"),
    *(pytest.param({"objective": {f.name: TOO_BIG}}, f.name, id=f"objective.{f.name}")
      for f in dataclasses.fields(ObjectiveSpec) if f.type == "float"),
    pytest.param({"beta_schedule": [[2, 0.5, TOO_BIG]]}, "beta2", id="beta_schedule"),
])
def test_number_no_float_can_hold_is_refused_naming_its_field(doc, field, tmp_path, capsys):
    message = _config_error(["train", "--config", str(_write_config(tmp_path, **doc))], capsys)
    assert f"{field} must be a number, got {TOO_BIG}" in message


def test_analyze_predicts_with_no_log_objects_or_parser_alive(tmp_path, monkeypatch):
    # the log pass returns only what the predictor and the report need: while
    # predict_entropy_change runs, no rollout group, token batch, batch terms
    # or policylab parser is reachable (no RSS or timing bound)
    def held():
        gc.collect()
        return [obj for obj in gc.get_objects()
                if isinstance(obj, (RolloutGroup, TokenBatch, BatchTerms))
                or (isinstance(obj, argparse.ArgumentParser)
                    and obj.prog.startswith("policylab"))]

    config = _write_config(tmp_path, log_rollouts=True, total_steps=3,
                           vocab_size=32, seq_len=12, modulus=16)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    before, seen, real = held(), [], cli.predict_entropy_change

    def scanning(*args, **kwargs):
        seen.append([type(obj).__name__ for obj in held()
                     if not any(obj is old for old in before)])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_entropy_change", scanning)
    assert main(["analyze", "--log", str(run / "rollouts.jsonl"),
                 "--checkpoint", str(run / "policy.json")]) == 0
    assert seen == [[]]


def _config_error(argv, capsys) -> str:
    """The message of a CLI usage error: exit 2 with one 'config error:' line."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error: ") and err.count("\n") == 1
    return err[len("config error: "):-1]


def _raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _residue_set_messages(bad, tmp_path, capsys) -> list[tuple[str, str]]:
    """(field, message) from every residue-set entry point for one bad set at M = 5."""
    found = [("train_targets", _raised(lambda: RunConfig(train_targets=bad))),
             ("eval_targets", _raised(lambda: RunConfig(eval_targets=bad)))]
    if bad and all(type(t) is int for t in bad):  # eval --targets parses integers; none means all
        TabularPolicy.uniform(6 * 5 + 1, 8).save(tmp_path / "policy.json")
        found.append(("targets", _config_error(
            ["eval", str(tmp_path / "policy.json"), "--targets", *map(str, bad)], capsys)))
    return found


def _table_fit_messages(shape, tmp_path, capsys) -> list[tuple[str, str]]:
    """(context prefix, message) from every table-fit entry point for a table of
    the given shape and the V=8, T=3, M=5 environment (16 states) of _log_line."""
    checkpoint = tmp_path / "policy.json"
    TabularPolicy.uniform(*shape).save(checkpoint)
    (tmp_path / "log.jsonl").write_text(_log_line(0) + "\n" + _rewarded_line(0) + "\n")
    (tmp_path / "run_manifest.json").write_text(LOGGING_MANIFEST)
    with pytest.raises(ConfigError) as info:
        train(RunConfig(seq_len=3, total_steps=1, init_checkpoint=str(checkpoint)))
    return [
        ("", _raised(lambda: rollout_group(TabularPolicy.uniform(*shape), ModSumTask(8, 3, 5, 0),
                                           2, named_stream(0, "fit")))),
        (f"init checkpoint {checkpoint}: ", str(info.value)),
        (f"checkpoint {checkpoint}: ", _config_error(
            ["analyze", "--log", str(tmp_path / "log.jsonl"), "--checkpoint", str(checkpoint)],
            capsys)),
        (f"checkpoint {checkpoint}: ", _config_error(["eval", str(checkpoint)], capsys)),
    ]


_RESIDUES = "{name} must be one or more distinct residues in [0, 5), got {bad}"
_INTEGERS = "{name} must be integers, got {bad}"
_FIT = "policy table ({bad[0]} states, 8 actions) does not match state space (16 states, 8 actions)"


@pytest.mark.parametrize("bad, rule", [
    ([1, 1], _RESIDUES), ([5], _RESIDUES), ([-1, 0], _RESIDUES), ([], _RESIDUES),
    ([1.5, 2.9], _INTEGERS), ([True], _INTEGERS),
    ((17, 8), _FIT), ((20, 8), _FIT),
], ids=["repeat", "too_large", "negative", "empty", "fractional", "bool",
        "table_17x8", "table_20x8"])
def test_each_shape_rule_gives_one_message_at_every_entry_point(bad, rule, tmp_path, capsys):
    # residue sets and table fit are each stated once in env.py: every entry
    # point of a rule gives that rule's message, naming its own field or file
    if rule is _FIT:
        for prefix, message in _table_fit_messages(bad, tmp_path, capsys):
            assert message == prefix + rule.format(bad=bad)
    else:
        for name, message in _residue_set_messages(bad, tmp_path, capsys):
            assert message == rule.format(name=name, bad=bad)


def test_suite_smoke(tmp_path, capsys):
    rc = main(["suite", "schedule_switch", "--steps", "3", "--out", str(tmp_path / "suite")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite: schedule_switch" in out
    assert (tmp_path / "suite" / "summary.json").exists()


def test_suite_steps_is_a_positive_count(capsys):
    # refused by the parser as the flag the user typed, before any config is built
    with pytest.raises(SystemExit) as exc:
        main(["suite", "baseline_zoo", "--steps", "0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--steps: expected an integer >= 1, got '0'" in err and "total_steps" not in err


def test_unknown_suite_usage_error():
    # argparse rejects the choice with the usage exit code
    proc = subprocess.run([sys.executable, "-m", "policylab.cli", "suite", "nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "policylab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("train", "gradcheck", "entropy-predict", "analyze", "suite", "eval"):
        assert command in proc.stdout
