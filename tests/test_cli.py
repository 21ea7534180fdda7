import json
import subprocess
import sys

import numpy as np
import pytest

from policylab import RunConfig, TabularPolicy
from policylab.cli import main


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


def test_train_bad_config_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "learning_rte": 1.0}))
    assert main(["train", "--config", str(path)]) == 2
    path.write_text("{")
    assert main(["train", "--config", str(path)]) == 2


def test_train_stability_exit_3(tmp_path):
    config = _write_config(tmp_path, learning_rate=1e8, total_steps=10)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 3


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
        for reward in (0, 1):
            lines.append(json.dumps({
                "vocab_size": 8, "seq_len": seq_len, "modulus": 5, "target": 0,
                "group": group, "actions": [1] * seq_len,
                "old_logprobs": [-2.0794415416798357] * seq_len, "reward": reward}))
    log = tmp_path / "mixed.jsonl"
    log.write_text("\n".join(lines) + "\n")
    TabularPolicy.uniform(3 * 5 + 1, 8).save(tmp_path / "policy.json")
    rc = main(["analyze", "--log", str(log), "--checkpoint", str(tmp_path / "policy.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "mixed lengths" in err
    assert "Traceback" not in err


def test_suite_smoke(tmp_path, capsys):
    rc = main(["suite", "schedule_switch", "--steps", "3", "--out", str(tmp_path / "suite")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite: schedule_switch" in out
    assert (tmp_path / "suite" / "summary.json").exists()


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
