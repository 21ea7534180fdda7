import ast
import dataclasses
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

from policylab import (
    ConfigError,
    EmptyBatchError,
    ModSumTask,
    ObjectiveSpec,
    RunConfig,
    StabilityAlarm,
    TabularPolicy,
    evaluate,
    named_stream,
    suite_configs,
    train,
)
from policylab import trainer
from policylab.cli import main
from policylab.env import Trajectory
from policylab.entropy_dynamics import quadrant_stats_arrays
from policylab.objectives import ALGORITHMS, CODE_INTERIOR, CODE_LEFT, CODE_RIGHT
from policylab.policy import PHYSICAL_MEMORY
from policylab.trainer import CSV_COLUMNS, config_errors, run_experiment_suite, write_metrics_csv


def _tiny(**overrides):
    defaults = dict(seed=0, total_steps=5, learning_rate=4.0, eval_samples=8)
    defaults.update(overrides)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(mini_epochs=0)
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        RunConfig(total_steps=0)
    with pytest.raises(ConfigError):
        RunConfig(minibatch_fraction=0.0)
    with pytest.raises(ConfigError):
        RunConfig(group_size=1)
    with pytest.raises(ConfigError):
        RunConfig(beta_schedule=((10, 0.5, 1.0), (10, 0.6, 1.0)))
    with pytest.raises(ConfigError):
        RunConfig(beta_schedule=((10, -0.5, 1.0),))
    for algorithm in set(ALGORITHMS) - {"ce_gppo"}:  # the betas act only on ce_gppo
        with pytest.raises(ConfigError, match="beta_schedule acts only on ce_gppo"):
            RunConfig(objective=ObjectiveSpec.for_algorithm(algorithm),
                      beta_schedule=((10, 0.5, 1.0),))
    with pytest.raises(ConfigError):
        RunConfig(modulus=1)
    with pytest.raises(ConfigError):
        RunConfig(train_targets="some")
    with pytest.raises(ConfigError):
        RunConfig(eval_targets=(9,))


@pytest.mark.parametrize("targets", [(), (1, 1), (4, 0, 4), (-1,), (5,)],
                         ids=["empty", "duplicate", "duplicate_apart", "negative", "too_large"])
def test_eval_targets_must_be_distinct_residues(targets):
    # an empty set would reach evaluate() only after step 0's update and fail there
    with pytest.raises(ConfigError, match="eval_targets must be one or more distinct residues"):
        RunConfig(eval_targets=targets)
    assert [task.target for task in RunConfig(eval_targets=(4, 0)).eval_tasks] == [4, 0]


def test_config_json_roundtrip_and_unknown_keys(tmp_path):
    config = _tiny(objective=ObjectiveSpec.for_algorithm("ce_gppo"),
                   beta_schedule=((3, 0.5, 1.0),), dynamic_sampling=True)
    doc = config.to_dict()
    assert doc["schema_version"] == 1
    restored = RunConfig.from_dict(doc)
    assert restored == config
    assert restored.config_hash() == config.config_hash()

    bad = dict(doc)
    bad["learning_rte"] = 1.0
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict(bad)

    bad = dict(doc)
    bad["objective"] = {**doc["objective"], "epslon": 0.1}
    with pytest.raises(ConfigError, match="unknown objective keys"):
        RunConfig.from_dict(bad)

    with pytest.raises(ConfigError, match="schema_version"):
        RunConfig.from_dict({k: v for k, v in doc.items() if k != "schema_version"})

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert RunConfig.from_json(path) == config
    path.write_text("not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_json_objective_keeps_the_algorithm_defaults(algorithm):
    # a JSON objective names only what it changes; every other field takes its
    # algorithm's for_algorithm default, as RunConfig() and the suites do
    doc = {"schema_version": 1, "objective": {"algorithm": algorithm}}
    assert RunConfig.from_dict(doc).objective == ObjectiveSpec.for_algorithm(algorithm)
    doc["objective"]["alpha"] = 0.01
    assert RunConfig.from_dict(doc).objective == ObjectiveSpec.for_algorithm(algorithm,
                                                                             alpha=0.01)


def test_empty_json_objective_is_the_default_objective():
    # ce_gppo with betas (0.5, 1.0), not ObjectiveSpec's field defaults (0, 0),
    # under which ce_gppo's gradient is ppo's
    for doc in ({"schema_version": 1, "objective": {}}, {"schema_version": 1}):
        assert RunConfig.from_dict(doc).objective == RunConfig().objective
    assert RunConfig().objective == ObjectiveSpec.for_algorithm("ce_gppo")


# annotation -> (a value of another kind, what the refusal asks for)
WRONG_KINDS = {"int": (True, "an integer"), "float": ("0.5", "a number"),
               "bool": (1, "true or false"), "str | None": (5, "a path string or null")}


@pytest.mark.parametrize("spec", [f for f in dataclasses.fields(RunConfig)
                                  if f.type in WRONG_KINDS], ids=lambda f: f.name)
def test_wrong_kind_value_refused(spec):
    value, expected = WRONG_KINDS[spec.type]
    with pytest.raises(ConfigError,
                       match=re.escape(f"{spec.name} must be {expected}, got {value!r}")):
        RunConfig(**{spec.name: value})


@pytest.mark.parametrize("cause", [OSError("disk gone"), TypeError("disk gone"),
                                   ValueError("disk gone"), RecursionError("disk gone")],
                         ids=lambda exc: type(exc).__name__)
def test_config_errors_keeps_the_context_prefix_and_the_cause(cause):
    with pytest.raises(ConfigError) as info:
        with config_errors("reading x.json: "):
            raise cause
    assert str(info.value) == "reading x.json: disk gone"
    assert info.value.__cause__ is cause


def test_config_errors_passes_other_failures_through():
    # a RecursionError is a RuntimeError, but a run's own RuntimeErrors are not input errors
    for exc in (StabilityAlarm("stability alarm at step 0: x"), KeyError("k")):
        with pytest.raises(type(exc)) as info:
            with config_errors("reading x.json: "):
                raise exc
        assert info.value is exc


# (file, function) of the only except handlers in src/ that raise ConfigError: the
# rule itself, train's init_logit_scale draw (its message does not carry the
# overflow's text) and gradcheck's unbuildable batch (build_gradcheck_batch raises
# RuntimeError, which the rule must not catch)
CONFIG_ERROR_HANDLERS = [("cli.py", "_cmd_gradcheck"), ("trainer.py", "config_errors"),
                         ("trainer.py", "train")]


def _raises_config_error(node: ast.AST) -> bool:
    """Whether node is `raise ConfigError` or `raise ConfigError(...)` (module-qualified or not)."""
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError"


def _config_error_handlers(path: Path) -> list[tuple[str, str]]:
    """(file, innermost enclosing function) of each except handler that raises ConfigError."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and any(map(_raises_config_error, ast.walk(node))):
            found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_every_input_error_conversion_goes_through_config_errors():
    src = Path(trainer.__file__).parent
    found = sorted(h for path in sorted(src.glob("*.py")) for h in _config_error_handlers(path))
    assert found == CONFIG_ERROR_HANDLERS


def test_sample_counts_the_sampler_cannot_hold_are_refused():
    # n episodes' (n, T) float64 log-probs fit physical memory, but sampling them
    # holds sample_bytes_per_episode each; building a config allocates nothing
    n = PHYSICAL_MEMORY // (8 * RunConfig.seq_len)
    with pytest.raises(ConfigError, match=f"^eval_samples and seq_len make {n} episodes "
                                          f"whose sampling holds"):
        RunConfig(eval_samples=n)
    with pytest.raises(ConfigError, match="^prompts_per_batch, group_size and seq_len make "
                                          f"{n // 8 * 8} episodes whose sampling holds"):
        RunConfig(prompts_per_batch=8, group_size=n // 8)


def test_readme_config_example_is_a_full_config():
    # the run-configuration block parses, names every key, and shows each
    # value as the config writes it back
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Run configuration"):]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert json.loads(json.dumps(RunConfig.from_dict(doc).to_dict())) == doc


def test_holdout_target_defaults():
    def reuses(config):  # what a 1-step run's manifest says
        manifest = train(dataclasses.replace(config, total_steps=1)).manifest
        return manifest["eval_reuses_training_targets"]

    def eval_targets(config):
        return [task.target for task in config.eval_tasks]

    def train_targets(config):
        return [task.target for task in config.train_tasks]

    config = RunConfig()
    assert train_targets(config) == [0, 1, 2, 3]
    assert eval_targets(config) == [4]
    assert not reuses(config)

    everything = RunConfig(train_targets="all")
    assert train_targets(everything) == [0, 1, 2, 3, 4]
    assert eval_targets(everything) == [0, 1, 2, 3, 4]
    assert reuses(everything)

    explicit = RunConfig(train_targets=(0, 2), eval_targets=(1,))
    assert train_targets(explicit) == [0, 2]
    assert eval_targets(explicit) == [1]
    assert not reuses(explicit)
    # a list is a residue set: numpy integers are ints, and its order is kept
    assert RunConfig(train_targets=[np.int64(3), 1]).train_targets == (3, 1)


# M, train_targets, eval_targets -> the targets tasks are drawn from, eval_tasks'
# targets, the manifest's eval_reuses_training_targets and config_hash(); a str
# in place of the four is the ConfigError message
TARGET_RULE = [
    (2, None, None, [0, 1], [0, 1], True,
     "37de4f3a89d2539ec0ad4d9faeffb83aadd0a678972f5e75aacec6c719592019"),
    (2, None, [0], [0, 1], [0], True,
     "b256bcc6832fd3d1c22f30e05a66a73bf35c6cfcba05f5fd2e5cdeaced524712"),
    (2, "all", None, [0, 1], [0, 1], True,
     "6389ddd3b650a6ea4edb04b99b2dd66b121e6cee3ff79510b60babb26d2ce2ae"),
    (2, "all", [0], [0, 1], [0], True,
     "a1b7329ce585a51db0862fe8831adc9a73d2ee58239af24bcc72b1e33cdca03d"),
    (2, [0], None, [0], [1], False,
     "ab34ccc412fc51f3b9e44ed28219aefb59d773b2fbe95d013f2e910ad6da58ac"),
    (2, [0], [0], [0], [0], True,
     "b5643e9ebf0c8d33d6f64867ca43f7fe18f173373b69c4f79a05660b451eb959"),
    (2, [1, 1], None, "train_targets must be one or more distinct residues in [0, 2), got [1, 1]"),
    (2, [1, 1], [0], "train_targets must be one or more distinct residues in [0, 2), got [1, 1]"),
    (3, None, None, [0, 1], [2], False,
     "908cf489699af315ede677b05b4f553462819f13dd8ed4a6e33fa5fe1d264e5c"),
    (3, None, [0], [0, 1], [0], True,
     "3a827d3a51f9d5d1c922a26e6e955ea8375ae9e024a732284ae4a9b0de3ff859"),
    (3, "all", None, [0, 1, 2], [0, 1, 2], True,
     "0ea6d995edde6179c63e02230049e7a5ee28231c5d9dd00f16232c74f49308fe"),
    (3, "all", [0], [0, 1, 2], [0], True,
     "2b11fc75fe330cea02c58fc0f16c7ac3651f6f2b540e3d71e2562ffbd2840ff4"),
    (3, [0], None, [0], [1, 2], False,
     "434d8e13e9f2e13289828ef9f9fcd8813396e881c826d4cb939d1cb5e3794691"),
    (3, [0], [0], [0], [0], True,
     "b408b11fe17eb5a5d48d6743eeadef7b962dffac93220907278a05053fc7872b"),
    (3, [1, 2], None, [1, 2], [0], False,
     "b55318816090d661096d08a3ce2828c270d9fcb503b1f404da777f38d25866ff"),
    (3, [1, 2], [0], [1, 2], [0], False,
     "a452ac1e2b18f021883376d8ca1af1c1664dfa7dea2be1c054c42bcde740e67c"),
    (5, None, None, [0, 1, 2, 3], [4], False,
     "ad39b6a0c20f26dbc9ab05804fc1956b8cb541dd64330e4a919b208696b5ced8"),
    (5, None, [0], [0, 1, 2, 3], [0], True,
     "f49748838725d66c74a50dea3f601b953c85b79b22c8f9b10bb33e0213371be4"),
    (5, "all", None, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], True,
     "22e367b0ac9341f09317e36d5283937bf4c3216f7ec7411316eab6e28764162a"),
    (5, "all", [0], [0, 1, 2, 3, 4], [0], True,
     "3056b5fbc29eb06b09307a575e074153052adeeb9ceddb464b184a828137c75a"),
    (5, [0], None, [0], [1, 2, 3, 4], False,
     "1391a745bffe546a28aaac1132bb34745d6f76b12ab8c504cc7edae320cec024"),
    (5, [0], [0], [0], [0], True,
     "7877fee2000134e563eca461b13ef4762729c1b684994e9ddb5a5e9859bcb9fb"),
    (5, [1, 4], None, [1, 4], [0, 2, 3], False,
     "1f76fc1f86fda4c46351c35016e0628c469d87da8c204d3d76522cd14419ba85"),
    (5, [1, 4], [0], [1, 4], [0], False,
     "84c3e185fc243e3645da4ff001a25ba145364510f8cbe7a85f1a9d012ed70cd7"),
]


@pytest.mark.parametrize("row", TARGET_RULE, ids=lambda row: f"M{row[0]}-{row[1]}-{row[2]}")
def test_target_rule_table(row):
    modulus, train_targets, eval_targets, *expected = row
    make = lambda: _tiny(total_steps=1, modulus=modulus, train_targets=train_targets,
                         eval_targets=eval_targets)
    if len(expected) == 1:
        with pytest.raises(ConfigError) as info:
            make()
        assert str(info.value) == expected[0]
        return
    trained, evaluated, reuses, config_hash = expected
    config = make()
    assert [task.target for task in config.train_tasks] == trained
    assert [task.target for task in config.eval_tasks] == evaluated
    assert config.config_hash() == config_hash
    manifest = train(config).manifest
    assert (manifest["train_targets"], manifest["eval_targets"],
            manifest["eval_reuses_training_targets"], manifest["config_hash"]) == (
        trained, evaluated, reuses, config_hash)


def test_env_and_eval_tasks_are_built_once_per_config(monkeypatch):
    built = []
    post_init = trainer.EnvConfig.__post_init__

    def counting_post_init(env):
        built.append(env)
        post_init(env)

    monkeypatch.setattr(trainer.EnvConfig, "__post_init__", counting_post_init)  # tasks' too
    config = _tiny(total_steps=2)
    assert config.env is config.env
    assert config.train_tasks is config.train_tasks
    assert config.eval_tasks is config.eval_tasks
    assert [task.target for task in config.eval_tasks] == [4]
    train(config)
    # the environment and one task per target, and no step builds another
    once = [config.env, *config.train_tasks, *config.eval_tasks]
    assert len(built) == len(once) == 6 and all(map(operator.is_, built, once))


def test_replaced_config_gets_its_own_env():
    # the replace perfbench's wide workload makes: the copy must not reuse the cached env
    config = RunConfig()
    assert config.env.modulus == 5
    wide = dataclasses.replace(config, vocab_size=32, seq_len=12, modulus=16)
    assert (wide.env.vocab_size, wide.env.seq_len, wide.env.modulus) == (32, 12, 16)
    assert wide.env.num_states == 193
    assert [task.target for task in wide.train_tasks] == list(range(15))
    assert wide.eval_tasks == (ModSumTask(32, 12, 16, 15),)
    assert config.env.modulus == 5 and config.eval_tasks == (ModSumTask(8, 6, 5, 4),)


def test_beta_schedule_switching():
    config = RunConfig(objective=ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=1.0),
                       beta_schedule=((5, 0.5, 1.0), (8, 0.9, 0.2)))
    assert config.objective_at(0).beta1 == 0.0
    assert config.objective_at(4).beta1 == 0.0
    assert config.objective_at(5).beta1 == 0.5
    assert config.objective_at(7).beta1 == 0.5
    assert (config.objective_at(8).beta1, config.objective_at(8).beta2) == (0.9, 0.2)


# ---------------------------------------------------------------------------
# the loop itself
# ---------------------------------------------------------------------------

def test_fully_on_policy_single_pass_degeneracy():
    # single pass over the whole batch: every ratio is exactly 1, nothing clips,
    # and ce_gppo / ppo / grpo produce identical updates
    finals = {}
    for algorithm in ("ce_gppo", "ppo", "grpo"):
        config = _tiny(mini_epochs=1, minibatch_fraction=1.0, total_steps=3,
                       objective=ObjectiveSpec.for_algorithm(algorithm))
        result = train(config)
        finals[algorithm] = result.policy.logits
        for m in result.metrics:
            assert m.clip_left == 0.0 and m.clip_right == 0.0
            assert m.offpolicy_fraction == 0.0
    assert np.array_equal(finals["ce_gppo"], finals["ppo"])
    assert np.array_equal(finals["ppo"], finals["grpo"])


def test_off_policy_activation_with_mini_epochs():
    result = train(_tiny(mini_epochs=2, total_steps=3))
    for m in result.metrics:
        assert m.offpolicy_fraction > 0.0


def test_determinism_byte_identical_csv(tmp_path):
    config = _tiny(total_steps=6)
    train(config, out_dir=tmp_path / "a")
    train(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()


def test_retired_rollout_workers_key_rejected(tmp_path):
    # the key selected a thread pool that has been removed; old configs must
    # fail loudly (CLI exit 2), not run with the key silently ignored
    doc = _tiny(total_steps=4).to_dict()
    assert "rollout_workers" not in doc
    doc["rollout_workers"] = 1
    with pytest.raises(ConfigError, match=r"unknown config keys: \['rollout_workers'\]"):
        RunConfig.from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2


# retired key -> (whether it sat in the objective, a value it used to take)
RETIRED_KNOBS = {"kl_ceiling": (False, 1.0), "entropy_weighting": (False, "visits"),
                 "aggregation": (True, "token_mean"), "eps": (True, 0.2),
                 "out_dir": (False, "out/demo")}


@pytest.mark.parametrize("key", sorted(RETIRED_KNOBS))
def test_retired_knob_rejected(key, tmp_path, capsys):
    # none of these keys acted on a run: kl_ceiling was never read; with
    # fixed-length episodes both aggregations weighed every token 1/n_tokens;
    # no suite set entropy_weighting to anything but "visits"; and every
    # algorithm clips to [1 - eps_low, 1 + eps_high], so eps was ignored by
    # dapo, cispo and gspo and shadowed eps_low/eps_high for the others;
    # out_dir named the directory that train(out_dir=) / --out names.
    # A schema-v1 file carrying one fails loudly instead of being ignored.
    doc = _tiny(total_steps=4).to_dict()
    assert key not in doc and key not in doc["objective"]
    in_objective, value = RETIRED_KNOBS[key]
    if in_objective:
        doc["objective"][key], message = value, rf"unknown objective keys: \['{key}'\]"
    else:
        doc[key], message = value, rf"unknown config keys: \['{key}'\]"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clip_columns_read_the_objective_branch_codes(algorithm, monkeypatch):
    # clip_left / clip_right are the shares of the step's token evaluations
    # that the objective itself put on its left / right clipped branch; the
    # reference is quadrant_stats_arrays over every pass's tokens, which the
    # per-pass counts and the batch's own quadrants must reproduce bit for bit
    passes, steps = [], []
    real_terms, real_evaluate = trainer.batch_token_terms, trainer.evaluate

    def recording_terms(spec, batch, policy):
        terms = real_terms(spec, batch, policy)
        passes.append((terms.deltas, batch.advantages, np.exp(batch.old_logprobs),
                       terms.branch_codes))
        return terms

    def step_boundary(*args):  # evaluate runs once per step, after its passes
        steps.append([np.concatenate(column) for column in zip(*passes)])
        passes.clear()
        return real_evaluate(*args)

    monkeypatch.setattr(trainer, "batch_token_terms", recording_terms)
    monkeypatch.setattr(trainer, "evaluate", step_boundary)
    config = RunConfig(seed=0, total_steps=3, objective=ObjectiveSpec.for_algorithm(algorithm),
                       dynamic_sampling=algorithm == "dapo")
    metrics = train(config).metrics
    assert len(steps) == len(metrics) == 3
    for m, (deltas, advs, probs, codes) in zip(metrics, steps):
        stats = quadrant_stats_arrays(deltas, advs, probs, codes, 1.0 / config.vocab_size)
        assert m.clip_left == stats.left_clip_fraction
        assert m.clip_right == stats.right_clip_fraction
        assert m.clip_left == np.count_nonzero(codes == CODE_LEFT) / codes.size
        assert m.clip_right == np.count_nonzero(codes == CODE_RIGHT) / codes.size
        assert [m.frac_pahp, m.frac_nalp, m.frac_palp, m.frac_nahp] == [
            stats.fractions[q] for q in ("pa_hp", "na_lp", "pa_lp", "na_hp")]
        late = deltas[codes.size // config.mini_epochs:]  # passes after the first mini-epoch
        assert m.offpolicy_fraction == np.count_nonzero(late != 1.0) / late.size
        clipped = codes != CODE_INTERIOR
        for mean, mask in ((m.prob_clipped_mean, clipped), (m.prob_unclipped_mean, ~clipped)):
            if mask.any():
                assert mean == pytest.approx(probs[mask].mean(), rel=1e-12, abs=0.0)
            else:
                assert np.isnan(mean)
    assert any(m.clip_left > 0.0 or m.clip_right > 0.0 for m in metrics)


# the 14-column CSV contract, written out rather than read off the code
CSV_HEADER = ("step,entropy_exact,entropy_sampled,kl,grad_norm,mean_reward,accuracy,"
              "clip_left,clip_right,frac_pahp,frac_nalp,frac_palp,frac_nahp,filtered_groups")


def test_metrics_csv_format(tmp_path):
    assert ",".join(CSV_COLUMNS) == CSV_HEADER
    result = train(_tiny(total_steps=3), out_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0"
    # every canonical cell parses as a finite float
    assert all(np.isfinite(float(cell)) for cell in first)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["config_hash"] == _tiny(total_steps=3).config_hash()
    assert manifest["seed"] == 0
    assert manifest["code_version"]
    assert manifest["eval_targets"] == [4]
    loaded, lineage = TabularPolicy.load(tmp_path / "policy.json")
    assert np.array_equal(loaded.logits, result.policy.logits)
    assert lineage["steps_completed"] == 3


def test_rollout_log_written(tmp_path):
    config = _tiny(total_steps=2, log_rollouts=True)
    train(config, out_dir=tmp_path)
    lines = (tmp_path / "rollouts.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2 * config.prompts_per_batch * config.group_size
    # group ids are globally unique across the run
    groups = [json.loads(line)["group"] for line in lines]
    assert sorted(set(groups)) == list(range(2 * config.prompts_per_batch))


@pytest.mark.parametrize("algorithm, dynamic_sampling", [("grpo", False), ("dapo", True)])
def test_training_builds_no_trajectory(algorithm, dynamic_sampling, tmp_path, monkeypatch):
    # batches, advantages and the rollout log all come from the group arrays
    built = []
    original = Trajectory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Trajectory, "__init__", counting_init)
    config = _tiny(total_steps=3, log_rollouts=True, dynamic_sampling=dynamic_sampling,
                   objective=ObjectiveSpec.for_algorithm(algorithm))
    train(config, out_dir=tmp_path)
    assert (tmp_path / "rollouts.jsonl").stat().st_size > 0
    assert built == []
    Trajectory(ModSumTask(8, 2, 5, 0), [1, 2], [-1.0, -1.0], [0, 1], 0)
    assert built == [1]  # the counter does see a Trajectory being built


def test_empty_batch_abort(tmp_path):
    # a deterministic one-hot policy makes every group degenerate, so dynamic
    # sampling drains every batch and the run aborts after bounded retries
    logits = np.zeros((31, 8))
    logits[:, 0] = 60.0
    ckpt = tmp_path / "det.json"
    TabularPolicy(logits).save(ckpt)
    config = _tiny(total_steps=3, dynamic_sampling=True, init_checkpoint=str(ckpt),
                   max_filter_retries=2)
    with pytest.raises(EmptyBatchError, match="identical correctness"):
        train(config, out_dir=tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert (manifest["status"], manifest["steps_completed"]) == ("empty_batch_abort", 0)
    assert (tmp_path / "run" / "metrics.csv").read_text() == CSV_HEADER + "\n"
    written, _ = TabularPolicy.load(tmp_path / "run" / "policy.json")
    assert np.array_equal(written.logits, TabularPolicy.load(ckpt)[0].logits)


def test_stability_alarm_halts_with_last_good_checkpoint(tmp_path):
    config = _tiny(total_steps=10, learning_rate=1e8)
    with pytest.raises(StabilityAlarm):
        train(config, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "stability_alarm"
    # the checkpoint written is the last good state: finite logits
    policy, _ = TabularPolicy.load(tmp_path / "policy.json")
    assert np.all(np.isfinite(policy.logits))


def test_stability_alarm_after_updates_keeps_the_last_completed_step(tmp_path, monkeypatch):
    # an alarm at step 3 leaves exactly what a 3-step run leaves: its rows and
    # its final logits, not the initial table
    reference = train(_tiny(total_steps=3), out_dir=tmp_path / "three")
    evaluate, calls = trainer.evaluate, []

    def nan_at_step_3(*args):
        calls.append(1)
        return float("nan") if len(calls) == 4 else evaluate(*args)

    monkeypatch.setattr(trainer, "evaluate", nan_at_step_3)
    with pytest.raises(StabilityAlarm, match="at step 3: non-finite value"):
        train(_tiny(total_steps=6), out_dir=tmp_path / "alarm")
    assert ((tmp_path / "alarm" / "metrics.csv").read_bytes()
            == (tmp_path / "three" / "metrics.csv").read_bytes())
    written, _ = TabularPolicy.load(tmp_path / "alarm" / "policy.json")
    assert np.array_equal(written.logits, reference.policy.logits)
    assert not np.array_equal(written.logits, TabularPolicy.uniform(31, 8).logits)
    manifest = json.loads((tmp_path / "alarm" / "run_manifest.json").read_text())
    assert (manifest["status"], manifest["steps_completed"]) == ("stability_alarm", 3)


def _twenty_step(algorithm, **overrides):
    return _tiny(total_steps=20, objective=ObjectiveSpec.for_algorithm(algorithm), **overrides)


STEP_CONFIGS = {
    "grpo": _twenty_step("grpo"),
    "cispo": _twenty_step("cispo"),
    "gspo": _twenty_step("gspo"),
    "dapo_dynamic_sampling": _twenty_step("dapo", dynamic_sampling=True),
    "ce_gppo_beta_switch": _twenty_step("ce_gppo", beta_schedule=((15, 1.0, 0.5),)),
}


@pytest.mark.parametrize("name", sorted(STEP_CONFIGS))
def test_steps_from_a_checkpoint_continue_the_run(name, tmp_path):
    # only the logits cross a step boundary: steps 10-19 from a 10-step run's
    # checkpoint give the 20-step run's rows and final logits bit for bit
    config = STEP_CONFIGS[name]
    full = train(config)
    train(dataclasses.replace(config, total_steps=10), out_dir=tmp_path)
    policy, _ = TabularPolicy.load(tmp_path / "policy.json")
    rows = [trainer._step(config, policy, step)[0].csv_row() for step in range(10, 20)]
    assert rows == [m.csv_row() for m in full.metrics[10:]]
    assert np.array_equal(policy.logits, full.policy.logits)


@pytest.mark.parametrize("config", [
    _tiny(total_steps=4, objective=ObjectiveSpec.for_algorithm("dapo"), dynamic_sampling=True,
          prompts_per_batch=1, group_size=2, max_filter_retries=8),
    _tiny(total_steps=4, objective=ObjectiveSpec.for_algorithm("ce_gppo"),
          beta_schedule=((2, 1.0, 0.5),)),
], ids=["dapo_retries", "ce_gppo_beta_switch"])
def test_objective_at_marks_each_step_once(config, monkeypatch):
    # a step starts with its one objective_at call, which step timers hook
    called, filtered = [], []
    objective_at, dynamic_sampling_filter = RunConfig.objective_at, trainer.dynamic_sampling_filter
    monkeypatch.setattr(RunConfig, "objective_at",
                        lambda self, step: called.append(step) or objective_at(self, step))
    monkeypatch.setattr(trainer, "dynamic_sampling_filter",
                        lambda groups: filtered.append(1) or dynamic_sampling_filter(groups))
    result = train(config)
    assert called == [0, 1, 2, 3] == [m.step for m in result.metrics]
    if config.dynamic_sampling:  # some step resampled
        assert len(filtered) > config.total_steps


def test_schedule_switch_changes_dynamics():
    constant = _tiny(total_steps=6,
                     objective=ObjectiveSpec.for_algorithm("ce_gppo", beta1=0.0, beta2=1.0))
    doc = constant.to_dict()
    doc["beta_schedule"] = [[3, 1.0, 0.1]]
    switched = RunConfig.from_dict(doc)
    a = train(constant)
    b = train(switched)
    # identical before the switch point, different after
    assert [m.csv_row() for m in a.metrics[:3]] == [m.csv_row() for m in b.metrics[:3]]
    assert not np.array_equal(a.policy.logits, b.policy.logits)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_optimal_policy_is_perfect():
    # a policy that always plays action 'needed residue' at the last position
    task = ModSumTask(8, 3, 5, 2)
    logits = np.zeros((task.num_states, 8))
    for r in range(5):
        state = 2 * task.modulus + r  # position 2, running residue r
        logits[state, (2 - r) % 5] = 60.0
    policy = TabularPolicy(logits)
    accuracy = evaluate(policy, [task], 200, named_stream(0, "opt"))
    assert accuracy == 1.0


def test_evaluate_uniform_policy_near_chance():
    task = ModSumTask(8, 6, 5, 0)
    policy = TabularPolicy.uniform(task.num_states, 8)
    accuracy = evaluate(policy, [task], 10_000, named_stream(1, "chance"))
    assert abs(accuracy - 0.2) < 0.02


def test_evaluate_estimator_unbiased_across_k():
    # same frozen policy: avg@32 and avg@1 share the expected value, but the
    # avg@32 estimator has far lower variance across repetitions
    task = ModSumTask(8, 6, 5, 0)
    policy = TabularPolicy.uniform(task.num_states, 8)
    at32 = evaluate(policy, [task], 3200, named_stream(2, "k32"))
    singles = [evaluate(policy, [task], 1, named_stream(2, "k1", i)) for i in range(3200)]
    assert abs(at32 - np.mean(singles)) < 0.03
    batched = [evaluate(policy, [task], 32, named_stream(2, "k32rep", i))
               for i in range(100)]
    assert np.var(batched) < np.var(singles) / 8


def test_evaluate_empty_task_set():
    with pytest.raises(ValueError):
        evaluate(TabularPolicy.uniform(31, 8), [], 4, named_stream(0, "e"))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suites(seed: int, steps: int) -> dict[str, dict[str, RunConfig]]:
    """Every suite written out field by field, in run order."""
    def run(objective, **fields):
        return RunConfig(seed=seed, total_steps=steps, objective=objective, **fields)

    ce_gppo = ObjectiveSpec("ce_gppo", beta1=0.5, beta2=1.0)
    grpo = ObjectiveSpec("grpo")
    dapo = run(ObjectiveSpec("dapo", eps_high=0.28), dynamic_sampling=True)
    explorer = ObjectiveSpec("ce_gppo", beta1=0.0, beta2=1.0)
    return {
        "beta_sweep": {
            "ce_gppo_b1.0_0.5": run(ObjectiveSpec("ce_gppo", beta1=1.0, beta2=0.5)),
            "ce_gppo_b0.5_1.0": run(ObjectiveSpec("ce_gppo", beta1=0.5, beta2=1.0)),
            "ce_gppo_b0.75_1.0": run(ObjectiveSpec("ce_gppo", beta1=0.75, beta2=1.0)),
            "ce_gppo_b0.0_1.0": run(explorer),
        },
        "baseline_zoo": {
            "grpo": run(grpo),
            "dapo": dapo,
            "cispo": run(ObjectiveSpec("cispo")),
            "gspo": run(ObjectiveSpec("gspo", eps_low=0.0003, eps_high=0.0004)),
            "ce_gppo": run(ce_gppo),
        },
        "entropy_reg": {
            "grpo": run(grpo),
            "grpo_alpha_0.001": run(ObjectiveSpec("grpo", alpha=0.001)),
            "grpo_alpha_0.003": run(ObjectiveSpec("grpo", alpha=0.003)),
            "dapo": dapo,
            "ce_gppo": run(ce_gppo),
        },
        "schedule_switch": {
            "ce_gppo_b0_1_constant": run(explorer),
            "ce_gppo_b0_1_to_b0.5_1": run(explorer, beta_schedule=((steps // 2, 0.5, 1.0),)),
        },
    }


def test_suite_configs_contents():
    for seed, steps in ((0, 300), (3, 12)):
        expected = _suites(seed, steps)
        assert trainer.SUITE_NAMES == tuple(expected)
        for name, runs in expected.items():
            configs = suite_configs(name, seed=seed, total_steps=steps)
            assert list(configs.items()) == list(runs.items())  # names in order, configs equal
            # dapo makes dynamic sampling part of the algorithm; no other run samples so
            assert {run for run, c in configs.items() if c.dynamic_sampling} == (
                {"dapo"} & set(configs))
    with pytest.raises(ConfigError):
        suite_configs("everything")


def test_run_experiment_suite_smoke(tmp_path):
    summary = run_experiment_suite("schedule_switch", out_dir=tmp_path, seed=0,
                                   total_steps=4)
    assert set(summary["runs"]) == {"ce_gppo_b0_1_constant", "ce_gppo_b0_1_to_b0.5_1"}
    for row in summary["runs"].values():
        assert row["steps"] == 4
        assert np.isfinite(row["final_entropy_exact"])
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "ce_gppo_b0_1_constant" / "metrics.csv").exists()


def test_write_metrics_csv_helper(tmp_path):
    result = train(_tiny(total_steps=2))
    path = tmp_path / "m.csv"
    write_metrics_csv(path, result.metrics)
    assert path.read_text().startswith("step,entropy_exact")
