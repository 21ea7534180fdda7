"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

run.import_package()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from policylab.trainer import RunConfig, train  # noqa: E402


class TinyRefZoo(workloads.RefZoo):
    steps = 2


class TinyWide(workloads.WideEntropyReg):
    steps = 2


@pytest.fixture
def workdir():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _package_bindings() -> dict:
    """Every attribute of every policylab module and traced class, by identity."""
    bindings = {}
    for module in tracing._package_modules():
        for attr, value in vars(module).items():
            bindings[(module.__name__, attr)] = value
    for _, module_name, path in tracing.TARGETS:
        if "." in path:
            cls = getattr(sys.modules[module_name], path.split(".")[0])
            for attr, value in vars(cls).items():
                bindings[(module_name, cls.__name__, attr)] = value
    return bindings


def test_tracer_install_and_remove_restores_every_attribute():
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from policylab import gradcheck, trainer
        assert trainer.rollout_group is not before[("policylab.trainer", "rollout_group")]
        assert gradcheck.rollout_group is trainer.rollout_group
        assert trainer.evaluate.__wrapped__ is before[("policylab.trainer", "evaluate")]
    finally:
        tracer.remove()
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrong_golden_hash_is_a_failed_op(workdir):
    wrong = {"ref_zoo": {"0": {"grpo": "0" * 64}}}
    workload = TinyRefZoo(0, workdir, wrong)
    hook = tracing.StepHook()
    hook.install()
    try:
        result = workload.run_round(hook)
    finally:
        hook.remove()
    failed = [label for label, ok, _ in result.ops if not ok]
    assert failed == ["train grpo"]
    assert len(result.ops) == 5
    # the other configs had no stored golden, so their first hash became the reference
    assert set(workload.expected) == {"grpo", "dapo", "cispo", "gspo", "ce_gppo"}


def test_unreadable_analyze_output_is_a_failed_op(workdir, monkeypatch):
    monkeypatch.setattr(workloads.cli, "main", lambda argv: print("not json") or 0)
    result = workloads.RoundResult()
    workloads.WideEntropyReg._analyze(result, "grpo", workdir, 0, None)
    assert [(label, ok) for label, ok, _ in result.ops] == [("analyze grpo", False)]


def test_self_times_partition_the_traced_wall_time(workdir):
    workload = TinyWide(0, workdir, {})
    hook = tracing.StepHook()
    tracer = tracing.Tracer()
    hook.install()
    try:
        result = workload.run_round(hook, tracer)
    finally:
        hook.remove()
    assert all(ok for _, ok, _ in result.ops)
    spans = tracer.span_arrays()
    assert (spans["self"] <= spans["duration"]).all()
    assert (spans["self"] >= -1e-9).all()
    summary = tracer.summary()
    layer_self = sum(row["self_s"] for name, row in summary.items() if name != "trainer.train")
    # a few microseconds of wrapper bookkeeping per op sit outside the root spans
    n_ops = len(result.ops)
    assert abs(layer_self + summary["trainer.train"]["self_s"] - result.wall) < 1e-4 * n_ops
    assert abs(spans["duration"][spans["parent"] < 0].sum() - result.wall) < 1e-4 * n_ops
    assert summary["trainer.train"]["calls"] == len(workload.configs)
    assert summary["cli.main"]["calls"] == len(workload.configs)
    computed = run.per_layer([result], [result], tracer, hook_overhead_s=0.0)
    declared = [spec["name"] for spec in run.declared_metrics("per_layer")]
    assert set(declared) <= computed.keys()


def test_layer_map_covers_exactly_the_declared_metrics():
    layers = json.loads((run.HERE / "layers.json").read_text())["layers"]
    declared = [spec["name"] for spec in run.declared_metrics("per_layer")]
    end_to_end = {spec["name"] for spec in run.declared_metrics("end_to_end")}
    assert sorted(row["metric"] for row in layers) == sorted(declared)
    for row in layers:
        assert all(m in end_to_end or m.endswith("(info line)") for m in row["moves"])


def test_step_hook_fires_once_per_completed_step():
    original = RunConfig.__dict__["objective_at"]
    hook = tracing.StepHook()
    hook.install()
    try:
        result = train(RunConfig(total_steps=3, seed=1))
    finally:
        hook.remove()
    assert RunConfig.__dict__["objective_at"] is original
    runs = hook.take_runs()
    assert len(runs) == 1
    assert [step for step, _ in runs[0]] == [0, 1, 2] == [m.step for m in result.metrics]
    latencies = hook.step_latencies(runs[0])
    assert len(latencies) == 2 and all(t > 0 for t in latencies)


def test_gradcheck_round_counts_every_check(workdir):
    workload = workloads.GradcheckZoo(0, workdir, {})
    workload.check_seeds = workload.check_seeds[:1]
    workload.specs = workload.specs[:2]
    result = workload.run_round(tracing.StepHook())
    assert [ok for _, ok, _ in result.ops] == [True, True]
    assert result.steps == 2
    assert {label: len(times) for label, times in result.step_times.items()} == {
        "gradcheck ppo seed 0": 1, "gradcheck grpo seed 0": 1}
    assert result.fd_evals == 2 * 2 * 31 * 8


def test_benchmark_refuses_to_run_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref_zoo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_matches_numpy_inclusive_definition():
    values = list(np.random.default_rng(0).random(200))
    assert run.percentile(values, 90) == pytest.approx(np.percentile(values, 90))
