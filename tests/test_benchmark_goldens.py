"""The benchmark's stored goldens, checked by the test suite.

perfbench's self-tests run 2-step workloads, which have no stored golden,
so a change that moves a final-logits hash in ``perfbench/goldens.json``
would otherwise show only as failed ops of a benchmark run. Here one
seed-0 round of ref_zoo and of wide_entropy_reg runs against the stored
goldens, with the step hook the benchmark installs, and every op must pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402

run.import_package()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", [workloads.RefZoo, workloads.WideEntropyReg],
                         ids=lambda workload: workload.name)
def test_a_seed_0_round_passes_every_op_against_the_stored_goldens(workload, tmp_path):
    instance = workload(0, tmp_path, run.load_goldens())
    assert instance.golden_source == "stored"
    hook = tracing.StepHook()
    hook.install()
    try:
        result = instance.run_round(hook)
    finally:
        hook.remove()
    assert [(label, problem) for label, ok, problem in result.ops if not ok] == []
    trained = [label for label, _, _ in result.ops if label.startswith("train ")]
    assert trained == [f"train {name}" for name in instance.configs]
    assert result.steps == workload.steps * len(instance.configs)
