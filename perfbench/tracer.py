"""Instrumentation of the policylab package from the outside.

Two pieces, both installed by the benchmark without editing the package:

* ``StepHook`` timestamps ``RunConfig.objective_at``, which ``train`` calls
  exactly once at the start of every step. The intervals between
  consecutive marks of one run are that run's per-step latencies.
* ``Tracer`` wraps the public functions listed in ``TARGETS`` with spans
  (name, start, end, parent). Because the trainer and gradcheck modules
  bind ``rollout_group``, ``batch_token_terms``, ``evaluate`` and the rest
  at import time, a function is replaced in every ``policylab`` module
  that holds it, i.e. where its caller looks it up. Methods are replaced
  on the class that defines them. ``remove`` puts every original object
  back.

Spans are kept in flat in-memory arrays and turned into per-name self
and total times at the end; self time is a span's duration minus the
time its direct children cover (calls are single-threaded and nested, so
children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (span name, defining module, attribute path)
TARGETS = (
    ("env.rollout_group", "policylab.env", "rollout_group"),
    ("env.write_rollout_log", "policylab.env", "write_rollout_log"),
    ("env.read_rollout_log", "policylab.env", "read_rollout_log"),
    ("policy.action_probabilities", "policylab.policy", "_SoftmaxTable.action_probabilities"),
    ("policy.exact_entropy", "policylab.policy", "_SoftmaxTable.exact_entropy"),
    ("policy.exact_kl", "policylab.policy", "exact_kl"),
    ("policy.apply_gradient", "policylab.policy", "TabularPolicy.apply_gradient"),
    ("policy.save", "policylab.policy", "TabularPolicy.save"),
    ("objectives.batch_token_terms", "policylab.objectives", "batch_token_terms"),
    ("objectives.aggregate_objective", "policylab.objectives", "aggregate_objective"),
    ("objectives.entropy_bonus", "policylab.objectives", "entropy_bonus"),
    ("objectives.TokenBatch.subset", "policylab.objectives", "TokenBatch.subset"),
    ("objectives.TokenBatch.from_trajectories", "policylab.objectives",
     "TokenBatch.from_trajectories"),
    ("advantage.group_advantages", "policylab.advantage", "group_advantages"),
    ("advantage.dynamic_sampling_filter", "policylab.advantage", "dynamic_sampling_filter"),
    ("trainer.train", "policylab.trainer", "train"),
    ("trainer.evaluate", "policylab.trainer", "evaluate"),
    ("trainer.write_metrics_csv", "policylab.trainer", "write_metrics_csv"),
    ("trainer.run_experiment_suite", "policylab.trainer", "run_experiment_suite"),
    ("entropy_dynamics.quadrant_stats_arrays", "policylab.entropy_dynamics",
     "quadrant_stats_arrays"),
    ("entropy_dynamics.predict_entropy_change", "policylab.entropy_dynamics",
     "predict_entropy_change"),
    ("gradcheck.numeric_gradient", "policylab.gradcheck", "numeric_gradient"),
    ("gradcheck.frozen_surrogate_evaluator", "policylab.gradcheck",
     "frozen_surrogate_evaluator"),
    ("gradcheck.analytic_objective_gradient", "policylab.gradcheck",
     "analytic_objective_gradient"),
    ("gradcheck.check_objective_gradient", "policylab.gradcheck", "check_objective_gradient"),
    ("gradcheck.build_gradcheck_batch", "policylab.gradcheck", "build_gradcheck_batch"),
    ("cli.main", "policylab.cli", "main"),
)
# the closure frozen_surrogate_evaluator returns; numeric_gradient calls it 2x per logit
EVALUATOR_SPAN = "gradcheck.evaluator"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "policylab" or name.startswith("policylab."))]


class StepHook:
    """One timestamp per training step, taken at ``RunConfig.objective_at``."""

    def __init__(self):
        from policylab.trainer import RunConfig
        self._cls = RunConfig
        self._original = None
        self.marks: list[tuple[int, int, float]] = []  # (id(config), step, time)

    def install(self) -> None:
        original = self._original = self._cls.__dict__["objective_at"]
        marks, clock = self.marks, time.perf_counter

        def objective_at(config, step):
            marks.append((id(config), step, clock()))
            return original(config, step)

        self._cls.objective_at = objective_at

    def remove(self) -> None:
        if self._original is not None:
            self._cls.objective_at = self._original
            self._original = None

    def take_runs(self) -> list[list[tuple[int, float]]]:
        """Marks since the last call, split into runs (one per config object)."""
        runs: list[list[tuple[int, float]]] = []
        last = None
        for cfg_id, step, t in self.marks:
            if cfg_id != last:
                runs.append([])
                last = cfg_id
            runs[-1].append((step, t))
        self.marks.clear()
        return runs

    @staticmethod
    def step_latencies(run: list[tuple[int, float]]) -> list[float]:
        """Seconds from the start of step k to the start of step k+1."""
        return [t1 - t0 for (s0, t0), (s1, t1) in zip(run, run[1:]) if s1 == s0 + 1]


def measure_hook_overhead(calls: int = 20000) -> float:
    """Extra seconds per ``objective_at`` call with the hook installed."""
    from policylab.trainer import RunConfig
    config = RunConfig()

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            config.objective_at(1)
        return time.perf_counter() - t0

    bare = min(timed() for _ in range(3))
    hook = StepHook()
    hook.install()
    try:
        hooked = min(timed() for _ in range(3))
    finally:
        hook.remove()
    return (hooked - bare) / calls


class Tracer:
    """Span recorder around the package's public functions."""

    def __init__(self):
        self.span_names = [name for name, _, _ in TARGETS] + [EVALUATOR_SPAN]
        self._index = {name: i for i, name in enumerate(self.span_names)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        idx = self._index[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            return post(args, result) if post is not None else result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _post(self, name: str):
        counters = self.counters
        if name == "env.rollout_group":
            def post(args, group):
                counters["tokens_sampled"] += sum(len(t) for t in group.trajectories)
                return group
        elif name == "advantage.dynamic_sampling_filter":
            def post(args, kept):
                counters["groups_sampled"] += len(args[0])
                counters["groups_kept"] += len(kept)
                return kept
        elif name == "objectives.TokenBatch.from_trajectories":
            def post(args, batch):
                counters["tokens_batched"] += batch.n_tokens
                return batch
        elif name == "gradcheck.frozen_surrogate_evaluator":
            def post(args, evaluator):
                return self._wrap(evaluator, EVALUATOR_SPAN)
        else:
            post = None
        return post

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, module_name, path in TARGETS:
            module = sys.modules[module_name]
            post = self._post(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name, post))
                else:
                    replacement = self._wrap(raw, name, post)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, replacement)
            else:
                original = getattr(module, path)
                replacement = self._wrap(original, name, post)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, replacement)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        names = np.array(self.names, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        starts = np.array(self.starts, dtype=np.float64)
        ends = np.array(self.ends, dtype=np.float64)
        duration = ends - starts
        child = parents >= 0
        covered = np.bincount(parents[child], weights=duration[child], minlength=len(names))
        return {"name": names, "parent": parents, "start": starts, "end": ends,
                "duration": duration, "self": duration - covered}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds (inclusive) and self seconds."""
        spans = self.span_arrays()
        n = len(self.span_names)
        calls = np.bincount(spans["name"], minlength=n)
        # no traced function calls itself, so summing durations per name
        # never counts an interval twice
        total = np.bincount(spans["name"], weights=spans["duration"], minlength=n)
        self_time = np.bincount(spans["name"], weights=spans["self"], minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_time[i])}
                for i, name in enumerate(self.span_names)}

    def write(self, path: Path) -> None:
        spans = self.span_arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.span_names), name=spans["name"],
                 parent=spans["parent"], start=spans["start"], end=spans["end"])
