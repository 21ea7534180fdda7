"""Command-line surface.

Subcommands: train, gradcheck, entropy-predict, analyze, suite, eval.
Exit codes: 0 success, 1 failed check, 2 config/usage error,
3 stability alarm, 4 empty-batch abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .entropy_dynamics import (
    center_advantages,
    predict_entropy_change,
    quadrant_stats_arrays,
    verify_predictor_convergence,
)
from .env import EnvConfig, read_rollout_log, residue_set
from .gradcheck import (
    DEFAULT_STEP,
    ENV,
    GROUP_SIZE,
    build_gradcheck_batch,
    check_objective_gradient,
    gradcheck_rows,
)
from .objectives import ALGORITHMS, NUMBER_FIELDS, ObjectiveSpec, TokenBatch, batch_token_terms
from .policy import TabularPolicy, check_table_size, state_visits, visit_weighted_mean
from .seeding import named_stream
from .trainer import (
    SUITE_NAMES,
    ConfigError,
    EmptyBatchError,
    RunConfig,
    StabilityAlarm,
    config_errors,
    evaluate,
    format_suite_table,
    objective_from_dict,
    run_experiment_suite,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_EMPTY_BATCH = 4


def _checked(convert, ok, expected: str):
    """argparse type: convert(text) if ok() accepts it, else a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _int_at_least(minimum: int):
    return _checked(int, lambda v: v >= minimum, f"an integer >= {minimum}")


_seed = _int_at_least(0)
_positive_int = _int_at_least(1)
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _load_checkpoint(path: str) -> TabularPolicy:
    """The policy of a checkpoint; a missing or malformed one is a usage error."""
    with config_errors(f"checkpoint {path}: "):
        return TabularPolicy.load(path)[0]


def _emit(doc: dict, json_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if json_path:
        with config_errors(f"cannot write {json_path}: "):
            Path(json_path).write_text(text)
    print(text)


def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    result = train(config, out_dir=args.out, progress=args.progress)
    last = result.metrics[-1]
    print(f"completed {len(result.metrics)} steps: entropy={last.entropy_exact:.4f} "
          f"reward={last.mean_reward:.3f} accuracy={last.accuracy:.3f}")
    if args.out is not None:
        print(f"outputs in {Path(args.out)}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    overrides = {n: getattr(args, n) for n in NUMBER_FIELDS if getattr(args, n) is not None}
    with config_errors():
        spec = ObjectiveSpec.for_algorithm(args.objective, **overrides)
        ENV.check_samples(args.trajectories, "--trajectories")
        ENV.check_samples(gradcheck_rows(args.trajectories),
                          f"--trajectories in whole groups of {GROUP_SIZE}")
    try:
        batch, policy = build_gradcheck_batch(
            spec, seed=args.seed, n_trajectories=args.trajectories,
            min_branch_count=args.min_branch_count, h=args.h)
    except RuntimeError as exc:  # no batch exercises every branch often enough
        raise ConfigError(str(exc)) from exc
    report = check_objective_gradient(spec, batch, policy, h=args.h,
                                      min_branch_count=args.min_branch_count)
    _emit(report.to_dict(), args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_entropy_predict(args) -> int:
    rng = named_stream(args.seed, "entropy-predict")
    if args.checkpoint:
        if args.num_states is not None or args.num_actions is not None:
            raise ConfigError("--num-states and --num-actions do not act with --checkpoint, "
                              "whose table gives the shape")
        policy = _load_checkpoint(args.checkpoint)
    else:
        shape = (args.num_states or 31, args.num_actions or 8)
        with config_errors():
            check_table_size(*shape, "--num-states and --num-actions")
        policy = TabularPolicy.random(*shape, 1.0, rng)
    n_states = min(args.instances, policy.num_states)
    states = np.sort(rng.choice(policy.num_states, size=n_states, replace=False))
    adv = center_advantages(policy, states,
                            rng.normal(0.0, 1.0, (n_states, policy.num_actions)))
    predictions = predict_entropy_change(policy, states, adv, args.eta)
    reports = verify_predictor_convergence(policy, states, adv, args.eta)
    out = [{"prediction": p.to_dict(), "convergence": c.to_dict()}
           for p, c in zip(predictions, reports)]
    _emit({"seed": args.seed, "eta": args.eta, "instances": out}, args.json)
    return EXIT_OK if all(c.passed for c in reports) else EXIT_CHECK_FAILED


def _run_config(manifest: Path) -> dict:
    """The config a run manifest records. One that cannot be read, or holds no
    config object, raises OSError or ValueError for the caller's config_errors."""
    doc = json.loads(manifest.read_text())
    config = doc.get("config") if isinstance(doc, dict) else doc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def _analyze_log(args):
    """analyze's log pass: (policy, threshold, quadrant stats, visited states,
    their visits, their mean advantages). The groups, token batch and terms
    it reads are gone by the time the predictor runs."""
    # the run's own objective clips; a beta_schedule's betas move no branch code. Only
    # the objective and log_rollouts are read, so a retired key still analyzes
    manifest = Path(args.log).parent / "run_manifest.json"
    with config_errors(f"run manifest beside {args.log}: "):
        config = _run_config(manifest)
        spec = objective_from_dict(config.get("objective", {}))
    if config.get("log_rollouts") is False:  # train leaves an earlier run's log in place
        raise ConfigError(f"run manifest {manifest} records a run that logged no rollouts, "
                          f"so {args.log} is an earlier run's log")
    with config_errors(f"rollout log {args.log}: "):
        groups = read_rollout_log(args.log)
        # the batch, advantages included, built from the logged groups as the
        # trainer builds it; an empty log is an empty batch
        tokens = TokenBatch.from_groups(groups)
    tasks = dict.fromkeys(group.task for group in groups)  # first-seen order
    del groups  # the batch holds copies of their arrays
    policy = _load_checkpoint(args.checkpoint)
    with config_errors(f"checkpoint {args.checkpoint}: "):
        for task in tasks:
            task.check_table(policy)
    with config_errors(f"log {args.log} under checkpoint {args.checkpoint}: "):
        terms = batch_token_terms(spec, tokens, policy)
    threshold = (1.0 / policy.num_actions if args.prob_threshold is None
                 else args.prob_threshold)
    advs = tokens.advantages
    stats = quadrant_stats_arrays(terms.deltas, advs, np.exp(tokens.old_logprobs),
                                  terms.branch_codes, threshold)
    del terms

    # per-(state, action) advantage sums and counts; the scatters add in token order
    cells, shape = tokens.cell_index(policy), policy.logits.shape
    adv_sum = np.bincount(cells, weights=advs, minlength=policy.logits.size).reshape(shape)
    adv_count = np.bincount(cells, minlength=policy.logits.size).reshape(shape)
    visited, visits = state_visits(policy, tokens.states)
    counts = adv_count[visited]
    mean_adv = np.divide(adv_sum[visited], counts, out=np.zeros(counts.shape), where=counts > 0)
    return policy, threshold, stats, visited, visits, mean_adv


def _cmd_analyze(args) -> int:
    policy, threshold, stats, visited, visits, mean_adv = _analyze_log(args)
    predictions = predict_entropy_change(
        policy, visited, center_advantages(policy, visited, mean_adv), args.eta)
    weighted = {name: visit_weighted_mean([getattr(p, name) for p in predictions], visits)
                for name in ("predicted_delta_h", "actual_delta_h")}
    doc = {
        "quadrant_stats": stats.to_dict(),
        "entropy_predictions": [p.to_dict() for p in predictions],
        "visitation_weighted_mean": {
            **weighted,
            "note": "per-state idealized policy-gradient predictions, weighted by visits",
        },
        "eta": args.eta,
        "prob_threshold": threshold,
        "n_tokens": stats.n_tokens,
    }
    _emit(doc, args.json)
    return EXIT_OK


def _cmd_suite(args) -> int:
    summary = run_experiment_suite(args.name, out_dir=args.out, seed=args.seed,
                                   total_steps=args.steps, progress=args.progress)
    print(format_suite_table(summary))
    return EXIT_OK


def _cmd_eval(args) -> int:
    policy = _load_checkpoint(args.checkpoint)
    # V and T read off the table, raised to the smallest valid ones: the table
    # fits this shape or no environment of this modulus
    with config_errors("--modulus: "):
        env = EnvConfig(max(policy.num_actions, 2),
                        max((policy.num_states - 1) // args.modulus, 1), args.modulus)
    with config_errors(f"checkpoint {args.checkpoint}: "):
        env.check_table(policy)
    manifest = Path(args.checkpoint).parent / "run_manifest.json"
    if manifest.exists():  # the table fits, but T*M + 1 states fit more than one M
        with config_errors(f"run manifest beside {args.checkpoint}: "):
            modulus = _run_config(manifest).get("modulus")
        if modulus != args.modulus:
            raise ConfigError(f"--modulus {args.modulus} contradicts the modulus {modulus} of "
                              f"the run manifest beside {args.checkpoint}")
    with config_errors():  # no --targets value means every residue
        targets = residue_set("targets", args.targets or range(args.modulus), args.modulus)
        env.check_samples(args.samples, "--samples")
    accuracy = evaluate(policy, [env.task(t) for t in targets], args.samples,
                        named_stream(args.seed, "eval-cli"))
    _emit({"accuracy": accuracy, "targets": targets, "samples_per_prompt": args.samples,
           "avg_at": args.samples, "seed": args.seed}, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policylab",
        description="Policy-optimization laboratory on exact tabular softmax policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training loop from a JSON config")
    p.add_argument("--config", required=True, help="path to the run config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of an objective gradient")
    p.add_argument("--objective", choices=ALGORITHMS, default="ce_gppo")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trajectories", type=_int_at_least(2), default=64)
    p.add_argument("--min-branch-count", type=_int_at_least(0), default=16)
    p.add_argument("--h", type=_positive_float, default=DEFAULT_STEP)
    for name in NUMBER_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    p.add_argument("--json", default=None, help="also write the report to this path")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("entropy-predict",
                       help="covariance predictor vs exact entropy change")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--checkpoint", default=None, help="policy checkpoint (default: random)")
    # the random policy's shape (default 31 x 8); a checkpoint brings its own
    p.add_argument("--num-states", type=_positive_int, default=None)
    p.add_argument("--num-actions", type=_positive_int, default=None)
    p.add_argument("--instances", type=_positive_int, default=5)
    p.add_argument("--eta", type=_positive_float, default=0.04)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_entropy_predict)

    p = sub.add_parser("analyze", help="offline analysis of a rollout log")
    p.add_argument("--log", required=True, help="rollout log beside its run_manifest.json")
    p.add_argument("--checkpoint", required=True,
                   help="policy checkpoint providing the live ratios")
    p.add_argument("--eta", type=_positive_float, default=0.01)
    p.add_argument("--prob-threshold", type=_probability, default=None,
                   help="high/low probability split (default 1/vocab)")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("suite", help="run a preconfigured experiment suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--steps", type=_positive_int, default=300)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("eval", help="avg@k success rate on the given targets")
    p.add_argument("checkpoint")
    p.add_argument("--modulus", type=_int_at_least(2), default=5)
    p.add_argument("--targets", type=int, nargs="*", default=None)
    p.add_argument("--samples", type=_positive_int, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # the parser is not kept past parsing
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityAlarm as exc:
        print(exc, file=sys.stderr)  # its message starts "stability alarm at step"
        return EXIT_STABILITY
    except EmptyBatchError as exc:
        print(f"empty batch: {exc}", file=sys.stderr)
        return EXIT_EMPTY_BATCH


if __name__ == "__main__":
    sys.exit(main())
