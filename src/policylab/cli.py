"""Command-line surface.

Subcommands: train, gradcheck, entropy-predict, analyze, suite, eval.
Exit codes: 0 success, 1 failed check, 2 config/usage error,
3 stability alarm, 4 empty-batch abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .advantage import advantages_from_rewards
from .entropy_dynamics import (
    center_advantages,
    predict_entropy_change,
    quadrant_stats_arrays,
    verify_predictor_convergence,
)
from .env import ModSumTask, read_rollout_log
from .gradcheck import build_gradcheck_batch, check_objective_gradient
from .objectives import ALGORITHMS, ObjectiveSpec, TokenBatch, new_logprob_lookup
from .policy import TabularPolicy
from .seeding import named_stream
from .trainer import (
    SUITE_NAMES,
    ConfigError,
    EmptyBatchError,
    RunConfig,
    StabilityAlarm,
    evaluate,
    format_suite_table,
    run_experiment_suite,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_EMPTY_BATCH = 4


def _emit(doc: dict, json_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if json_path:
        Path(json_path).write_text(text)
    print(text)


def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    result = train(config, out_dir=args.out, progress=args.progress)
    last = result.metrics[-1]
    print(f"completed {len(result.metrics)} steps: entropy={last.entropy_exact:.4f} "
          f"reward={last.mean_reward:.3f} accuracy={last.accuracy:.3f}")
    if result.out_dir is not None:
        print(f"outputs in {result.out_dir}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    overrides = {}
    for name in ("eps", "eps_low", "eps_high", "beta1", "beta2", "alpha"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    spec = ObjectiveSpec.for_algorithm(args.objective, **overrides)
    batch, policy = build_gradcheck_batch(
        spec, seed=args.seed, n_trajectories=args.trajectories,
        min_branch_count=args.min_branch_count, h=args.h)
    report = check_objective_gradient(spec, batch, policy, h=args.h,
                                      min_branch_count=args.min_branch_count)
    _emit(report.to_dict(), args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_entropy_predict(args) -> int:
    rng = named_stream(args.seed, "entropy-predict")
    if args.checkpoint:
        policy, _ = TabularPolicy.load(args.checkpoint)
    else:
        policy = TabularPolicy.random(args.num_states, args.num_actions, 1.0, rng)
    n_states = min(args.instances, policy.num_states)
    states = rng.choice(policy.num_states, size=n_states, replace=False)
    etas = [args.eta / (2 ** k) for k in range(4)]
    out = []
    for state in sorted(int(s) for s in states):
        raw = rng.normal(0.0, 1.0, policy.num_actions)
        adv = center_advantages(policy, state, raw)
        prediction = predict_entropy_change(policy, state, adv, args.eta)
        convergence = verify_predictor_convergence(policy, state, adv, etas)
        out.append({"prediction": prediction.to_dict(),
                    "convergence": convergence.to_dict()})
    _emit({"seed": args.seed, "eta": args.eta, "instances": out}, args.json)
    return EXIT_OK if all(i["convergence"]["passed"] for i in out) else EXIT_CHECK_FAILED


def _cmd_analyze(args) -> int:
    records = read_rollout_log(args.log)
    if not records:
        raise ConfigError(f"rollout log {args.log} is empty")
    policy, _ = TabularPolicy.load(args.checkpoint)
    task = records[0]["task"]
    if (policy.num_states, policy.num_actions) != (task.num_states, task.vocab_size):
        raise ConfigError(
            f"checkpoint is {policy.num_states}x{policy.num_actions}, log tasks need "
            f"{task.num_states}x{task.vocab_size}")
    threshold = args.prob_threshold or 1.0 / task.vocab_size

    # group-relative advantages recomputed from the logged rewards
    groups: dict[int, list] = {}
    for rec in records:
        groups.setdefault(rec["group"], []).append(rec["trajectory"])
    traj_adv = {}
    for gid, trajs in groups.items():
        if len(trajs) < 2:
            raise ConfigError(
                f"log group {gid} has {len(trajs)} trajectory; group-relative "
                "advantages need at least 2")
        batch = advantages_from_rewards(np.array([t.reward for t in trajs]), "zero")
        for traj, adv in zip(trajs, batch.advantages):
            traj_adv[id(traj)] = float(adv)

    trajectories = [rec["trajectory"] for rec in records]
    try:
        tokens = TokenBatch.from_trajectories(trajectories,
                                              [traj_adv[id(t)] for t in trajectories])
    except ValueError as exc:
        raise ConfigError(f"rollout log {args.log}: {exc}") from exc
    states, actions, advs = tokens.states, tokens.actions, tokens.advantages
    new_lp = new_logprob_lookup(policy, states, actions)
    deltas = np.exp(new_lp - tokens.old_logprobs)
    stats = quadrant_stats_arrays(deltas, advs, np.exp(tokens.old_logprobs),
                                  args.eps_low, args.eps_high, threshold)

    # per-(state, action) advantage sums, added in record order
    adv_sum = np.zeros((policy.num_states, policy.num_actions))
    adv_count = np.zeros_like(adv_sum)
    np.add.at(adv_sum, (states, actions), advs)
    np.add.at(adv_count, (states, actions), 1.0)
    state_visits = np.bincount(states, minlength=policy.num_states)

    predictions = []
    for state in np.unique(states).tolist():
        counts = adv_count[state]
        mean_adv = np.divide(adv_sum[state], counts,
                             out=np.zeros_like(counts), where=counts > 0)
        centered = center_advantages(policy, state, mean_adv)
        predictions.append(predict_entropy_change(policy, state, centered, args.eta))
    weights = np.array([state_visits[p.state] for p in predictions], dtype=np.float64)
    weights /= weights.sum()
    doc = {
        "quadrant_stats": stats.to_dict(),
        "entropy_predictions": [p.to_dict() for p in predictions],
        "visitation_weighted_mean": {
            "predicted_delta_h": float(weights @ [p.predicted_delta_h for p in predictions]),
            "actual_delta_h": float(weights @ [p.actual_delta_h for p in predictions]),
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
    policy, _ = TabularPolicy.load(args.checkpoint)
    if (policy.num_states - 1) % args.modulus != 0:
        raise ConfigError(
            f"checkpoint has {policy.num_states} states, not of the form T*{args.modulus}+1")
    seq_len = (policy.num_states - 1) // args.modulus
    targets = args.targets if args.targets else list(range(args.modulus))
    tasks = [ModSumTask(policy.num_actions, seq_len, args.modulus, t) for t in targets]
    accuracy = evaluate(policy, tasks, args.samples, named_stream(args.seed, "eval-cli"))
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
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of an objective gradient")
    p.add_argument("--objective", choices=ALGORITHMS, default="ce_gppo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectories", type=int, default=64)
    p.add_argument("--min-branch-count", type=int, default=16)
    p.add_argument("--h", type=float, default=1e-5)
    for name in ("eps", "eps-low", "eps-high", "beta1", "beta2", "alpha"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--json", default=None, help="also write the report to this path")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("entropy-predict",
                       help="covariance predictor vs exact entropy change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None, help="policy checkpoint (default: random)")
    p.add_argument("--num-states", type=int, default=31)
    p.add_argument("--num-actions", type=int, default=8)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--eta", type=float, default=0.04)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_entropy_predict)

    p = sub.add_parser("analyze", help="offline analysis of a rollout log")
    p.add_argument("--log", required=True, help="line-delimited rollout log")
    p.add_argument("--checkpoint", required=True,
                   help="policy checkpoint providing the live ratios")
    p.add_argument("--eps-low", type=float, default=0.2)
    p.add_argument("--eps-high", type=float, default=0.2)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--prob-threshold", type=float, default=None,
                   help="high/low probability split (default 1/vocab)")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("suite", help="run a preconfigured experiment suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("eval", help="held-out accuracy of a policy checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--modulus", type=int, default=5)
    p.add_argument("--targets", type=int, nargs="*", default=None)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityAlarm as exc:
        print(f"stability alarm: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except EmptyBatchError as exc:
        print(f"empty batch: {exc}", file=sys.stderr)
        return EXIT_EMPTY_BATCH


if __name__ == "__main__":
    sys.exit(main())
