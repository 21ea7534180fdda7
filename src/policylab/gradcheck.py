"""Finite-difference validation of every analytic gradient in the package.

The numeric side never touches the analytic assembly: it evaluates the
objective under its declared stop-gradient semantics at perturbed logits
and takes central differences per coordinate. "Declared semantics" means
ratios are recomputed against the perturbed live policy while each
token's frozen factor (the stop-gradient denominator captured before
perturbation) is held fixed; clipped-constant branches stay constant.
Concretely each token contributes

    weight * (frozen_scale * delta(logits) * A + frozen_offset)

with frozen_scale = grad_weight / delta0 and frozen_offset chosen so the
unperturbed value is the token's forward value. For the plain-clip
objectives this is exactly the true objective in a neighborhood away
from the clip kinks; for the stop-gradient objectives it is the surrogate
the gradient is defined through.

Because the objectives are piecewise, a check is only meaningful when the
batch actually exercises every branch and no sample point sits within
10*h of a clip boundary (central differences straddling a kink measure
nothing). Batch construction enforces both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .advantage import group_advantages
from .env import EnvConfig, rollout_group, sample_task
from .objectives import (
    ObjectiveSpec,
    TokenBatch,
    aggregate_objective,
    batch_token_terms,
    entropy_bonus,
    new_logprob_lookup,
    token_weights,
)
from .policy import TabularPolicy
from .seeding import named_stream

DEFAULT_STEP = 1e-5
DEFAULT_REL_TOL = 1e-5
DEFAULT_ABS_TOL = 1e-8
BOUNDARY_EXCLUSION_STEPS = 10.0


@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-numeric comparison."""

    algorithm: str
    passed: bool
    rejected: bool = False
    rejection_reason: str = ""
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    worst_coordinate: tuple[int, int] = (-1, -1)
    branch_counts: dict[str, int] = field(default_factory=dict)
    flagged_coordinates: list[tuple[int, int]] = field(default_factory=list)
    n_tokens: int = 0
    n_coordinates: int = 0
    h: float = DEFAULT_STEP
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "passed": self.passed,
            "rejected": self.rejected,
            "rejection_reason": self.rejection_reason,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "worst_coordinate": list(self.worst_coordinate),
            "branch_counts": self.branch_counts,
            "flagged_coordinates": [list(c) for c in self.flagged_coordinates],
            "n_tokens": self.n_tokens,
            "n_coordinates": self.n_coordinates,
            "h": self.h,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
        }


def numeric_gradient(objective_evaluator: Callable[[np.ndarray], float],
                     policy: TabularPolicy, h: float,
                     ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Central differences (J(z + h e) - J(z - h e)) / 2h per logit coordinate.

    The evaluator must be a deterministic function of the logits (frozen
    batch, frozen snapshot). Coordinates where either perturbed objective
    is non-finite are skipped (gradient entry left at 0) and flagged.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be > 0, got {h}")
    base = policy.logits.copy()
    grad = np.zeros_like(base)
    flagged: list[tuple[int, int]] = []
    work = base.copy()
    for s in range(base.shape[0]):
        for a in range(base.shape[1]):
            work[s, a] = base[s, a] + h
            plus = objective_evaluator(work)
            work[s, a] = base[s, a] - h
            minus = objective_evaluator(work)
            work[s, a] = base[s, a]
            if not (np.isfinite(plus) and np.isfinite(minus)):
                flagged.append((s, a))
                continue
            grad[s, a] = (plus - minus) / (2.0 * h)
    return grad, flagged


def frozen_surrogate_evaluator(spec: ObjectiveSpec, batch: TokenBatch,
                               policy: TabularPolicy) -> Callable[[np.ndarray], float]:
    """Close over the stop-gradient state captured at the current policy.

    Returns logits -> J where only the live ratio occurrences (and the
    entropy bonus, which has no frozen part) respond to the perturbation.
    """
    terms = batch_token_terms(spec, batch, policy)
    frozen_scale = terms.grad_weights / terms.deltas
    frozen_offset = terms.values - terms.grad_weights * batch.advantages
    weights = token_weights(batch, spec.aggregation)
    visited = np.unique(batch.states)

    def evaluate(logits: np.ndarray) -> float:
        live = TabularPolicy(logits)
        new_lp = new_logprob_lookup(live, batch.states, batch.actions)
        deltas = np.exp(new_lp - batch.old_logprobs)
        token_values = frozen_scale * deltas * batch.advantages + frozen_offset
        value = float(weights @ token_values)
        if spec.alpha > 0.0:
            value += entropy_bonus(live, visited, spec.alpha)[0]
        return value

    return evaluate


def analytic_objective_gradient(spec: ObjectiveSpec, batch: TokenBatch,
                                policy: TabularPolicy) -> tuple[float, np.ndarray]:
    """Objective value and closed-form gradient, entropy bonus included."""
    terms = batch_token_terms(spec, batch, policy)
    value, grad = aggregate_objective(terms, batch, policy, spec.aggregation)
    if spec.alpha > 0.0:
        bonus_value, bonus_grad = entropy_bonus(policy, np.unique(batch.states), spec.alpha)
        value += bonus_value
        grad = grad + bonus_grad
    return value, grad


def check_objective_gradient(spec: ObjectiveSpec, batch: TokenBatch, policy: TabularPolicy,
                             rel_tol: float = DEFAULT_REL_TOL,
                             abs_tol: float = DEFAULT_ABS_TOL,
                             h: float = DEFAULT_STEP,
                             min_branch_count: int = 1) -> GradCheckReport:
    """Compare the analytic batch gradient against central differences.

    A coordinate passes when |analytic - numeric| <= max(abs_tol,
    rel_tol * max(|analytic|, |numeric|)); the report's max_rel_error is
    taken over coordinates large enough for the relative criterion to
    govern. A report whose batch leaves any branch below min_branch_count
    is rejected outright: an unexercised branch proves nothing.
    """
    terms = batch_token_terms(spec, batch, policy)
    counts = terms.branch_counts()
    short = {name: n for name, n in counts.items() if n < min_branch_count}
    if short:
        return GradCheckReport(
            algorithm=spec.algorithm, passed=False, rejected=True,
            rejection_reason=(f"branch coverage below {min_branch_count}: {short} "
                              f"(full counts: {counts})"),
            branch_counts=counts, n_tokens=batch.n_tokens,
            h=h, rel_tol=rel_tol, abs_tol=abs_tol)

    _, analytic = analytic_objective_gradient(spec, batch, policy)
    evaluator = frozen_surrogate_evaluator(spec, batch, policy)
    numeric, flagged = numeric_gradient(evaluator, policy, h)

    err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    for s, a in flagged:
        err[s, a] = 0.0
    # err <= max(abs_tol, rel_tol * denom)  <=>  score <= rel_tol
    score = err / np.maximum(denom, abs_tol / rel_tol)
    worst = np.unravel_index(int(np.argmax(score)), score.shape)
    governed = denom >= abs_tol / rel_tol
    max_rel = float((err[governed] / denom[governed]).max()) if governed.any() else 0.0
    return GradCheckReport(
        algorithm=spec.algorithm,
        passed=bool(score.max() <= rel_tol),
        max_abs_error=float(err.max()),
        max_rel_error=max_rel,
        worst_coordinate=(int(worst[0]), int(worst[1])),
        branch_counts=counts,
        flagged_coordinates=flagged,
        n_tokens=batch.n_tokens,
        n_coordinates=int(analytic.size - len(flagged)),
        h=h, rel_tol=rel_tol, abs_tol=abs_tol)


def _boundary_safe_trajectories(spec: ObjectiveSpec, batch: TokenBatch,
                                policy: TabularPolicy, h: float) -> list[int]:
    """Indices of trajectories with no sample point near a clip kink."""
    terms = batch_token_terms(spec, batch, policy)
    lo, hi = spec.clip_bounds()
    band = BOUNDARY_EXCLUSION_STEPS * h
    keep = []
    for i, sl in enumerate(batch.traj_slices):
        deltas = terms.deltas[sl]
        near = (np.abs(deltas - lo) < band) | (np.abs(deltas - hi) < band)
        if spec.algorithm == "gspo":
            seq_ratio = float(np.exp(np.log(deltas).mean()))
            if min(abs(seq_ratio - lo), abs(seq_ratio - hi)) < band:
                continue
        if not near.any():
            keep.append(i)
    return keep


def build_gradcheck_batch(spec: ObjectiveSpec, seed: int, n_trajectories: int = 64,
                          env_config: EnvConfig | None = None, group_size: int = 8,
                          policy_scale: float = 0.6, perturbation: float = 0.35,
                          min_branch_count: int = 16, h: float = DEFAULT_STEP,
                          max_attempts: int = 20) -> tuple[TokenBatch, TabularPolicy]:
    """Roll out a batch and drift the live policy until every branch is hit.

    Trajectories are sampled from a snapshot of a random policy; the live
    policy is then perturbed so ratios spread beyond the clip bounds.
    Trajectories with any sample point inside the boundary exclusion band
    are dropped; batches are resampled (with escalating drift) until all
    of the algorithm's branches reach min_branch_count.
    """
    config = env_config or EnvConfig()
    n_groups = max(1, -(-n_trajectories // group_size))
    for attempt in range(max_attempts):
        rng = named_stream(seed, "gradcheck", attempt)
        base = TabularPolicy.random(config.num_states, config.vocab_size, policy_scale, rng)
        trajectories, advantages = [], []
        for g in range(n_groups):
            task = sample_task(config, rng)
            group = rollout_group(base, task, group_size, rng)
            adv = group_advantages(group, "zero")
            trajectories.extend(group.trajectories)
            advantages.extend(adv.advantages.tolist())
        trajectories = trajectories[:n_trajectories]
        advantages = advantages[:n_trajectories]
        drift = perturbation * (1.0 + 0.25 * attempt)
        live = TabularPolicy(base.logits + rng.normal(0.0, drift, base.logits.shape))
        batch = TokenBatch.from_trajectories(trajectories, advantages)
        keep = _boundary_safe_trajectories(spec, batch, live, h)
        if len(keep) < 2:
            continue
        batch = batch.subset(keep)
        counts = batch_token_terms(spec, batch, live).branch_counts()
        if all(n >= min_branch_count for n in counts.values()):
            return batch, live
    raise RuntimeError(
        f"could not build a {spec.algorithm} batch hitting every branch >= "
        f"{min_branch_count} times in {max_attempts} attempts (last counts: {counts})")
