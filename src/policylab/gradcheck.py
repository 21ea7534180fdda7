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

Moving logit z[s, a] changes softmax row s and nothing else, so the
objective is evaluated one state row at a time: numeric_gradient hands a
row evaluator the 2V perturbed copies of row s, and the evaluator
recomputes only the tokens taken in state s (and, with an entropy bonus,
the entropy of row s) on top of cached unperturbed values. Each J is
still summed over the whole batch in the order of a full recompute, so
the numbers are bit for bit those of rebuilding the policy per coordinate.

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
    BatchTerms,
    ObjectiveSpec,
    TokenBatch,
    _sequence_means,
    aggregate_objective,
    batch_token_terms,
    entropy_bonus,
    token_weights,
)
from .policy import TabularPolicy, entropy_rows, softmax_rows
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


RowEvaluator = Callable[[int, np.ndarray], np.ndarray]


def numeric_gradient(row_evaluator: RowEvaluator, policy: TabularPolicy, h: float,
                     ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Central differences (J(z + h e) - J(z - h e)) / 2h per logit coordinate.

    Moving z[s, a] changes softmax row s only, so the objective is asked
    for one state at a time: ``row_evaluator(s, rows)`` gets the 2V
    perturbed copies of row s, ``base[s] + h*I`` then ``base[s] - h*I``,
    and returns J for each, with every other row held at the policy's
    logits. It must be a deterministic function of its arguments (frozen
    batch, frozen snapshot). Coordinates where either perturbed objective
    is non-finite are skipped (gradient entry left at 0) and flagged.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be > 0, got {h}")
    base = policy.logits.copy()
    num_states, num_actions = base.shape
    step = h * np.eye(num_actions)
    grad = np.zeros_like(base)
    flagged: list[tuple[int, int]] = []
    for s in range(num_states):
        values = np.asarray(row_evaluator(s, np.concatenate([base[s] + step, base[s] - step])),
                            dtype=np.float64)
        plus, minus = values[:num_actions], values[num_actions:]
        finite = np.isfinite(plus) & np.isfinite(minus)
        grad[s, finite] = (plus[finite] - minus[finite]) / (2.0 * h)
        flagged.extend((s, int(a)) for a in np.flatnonzero(~finite))
    return grad, flagged


def frozen_surrogate_evaluator(spec: ObjectiveSpec, batch: TokenBatch,
                               policy: TabularPolicy,
                               terms: BatchTerms | None = None) -> RowEvaluator:
    """Close over the stop-gradient state captured at the current policy.

    Returns the row evaluator (state, rows) -> J per row that
    numeric_gradient expects: J at the policy's logits with row ``state``
    replaced by each of ``rows``. Only the live ratio occurrences (and
    the entropy bonus, which has no frozen part) respond. The token values
    and visited-state entropies at the policy are cached; a row recomputes
    the tokens and the entropy of its own state, and each J is summed over
    the whole token vector in the same order as a full recompute.
    ``terms`` are batch_token_terms(spec, batch, policy) when the caller
    already has them.
    """
    if terms is None:
        terms = batch_token_terms(spec, batch, policy)
    frozen_scale = terms.grad_weights / terms.deltas
    frozen_offset = terms.values - terms.grad_weights * batch.advantages
    base_values = frozen_scale * terms.deltas * batch.advantages + frozen_offset
    weights = token_weights(batch, spec.aggregation)
    visited, counts = np.unique(batch.states, return_counts=True)
    slot = {s: k for k, s in enumerate(visited.tolist())}
    order = np.argsort(batch.states, kind="stable")
    state_tokens = np.split(order, np.cumsum(counts)[:-1])  # by slot
    base_entropies = entropy_rows(policy.probability_matrix()[visited])

    def entropy_term(entropies: np.ndarray) -> np.ndarray:
        # entropy_bonus's value: a running sum over the states in order
        return spec.alpha * np.add.accumulate(entropies, axis=-1)[..., -1] / len(visited)

    base_value = float(weights @ base_values)
    if spec.alpha > 0.0:
        base_value += entropy_term(base_entropies)

    def evaluate(state: int, rows: np.ndarray) -> np.ndarray:
        k = slot.get(state)
        if k is None:  # unvisited: nothing in J depends on this row
            return np.full(len(rows), base_value)
        tokens = state_tokens[k]
        probs = softmax_rows(rows)
        with np.errstate(divide="ignore"):
            new_lp = np.log(probs[:, batch.actions[tokens]])
        deltas = np.exp(new_lp - batch.old_logprobs[tokens])
        token_values = np.tile(base_values, (len(rows), 1))
        token_values[:, tokens] = (frozen_scale[tokens] * deltas * batch.advantages[tokens]
                                   + frozen_offset[tokens])
        # one dot per row: a single matrix-vector product rounds differently
        values = np.array([float(weights @ v) for v in token_values])
        if spec.alpha > 0.0:
            entropies = np.tile(base_entropies, (len(rows), 1))
            entropies[:, k] = entropy_rows(probs)
            values += entropy_term(entropies)
        return values

    return evaluate


def analytic_objective_gradient(spec: ObjectiveSpec, batch: TokenBatch,
                                policy: TabularPolicy,
                                terms: BatchTerms | None = None) -> tuple[float, np.ndarray]:
    """Objective value and closed-form gradient, entropy bonus included.

    ``terms`` are batch_token_terms(spec, batch, policy) when the caller
    already has them.
    """
    if terms is None:
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

    _, analytic = analytic_objective_gradient(spec, batch, policy, terms)
    evaluator = frozen_surrogate_evaluator(spec, batch, policy, terms)
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
    deltas = batch_token_terms(spec, batch, policy).deltas
    lo, hi = spec.clip_bounds()
    band = BOUNDARY_EXCLUSION_STEPS * h
    near = (np.abs(deltas - lo) < band) | (np.abs(deltas - hi) < band)
    near_any = near.reshape(-1, batch.seq_len).any(axis=1)
    if spec.algorithm == "gspo":
        # the sequence ratio is the point gspo clips
        seq_ratio = np.exp(_sequence_means(batch, np.log(deltas)))
        near_any |= np.minimum(np.abs(seq_ratio - lo), np.abs(seq_ratio - hi)) < band
    return np.flatnonzero(~near_any).tolist()


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
