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

Moving logit z[s, a] changes softmax row s and nothing else, so a
perturbed table is named by the one row it changes: numeric_gradient
builds all S*2V perturbed rows at once and asks the evaluator for every
objective in one call. The evaluator takes one softmax over the visited
states' perturbed rows and computes one (2V, n_tokens) grid: each token's
value under each perturbed row of its own state. An entropy bonus takes
each perturbed row's entropy in place of its state's. Each J is still the
dot of the whole token vector with the weights, in the order of a full
recompute, so the numbers are bit for bit those of rebuilding the policy
per coordinate. The tile those dots read holds base values with a chunk
of whole states' grid columns written in, so it stays within
TILE_CELL_BUDGET cells, or one state's 2V rows if that is more.

Because the objectives are piecewise, a check is only meaningful when the
batch actually exercises every branch and no sample point sits within
10*h of a clip boundary (central differences straddling a kink measure
nothing). Batch construction enforces both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .env import EnvConfig, rollout_group, sample_task
from .objectives import (
    BatchTerms,
    ObjectiveSpec,
    TokenBatch,
    _entropy_term,
    analytic_objective_gradient,
    batch_token_terms,
    clip_ratios,
    token_weights,
)
from .policy import TabularPolicy, entropy_rows, softmax_rows, state_visits
from .seeding import named_stream

DEFAULT_STEP = 1e-5
REL_TOL = 1e-5  # check_objective_gradient's pass criterion
ABS_TOL = 1e-8
BOUNDARY_EXCLUSION_STEPS = 10.0
# build_gradcheck_batch: rollout group size, logit scale of the sampling
# policy, and the live policy's drift from it at the first attempt
GROUP_SIZE = 8
POLICY_SCALE = 0.6
PERTURBATION = 0.35
# the environment build_gradcheck_batch samples from, every residue a target
ENV = EnvConfig(8, 6, 5)


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

    def to_dict(self) -> dict:
        return {**asdict(self), "worst_coordinate": list(self.worst_coordinate),
                "flagged_coordinates": [list(c) for c in self.flagged_coordinates],
                "rel_tol": REL_TOL, "abs_tol": ABS_TOL}


# Cells in one (perturbed objective, token) tile of the evaluator: a chunk
# takes as many whole states (2V perturbed objectives each) as fit, and at
# least one.
TILE_CELL_BUDGET = 1 << 14

Evaluator = Callable[[np.ndarray], np.ndarray]


def numeric_gradient(evaluator: Evaluator, policy: TabularPolicy, h: float,
                     ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Central differences (J(z + h e) - J(z - h e)) / 2h per logit coordinate.

    Moving z[s, a] changes softmax row s only, so the evaluator is asked
    for every perturbed objective at once: ``evaluator(rows)`` gets the
    (S, 2V, V) array whose block s holds the 2V perturbed copies of row s,
    ``base[s] + h*I`` then ``base[s] - h*I``, and returns the (S, 2V)
    objectives J with row s replaced by each, every other row held at the
    policy's logits. It must be a deterministic function of its argument
    (frozen batch, frozen snapshot). Coordinates where either perturbed
    objective is non-finite are skipped (gradient entry left at 0) and
    flagged in row-major order.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be > 0, got {h}")
    base = policy.logits[:, None, :]
    step = h * np.eye(policy.num_actions)
    values = np.asarray(evaluator(np.concatenate([base + step, base - step], axis=1)),
                        dtype=np.float64)
    plus, minus = np.split(values, 2, axis=1)
    finite = np.isfinite(plus) & np.isfinite(minus)
    grad = np.zeros(policy.logits.shape)
    grad[finite] = (plus[finite] - minus[finite]) / (2.0 * h)
    return grad, [(int(s), int(a)) for s, a in np.argwhere(~finite)]


def frozen_surrogate_evaluator(spec: ObjectiveSpec, batch: TokenBatch,
                               policy: TabularPolicy,
                               terms: BatchTerms | None = None) -> Evaluator:
    """Close over the stop-gradient state captured at the current policy.

    Returns the evaluator rows (S, 2V, V) -> J (S, 2V) that
    numeric_gradient expects: J[s, j] at the policy's logits with row s
    replaced by rows[s, j]. Only the live ratio occurrences (and the
    entropy bonus, which has no frozen part) respond. The token values and
    visited-state entropies at the policy are cached; each perturbed row
    recomputes the tokens and the entropy of its own state, each J is
    summed over the whole token vector in the same order as a full
    recompute, and an unvisited state's J is the unperturbed value.
    ``terms`` are batch_token_terms(spec, batch, policy) when the caller
    already has them.
    """
    if terms is None:
        terms = batch_token_terms(spec, batch, policy)
    frozen_scale = terms.grad_weights / terms.deltas
    frozen_offset = terms.values - terms.grad_weights * batch.advantages

    def surrogate(deltas: np.ndarray) -> np.ndarray:
        return frozen_scale * deltas * batch.advantages + frozen_offset

    base_values = surrogate(terms.deltas)
    weights = token_weights(batch)
    visited, _ = state_visits(policy, batch.states)
    base_entropies = entropy_rows(policy.probability_matrix()[visited])

    base_value = float(weights @ base_values)
    if spec.alpha > 0.0:
        base_value += _entropy_term(base_entropies, spec.alpha)

    # Perturbed row j of visited state i is objective (i, j). Whole states
    # are evaluated a chunk at a time through one (chunk * width, n_tokens)
    # tile of base values; the tokens are grouped by state once, so each
    # chunk owns a slice of them.
    width = 2 * policy.num_actions
    n_visited = len(visited)
    chunk = min(n_visited, max(1, TILE_CELL_BUDGET // (width * batch.n_tokens)))
    starts = range(0, n_visited, chunk)
    token_slot = np.searchsorted(visited, batch.states)
    by_state = np.argsort(token_slot, kind="stable")
    bounds = np.searchsorted(token_slot[by_state], [*starts, n_visited]).tolist()

    def evaluate(rows: np.ndarray) -> np.ndarray:
        probs = softmax_rows(rows[visited].reshape(n_visited * width, -1))
        # grid[j, t]: token t's value under perturbed row j of its own state
        grid = probs.reshape(n_visited, width, -1).transpose(1, 0, 2)[
            :, token_slot, batch.actions]
        with np.errstate(divide="ignore"):
            grid = surrogate(np.exp(np.log(grid) - batch.old_logprobs))
        if spec.alpha > 0.0:
            row_entropies = entropy_rows(probs).reshape(n_visited, width, 1)
        values = np.empty((n_visited, width))
        tile = np.tile(base_values, (chunk * width, 1))
        cells = tile.reshape(chunk, width, -1)
        # each chunk writes its tokens' perturbed values into the tile and
        # puts the unperturbed ones back after its dots
        for start, lo, hi in zip(starts, bounds, bounds[1:]):
            stop = min(start + chunk, n_visited)
            tokens = by_state[lo:hi]
            own = (token_slot[tokens] - start, slice(None), tokens)
            cells[own] = grid[:, tokens].T
            # a stack of 1 x n products: each rounds like the dot weights @ v
            values[start:stop] = np.matmul(tile[:(stop - start) * width, None, :],
                                           weights).reshape(-1, width)
            cells[own] = base_values[tokens, None]
            if spec.alpha > 0.0:
                # objective (i, j): the visited states' entropies with i's replaced
                mask = np.arange(start, stop)[:, None, None] == np.arange(n_visited)
                values[start:stop] += _entropy_term(
                    np.where(mask, row_entropies[start:stop], base_entropies), spec.alpha)
        out = np.full(rows.shape[:2], base_value)
        out[visited] = values
        return out

    return evaluate


def check_objective_gradient(spec: ObjectiveSpec, batch: TokenBatch, policy: TabularPolicy,
                             h: float = DEFAULT_STEP, min_branch_count: int = 1) -> GradCheckReport:
    """Compare the analytic batch gradient against central differences.

    A coordinate passes when |analytic - numeric| <= max(ABS_TOL,
    REL_TOL * max(|analytic|, |numeric|)); the report's max_rel_error is
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
            branch_counts=counts, n_tokens=batch.n_tokens, h=h)

    _, analytic = analytic_objective_gradient(spec, batch, policy, terms)
    evaluator = frozen_surrogate_evaluator(spec, batch, policy, terms)
    numeric, flagged = numeric_gradient(evaluator, policy, h)

    err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    for s, a in flagged:
        err[s, a] = 0.0
    # err <= max(ABS_TOL, REL_TOL * denom)  <=>  score <= REL_TOL
    score = err / np.maximum(denom, ABS_TOL / REL_TOL)
    worst = np.unravel_index(int(np.argmax(score)), score.shape)
    governed = denom >= ABS_TOL / REL_TOL
    max_rel = float((err[governed] / denom[governed]).max()) if governed.any() else 0.0
    return GradCheckReport(
        algorithm=spec.algorithm,
        passed=bool(score.max() <= REL_TOL),
        max_abs_error=float(err.max()),
        max_rel_error=max_rel,
        worst_coordinate=(int(worst[0]), int(worst[1])),
        branch_counts=counts,
        flagged_coordinates=flagged,
        n_tokens=batch.n_tokens,
        n_coordinates=int(analytic.size - len(flagged)), h=h)


def _boundary_safe_trajectories(spec: ObjectiveSpec, batch: TokenBatch,
                                policy: TabularPolicy, h: float) -> list[int]:
    """Indices of trajectories with no sample point near a clip kink."""
    deltas = batch_token_terms(spec, batch, policy).deltas
    lo, hi = spec.clip_bounds()
    band = BOUNDARY_EXCLUSION_STEPS * h
    n = batch.n_trajectories  # row i: trajectory i's token ratios, then its clip_ratios
    points = np.hstack([deltas.reshape(n, -1),
                        clip_ratios(spec, deltas, batch.seq_len).reshape(n, -1)])
    near = (np.abs(points - lo) < band) | (np.abs(points - hi) < band)
    return np.flatnonzero(~near.any(axis=1)).tolist()


def build_gradcheck_batch(spec: ObjectiveSpec, seed: int, n_trajectories: int = 64,
                          env_config: EnvConfig = ENV,
                          min_branch_count: int = 16, h: float = DEFAULT_STEP,
                          max_attempts: int = 20) -> tuple[TokenBatch, TabularPolicy]:
    """Roll out a batch and drift the live policy until every branch is hit.

    Trajectories are sampled from a snapshot of a random policy; the live
    policy is then perturbed so ratios spread beyond the clip bounds.
    Trajectories with any sample point inside the boundary exclusion band
    are dropped; batches are resampled (with escalating drift) until all
    of the algorithm's branches reach min_branch_count.
    """
    tasks = tuple(map(env_config.task, range(env_config.modulus)))
    n_groups = max(1, -(-n_trajectories // GROUP_SIZE))
    counts = None  # stays None while no attempt keeps 2 boundary-safe trajectories
    for attempt in range(max_attempts):
        rng = named_stream(seed, "gradcheck", attempt)
        base = TabularPolicy.random(env_config.num_states, env_config.vocab_size, POLICY_SCALE, rng)
        groups = [rollout_group(base, sample_task(tasks, rng), GROUP_SIZE, rng)
                  for _ in range(n_groups)]
        drift = PERTURBATION * (1.0 + 0.25 * attempt)
        live = TabularPolicy(base.logits + rng.normal(0.0, drift, base.logits.shape))
        batch = TokenBatch.from_groups(groups).rows(0, n_trajectories)
        keep = _boundary_safe_trajectories(spec, batch, live, h)
        if len(keep) < 2:
            continue
        batch = batch.subset(keep)
        counts = batch_token_terms(spec, batch, live).branch_counts()
        if all(n >= min_branch_count for n in counts.values()):
            return batch, live
    last = (f"last counts: {counts}" if counts is not None
            else "no attempt kept 2 boundary-safe trajectories")
    raise RuntimeError(
        f"could not build a {spec.algorithm} batch hitting every branch >= "
        f"{min_branch_count} times in {max_attempts} attempts ({last})")
