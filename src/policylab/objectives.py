"""The objective zoo: per-token surrogate values and gradient weights.

Every algorithm here is expressed as a piecewise map from (importance
ratio delta, advantage A) to a per-token pair

  value       - the token's forward contribution to the objective J, and
  grad_weight - the scalar F multiplying A * grad(log pi) in the assembled
                ascent gradient,

plus a branch code saying which piece the token fell on. clip_terms is
the one statement of each algorithm's clip rule, and every clip statistic
(the CSV clip columns, the quadrant taxonomy, the gradcheck's branch
coverage) reads the branch codes it returns. Every algorithm clips against
the one bound pair [1 - eps_low, 1 + eps_high]; only ce_gppo reads
beta1/beta2, and ObjectiveSpec rejects a field that cannot act.

For the clip-based objectives value and weight coincide with ordinary
calculus. For the gradient-preserving and frozen-weight objectives the
pair encodes stop-gradient semantics explicitly: the backward factor is a
closed form, not an autodiff artifact, so an independent finite-difference
oracle can check it (see gradcheck).

Branch conditions use strict inequalities; a ratio sitting exactly on a
clip bound belongs to the interior branch (the two branch formulas agree
there in both value and weight, so only the label is affected).

Batches are evaluated as arrays. A TokenBatch lays n trajectories of one
length T end to end, so per-trajectory work is a reshape to (n, T): a
subset is one index computation, gspo's sequence ratio is a row mean,
and the batch mean weighs every token 1 / (n * T). A training step
builds its batch, group advantages included, straight from the rollout
groups' (G, T) arrays, gathers it once per mini-epoch in permuted order,
and takes each minibatch as a contiguous row slice of that gather. The
flat state * V + action index into the probability table is
range-checked and computed once per batch and table shape; subsets and
slices carry their part of it, and the ratio lookup, the gradient
scatter and analyze's per-cell sums all read that one index.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .advantage import standardize_groups
from .env import RolloutGroup, Trajectory, _is_number
from .policy import _SoftmaxTable, entropy_and_gradient_rows, state_visits

ALGORITHMS = ("ppo", "grpo", "dapo", "cispo", "gspo", "ce_gppo")


# the clip branches' names, indexed by the branch codes clip_terms returns
BRANCHES = ("interior_or_pessimistic", "left_clipped", "right_clipped")
CODE_INTERIOR, CODE_LEFT, CODE_RIGHT = 0, 1, 2


@dataclass(frozen=True)
class ObjectiveSpec:
    """Algorithm selector plus every hyperparameter the zoo understands.

    Every algorithm clips the importance ratio to [1 - eps_low,
    1 + eps_high]; beta1/beta2 (ce_gppo only) scale the reattached
    gradients outside the left/right clip bound; alpha is the
    entropy-bonus coefficient. A field that cannot act on the chosen
    algorithm (a nonzero beta outside ce_gppo) raises ValueError.
    """

    algorithm: str = "ce_gppo"
    eps_low: float = 0.2
    eps_high: float = 0.2
    beta1: float = 0.0
    beta2: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        for name in NUMBER_FIELDS:
            if not _is_number(getattr(self, name)):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 < self.eps_low < 1.0:
            raise ValueError(f"eps_low must be in (0, 1), got {self.eps_low}")
        if not 0.0 < self.eps_high < math.inf:
            raise ValueError(f"eps_high must be finite and > 0, got {self.eps_high}")
        for name in NUMBER_FIELDS[2:]:  # the coefficients after the two clip widths
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.algorithm != "ce_gppo" and (self.beta1 or self.beta2):
            raise ValueError(f"beta1/beta2 act only on ce_gppo, not on {self.algorithm}")

    @classmethod
    def for_algorithm(cls, algorithm: str, **overrides) -> "ObjectiveSpec":
        """Spec with the conventional defaults of the named algorithm."""
        defaults = {  # ppo, grpo and cispo keep the class defaults
            "dapo": dict(eps_high=0.28),
            "gspo": dict(eps_low=0.0003, eps_high=0.0004),
            "ce_gppo": dict(beta1=0.5, beta2=1.0),
        }
        return cls(**{"algorithm": algorithm, **defaults.get(algorithm, {}), **overrides})

    def with_betas(self, beta1: float, beta2: float) -> "ObjectiveSpec":
        return dataclasses.replace(self, beta1=beta1, beta2=beta2)

    def clip_bounds(self) -> tuple[float, float]:
        """The (lower, upper) ratio bounds this algorithm clips against."""
        return 1.0 - self.eps_low, 1.0 + self.eps_high

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# the numeric fields in field order, which a config's objective and gradcheck's flags set
NUMBER_FIELDS = tuple(f.name for f in dataclasses.fields(ObjectiveSpec) if f.type == "float")


def clip_ratios(spec: ObjectiveSpec, deltas: np.ndarray, seq_len: int) -> np.ndarray:
    """The ratio each token is clipped on: its own, or gspo's sequence ratio
    exp(mean(log delta_t)), a row mean of the (n, seq_len) view repeated over
    its seq_len tokens, so each adds in the order of a per-sequence mean."""
    if spec.algorithm != "gspo":
        return deltas
    return np.repeat(np.exp(np.log(deltas).reshape(-1, seq_len).mean(axis=1)), seq_len)


def clip_terms(spec: ObjectiveSpec, deltas: np.ndarray, advantages: np.ndarray,
               seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token (values, grad_weights, branch_codes) of the configured objective.

    The one statement of every algorithm's clip rule, token by token on the
    token's clip_ratios delta and its A. With (lo, hi) = spec.clip_bounds(),
    a token whose delta lies in [lo, hi] is interior: value delta * A and
    weight delta. Below lo it may be left-clipped, above hi right-clipped,
    and a clipped side contributes (scale * A, weight) instead:

      ppo, grpo, dapo  (lo, 0) and (hi, 0), only where A < 0 / A > 0: the
                       min(delta*A, clip(delta)*A) surrogate, whose
                       pessimistic quadrants keep the live ratio
      ce_gppo          (beta1*lo, beta1*lo) and (beta2*hi, beta2*hi), same
                       sign gate: the bound/sg(delta) * delta construction
                       keeps a bounded gradient however extreme delta is;
                       with beta1 = beta2 = 0 the gradient is ppo's
      cispo          (lo, lo) and (hi, hi) on either advantage sign: the
                       clipped importance weight, frozen in the backward pass
      gspo             the ppo rule on each token's sequence ratio s, the
                       geometric mean over its seq_len tokens; each token
                       carries a 1/seq_len share of the value and weight
                       (the share differentiating the mean forces)

    Ratios are taken as given (batch_token_terms checks them where it
    makes them); advantages are per token, constant within a gspo sequence.
    """
    lo, hi = spec.clip_bounds()
    if spec.algorithm == "ce_gppo":
        gated, left_side, right_side = True, (spec.beta1 * lo,) * 2, (spec.beta2 * hi,) * 2
    elif spec.algorithm == "cispo":
        gated, left_side, right_side = False, (lo, lo), (hi, hi)
    else:  # ppo, grpo, dapo and gspo
        gated, left_side, right_side = True, (lo, 0.0), (hi, 0.0)
    deltas = clip_ratios(spec, deltas, seq_len)
    left, right = deltas < lo, deltas > hi
    if gated:
        left &= advantages < 0.0
        right &= advantages > 0.0
    values = np.where(left, left_side[0] * advantages,
                      np.where(right, right_side[0] * advantages, deltas * advantages))
    weights = np.where(left, left_side[1], np.where(right, right_side[1], deltas))
    codes = np.where(left, CODE_LEFT, np.where(right, CODE_RIGHT, CODE_INTERIOR))
    if spec.algorithm == "gspo":  # each token's 1/seq_len share of its sequence's terms
        values, weights = values / seq_len, weights / seq_len
    return values, weights, codes


def entropy_bonus(policy: _SoftmaxTable, visited_states: Sequence[int] | np.ndarray,
                  alpha: float) -> tuple[float, np.ndarray]:
    """Entropy regularizer alpha * mean_s H(pi|s) over the visited states.

    Returns (value, exact logit-space gradient). States are deduplicated;
    the mean keeps the term's scale independent of batch size.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    grad = np.zeros((policy.num_states, policy.num_actions))
    states, _ = state_visits(policy, np.asarray(visited_states, dtype=np.int64))
    if alpha == 0.0 or states.size == 0:
        return 0.0, grad
    entropies, gradients = entropy_and_gradient_rows(policy.probability_matrix()[states])
    grad[states] = (alpha / len(states)) * gradients
    return float(_entropy_term(entropies, alpha)), grad


def _entropy_term(entropies: np.ndarray, alpha: float) -> np.ndarray:
    """entropy_bonus's value from the visited states' entropies on the last axis.

    alpha * (a running sum in state order, as a scalar loop over the states
    would add) / n; the gradcheck takes its perturbed bonuses from it too.
    """
    return alpha * np.add.accumulate(entropies, axis=-1)[..., -1] / entropies.shape[-1]


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TokenBatch:
    """Per-token arrays of n equal-length trajectories laid end to end.

    Trajectory i owns tokens [i * seq_len, (i + 1) * seq_len), so every
    per-token array reshapes to an (n, seq_len) C-contiguous view with one
    trajectory per row. Each trajectory's scalar advantage is broadcast to
    all of its tokens.
    """

    states: np.ndarray
    actions: np.ndarray
    old_logprobs: np.ndarray
    advantages: np.ndarray
    seq_len: int
    # (table shape, flat cell index) once cell_index has checked the tokens
    _cells: tuple[tuple[int, int], np.ndarray] | None = dataclasses.field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        n = len(self.states)
        if not (len(self.actions) == len(self.old_logprobs) == len(self.advantages) == n):
            raise ValueError("token arrays must share a length")
        if n == 0:
            raise ValueError("token batch is empty")
        if self.seq_len < 1 or n % self.seq_len:
            raise ValueError(
                f"{n} tokens are not a whole number of trajectories of length {self.seq_len}")

    @classmethod
    def from_trajectories(cls, trajectories: Sequence[Trajectory],
                          traj_advantages: Sequence[float]) -> "TokenBatch":
        """Concatenate equal-length trajectories; mixed lengths raise ValueError."""
        if len(trajectories) != len(traj_advantages):
            raise ValueError("one advantage per trajectory required")
        if not trajectories:
            raise ValueError("token batch is empty")
        lengths = {len(traj) for traj in trajectories}
        if len(lengths) > 1:
            raise ValueError(f"trajectories of mixed lengths {sorted(lengths)}")
        seq_len = lengths.pop()
        join = lambda name: np.concatenate([getattr(traj, name) for traj in trajectories])
        return cls(join("states"), join("actions"), join("old_logprobs"),
                   np.repeat(np.asarray(traj_advantages, dtype=np.float64), seq_len),
                   seq_len)

    @classmethod
    def from_groups(cls, groups: Sequence[RolloutGroup]) -> "TokenBatch":
        """Concatenate the rows of rollout groups, each with its group-relative advantage.

        The advantages are standardize_groups over the stacked (n_groups, G)
        rewards, so groups of different sizes raise ValueError. The same
        arrays as from_trajectories over the groups' trajectories, without
        building them: empty input and mixed lengths raise the same
        ValueErrors.
        """
        if not groups:
            raise ValueError("token batch is empty")
        sizes = sorted({len(group.rewards) for group in groups})
        if len(sizes) > 1:
            raise ValueError(f"groups of different sizes {sizes}: group advantages "
                             f"standardize every group's rewards as one (n_groups, G) matrix")
        lengths = {group.task.seq_len for group in groups}
        if len(lengths) > 1:
            raise ValueError(f"trajectories of mixed lengths {sorted(lengths)}")
        seq_len = lengths.pop()
        advantages = standardize_groups(np.stack([group.rewards for group in groups]))[0]
        join = lambda name: np.concatenate([getattr(group, name) for group in groups]).ravel()
        return cls(join("states"), join("actions"), join("old_logprobs"),
                   np.repeat(advantages.ravel(), seq_len), seq_len)

    @property
    def n_tokens(self) -> int:
        return len(self.states)

    @property
    def n_trajectories(self) -> int:
        return len(self.states) // self.seq_len

    def subset(self, traj_indices: Sequence[int]) -> "TokenBatch":
        """The listed trajectories, in the given order (repeats allowed)."""
        take = (np.asarray(traj_indices, dtype=np.int64)[:, None] * self.seq_len
                + np.arange(self.seq_len)).ravel()
        return self._tokens(take)

    def rows(self, start: int, stop: int) -> "TokenBatch":
        """Trajectories start..stop-1 (stop clamped to the end), as views of these arrays."""
        return self._tokens(slice(start * self.seq_len, stop * self.seq_len))

    def _tokens(self, take: np.ndarray | slice) -> "TokenBatch":
        part = TokenBatch(self.states[take], self.actions[take], self.old_logprobs[take],
                          self.advantages[take], self.seq_len)
        if self._cells is not None:  # already checked: the part inherits its cells
            part._cells = (self._cells[0], self._cells[1][take])
        return part

    def cell_index(self, policy: _SoftmaxTable) -> np.ndarray:
        """Each token's flat (state, action) cell in the policy's table.

        Checked and computed by flat_cell_index on first use for a table
        shape and cached for it; a table of another shape checks again.
        """
        shape = policy.logits.shape
        if self._cells is None or self._cells[0] != shape:
            self._cells = (shape, flat_cell_index(policy, self.states, self.actions))
        return self._cells[1]


@dataclass(eq=False)
class BatchTerms:
    """clip_terms of a whole batch, with the ratios they were computed from."""

    values: np.ndarray
    grad_weights: np.ndarray
    branch_codes: np.ndarray
    deltas: np.ndarray

    def branch_counts(self) -> dict[str, int]:
        return {name: int((self.branch_codes == c).sum()) for c, name in enumerate(BRANCHES)}


def flat_cell_index(policy: _SoftmaxTable, states: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
    """Index of each (state, action) pair into probability_matrix().ravel().

    A state or action outside the table raises ValueError: the flat index
    would alias it to another cell.
    """
    num_actions = policy.num_actions
    policy._check_states(states)
    if actions.size and (actions.min() < 0 or actions.max() >= num_actions):
        raise ValueError(f"actions outside [0, {num_actions})")
    return states * num_actions + actions


def new_logprob_lookup(policy: _SoftmaxTable, states: np.ndarray,
                       actions: np.ndarray) -> np.ndarray:
    """Per-token log pi(a|s) under the live policy.

    Gathered from the same probability matrix sampling uses, so a policy
    identical to the snapshot yields ratios of exactly 1. Probabilities
    that underflowed to 0 map to -inf.
    """
    return policy.log_probs(flat_cell_index(policy, states, actions))


def batch_token_terms(spec: ObjectiveSpec, batch: TokenBatch,
                      policy: _SoftmaxTable) -> BatchTerms:
    """Evaluate the configured objective's per-token terms against a live policy.

    Every ratio must be finite and > 0: a live probability that underflowed
    to 0, or an old log-prob of -inf, raises ValueError.
    """
    new_lp = policy.log_probs(batch.cell_index(policy))
    deltas = np.exp(new_lp - batch.old_logprobs)
    if not (np.isfinite(deltas) & (deltas > 0.0)).all():
        raise ValueError("importance ratio underflow/overflow: ratios must be finite and > 0")
    values, weights, codes = clip_terms(spec, deltas, batch.advantages, batch.seq_len)
    return BatchTerms(values, weights, codes, deltas)


def token_weights(batch: TokenBatch) -> np.ndarray:
    """Per-token aggregation weights: one flat mean, 1 / n_tokens each.

    Every trajectory has seq_len tokens, so this is also the mean over
    trajectories of each trajectory's token mean.
    """
    return np.full(batch.n_tokens, 1.0 / batch.n_tokens)


def aggregate_objective(terms: BatchTerms, batch: TokenBatch,
                        policy: _SoftmaxTable) -> tuple[float, np.ndarray]:
    """Reduce per-token terms to (objective value, logit-space gradient).

    The gradient accumulates weight * grad_weight * A * (indicator - pi)
    per token, with pi the live policy's row. The reduction order is fixed
    (token order), so results are bitwise reproducible.
    """
    values, weights = terms.values, terms.grad_weights
    if len(values) != batch.n_tokens:
        raise ValueError(f"{len(values)} terms for {batch.n_tokens} tokens")
    w = token_weights(batch)
    value = float(w @ values)
    coeff = w * weights * batch.advantages
    num_states, num_actions = policy.num_states, policy.num_actions
    # one scatter-add over flat (state, action) cells, in token order
    grad = np.bincount(batch.cell_index(policy), weights=coeff,
                       minlength=num_states * num_actions).reshape(num_states, num_actions)
    state_coeff = np.bincount(batch.states, weights=coeff, minlength=num_states)
    grad -= state_coeff[:, None] * policy.probability_matrix()
    return value, grad


def analytic_objective_gradient(spec: ObjectiveSpec, batch: TokenBatch,
                                policy: _SoftmaxTable,
                                terms: BatchTerms | None = None) -> tuple[float, np.ndarray]:
    """Objective value and closed-form gradient, entropy bonus included.

    ``terms`` are batch_token_terms(spec, batch, policy) when the caller
    already has them.
    """
    if terms is None:
        terms = batch_token_terms(spec, batch, policy)
    value, grad = aggregate_objective(terms, batch, policy)
    if spec.alpha > 0.0:
        bonus_value, bonus_grad = entropy_bonus(policy, batch.states, spec.alpha)
        value += bonus_value
        grad += bonus_grad
    return value, grad
