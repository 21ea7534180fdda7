"""The objective zoo: per-token surrogate values and gradient weights.

Every algorithm here is expressed as a piecewise map from (importance
ratio delta, advantage A) to a TokenTerm carrying

  value       - the token's forward contribution to the objective J, and
  grad_weight - the scalar F multiplying A * grad(log pi) in the assembled
                ascent gradient.

For the clip-based objectives the two coincide with ordinary calculus.
For the gradient-preserving and frozen-weight objectives the pair encodes
stop-gradient semantics explicitly: the backward factor is a closed form,
not an autodiff artifact, so an independent finite-difference oracle can
check it (see gradcheck).

Branch conditions use strict inequalities; a ratio sitting exactly on a
clip bound belongs to the interior branch (the two branch formulas agree
there in both value and weight, so only the label is affected).

Batches are evaluated as arrays. A TokenBatch lays n trajectories of one
length T end to end, so per-trajectory work is a reshape to (n, T): a
subset is one index computation, gspo's sequence ratio is a row mean,
and the sequence_mean weight 1 / (n * T) is the token_mean weight.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import Trajectory
from .policy import _SoftmaxTable, entropy_gradient_rows, entropy_rows

ALGORITHMS = ("ppo", "grpo", "dapo", "cispo", "gspo", "ce_gppo")
AGGREGATIONS = ("sequence_mean", "token_mean")


class Branch(str, enum.Enum):
    LEFT_CLIPPED = "left_clipped"
    RIGHT_CLIPPED = "right_clipped"
    INTERIOR = "interior_or_pessimistic"


# integer codes used on the vectorized path
_INTERIOR, _LEFT, _RIGHT = 0, 1, 2
_CODE_TO_BRANCH = (Branch.INTERIOR, Branch.LEFT_CLIPPED, Branch.RIGHT_CLIPPED)


@dataclass(frozen=True)
class TokenTerm:
    value: float
    grad_weight: float
    branch: Branch


@dataclass(frozen=True)
class ObjectiveSpec:
    """Algorithm selector plus every hyperparameter the zoo understands.

    eps is the symmetric clip half-width; eps_low/eps_high are the
    decoupled bounds used by dapo, cispo and gspo; beta1/beta2 scale the
    reattached gradients outside the left/right clip bound; alpha is the
    entropy-bonus coefficient; aggregation picks the batch normalizer.
    """

    algorithm: str = "ce_gppo"
    eps: float = 0.2
    eps_low: float = 0.2
    eps_high: float = 0.2
    beta1: float = 0.0
    beta2: float = 0.0
    alpha: float = 0.0
    aggregation: str = "token_mean"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; expected one of {AGGREGATIONS}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if not 0.0 < self.eps_low < 1.0:
            raise ValueError(f"eps_low must be in (0, 1), got {self.eps_low}")
        if not self.eps_high > 0.0:
            raise ValueError(f"eps_high must be > 0, got {self.eps_high}")
        for name in ("beta1", "beta2", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @classmethod
    def for_algorithm(cls, algorithm: str, **overrides) -> "ObjectiveSpec":
        """Spec with the conventional defaults of the named algorithm."""
        defaults = {
            "ppo": dict(eps=0.2, aggregation="sequence_mean"),
            "grpo": dict(eps=0.2, aggregation="sequence_mean"),
            "dapo": dict(eps_low=0.2, eps_high=0.28, aggregation="token_mean"),
            "cispo": dict(eps_low=0.2, eps_high=0.2, aggregation="token_mean"),
            # token_mean makes the aggregate value's true gradient coincide
            # with the per-token s/|y| attribution exactly
            "gspo": dict(eps_low=0.0003, eps_high=0.0004, aggregation="token_mean"),
            "ce_gppo": dict(eps=0.2, beta1=0.5, beta2=1.0, aggregation="token_mean"),
        }
        if algorithm not in defaults:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        kwargs = {"algorithm": algorithm, **defaults[algorithm]}
        kwargs.update(overrides)
        return cls(**kwargs)

    def with_betas(self, beta1: float, beta2: float) -> "ObjectiveSpec":
        return dataclasses.replace(self, beta1=beta1, beta2=beta2)

    def clip_bounds(self) -> tuple[float, float]:
        """The (lower, upper) ratio bounds this algorithm clips against."""
        if self.algorithm in ("ppo", "grpo", "ce_gppo"):
            return 1.0 - self.eps, 1.0 + self.eps
        return 1.0 - self.eps_low, 1.0 + self.eps_high

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not delta > 0.0:  # also rejects NaN
        raise ValueError(f"importance ratio must be > 0, got {delta}")
    return delta


def ppo_token_term(delta: float, adv: float, eps: float) -> TokenTerm:
    """Clipped surrogate: value = min(delta*A, clip(delta, 1-eps, 1+eps)*A).

    The gradient weight is delta whenever the unclipped branch is the min
    (including both pessimistic mismatch quadrants) and 0 when the clip
    is active.
    """
    return dapo_token_term(delta, adv, eps, eps)


def dapo_token_term(delta: float, adv: float, eps_low: float, eps_high: float) -> TokenTerm:
    """PPO semantics with decoupled clip bounds (1-eps_low, 1+eps_high)."""
    delta = _check_delta(delta)
    lo, hi = 1.0 - eps_low, 1.0 + eps_high
    if delta < lo and adv < 0.0:
        return TokenTerm(lo * adv, 0.0, Branch.LEFT_CLIPPED)
    if delta > hi and adv > 0.0:
        return TokenTerm(hi * adv, 0.0, Branch.RIGHT_CLIPPED)
    return TokenTerm(delta * adv, delta, Branch.INTERIOR)


def ce_gppo_token_term(delta: float, adv: float, eps: float,
                       beta1: float, beta2: float) -> TokenTerm:
    """Gradient-preserving clip: clipped tokens keep a bounded gradient.

    Outside the clip interval the (1 -/+ eps)/sg(delta) * delta construction
    evaluates forward to beta*(1 -/+ eps)*A and backs a gradient weight of
    exactly beta1*(1-eps) or beta2*(1+eps), however extreme delta is.
    With beta1 = beta2 = 0 the gradient reduces to PPO's (forward values
    then differ from PPO's by an advantage-dependent constant).
    """
    delta = _check_delta(delta)
    lo, hi = 1.0 - eps, 1.0 + eps
    if delta < lo and adv < 0.0:
        return TokenTerm(beta1 * lo * adv, beta1 * lo, Branch.LEFT_CLIPPED)
    if delta > hi and adv > 0.0:
        return TokenTerm(beta2 * hi * adv, beta2 * hi, Branch.RIGHT_CLIPPED)
    return TokenTerm(delta * adv, delta, Branch.INTERIOR)


def cispo_token_term(delta: float, adv: float, eps_low: float, eps_high: float) -> TokenTerm:
    """Clipped importance-sampling weight, frozen in the backward pass.

    The weight clip(delta, 1-eps_low, 1+eps_high) applies in all four
    (ratio, advantage) quadrants; value uses the same frozen-weight
    forward convention, so value = weight * A. Branch labels report which
    side of the weight clip fired.
    """
    delta = _check_delta(delta)
    lo, hi = 1.0 - eps_low, 1.0 + eps_high
    if delta < lo:
        return TokenTerm(lo * adv, lo, Branch.LEFT_CLIPPED)
    if delta > hi:
        return TokenTerm(hi * adv, hi, Branch.RIGHT_CLIPPED)
    return TokenTerm(delta * adv, delta, Branch.INTERIOR)


def gspo_sequence_terms(token_ratios: Sequence[float] | np.ndarray, adv: float,
                        eps_low: float, eps_high: float) -> list[TokenTerm]:
    """Sequence-level ratio clipping with per-token gradient attribution.

    The sequence ratio s is the length-normalized geometric mean of the
    token ratios, s = exp(mean(log delta_t)), clipped PPO-style against
    (1-eps_low, 1+eps_high). All tokens of the sequence share the branch.
    When live, each token carries value s*A/|y| and gradient weight s/|y|
    on its own grad(log pi) (the 1/|y| is forced by differentiating the
    geometric mean); when clipped, value is the bound's A/|y| share and
    the weight is 0.
    """
    ratios = np.asarray(token_ratios, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("token ratio sequence must be non-empty")
    if not np.all(ratios > 0.0):
        raise ValueError("all token ratios must be > 0")
    n = ratios.size
    seq_ratio = float(np.exp(np.log(ratios).mean()))
    lo, hi = 1.0 - eps_low, 1.0 + eps_high
    if seq_ratio < lo and adv < 0.0:
        return [TokenTerm(lo * adv / n, 0.0, Branch.LEFT_CLIPPED)] * n
    if seq_ratio > hi and adv > 0.0:
        return [TokenTerm(hi * adv / n, 0.0, Branch.RIGHT_CLIPPED)] * n
    return [TokenTerm(seq_ratio * adv / n, seq_ratio / n, Branch.INTERIOR)] * n


def token_term(spec: ObjectiveSpec, delta: float, adv: float) -> TokenTerm:
    """Scalar dispatch for the token-level algorithms (gspo needs the sequence)."""
    if spec.algorithm in ("ppo", "grpo"):
        return ppo_token_term(delta, adv, spec.eps)
    if spec.algorithm == "dapo":
        return dapo_token_term(delta, adv, spec.eps_low, spec.eps_high)
    if spec.algorithm == "cispo":
        return cispo_token_term(delta, adv, spec.eps_low, spec.eps_high)
    if spec.algorithm == "ce_gppo":
        return ce_gppo_token_term(delta, adv, spec.eps, spec.beta1, spec.beta2)
    raise ValueError(f"{spec.algorithm} has no per-token scalar form")


def entropy_bonus(policy: _SoftmaxTable, visited_states: Sequence[int] | np.ndarray,
                  alpha: float) -> tuple[float, np.ndarray]:
    """Entropy regularizer alpha * mean_s H(pi|s) over the visited states.

    Returns (value, exact logit-space gradient). States are deduplicated;
    the mean keeps the term's scale independent of batch size.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    grad = np.zeros((policy.num_states, policy.num_actions))
    states = np.unique(np.asarray(visited_states, dtype=np.int64))
    if alpha == 0.0 or states.size == 0:
        return 0.0, grad
    probs = policy.probability_matrix()[policy._check_states(states)]
    # a running sum in state order, as a scalar loop over the states would add
    value = float(np.add.accumulate(entropy_rows(probs))[-1])
    grad[states] = entropy_gradient_rows(probs)
    n = len(states)
    return alpha * value / n, (alpha / n) * grad


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
        return TokenBatch(self.states[take], self.actions[take],
                          self.old_logprobs[take], self.advantages[take], self.seq_len)


@dataclass(eq=False)
class BatchTerms:
    """Vectorized TokenTerm data for a whole batch."""

    values: np.ndarray
    grad_weights: np.ndarray
    branch_codes: np.ndarray
    deltas: np.ndarray
    new_logprobs: np.ndarray

    def branch_counts(self) -> dict[str, int]:
        return {b.value: int((self.branch_codes == c).sum())
                for c, b in enumerate(_CODE_TO_BRANCH)}

    def branches(self) -> list[Branch]:
        return [_CODE_TO_BRANCH[c] for c in self.branch_codes]

    def token_terms(self) -> list[TokenTerm]:
        return [TokenTerm(float(v), float(w), _CODE_TO_BRANCH[c])
                for v, w, c in zip(self.values, self.grad_weights, self.branch_codes)]


def new_logprob_lookup(policy: _SoftmaxTable, states: np.ndarray,
                       actions: np.ndarray) -> np.ndarray:
    """Per-token log pi(a|s) under the live policy.

    Gathered from the same probability matrix sampling uses, so a policy
    identical to the snapshot yields ratios of exactly 1. Probabilities
    that underflowed to 0 map to -inf.
    """
    probs = policy.probability_matrix()[policy._check_states(states), actions]
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _sequence_means(batch: TokenBatch, token_values: np.ndarray) -> np.ndarray:
    """Mean of each trajectory's token_values: a row mean of the (n, seq_len) view.

    The view is C-contiguous, so each row adds in the order of a
    per-sequence mean.
    """
    return token_values.reshape(-1, batch.seq_len).mean(axis=1)


def _ppo_like_arrays(deltas, advs, lo, hi):
    left = (deltas < lo) & (advs < 0.0)
    right = (deltas > hi) & (advs > 0.0)
    values = np.where(left, lo * advs, np.where(right, hi * advs, deltas * advs))
    weights = np.where(left | right, 0.0, deltas)
    codes = np.where(left, _LEFT, np.where(right, _RIGHT, _INTERIOR))
    return values, weights, codes


def _ce_gppo_arrays(deltas, advs, lo, hi, beta1, beta2):
    left = (deltas < lo) & (advs < 0.0)
    right = (deltas > hi) & (advs > 0.0)
    values = np.where(left, beta1 * lo * advs,
                      np.where(right, beta2 * hi * advs, deltas * advs))
    weights = np.where(left, beta1 * lo, np.where(right, beta2 * hi, deltas))
    codes = np.where(left, _LEFT, np.where(right, _RIGHT, _INTERIOR))
    return values, weights, codes


def _cispo_arrays(deltas, advs, lo, hi):
    weights = np.clip(deltas, lo, hi)
    codes = np.where(deltas < lo, _LEFT, np.where(deltas > hi, _RIGHT, _INTERIOR))
    return weights * advs, weights, codes


def batch_token_terms(spec: ObjectiveSpec, batch: TokenBatch,
                      policy: _SoftmaxTable) -> BatchTerms:
    """Evaluate the configured objective's per-token terms against a live policy."""
    new_lp = new_logprob_lookup(policy, batch.states, batch.actions)
    deltas = np.exp(new_lp - batch.old_logprobs)
    if not np.all(np.isfinite(deltas) & (deltas > 0.0)):
        raise ValueError("importance ratio underflow/overflow: ratios must be finite and > 0")
    advs = batch.advantages
    lo, hi = spec.clip_bounds()
    if spec.algorithm in ("ppo", "grpo", "dapo"):
        values, weights, codes = _ppo_like_arrays(deltas, advs, lo, hi)
    elif spec.algorithm == "ce_gppo":
        values, weights, codes = _ce_gppo_arrays(deltas, advs, lo, hi, spec.beta1, spec.beta2)
    elif spec.algorithm == "cispo":
        values, weights, codes = _cispo_arrays(deltas, advs, lo, hi)
    elif spec.algorithm == "gspo":
        # the gspo_sequence_terms rule: the sequence ratio is clipped PPO-style
        # and each token carries a 1/|y| share of the sequence's value and weight
        # (the sequence advantage is the one on its first token)
        seq_len = batch.seq_len
        seq_ratios = np.exp(_sequence_means(batch, np.log(deltas)))
        values, weights, codes = _ppo_like_arrays(seq_ratios, advs[::seq_len], lo, hi)
        values, weights, codes = (np.repeat(x, seq_len)
                                  for x in (values / seq_len, weights / seq_len, codes))
    else:  # pragma: no cover - ObjectiveSpec already validates
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    return BatchTerms(values, weights, codes.astype(np.int64), deltas, new_lp)


def token_weights(batch: TokenBatch, mode: str) -> np.ndarray:
    """Per-token aggregation weights.

    sequence_mean: each trajectory contributes its token mean, then
    trajectories are averaged (weight 1 / (n_traj * seq_len)).
    token_mean: one flat mean over all tokens (weight 1 / total_tokens).
    With equal-length trajectories the two weights are the same number.
    """
    if mode not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {mode!r}")
    return np.full(batch.n_tokens, 1.0 / batch.n_tokens)


def aggregate_objective(terms: BatchTerms | Sequence[TokenTerm], batch: TokenBatch,
                        policy: _SoftmaxTable, mode: str) -> tuple[float, np.ndarray]:
    """Reduce per-token terms to (objective value, logit-space gradient).

    The gradient accumulates weight * grad_weight * A * (indicator - pi)
    per token, with pi the live policy's row. The reduction order is fixed
    (token order), so results are bitwise reproducible.
    """
    if isinstance(terms, BatchTerms):
        values, weights = terms.values, terms.grad_weights
    else:
        values = np.array([t.value for t in terms])
        weights = np.array([t.grad_weight for t in terms])
    if len(values) != batch.n_tokens:
        raise ValueError(f"{len(values)} terms for {batch.n_tokens} tokens")
    w = token_weights(batch, mode)
    value = float(w @ values)
    coeff = w * weights * batch.advantages
    num_states, num_actions = policy.num_states, policy.num_actions
    if batch.actions.min() < 0 or batch.actions.max() >= num_actions:
        raise ValueError(f"actions outside [0, {num_actions})")
    # one scatter-add over flat (state, action) cells, in token order
    grad = np.bincount(batch.states * num_actions + batch.actions, weights=coeff,
                       minlength=num_states * num_actions).reshape(num_states, num_actions)
    state_coeff = np.bincount(batch.states, weights=coeff, minlength=num_states)
    grad -= state_coeff[:, None] * policy.probability_matrix()
    return value, grad
