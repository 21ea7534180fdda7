"""Exact tabular softmax policies.

A policy is a (num_states, num_actions) table of 64-bit logits z. Row s
induces the distribution pi(a|s) = exp(z[s,a]) / sum_a' exp(z[s,a']),
computed with max-subtraction for stability. Everything downstream
(entropy, KL, gradients) is exact, which is what makes finite-difference
and closed-form oracles meaningful.

Sign convention: gradients passed to ``apply_gradient`` are gradients of
an objective J to be maximized (ascent), never a negated loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINT_SCHEMA = "tabular-policy/v1"


def _validate_logits(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 1:
        raise ValueError(f"logits must be a 2-D (states, actions) matrix, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite (no NaN/Inf)")
    return logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of an (n, num_actions) logit matrix, max-shifted.

    The one softmax rule of the package: a row's probabilities depend on
    that row alone and come out bit for bit the same in any batch of rows.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _SoftmaxTable:
    """Read-side operations shared by the live policy and its snapshots."""

    logits: np.ndarray

    @property
    def num_states(self) -> int:
        return self.logits.shape[0]

    @property
    def num_actions(self) -> int:
        return self.logits.shape[1]

    def _check_state(self, state: int) -> int:
        state = int(state)
        if not 0 <= state < self.num_states:
            raise ValueError(f"state {state} out of range [0, {self.num_states})")
        return state

    def _check_states(self, states: np.ndarray) -> np.ndarray:
        if states.size and (states.min() < 0 or states.max() >= self.num_states):
            raise ValueError(f"states outside [0, {self.num_states})")
        return states

    def action_probabilities(self, state: int) -> np.ndarray:
        """Softmax over the state's logit row; sums to 1 within 1e-12.

        A read-only row of probability_matrix().
        """
        return self.probability_matrix()[self._check_state(state)]

    def log_probabilities(self, state: int) -> np.ndarray:
        """Elementwise log of action_probabilities (so the two agree exactly).

        Probabilities that underflow to 0 map to -inf.
        """
        probs = self.action_probabilities(state)
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def _per_version(self, key: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """compute() made read-only and cached for the current logits array.

        Logits are read-only and a policy changes only by rebinding them,
        so a value cached against the logits object cannot go stale.
        """
        cached = self.__dict__.get(key)
        if cached is not None and cached[0] is self.logits:
            return cached[1]
        value = compute()
        value.setflags(write=False)
        self.__dict__[key] = (self.logits, value)  # also on frozen snapshots
        return value

    def probability_matrix(self) -> np.ndarray:
        """All rows' probabilities as a read-only (num_states, num_actions) matrix.

        Computed once per logits array.
        """
        return self._per_version("_probs", lambda: softmax_rows(self.logits))

    def sampling_cdf(self) -> np.ndarray:
        """Row cumulative sums of probability_matrix() without the last column.

        Read-only, C-contiguous and computed once per logits array. The
        cumsum is non-decreasing, so the number of its first V-1 entries
        <= u is the inverse-CDF pick for a uniform draw u, already clamped
        to the last action.
        """
        return self._per_version("_cdf", lambda: np.ascontiguousarray(
            np.cumsum(self.probability_matrix(), axis=1)[:, :-1]))

    def exact_entropy(self, state: int) -> float:
        """Shannon entropy -sum pi log pi in nats, with 0*log(0) = 0."""
        return float(entropy_rows(self.action_probabilities(state)[None])[0])

    def sample_action(self, state: int, rng: np.random.Generator) -> tuple[int, float]:
        """Draw an action from the state's softmax row.

        Returns (action, log_probability) where the log-probability equals
        log(action_probabilities(state)[action]) exactly as computed.
        Sampling uses inverse-CDF on a single uniform draw, so a stream
        advances by exactly one draw per call.
        """
        probs = self.action_probabilities(state)
        cdf = np.cumsum(probs)
        action = int(np.searchsorted(cdf, rng.random(), side="right"))
        action = min(action, self.num_actions - 1)
        return action, float(np.log(probs[action]))


@dataclass(frozen=True, eq=False)
class PolicySnapshot(_SoftmaxTable):
    """Immutable copy of a policy's logits, captured at rollout time.

    Serves as the reference ("old") policy for every importance ratio in
    the batches it produced; later updates to the live policy cannot
    affect it.
    """

    logits: np.ndarray

    def __post_init__(self):
        logits = _validate_logits(self.logits).copy()
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)

    def snapshot(self) -> "PolicySnapshot":
        """An immutable table is its own snapshot."""
        return self


@dataclass(eq=False)
class TabularPolicy(_SoftmaxTable):
    """Mutable tabular softmax policy over (state, action) logits.

    The logits array is read-only: apply_gradient rebinds ``logits`` to a
    new array rather than writing in place, which is what keeps the cached
    probability matrix tied to one policy version.
    """

    logits: np.ndarray = field()

    def __post_init__(self):
        self.logits = _validate_logits(self.logits).copy()
        self.logits.setflags(write=False)

    @classmethod
    def uniform(cls, num_states: int, num_actions: int) -> "TabularPolicy":
        return cls(np.zeros((num_states, num_actions)))

    @classmethod
    def random(cls, num_states: int, num_actions: int, scale: float,
               rng: np.random.Generator) -> "TabularPolicy":
        return cls(rng.normal(0.0, scale, size=(num_states, num_actions)))

    def copy(self) -> "TabularPolicy":
        return TabularPolicy(self.logits)

    def snapshot(self) -> PolicySnapshot:
        return PolicySnapshot(self.logits)

    def apply_gradient(self, gradient: np.ndarray, learning_rate: float) -> "TabularPolicy":
        """Ascent step: logits <- logits + learning_rate * gradient.

        Rejects non-finite gradients (and rejects updates that would push
        any logit out of the finite range) leaving the logits untouched.
        """
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self.logits.shape:
            raise ValueError(
                f"gradient shape {gradient.shape} does not match logits shape {self.logits.shape}")
        if not learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if not np.all(np.isfinite(gradient)):
            bad = np.argwhere(~np.isfinite(gradient))[0]
            raise ValueError(
                f"update rejected: non-finite gradient entry at (state={bad[0]}, action={bad[1]})")
        updated = self.logits + learning_rate * gradient
        if not np.all(np.isfinite(updated)):
            bad = np.argwhere(~np.isfinite(updated))[0]
            raise ValueError(
                f"update rejected: logit overflow at (state={bad[0]}, action={bad[1]})")
        updated.setflags(write=False)
        self.logits = updated
        return self

    def save(self, path: str | Path, rng_lineage: dict | None = None) -> None:
        """Write a self-describing JSON checkpoint.

        Logits are stored row-major as 17-significant-digit decimal
        strings, which round-trip 64-bit floats exactly.
        """
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "logits": [format(x, ".17g") for x in self.logits.ravel(order="C")],
            "rng_lineage": rng_lineage or {},
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path: str | Path) -> tuple["TabularPolicy", dict]:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(f"not a policy checkpoint: schema={doc.get('schema')!r}")
        shape = (doc["num_states"], doc["num_actions"])
        flat = np.array([float(x) for x in doc["logits"]], dtype=np.float64)
        if flat.size != shape[0] * shape[1]:
            raise ValueError("checkpoint logit count does not match dimensions")
        return cls(flat.reshape(shape)), doc.get("rng_lineage", {})


def _log_or_zero(probs: np.ndarray) -> np.ndarray:
    """Elementwise log, with 0 where a probability underflowed to 0."""
    with np.errstate(divide="ignore"):
        return np.where(probs > 0.0, np.log(probs), 0.0)


# The row functions below take (n, num_actions) probability rows, e.g.
# probability_matrix()[states]; the per-state functions are their 1-row cases.


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats, with 0*log(0) = 0."""
    return -(probs * _log_or_zero(probs)).sum(axis=1)


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) of each row pair in nats; +inf where q misses p's support."""
    support = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a supported action with q = 0 gives an +inf term, which the row
        # sum keeps; unsupported actions are masked before they can give NaN
        terms = np.where(support, p * (_log_or_zero(p) - np.log(q)), 0.0)
    return terms.sum(axis=1)


def entropy_gradient_rows(probs: np.ndarray) -> np.ndarray:
    """Exact dH/dz of each row: -pi_a * (log pi_a - E_pi[log pi]).

    Zero-probability actions contribute zero.
    """
    logp = _log_or_zero(probs)
    mean_logp = (probs * logp).sum(axis=1, keepdims=True)
    return -probs * (logp - mean_logp)


def exact_kl(p: _SoftmaxTable, q: _SoftmaxTable, state: int) -> float:
    """KL(p || q) at a state, in nats.

    Returns +inf (a loggable sentinel, not an exception) when q assigns
    zero probability to an action p supports: monitors must be able to
    record a transient divergence without aborting.
    """
    if (p.num_states, p.num_actions) != (q.num_states, q.num_actions):
        raise ValueError(
            f"policy shapes differ: {(p.num_states, p.num_actions)} vs {(q.num_states, q.num_actions)}")
    return float(kl_rows(p.action_probabilities(state)[None],
                         q.action_probabilities(state)[None])[0])


def entropy_logit_gradient(policy: _SoftmaxTable, state: int) -> np.ndarray:
    """Exact dH/dz for one state's logit row (see entropy_gradient_rows)."""
    return entropy_gradient_rows(policy.action_probabilities(state)[None])[0]
