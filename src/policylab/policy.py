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
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINT_SCHEMA = "tabular-policy/v1"
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes, read once


def check_table_size(rows: int, columns: int, names: str, table: str = "table",
                     entries: str = "logits") -> None:
    """The one array-size rule: every flat cell index of a rows x columns array fits
    int64, and its float64 entries fit the machine's physical memory. The array is a
    policy table and its entries logits unless the caller names others."""
    if rows * columns >= 2 ** 63:
        raise ValueError(f"{names} make a {rows} x {columns} {table} whose flat cell "
                         f"index does not fit int64")
    if 8 * rows * columns > PHYSICAL_MEMORY:
        raise ValueError(f"{names} make a {rows} x {columns} {table} whose float64 "
                         f"{entries} exceed the {PHYSICAL_MEMORY} bytes of physical memory")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of an (n, num_actions) logit matrix, max-shifted.

    The one softmax rule of the package: a row's probabilities depend on
    that row alone and come out bit for bit the same in any batch of rows.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _SoftmaxTable:
    """Read-side operations of a (states, actions) logit table."""

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
        self.__dict__[key] = (self.logits, value)
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

    def log_probs(self, cells: np.ndarray) -> np.ndarray:
        """log pi at flat cells of probability_matrix().ravel(), -inf where it underflowed
        to 0: the one token log-prob rule, read by the sampler and the ratio lookups."""
        with np.errstate(divide="ignore"):
            return np.log(self.probability_matrix().ravel()[cells])

    def exact_entropy(self, state: int) -> float:
        """Shannon entropy -sum pi log pi in nats, with 0*log(0) = 0."""
        return float(entropy_rows(self.action_probabilities(state)[None])[0])


@dataclass(eq=False)
class TabularPolicy(_SoftmaxTable):
    """Mutable tabular softmax policy over (state, action) logits.

    The logits array is read-only: apply_gradient rebinds ``logits`` to a
    new array rather than writing in place, which is what keeps the cached
    probability matrix tied to one policy version. So an array, matrix or
    rollout taken from the policy before an update is its snapshot: the
    update cannot reach it.
    """

    logits: np.ndarray = field()

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64)  # a copy
        if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 1:
            raise ValueError(
                f"logits must be a 2-D (states, actions) matrix, got shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite (no NaN/Inf)")
        logits.setflags(write=False)
        self.logits = logits

    @classmethod
    def uniform(cls, num_states: int, num_actions: int) -> "TabularPolicy":
        return cls(np.zeros((num_states, num_actions)))

    @classmethod
    def random(cls, num_states: int, num_actions: int, scale: float,
               rng: np.random.Generator) -> "TabularPolicy":
        return cls(rng.normal(0.0, scale, size=(num_states, num_actions)))

    def apply_gradient(self, gradient: np.ndarray, learning_rate: float) -> "TabularPolicy":
        """Ascent step: logits <- logits + learning_rate * gradient.

        Rejects non-finite gradients (and rejects updates that would push
        any logit out of the finite range) leaving the logits untouched.
        The logits are finite, so a finite update implies a finite
        gradient: only a rejected update looks at the gradient, to say why.
        """
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self.logits.shape:
            raise ValueError(
                f"gradient shape {gradient.shape} does not match logits shape {self.logits.shape}")
        if not learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        updated = self.logits + learning_rate * gradient
        if not np.isfinite(updated).all():
            if not np.isfinite(gradient).all():
                bad = np.argwhere(~np.isfinite(gradient))[0]
                raise ValueError(f"update rejected: non-finite gradient entry at "
                                 f"(state={bad[0]}, action={bad[1]})")
            bad = np.argwhere(~np.isfinite(updated))[0]
            raise ValueError(
                f"update rejected: logit overflow at (state={bad[0]}, action={bad[1]})")
        updated.setflags(write=False)
        self.logits = updated
        return self

    def save(self, path: str | Path, rng_lineage: dict | None = None) -> None:
        """Write a self-describing JSON checkpoint.

        Logits are stored row-major as 17-significant-digit decimal
        strings, which round-trip 64-bit floats exactly. The bytes are
        json.dumps of {schema, num_states, num_actions, logits, rng_lineage},
        written a row at a time ("%.17g" is format(x, ".17g")), so no
        string per logit is held.
        """
        head = json.dumps({"schema": CHECKPOINT_SCHEMA, "num_states": self.num_states,
                           "num_actions": self.num_actions})[:-1]
        tail = json.dumps(rng_lineage or {})
        row = ", ".join(['"%.17g"'] * self.num_actions)
        with open(path, "w") as fh:
            fh.write(head + ', "logits": [')
            for i, values in enumerate(self.logits):
                fh.write((", " if i else "") + row % tuple(values.tolist()))
            fh.write(f'], "rng_lineage": {tail}}}')

    @classmethod
    def load(cls, path: str | Path) -> tuple["TabularPolicy", dict]:
        doc = json.loads(Path(path).read_text())
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(f"not a policy checkpoint: schema={schema!r}")
        missing = [key for key in ("num_states", "num_actions", "logits") if key not in doc]
        if missing:
            raise ValueError(f"policy checkpoint lacks {missing}")
        shape = (doc["num_states"], doc["num_actions"])
        for key, size in zip(("num_states", "num_actions"), shape):
            if type(size) is not int or size < 1:  # JSON true is an int subclass
                raise ValueError(f"{key} must be an integer >= 1, got {size!r}")
        logits = doc["logits"]
        try:  # save writes strings; a hand-written checkpoint may hold numbers
            if not (isinstance(logits, list)
                    and set(map(type, logits)) <= {int, float, str}):
                raise ValueError
            flat = np.fromiter(map(float, logits), np.float64, count=len(logits))
        except (ValueError, OverflowError):
            raise ValueError("logits must be a list of numbers or numeric strings") from None
        if flat.size != shape[0] * shape[1]:
            raise ValueError("checkpoint logit count does not match dimensions")
        return cls(flat.reshape(shape)), doc.get("rng_lineage", {})


def _log_or_zero(probs: np.ndarray) -> np.ndarray:
    """Elementwise log, with 0 where a probability underflowed to 0."""
    with np.errstate(divide="ignore"):
        return np.where(probs > 0.0, np.log(probs), 0.0)


# The row functions below take (n, num_actions) probability rows, e.g.
# probability_matrix()[states]; the per-state functions are their 1-row cases.


def _expected_log_rows(probs: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """E_pi[log pi] = sum_a pi_a log pi_a of each row, as an (n, 1) column.

    logp is _log_or_zero(probs). The one statement of the row sum that the
    entropy (its negation), the entropy gradient and the entropy covariance's
    E[X] all take.
    """
    return (probs * logp).sum(axis=1, keepdims=True)


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats, with 0*log(0) = 0."""
    return -_expected_log_rows(probs, _log_or_zero(probs))[:, 0]


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) of each row pair in nats; +inf where q misses p's support."""
    support = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a supported action with q = 0 gives an +inf term, which the row
        # sum keeps; unsupported actions are masked before they can give NaN
        terms = np.where(support, p * (_log_or_zero(p) - np.log(q)), 0.0)
    return terms.sum(axis=1)


def visit_weighted_mean(values: np.ndarray | list[float], counts: np.ndarray) -> float:
    """Visit-count weighted mean of per-state values.

    The sum runs sequentially in state order (np.add.accumulate), the order
    a scalar loop over the states adds in.
    """
    return float(np.add.accumulate(np.multiply(values, counts))[-1] / counts.sum())


def state_visits(table: _SoftmaxTable, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct states of an int array, sorted, and how often each occurs.

    The one visited-state rule: numpy's unique with return_counts=True,
    bit for bit (both int64), taken from one bincount over the table's
    states rather than a sort or a hash table. A state outside the table
    raises ValueError, where bincount would grow the table to fit it.
    """
    counts = np.bincount(table._check_states(states).ravel(), minlength=table.num_states)
    visited = np.flatnonzero(counts)
    return visited, counts[visited]


def entropy_and_gradient_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """entropy_rows(probs) and each row's exact dH/dz, -pi_a * (log pi_a - E_pi[log pi]),
    from one log and one row sum. Zero-probability actions contribute zero.
    """
    logp = _log_or_zero(probs)
    mean_logp = _expected_log_rows(probs, logp)
    return -mean_logp[:, 0], -probs * (logp - mean_logp)


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

