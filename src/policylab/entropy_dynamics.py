"""Entropy-change prediction and the four-quadrant token taxonomy.

The predictor makes the first-order analysis of entropy evolution
executable: for a tabular softmax row updated by the idealized policy
gradient step z <- z + eta * pi * A (advantages centered so
E_{a~pi}[A] = 0), the entropy change is

    dH ~= -eta * Cov_{a~pi}( log pi(a), pi(a) * A(a) )

with error second order in eta. Both sides are computed exactly here: the
covariance from the distribution, the actual dH by applying the update to
a scratch copy, so the approximation quality itself is measurable.
Every predictor function takes an array of states and an (n, V) advantage
matrix, one row per state, and handles all rows in one pass.

Tokens are classified by advantage sign x probability level into
PA&HP / NA&LP / PA&LP / NA&HP. The high/low probability split has no
canonical threshold; callers typically pass the uniform probability 1/V.
Which tokens were clipped is the objective's own verdict: the branch
codes of objectives.clip_terms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .objectives import BRANCHES, CODE_LEFT, CODE_RIGHT
from .policy import _expected_log_rows, _log_or_zero, _SoftmaxTable, entropy_rows, softmax_rows

CENTERING_TOLERANCE = 1e-9
DEGENERATE_ENTROPY = 1e-6
ERROR_FLOOR = 1e-13
RATIO_BAND = (3.0, 5.0)

# the 41 edges e_0..e_40 of 40 log-spaced ratio bins over [e^-3, e^3]
HISTOGRAM_EDGES = np.exp(np.linspace(-3.0, 3.0, 41))


def _rows(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray, advantages: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states' probability rows, the (n, V) advantages and each row's E_pi[A].

    The mean is a stacked 1 x V matmul: it rounds as one row's probs @ adv
    does, where (probs * adv).sum(1) does not.
    """
    states = policy._check_states(np.asarray(states, dtype=np.int64))
    probs = policy.probability_matrix()[states]
    adv = np.asarray(advantages, dtype=np.float64)
    if states.ndim != 1 or adv.shape != probs.shape:
        raise ValueError(f"need 1-D states and one advantage row per state, got states "
                         f"{states.shape}, advantages {adv.shape}, {policy.num_actions} actions")
    return probs, adv, np.matmul(probs[:, None, :], adv[:, :, None])[:, 0]


def center_advantages(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray,
                      advantages: np.ndarray) -> np.ndarray:
    """Subtract each row's on-policy mean, so E_{a~pi}[A] = 0 at every state.

    advantages is an (n, num_actions) matrix whose row i belongs to states[i].
    """
    _, adv, means = _rows(policy, states, advantages)
    return adv - means


def entropy_covariance(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray,
                       advantages: np.ndarray) -> np.ndarray:
    """Cov_{a~pi}(log pi(a), pi(a) * A(a)) of each row, as E[XY] - E[X]E[Y].

    Zero-probability actions carry zero weight.
    """
    probs, adv, _ = _rows(policy, states, advantages)
    x = _log_or_zero(probs)
    y = probs * adv
    mean_x = _expected_log_rows(probs, x)[:, 0]
    return (probs * x * y).sum(axis=1) - mean_x * (probs * y).sum(axis=1)


def _entropy_changes(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray,
                     advantages: np.ndarray, etas: Sequence[float]):
    """Covariance (n,), predicted and actual dH (k, n) and entropy before (n,).

    Applies z <- z + eta * pi * A for each of the k etas to scratch copies
    of the states' rows and recomputes every entropy exactly, in one softmax
    over n * (1 + k) stacked rows. Advantages must arrive centered
    (|E_{a~pi}[A]| < 1e-9); centering is the caller's statement that the
    update really is the policy-gradient step.
    """
    if not etas[0] > 0.0:  # the caller's eta; any others halve it
        raise ValueError(f"eta must be > 0, got {etas[0]}")
    states = np.asarray(states, dtype=np.int64)
    probs, adv, means = _rows(policy, states, advantages)
    off = np.flatnonzero(np.abs(means[:, 0]) >= CENTERING_TOLERANCE)
    if off.size:
        raise ValueError(f"advantages at state {states[off[0]]} are not baseline-centered: "
                         f"E_pi[A] = {means[off[0], 0]:.3e} (tolerance {CENTERING_TOLERANCE}); "
                         f"center them first")
    cov = entropy_covariance(policy, states, adv)
    rows = policy.logits[states]
    steps = [rows] + [rows + eta * probs * adv for eta in etas]
    entropies = entropy_rows(softmax_rows(np.concatenate(steps))).reshape(len(steps), -1)
    predicted = -np.asarray(etas, dtype=np.float64)[:, None] * cov
    return cov, predicted, entropies[1:] - entropies[0], entropies[0]


@dataclass
class EntropyPrediction:
    """Predicted vs actual one-step entropy change at one state."""

    state: int
    eta: float
    covariance: float
    predicted_delta_h: float   # always exactly -eta * covariance
    actual_delta_h: float
    abs_error: float
    # always "policy_gradient": the idealized update the derivation covers
    mode: str

    def to_dict(self) -> dict:
        return asdict(self)


def predict_entropy_change(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray,
                           advantages: np.ndarray, eta: float) -> list[EntropyPrediction]:
    """Covariance prediction vs the exact post-update entropy, one per state.

    Row i of the (n, num_actions) advantages belongs to states[i] and must
    be centered, and eta must be > 0; see _entropy_changes.
    """
    cov, predicted, actual, _ = _entropy_changes(policy, states, advantages, [eta])
    return [EntropyPrediction(int(s), float(eta), c, p, a, abs(a - p), mode="policy_gradient")
            for s, c, p, a in zip(states, cov.tolist(), predicted[0].tolist(), actual[0].tolist())]


@dataclass
class ConvergenceReport:
    """Does |actual - predicted| shrink quadratically as eta halves?"""

    state: int
    etas: list[float]
    errors: list[float]
    ratios: list[float]
    passed: bool
    degenerate: bool
    reason: str

    def to_dict(self) -> dict:
        return asdict(self)


def verify_predictor_convergence(policy: _SoftmaxTable, states: Sequence[int] | np.ndarray,
                                 advantages: np.ndarray, eta: float) -> list[ConvergenceReport]:
    """Check second-order error shrinkage over eta, eta/2, eta/4, eta/8, per state.

    eta must be > 0. Passing requires the final two consecutive error
    ratios to land in RATIO_BAND ([3, 5], around the ideal 4). Rows whose
    errors sit at the floating-point floor, or whose entropy is below the
    smooth regime, are tagged degenerate and excluded rather than failed:
    there is nothing to measure there.
    """
    etas = [eta / 2 ** k for k in range(4)]
    _, predicted, actual, entropies = _entropy_changes(policy, states, advantages, etas)
    lo, hi = RATIO_BAND
    reports = []
    for s, entropy, errors in zip(states, entropies.tolist(),
                                  np.abs(actual - predicted).T.tolist()):
        ratios: list[float] = []
        if entropy < DEGENERATE_ENTROPY:
            errors, reason = [], "row entropy below smooth regime"
        elif all(e < ERROR_FLOOR for e in errors):
            reason = "errors at floating-point floor"
        elif any(e < ERROR_FLOOR for e in errors[-3:]):
            reason = "final-pair errors at floating-point floor"
        else:
            ratios = [a / b for a, b in zip(errors, errors[1:])]
            reason = "" if all(lo <= r <= hi for r in ratios[-2:]) else (
                f"final error ratios {ratios[-2:]} outside [{lo}, {hi}]; "
                f"measured sequence errors={errors} ratios={ratios}")
        degenerate = not ratios  # ratios are measured only on non-degenerate rows
        reports.append(ConvergenceReport(int(s), etas, errors, ratios, degenerate or not reason,
                                         degenerate, reason))
    return reports


@dataclass
class QuadrantStats:
    """Batch-level token taxonomy and ratio histogram. Of the 42 histogram_counts
    over histogram_edges e_0..e_40, bucket 0 counts ratios below e_0, bucket k
    those in [e_(k-1), e_k) and bucket 41 those >= e_40: they sum to n_tokens."""

    counts: dict[str, int]
    fractions: dict[str, float]
    left_clip_fraction: float
    right_clip_fraction: float
    n_tokens: int
    n_neutral: int
    histogram_counts: list[int]       # [< e_0, 40 half-open bins, >= e_40]
    histogram_edges: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


def quadrant_taxonomy(advantages: np.ndarray, probs: np.ndarray,
                      prob_threshold: float) -> tuple[dict[str, int], dict[str, float]]:
    """Quadrant counts and fractions: advantage sign x (probability >= prob_threshold).
    Tokens with A == 0 are in no quadrant, and the fractions are over the
    others (they sum to 1 there, and are all 0 when there are none)."""
    pos = advantages > 0.0
    neg = advantages < 0.0
    high = probs >= prob_threshold
    counts = {
        "pa_hp": int((pos & high).sum()),
        "pa_lp": int((pos & ~high).sum()),
        "na_hp": int((neg & high).sum()),
        "na_lp": int((neg & ~high).sum()),
    }
    n_signed = sum(counts.values())
    return counts, {k: (c / n_signed if n_signed else 0.0) for k, c in counts.items()}


def quadrant_stats_arrays(deltas: np.ndarray, advantages: np.ndarray,
                          probs: np.ndarray, branch_codes: np.ndarray,
                          prob_threshold: float) -> QuadrantStats:
    """Vectorized taxonomy over parallel arrays: quadrant_taxonomy's quadrants,
    the shares of all tokens whose branch code (from objectives.clip_terms)
    is left- or right-clipped, and QuadrantStats' 42-bucket ratio histogram
    over the fixed log-spaced edges, so runs are comparable: a ratio's bucket
    is the number of edges <= it (NaN sorts last, into 41), found without a sort."""
    deltas = np.asarray(deltas, dtype=np.float64)
    n = len(deltas)
    if n == 0:
        raise ValueError("empty token batch")
    if len(branch_codes) != n:
        raise ValueError(f"{len(branch_codes)} branch codes for {n} tokens")
    counts, fractions = quadrant_taxonomy(np.asarray(advantages, dtype=np.float64),
                                          np.asarray(probs, dtype=np.float64), prob_threshold)
    code_counts = np.bincount(branch_codes, minlength=len(BRANCHES))
    hist = np.bincount(np.searchsorted(HISTOGRAM_EDGES, deltas, side="right"),
                       minlength=len(HISTOGRAM_EDGES) + 1).tolist()
    return QuadrantStats(
        counts=counts, fractions=fractions,
        left_clip_fraction=float(code_counts[CODE_LEFT] / n),
        right_clip_fraction=float(code_counts[CODE_RIGHT] / n),
        n_tokens=n, n_neutral=n - sum(counts.values()),
        histogram_counts=hist, histogram_edges=HISTOGRAM_EDGES.tolist())

