"""Entropy-change prediction and the four-quadrant token taxonomy.

The predictor makes the first-order analysis of entropy evolution
executable: for a tabular softmax row updated by the idealized policy
gradient step z <- z + eta * pi * A (advantages centered so
E_{a~pi}[A] = 0), the entropy change is

    dH ~= -eta * Cov_{a~pi}( log pi(a), pi(a) * A(a) )

with error second order in eta. Both sides are computed exactly here: the
covariance from the distribution, the actual dH by applying the update to
a scratch copy, so the approximation quality itself is measurable.

Tokens are classified by advantage sign x probability level into
PA&HP / NA&LP / PA&LP / NA&HP. The high/low probability split has no
canonical threshold; callers typically pass the uniform probability 1/V.
Which tokens were clipped is the objective's own verdict: the branch
codes of objectives.clip_terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import CODE_LEFT, CODE_RIGHT
from .policy import _SoftmaxTable, entropy_rows, softmax_rows

CENTERING_TOLERANCE = 1e-9
DEGENERATE_ENTROPY = 1e-6
ERROR_FLOOR = 1e-13
RATIO_BAND = (3.0, 5.0)

# 40 log-spaced ratio bins over [e^-3, e^3] plus an overflow bin at each end
HISTOGRAM_EDGES = np.exp(np.linspace(-3.0, 3.0, 41))


class Quadrant(str, enum.Enum):
    PA_HP = "pa_hp"
    NA_LP = "na_lp"
    PA_LP = "pa_lp"
    NA_HP = "na_hp"


def center_advantages(policy: _SoftmaxTable, state: int,
                      advantages: Sequence[float] | np.ndarray) -> np.ndarray:
    """Subtract the on-policy mean so E_{a~pi}[A] = 0."""
    adv = np.asarray(advantages, dtype=np.float64)
    probs = policy.action_probabilities(state)
    if adv.shape != probs.shape:
        raise ValueError(f"need one advantage per action ({probs.size}), got shape {adv.shape}")
    return adv - float(probs @ adv)


def entropy_covariance(policy: _SoftmaxTable, state: int,
                       advantages: Sequence[float] | np.ndarray) -> float:
    """Cov_{a~pi}(log pi(a), pi(a) * A(a)), as E[XY] - E[X]E[Y].

    Zero-probability actions carry zero weight and are excluded.
    """
    probs = policy.action_probabilities(state)
    adv = np.asarray(advantages, dtype=np.float64)
    support = probs > 0.0
    p = probs[support]
    x = np.log(p)
    y = p * adv[support]
    return float((p * x * y).sum() - (p * x).sum() * (p * y).sum())


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
        return {"state": self.state, "eta": self.eta, "covariance": self.covariance,
                "predicted_delta_h": self.predicted_delta_h,
                "actual_delta_h": self.actual_delta_h, "abs_error": self.abs_error,
                "mode": self.mode}


def predict_entropy_change(policy: _SoftmaxTable, state: int,
                           advantages: Sequence[float] | np.ndarray,
                           eta: float) -> EntropyPrediction:
    """Covariance prediction vs the exact post-update entropy.

    Applies z <- z + eta * pi * A to a scratch copy of the state's row and
    recomputes the entropy exactly. Advantages must arrive centered
    (|E_{a~pi}[A]| < 1e-9); centering is the caller's statement that the
    update really is the policy-gradient step.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    probs = policy.action_probabilities(state)
    adv = np.asarray(advantages, dtype=np.float64)
    if adv.shape != probs.shape:
        raise ValueError(f"need one advantage per action ({probs.size}), got shape {adv.shape}")
    residual = float(probs @ adv)
    if abs(residual) >= CENTERING_TOLERANCE:
        raise ValueError(
            f"advantages are not baseline-centered: E_pi[A] = {residual:.3e} "
            f"(tolerance {CENTERING_TOLERANCE}); center them first")
    cov = entropy_covariance(policy, state, adv)
    predicted = -eta * cov
    row = policy.logits[int(state)]
    h_before, h_after = entropy_rows(softmax_rows(np.stack([row, row + eta * probs * adv])))
    actual = float(h_after - h_before)
    return EntropyPrediction(int(state), float(eta), cov, predicted, actual,
                             abs(actual - predicted), mode="policy_gradient")


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
        return {"state": self.state, "etas": self.etas, "errors": self.errors,
                "ratios": self.ratios, "passed": self.passed,
                "degenerate": self.degenerate, "reason": self.reason}


def verify_predictor_convergence(policy: _SoftmaxTable, state: int,
                                 advantages: Sequence[float] | np.ndarray,
                                 eta_sequence: Sequence[float],
                                 ratio_band: tuple[float, float] = RATIO_BAND,
                                 ) -> ConvergenceReport:
    """Check second-order error shrinkage over a halving eta sequence.

    The sequence must be geometric with ratio 1/2 and have >= 4 points.
    Passing requires the final two consecutive error ratios to land in
    ratio_band (default [3, 5], around the ideal 4). Instances whose
    errors sit at the floating-point floor, or whose row entropy is below
    the smooth regime, are tagged degenerate and excluded rather than
    failed: there is nothing to measure there.
    """
    etas = [float(e) for e in eta_sequence]
    if len(etas) < 4:
        raise ValueError(f"need at least 4 eta values, got {len(etas)}")
    for a, b in zip(etas, etas[1:]):
        if not (a > b > 0.0) or abs(a / b - 2.0) > 1e-6:
            raise ValueError(f"eta sequence must halve at each step, got {etas}")

    def degenerate(reason: str) -> ConvergenceReport:
        return ConvergenceReport(int(state), etas, errors, ratios, passed=True,
                                 degenerate=True, reason=reason)

    errors: list[float] = []
    ratios: list[float] = []
    if policy.exact_entropy(state) < DEGENERATE_ENTROPY:
        return degenerate("row entropy below smooth regime")
    errors = [predict_entropy_change(policy, state, advantages, eta).abs_error
              for eta in etas]
    if all(e < ERROR_FLOOR for e in errors):
        return degenerate("errors at floating-point floor")
    relevant = errors[-3:]
    if any(e < ERROR_FLOOR for e in relevant):
        return degenerate("final-pair errors at floating-point floor")
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    final_two = ratios[-2:]
    lo, hi = ratio_band
    passed = all(lo <= r <= hi for r in final_two)
    reason = "" if passed else (
        f"final error ratios {final_two} outside [{lo}, {hi}]; "
        f"measured sequence errors={errors} ratios={ratios}")
    return ConvergenceReport(int(state), etas, errors, ratios, passed,
                             degenerate=False, reason=reason)


@dataclass
class QuadrantStats:
    """Batch-level token taxonomy and ratio histogram."""

    counts: dict[str, int]
    fractions: dict[str, float]
    left_clip_fraction: float
    right_clip_fraction: float
    n_tokens: int
    n_neutral: int
    histogram_counts: list[int]       # [underflow, 40 bins, overflow]
    histogram_edges: list[float]

    def to_dict(self) -> dict:
        return {"counts": self.counts, "fractions": self.fractions,
                "left_clip_fraction": self.left_clip_fraction,
                "right_clip_fraction": self.right_clip_fraction,
                "n_tokens": self.n_tokens, "n_neutral": self.n_neutral,
                "histogram_counts": self.histogram_counts,
                "histogram_edges": self.histogram_edges}


def quadrant_stats_arrays(deltas: np.ndarray, advantages: np.ndarray,
                          probs: np.ndarray, branch_codes: np.ndarray,
                          prob_threshold: float) -> QuadrantStats:
    """Vectorized taxonomy over parallel arrays.

    Quadrant fractions are over tokens with A != 0 (they sum to 1 there);
    clip fractions are the shares of all tokens whose branch code (from
    objectives.clip_terms) is left- or right-clipped. The histogram uses
    the fixed log-spaced edges so runs are comparable.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    n = len(deltas)
    if n == 0:
        raise ValueError("empty token batch")
    if len(branch_codes) != n:
        raise ValueError(f"{len(branch_codes)} branch codes for {n} tokens")
    pos = advantages > 0.0
    neg = advantages < 0.0
    high = probs >= prob_threshold
    counts = {
        Quadrant.PA_HP.value: int((pos & high).sum()),
        Quadrant.PA_LP.value: int((pos & ~high).sum()),
        Quadrant.NA_HP.value: int((neg & high).sum()),
        Quadrant.NA_LP.value: int((neg & ~high).sum()),
    }
    n_signed = int(pos.sum() + neg.sum())
    fractions = {k: (c / n_signed if n_signed else 0.0) for k, c in counts.items()}
    code_counts = np.bincount(branch_codes, minlength=3)
    inner = np.histogram(deltas, bins=HISTOGRAM_EDGES)[0]
    hist = [int((deltas < HISTOGRAM_EDGES[0]).sum()), *inner.tolist(),
            int((deltas >= HISTOGRAM_EDGES[-1]).sum())]
    return QuadrantStats(
        counts=counts, fractions=fractions,
        left_clip_fraction=float(code_counts[CODE_LEFT] / n),
        right_clip_fraction=float(code_counts[CODE_RIGHT] / n),
        n_tokens=n, n_neutral=int(n - n_signed),
        histogram_counts=hist, histogram_edges=HISTOGRAM_EDGES.tolist())

