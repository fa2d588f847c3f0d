"""Advantage-function estimators built on matched imputations.

The advantage of a binary policy is the average gain over the coin-flip
policy. Estimators here: the plug-in average of signed imputed contrasts,
an algebraically identical outcome-weighted linear form, an exact
decomposition into signal + noise + matching-discrepancy terms (needs the
true mean function, so simulation only), the estimated conditional bias
removed by regression-adjusted imputation, and doubly robust AIPW scores
for the comparison baseline.

Policies enter every routine as precomputed 0/1 assignment vectors, keeping
the estimators independent of any particular policy representation. Mean
functions are vectorized: mu(x, w) takes the (n, p) covariate matrix and an
arm and returns one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import ObservationalDataset, _check_assignments, _check_propensities, _freeze
from .matching import (
    ImputedPotentialOutcomes, MatchResult, _check_fresh, _other_arm_means, k_pi_counts,
)
from .outcome_models import OutcomeModel, _arm_means

__all__ = [
    "AdvantageDecomposition",
    "AipwScores",
    "advantage_estimate",
    "advantage_linear_form",
    "decompose_advantage",
    "estimate_conditional_bias",
    "aipw_scores",
]

PROPENSITY_CLIP = 0.01  # every plug-in propensity is clipped into [0.01, 0.99]


@dataclass(frozen=True)
class AdvantageDecomposition:
    """Exact split of the raw matching advantage estimate.

    a_bar: average signed true treatment effect (the estimand's plug-in).
    e_m: weighted average of outcome noise around the true mean function.
    b_m: conditional bias from covariate discrepancy within matched sets.
    total: a_bar + e_m + b_m, equal to the raw estimate (derived, not passed).
    """

    a_bar: float
    e_m: float
    b_m: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        _freeze(self, total=self.a_bar + self.e_m + self.b_m)


@dataclass(frozen=True)
class AipwScores:
    """Doubly robust per-unit effect scores and the propensities used.

    e_hat holds the propensities after clipping to [PROPENSITY_CLIP,
    1 - PROPENSITY_CLIP]; n_clipped counts how many units were clipped.
    """

    gamma: np.ndarray
    e_hat: np.ndarray
    n_clipped: int

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        e_hat = np.asarray(self.e_hat, dtype=float)
        if gamma.shape != e_hat.shape or gamma.ndim != 1:
            raise ValueError("gamma and e_hat must be equal-length vectors")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("AIPW scores must be finite")
        _freeze(self, gamma=gamma, e_hat=e_hat)


def _signed(assignments: np.ndarray, n: int) -> np.ndarray:
    """Validate a 0/1 assignment vector and return 2*pi - 1 as floats."""
    return 2.0 * _check_assignments(assignments, n).astype(float) - 1.0


def _clip_propensities(e_hat: np.ndarray) -> np.ndarray:
    """Propensities clipped into [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]."""
    return np.clip(e_hat, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)


def _outcome_weights(
    data: ObservationalDataset, matches: MatchResult, pi: np.ndarray
) -> np.ndarray:
    """(2W_i-1)[(2 pi_i - 1) + K(pi,i)/M], the weight of unit i's outcome in the raw estimate."""
    k_pi = k_pi_counts(matches, pi).astype(float)
    return _signed(data.w, data.n) * (_signed(pi, data.n) + k_pi / matches.m)


def advantage_estimate(
    imputed: ImputedPotentialOutcomes, assignments: np.ndarray
) -> float:
    """Average signed imputed contrast (1/n) sum_i (2 pi_i - 1) gamma_i."""
    signs = _signed(assignments, imputed.n)
    return float(np.mean(signs * imputed.gamma))


def advantage_linear_form(
    data: ObservationalDataset, matches: MatchResult, assignments: np.ndarray
) -> float:
    """Outcome-weighted form (1/n) sum_i (2W_i-1)[(2 pi_i - 1) + K(pi,i)/M] Y_i.

    Algebraically identical to advantage_estimate on the raw imputation of
    the same matches; exposed separately because the weight on Y_i makes the
    estimator's stability properties visible.
    """
    _check_fresh(data, matches)
    return float(np.mean(_outcome_weights(data, matches, assignments) * data.y))


def decompose_advantage(
    data: ObservationalDataset,
    matches: MatchResult,
    assignments: np.ndarray,
    true_mu: Callable[[np.ndarray, int], np.ndarray],
) -> AdvantageDecomposition:
    """Split the raw matching estimate into signal, noise, and discrepancy terms.

    Exact for the true mean function mu (a simulation oracle); a fitted model may stand in:
      a_bar = (1/n) sum (2 pi_i - 1)(mu(X_i,1) - mu(X_i,0))
      e_m   = (1/n) sum (2W_i-1)[(2 pi_i - 1) + K(pi,i)/M] eps_i
      b_m   = (1/n) sum (2W_i-1)(2 pi_i - 1)(1/M) sum_j (mu(X_i,1-W_i) - mu(X_j,1-W_i))
    with eps_i = Y_i - mu(X_i, W_i); total = a_bar + e_m + b_m.
    """
    signs = _signed(assignments, data.n)
    _check_fresh(data, matches)
    mu0, mu1 = _arm_means(true_mu, data.x)

    a_bar = float(np.mean(signs * (mu1 - mu0)))

    eps = data.y - np.where(data.w == 1, mu1, mu0)
    e_m = float(np.mean(_outcome_weights(data, matches, assignments) * eps))
    mu_other, mu_match = _other_arm_means(data, matches, mu0, mu1)
    b_m = float(np.mean(_signed(data.w, data.n) * signs * (mu_other - mu_match)))

    return AdvantageDecomposition(a_bar=a_bar, e_m=e_m, b_m=b_m)


def estimate_conditional_bias(
    data: ObservationalDataset,
    matches: MatchResult,
    assignments: np.ndarray,
    model: OutcomeModel,
) -> float:
    """Estimated matching-discrepancy bias removed by regression adjustment.

    Same display as the decomposition's b_m with the fitted model in place of
    the true mean function: raw estimate minus this quantity equals the
    bias-corrected estimate.
    """
    return decompose_advantage(data, matches, assignments, model).b_m


def aipw_scores(
    data: ObservationalDataset,
    e_hat: np.ndarray,
    mu_hat: Callable[[np.ndarray, int], np.ndarray],
) -> AipwScores:
    """Doubly robust per-unit scores from plug-in propensities and regressions.

    Gamma_i = mu(X_i,1) - mu(X_i,0) + (W_i - e_i)/(e_i (1 - e_i)) (Y_i - mu(X_i,W_i)).
    Propensities outside [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP] are clipped in
    and counted; values outside [0, 1] are rejected.
    """
    e_hat = _check_propensities(e_hat, data.n)
    clipped = _clip_propensities(e_hat)
    n_clipped = int(np.sum(clipped != e_hat))

    mu0, mu1 = _arm_means(mu_hat, data.x)
    residual = data.y - np.where(data.w == 1, mu1, mu0)
    gamma = mu1 - mu0 + (data.w - clipped) / (clipped * (1.0 - clipped)) * residual
    return AipwScores(gamma=gamma, e_hat=clipped, n_clipped=n_clipped)
