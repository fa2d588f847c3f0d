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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import ObservationalDataset, _check_assignments, _check_propensities, _freeze
from .matching import ImputedPotentialOutcomes, MatchResult, _check_fresh, k_pi_counts
from .outcome_models import OutcomeModel, predict_matrix

__all__ = [
    "AdvantageDecomposition",
    "AipwScores",
    "advantage_estimate",
    "advantage_linear_form",
    "decompose_advantage",
    "estimate_conditional_bias",
    "aipw_scores",
]

PROPENSITY_CLIP = 0.01


@dataclass(frozen=True)
class AdvantageDecomposition:
    """Exact split of the raw matching advantage estimate.

    a_bar: average signed true treatment effect (the estimand's plug-in).
    e_m: weighted average of outcome noise around the true mean function.
    b_m: conditional bias from covariate discrepancy within matched sets.
    total: a_bar + e_m + b_m, equal to the raw estimate.
    """

    a_bar: float
    e_m: float
    b_m: float
    total: float

    def __post_init__(self) -> None:
        if abs(self.total - (self.a_bar + self.e_m + self.b_m)) > 1e-10:
            raise ValueError("decomposition terms do not sum to total")


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

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def _signed(assignments: np.ndarray, n: int) -> np.ndarray:
    """Validate a 0/1 assignment vector and return 2*pi - 1 as floats."""
    return 2.0 * _check_assignments(assignments, n).astype(float) - 1.0


def _mu_matrix(
    mu: Callable[[np.ndarray, int], np.ndarray], x: np.ndarray, w: int
) -> np.ndarray:
    """Evaluate a vectorized mean function on every row of x for a fixed arm.

    mu(x, w) takes the (n, p) matrix and must return one value per row.
    """
    result = np.asarray(mu(x, w), dtype=float)
    if result.shape != (x.shape[0],):
        raise ValueError(
            f"mean function must return {x.shape[0]} values for arm {w}, "
            f"got shape {result.shape}"
        )
    return result


def _discrepancy(
    data: ObservationalDataset,
    matches: MatchResult,
    signs: np.ndarray,
    mu0: np.ndarray,
    mu1: np.ndarray,
) -> float:
    """b_m = (1/n) sum (2W_i-1)(2 pi_i - 1)(1/M) sum_j (mu(X_i,1-W_i) - mu(X_j,1-W_i)).

    mu0 and mu1 are the mean function at every row for arm 0 and arm 1. A
    matched unit sits in the opposite arm, so mu(X_j, 1-W_i) is its own-arm mean.
    """
    w = data.w
    w_signs = 2.0 * w.astype(float) - 1.0
    mu_other = np.where(w == 1, mu0, mu1)
    mu_match = np.where(w == 1, mu1, mu0)[matches.matched_sets].mean(axis=1)
    return float(np.mean(w_signs * signs * (mu_other - mu_match)))


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
    signs = _signed(assignments, data.n)
    _check_fresh(data, matches)
    k_pi = k_pi_counts(matches, assignments)
    w_signs = 2.0 * data.w.astype(float) - 1.0
    weights = signs + k_pi.astype(float) / matches.m
    return float(np.mean(w_signs * weights * data.y))


def decompose_advantage(
    data: ObservationalDataset,
    matches: MatchResult,
    assignments: np.ndarray,
    true_mu: Callable[[np.ndarray, int], np.ndarray],
) -> AdvantageDecomposition:
    """Split the raw matching estimate into signal, noise, and discrepancy terms.

    Requires the true mean function, so this is a simulation-only oracle:
      a_bar = (1/n) sum (2 pi_i - 1)(mu(X_i,1) - mu(X_i,0))
      e_m   = (1/n) sum (2W_i-1)[(2 pi_i - 1) + K(pi,i)/M] eps_i
      b_m   = (1/n) sum (2W_i-1)(2 pi_i - 1)(1/M) sum_j (mu(X_i,1-W_i) - mu(X_j,1-W_i))
    with eps_i = Y_i - mu(X_i, W_i); total = a_bar + e_m + b_m.
    """
    signs = _signed(assignments, data.n)
    _check_fresh(data, matches)
    mu0 = _mu_matrix(true_mu, data.x, 0)
    mu1 = _mu_matrix(true_mu, data.x, 1)
    w = data.w
    w_signs = 2.0 * w.astype(float) - 1.0

    a_bar = float(np.mean(signs * (mu1 - mu0)))

    mu_own = np.where(w == 1, mu1, mu0)
    eps = data.y - mu_own
    k_pi = k_pi_counts(matches, assignments).astype(float)
    e_m = float(np.mean(w_signs * (signs + k_pi / matches.m) * eps))
    b_m = _discrepancy(data, matches, signs, mu0, mu1)

    return AdvantageDecomposition(
        a_bar=a_bar, e_m=e_m, b_m=b_m, total=a_bar + e_m + b_m
    )


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
    signs = _signed(assignments, data.n)
    _check_fresh(data, matches)
    mu0 = predict_matrix(model, data.x, 0)
    mu1 = predict_matrix(model, data.x, 1)
    return _discrepancy(data, matches, signs, mu0, mu1)


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
    clipped = np.clip(e_hat, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
    n_clipped = int(np.sum(clipped != e_hat))

    mu0 = _mu_matrix(mu_hat, data.x, 0)
    mu1 = _mu_matrix(mu_hat, data.x, 1)
    mu_own = np.where(data.w == 1, mu1, mu0)
    residual = data.y - mu_own
    gamma = mu1 - mu0 + (data.w - clipped) / (clipped * (1.0 - clipped)) * residual
    return AipwScores(gamma=gamma, e_hat=clipped, n_clipped=n_clipped)
