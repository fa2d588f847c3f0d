"""Policy evaluation on real data: AIPW value estimation and repeated k-fold CV.

The value of an assignment rule is estimated by the doubly robust display

    mean_i [ Y_i I{W_i = pi_i} / e_i - (I{W_i = pi_i} - e_i) / e_i * mu_i ]

where e_i is the estimated probability of receiving the assigned arm at X_i
and mu_i the outcome regression at (X_i, pi_i). Nuisance plug-ins provided
here: empirical arm proportions (randomized designs) and a ridge-regularized
linear-probability fit (observational data); the outcome regression default
is the per-arm quadratic OLS. Nuisances are estimated once on the full
dataset, matching the protocol of evaluating with design-level propensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .advantage import _mu_matrix
from .dataset import (
    ObservationalDataset,
    _check_assignments,
    _check_int,
    _check_propensities,
    _freeze,
    write_csv,
)
from .outcome_models import _standardize, fit_ols_per_arm, predict_matrix
from .policytree import TreePolicy, evaluate_policy
from .seeding import derive_seed, philox_rng

__all__ = [
    "CrossValReport",
    "aipw_value_estimate",
    "arm_proportion_propensity",
    "fit_linear_probability",
    "cross_validate",
]

VALUE_CLIP = 0.01           # assigned-arm probability floor in the value display
LINPROB_CLIP = (0.01, 0.99)  # fitted propensity range for the linear-probability plug-in
LINPROB_RIDGE = 1e-6


def arm_proportion_propensity(data: ObservationalDataset) -> np.ndarray:
    """Constant treated share, the design propensity of a simple randomized study."""
    return np.full(data.n, data.n_treated / data.n)


def fit_linear_probability(data: ObservationalDataset) -> np.ndarray:
    """Fitted P(W=1 | X) from a ridge-regularized linear-probability regression.

    Slopes are penalized by LINPROB_RIDGE on standardized covariates
    (intercept free); fitted values are clipped to LINPROB_CLIP. A
    deliberately simple observational plug-in for evaluation baselines.
    """
    design = np.hstack([np.ones((data.n, 1)), _standardize(data.x)[0]])
    penalty = LINPROB_RIDGE * np.eye(design.shape[1])
    penalty[0, 0] = 0.0
    coef = np.linalg.solve(design.T @ design + data.n * penalty, design.T @ data.w)
    return np.clip(design @ coef, *LINPROB_CLIP)


def aipw_value_estimate(
    data: ObservationalDataset,
    assignments: np.ndarray,
    e_hat: np.ndarray,
    mu_hat: Callable[[np.ndarray, int], np.ndarray],
) -> float:
    """Doubly robust estimate of the mean outcome under the given assignments.

    e_hat is the per-unit treatment probability P(W=1 | X); the assigned-arm
    probability is derived from it and clipped at VALUE_CLIP.
    """
    pi = _check_assignments(assignments, data.n).astype(np.int64)
    e_treat = np.clip(_check_propensities(e_hat, data.n), VALUE_CLIP, 1.0 - VALUE_CLIP)
    e_assigned = np.where(pi == 1, e_treat, 1.0 - e_treat)
    mu0 = _mu_matrix(mu_hat, data.x, 0)
    mu1 = _mu_matrix(mu_hat, data.x, 1)
    mu_assigned = np.where(pi == 1, mu1, mu0)
    followed = (data.w == pi).astype(float)
    return float(
        np.mean(
            data.y * followed / e_assigned
            - (followed - e_assigned) / e_assigned * mu_assigned
        )
    )


@dataclass(frozen=True)
class CrossValReport:
    """Aggregated repeated cross-validation values for one learner.

    values holds one fold-averaged value per repeat (NaN when any fold of
    that repeat failed); failures lists one message per failed (repeat,
    fold). Derived, not passed: repeats (the number of values) and mean/std,
    which aggregate the non-failed repeats with the (count - 1)
    standard-deviation denominator.
    """

    values: np.ndarray
    folds: int
    failures: tuple[str, ...] = ()
    mean: float = field(init=False)
    std: float = field(init=False)
    repeats: int = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must be one per repeat, got shape {values.shape}")
        valid = values[~np.isnan(values)]
        mean = float(valid.mean()) if valid.size else float("nan")
        std = float(valid.std(ddof=1)) if valid.size > 1 else float("nan")
        _freeze(self, values=values, mean=mean, std=std, repeats=len(values))

    @property
    def n_failed_repeats(self) -> int:
        return int(np.sum(np.isnan(self.values)))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ("repeat", "value"), enumerate(self.values.tolist()))


def cross_validate(
    data: ObservationalDataset,
    learner: Callable[[ObservationalDataset], TreePolicy],
    folds: int = 5,
    repeats: int = 100,
    seed: int = 0,
    e_hat: np.ndarray | None = None,
    mu_hat: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> CrossValReport:
    """Repeatedly split, learn on the training folds, value the held-out fold.

    Per repeat: a seeded shuffle partitions units into near-equal folds (the
    remainder goes to the leading folds); each fold serves as the test set
    once; the learner fits on the remaining folds; the doubly robust value is
    computed on the test fold; the fold values are averaged. Nuisances default
    to arm-proportion propensities and the full-data quadratic OLS outcome
    model. A learner failure flags the repeat (value NaN) and is recorded.
    """
    folds = _check_int("folds", folds, 2)
    repeats = _check_int("repeats", repeats, 1)
    seed = _check_int("seed", seed, None)
    if data.n < folds:
        raise ValueError(f"n={data.n} is smaller than folds={folds}")
    e_full = _check_propensities(
        arm_proportion_propensity(data) if e_hat is None else e_hat, data.n
    )
    if mu_hat is None:
        mu_hat = partial(predict_matrix, fit_ols_per_arm(data, "quadratic"))
    values = np.empty(repeats)
    failures: list[str] = []
    for rep in range(repeats):
        rng = philox_rng(derive_seed("cv", seed, rep))
        perm = rng.permutation(data.n)
        fold_sets = [np.sort(part) for part in np.array_split(perm, folds)]
        fold_values = np.empty(folds)
        failed = False
        for k, test_idx in enumerate(fold_sets):
            train_idx = np.sort(np.concatenate(fold_sets[:k] + fold_sets[k + 1:]))
            try:
                tree = learner(data.subset(train_idx))
                test_data = data.subset(test_idx)
                assignments = evaluate_policy(tree, test_data.x)
                fold_values[k] = aipw_value_estimate(
                    test_data, assignments, e_full[test_idx], mu_hat
                )
            except Exception as exc:
                failures.append(f"repeat {rep} fold {k}: {type(exc).__name__}: {exc}")
                failed = True
        values[rep] = float("nan") if failed else float(fold_values.mean())
    return CrossValReport(values=values, folds=folds, failures=tuple(failures))
