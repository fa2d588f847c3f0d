"""Cross-arm nearest-neighbor matching with replacement and potential-outcome imputation.

Each unit is matched to the M nearest opposite-arm units under a supplied
metric (exact brute-force scan, ties broken by smallest unit index, the
m nearest found by partial selection rather than a sort of every row). The
matched sets drive two imputations of the missing potential outcome: the raw
matched-outcome mean and a regression-adjusted (bias-corrected) one. Both keep
each unit's observed outcome and differ only in the counterfactual they fill in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import ObservationalDataset, _check_assignments, _check_int, _freeze, write_csv
from .metric import MahalanobisMetric
from .outcome_models import OutcomeModel, predict_matrix

__all__ = [
    "MatchResult",
    "ImputedPotentialOutcomes",
    "match_units",
    "impute_raw",
    "impute_bias_corrected",
    "k_pi_counts",
]

_BLOCK_BYTES = 1 << 23  # budget for one block's (rows, candidates, p) differences


@dataclass(frozen=True)
class MatchResult:
    """Matched sets J_M(i) for all units, their distances, and match-usage counts.

    m and k_counts are derived from matched_sets, not passed.
    """

    matched_sets: np.ndarray   # (n, m) original unit indices, nearest first
    distances: np.ndarray      # (n, m) metric distances, parallel to matched_sets
    m: int = field(init=False)                # matches per unit
    k_counts: np.ndarray = field(init=False)  # (n,) number of matched sets each unit is in

    def __post_init__(self) -> None:
        sets = np.asarray(self.matched_sets, dtype=np.int64)
        dists = np.asarray(self.distances, dtype=float)
        if sets.ndim != 2 or sets.shape[1] == 0 or dists.shape != sets.shape:
            raise ValueError("matched_sets and distances must be equal (n, m) arrays, m >= 1")
        n = sets.shape[0]
        if np.any((sets < 0) | (sets >= n)):
            raise ValueError(f"matched_sets must hold unit indices in 0..{n - 1}")
        _freeze(
            self, matched_sets=sets, distances=dists, m=sets.shape[1],
            k_counts=np.bincount(sets.ravel(), minlength=n),
        )

    @property
    def n(self) -> int:
        return self.matched_sets.shape[0]

    def to_csv(self, path: str | Path) -> None:
        """Diagnostic dump: one row per (unit, rank) pair."""
        sets, dists = self.matched_sets.tolist(), self.distances.tolist()
        rows = ((i, r, sets[i][r], dists[i][r]) for i in range(self.n) for r in range(self.m))
        write_csv(path, ("unit", "rank", "matched_index", "distance"), rows)


@dataclass(frozen=True)
class ImputedPotentialOutcomes:
    """Per-unit imputed outcome pair and the derived score gamma_i = y1_i - y0_i.

    The entry for a unit's observed arm is its observed outcome verbatim.
    """

    y0: np.ndarray
    y1: np.ndarray
    gamma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        if y0.shape != y1.shape or y0.ndim != 1:
            raise ValueError("y0 and y1 must be equal-length vectors")
        _freeze(self, y0=y0, y1=y1, gamma=y1 - y0)

    @property
    def n(self) -> int:
        return self.y0.shape[0]


def _nearest(d2: np.ndarray, m: int) -> np.ndarray:
    """Column indices of each row's m smallest entries: np.argsort(d2, kind="stable")[:, :m].

    np.partition finds each row's m-th smallest value v. In a row where
    exactly m entries are <= v, those m are the nearest set: they are taken in
    ascending column order and stably sorted among themselves. A row where v
    is tied by a later entry is stably sorted whole.
    """
    inside = d2 <= np.partition(d2, m - 1, axis=1)[:, m - 1 : m]
    tied = np.count_nonzero(inside, axis=1) > m
    order = np.empty((len(d2), m), dtype=np.intp)
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :m]
        d2, inside = d2[~tied], inside[~tied]
    columns = np.nonzero(inside)[1].reshape(len(d2), m)
    within = np.argsort(np.take_along_axis(d2, columns, axis=1), axis=1, kind="stable")
    order[~tied] = np.take_along_axis(columns, within, axis=1)
    return order


def match_units(
    data: ObservationalDataset, metric: MahalanobisMetric, m: int
) -> MatchResult:
    """Find the m nearest opposite-arm units for every unit (with replacement).

    Exact O(n^2 p) scan; ties broken by smallest unit index, over candidates
    listed in ascending index order (see _nearest). Deterministic.
    """
    m = _check_int("m", m, 1)
    if metric.p != data.p:
        raise ValueError(f"metric is {metric.p}-d but data has p={data.p}")
    n0, n1 = data.n_control, data.n_treated
    if min(n0, n1) < m:
        raise ValueError(
            f"each arm needs >= m={m} units; arms have n0={n0}, n1={n1}"
        )

    # Whitened coordinates: metric distance becomes Euclidean distance.
    z = data.x @ metric.whitener()
    n = data.n
    matched_sets = np.empty((n, m), dtype=np.int64)
    dists = np.empty((n, m), dtype=float)
    for w in (0, 1):
        units = data.arm_indices(w)
        cands = data.arm_indices(1 - w)  # ascending original indices
        z_c = z[cands]
        rows = max(1, _BLOCK_BYTES // z_c.nbytes)
        for start in range(0, len(units), rows):
            block = units[start : start + rows]
            # Explicit differences keep exactly-tied candidates bitwise equal.
            diff = z[block][:, None, :] - z_c[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            order = _nearest(d2, m)
            matched_sets[block] = cands[order]
            dists[block] = np.sqrt(np.take_along_axis(d2, order, axis=1))

    return MatchResult(matched_sets=matched_sets, distances=dists)


def _check_fresh(data: ObservationalDataset, matches: MatchResult) -> None:
    if matches.n != data.n:
        raise ValueError("MatchResult does not correspond to this dataset (stale indices)")
    if np.any(data.w[matches.matched_sets] != (1 - data.w)[:, None]):
        raise ValueError("MatchResult arms inconsistent with dataset (stale match)")


def _imputed(data: ObservationalDataset, counterfactual: np.ndarray) -> ImputedPotentialOutcomes:
    """Observed outcome on each unit's own arm, the counterfactual on the other."""
    y0 = np.where(data.w == 0, data.y, counterfactual)
    y1 = np.where(data.w == 1, data.y, counterfactual)
    return ImputedPotentialOutcomes(y0=y0, y1=y1)


def impute_raw(
    data: ObservationalDataset, matches: MatchResult
) -> ImputedPotentialOutcomes:
    """Impute the counterfactual outcome as the unweighted mean over the matched set."""
    _check_fresh(data, matches)
    return _imputed(data, data.y[matches.matched_sets].mean(axis=1))


def impute_bias_corrected(
    data: ObservationalDataset, matches: MatchResult, model: OutcomeModel
) -> ImputedPotentialOutcomes:
    """Impute the counterfactual with regression adjustment for covariate discrepancy.

    For unit i with matches j, the counterfactual is the mean over j of
    Y_j + mu_hat(X_i, 1 - W_i) - mu_hat(X_j, 1 - W_i). Since matched units sit
    in the opposite arm, mu_hat(X_j, 1 - W_i) is j's observed-arm prediction.
    """
    _check_fresh(data, matches)
    mu0 = predict_matrix(model, data.x, 0)
    mu1 = predict_matrix(model, data.x, 1)
    mu_counterfactual_self = np.where(data.w == 1, mu0, mu1)
    mu_observed = np.where(data.w == 1, mu1, mu0)
    matched_y = data.y[matches.matched_sets].mean(axis=1)
    matched_mu = mu_observed[matches.matched_sets].mean(axis=1)
    return _imputed(data, matched_y + mu_counterfactual_self - matched_mu)


def k_pi_counts(matches: MatchResult, assignments: np.ndarray) -> np.ndarray:
    """Signed match-usage counts K_M(pi, i) = sum over j with i in J_M(j) of (2 pi(X_j) - 1)."""
    signs = 2 * _check_assignments(assignments, matches.n).astype(np.int64) - 1
    out = np.zeros(matches.n, dtype=np.int64)
    np.add.at(out, matches.matched_sets.ravel(), np.repeat(signs, matches.m))
    return out
