"""Cross-arm nearest-neighbor matching with replacement and potential-outcome imputation.

Each unit is matched to the M nearest opposite-arm units under a supplied
metric (exact brute-force scan, ties broken by smallest unit index, the
m nearest found by partial selection rather than a sort of every row). Each
treated-control distance is formed once, in n1 * n0 * p work, and serves
both units; blocks of treated rows and a running best set per control bound
the memory. The matched sets drive two imputations of the missing potential
outcome: the raw matched-outcome mean and a regression-adjusted
(bias-corrected) one. Both keep each unit's observed outcome and differ only
in the counterfactual they fill in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import ObservationalDataset, _check_assignments, _check_int, _freeze, write_csv
from .metric import MahalanobisMetric
from .outcome_models import OutcomeModel, _arm_means

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
        if not np.all(dists >= 0.0):
            raise ValueError("distances must be non-negative (no NaN)")
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

    Exact scan in n1 * n0 * p work: each treated-control distance is formed
    once and serves both units. Treated rows are taken in blocks of at most
    _BLOCK_BYTES of differences, so memory stays bounded as n grows; each
    treated unit takes its m nearest from its block row, and each control
    keeps its m nearest treated units so far, merged with every block's
    column. The difference buffer is freed once the last block's squared
    distances exist, so a problem that fits in one block selects neighbours
    without it. Ties go to the smallest unit index (see _nearest), so the
    result does not depend on the block size. Deterministic.
    """
    m = _check_int("m", m, 1)
    if metric.p != data.p:
        raise ValueError(f"metric is {metric.p}-d but data has p={data.p}")
    if data.p == 0:
        raise ValueError("data has no covariates to match on")
    n0, n1 = data.n_control, data.n_treated
    if min(n0, n1) < m:
        raise ValueError(
            f"each arm needs >= m={m} units; arms have n0={n0}, n1={n1}"
        )

    # Whitened coordinates: metric distance becomes Euclidean distance.
    z = data.x @ metric.whitener()
    treated, control = data.arm_indices(1), data.arm_indices(0)  # ascending original indices
    z_t, z_c = z[treated], z[control]
    rows = max(1, _BLOCK_BYTES // z_c.nbytes)
    diff = np.empty((min(rows, n1), n0, data.p))
    t_sets = np.empty((n1, m), dtype=np.intp)  # positions in control
    t_d2 = np.empty((n1, m))
    c_sets = np.empty((n0, 0), dtype=np.intp)  # positions in treated, nearest first
    c_d2 = np.empty((n0, 0))
    for start in range(0, n1, rows):
        block = slice(start, min(start + rows, n1))
        d = diff[: block.stop - start]
        # Explicit differences keep exactly-tied candidates bitwise equal, and
        # z_c - z_t is exactly -(z_t - z_c), so both arms read the same d2.
        d[...] = z_t[block, None, :]
        d -= z_c
        d2 = np.einsum("ijk,ijk->ij", d, d)
        if block.stop == n1:
            del d, diff  # spent: the last block selects without its differences
        order = _nearest(d2, m)
        t_sets[block] = order
        t_d2[block] = np.take_along_axis(d2, order, axis=1)
        # Kept entries have smaller treated indices than the block's, so the
        # stable selection by position is the selection by (distance, index).
        merged = np.concatenate((c_d2, d2.T), axis=1)
        positions = np.concatenate(
            (c_sets, np.broadcast_to(np.arange(block.start, block.stop), d2.T.shape)), axis=1
        )
        keep = _nearest(merged, min(m, merged.shape[1]))
        c_sets = np.take_along_axis(positions, keep, axis=1)
        c_d2 = np.take_along_axis(merged, keep, axis=1)

    matched_sets = np.empty((data.n, m), dtype=np.int64)
    dists = np.empty((data.n, m))
    matched_sets[treated], dists[treated] = control[t_sets], np.sqrt(t_d2)
    matched_sets[control], dists[control] = treated[c_sets], np.sqrt(c_d2)
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
    Y_j + mu_hat(X_i, 1 - W_i) - mu_hat(X_j, 1 - W_i); model is any mean function.
    """
    _check_fresh(data, matches)
    mu_other, mu_matched = _other_arm_means(data, matches, *_arm_means(model, data.x))
    matched_y = data.y[matches.matched_sets].mean(axis=1)
    return _imputed(data, matched_y + mu_other - mu_matched)


def _other_arm_means(
    data: ObservationalDataset, matches: MatchResult, mu0: np.ndarray, mu1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """From mu0, mu1 (mu at every row per arm): mu(X_i, 1 - W_i) and (1/M) sum_j mu(X_j, 1 - W_i).

    A matched unit j sits in arm 1 - W_i, so mu(X_j, 1 - W_i) is j's own-arm mean.
    """
    mu_own = np.where(data.w == 1, mu1, mu0)
    return np.where(data.w == 1, mu0, mu1), mu_own[matches.matched_sets].mean(axis=1)


def k_pi_counts(matches: MatchResult, assignments: np.ndarray) -> np.ndarray:
    """Signed match-usage counts K_M(pi, i) = sum over j with i in J_M(j) of (2 pi(X_j) - 1)."""
    signs = 2 * _check_assignments(assignments, matches.n).astype(np.int64) - 1
    out = np.zeros(matches.n, dtype=np.int64)
    np.add.at(out, matches.matched_sets.ravel(), np.repeat(signs, matches.m))
    return out
