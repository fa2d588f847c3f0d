"""Synthetic data-generating processes with ground-truth oracles.

Covariates are N(0, I_4). Treatment is Bernoulli with logit l(X) drawn from
five propensity scenarios (linear/nonlinear/constant, balanced through
extremely imbalanced). Outcomes are Y = m(X) + W c(X) + e with a linear or
nonlinear main effect, a tree or non-tree +-1 contrast, and a single N(0,1)
noise draw shared by both potential outcomes, so Y(1) - Y(0) = c(X) exactly.

All randomness flows through the Philox counter-based generator with the
ziggurat normal transform, keyed directly (no seed spreading), and the draw
order inside generate() is fixed: covariate matrix, then treatment uniforms,
then outcome noise. Identical specs therefore reproduce bit-identical data.

run_experiment runs one job per (setting, replicate), which draws the training
and test sets once for every method: methods compete on common random
numbers, whose seeds never include the method name.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .advantage import aipw_scores
from .dataset import (
    ObservationalDataset, _check_assignments, _check_choice, _check_int, _freeze, write_csv,
)
from .evaluation import fit_linear_probability
from .outcome_models import fit_ols_per_arm, predict_matrix
from .policytree import LearnConfig, TreePolicy, evaluate_policy, learn_policy, search_tree
from .seeding import _SEED_HIGH, derive_seed, philox_rng

__all__ = [
    "SimulationSpec",
    "SimulationOracle",
    "MonteCarloEstimate",
    "ReplicateResult",
    "METHODS",
    "generate",
    "empirical_value",
    "true_advantage",
    "learn_with_method",
    "run_experiment",
    "summarize_results",
    "write_results_csv",
    "write_summary_csv",
    "write_timings_csv",
]

N_FEATURES = 4
FEATURE_NAMES = ("x1", "x2", "x3", "x4")
DEFAULT_TEST_N = 20_000

# The design, one table per choice: each formula takes the columns x1..x4.
_PROPENSITY_LOGITS = {
    1: lambda x1, x2, x3, x4: -x1 + 0.5 * x2 - 0.25 * x3 - 0.1 * x4,
    2: lambda x1, x2, x3, x4: 0.1 * x1**3 + 0.2 * x2**3 + 0.3 * x3,
    3: lambda x1, x2, x3, x4: 2.1 - x1 + 2.0 * x2 - 0.25 * x3 - 0.1 * x4,
    4: lambda x1, *_: np.full(x1.shape[0], np.log(9.0)),
    5: lambda x1, x2, x3, x4: 1.0 + np.exp(x2) + np.sin(x1) * np.cos(x3),
}
_MAIN_EFFECTS = {
    "linear": lambda x1, x2, x3, x4: 1.0 + 2.0 * x1 - x2 + 0.5 * x3 - 1.5 * x4,
    "nonlinear": lambda x1, x2, x3, x4: 4.0 * np.sin(x1) + 2.5 * np.cos(x2) - x3 * x4,
}
_CONTRASTS = {
    "tree": lambda x1, x2, *_: 2.0 * ((x1 > 0) & (x2 > 0)) - 1.0,
    "nontree": lambda x1, x2, *_: 2.0 * (2.0 * x2 - np.exp(1.0 + x1) + 2.0 > 0) - 1.0,
}
SCENARIOS = tuple(_PROPENSITY_LOGITS)  # propensity scenarios
MAIN_EFFECTS = tuple(_MAIN_EFFECTS)
CONTRASTS = tuple(_CONTRASTS)

# Learner registry: matching with m in {1,5}, optionally bias-corrected by a
# per-arm linear fit (lr) or a quadratic-expansion lasso, plus a doubly robust
# scored tree baseline for comparisons.
METHODS: dict[str, LearnConfig | None] = {
    "mb-m1": LearnConfig(m=1, correction="none"),
    "mb-m5": LearnConfig(m=5, correction="none"),
    "mb-lr-m1": LearnConfig(m=1, correction="ols"),
    "mb-lr-m5": LearnConfig(m=5, correction="ols"),
    "mb-lasso-m1": LearnConfig(m=1, correction="lasso"),
    "mb-lasso-m5": LearnConfig(m=5, correction="lasso"),
    "aipw-tree": None,
}


def _logistic(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _columns(points: np.ndarray) -> np.ndarray:
    """The columns x1..x4 of a point or an (n, 4) matrix of points."""
    return np.atleast_2d(np.asarray(points, dtype=float)).T


def _mean(main_effect: str, contrast: str, points: np.ndarray, arm: int) -> np.ndarray:
    x = _columns(points)
    return _MAIN_EFFECTS[main_effect](*x) + arm * _CONTRASTS[contrast](*x)


def _propensity(scenario: int, points: np.ndarray) -> np.ndarray:
    return _logistic(_PROPENSITY_LOGITS[scenario](*_columns(points)))


def _contrast(contrast: str, points: np.ndarray) -> np.ndarray:
    return _CONTRASTS[contrast](*_columns(points))


@dataclass(frozen=True)
class SimulationSpec:
    """One data-generating configuration: propensity scenario, outcome model, size, seed."""

    propensity_scenario: int
    main_effect: str
    contrast: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        scenario = _check_choice("propensity_scenario", self.propensity_scenario, SCENARIOS)
        _freeze(
            self, propensity_scenario=scenario,
            main_effect=_check_choice("main_effect", self.main_effect, MAIN_EFFECTS),
            contrast=_check_choice("contrast", self.contrast, CONTRASTS),
            n=_check_int("n", self.n, 1), seed=_check_int("seed", self.seed, 0, _SEED_HIGH),
        )

    def key(self) -> str:
        """Canonical text form of the setting, e.g. "s1-linear-tree-n500"."""
        return (
            f"s{self.propensity_scenario}-{self.main_effect}-{self.contrast}-n{self.n}"
        )


@dataclass(frozen=True)
class SimulationOracle:
    """Ground truth for one generated dataset.

    Callables give the true mean function mu(x, w) = m(x) + w c(x), the
    propensity e(x), and the contrast c(x) at arbitrary points; y0/y1 are the
    generated potential-outcome pairs for the dataset rows (shared noise, so
    y1 - y0 equals the contrast exactly). optimal_rule is I{c(x) > 0}.
    """

    mu: Callable[[np.ndarray, int], np.ndarray]
    propensity: Callable[[np.ndarray], np.ndarray]
    contrast: Callable[[np.ndarray], np.ndarray]
    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self) -> None:
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        if y0.shape != y1.shape or y0.ndim != 1:
            raise ValueError("y0 and y1 must be equal-length vectors")
        _freeze(self, y0=y0, y1=y1)

    def optimal_rule(self, x: np.ndarray) -> np.ndarray:
        return (self.contrast(x) > 0).astype(np.int64)


def generate(spec: SimulationSpec) -> tuple[ObservationalDataset, SimulationOracle]:
    """Draw one dataset plus its oracle; identical specs give bit-identical output."""
    rng = philox_rng(spec.seed)
    x = rng.standard_normal((spec.n, N_FEATURES))
    w = (rng.random(spec.n) < _propensity(spec.propensity_scenario, x)).astype(np.int64)
    noise = rng.standard_normal(spec.n)

    y0 = _MAIN_EFFECTS[spec.main_effect](*x.T) + noise
    y1 = y0 + _contrast(spec.contrast, x)  # shared noise: the gap is the contrast
    y = np.where(w == 1, y1, y0)

    data = ObservationalDataset(x=x, w=w, y=y, feature_names=FEATURE_NAMES)
    oracle = SimulationOracle(
        mu=partial(_mean, spec.main_effect, spec.contrast),
        propensity=partial(_propensity, spec.propensity_scenario),
        contrast=partial(_contrast, spec.contrast),
        y0=y0, y1=y1,
    )
    return data, oracle


def empirical_value(assignments: np.ndarray, oracle: SimulationOracle) -> float:
    """Mean realized outcome had each unit received its assigned arm."""
    assignments = _check_assignments(assignments, oracle.y0.shape[0])
    return float(np.mean(np.where(assignments == 1, oracle.y1, oracle.y0)))


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    standard_error: float


def true_advantage(
    policy: TreePolicy, spec: SimulationSpec, mc_draws: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[(2 pi(X) - 1) c(X)] over fresh covariate draws."""
    mc_draws = _check_int("mc_draws", mc_draws, 2)  # two for a standard error
    rng = philox_rng(seed)
    x = rng.standard_normal((mc_draws, N_FEATURES))
    signs = 2.0 * evaluate_policy(policy, x) - 1.0
    vals = signs * _contrast(spec.contrast, x)
    return MonteCarloEstimate(
        value=float(vals.mean()),
        standard_error=float(vals.std(ddof=1) / np.sqrt(mc_draws)),
    )


def learn_with_method(
    data: ObservationalDataset, method: str, seed: int, depth: int = 2
) -> TreePolicy:
    """Train one registry method on a dataset.

    The matching methods run the impute-then-search pipeline; aipw-tree scores
    units with the doubly robust formula built from this package's plug-in
    nuisances (linear-probability propensity, quadratic OLS outcome model) and
    searches the same tree class on those scores.
    """
    _check_methods([method])
    if method == "aipw-tree":
        e_hat = fit_linear_probability(data)
        mu_hat = partial(predict_matrix, fit_ols_per_arm(data, "quadratic"))
        scores = aipw_scores(data, e_hat, mu_hat)
        tree = search_tree(data.x, scores.gamma, depth, data.eligible_features)
        return replace(tree, feature_names=data.feature_names)
    config = replace(METHODS[method], depth=depth, seed=seed)
    return learn_policy(data, config)


@dataclass(frozen=True)
class ReplicateResult:
    """One (setting, method, replicate) outcome row.

    value and regret are NaN when error is nonempty; tree is kept in memory
    for diagnostics and excluded from CSV output.
    """

    propensity_scenario: int
    main_effect: str
    contrast: str
    n: int
    method: str
    replicate: int
    value: float
    regret: float
    seconds: float
    error: str = ""
    tree: TreePolicy | None = field(default=None, compare=False)


def _run_single(
    setting: SimulationSpec, methods: list[str], rep: int, seed: int, test_n: int, depth: int
) -> list[ReplicateResult]:
    """One (setting, replicate) job: one row per method, all on the same draw.

    The training set, test set and optimal value are drawn once, before any
    method runs; a failed draw fails every method's row with its error. Each
    row's seconds cover its own method, and the first row's also cover the draw.
    """
    base = (setting.propensity_scenario, setting.main_effect, setting.contrast)
    dataset_seed = derive_seed("dataset", *base, setting.n, seed, rep)
    # test sets are shared across methods and across training sizes
    test_seed = derive_seed("test", *base, seed, rep)
    start = time.perf_counter()
    try:
        data, _ = generate(replace(setting, seed=dataset_seed))
        test_data, test_oracle = generate(replace(setting, n=test_n, seed=test_seed))
        optimal = empirical_value(test_oracle.optimal_rule(test_data.x), test_oracle)
        failed_draw = None
    except Exception as exc:
        failed_draw = _failure(exc)
    rows = []
    for method in methods:
        outcome = failed_draw
        if outcome is None:
            method_seed = derive_seed("method", method, *base, setting.n, seed, rep)
            try:
                tree = learn_with_method(data, method, method_seed, depth)
                value = empirical_value(evaluate_policy(tree, test_data.x), test_oracle)
                outcome = dict(value=value, regret=optimal - value, tree=tree)
            except Exception as exc:
                outcome = _failure(exc)
        end = time.perf_counter()
        rows.append(_row(setting, method, rep, end - start, **outcome))
        start = end
    return rows


def _row(
    setting: SimulationSpec, method: str, rep: int, seconds: float, **outcome: object
) -> ReplicateResult:
    return ReplicateResult(
        setting.propensity_scenario, setting.main_effect, setting.contrast, setting.n,
        method, rep, seconds=seconds, **outcome,
    )


def _failure(exc: BaseException) -> dict:
    """Row fields of a failed method: NaN value and regret, the error text."""
    nan = float("nan")
    return dict(value=nan, regret=nan, error=f"{type(exc).__name__}: {exc}")


def _check_methods(methods: list[str]) -> None:
    """Raise ValueError unless methods lists registry names, at least one, none twice."""
    if not methods:
        raise ValueError("need at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"repeated methods {repeated}; list each method once")


def run_experiment(
    settings: list[SimulationSpec],
    methods: list[str],
    replications: int,
    seed: int = 0,
    test_n: int = DEFAULT_TEST_N,
    depth: int = 2,
    threads: int = 1,
) -> list[ReplicateResult]:
    """Replicated grid run: settings x methods x replications.

    One job per (setting, replicate) draws the training set, test set and
    optimal value once and runs every method on them. Seeds derive from
    (setting, replicate, seed), plus the method name for the learner's own
    seed; the seed field of the settings themselves is ignored. Per-method
    failures are recorded in the row, not raised; so is a pool worker's death,
    on every method's row of each job that had not finished (seconds NaN).
    Rows come back ordered by setting, then method, then replicate, whatever
    threads is.
    """
    replications = _check_int("replications", replications, 0)
    if not settings or not replications:
        raise ValueError("need at least one setting and one replication")
    threads = _check_int("threads", threads, 1)
    seed = _check_int("seed", seed, None)
    _check_methods(methods)
    jobs = [(setting, rep) for setting in settings for rep in range(replications)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_single, setting, methods, rep, seed, test_n, depth)
                for setting, rep in jobs
            ]
            done = []
            for future, (setting, rep) in zip(futures, jobs):
                try:
                    done.append(future.result())
                except BrokenProcessPool as exc:  # a worker died; this job never finished
                    done.append([
                        _row(setting, method, rep, float("nan"), **_failure(exc))
                        for method in methods
                    ])
    else:
        done = [_run_single(setting, methods, rep, seed, test_n, depth) for setting, rep in jobs]
    per_setting = [done[i : i + replications] for i in range(0, len(done), replications)]
    return [job[k] for reps in per_setting for k in range(len(methods)) for job in reps]


# Columns that identify a replicate row; results and timings both lead with them.
_KEY_FIELDS = ("propensity_scenario", "main_effect", "contrast", "n", "method", "replicate")
_GROUP_FIELDS = _KEY_FIELDS[:-1]  # setting and method: one summary row each
_SUMMARY_STATS = ("mean_value", "sd_value", "median_value", "iqr_value", "mean_regret")
_SUMMARY_FIELDS = (*_GROUP_FIELDS, "replications", "failed", *_SUMMARY_STATS)


def _write_fields(rows: list[ReplicateResult], path: str | Path, fields: tuple[str, ...]) -> None:
    write_csv(path, fields, ([getattr(row, f) for f in fields] for row in rows))


def write_results_csv(rows: list[ReplicateResult], path: str | Path) -> None:
    """One row per replicate. Deterministic: wall times go to the timings CSV."""
    _write_fields(rows, path, (*_KEY_FIELDS, "value", "regret", "error"))


def write_timings_csv(rows: list[ReplicateResult], path: str | Path) -> None:
    _write_fields(rows, path, (*_KEY_FIELDS, "seconds"))


def summarize_results(
    rows: list[ReplicateResult],
) -> list[dict[str, object]]:
    """Per (setting, method) aggregates over non-failed replicates."""
    groups: dict[tuple, list[ReplicateResult]] = {}
    for row in rows:
        groups.setdefault(tuple(getattr(row, f) for f in _GROUP_FIELDS), []).append(row)
    out = []
    for key, members in groups.items():
        ok = [r for r in members if not r.error]
        values = np.array([r.value for r in ok])
        regrets = np.array([r.regret for r in ok])
        summary: dict[str, object] = dict(zip(_GROUP_FIELDS, key))
        summary.update(replications=len(members), failed=len(members) - len(ok))
        stats = [float("nan")] * len(_SUMMARY_STATS)
        if ok:
            q1, q2, q3 = np.percentile(values, [25, 50, 75])
            sd = values.std(ddof=1) if len(ok) > 1 else 0.0
            stats = [values.mean(), sd, q2, q3 - q1, regrets.mean()]
        summary.update(zip(_SUMMARY_STATS, map(float, stats)))
        out.append(summary)
    return out


def write_summary_csv(rows: list[ReplicateResult], path: str | Path) -> None:
    summaries = summarize_results(rows)
    write_csv(path, _SUMMARY_FIELDS, ([s[f] for f in _SUMMARY_FIELDS] for s in summaries))
