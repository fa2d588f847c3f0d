#!/usr/bin/env python3
"""Print one SHA-256 over a fixed set of pipeline outputs.

The package is imported from the checkout's src/:

    python3 scripts/output_digest.py [--verbose] [--root CHECKOUT]

Two commits that print the same digest give byte-identical outputs on:

- the `run_experiment` rows (value, regret, tree JSON) of all seven methods on
  the two settings of the benchmark's sim-replicate workload, experiment
  seeds 1000-1002 (its `--seed 1`, rounds 0-2), test_n 20000, depth 2;
- for each of the 20 (scenario, main effect, contrast) designs, one seed-7
  training draw of n = 100 (x, w, y, y0, y1) and its oracle's mu at both
  arms, propensity, contrast and optimal rule on those covariates;
- on each of those draws, with M = 1 and M = 5 nearest-neighbour matches
  and the per-arm quadratic OLS fit: the bias-corrected imputation, then
  under the optimal rule the linear-form advantage, its decomposition with
  the oracle's mu, the estimated conditional bias, and the AIPW scores with
  the linear-probability propensities;
- the `outputs.sha256` of `evaluate --cv --repeats 1 --method mb-lr-m5
  --exclude black,hispanic` on bench/nsw_shaped.py's seed-0 file, CV seeds
  8-15 (the study-cv workload's `--seed 1` ops);
- the `outputs.sha256` (policy and gamma.csv) of the study-learn workload's op,
  `learn --correction lasso --m 5 --depth 2 --covariates
  age,education,re74,re75` on the same file;
- the `outputs.sha256` of `evaluate --policy` on that file, for the policies
  `treat-all` and the learned `learn/policy.txt` under each `--propensity`,
  and of `balance`. evaluation.json records a policy file by the sha256 of
  its bytes; the file is still named relative to the work directory, because
  older commits record the path as typed.

Unlike the benchmark's "(deterministic)" lines, the digest does not depend
on how many ops a timed run completes. --verbose also prints each item's
own digest, to find the one that moved. --root digests another checkout's
package and study file (default: this one), for commits without this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEARN_COVARIATES = "age,education,re74,re75"
SIM_SETTINGS = ((1, "linear", "tree", 500), (5, "nonlinear", "nontree", 500))
EXPERIMENT_SEEDS = (1000, 1001, 1002)
CV_SEEDS = range(8, 16)
DESIGN_N, DESIGN_SEED = 100, 7
MATCHES = (1, 5)
PROPENSITIES = ("proportions", "linear")
POLICIES = ("treat-all", "learn/policy.txt")


def items(root: Path):
    """(name, bytes) of every output the digest covers, in a fixed order."""
    sys.path.insert(0, str(root / "src"))
    from mbpolicy import cli
    from mbpolicy.advantage import (
        advantage_linear_form, aipw_scores, decompose_advantage, estimate_conditional_bias,
    )
    from mbpolicy.evaluation import fit_linear_probability
    from mbpolicy.matching import impute_bias_corrected, match_units
    from mbpolicy.metric import fit_mahalanobis
    from mbpolicy.outcome_models import fit_ols_per_arm, predict_matrix
    from mbpolicy.simulation import (
        CONTRASTS, MAIN_EFFECTS, METHODS, SCENARIOS, SimulationSpec, generate, run_experiment,
    )

    specs = [SimulationSpec(*setting) for setting in SIM_SETTINGS]
    for seed in EXPERIMENT_SEEDS:
        for row in run_experiment(specs, sorted(METHODS), 1, seed, test_n=20_000, depth=2):
            if row.error:
                raise RuntimeError(f"{row.method} at seed {seed} failed: {row.error}")
            name = f"{row.propensity_scenario}/{row.main_effect}/{row.contrast}/{row.method}/{seed}"
            yield name, f"{row.value!r} {row.regret!r} {row.tree.to_json()}".encode()

    for design in itertools.product(SCENARIOS, MAIN_EFFECTS, CONTRASTS):
        data, oracle = generate(SimulationSpec(*design, DESIGN_N, DESIGN_SEED))
        x = data.x
        arrays = (
            x, data.w, data.y, oracle.y0, oracle.y1, oracle.mu(x, 0), oracle.mu(x, 1),
            oracle.propensity(x), oracle.contrast(x), oracle.optimal_rule(x),
        )
        yield "design/{}/{}/{}".format(*design), b"".join(a.tobytes() for a in arrays)
        model = fit_ols_per_arm(data, "quadratic")
        rule = oracle.optimal_rule(x)
        scores = aipw_scores(data, fit_linear_probability(data), partial(predict_matrix, model))
        for m in MATCHES:
            matches = match_units(data, fit_mahalanobis(x), m)
            imputed = impute_bias_corrected(data, matches, model)
            parts = decompose_advantage(data, matches, rule, oracle.mu)
            floats = (
                advantage_linear_form(data, matches, rule), parts.a_bar, parts.e_m, parts.b_m,
                estimate_conditional_bias(data, matches, rule, model), scores.n_clipped,
            )
            arrays = (matches.matched_sets, matches.distances, imputed.y0, imputed.y1,
                      scores.gamma, scores.e_hat)
            yield "estimators/{}/{}/{}/m{}".format(*design, m), (
                repr(floats).encode() + b"".join(a.tobytes() for a in arrays)
            )

    spec = importlib.util.spec_from_file_location("nsw_shaped", root / "bench" / "nsw_shaped.py")
    nsw_shaped = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nsw_shaped)

    def checksums(argv: list[str], out: Path) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return (out / "outputs.sha256").read_bytes()

    with tempfile.TemporaryDirectory() as work:
        path = nsw_shaped.write_csv(Path(work) / "nsw_shaped.csv", 0)
        for seed in CV_SEEDS:
            argv = [
                "evaluate", "--data", str(path), "--cv", "--repeats", "1", "--seed", str(seed),
                "--method", "mb-lr-m5", "--exclude", "black,hispanic",
            ]
            yield f"cv/{seed}", checksums(argv, Path(work) / f"cv-{seed}")
        argv = [
            "learn", "--data", str(path), "--covariates", LEARN_COVARIATES,
            "--correction", "lasso", "--m", "5", "--depth", "2",
        ]
        yield "learn", checksums(argv, Path(work) / "learn")
        data_flags = ["--data", str(path), "--covariates", LEARN_COVARIATES]
        here = os.getcwd()
        os.chdir(work)  # the learned policy goes by the same name on every run and commit
        try:
            for propensity, policy in itertools.product(PROPENSITIES, POLICIES):
                argv = ["evaluate", *data_flags, "--policy", policy, "--propensity", propensity]
                name = f"evaluate/{propensity}/{policy}"
                yield name, checksums(argv, Path(work) / name.replace("/", "-"))
        finally:
            os.chdir(here)
        yield "balance", checksums(["balance", *data_flags], Path(work) / "balance")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print each item's digest")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to digest")
    args = parser.parse_args()
    total = hashlib.sha256()
    for name, payload in items(args.root.resolve()):
        if args.verbose:
            print(f"{hashlib.sha256(payload).hexdigest()}  {name}")
        total.update(name.encode() + b"\0" + payload + b"\0")
    print(f"output digest {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
