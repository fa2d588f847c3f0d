"""Command-line interface: simulation runs, policy learning, evaluation, balance.

Every command resolves its configuration, writes a manifest.json (resolved
parameters plus sha256 of each input file) before any computation, then
writes its result files and an outputs.sha256 covering the deterministic
primary outputs, so rerunning a command with identical inputs reproduces
them byte for byte. simulate and replicate also write their wall-clock
measurements, to a separate timings.csv that the checksums leave out.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

from .dataset import CsvSchema, _read_header, load_csv, normalized_differences, write_csv
from .evaluation import (
    aipw_value_estimate,
    arm_proportion_propensity,
    cross_validate,
    fit_linear_probability,
)
from .outcome_models import fit_ols_per_arm, predict_matrix
from .policytree import (
    CORRECTIONS,
    MAX_DEPTH,
    LearnConfig,
    TreePolicy,
    constant_policy,
    evaluate_policy,
    impute_scores,
    learn_policy,
)
from .simulation import (
    CONTRASTS,
    DEFAULT_TEST_N,
    MAIN_EFFECTS,
    METHODS,
    SCENARIOS,
    SimulationSpec,
    _check_methods,
    learn_with_method,
    run_experiment,
    summarize_results,
    write_results_csv,
    write_summary_csv,
    write_timings_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
OUT_DIR_ENV = "MBPOLICY_OUT"

BUDGETS = {
    # the replicate manifest records each budget's entries under these names
    "smoke": dict(
        scenarios=(1,), mains=("linear",), contrasts=("tree",), sizes=(200,),
        methods=("mb-m5", "mb-lasso-m5"), reps=3,
    ),
    "desk": dict(
        scenarios=SCENARIOS, mains=MAIN_EFFECTS, contrasts=CONTRASTS, sizes=(500,),
        methods=("mb-m5", "mb-lasso-m5", "aipw-tree"), reps=20,
    ),
    "full": dict(
        scenarios=SCENARIOS, mains=MAIN_EFFECTS, contrasts=CONTRASTS, sizes=(200, 500, 1000),
        methods=tuple(sorted(METHODS)), reps=200,
    ),
}


def _int_at_least(low: int):
    """argparse type for an integer flag >= low; any other value is a usage error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return value

    return convert


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(
    out: Path, command: str, parameters: dict, inputs: dict[str, Path]
) -> None:
    _write_json(out / "manifest.json", {
        "command": command,
        "parameters": parameters,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
    })


def _write_checksums(out: Path, names: list[str]) -> None:
    lines = [f"{_sha256(out / name)}  {name}" for name in names]
    (out / "outputs.sha256").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _split_csv_flag(flag_value: str) -> list[str]:
    return [item.strip() for item in flag_value.split(",") if item.strip()]


def _load_dataset(args: argparse.Namespace):
    path = Path(args.data)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = _read_header(csv.reader(fh), path)
    if args.covariates:
        covariates = _split_csv_flag(args.covariates)
    else:
        covariates = [c for c in header if c not in (args.treatment_col, args.outcome_col)]
    schema = CsvSchema(
        treatment=args.treatment_col,
        outcome=args.outcome_col,
        covariates=tuple(covariates),
    )
    data = load_csv(path, schema)
    if args.exclude:
        data = data.excluding_from_policy(_split_csv_flag(args.exclude))
    return data, path


def _data_parameters(args: argparse.Namespace, data) -> dict:
    """Manifest entries for the data flags shared by learn, evaluate and balance."""
    return {
        "treatment_col": args.treatment_col,
        "outcome_col": args.outcome_col,
        "covariates": list(data.feature_names),
    }


def _resolve_policy(
    spec: str, feature_names: tuple[str, ...]
) -> tuple[TreePolicy, dict[str, Path]]:
    """The policy, and the manifest inputs naming the file it was read from, if any."""
    if spec == "treat-all":
        return constant_policy(1, feature_names), {}
    if spec == "treat-none":
        return constant_policy(0, feature_names), {}
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(
            f"policy {spec!r} is not 'treat-all', 'treat-none', or an existing file"
        )
    text = path.read_text(encoding="utf-8")
    tree = TreePolicy.from_json(text) if path.suffix == ".json" else TreePolicy.from_text(text)
    if tree.feature_names is not None:
        for j in sorted(set(tree.features.tolist())):
            if j < len(feature_names) and tree.feature_names[j] != feature_names[j]:
                raise ValueError(
                    f"policy splits on feature {j} named {tree.feature_names[j]!r}, "
                    f"but column {j} of the data is {feature_names[j]!r}"
                )
    return tree, {"policy": path}


def _write_grid(
    out: Path, args: argparse.Namespace, settings: list, methods: list[str], reps: int, depth: int
) -> tuple[list, int]:
    """Run the grid and write results, summary and timings; checksums skip the timings.

    Returns the rows and the exit code, a runtime failure when every row failed.
    """
    rows = run_experiment(
        settings, methods, reps, seed=args.seed, test_n=args.test_n, depth=depth,
        threads=args.threads,
    )
    write_results_csv(rows, out / "results.csv")
    write_summary_csv(rows, out / "summary.csv")
    write_timings_csv(rows, out / "timings.csv")
    _write_checksums(out, ["results.csv", "summary.csv"])
    return rows, EXIT_RUNTIME if all(row.error for row in rows) else EXIT_OK


def _grid_parameters(args: argparse.Namespace) -> dict:
    """Manifest entries of a grid command: its parsed flags, less the output dir."""
    return {
        key: value for key, value in vars(args).items()
        if key not in ("command", "func", "out", "method")
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    methods = _split_csv_flag(args.method)
    try:
        _check_methods(methods)
    except ValueError as exc:
        print(f"error: --method {args.method!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args)
    _write_manifest(out, "simulate", {**_grid_parameters(args), "methods": methods}, inputs={})
    settings = [SimulationSpec(args.scenario, args.main, args.contrast, args.n)]
    rows, code = _write_grid(out, args, settings, methods, args.reps, args.depth)
    for summary in summarize_results(rows):
        print(
            f"{summary['method']}: mean value {summary['mean_value']:.4f} "
            f"(sd {summary['sd_value']:.4f}), mean regret {summary['mean_regret']:.4f}, "
            f"failed {summary['failed']}/{summary['replications']}"
        )
    if code != EXIT_OK:
        print("all replicates failed", file=sys.stderr)
    return code


def cmd_replicate(args: argparse.Namespace) -> int:
    budget = BUDGETS[args.budget]
    out = _out_dir(args)
    _write_manifest(out, "replicate", {**_grid_parameters(args), **budget}, inputs={})
    axes = ("scenarios", "mains", "contrasts", "sizes")  # in SimulationSpec's order
    designs = itertools.product(*(budget[axis] for axis in axes))
    settings = [SimulationSpec(*design) for design in designs]
    rows, code = _write_grid(out, args, settings, list(budget["methods"]), budget["reps"], depth=2)
    n_failed = sum(1 for row in rows if row.error)
    print(f"{len(rows)} replicate rows written, {n_failed} failed")
    return code


def cmd_learn(args: argparse.Namespace) -> int:
    data, path = _load_dataset(args)
    out = _out_dir(args)
    config = LearnConfig(
        m=args.m,
        correction=args.correction,
        depth=args.depth,
        lasso_folds=args.lasso_folds,
        seed=args.seed,
    )
    _write_manifest(
        out,
        "learn",
        {
            **asdict(config),
            **_data_parameters(args, data),
            "excluded_from_policy": sorted(
                set(data.feature_names)
                - {data.feature_names[j] for j in data.eligible_features or range(data.p)}
            ),
        },
        inputs={"data": path},
    )
    imputed = impute_scores(data, config)
    tree = learn_policy(data, config, imputed=imputed)
    (out / "policy.txt").write_text(tree.to_text(), encoding="utf-8")
    (out / "policy.json").write_text(tree.to_json() + "\n", encoding="utf-8")
    columns = (data.w, data.y, imputed.y0, imputed.y1, imputed.gamma)
    write_csv(
        out / "gamma.csv",
        ("unit", "w", "y", "y0_imputed", "y1_imputed", "gamma"),
        zip(range(data.n), *(column.tolist() for column in columns)),
    )
    _write_checksums(out, ["policy.txt", "policy.json", "gamma.csv"])
    print(tree.to_text(), end="")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    data, path = _load_dataset(args)
    out = _out_dir(args)
    e_hat = (
        fit_linear_probability(data)
        if args.propensity == "linear"
        else arm_proportion_propensity(data)
    )
    parameters = {
        "propensity": args.propensity,
        "seed": args.seed,
        **_data_parameters(args, data),
    }
    if args.cv:
        parameters.update(cv=True, method=args.method, folds=args.folds,
                          repeats=args.repeats, depth=args.depth)
        _write_manifest(out, "evaluate", parameters, inputs={"data": path})
        report = cross_validate(
            data,
            lambda train: learn_with_method(train, args.method, args.seed, args.depth),
            folds=args.folds,
            repeats=args.repeats,
            seed=args.seed,
            e_hat=e_hat,
        )
        report.to_csv(out / "cv_values.csv")
        write_csv(out / "cv_failures.csv", ("failure",), ((f,) for f in report.failures))
        _write_json(out / "evaluation.json", {
            "cv_mean": report.mean,
            "cv_std": report.std,
            "folds": report.folds,
            "repeats": report.repeats,
            "failed_repeats": report.n_failed_repeats,
            "method": args.method,
        })
        _write_checksums(out, ["evaluation.json", "cv_values.csv", "cv_failures.csv"])
        print(f"cross-validated value: mean {report.mean:.1f} (sd {report.std:.1f})")
        if report.n_failed_repeats:
            print(
                f"{report.n_failed_repeats} repeats failed; reasons in {out / 'cv_failures.csv'}",
                file=sys.stderr,
            )
            if report.n_failed_repeats == report.repeats:
                return EXIT_RUNTIME
        return EXIT_OK
    parameters.update(cv=False, policy=args.policy)
    tree, policy_inputs = _resolve_policy(args.policy, data.feature_names)
    _write_manifest(out, "evaluate", parameters, inputs={"data": path, **policy_inputs})
    assignments = evaluate_policy(tree, data.x)
    mu_hat = partial(predict_matrix, fit_ols_per_arm(data, "quadratic"))
    value = aipw_value_estimate(data, assignments, e_hat, mu_hat)
    _write_json(out / "evaluation.json", {
        "policy": args.policy, "value": value, "n_treated_by_policy": int(assignments.sum())
    })
    _write_checksums(out, ["evaluation.json"])
    print(f"estimated value under policy {args.policy!r}: {value:.1f}")
    return EXIT_OK


def cmd_balance(args: argparse.Namespace) -> int:
    data, path = _load_dataset(args)
    out = _out_dir(args)
    _write_manifest(out, "balance", _data_parameters(args, data), inputs={"data": path})
    report = normalized_differences(data)
    report.to_csv(out / "balance.csv")
    _write_checksums(out, ["balance.csv"])
    width = max(len(name) for name in report.feature_names)
    print(f"{'covariate':<{width}}  normalized difference")
    for name, diff in zip(report.feature_names, report.normalized_diffs):
        print(f"{name:<{width}}  {diff:+.3f}")
    print(f"(control n={report.n_control}, treated n={report.n_treated})")
    return EXIT_OK


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="input CSV file")
    sub.add_argument(
        "--treatment-col", default="treat", help="binary treatment column (default: treat)"
    )
    sub.add_argument(
        "--outcome-col", default="re78", help="outcome column (default: re78)"
    )
    sub.add_argument(
        "--covariates",
        default="",
        help="comma-separated covariate columns (default: all other columns)",
    )
    sub.add_argument(
        "--exclude",
        default="",
        help="comma-separated covariates barred from policy splits "
        "(still used for matching and evaluation)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbpolicy",
        description="Matching-based policy learning: simulate, learn, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    depths = range(1, MAX_DEPTH + 1)
    learn_defaults = LearnConfig()
    non_negative, positive, at_least_two = _int_at_least(0), _int_at_least(1), _int_at_least(2)

    sim = sub.add_parser("simulate", help="replicated simulation runs on one setting")
    sim.add_argument("--scenario", type=int, choices=SCENARIOS, required=True)
    sim.add_argument("--main", choices=MAIN_EFFECTS, required=True)
    sim.add_argument("--contrast", choices=CONTRASTS, required=True)
    sim.add_argument("--n", type=positive, required=True, help="training size")
    sim.add_argument(
        "--method",
        default="mb-lasso-m5",
        help=f"comma-separated methods from {sorted(METHODS)}",
    )
    sim.add_argument("--reps", type=positive, default=50)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--test-n", type=positive, default=DEFAULT_TEST_N)
    sim.add_argument("--depth", type=int, choices=depths, default=2)
    sim.add_argument("--threads", type=positive, default=1)
    sim.add_argument("--out", default="", help=f"output dir (or ${OUT_DIR_ENV})")
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("replicate", help="bundled simulation grids")
    rep.add_argument("--budget", choices=sorted(BUDGETS), default="desk")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--test-n", type=positive, default=DEFAULT_TEST_N)
    rep.add_argument("--threads", type=positive, default=1)
    rep.add_argument("--out", default="")
    rep.set_defaults(func=cmd_replicate)

    learn = sub.add_parser("learn", help="learn a tree policy from a CSV")
    _add_data_flags(learn)
    learn.add_argument("--m", type=positive, default=learn_defaults.m, help="matches per unit")
    learn.add_argument("--correction", choices=CORRECTIONS, default=learn_defaults.correction)
    learn.add_argument("--depth", type=int, choices=depths, default=learn_defaults.depth)
    learn.add_argument("--lasso-folds", type=at_least_two, default=learn_defaults.lasso_folds)
    learn.add_argument("--seed", type=non_negative, default=learn_defaults.seed)
    learn.add_argument("--out", default="")
    learn.set_defaults(func=cmd_learn)

    ev = sub.add_parser("evaluate", help="value a policy on a CSV, single or CV")
    _add_data_flags(ev)
    ev.add_argument(
        "--policy",
        default="treat-all",
        help="'treat-all', 'treat-none', or a policy file (.json or text form)",
    )
    ev.add_argument("--cv", action="store_true", help="cross-validated learner value")
    ev.add_argument("--method", choices=sorted(METHODS), default="mb-lasso-m5")
    ev.add_argument("--folds", type=at_least_two, default=5)
    ev.add_argument("--repeats", type=positive, default=100)
    ev.add_argument("--depth", type=int, choices=depths, default=2)
    ev.add_argument(
        "--propensity",
        choices=("proportions", "linear"),
        default="proportions",
        help="plug-in propensity: arm proportions (randomized) or linear probability",
    )
    ev.add_argument("--seed", type=non_negative, default=0)
    ev.add_argument("--out", default="")
    ev.set_defaults(func=cmd_evaluate)

    bal = sub.add_parser("balance", help="normalized covariate differences")
    _add_data_flags(bal)
    bal.add_argument("--out", default="")
    bal.set_defaults(func=cmd_balance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
